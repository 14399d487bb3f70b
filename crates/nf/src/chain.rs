//! Service chains: the paper's Manager can associate "single or chain of NFs"
//! with a client's traffic. A chain is an ordered list of NFs; upstream
//! packets traverse it front-to-back, downstream packets back-to-front (so the
//! NF closest to the client sees both directions last/first consistently,
//! mirroring how the veth pairs would be stitched together on a real host).

use crate::nf::{
    Direction, FieldsConsulted, NetworkFunction, NfContext, NfEvent, NfStats, Verdict,
};
use crate::spec::NfKind;
use crate::state::{NfStateDelta, NfStateSnapshot};
use gnf_packet::{FieldMask, Packet, PacketBatch};
use gnf_types::{GnfError, GnfResult};
use std::borrow::Cow;
use std::sync::Arc;

/// The chain's certified contribution to a megaflow (wildcard) cache entry:
/// what happens to any packet agreeing with the reported one on the masked
/// fields, and the tokens that replay the statistics of exactly the NFs that
/// packet would have visited (see [`NfChain::wildcard_report`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ChainBypass {
    /// Every NF forwards matching packets unchanged: the whole chain may be
    /// skipped. `tokens` (one per NF, in **traversal order** for the
    /// reported direction) replay each NF's statistics via
    /// [`NfChain::credit_bypass`].
    Forward {
        /// Union of the five-tuple fields any NF consulted.
        mask: FieldMask,
        /// Per-NF replay tokens, in traversal order.
        tokens: Arc<[u64]>,
    },
    /// The chain silently drops matching packets at the last tokened NF:
    /// they may be retired before the chain runs. `tokens` (in traversal
    /// order) cover exactly the NFs the packet would have visited — the
    /// dropping NF last — and replay their statistics via
    /// [`NfChain::credit_bypass_drop`]; `reason` is the drop reason every
    /// matching packet would receive.
    Drop {
        /// Union of the five-tuple fields the visited NFs consulted.
        mask: FieldMask,
        /// Replay tokens for the visited NFs, the dropping NF last.
        tokens: Arc<[u64]>,
        /// The replayed drop reason.
        reason: Cow<'static, str>,
    },
}

/// An ordered chain of network functions treated as a single function.
pub struct NfChain {
    name: String,
    nfs: Vec<Box<dyn NetworkFunction>>,
    stats: NfStats,
}

impl NfChain {
    /// Creates an empty chain.
    pub fn new(name: &str) -> Self {
        NfChain {
            name: name.to_string(),
            nfs: Vec::new(),
            stats: NfStats::default(),
        }
    }

    /// Appends an NF to the end of the chain (furthest from the client).
    pub fn push(&mut self, nf: Box<dyn NetworkFunction>) {
        self.nfs.push(nf);
    }

    /// Number of NFs in the chain.
    pub fn len(&self) -> usize {
        self.nfs.len()
    }

    /// True when the chain contains no NFs.
    pub fn is_empty(&self) -> bool {
        self.nfs.is_empty()
    }

    /// The chain's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The kinds of the NFs in chain order.
    pub fn kinds(&self) -> Vec<NfKind> {
        self.nfs.iter().map(|nf| nf.kind()).collect()
    }

    /// Per-NF statistics, in chain order, as `(name, kind, stats)`.
    pub fn per_nf_stats(&self) -> Vec<(String, NfKind, NfStats)> {
        self.nfs
            .iter()
            .map(|nf| (nf.name().to_string(), nf.kind(), nf.stats()))
            .collect()
    }

    /// Access an NF by index (for tests and white-box assertions).
    pub fn nf(&self, index: usize) -> Option<&dyn NetworkFunction> {
        self.nfs.get(index).map(|b| b.as_ref())
    }

    /// Chain-level statistics (packets entering/leaving the whole chain).
    pub fn stats(&self) -> NfStats {
        self.stats
    }

    /// Processes a packet through the chain.
    ///
    /// * `Ingress` packets traverse NFs in order `0, 1, 2, ...`.
    /// * `Egress` packets traverse them in reverse.
    ///
    /// The first NF that drops or replies short-circuits the rest of the
    /// chain, exactly as if the packet never reached the later veth pairs.
    pub fn process(&mut self, packet: Packet, direction: Direction, ctx: &NfContext) -> Verdict {
        self.stats.record_in(packet.len());
        let len = self.nfs.len();
        let mut current = packet;
        // Walk indices directly in either direction — no per-packet order
        // vector on the pass-through path.
        for step in 0..len {
            let ix = match direction {
                Direction::Ingress => step,
                Direction::Egress => len - 1 - step,
            };
            match self.nfs[ix].process(current, direction, ctx) {
                Verdict::Forward(next) => current = next,
                verdict @ Verdict::Drop(_) | verdict @ Verdict::Reply(_) => {
                    self.stats.record_verdict(&verdict);
                    return verdict;
                }
            }
        }
        let verdict = Verdict::Forward(current);
        self.stats.record_verdict(&verdict);
        verdict
    }

    /// Processes a batch of packets through the chain, returning one verdict
    /// per packet aligned with the batch order: [`NfChain::process`] applied
    /// to each packet in arrival order, under the batch's shared context.
    pub fn process_batch(
        &mut self,
        batch: PacketBatch,
        direction: Direction,
        ctx: &NfContext,
    ) -> Vec<Verdict> {
        batch
            .into_iter()
            .map(|packet| self.process(packet, direction, ctx))
            .collect()
    }

    /// The chain index visited at `step` of a traversal in `direction`
    /// (ingress walks `0, 1, 2, ...`; egress walks in reverse).
    fn traversal_ix(&self, direction: Direction, step: usize) -> usize {
        match direction {
            Direction::Ingress => step,
            Direction::Egress => self.nfs.len() - 1 - step,
        }
    }

    /// The chain's contribution to a megaflow (wildcard) cache entry for the
    /// most recently processed packet travelling in `direction`.
    ///
    /// Walks the NFs in traversal order asking each what the cache may
    /// assume ([`NetworkFunction::fields_consulted`]):
    ///
    /// * every NF reports [`FieldsConsulted::Pure`] →
    ///   [`ChainBypass::Forward`] with the union mask and one token per NF;
    /// * pure NFs up to one reporting [`FieldsConsulted::PureDrop`] →
    ///   [`ChainBypass::Drop`]: the walk stops at the dropper, because NFs
    ///   behind it never saw the packet (their state is stale and must not
    ///   be consulted) and will not see matching packets either;
    /// * any visited NF is [`FieldsConsulted::Opaque`] → `None` — the chain
    ///   must keep processing every packet, and the switch may cache its own
    ///   decision only.
    ///
    /// An empty chain is trivially forward-bypassable (empty mask, no
    /// tokens).
    pub fn wildcard_report(&self, direction: Direction) -> Option<ChainBypass> {
        let mut mask = FieldMask::EMPTY;
        let mut tokens = Vec::with_capacity(self.nfs.len());
        for step in 0..self.nfs.len() {
            let ix = self.traversal_ix(direction, step);
            match self.nfs[ix].fields_consulted() {
                FieldsConsulted::Pure { mask: m, token } => {
                    mask.insert(m);
                    tokens.push(token);
                }
                FieldsConsulted::PureDrop {
                    mask: m,
                    token,
                    reason,
                } => {
                    mask.insert(m);
                    tokens.push(token);
                    return Some(ChainBypass::Drop {
                        mask,
                        tokens: tokens.into(),
                        reason,
                    });
                }
                FieldsConsulted::Opaque => return None,
            }
        }
        Some(ChainBypass::Forward {
            mask,
            tokens: tokens.into(),
        })
    }

    /// Replays the statistics of `packets` bypassed packets totalling
    /// `bytes` — chain-level counters plus every member NF via its token —
    /// exactly as if each packet had traversed the chain in `direction` and
    /// been forwarded. `tokens` must come from a [`ChainBypass::Forward`]
    /// report of this chain for the same direction.
    pub fn credit_bypass(
        &mut self,
        direction: Direction,
        tokens: &[u64],
        packets: u64,
        bytes: u64,
    ) {
        self.stats.record_in_batch(packets, bytes);
        self.stats.record_bypassed_forward(packets, bytes);
        debug_assert!(tokens.len() <= self.nfs.len(), "one token per NF");
        for (step, token) in tokens.iter().enumerate().take(self.nfs.len()) {
            let ix = self.traversal_ix(direction, step);
            self.nfs[ix].credit_bypass(*token, packets, bytes);
        }
    }

    /// Replays the statistics of `packets` bypassed **dropped** packets
    /// totalling `bytes`, exactly as if each had traversed the chain in
    /// `direction` and been dropped by the last tokened NF: the NFs before
    /// it are credited as having forwarded the packets, the dropper as
    /// having dropped them, and the chain-level counters record the drops.
    /// `tokens` must come from a [`ChainBypass::Drop`] report of this chain
    /// for the same direction.
    pub fn credit_bypass_drop(
        &mut self,
        direction: Direction,
        tokens: &[u64],
        packets: u64,
        bytes: u64,
    ) {
        self.stats.record_in_batch(packets, bytes);
        self.stats.record_bypassed_drop(packets);
        debug_assert!(tokens.len() <= self.nfs.len(), "at most one token per NF");
        let visited = tokens.len().min(self.nfs.len());
        let Some(last_step) = visited.checked_sub(1) else {
            return;
        };
        for (step, token) in tokens.iter().enumerate().take(last_step) {
            let ix = self.traversal_ix(direction, step);
            self.nfs[ix].credit_bypass(*token, packets, bytes);
        }
        let ix = self.traversal_ix(direction, last_step);
        self.nfs[ix].credit_bypass_drop(tokens[last_step], packets, bytes);
    }

    /// Exports every member NF's state, in chain order.
    pub fn export_state(&self) -> Vec<NfStateSnapshot> {
        self.nfs.iter().map(|nf| nf.export_state()).collect()
    }

    /// Imports state previously produced by [`NfChain::export_state`].
    /// Extra or missing entries are ignored (the chain may have been
    /// reconfigured between export and import).
    pub fn import_state(&mut self, states: Vec<NfStateSnapshot>) {
        for (nf, state) in self.nfs.iter_mut().zip(states) {
            nf.import_state(state);
        }
    }

    /// Replaces every member NF's state wholesale with `states` (chain
    /// order), discarding anything accumulated locally. Used when a pre-copy
    /// baseline is (re-)staged on a migration target: unlike
    /// [`NfChain::import_state`] this does not merge with prior contents.
    pub fn replace_state(&mut self, states: Vec<NfStateSnapshot>) {
        for (nf, state) in self.nfs.iter_mut().zip(states) {
            nf.replace_state(state);
        }
    }

    /// Applies one pre-copy delta per NF (chain order) on top of the current
    /// state, each through [`NetworkFunction::apply_delta`]: the NF's own
    /// tables are patched in place, so the cost follows the size of the
    /// deltas, not of the tables. After this the chain's exported state is
    /// identical to the source's at the moment the deltas were diffed — each
    /// NF exports `delta.apply(&its_state_before)`.
    ///
    /// `deltas` is either empty (nothing was diffed: the staged state is
    /// already final) or one per NF. Anything else is refused before any NF
    /// is touched — zipping would silently leave the tail of the chain on
    /// the baseline.
    pub fn apply_state_deltas(&mut self, deltas: &[NfStateDelta]) -> GnfResult<()> {
        if !deltas.is_empty() && deltas.len() != self.nfs.len() {
            return Err(GnfError::invalid_state(format!(
                "{} state deltas for the {} NFs of chain {}",
                deltas.len(),
                self.nfs.len(),
                self.name
            )));
        }
        for (nf, delta) in self.nfs.iter_mut().zip(deltas) {
            nf.apply_delta(delta);
        }
        Ok(())
    }

    /// Drains pending events from every NF in the chain, each paired with
    /// the name of the NF that raised it. An NF is only named when it has
    /// events, so draining an idle chain allocates nothing.
    pub fn drain_events(&mut self) -> Vec<(String, NfEvent)> {
        let mut out = Vec::new();
        for nf in &mut self.nfs {
            let events = nf.drain_events();
            if !events.is_empty() {
                let name = nf.name().to_string();
                out.extend(events.into_iter().map(|event| (name.clone(), event)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firewall::{Firewall, FirewallConfig, FirewallRule};
    use crate::http_filter::{HttpFilter, HttpFilterConfig};
    use crate::rate_limiter::{RateLimiter, RateLimiterConfig};
    use gnf_packet::builder;
    use gnf_types::{MacAddr, SimTime};
    use std::net::Ipv4Addr;

    fn ctx() -> NfContext {
        NfContext::at(SimTime::from_secs(1))
    }

    fn demo_chain() -> NfChain {
        // The demo's chain: firewall (block port 22) then HTTP filter.
        let mut chain = NfChain::new("demo-chain");
        chain.push(Box::new(Firewall::new(
            "fw",
            FirewallConfig::with_rules(vec![FirewallRule::block_tcp_dst_port("no-ssh", 22)]),
        )));
        chain.push(Box::new(HttpFilter::new(
            "hf",
            HttpFilterConfig::block_hosts(&["blocked.example"]),
        )));
        chain
    }

    fn http(host: &str) -> Packet {
        builder::http_get(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(198, 51, 100, 7),
            40_000,
            host,
            "/",
        )
    }

    #[test]
    fn packets_flow_through_all_nfs() {
        let mut chain = demo_chain();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.kinds(), vec![NfKind::Firewall, NfKind::HttpFilter]);
        let verdict = chain.process(http("ok.example"), Direction::Ingress, &ctx());
        assert!(verdict.is_forward());
        let per_nf = chain.per_nf_stats();
        assert_eq!(per_nf[0].2.packets_in, 1);
        assert_eq!(per_nf[1].2.packets_in, 1);
        assert_eq!(chain.stats().packets_forwarded, 1);
    }

    #[test]
    fn early_drop_short_circuits_the_chain() {
        let mut chain = demo_chain();
        let ssh = builder::tcp_syn(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(198, 51, 100, 7),
            40_001,
            22,
        );
        let verdict = chain.process(ssh, Direction::Ingress, &ctx());
        assert!(verdict.is_drop());
        let per_nf = chain.per_nf_stats();
        assert_eq!(per_nf[0].2.packets_dropped, 1);
        assert_eq!(per_nf[1].2.packets_in, 0, "the filter never saw the packet");
    }

    #[test]
    fn reply_from_a_later_nf_is_returned() {
        let mut chain = demo_chain();
        let verdict = chain.process(http("blocked.example"), Direction::Ingress, &ctx());
        assert!(verdict.is_reply());
        assert_eq!(chain.stats().packets_replied, 1);
    }

    #[test]
    fn egress_traverses_in_reverse_order() {
        // Build a chain where only the rate limiter (placed first) would block
        // downstream traffic; confirm the downstream packet hits it even
        // though it is "first" in the chain.
        let mut chain = NfChain::new("rl-chain");
        chain.push(Box::new(RateLimiter::new(
            "rl",
            RateLimiterConfig {
                rate_bytes_per_sec: 1.0,
                burst_bytes: 1.0, // effectively blocks everything
                ..Default::default()
            },
        )));
        chain.push(Box::new(Firewall::new("fw", FirewallConfig::default())));

        let downstream = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            Ipv4Addr::new(198, 51, 100, 7),
            Ipv4Addr::new(10, 0, 0, 2),
            80,
            40_000,
            b"data",
        );
        let verdict = chain.process(downstream, Direction::Egress, &ctx());
        assert!(
            verdict.is_drop(),
            "rate limiter must see egress traffic too"
        );
        // The firewall (last in egress order... first traversed) saw it first.
        let per_nf = chain.per_nf_stats();
        assert_eq!(per_nf[1].2.packets_in, 1);
    }

    #[test]
    fn empty_batch_produces_no_verdicts() {
        let mut chain = demo_chain();
        let verdicts =
            chain.process_batch(gnf_packet::PacketBatch::new(), Direction::Ingress, &ctx());
        assert!(verdicts.is_empty());
        assert_eq!(chain.stats().packets_in, 0);
    }

    #[test]
    fn empty_chain_forwards_everything() {
        let mut chain = NfChain::new("empty");
        assert!(chain.is_empty());
        let verdict = chain.process(http("anything.example"), Direction::Ingress, &ctx());
        assert!(verdict.is_forward());
    }

    #[test]
    fn chain_state_export_import_is_positional() {
        let mut chain = demo_chain();
        // Establish a connection through the firewall.
        chain.process(http("ok.example"), Direction::Ingress, &ctx());
        let states = chain.export_state();
        assert_eq!(states.len(), 2);
        assert!(states[0].approximate_size_bytes() > 0, "conntrack state");

        let mut fresh = demo_chain();
        fresh.import_state(states);
        assert!(fresh.export_state()[0].approximate_size_bytes() > 0);

        // Importing a shorter state vector must not panic.
        let mut partial = demo_chain();
        partial.import_state(vec![NfStateSnapshot::Stateless]);
    }

    #[test]
    fn wildcard_report_requires_every_nf_to_be_pure() {
        use crate::firewall::{CidrV4, PortMatch, ProtocolMatch, RuleAction};
        use gnf_packet::FieldMask;
        use std::net::Ipv4Addr;

        let untracked = |name: &str, rules: Vec<FirewallRule>| {
            Box::new(Firewall::new(
                name,
                FirewallConfig {
                    rules,
                    default_action: RuleAction::Accept,
                    track_connections: false,
                    conntrack_idle_timeout_secs: 60,
                },
            ))
        };
        let port_rule = FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Range(10_000, 10_100),
            action: RuleAction::Drop,
            ..FirewallRule::any("range", RuleAction::Drop)
        };
        let ip_rule =
            FirewallRule::block_dst("cidr", CidrV4::new(Ipv4Addr::new(192, 168, 0, 0), 16));

        let mut chain = NfChain::new("pure-chain");
        chain.push(untracked("fw-ports", vec![port_rule]));
        chain.push(untracked("fw-ips", vec![ip_rule]));
        let pkt = http("ok.example");
        let len = pkt.len() as u64;
        assert!(chain.process(pkt, Direction::Ingress, &ctx()).is_forward());

        let Some(ChainBypass::Forward { mask, tokens }) = chain.wildcard_report(Direction::Ingress)
        else {
            panic!("all NFs pure");
        };
        // The union of both firewalls' consulted fields.
        assert!(mask.contains(FieldMask::PROTOCOL));
        assert!(mask.contains(FieldMask::DST_PORT));
        assert!(mask.contains(FieldMask::DST_IP));
        assert_eq!(tokens.len(), 2);

        // Crediting replays chain and per-NF statistics exactly.
        let mut reference = NfChain::new("pure-chain");
        reference.push(untracked(
            "fw-ports",
            vec![FirewallRule {
                protocol: ProtocolMatch::Tcp,
                dst_port: PortMatch::Range(10_000, 10_100),
                action: RuleAction::Drop,
                ..FirewallRule::any("range", RuleAction::Drop)
            }],
        ));
        reference.push(untracked(
            "fw-ips",
            vec![FirewallRule::block_dst(
                "cidr",
                CidrV4::new(Ipv4Addr::new(192, 168, 0, 0), 16),
            )],
        ));
        for _ in 0..4 {
            reference.process(http("ok.example"), Direction::Ingress, &ctx());
        }
        chain.credit_bypass(Direction::Ingress, &tokens, 3, 3 * len);
        assert_eq!(chain.stats(), reference.stats());
        assert_eq!(chain.per_nf_stats(), reference.per_nf_stats());

        // One opaque NF (default trait impl — the HTTP filter reads the
        // payload) makes the whole chain unreportable.
        let mut opaque = demo_chain();
        opaque.process(http("ok.example"), Direction::Ingress, &ctx());
        assert!(opaque.wildcard_report(Direction::Ingress).is_none());

        // An empty chain is trivially bypassable.
        let empty = NfChain::new("empty");
        let Some(ChainBypass::Forward { mask, tokens }) = empty.wildcard_report(Direction::Ingress)
        else {
            panic!("empty chain is pure");
        };
        assert!(mask.is_empty());
        assert!(tokens.is_empty());
    }

    #[test]
    fn wildcard_drop_report_stops_at_the_dropping_nf() {
        use crate::firewall::{PortMatch, ProtocolMatch, RuleAction};
        use crate::ids::{Ids, IdsConfig};
        use gnf_packet::FieldMask;

        let untracked = |name: &str, rules: Vec<FirewallRule>| {
            Box::new(Firewall::new(
                name,
                FirewallConfig {
                    rules,
                    default_action: RuleAction::Accept,
                    track_connections: false,
                    conntrack_idle_timeout_secs: 60,
                },
            ))
        };
        let deny_privileged = FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Range(1, 1023),
            action: RuleAction::Drop,
            ..FirewallRule::any("privileged", RuleAction::Drop)
        };
        // Pure pass-through firewall, then the denying firewall, then an
        // opaque IDS. The IDS never sees the dropped packet, so the chain is
        // still drop-bypassable despite the opaque tail.
        let build = || {
            let mut chain = NfChain::new("drop-chain");
            chain.push(untracked("fw-pass", vec![]));
            chain.push(untracked("fw-deny", vec![deny_privileged.clone()]));
            chain.push(Box::new(Ids::new("ids", IdsConfig::default())));
            chain
        };
        let ssh = builder::tcp_syn(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(198, 51, 100, 7),
            40_001,
            22,
        );
        let len = ssh.len() as u64;
        let mut chain = build();
        let verdict = chain.process(ssh.clone(), Direction::Ingress, &ctx());
        let Verdict::Drop(dropped_reason) = &verdict else {
            panic!("expected a drop");
        };

        let Some(ChainBypass::Drop {
            mask,
            tokens,
            reason,
        }) = chain.wildcard_report(Direction::Ingress)
        else {
            panic!("drop at the second NF must be certifiable");
        };
        assert_eq!(tokens.len(), 2, "tokens cover exactly the visited NFs");
        assert_eq!(&reason, dropped_reason);
        assert!(mask.contains(FieldMask::PROTOCOL));
        assert!(mask.contains(FieldMask::DST_PORT));

        // Crediting replays chain-level and per-NF statistics exactly.
        let mut reference = build();
        for _ in 0..4 {
            reference.process(ssh.clone(), Direction::Ingress, &ctx());
        }
        chain.credit_bypass_drop(Direction::Ingress, &tokens, 3, 3 * len);
        assert_eq!(chain.stats(), reference.stats());
        assert_eq!(chain.per_nf_stats(), reference.per_nf_stats());

        // Egress traverses the chain in reverse: the opaque IDS is visited
        // first, so no egress drop entry may be certified.
        let mut egress = build();
        let back = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            Ipv4Addr::new(198, 51, 100, 7),
            Ipv4Addr::new(10, 0, 0, 2),
            80,
            22,
            b"x",
        );
        assert!(egress.process(back, Direction::Egress, &ctx()).is_drop());
        assert!(egress.wildcard_report(Direction::Egress).is_none());
    }

    #[test]
    fn egress_wildcard_reports_and_credits_in_traversal_order() {
        use crate::firewall::{PortMatch, ProtocolMatch, RuleAction};

        let untracked = |name: &str, rules: Vec<FirewallRule>| {
            Box::new(Firewall::new(
                name,
                FirewallConfig {
                    rules,
                    default_action: RuleAction::Accept,
                    track_connections: false,
                    conntrack_idle_timeout_secs: 60,
                },
            ))
        };
        // Chain [deny-fw, pass-fw]: on egress the pass firewall is visited
        // first and the deny firewall drops second, so the drop tokens are
        // [pass-token, deny-token] in traversal order.
        let deny_privileged = FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Range(1, 1023),
            action: RuleAction::Drop,
            ..FirewallRule::any("privileged", RuleAction::Drop)
        };
        let build = || {
            let mut chain = NfChain::new("egress-chain");
            chain.push(untracked("fw-deny", vec![deny_privileged.clone()]));
            chain.push(untracked("fw-pass", vec![]));
            chain
        };
        let down = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            Ipv4Addr::new(198, 51, 100, 7),
            Ipv4Addr::new(10, 0, 0, 2),
            40_000,
            443,
            b"down",
        );
        let len = down.len() as u64;
        let mut chain = build();
        assert!(chain
            .process(down.clone(), Direction::Egress, &ctx())
            .is_drop());
        let Some(ChainBypass::Drop { tokens, .. }) = chain.wildcard_report(Direction::Egress)
        else {
            panic!("egress drop at the chain-order-first NF is certifiable");
        };
        assert_eq!(tokens.len(), 2);

        let mut reference = build();
        for _ in 0..3 {
            reference.process(down.clone(), Direction::Egress, &ctx());
        }
        chain.credit_bypass_drop(Direction::Egress, &tokens, 2, 2 * len);
        assert_eq!(chain.stats(), reference.stats());
        assert_eq!(
            chain.per_nf_stats(),
            reference.per_nf_stats(),
            "tokens land on the right NFs in egress traversal order"
        );
    }

    #[test]
    fn chain_events_are_labelled_with_the_nf_name() {
        let mut chain = demo_chain();
        chain.process(http("blocked.example"), Direction::Ingress, &ctx());
        let events = chain.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, "hf");
        assert_eq!(events[0].1.category, "blocked-url");
        assert!(chain.drain_events().is_empty());
    }
}
