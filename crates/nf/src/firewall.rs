//! The iptables-style packet firewall NF — the first of the three functions
//! demonstrated in the paper's mobility use case.
//!
//! The firewall evaluates an ordered rule list (first match wins) over the
//! packet's addresses, protocol, ports and direction, with an optional
//! stateful connection-tracking fast path: once a flow has been accepted its
//! return traffic is accepted without re-evaluating the rules, exactly like
//! `iptables -m state --state ESTABLISHED`.
//!
//! The connection-tracking table is the firewall's migratable state: when the
//! client roams, the table travels with it so established connections are not
//! reset by the move.

use crate::nf::{
    apply_delta_via_export, Direction, FieldsConsulted, NetworkFunction, NfContext, NfStats,
    Verdict,
};
use crate::spec::NfKind;
use crate::state::{NfStateDelta, NfStateSnapshot, StateTable};
use gnf_packet::{builder, FieldMask, FiveTuple, IpProtocol, MaskedTuple, Packet, TcpFlags};
use gnf_types::{InlineMap, PathMap, SimTime};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::net::Ipv4Addr;

/// The fixed reason attached to every policy drop. One shared `&'static str`
/// keeps the flood-of-drops path allocation-free and lets wildcarded drop
/// entries replay the exact reason byte-for-byte.
const POLICY_DROP_REASON: &str = "firewall: policy drop";

/// An IPv4 prefix used in rule matching (e.g. `10.0.0.0/8`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CidrV4 {
    /// Network address.
    pub addr: Ipv4Addr,
    /// Prefix length in bits (0–32).
    pub prefix: u8,
}

impl CidrV4 {
    /// Creates a prefix, clamping the length to 32.
    pub fn new(addr: Ipv4Addr, prefix: u8) -> Self {
        CidrV4 {
            addr,
            prefix: prefix.min(32),
        }
    }

    /// A /32 prefix matching exactly one address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Self::new(addr, 32)
    }

    /// The prefix matching every address.
    pub fn any() -> Self {
        Self::new(Ipv4Addr::UNSPECIFIED, 0)
    }

    /// True when `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        if self.prefix == 0 {
            return true;
        }
        let mask = u32::MAX << (32 - u32::from(self.prefix));
        (u32::from(self.addr) & mask) == (u32::from(addr) & mask)
    }
}

impl fmt::Display for CidrV4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix)
    }
}

/// Port matching in a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PortMatch {
    /// Matches any port.
    Any,
    /// Matches one port.
    Exact(u16),
    /// Matches an inclusive range.
    Range(u16, u16),
}

impl PortMatch {
    /// True when `port` matches.
    pub fn matches(&self, port: u16) -> bool {
        match self {
            PortMatch::Any => true,
            PortMatch::Exact(p) => *p == port,
            PortMatch::Range(lo, hi) => (*lo..=*hi).contains(&port),
        }
    }
}

/// Protocol matching in a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProtocolMatch {
    /// Matches any protocol.
    Any,
    /// Matches TCP only.
    Tcp,
    /// Matches UDP only.
    Udp,
    /// Matches ICMP only.
    Icmp,
}

impl ProtocolMatch {
    /// True when the protocol matches.
    pub fn matches(&self, protocol: IpProtocol) -> bool {
        match self {
            ProtocolMatch::Any => true,
            ProtocolMatch::Tcp => protocol == IpProtocol::Tcp,
            ProtocolMatch::Udp => protocol == IpProtocol::Udp,
            ProtocolMatch::Icmp => protocol == IpProtocol::Icmp,
        }
    }
}

/// What a matching rule does with the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuleAction {
    /// Accept and forward the packet.
    Accept,
    /// Silently drop the packet.
    Drop,
    /// Drop the packet and actively signal the sender (TCP RST for TCP flows;
    /// other protocols are dropped silently).
    Reject,
}

/// One firewall rule. Fields set to their "any" value do not constrain the
/// match.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FirewallRule {
    /// Rule name shown in statistics and notifications.
    pub name: String,
    /// Direction the rule applies to (`None` = both).
    pub direction: Option<Direction>,
    /// Source prefix.
    pub src: CidrV4,
    /// Destination prefix.
    pub dst: CidrV4,
    /// Protocol constraint.
    pub protocol: ProtocolMatch,
    /// Source port constraint.
    pub src_port: PortMatch,
    /// Destination port constraint.
    pub dst_port: PortMatch,
    /// Action on match.
    pub action: RuleAction,
}

impl FirewallRule {
    /// A rule matching everything, with the given name and action.
    pub fn any(name: impl Into<String>, action: RuleAction) -> Self {
        FirewallRule {
            name: name.into(),
            direction: None,
            src: CidrV4::any(),
            dst: CidrV4::any(),
            protocol: ProtocolMatch::Any,
            src_port: PortMatch::Any,
            dst_port: PortMatch::Any,
            action,
        }
    }

    /// Convenience: block a destination TCP port in the ingress direction.
    pub fn block_tcp_dst_port(name: impl Into<String>, port: u16) -> Self {
        FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Exact(port),
            direction: Some(Direction::Ingress),
            action: RuleAction::Drop,
            ..FirewallRule::any(name, RuleAction::Drop)
        }
    }

    /// Convenience: block every packet towards a destination prefix.
    pub fn block_dst(name: impl Into<String>, dst: CidrV4) -> Self {
        FirewallRule {
            dst,
            action: RuleAction::Drop,
            ..FirewallRule::any(name, RuleAction::Drop)
        }
    }

    /// True when the rule matches the given packet attributes.
    pub fn matches(&self, tuple: &FiveTuple, direction: Direction) -> bool {
        let mut scratch = FieldMask::EMPTY;
        self.matches_masked(tuple, direction, &mut scratch)
    }

    /// [`matches`], additionally recording into `mask` every five-tuple
    /// field the evaluation consulted. Constraints set to their "any" value
    /// (a /0 prefix, `PortMatch::Any`, `ProtocolMatch::Any`) read nothing,
    /// and evaluation short-circuits at the first failing test, so the mask
    /// is exactly the field set the outcome depended on — the property the
    /// megaflow cache's wildcard entries are built on.
    ///
    /// [`matches`]: FirewallRule::matches
    pub fn matches_masked(
        &self,
        tuple: &FiveTuple,
        direction: Direction,
        mask: &mut FieldMask,
    ) -> bool {
        if let Some(d) = self.direction {
            if d != direction {
                return false;
            }
        }
        let mut lens = MaskedTuple::new(tuple, mask);
        (self.src.prefix == 0 || self.src.contains(lens.src_ip()))
            && (self.dst.prefix == 0 || self.dst.contains(lens.dst_ip()))
            && (self.protocol == ProtocolMatch::Any || self.protocol.matches(lens.protocol()))
            && (self.src_port == PortMatch::Any || self.src_port.matches(lens.src_port()))
            && (self.dst_port == PortMatch::Any || self.dst_port.matches(lens.dst_port()))
    }
}

/// Firewall configuration: ordered rules plus the default policy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FirewallConfig {
    /// Rules evaluated in order; the first match decides.
    pub rules: Vec<FirewallRule>,
    /// Policy applied when no rule matches.
    pub default_action: RuleAction,
    /// Whether return traffic of accepted flows bypasses rule evaluation.
    pub track_connections: bool,
    /// Idle timeout after which tracked connections are forgotten.
    pub conntrack_idle_timeout_secs: u64,
}

impl Default for FirewallConfig {
    fn default() -> Self {
        FirewallConfig {
            rules: Vec::new(),
            default_action: RuleAction::Accept,
            track_connections: true,
            conntrack_idle_timeout_secs: 120,
        }
    }
}

impl FirewallConfig {
    /// An accept-by-default configuration with the given rules.
    pub fn with_rules(rules: Vec<FirewallRule>) -> Self {
        FirewallConfig {
            rules,
            ..Default::default()
        }
    }

    /// A drop-by-default (allowlist) configuration with the given rules.
    pub fn allowlist(rules: Vec<FirewallRule>) -> Self {
        FirewallConfig {
            rules,
            default_action: RuleAction::Drop,
            ..Default::default()
        }
    }
}

/// The firewall NF.
///
/// The rule list is pre-indexed at construction: rules pinned to one
/// protocol *and* one exact destination port are bucketed in a hash map, so
/// the common case (a packet matching no exact rule, or exactly its port's
/// bucket) evaluates O(bucket + wildcards) instead of O(rules). Rules that
/// cannot be keyed that way (any-protocol, port ranges/wildcards) stay in a
/// residual list. First-match-wins ordering is preserved exactly: candidates
/// from the bucket and the residual list are merged in original rule order.
///
/// `repr(C)`: the counters a megaflow bypass credits come first, in one
/// line, before the rule tables only a processed packet reads.
#[repr(C)]
pub struct Firewall {
    stats: NfStats,
    default_hits: u64,
    rule_hits: Vec<u64>,
    name: String,
    config: FirewallConfig,
    conntrack: PathMap<FiveTuple, SimTime>,
    /// The span of `exact_rules` holding each `(protocol number, exact
    /// destination port)` bucket. A demo firewall's few buckets stay inline.
    exact_index: InlineMap<(u8, u16), (usize, usize)>,
    /// Indexed rule indices, bucket by bucket, each bucket in rule order.
    exact_rules: Vec<usize>,
    /// Rule indices that cannot be pre-bucketed, in rule order.
    residual_rules: Vec<usize>,
    /// What the megaflow cache may assume about the last processed packet
    /// (see [`NetworkFunction::fields_consulted`]).
    last_consulted: FieldsConsulted,
}

impl Firewall {
    /// Creates a firewall from its configuration.
    pub fn new(name: &str, config: FirewallConfig) -> Self {
        let rule_count = config.rules.len();
        let mut exact = Vec::new();
        let mut residual_rules = Vec::new();
        for (ix, rule) in config.rules.iter().enumerate() {
            let protocol = match rule.protocol {
                ProtocolMatch::Tcp => Some(IpProtocol::Tcp.value()),
                ProtocolMatch::Udp => Some(IpProtocol::Udp.value()),
                ProtocolMatch::Icmp => Some(IpProtocol::Icmp.value()),
                ProtocolMatch::Any => None,
            };
            match (protocol, rule.dst_port) {
                (Some(proto), PortMatch::Exact(port)) => exact.push(((proto, port), ix)),
                _ => residual_rules.push(ix),
            }
        }
        // Stable: a bucket keeps its rules in rule order.
        exact.sort_by_key(|(key, _)| *key);
        let mut exact_index = InlineMap::new();
        for (at, (key, _)) in exact.iter().enumerate() {
            match exact_index.get_mut(key) {
                Some((_, end)) => *end = at + 1,
                None => {
                    exact_index.insert(*key, (at, at + 1));
                }
            }
        }
        let exact_rules = exact.into_iter().map(|(_, ix)| ix).collect();
        Firewall {
            stats: NfStats::default(),
            default_hits: 0,
            rule_hits: vec![0; rule_count],
            name: name.to_string(),
            config,
            conntrack: PathMap::default(),
            exact_index,
            exact_rules,
            residual_rules,
            last_consulted: FieldsConsulted::Opaque,
        }
    }

    /// Number of currently tracked connections.
    pub fn tracked_connections(&self) -> usize {
        self.conntrack.len()
    }

    /// Hit count per rule, in rule order.
    pub fn rule_hits(&self) -> &[u64] {
        &self.rule_hits
    }

    /// Hit count of the default policy.
    pub fn default_hits(&self) -> u64 {
        self.default_hits
    }

    /// The configured rules.
    pub fn rules(&self) -> &[FirewallRule] {
        &self.config.rules
    }

    /// Removes tracked connections idle for longer than the configured
    /// timeout. Returns how many entries were evicted.
    pub fn expire_idle_connections(&mut self, now: SimTime) -> usize {
        let timeout = self.config.conntrack_idle_timeout_secs;
        let before = self.conntrack.len();
        self.conntrack.retain(|_, last_seen| {
            now.duration_since(*last_seen).as_nanos() < timeout * 1_000_000_000
        });
        before - self.conntrack.len()
    }

    /// Finds the first matching rule index for a packet, or `None` when the
    /// default policy applies. Only the packet's `(protocol, dst port)`
    /// bucket and the residual (wildcard) rules are visited; the two
    /// candidate streams are merged in original rule order so the result is
    /// identical to a linear first-match walk over the full list.
    ///
    /// Additionally accumulates into `mask` every five-tuple field the walk
    /// consulted — each rule evaluated up to and including the first match
    /// contributes the fields its constraints read, and probing the exact
    /// `(protocol, dst port)` index itself consults those two fields
    /// whenever any rule is indexed.
    fn find_match_masked(
        &self,
        tuple: &FiveTuple,
        direction: Direction,
        mask: &mut FieldMask,
    ) -> Option<usize> {
        if !self.exact_index.is_empty() {
            // A different protocol or destination port could select a
            // different bucket (and thus different candidates), so both
            // fields constrain the outcome even when no bucket matches.
            mask.insert(FieldMask::PROTOCOL);
            mask.insert(FieldMask::DST_PORT);
        }
        let bucket: &[usize] = self
            .exact_index
            .get(&(tuple.protocol.value(), tuple.dst_port))
            .map_or(&[], |&(start, end)| &self.exact_rules[start..end]);
        let mut bucket_ix = 0;
        let mut residual_ix = 0;
        loop {
            let candidate = match (
                bucket.get(bucket_ix).copied(),
                self.residual_rules.get(residual_ix).copied(),
            ) {
                (Some(b), Some(r)) if b < r => {
                    bucket_ix += 1;
                    b
                }
                (_, Some(r)) => {
                    residual_ix += 1;
                    r
                }
                (Some(b), None) => {
                    bucket_ix += 1;
                    b
                }
                (None, None) => return None,
            };
            if self.config.rules[candidate].matches_masked(tuple, direction, mask) {
                return Some(candidate);
            }
        }
    }

    /// Encodes the evaluation path that decided a packet, for exact stats
    /// replay when a wildcard entry bypasses this firewall: 0 = the default
    /// policy applied, `n + 1` = rule `n` matched.
    fn path_token(matched: Option<usize>) -> u64 {
        matched.map(|ix| ix as u64 + 1).unwrap_or(0)
    }

    /// Replays the rule/default hit counters for `packets` packets decided
    /// by the evaluation path `token` names — shared by the forward- and
    /// drop-bypass credit paths so the counters stay identical to having
    /// walked the rules per packet.
    fn replay_path_hits(&mut self, token: u64, packets: u64) {
        if token == 0 {
            self.default_hits += packets;
        } else if let Some(hits) = self.rule_hits.get_mut(token as usize - 1) {
            *hits += packets;
        }
    }

    /// The wildcard report for a deny decided by the evaluation path
    /// `token` under `mask`: a pure drop for silent `Drop` actions when
    /// conntrack is off (the deny is then a function of the consulted
    /// fields and the immutable rule list alone), opaque otherwise — a
    /// `Reject` builds a reply from the packet's own headers, and a
    /// conntrack-on deny depends on the conntrack probe having missed.
    fn deny_consulted(&self, action: RuleAction, mask: FieldMask, token: u64) -> FieldsConsulted {
        if action == RuleAction::Drop && !self.config.track_connections {
            FieldsConsulted::PureDrop {
                mask,
                token,
                reason: Cow::Borrowed(POLICY_DROP_REASON),
            }
        } else {
            FieldsConsulted::Opaque
        }
    }

    /// Evaluates the rule list for a packet, counting the hit (white-box
    /// test helper; the processing paths inline this to also keep the mask).
    #[cfg(test)]
    fn evaluate(&mut self, tuple: &FiveTuple, direction: Direction) -> RuleAction {
        let mut scratch = FieldMask::EMPTY;
        match self.find_match_masked(tuple, direction, &mut scratch) {
            Some(ix) => {
                self.rule_hits[ix] += 1;
                self.config.rules[ix].action
            }
            None => {
                self.default_hits += 1;
                self.config.default_action
            }
        }
    }

    /// Turns a non-accept action into its verdict for `packet`.
    fn deny_verdict(action: RuleAction, packet: &Packet) -> Verdict {
        match action {
            // A fixed reason keeps the flood-of-drops path allocation-free;
            // the per-rule hit counters carry the detail.
            RuleAction::Drop => Verdict::Drop(POLICY_DROP_REASON.into()),
            RuleAction::Reject => match Self::reject_reply(packet) {
                Some(rst) => Verdict::Reply(vec![rst]),
                None => Verdict::Drop("firewall: policy reject".into()),
            },
            RuleAction::Accept => unreachable!("accept is not a deny action"),
        }
    }

    fn reject_reply(packet: &Packet) -> Option<Packet> {
        let tuple = packet.five_tuple()?;
        if tuple.protocol != IpProtocol::Tcp {
            return None;
        }
        let tcp = packet.tcp()?;
        let mut rst_flags = TcpFlags::RST;
        rst_flags.ack = true;
        // Send the RST back towards the packet's source, swapping the
        // Ethernet and IP endpoints.
        Some(builder::tcp_packet(
            packet.dst_mac(),
            packet.src_mac(),
            tuple.dst_ip,
            tuple.src_ip,
            tcp.dst_port,
            tcp.src_port,
            rst_flags,
            b"",
        ))
    }
}

impl NetworkFunction for Firewall {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> NfKind {
        NfKind::Firewall
    }

    fn process(&mut self, packet: Packet, direction: Direction, ctx: &NfContext) -> Verdict {
        self.stats.record_in(packet.len());
        let Some(tuple) = packet.five_tuple() else {
            // Non-IP traffic (e.g. ARP) is not firewalled. It also carries
            // no five-tuple to wildcard on.
            self.last_consulted = FieldsConsulted::Opaque;
            let verdict = Verdict::Forward(packet);
            self.stats.record_verdict(&verdict);
            return verdict;
        };

        // Stateful fast path: established flows pass without rule evaluation.
        // Consulting (and refreshing) conntrack makes the outcome depend on
        // mutable state, so no wildcard entry may bypass it.
        if self.config.track_connections {
            let key = tuple.canonical();
            if let Some(last_seen) = self.conntrack.get_mut(&key) {
                *last_seen = ctx.now;
                self.last_consulted = FieldsConsulted::Opaque;
                let verdict = Verdict::Forward(packet);
                self.stats.record_verdict(&verdict);
                return verdict;
            }
        }

        let mut mask = FieldMask::EMPTY;
        let matched = self.find_match_masked(&tuple, direction, &mut mask);
        let action = match matched {
            Some(ix) => {
                self.rule_hits[ix] += 1;
                self.config.rules[ix].action
            }
            None => {
                self.default_hits += 1;
                self.config.default_action
            }
        };
        let verdict = match action {
            RuleAction::Accept => {
                if self.config.track_connections {
                    // Accepting inserts a conntrack entry — a side effect
                    // future verdicts depend on (established flows bypass
                    // later rules), so the evaluation is not wildcardable.
                    self.conntrack.insert(tuple.canonical(), ctx.now);
                    self.last_consulted = FieldsConsulted::Opaque;
                } else {
                    // Untracked accept: a pure function of the consulted
                    // fields and the immutable rule list. The token names
                    // the evaluation path for exact stats replay.
                    self.last_consulted = FieldsConsulted::Pure {
                        mask,
                        token: Self::path_token(matched),
                    };
                }
                Verdict::Forward(packet)
            }
            deny => {
                // Silent drops without conntrack are pure functions of the
                // consulted fields, so the megaflow cache may retire
                // matching packets before the chain runs and replay the
                // deny counters through the token. Rejects and
                // conntrack-on denies stay opaque.
                self.last_consulted = self.deny_consulted(deny, mask, Self::path_token(matched));
                Self::deny_verdict(deny, &packet)
            }
        };
        self.stats.record_verdict(&verdict);
        verdict
    }

    fn stats(&self) -> NfStats {
        self.stats
    }

    fn fields_consulted(&self) -> FieldsConsulted {
        self.last_consulted.clone()
    }

    fn credit_bypass(&mut self, token: u64, packets: u64, bytes: u64) {
        self.stats.record_in_batch(packets, bytes);
        self.stats.record_bypassed_forward(packets, bytes);
        // Replay the evaluation path the token names, so rule/default hit
        // counters stay identical to having processed every packet.
        self.replay_path_hits(token, packets);
    }

    fn credit_bypass_drop(&mut self, token: u64, packets: u64, bytes: u64) {
        self.stats.record_in_batch(packets, bytes);
        self.stats.record_bypassed_drop(packets);
        self.replay_path_hits(token, packets);
    }

    fn export_state(&self) -> NfStateSnapshot {
        NfStateSnapshot::Firewall {
            established: StateTable(self.conntrack.clone()),
        }
    }

    fn import_state(&mut self, state: NfStateSnapshot) {
        if let NfStateSnapshot::Firewall { established } = state {
            established.merge_into(&mut self.conntrack);
        }
    }

    fn replace_state(&mut self, state: NfStateSnapshot) {
        if matches!(state, NfStateSnapshot::Firewall { .. }) {
            self.conntrack.clear();
        }
        self.import_state(state);
    }

    fn apply_delta(&mut self, delta: &NfStateDelta) {
        let NfStateDelta::Firewall { upserts, removals } = delta else {
            return apply_delta_via_export(self, delta);
        };
        for tuple in removals {
            self.conntrack.remove(tuple);
        }
        for (tuple, nanos) in upserts {
            self.conntrack.insert(*tuple, SimTime::from_nanos(*nanos));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_types::MacAddr;

    fn client_ip() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }
    fn server_ip() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 10)
    }

    fn tcp_to_port(port: u16) -> Packet {
        builder::tcp_syn(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            server_ip(),
            40_000,
            port,
        )
    }

    fn ctx() -> NfContext {
        NfContext::at(SimTime::from_secs(1))
    }

    #[test]
    fn cidr_matching() {
        let net = CidrV4::new(Ipv4Addr::new(10, 0, 0, 0), 8);
        assert!(net.contains(Ipv4Addr::new(10, 200, 3, 4)));
        assert!(!net.contains(Ipv4Addr::new(11, 0, 0, 1)));
        assert!(CidrV4::any().contains(Ipv4Addr::new(255, 255, 255, 255)));
        let host = CidrV4::host(client_ip());
        assert!(host.contains(client_ip()));
        assert!(!host.contains(server_ip()));
        assert_eq!(host.to_string(), "10.0.0.2/32");
        // Prefix lengths above 32 are clamped.
        assert_eq!(CidrV4::new(client_ip(), 40).prefix, 32);
    }

    #[test]
    fn port_and_protocol_matching() {
        assert!(PortMatch::Any.matches(1234));
        assert!(PortMatch::Exact(80).matches(80));
        assert!(!PortMatch::Exact(80).matches(81));
        assert!(PortMatch::Range(1000, 2000).matches(1500));
        assert!(!PortMatch::Range(1000, 2000).matches(2001));
        assert!(ProtocolMatch::Any.matches(IpProtocol::Udp));
        assert!(ProtocolMatch::Tcp.matches(IpProtocol::Tcp));
        assert!(!ProtocolMatch::Tcp.matches(IpProtocol::Udp));
        assert!(ProtocolMatch::Icmp.matches(IpProtocol::Icmp));
    }

    #[test]
    fn default_accept_forwards_everything() {
        let mut fw = Firewall::new("fw", FirewallConfig::default());
        let verdict = fw.process(tcp_to_port(80), Direction::Ingress, &ctx());
        assert!(verdict.is_forward());
        assert_eq!(fw.stats().packets_forwarded, 1);
        assert_eq!(fw.default_hits(), 1);
    }

    #[test]
    fn first_matching_rule_wins() {
        let config = FirewallConfig::with_rules(vec![
            FirewallRule::block_tcp_dst_port("block-http", 80),
            FirewallRule::any("accept-all", RuleAction::Accept),
        ]);
        let mut fw = Firewall::new("fw", config);
        assert!(fw
            .process(tcp_to_port(80), Direction::Ingress, &ctx())
            .is_drop());
        assert!(fw
            .process(tcp_to_port(443), Direction::Ingress, &ctx())
            .is_forward());
        assert_eq!(fw.rule_hits(), &[1, 1]);
    }

    #[test]
    fn direction_specific_rules_only_match_their_direction() {
        let config =
            FirewallConfig::with_rules(vec![FirewallRule::block_tcp_dst_port("block-http-up", 80)]);
        let mut fw = Firewall::new("fw", config);
        // Ingress (client → network) is blocked…
        assert!(fw
            .process(tcp_to_port(80), Direction::Ingress, &ctx())
            .is_drop());
        // …but the same packet seen on egress is not.
        assert!(fw
            .process(tcp_to_port(80), Direction::Egress, &ctx())
            .is_forward());
    }

    #[test]
    fn allowlist_drops_unmatched_traffic() {
        let allow_dns = FirewallRule {
            protocol: ProtocolMatch::Udp,
            dst_port: PortMatch::Exact(53),
            action: RuleAction::Accept,
            ..FirewallRule::any("allow-dns", RuleAction::Accept)
        };
        let mut fw = Firewall::new("fw", FirewallConfig::allowlist(vec![allow_dns]));
        let dns = builder::dns_query(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            Ipv4Addr::new(8, 8, 8, 8),
            5353,
            1,
            "example.com",
        );
        assert!(fw.process(dns, Direction::Ingress, &ctx()).is_forward());
        assert!(fw
            .process(tcp_to_port(22), Direction::Ingress, &ctx())
            .is_drop());
    }

    #[test]
    fn reject_sends_tcp_rst_back_to_the_sender() {
        let reject_ssh = FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Exact(22),
            action: RuleAction::Reject,
            ..FirewallRule::any("reject-ssh", RuleAction::Reject)
        };
        let mut fw = Firewall::new("fw", FirewallConfig::with_rules(vec![reject_ssh]));
        let verdict = fw.process(tcp_to_port(22), Direction::Ingress, &ctx());
        let Verdict::Reply(replies) = verdict else {
            panic!("expected a reply verdict");
        };
        assert_eq!(replies.len(), 1);
        let rst = &replies[0];
        let tcp = rst.tcp().unwrap();
        assert!(tcp.flags.rst);
        // The RST flows back towards the client.
        assert_eq!(rst.ipv4().unwrap().dst, client_ip());
        assert_eq!(tcp.dst_port, 40_000);
    }

    #[test]
    fn established_connections_bypass_later_blocking_rules() {
        // Accept by default, then track the flow; even if we subsequently see
        // the reverse direction with a rule that would block it, conntrack
        // accepts it first.
        let mut fw = Firewall::new(
            "fw",
            FirewallConfig::with_rules(vec![FirewallRule {
                direction: Some(Direction::Egress),
                action: RuleAction::Drop,
                ..FirewallRule::any("block-all-down", RuleAction::Drop)
            }]),
        );
        let up = tcp_to_port(443);
        assert!(fw.process(up, Direction::Ingress, &ctx()).is_forward());
        assert_eq!(fw.tracked_connections(), 1);
        // The response packet (reversed tuple) is allowed because the flow is
        // established.
        let down = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            server_ip(),
            client_ip(),
            443,
            40_000,
            b"response",
        );
        assert!(fw.process(down, Direction::Egress, &ctx()).is_forward());
    }

    #[test]
    fn conntrack_state_migrates() {
        let mut fw1 = Firewall::new("fw", FirewallConfig::default());
        fw1.process(tcp_to_port(443), Direction::Ingress, &ctx());
        assert_eq!(fw1.tracked_connections(), 1);
        let snapshot = fw1.export_state();
        assert!(!snapshot.is_empty());

        // Build the same firewall on the "target station" with a
        // drop-everything policy: only the imported established flow passes.
        let mut fw2 = Firewall::new(
            "fw",
            FirewallConfig {
                rules: vec![],
                default_action: RuleAction::Drop,
                track_connections: true,
                conntrack_idle_timeout_secs: 120,
            },
        );
        fw2.import_state(snapshot);
        assert_eq!(fw2.tracked_connections(), 1);
        let down = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            server_ip(),
            client_ip(),
            443,
            40_000,
            b"resumed",
        );
        assert!(fw2.process(down, Direction::Egress, &ctx()).is_forward());
        // A new, untracked flow is still dropped.
        assert!(fw2
            .process(tcp_to_port(80), Direction::Ingress, &ctx())
            .is_drop());
    }

    #[test]
    fn idle_connections_expire() {
        let mut fw = Firewall::new("fw", FirewallConfig::default());
        fw.process(tcp_to_port(443), Direction::Ingress, &ctx());
        assert_eq!(fw.tracked_connections(), 1);
        let evicted = fw.expire_idle_connections(SimTime::from_secs(300));
        assert_eq!(evicted, 1);
        assert_eq!(fw.tracked_connections(), 0);
        // Fresh traffic is unaffected by expiry.
        assert_eq!(fw.expire_idle_connections(SimTime::from_secs(301)), 0);
    }

    #[test]
    fn non_ip_traffic_is_forwarded_untouched() {
        let mut fw = Firewall::new(
            "fw",
            FirewallConfig::allowlist(vec![]), // drop everything IP
        );
        let arp = builder::arp_request(
            MacAddr::derived(1, 1),
            client_ip(),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        assert!(fw.process(arp, Direction::Ingress, &ctx()).is_forward());
    }

    #[test]
    fn indexed_evaluation_matches_a_linear_first_match_walk() {
        // A deliberately adversarial mix: exact-port rules (indexed), range
        // and wildcard rules (residual), interleaved so the merge order
        // matters, with conflicting actions.
        let mut rules = Vec::new();
        for i in 0..40u16 {
            let rule = match i % 4 {
                0 => FirewallRule {
                    protocol: ProtocolMatch::Tcp,
                    dst_port: PortMatch::Exact(1000 + i % 8),
                    action: RuleAction::Drop,
                    ..FirewallRule::any(format!("tcp-exact-{i}"), RuleAction::Drop)
                },
                1 => FirewallRule {
                    protocol: ProtocolMatch::Udp,
                    dst_port: PortMatch::Exact(1000 + i % 8),
                    action: RuleAction::Accept,
                    ..FirewallRule::any(format!("udp-exact-{i}"), RuleAction::Accept)
                },
                2 => FirewallRule {
                    protocol: ProtocolMatch::Any,
                    dst_port: PortMatch::Range(1000 + i % 4, 1004),
                    action: RuleAction::Reject,
                    ..FirewallRule::any(format!("range-{i}"), RuleAction::Reject)
                },
                _ => FirewallRule {
                    direction: Some(if i % 8 == 3 {
                        Direction::Ingress
                    } else {
                        Direction::Egress
                    }),
                    src: CidrV4::new(Ipv4Addr::new(10, 0, (i % 3) as u8, 0), 24),
                    action: RuleAction::Drop,
                    ..FirewallRule::any(format!("cidr-{i}"), RuleAction::Drop)
                },
            };
            rules.push(rule);
        }

        // Linear reference: the historical first-match walk.
        let reference = |tuple: &FiveTuple, direction: Direction| -> Option<usize> {
            rules.iter().position(|rule| rule.matches(tuple, direction))
        };

        let mut fw = Firewall::new(
            "fw",
            FirewallConfig {
                rules: rules.clone(),
                default_action: RuleAction::Accept,
                track_connections: false,
                conntrack_idle_timeout_secs: 60,
            },
        );
        // Sweep protocols × ports × source subnets × directions.
        for proto in [
            IpProtocol::Tcp,
            IpProtocol::Udp,
            IpProtocol::Icmp,
            IpProtocol::Other(89),
        ] {
            for port in 995..1012u16 {
                for src_octet in 0..4u8 {
                    for direction in [Direction::Ingress, Direction::Egress] {
                        let tuple = FiveTuple::new(
                            Ipv4Addr::new(10, 0, src_octet, 9),
                            server_ip(),
                            proto,
                            40_000,
                            port,
                        );
                        let hits_before = fw.rule_hits().to_vec();
                        let action = fw.evaluate(&tuple, direction);
                        let expected_rule = reference(&tuple, direction);
                        let expected_action = expected_rule
                            .map(|ix| rules[ix].action)
                            .unwrap_or(RuleAction::Accept);
                        assert_eq!(action, expected_action, "action for {tuple} {direction:?}");
                        // The hit must land on exactly the first matching rule.
                        if let Some(ix) = expected_rule {
                            assert_eq!(fw.rule_hits()[ix], hits_before[ix] + 1);
                        }
                    }
                }
            }
        }
    }

    // ------------------------------------------------- wildcard reporting

    /// A conntrack-off config whose rules never match port-443 traffic: a
    /// TCP range rule (consults protocol + dst port) and a CIDR rule
    /// (consults dst ip).
    fn untracked_config() -> FirewallConfig {
        FirewallConfig {
            rules: vec![
                FirewallRule {
                    protocol: ProtocolMatch::Tcp,
                    dst_port: PortMatch::Range(10_000, 10_100),
                    action: RuleAction::Drop,
                    ..FirewallRule::any("range", RuleAction::Drop)
                },
                FirewallRule::block_dst("cidr", CidrV4::new(Ipv4Addr::new(192, 168, 0, 0), 16)),
            ],
            default_action: RuleAction::Accept,
            track_connections: false,
            conntrack_idle_timeout_secs: 60,
        }
    }

    #[test]
    fn untracked_accept_reports_a_pure_mask_of_the_consulted_fields() {
        let mut fw = Firewall::new("fw", untracked_config());
        assert_eq!(
            fw.fields_consulted(),
            FieldsConsulted::Opaque,
            "before any packet"
        );
        assert!(fw
            .process(tcp_to_port(443), Direction::Ingress, &ctx())
            .is_forward());
        let FieldsConsulted::Pure { mask, token } = fw.fields_consulted() else {
            panic!("untracked accept must be pure");
        };
        assert_eq!(token, 0, "default policy accepted");
        // The walk consulted protocol + dst port (range rule) and dst ip
        // (CIDR rule); the source side was never read.
        assert!(mask.contains(FieldMask::PROTOCOL));
        assert!(mask.contains(FieldMask::DST_PORT));
        assert!(mask.contains(FieldMask::DST_IP));
        assert!(!mask.contains(FieldMask::SRC_IP));
        assert!(!mask.contains(FieldMask::SRC_PORT));
    }

    #[test]
    fn accept_via_a_rule_reports_its_token() {
        let allow = FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Range(400, 500),
            action: RuleAction::Accept,
            ..FirewallRule::any("allow-https-ish", RuleAction::Accept)
        };
        let mut fw = Firewall::new(
            "fw",
            FirewallConfig {
                rules: vec![allow],
                default_action: RuleAction::Drop,
                track_connections: false,
                conntrack_idle_timeout_secs: 60,
            },
        );
        assert!(fw
            .process(tcp_to_port(443), Direction::Ingress, &ctx())
            .is_forward());
        let FieldsConsulted::Pure { token, .. } = fw.fields_consulted() else {
            panic!("rule accept must be pure");
        };
        assert_eq!(token, 1, "rule 0 matched");
    }

    #[test]
    fn conntrack_rejects_and_non_ip_are_opaque() {
        // Conntrack on: both the inserting accept and the established hit
        // are opaque.
        let mut fw = Firewall::new("fw", FirewallConfig::default());
        fw.process(tcp_to_port(443), Direction::Ingress, &ctx());
        assert_eq!(fw.fields_consulted(), FieldsConsulted::Opaque);
        fw.process(tcp_to_port(443), Direction::Ingress, &ctx());
        assert_eq!(fw.fields_consulted(), FieldsConsulted::Opaque);

        // Denies are opaque when conntrack is on (the deny depends on the
        // conntrack probe having missed).
        let mut fw = Firewall::new("fw", FirewallConfig::allowlist(vec![]));
        assert!(fw
            .process(tcp_to_port(443), Direction::Ingress, &ctx())
            .is_drop());
        assert_eq!(fw.fields_consulted(), FieldsConsulted::Opaque);

        // Rejects are opaque even without conntrack: the reply is built
        // from the packet's own headers.
        let reject_all = FirewallRule::any("reject-all", RuleAction::Reject);
        let mut fw = Firewall::new(
            "fw",
            FirewallConfig {
                rules: vec![reject_all],
                default_action: RuleAction::Accept,
                track_connections: false,
                conntrack_idle_timeout_secs: 60,
            },
        );
        assert!(fw
            .process(tcp_to_port(443), Direction::Ingress, &ctx())
            .is_reply());
        assert_eq!(fw.fields_consulted(), FieldsConsulted::Opaque);

        // Non-IP traffic is opaque (nothing to wildcard on).
        let mut fw = Firewall::new("fw", untracked_config());
        let arp = builder::arp_request(
            MacAddr::derived(1, 1),
            client_ip(),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        fw.process(arp, Direction::Ingress, &ctx());
        assert_eq!(fw.fields_consulted(), FieldsConsulted::Opaque);
    }

    #[test]
    fn untracked_silent_drop_reports_a_pure_drop_mask() {
        // The range rule of `untracked_config` (TCP dst 10_000–10_100)
        // denies this packet; without conntrack the deny is a pure function
        // of the consulted fields.
        let mut fw = Firewall::new("fw", untracked_config());
        let verdict = fw.process(tcp_to_port(10_050), Direction::Ingress, &ctx());
        let Verdict::Drop(reason) = &verdict else {
            panic!("expected a drop");
        };
        let FieldsConsulted::PureDrop {
            mask,
            token,
            reason: reported,
        } = fw.fields_consulted()
        else {
            panic!("untracked silent drop must be a pure drop");
        };
        assert_eq!(token, 1, "rule 0 denied");
        assert_eq!(&reported, reason, "the entry replays the exact reason");
        // The range rule consulted protocol + dst port; the CIDR rule was
        // never reached (first match wins).
        assert!(mask.contains(FieldMask::PROTOCOL));
        assert!(mask.contains(FieldMask::DST_PORT));
        assert!(!mask.contains(FieldMask::DST_IP));

        // A default-policy drop is pure too, with token 0.
        let mut fw = Firewall::new(
            "fw",
            FirewallConfig {
                track_connections: false,
                ..FirewallConfig::allowlist(vec![])
            },
        );
        assert!(fw
            .process(tcp_to_port(443), Direction::Ingress, &ctx())
            .is_drop());
        let FieldsConsulted::PureDrop { token, .. } = fw.fields_consulted() else {
            panic!("untracked default drop must be a pure drop");
        };
        assert_eq!(token, 0, "default policy denied");
    }

    #[test]
    fn credit_bypass_drop_replays_statistics_exactly() {
        let pkt = tcp_to_port(10_050); // denied by the range rule
        let mut processed = Firewall::new("fw", untracked_config());
        for _ in 0..5 {
            assert!(processed
                .process(pkt.clone(), Direction::Ingress, &ctx())
                .is_drop());
        }
        let mut credited = Firewall::new("fw", untracked_config());
        credited.process(pkt.clone(), Direction::Ingress, &ctx());
        let FieldsConsulted::PureDrop { token, .. } = credited.fields_consulted() else {
            panic!("expected a pure drop report");
        };
        credited.credit_bypass_drop(token, 4, 4 * pkt.len() as u64);
        assert_eq!(credited.stats(), processed.stats());
        assert_eq!(credited.rule_hits(), processed.rule_hits());
        assert_eq!(credited.default_hits(), processed.default_hits());
    }

    #[test]
    fn credit_bypass_replays_statistics_exactly() {
        let pkt = tcp_to_port(443);
        // Reference: process the packet 5 times through the full path.
        let mut processed = Firewall::new("fw", untracked_config());
        for _ in 0..5 {
            assert!(processed
                .process(pkt.clone(), Direction::Ingress, &ctx())
                .is_forward());
        }
        // Bypassed: process once (producing the token), then credit 4 more.
        let mut credited = Firewall::new("fw", untracked_config());
        credited.process(pkt.clone(), Direction::Ingress, &ctx());
        let FieldsConsulted::Pure { token, .. } = credited.fields_consulted() else {
            panic!("expected a pure report");
        };
        credited.credit_bypass(token, 4, 4 * pkt.len() as u64);
        assert_eq!(credited.stats(), processed.stats());
        assert_eq!(credited.rule_hits(), processed.rule_hits());
        assert_eq!(credited.default_hits(), processed.default_hits());
    }

    #[test]
    fn mismatched_state_import_is_ignored() {
        let mut fw = Firewall::new("fw", FirewallConfig::default());
        fw.import_state(NfStateSnapshot::Stateless);
        fw.import_state(NfStateSnapshot::HttpCache { entries: vec![] });
        assert_eq!(fw.tracked_connections(), 0);
    }
}
