//! Traffic steering: the match–action rules that transparently redirect a
//! subset of a client's traffic through its NF chain.
//!
//! The paper's Agents "set up the containers' local virtual interfaces" and
//! attach NFs "to a subset of a selected client's traffic" without the client
//! noticing. The [`SteeringTable`] is that mechanism: keyed by client MAC
//! address, each rule selects which traffic (optionally narrowed by protocol
//! and port) is diverted through which chain. Updates are atomic — a rule is
//! replaced in one operation — which is what makes make-before-break chain
//! migration possible.

use gnf_packet::{FieldMask, IpProtocol, MaskedTuple, Packet};
use gnf_types::{ChainId, ClientId, InlineList, InlineMap, MacAddr};
use serde::{Deserialize, Serialize};

/// Narrows a steering rule to a subset of the client's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficSelector {
    /// Restrict to one transport protocol (None = any).
    pub protocol: Option<IpProtocol>,
    /// Restrict to one destination port, interpreted on the client's upstream
    /// packets (None = any).
    pub dst_port: Option<u16>,
}

impl TrafficSelector {
    /// A selector matching all of the client's traffic.
    pub fn all() -> Self {
        Self::default()
    }

    /// A selector matching only HTTP (TCP port 80) traffic.
    pub fn http_only() -> Self {
        TrafficSelector {
            protocol: Some(IpProtocol::Tcp),
            dst_port: Some(80),
        }
    }

    /// A selector matching only DNS (UDP port 53) traffic.
    pub fn dns_only() -> Self {
        TrafficSelector {
            protocol: Some(IpProtocol::Udp),
            dst_port: Some(53),
        }
    }

    /// True when the packet (in either direction of the client's flows)
    /// matches the selector.
    pub fn matches(&self, packet: &Packet) -> bool {
        let mut scratch = FieldMask::EMPTY;
        self.matches_masked(packet, &mut scratch)
    }

    /// [`matches`], additionally recording into `mask` every five-tuple
    /// field the evaluation consulted — the wildcard-correctness input of
    /// the megaflow cache. Fields skipped by short-circuit evaluation (e.g.
    /// the source port when the destination port already matched) stay
    /// wildcarded, exactly mirroring what the decision depended on.
    ///
    /// [`matches`]: TrafficSelector::matches
    pub fn matches_masked(&self, packet: &Packet, mask: &mut FieldMask) -> bool {
        let Some(tuple) = packet.five_tuple() else {
            // Non-IP traffic only matches the catch-all selector.
            return self.protocol.is_none() && self.dst_port.is_none();
        };
        let mut lens = MaskedTuple::new(&tuple, mask);
        if let Some(proto) = self.protocol {
            if lens.protocol() != proto {
                return false;
            }
        }
        if let Some(port) = self.dst_port {
            // Upstream packets have it as dst port, downstream as src port.
            if lens.dst_port() != port && lens.src_port() != port {
                return false;
            }
        }
        true
    }
}

/// One steering entry: divert the selected traffic of a client through a chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SteeringRule {
    /// The client whose traffic is steered.
    pub client: ClientId,
    /// The client's MAC address (what the data plane actually matches on).
    pub client_mac: MacAddr,
    /// Which subset of the client's traffic is diverted.
    pub selector: TrafficSelector,
    /// The chain the traffic is diverted through.
    pub chain: ChainId,
}

/// The per-switch steering table. `repr(C)`: every classification reads
/// the generation, only a slow-path one the rules.
#[derive(Debug, Clone, Default)]
#[repr(C)]
pub struct SteeringTable {
    /// Generation counter bumped on every change (used to verify atomicity of
    /// make-before-break updates in tests).
    generation: u64,
    /// Rules per client MAC, evaluated in insertion order (first match
    /// wins). A client has one rule on every station but a mid-migration
    /// one, held inline.
    rules: InlineMap<MacAddr, InlineList<SteeringRule>>,
}

impl SteeringTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or appends) a rule for a client. Returns the new generation.
    pub fn install(&mut self, rule: SteeringRule) -> u64 {
        match self.rules.get_mut(&rule.client_mac) {
            Some(rules) => rules.push(rule),
            None => {
                self.rules.insert(rule.client_mac, InlineList::from(rule));
            }
        }
        self.generation += 1;
        self.generation
    }

    /// Atomically replaces every rule of a client pointing at `old_chain` with
    /// the same rule pointing at `new_chain`. Returns how many rules changed.
    pub fn repoint(
        &mut self,
        client_mac: MacAddr,
        old_chain: ChainId,
        new_chain: ChainId,
    ) -> usize {
        let mut changed = 0;
        if let Some(rules) = self.rules.get_mut(&client_mac) {
            for rule in rules.as_mut_slice() {
                if rule.chain == old_chain {
                    rule.chain = new_chain;
                    changed += 1;
                }
            }
        }
        if changed > 0 {
            self.generation += 1;
        }
        changed
    }

    /// Removes every rule of a client pointing at `chain`. Returns how many
    /// rules were removed.
    pub fn remove_chain(&mut self, client_mac: MacAddr, chain: ChainId) -> usize {
        let mut removed = 0;
        if let Some(rules) = self.rules.get_mut(&client_mac) {
            let before = rules.len();
            rules.retain(|r| r.chain != chain);
            removed = before - rules.len();
            if rules.is_empty() {
                self.rules.remove(&client_mac);
            }
        }
        if removed > 0 {
            self.generation += 1;
        }
        removed
    }

    /// Removes every rule of a client (e.g. when it disconnects).
    pub fn remove_client(&mut self, client_mac: MacAddr) -> usize {
        let removed = self.rules.remove(&client_mac).map_or(0, |r| r.len());
        if removed > 0 {
            self.generation += 1;
        }
        removed
    }

    /// Finds the chain a packet must be diverted through, if any, together
    /// with whether the packet is upstream (`true`, sent by the client) or
    /// downstream (`false`, addressed to the client).
    pub fn lookup(&self, packet: &Packet) -> Option<(SteeringRule, bool)> {
        let mut scratch = FieldMask::EMPTY;
        self.lookup_masked(packet, &mut scratch)
    }

    /// [`lookup`], additionally accumulating into `mask` the five-tuple
    /// fields the walk consulted: every rule evaluated before (and
    /// including) the first match contributes the fields its selector read.
    /// The MAC addresses keying the walk are not part of the mask — the
    /// megaflow cache always matches them exactly.
    ///
    /// [`lookup`]: SteeringTable::lookup
    pub fn lookup_masked(
        &self,
        packet: &Packet,
        mask: &mut FieldMask,
    ) -> Option<(SteeringRule, bool)> {
        // Upstream: the packet's source MAC is a steered client.
        if let Some(rules) = self.rules.get(&packet.src_mac()) {
            for rule in rules.as_slice() {
                if rule.selector.matches_masked(packet, mask) {
                    return Some((*rule, true));
                }
            }
        }
        // Downstream: the packet's destination MAC is a steered client.
        if let Some(rules) = self.rules.get(&packet.dst_mac()) {
            for rule in rules.as_slice() {
                if rule.selector.matches_masked(packet, mask) {
                    return Some((*rule, false));
                }
            }
        }
        None
    }

    /// All rules of a client.
    pub fn rules_for(&self, client_mac: MacAddr) -> &[SteeringRule] {
        self.rules
            .get(&client_mac)
            .map_or(&[], InlineList::as_slice)
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.rules.values().map(InlineList::len).sum()
    }

    /// True when the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Change-generation counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_packet::builder;
    use std::net::Ipv4Addr;

    fn client_mac() -> MacAddr {
        MacAddr::derived(1, 7)
    }

    fn http_packet() -> Packet {
        builder::http_get(
            client_mac(),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 7),
            Ipv4Addr::new(198, 51, 100, 1),
            40_000,
            "example.com",
            "/",
        )
    }

    fn dns_packet() -> Packet {
        builder::dns_query(
            client_mac(),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 7),
            Ipv4Addr::new(8, 8, 8, 8),
            5353,
            1,
            "example.com",
        )
    }

    fn rule(selector: TrafficSelector, chain: u64) -> SteeringRule {
        SteeringRule {
            client: ClientId::new(7),
            client_mac: client_mac(),
            selector,
            chain: ChainId::new(chain),
        }
    }

    #[test]
    fn selectors_narrow_the_traffic_subset() {
        assert!(TrafficSelector::all().matches(&http_packet()));
        assert!(TrafficSelector::http_only().matches(&http_packet()));
        assert!(!TrafficSelector::http_only().matches(&dns_packet()));
        assert!(TrafficSelector::dns_only().matches(&dns_packet()));
        let arp = builder::arp_request(
            client_mac(),
            Ipv4Addr::new(10, 0, 0, 7),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        assert!(TrafficSelector::all().matches(&arp));
        assert!(!TrafficSelector::http_only().matches(&arp));
    }

    #[test]
    fn lookup_detects_direction() {
        let mut table = SteeringTable::new();
        table.install(rule(TrafficSelector::all(), 1));

        let up = http_packet();
        let (matched, upstream) = table.lookup(&up).unwrap();
        assert!(upstream);
        assert_eq!(matched.chain, ChainId::new(1));

        // A downstream packet addressed to the client.
        let down = builder::tcp_data(
            MacAddr::derived(2, 1),
            client_mac(),
            Ipv4Addr::new(198, 51, 100, 1),
            Ipv4Addr::new(10, 0, 0, 7),
            80,
            40_000,
            b"response",
        );
        let (matched, upstream) = table.lookup(&down).unwrap();
        assert!(!upstream);
        assert_eq!(matched.chain, ChainId::new(1));

        // Traffic of an unknown client is not steered.
        let other = builder::tcp_syn(
            MacAddr::derived(9, 9),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 99),
            Ipv4Addr::new(198, 51, 100, 1),
            40_000,
            80,
        );
        assert!(table.lookup(&other).is_none());
    }

    #[test]
    fn first_matching_rule_wins_and_selectors_partition_traffic() {
        let mut table = SteeringTable::new();
        table.install(rule(TrafficSelector::dns_only(), 10));
        table.install(rule(TrafficSelector::all(), 20));

        let (m, _) = table.lookup(&dns_packet()).unwrap();
        assert_eq!(m.chain, ChainId::new(10), "DNS goes to the DNS chain");
        let (m, _) = table.lookup(&http_packet()).unwrap();
        assert_eq!(
            m.chain,
            ChainId::new(20),
            "everything else to the catch-all"
        );
        assert_eq!(table.rules_for(client_mac()).len(), 2);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn repoint_switches_chains_atomically() {
        let mut table = SteeringTable::new();
        table.install(rule(TrafficSelector::all(), 1));
        let gen_before = table.generation();
        let changed = table.repoint(client_mac(), ChainId::new(1), ChainId::new(2));
        assert_eq!(changed, 1);
        assert_eq!(table.generation(), gen_before + 1);
        let (m, _) = table.lookup(&http_packet()).unwrap();
        assert_eq!(m.chain, ChainId::new(2));
        // Repointing a chain that is not installed changes nothing.
        assert_eq!(
            table.repoint(client_mac(), ChainId::new(9), ChainId::new(3)),
            0
        );
    }

    #[test]
    fn masked_lookup_records_exactly_the_consulted_fields() {
        // Catch-all selector: matches without reading any tuple field.
        let mut table = SteeringTable::new();
        table.install(rule(TrafficSelector::all(), 1));
        let mut mask = FieldMask::EMPTY;
        assert!(table.lookup_masked(&http_packet(), &mut mask).is_some());
        assert!(mask.is_empty(), "catch-all consults no tuple fields");

        // HTTP-only selector, matching packet: the destination port matched,
        // so the source port was never read (short-circuit stays wildcarded).
        let mut table = SteeringTable::new();
        table.install(rule(TrafficSelector::http_only(), 1));
        let mut mask = FieldMask::EMPTY;
        assert!(table.lookup_masked(&http_packet(), &mut mask).is_some());
        assert!(mask.contains(FieldMask::PROTOCOL));
        assert!(mask.contains(FieldMask::DST_PORT));
        assert!(!mask.contains(FieldMask::SRC_PORT));

        // Non-matching protocol: evaluation stopped at the protocol test, so
        // the ports stay wildcarded even though the rule names one.
        let mut mask = FieldMask::EMPTY;
        assert!(table.lookup_masked(&dns_packet(), &mut mask).is_none());
        assert!(mask.contains(FieldMask::PROTOCOL));
        assert!(!mask.contains(FieldMask::DST_PORT));
    }

    #[test]
    fn removal_by_chain_and_by_client() {
        let mut table = SteeringTable::new();
        table.install(rule(TrafficSelector::dns_only(), 1));
        table.install(rule(TrafficSelector::all(), 2));
        assert_eq!(table.remove_chain(client_mac(), ChainId::new(1)), 1);
        assert_eq!(table.len(), 1);
        assert!(
            table.lookup(&dns_packet()).is_some(),
            "falls through to catch-all"
        );
        assert_eq!(table.remove_client(client_mac()), 1);
        assert!(table.is_empty());
        assert!(table.lookup(&http_packet()).is_none());
        assert_eq!(table.remove_client(client_mac()), 0);
    }
}
