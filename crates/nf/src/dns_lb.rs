//! The DNS load-balancer NF from the paper's demo.
//!
//! The function intercepts the client's DNS queries for a configured service
//! name and answers them directly at the edge with the address of one of the
//! service's backends, chosen by a configurable strategy. Queries for other
//! names are forwarded untouched to the client's normal resolver.

use crate::nf::{apply_delta_via_export, Direction, NetworkFunction, NfContext, NfStats, Verdict};
use crate::spec::NfKind;
use crate::state::{NfStateDelta, NfStateSnapshot};
use gnf_packet::{builder, Packet};
use gnf_types::PathMap;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Backend selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LbStrategy {
    /// Cycle through the backends in order.
    RoundRobin,
    /// Pick the backend with the fewest assignments handed out so far.
    LeastAssigned,
    /// Hash the client's source address so a client consistently gets the
    /// same backend (session affinity).
    SourceHash,
}

/// The DNS load-balancer NF.
pub struct DnsLoadBalancer {
    name: String,
    service: String,
    backends: Vec<Ipv4Addr>,
    strategy: LbStrategy,
    ttl: u32,
    next_backend: usize,
    assignments: PathMap<Ipv4Addr, u64>,
    answered_queries: u64,
    forwarded_queries: u64,
    stats: NfStats,
}

impl DnsLoadBalancer {
    /// Creates a load balancer answering `service` with `backends`.
    pub fn new(
        name: &str,
        service: &str,
        backends: Vec<Ipv4Addr>,
        strategy: LbStrategy,
        ttl: u32,
    ) -> Self {
        let assignments = backends.iter().map(|b| (*b, 0u64)).collect();
        DnsLoadBalancer {
            name: name.to_string(),
            service: service.trim_end_matches('.').to_ascii_lowercase(),
            backends,
            strategy,
            ttl,
            next_backend: 0,
            assignments,
            answered_queries: 0,
            forwarded_queries: 0,
            stats: NfStats::default(),
        }
    }

    /// The service name answered authoritatively.
    pub fn service(&self) -> &str {
        &self.service
    }

    /// Queries answered locally so far.
    pub fn answered_queries(&self) -> u64 {
        self.answered_queries
    }

    /// Queries passed through to the upstream resolver.
    pub fn forwarded_queries(&self) -> u64 {
        self.forwarded_queries
    }

    /// Assignment counts per backend.
    pub fn assignments(&self) -> Vec<(Ipv4Addr, u64)> {
        let mut v: Vec<(Ipv4Addr, u64)> = self
            .backends
            .iter()
            .map(|b| (*b, self.assignments.get(b).copied().unwrap_or(0)))
            .collect();
        v.sort();
        v
    }

    fn name_matches_service(&self, name: &str) -> bool {
        let name = name.trim_end_matches('.').to_ascii_lowercase();
        name == self.service || name.ends_with(&format!(".{}", self.service))
    }

    fn pick_backend(&mut self, client_ip: Ipv4Addr) -> Option<Ipv4Addr> {
        if self.backends.is_empty() {
            return None;
        }
        let backend = match self.strategy {
            LbStrategy::RoundRobin => {
                let b = self.backends[self.next_backend % self.backends.len()];
                self.next_backend = (self.next_backend + 1) % self.backends.len();
                b
            }
            LbStrategy::LeastAssigned => *self
                .backends
                .iter()
                .min_by_key(|b| {
                    (
                        self.assignments.get(*b).copied().unwrap_or(0),
                        u32::from(**b),
                    )
                })
                .expect("backends is non-empty"),
            LbStrategy::SourceHash => {
                // FNV-1a over the client address for a stable assignment.
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                for byte in client_ip.octets() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
                self.backends[(h % self.backends.len() as u64) as usize]
            }
        };
        *self.assignments.entry(backend).or_insert(0) += 1;
        Some(backend)
    }
}

impl NetworkFunction for DnsLoadBalancer {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> NfKind {
        NfKind::DnsLoadBalancer
    }

    fn process(&mut self, packet: Packet, direction: Direction, _ctx: &NfContext) -> Verdict {
        self.stats.record_in(packet.len());

        // Only upstream queries are intercepted.
        let query = if direction == Direction::Ingress {
            packet.dns().filter(|m| !m.is_response)
        } else {
            None
        };

        let verdict = match query {
            Some(dns) => {
                let name_matches = dns
                    .first_question_name()
                    .map(|n| self.name_matches_service(n))
                    .unwrap_or(false);
                let tuple = packet.five_tuple();
                if name_matches {
                    if let (Some(tuple), Some(udp)) = (tuple, packet.udp()) {
                        if let Some(backend) = self.pick_backend(tuple.src_ip) {
                            self.answered_queries += 1;
                            // Answer on behalf of the resolver: swap MAC/IP
                            // endpoints and reuse the query id.
                            let reply = builder::dns_response(
                                packet.dst_mac(),
                                packet.src_mac(),
                                tuple.dst_ip,
                                tuple.src_ip,
                                udp.src_port,
                                &dns,
                                &[backend],
                                self.ttl,
                            );
                            let verdict = Verdict::Reply(vec![reply]);
                            self.stats.record_verdict(&verdict);
                            return verdict;
                        }
                    }
                    // No backends configured: forward to the real resolver.
                    self.forwarded_queries += 1;
                    Verdict::Forward(packet)
                } else {
                    self.forwarded_queries += 1;
                    Verdict::Forward(packet)
                }
            }
            None => Verdict::Forward(packet),
        };
        self.stats.record_verdict(&verdict);
        verdict
    }

    fn stats(&self) -> NfStats {
        self.stats
    }

    fn export_state(&self) -> NfStateSnapshot {
        NfStateSnapshot::DnsLoadBalancer {
            next_backend: self.next_backend,
            assignments: self.assignments(),
        }
    }

    fn import_state(&mut self, state: NfStateSnapshot) {
        if let NfStateSnapshot::DnsLoadBalancer {
            next_backend,
            assignments,
        } = state
        {
            self.next_backend = next_backend;
            for (backend, count) in assignments {
                self.assignments.insert(backend, count);
            }
        }
    }

    fn replace_state(&mut self, state: NfStateSnapshot) {
        if matches!(state, NfStateSnapshot::DnsLoadBalancer { .. }) {
            self.assignments.clear();
        }
        self.import_state(state);
    }

    fn apply_delta(&mut self, delta: &NfStateDelta) {
        let NfStateDelta::DnsLoadBalancer {
            next_backend,
            upserts,
        } = delta
        else {
            return apply_delta_via_export(self, delta);
        };
        self.next_backend = *next_backend;
        // Only configured backends have a count to export.
        for (backend, count) in upserts {
            if self.backends.contains(backend) {
                self.assignments.insert(*backend, *count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_types::{MacAddr, SimTime};

    fn ctx() -> NfContext {
        NfContext::at(SimTime::from_secs(1))
    }

    fn backends() -> Vec<Ipv4Addr> {
        vec![
            Ipv4Addr::new(10, 10, 0, 1),
            Ipv4Addr::new(10, 10, 0, 2),
            Ipv4Addr::new(10, 10, 0, 3),
        ]
    }

    fn query_from(client: Ipv4Addr, name: &str, id: u16) -> Packet {
        builder::dns_query(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client,
            Ipv4Addr::new(8, 8, 8, 8),
            40_053,
            id,
            name,
        )
    }

    fn lb(strategy: LbStrategy) -> DnsLoadBalancer {
        DnsLoadBalancer::new("lb", "svc.edge.example", backends(), strategy, 30)
    }

    #[test]
    fn matching_queries_are_answered_locally() {
        let mut lb = lb(LbStrategy::RoundRobin);
        let verdict = lb.process(
            query_from(Ipv4Addr::new(10, 0, 0, 2), "svc.edge.example", 77),
            Direction::Ingress,
            &ctx(),
        );
        let Verdict::Reply(replies) = verdict else {
            panic!("expected a local DNS answer");
        };
        let answer = replies[0].dns().unwrap();
        assert!(answer.is_response);
        assert_eq!(answer.id, 77);
        assert_eq!(answer.a_records().len(), 1);
        assert!(backends().contains(&answer.a_records()[0]));
        // The reply is addressed back to the client's source port.
        assert_eq!(replies[0].udp().unwrap().dst_port, 40_053);
        assert_eq!(lb.answered_queries(), 1);
    }

    #[test]
    fn subdomains_of_the_service_match() {
        let mut lb = lb(LbStrategy::RoundRobin);
        let verdict = lb.process(
            query_from(Ipv4Addr::new(10, 0, 0, 2), "api.svc.edge.example", 1),
            Direction::Ingress,
            &ctx(),
        );
        assert!(verdict.is_reply());
    }

    #[test]
    fn other_names_are_forwarded_to_the_resolver() {
        let mut lb = lb(LbStrategy::RoundRobin);
        let verdict = lb.process(
            query_from(Ipv4Addr::new(10, 0, 0, 2), "unrelated.example", 2),
            Direction::Ingress,
            &ctx(),
        );
        assert!(verdict.is_forward());
        assert_eq!(lb.forwarded_queries(), 1);
        assert_eq!(lb.answered_queries(), 0);
    }

    #[test]
    fn round_robin_spreads_answers_evenly() {
        let mut lb = lb(LbStrategy::RoundRobin);
        for i in 0..9 {
            let verdict = lb.process(
                query_from(Ipv4Addr::new(10, 0, 0, 2), "svc.edge.example", i),
                Direction::Ingress,
                &ctx(),
            );
            assert!(verdict.is_reply());
        }
        let counts: Vec<u64> = lb.assignments().into_iter().map(|(_, c)| c).collect();
        assert_eq!(counts, vec![3, 3, 3]);
    }

    #[test]
    fn least_assigned_balances_after_state_import() {
        let mut lb = lb(LbStrategy::LeastAssigned);
        // Pretend backend 1 already has many assignments (e.g. state imported
        // after a migration).
        lb.import_state(NfStateSnapshot::DnsLoadBalancer {
            next_backend: 0,
            assignments: vec![(Ipv4Addr::new(10, 10, 0, 1), 100)],
        });
        let verdict = lb.process(
            query_from(Ipv4Addr::new(10, 0, 0, 2), "svc.edge.example", 5),
            Direction::Ingress,
            &ctx(),
        );
        let Verdict::Reply(replies) = verdict else {
            panic!("expected reply")
        };
        let addr = replies[0].dns().unwrap().a_records()[0];
        assert_ne!(addr, Ipv4Addr::new(10, 10, 0, 1));
    }

    #[test]
    fn source_hash_is_sticky_per_client() {
        let mut lb = lb(LbStrategy::SourceHash);
        let client = Ipv4Addr::new(10, 0, 0, 77);
        let mut seen = std::collections::HashSet::new();
        for i in 0..5 {
            let verdict = lb.process(
                query_from(client, "svc.edge.example", i),
                Direction::Ingress,
                &ctx(),
            );
            let Verdict::Reply(replies) = verdict else {
                panic!("expected reply")
            };
            seen.insert(replies[0].dns().unwrap().a_records()[0]);
        }
        assert_eq!(
            seen.len(),
            1,
            "the same client must always get the same backend"
        );
    }

    #[test]
    fn responses_and_non_dns_traffic_pass_through() {
        let mut lb = lb(LbStrategy::RoundRobin);
        // Downstream DNS response.
        let query = gnf_packet::DnsMessage::query(9, "svc.edge.example");
        let response = builder::dns_response(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            Ipv4Addr::new(8, 8, 8, 8),
            Ipv4Addr::new(10, 0, 0, 2),
            40_053,
            &query,
            &[Ipv4Addr::new(192, 0, 2, 1)],
            60,
        );
        assert!(lb.process(response, Direction::Egress, &ctx()).is_forward());
        // Plain TCP traffic.
        let tcp = builder::tcp_syn(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(192, 0, 2, 1),
            40_000,
            443,
        );
        assert!(lb.process(tcp, Direction::Ingress, &ctx()).is_forward());
        assert_eq!(lb.answered_queries(), 0);
    }

    #[test]
    fn empty_backend_list_forwards_queries() {
        let mut lb = DnsLoadBalancer::new("lb", "svc.example", vec![], LbStrategy::RoundRobin, 30);
        let verdict = lb.process(
            query_from(Ipv4Addr::new(10, 0, 0, 2), "svc.example", 3),
            Direction::Ingress,
            &ctx(),
        );
        assert!(verdict.is_forward());
    }

    #[test]
    fn scheduling_state_roundtrips() {
        let mut lb = lb(LbStrategy::RoundRobin);
        for i in 0..4 {
            lb.process(
                query_from(Ipv4Addr::new(10, 0, 0, 2), "svc.edge.example", i),
                Direction::Ingress,
                &ctx(),
            );
        }
        let snapshot = lb.export_state();
        let mut lb2 = DnsLoadBalancer::new(
            "lb",
            "svc.edge.example",
            backends(),
            LbStrategy::RoundRobin,
            30,
        );
        lb2.import_state(snapshot);
        // The next answer continues the rotation rather than restarting it.
        let verdict = lb2.process(
            query_from(Ipv4Addr::new(10, 0, 0, 2), "svc.edge.example", 10),
            Direction::Ingress,
            &ctx(),
        );
        let Verdict::Reply(replies) = verdict else {
            panic!("expected reply")
        };
        // After 4 answers over 3 backends the next backend is index 1 → .2
        assert_eq!(
            replies[0].dns().unwrap().a_records()[0],
            Ipv4Addr::new(10, 10, 0, 2)
        );
    }
}
