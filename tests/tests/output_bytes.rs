//! A golden digest of what the `stateful_replay` chain emits, byte for byte.
//!
//! The run digests cover what the emulated system counted, not the bytes it
//! sent: a NAT that rewrites one port wrong, or an HTTP filter that answers a
//! different request, leaves every counter where it was. Here a seeded
//! web-mix batch stream goes through one Agent steering four clients into the
//! benchmark's five-NF chain (firewall → HTTP filter → rate limiter → NAT →
//! IDS), and every outcome is folded, in packet order, into one FNV-1a: each
//! forwarded frame, each drop reason and each reply frame. The filter also
//! blocks `blocked.example`, one of the mix's hosts, so 403 replies are part
//! of the stream. A parser or rewrite change may change how the chain
//! computes its outputs, never what they are.

use gnf_agent::{Agent, AgentConfig, PacketOutcome};
use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_container::ImageRepository;
use gnf_nf::firewall::{
    CidrV4, FirewallConfig, FirewallRule, PortMatch, ProtocolMatch, RuleAction,
};
use gnf_nf::http_filter::HttpFilterConfig;
use gnf_nf::ids::IdsConfig;
use gnf_nf::rate_limiter::RateLimiterConfig;
use gnf_nf::{Direction, NfConfig, NfSpec};
use gnf_packet::PacketBatch;
use gnf_switch::TrafficSelector;
use gnf_types::{AgentId, ChainId, HostClass, SimTime, StationId};
use gnf_workload::{FlowSizeModel, Population, SyntheticSpec, TrafficMix, Workload};
use std::net::Ipv4Addr;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// One tag byte per outcome kind, then its length-prefixed bytes.
    fn outcome(&mut self, outcome: &PacketOutcome) {
        let mut field = |tag: u8, bytes: &[u8]| {
            self.write(&[tag]);
            self.write(&(bytes.len() as u64).to_le_bytes());
            self.write(bytes);
        };
        match outcome {
            PacketOutcome::Forwarded(packet) => field(b'F', packet.bytes()),
            PacketOutcome::Dropped(reason) => field(b'D', reason.as_bytes()),
            PacketOutcome::Replied(replies) => {
                field(b'R', &(replies.len() as u64).to_le_bytes());
                for reply in replies {
                    field(b'r', reply.bytes());
                }
            }
        }
    }
}

/// The benchmark's `stateful_replay` chain, with `blocked.example` added to
/// the filter's block list.
fn stateful_replay_chain() -> Vec<NfSpec> {
    let mut rules: Vec<FirewallRule> = (0..60u16)
        .map(|i| FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Range(10_000 + i * 10, 10_005 + i * 10),
            ..FirewallRule::any(format!("range-{i}"), RuleAction::Drop)
        })
        .collect();
    rules.extend((0..40u8).map(|i| {
        FirewallRule::block_dst(
            format!("cidr-{i}"),
            CidrV4::new(Ipv4Addr::new(192, 168, i, 0), 24),
        )
    }));
    vec![
        NfSpec::new(
            "edge-fw",
            NfConfig::Firewall(FirewallConfig {
                rules,
                default_action: RuleAction::Accept,
                track_connections: true,
                conntrack_idle_timeout_secs: 600,
            }),
        ),
        NfSpec::new(
            "http-filter",
            NfConfig::HttpFilter(HttpFilterConfig::block_hosts(&[
                "ads.example",
                "tracker.example",
                "blocked.example",
            ])),
        ),
        NfSpec::new(
            "rate-limiter",
            NfConfig::RateLimiter(RateLimiterConfig::per_client(1e12, 1e12)),
        ),
        NfSpec::new(
            "nat",
            NfConfig::Nat {
                public_ip: Ipv4Addr::new(198, 51, 100, 1),
            },
        ),
        NfSpec::new("ids", NfConfig::Ids(IdsConfig::default())),
    ]
}

/// Runs `packets` web-mix packets of seed `seed` from four clients through
/// one station and returns the outcome digest with the outcome counts
/// (forwarded, dropped, replied).
fn outcome_digest(seed: u64, packets: u64) -> (u64, [u64; 3]) {
    let population = Population::synthetic(1, 4);
    let (mut agent, _register) = Agent::new(
        AgentConfig {
            agent: AgentId::new(0),
            station: StationId::new(0),
            host_class: HostClass::EdgeServer,
        },
        ImageRepository::with_standard_images(),
    );
    for (ix, endpoint) in population.endpoints().iter().enumerate() {
        agent.client_associated(endpoint.client, endpoint.mac, endpoint.ip);
        let replies = agent.handle_manager_msg(
            ManagerToAgent::DeployChain {
                chain: ChainId::new(ix as u64 + 1),
                client: endpoint.client,
                client_mac: endpoint.mac,
                specs: stateful_replay_chain(),
                selector: TrafficSelector::all(),
                restore_state: None,
                migration: None,
            },
            SimTime::from_secs(1),
        );
        assert!(matches!(replies[0], AgentToManager::ChainDeployed { .. }));
    }

    let mut source = SyntheticSpec::new("golden", seed)
        .starting_at(SimTime::from_secs(2))
        .with_packet_budget(packets)
        .with_mix(TrafficMix::web())
        .with_flow_sizes(FlowSizeModel::Zipf {
            max_packets: 500,
            exponent: 1.2,
        })
        .build(population);
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    let mut counts = [0u64; 3];
    while let Some(batch) = source.next_batch() {
        let at = batch.at;
        let batch: PacketBatch = batch
            .packets
            .into_iter()
            .map(|(_, packet)| packet)
            .collect();
        agent.process(Direction::Ingress, batch, at, &mut |outcome| {
            counts[match &outcome {
                PacketOutcome::Forwarded(_) => 0,
                PacketOutcome::Dropped(_) => 1,
                PacketOutcome::Replied(_) => 2,
            }] += 1;
            fnv.outcome(&outcome);
        });
    }
    (fnv.0, counts)
}

#[test]
fn stateful_replay_outputs_are_pinned_byte_for_byte() {
    let (digest, counts) = outcome_digest(7, 12_000);
    // Forwarded, dropped, replied: one outcome per packet, and the stream
    // includes blocked requests.
    assert_eq!(counts, [11_204, 0, 796]);
    assert_eq!(digest, 0x545a_e7dd_3186_12f4, "{digest:#018x}");
}
