//! Shared station fixtures for the data-plane measurements.
//!
//! Every station here is a real [`Agent`], built the way the Manager builds
//! one: clients associated, chains deployed with
//! [`ManagerToAgent::DeployChain`], the megaflow layer switched on where
//! asked. `exp_e4_dataplane`'s cache sections (the guardrails it asserts)
//! and the criterion `workload` and `trace_overhead` groups step these
//! stations through `Agent::process`, so what they time is the production
//! pipeline, not a copy of it.

use gnf_agent::{Agent, AgentConfig, PacketOutcome};
use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_container::ImageRepository;
use gnf_nf::firewall::{
    CidrV4, FirewallConfig, FirewallRule, PortMatch, ProtocolMatch, RuleAction,
};
use gnf_nf::ids::IdsConfig;
use gnf_nf::rate_limiter::RateLimiterConfig;
use gnf_nf::{Direction, NfConfig, NfSpec};
use gnf_packet::{builder, Packet, PacketBatch};
use gnf_switch::TrafficSelector;
use gnf_types::{AgentId, ChainId, ClientId, HostClass, MacAddr, SimTime, StationId};
use std::net::Ipv4Addr;

/// The virtual time every fixture chain is deployed and every fixture
/// packet arrives at.
pub const NOW: SimTime = SimTime::from_secs(1);

/// A 100-rule edge firewall of range and CIDR rules — the shapes the
/// exact-port index cannot bucket, so the uncached path walks the list per
/// packet. (Exact-port rule sets are covered by the `firewall_rule_count`
/// bench group, where the index makes them O(1).)
pub fn hundred_rule_config(track_connections: bool) -> FirewallConfig {
    let mut rules = Vec::with_capacity(100);
    for i in 0..60u16 {
        rules.push(FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Range(10_000 + i * 10, 10_005 + i * 10),
            action: RuleAction::Drop,
            ..FirewallRule::any(format!("range-{i}"), RuleAction::Drop)
        });
    }
    for i in 0..40u16 {
        rules.push(FirewallRule::block_dst(
            format!("cidr-{i}"),
            CidrV4::new(Ipv4Addr::new(192, 168, i as u8, 0), 24),
        ));
    }
    FirewallConfig {
        rules,
        default_action: RuleAction::Accept,
        track_connections,
        conntrack_idle_timeout_secs: 600,
    }
}

/// A firewall of `rules` exact-port TCP deny rules (ports 10 000 and up),
/// none of which matches the bench client's traffic to port 443 — the
/// rule-count rows. The exact-port index keeps the walk O(1).
pub fn exact_port_config(rules: usize, track_connections: bool) -> FirewallConfig {
    FirewallConfig {
        rules: (0..rules)
            .map(|i| FirewallRule {
                protocol: ProtocolMatch::Tcp,
                dst_port: PortMatch::Exact(10_000 + i as u16),
                action: RuleAction::Drop,
                ..FirewallRule::any(format!("rule-{i}"), RuleAction::Drop)
            })
            .collect(),
        default_action: RuleAction::Accept,
        track_connections,
        conntrack_idle_timeout_secs: 60,
    }
}

/// One station: an Agent with every `(client, mac, ip)` of `clients`
/// associated and, when `specs` is non-empty, steered through a chain of its
/// own (chain id = client id + 1) deployed from `specs`. `megaflow` switches
/// the wildcard layer on, as the emulator does on every station.
pub fn station_agent(
    clients: impl IntoIterator<Item = (ClientId, MacAddr, Ipv4Addr)>,
    specs: &[NfSpec],
    megaflow: bool,
) -> Agent {
    let (mut agent, _) = Agent::new(
        AgentConfig {
            agent: AgentId::new(1),
            station: StationId::new(1),
            host_class: HostClass::EdgeServer,
        },
        ImageRepository::with_standard_images(),
    );
    agent.set_megaflow_enabled(megaflow);
    for (client, mac, ip) in clients {
        agent.client_associated(client, mac, ip);
        if specs.is_empty() {
            continue;
        }
        let replies = agent.handle_manager_msg(
            ManagerToAgent::DeployChain {
                chain: ChainId::new(client.raw() + 1),
                client,
                client_mac: mac,
                specs: specs.to_vec(),
                selector: TrafficSelector::all(),
                restore_state: None,
                migration: None,
            },
            NOW,
        );
        assert!(
            matches!(replies[0], AgentToManager::ChainDeployed { .. }),
            "the fixture chain must deploy, got {:?}",
            replies[0]
        );
    }
    agent
}

/// The first `len` NFs of the bench chain: the 100-rule firewall, a rate
/// limiter that never limits (10¹² B/s), and the IDS.
pub fn bench_chain(len: usize, track_connections: bool) -> Vec<NfSpec> {
    let limiter = RateLimiterConfig {
        rate_bytes_per_sec: 1e12,
        burst_bytes: 1e12,
        ..Default::default()
    };
    [
        NfSpec::new(
            "fw",
            NfConfig::Firewall(hundred_rule_config(track_connections)),
        ),
        NfSpec::new("rl", NfConfig::RateLimiter(limiter)),
        NfSpec::new("ids", NfConfig::Ids(IdsConfig::default())),
    ]
    .into_iter()
    .take(len)
    .collect()
}

/// The guardrail station: the bench client (the source of
/// [`established_flow_frame`], [`new_flow_frames`] and
/// [`blocked_flow_frames`]) steered through a [`bench_chain`] of `len` NFs;
/// `len` 0 leaves it associated but unsteered.
pub fn station(len: usize, track_connections: bool, megaflow: bool) -> Agent {
    station_agent(
        [(
            ClientId::new(1),
            MacAddr::derived(1, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        )],
        &bench_chain(len, track_connections),
        megaflow,
    )
}

/// One packet through the station's production pipeline: parse the
/// arriving frame, then `Agent::process` on the access port (a batch of
/// one). Returns whether the packet was forwarded.
pub fn step(agent: &mut Agent, frame: &Packet) -> bool {
    let packet = Packet::parse(frame.bytes().clone()).unwrap();
    let mut forwarded = false;
    agent.process(
        Direction::Ingress,
        PacketBatch::from(packet),
        NOW,
        &mut |outcome| forwarded = matches!(outcome, PacketOutcome::Forwarded(_)),
    );
    forwarded
}

/// One established flow of the bench client (the cache-hit workload).
pub fn established_flow_frame(payload: usize) -> Packet {
    builder::tcp_data(
        MacAddr::derived(1, 1),
        MacAddr::derived(0xA0, 0),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(203, 0, 113, 9),
        40_000,
        443,
        &vec![0xAB; payload],
    )
}

/// `count` frames with distinct source ports — cycled, each packet is the
/// first of a brand-new flow (the uncached workload; use more frames than
/// the flow-cache capacity so every lookup misses).
pub fn new_flow_frames(count: u32) -> Vec<Packet> {
    flow_frames(count, 443)
}

/// `count` frames with distinct source ports towards the destination port
/// the **last** range rule of [`hundred_rule_config`] denies — dropped-flow
/// churn. The chain-walking baseline pays the longest first-match walk (59
/// range rules evaluated before the deny), while a wildcarded drop entry
/// retires the packet at the switch.
pub fn blocked_flow_frames(count: u32) -> Vec<Packet> {
    flow_frames(count, 10_595)
}

/// `count` bench-client frames to `dst_port`, each from its own source port.
fn flow_frames(count: u32, dst_port: u16) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            builder::tcp_data(
                MacAddr::derived(1, 1),
                MacAddr::derived(0xA0, 0),
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(203, 0, 113, 9),
                (40_000 + i % u32::from(u16::MAX - 40_000)) as u16,
                dst_port,
                &[0xAB; 10],
            )
        })
        .collect()
}

/// The IP a hot-station client sources its traffic from.
fn hot_station_ip(client: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1 + (client / 250) as u8, 2 + (client % 250) as u8)
}

/// One *hot* station: `clients` clients, each steered through its own 2-NF
/// chain — the 100-rule conntrack-on firewall followed by the IDS — with
/// megaflow on. The IDS is deliberately opaque (it reads the whole payload),
/// so the chains never seal a wildcard bypass and every packet of every
/// established flow still pays the full chain walk: the per-packet work the
/// `trace_overhead` criterion group traces.
pub fn hot_station_agent(clients: u32) -> Agent {
    station_agent(
        (0..clients).map(|client| {
            (
                ClientId::new(u64::from(client)),
                MacAddr::derived(1, client),
                hot_station_ip(client),
            )
        }),
        &[
            NfSpec::new("fw", NfConfig::Firewall(hundred_rule_config(true))),
            NfSpec::new("ids", NfConfig::Ids(IdsConfig::default())),
        ],
        true,
    )
}

/// The hot station's upstream batch: `per_client` 1000-byte TCP data frames
/// per client (one established flow each), the clients interleaved
/// round-robin — the mixed-flow shape the emulator's batches have, where a
/// packet's predecessor is almost never of its own flow — so consecutive
/// packets belong to different chains and the IDS signature scan dominates
/// the per-packet cost.
pub fn hot_station_frames(clients: u32, per_client: usize) -> Vec<Packet> {
    let frames: Vec<Packet> = (0..clients)
        .map(|client| {
            builder::tcp_data(
                MacAddr::derived(1, client),
                MacAddr::derived(0xA0, 0),
                hot_station_ip(client),
                Ipv4Addr::new(203, 0, 113, 9),
                40_000 + client as u16,
                443,
                &vec![0xAB; 1000],
            )
        })
        .collect();
    (0..per_client)
        .flat_map(|_| frames.iter().cloned())
        .collect()
}
