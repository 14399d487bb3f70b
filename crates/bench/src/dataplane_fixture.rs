//! Shared station-pipeline fixture for the flow-cache measurements.
//!
//! Both the `dataplane` criterion bench (`flow_cache` group) and the
//! `exp_e4_dataplane` experiment harness measure the same thing — the full
//! per-packet station pipeline (parse → switch → chain) on the cache-hit
//! path vs the first-packet path. Keeping the fixture here ensures the two
//! numbers the ROADMAP tracks cannot drift apart.

use gnf_agent::{seal_report, Agent, AgentConfig};
use gnf_api::messages::ManagerToAgent;
use gnf_container::ImageRepository;
use gnf_nf::firewall::{
    CidrV4, Firewall, FirewallConfig, FirewallRule, PortMatch, ProtocolMatch, RuleAction,
};
use gnf_nf::ids::{Ids, IdsConfig};
use gnf_nf::rate_limiter::{RateLimiter, RateLimiterConfig};
use gnf_nf::{Direction, NfChain, NfConfig, NfContext, NfSpec};
use gnf_packet::{builder, Packet};
use gnf_switch::{
    Classified, MegaflowState, SoftwareSwitch, SteeringRule, TrafficSelector,
    DEFAULT_MEGAFLOW_CAPACITY,
};
use gnf_types::{AgentId, ChainId, ClientId, HostClass, MacAddr, SimTime, StationId};
use std::net::Ipv4Addr;

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

/// Builds the station data-plane fixture: a switch steering the bench
/// client's traffic through a chain of `len` NFs (0 = no steering), with the
/// 100-rule firewall first when present.
pub fn station(len: usize, track_connections: bool) -> (SoftwareSwitch, NfChain) {
    let mut sw = SoftwareSwitch::new();
    let mut chain = NfChain::new("bench-chain");
    if len >= 1 {
        chain.push(Box::new(Firewall::new(
            "fw",
            hundred_rule_config(track_connections),
        )));
    }
    if len >= 2 {
        chain.push(Box::new(RateLimiter::new(
            "rl",
            RateLimiterConfig {
                rate_bytes_per_sec: 1e12,
                burst_bytes: 1e12,
                ..Default::default()
            },
        )));
    }
    if len >= 3 {
        chain.push(Box::new(Ids::new("ids", IdsConfig::default())));
    }
    if len > 0 {
        sw.steering_mut().install(SteeringRule {
            client: ClientId::new(1),
            client_mac: MacAddr::derived(1, 1),
            selector: TrafficSelector::all(),
            chain: ChainId::new(1),
        });
    }
    (sw, chain)
}

/// The [`station`] fixture with the megaflow (wildcard) cache enabled —
/// conntrack stays off so the firewall reports pure masks and the chain is
/// bypassable, which is the megaflow win the `megaflow` criterion group and
/// exp_e4's new-flow-churn section measure.
pub fn station_megaflow(len: usize) -> (SoftwareSwitch, NfChain) {
    let (mut sw, chain) = station(len, false);
    sw.set_megaflow_capacity(DEFAULT_MEGAFLOW_CAPACITY);
    (sw, chain)
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
    (0..count)
        .map(|i| {
            builder::tcp_data(
                MacAddr::derived(1, 1),
                MacAddr::derived(0xA0, 0),
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(203, 0, 113, 9),
                (40_000 + i % u32::from(u16::MAX - 40_000)) as u16,
                443,
                &[0xAB; 10],
            )
        })
        .collect()
}

/// `count` frames with distinct source ports towards the destination port
/// the **last** range rule of [`hundred_rule_config`] denies — dropped-flow
/// churn. The chain-walking baseline pays the longest first-match walk (59
/// range rules evaluated before the deny), while a wildcarded drop entry
/// retires the packet at the switch; this is the `megaflow_drop` criterion
/// group's workload.
pub fn blocked_flow_frames(count: u32) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            builder::tcp_data(
                MacAddr::derived(1, 1),
                MacAddr::derived(0xA0, 0),
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(203, 0, 113, 9),
                (40_000 + i % u32::from(u16::MAX - 40_000)) as u16,
                10_595,
                &[0xAB; 10],
            )
        })
        .collect()
}

/// The IP a hot-station client sources its traffic from.
fn hot_station_ip(client: u32) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 1 + (client / 250) as u8, 2 + (client % 250) as u8)
}

/// One *hot* station: an Agent with `clients` associated clients, each
/// steered through its own 2-NF chain — the 100-rule conntrack-on firewall
/// followed by the IDS. The IDS is deliberately opaque (it reads the whole
/// payload), so the chains never seal a wildcard bypass and every packet of
/// every established flow still pays the full chain walk: the per-packet
/// work the `trace_overhead` criterion group traces.
pub fn hot_station_agent(clients: u32) -> Agent {
    let (mut agent, _) = Agent::new(
        AgentConfig {
            agent: AgentId::new(1),
            station: StationId::new(1),
            host_class: HostClass::EdgeServer,
        },
        ImageRepository::with_standard_images(),
    );
    agent.set_megaflow_enabled(true);
    for client in 0..clients {
        let mac = MacAddr::derived(1, client);
        agent.client_associated(
            ClientId::new(u64::from(client)),
            mac,
            hot_station_ip(client),
        );
        agent.handle_manager_msg(
            ManagerToAgent::DeployChain {
                chain: ChainId::new(u64::from(client) + 1),
                client: ClientId::new(u64::from(client)),
                client_mac: mac,
                specs: vec![
                    NfSpec::new("fw", NfConfig::Firewall(hundred_rule_config(true))),
                    NfSpec::new("ids", NfConfig::Ids(IdsConfig::default())),
                ],
                selector: TrafficSelector::all(),
                restore_state: None,
                migration: None,
            },
            SimTime::from_secs(1),
        );
    }
    agent
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

/// One station-pipeline iteration, exactly as the Agent dispatches a batch
/// of one: parse the arriving frame, classify it (exact → wildcard → slow
/// path), then either replay a certified chain bypass (forward or drop), or
/// run the chain when steered and seal the slow-path seed into a wildcard
/// entry. A switch with the megaflow layer off only ever answers
/// [`MegaflowState::None`], so the same step serves both kinds of fixture.
/// Returns whether the packet was forwarded.
pub fn pipeline_step(
    sw: &mut SoftwareSwitch,
    chain: &mut NfChain,
    frame: &Packet,
    ctx: &NfContext,
) -> bool {
    let pkt = Packet::parse(frame.bytes().clone()).unwrap();
    let port = sw.client_port();
    let mut cursor = sw
        .begin_batch(std::slice::from_ref(&pkt), port, SimTime::from_secs(1))
        .unwrap();
    let Classified { decision, megaflow } = sw.classify(&mut cursor, &pkt);
    match decision.steering {
        Some((_, upstream)) => {
            let direction = if upstream {
                Direction::Ingress
            } else {
                Direction::Egress
            };
            match megaflow {
                MegaflowState::Bypass(tokens) => {
                    chain.credit_bypass(direction, &tokens, 1, pkt.len() as u64);
                    true
                }
                MegaflowState::DropBypass { tokens, .. } => {
                    chain.credit_bypass_drop(direction, &tokens, 1, pkt.len() as u64);
                    false
                }
                megaflow => {
                    let verdict = chain.process(pkt, direction, ctx);
                    if let MegaflowState::Seed(seed) = megaflow {
                        sw.install_megaflow(seed, seal_report(chain, direction, &verdict));
                    }
                    verdict.is_forward()
                }
            }
        }
        None => true,
    }
}
