//! Property tests for the megaflow (wildcard) cache layer: a pipeline with
//! wildcarding enabled must be **verdict/state/stats-equivalent** to the
//! uncached pipeline — same packet outcomes in the same order, same NF
//! statistics and exported state, same switch port counters — across random
//! rule sets and traffic mixes, and an emulator run with it replays byte
//! for byte. Only the cache-level
//! telemetry (how lookups distribute between the exact and wildcard levels)
//! may differ, which is exactly what the wildcard layer exists to change.

use gnf_agent::{Agent, AgentConfig, PacketOutcome};
use gnf_api::messages::ManagerToAgent;
use gnf_container::ImageRepository;
use gnf_core::{Emulator, RunReport, Scenario};
use gnf_edge::TrafficProfile;
use gnf_nf::firewall::{
    CidrV4, FirewallConfig, FirewallRule, PortMatch, ProtocolMatch, RuleAction,
};
use gnf_nf::http_filter::HttpFilterConfig;
use gnf_nf::{Direction, NfConfig, NfSpec};
use gnf_packet::{builder, Packet, PacketBatch};
use gnf_switch::TrafficSelector;
use gnf_types::{
    AgentId, ChainId, ClientId, GnfConfig, HostClass, MacAddr, SimDuration, SimTime, StationId,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Runs `packets`, arriving on the access port, as one batch and collects
/// their outcomes in packet order.
fn upstream(
    agent: &mut Agent,
    packets: impl Into<PacketBatch>,
    now: SimTime,
) -> Vec<PacketOutcome> {
    let mut outcomes = Vec::new();
    agent.process(Direction::Ingress, packets.into(), now, &mut |o| {
        outcomes.push(o)
    });
    outcomes
}

/// Ports the traffic and the rule generator draw from, so rules regularly
/// match, miss, and partition the traffic.
const PORT_POOL: [u16; 6] = [22, 53, 80, 443, 8080, 40_000];

fn arb_rule() -> impl Strategy<Value = FirewallRule> {
    (
        0usize..3,               // action
        0usize..4,               // protocol constraint
        0usize..4,               // dst-port constraint kind
        0usize..PORT_POOL.len(), // port drawn from the shared pool
        0usize..3,               // dst CIDR kind
        0u8..4,                  // CIDR octet
    )
        .prop_map(|(action, proto, port_kind, port_ix, cidr_kind, octet)| {
            let action = [RuleAction::Accept, RuleAction::Drop, RuleAction::Reject][action];
            let port = PORT_POOL[port_ix];
            FirewallRule {
                protocol: [
                    ProtocolMatch::Any,
                    ProtocolMatch::Tcp,
                    ProtocolMatch::Udp,
                    ProtocolMatch::Icmp,
                ][proto],
                dst_port: match port_kind {
                    0 => PortMatch::Any,
                    1 => PortMatch::Exact(port),
                    2 => PortMatch::Range(port, port.saturating_add(100)),
                    _ => PortMatch::Range(1, 1023),
                },
                dst: match cidr_kind {
                    0 => CidrV4::any(),
                    1 => CidrV4::new(Ipv4Addr::new(203, 0, octet, 0), 24),
                    _ => CidrV4::new(Ipv4Addr::new(203, 0, 0, 0), 16),
                },
                action,
                ..FirewallRule::any(format!("r-{proto}-{port_kind}-{port}"), action)
            }
        })
}

fn arb_firewall_config() -> impl Strategy<Value = FirewallConfig> {
    (
        proptest::collection::vec(arb_rule(), 0..8),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(rules, drop_default, track)| FirewallConfig {
            rules,
            default_action: if drop_default {
                RuleAction::Drop
            } else {
                RuleAction::Accept
            },
            track_connections: track,
            conntrack_idle_timeout_secs: 60,
        })
}

fn client_mac() -> MacAddr {
    MacAddr::derived(1, 0)
}

fn client_ip() -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 0, 2)
}

/// A traffic mix of repeated flows, brand-new flows of a shared shape (the
/// wildcard workload) and the occasional HTTP request / non-IP frame.
fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u16..600,               // ephemeral source-port offset (new flows)
        0usize..PORT_POOL.len(), // destination port
        0u8..4,                  // destination subnet octet
        0usize..5,               // kind
    )
        .prop_map(|(sport, dport_ix, octet, kind)| {
            let server = MacAddr::derived(0xA0, 0);
            let dst = Ipv4Addr::new(203, 0, octet, 10);
            let sport = 40_000 + sport;
            let dport = PORT_POOL[dport_ix];
            match kind {
                0 | 1 => builder::tcp_syn(client_mac(), server, client_ip(), dst, sport, dport),
                2 => builder::udp_packet(
                    client_mac(),
                    server,
                    client_ip(),
                    dst,
                    sport,
                    dport,
                    b"payload",
                ),
                3 => builder::http_get(
                    client_mac(),
                    server,
                    client_ip(),
                    dst,
                    sport,
                    "prop.example",
                    "/x",
                ),
                _ => builder::arp_request(client_mac(), client_ip(), Ipv4Addr::new(172, 16, 0, 1)),
            }
        })
}

/// A scan-shaped traffic mix: TCP SYNs sweeping a small privileged-port set
/// with churning source ports (every packet a brand-new flow), plus benign
/// high-port flows — the dropped-flow churn wildcard drop entries exist for.
/// The small destination pool makes masked drop patterns repeat quickly.
fn arb_attack_packet() -> impl Strategy<Value = Packet> {
    (
        0u16..400,     // ephemeral source-port offset (fresh flow each)
        0usize..4,     // scanned destination port
        any::<bool>(), // scan vs benign
    )
        .prop_map(|(sport, dport_ix, scan)| {
            let server = MacAddr::derived(0xA0, 0);
            let dst = Ipv4Addr::new(203, 0, 0, 10);
            let sport = 40_000 + sport;
            let dport = if scan {
                [22u16, 23, 25, 445][dport_ix]
            } else {
                [8_080u16, 8_443, 9_000, 9_090][dport_ix]
            };
            builder::tcp_syn(client_mac(), server, client_ip(), dst, sport, dport)
        })
}

fn build_agent(megaflow: bool, specs: Vec<NfSpec>, selector: TrafficSelector) -> Agent {
    let (mut agent, _) = Agent::new(
        AgentConfig {
            agent: AgentId::new(1),
            station: StationId::new(1),
            host_class: HostClass::EdgeServer,
        },
        ImageRepository::with_standard_images(),
    );
    agent.set_megaflow_enabled(megaflow);
    agent.client_associated(ClientId::new(0), client_mac(), client_ip());
    agent.handle_manager_msg(
        ManagerToAgent::DeployChain {
            chain: ChainId::new(1),
            client: ClientId::new(0),
            client_mac: client_mac(),
            specs,
            selector,
            restore_state: None,
            migration: None,
        },
        SimTime::from_secs(1),
    );
    agent
}

/// Packet-outcome + NF-state + port-counter equivalence between two agents.
fn assert_station_equivalent(a: &Agent, b: &Agent) -> Result<(), proptest::TestCaseError> {
    // The agents store chains in a HashMap, so pair them up by id rather
    // than trusting the two maps to iterate in the same order.
    let mut xs: Vec<_> = a.chains().collect();
    let mut ys: Vec<_> = b.chains().collect();
    xs.sort_by_key(|c| c.chain_id.raw());
    ys.sort_by_key(|c| c.chain_id.raw());
    prop_assert_eq!(xs.len(), ys.len());
    for (x, y) in xs.into_iter().zip(ys) {
        prop_assert_eq!(x.chain_id, y.chain_id);
        prop_assert_eq!(x.chain.stats(), y.chain.stats());
        prop_assert_eq!(x.chain.per_nf_stats(), y.chain.per_nf_stats());
        prop_assert_eq!(x.chain.export_state(), y.chain.export_state());
    }
    for (x, y) in a.switch().ports().iter().zip(b.switch().ports()) {
        prop_assert_eq!(&x.counters, &y.counters);
    }
    Ok(())
}

/// Runs a 3-station, 5-smartphone fleet whose every client is steered
/// through a conntrack-off firewall of `rule` (default accept) with the
/// megaflow layer on (the default) and off, and asserts the two runs report
/// identical packet accounting and notifications, the disabled layer stays
/// silent, and a second megaflow-on run serializes the same `RunReport`
/// bytes. Returns the megaflow-on report.
fn emulator_megaflow_on_equals_off(
    seed: u64,
    rule: FirewallRule,
) -> Result<RunReport, proptest::TestCaseError> {
    let fw = NfSpec::new(
        "fw",
        NfConfig::Firewall(FirewallConfig {
            rules: vec![rule],
            default_action: RuleAction::Accept,
            track_connections: false,
            conntrack_idle_timeout_secs: 60,
        }),
    );
    let build = || {
        let config = GnfConfig::default().with_seed(seed);
        let mut builder = Scenario::builder(3, HostClass::EdgeServer).with_config(config);
        let clients = builder.add_clients(5, TrafficProfile::smartphone());
        let mut sb = builder.with_duration(SimDuration::from_secs(6));
        for client in &clients {
            sb = sb.attach_policy(
                *client,
                vec![fw.clone()],
                TrafficSelector::all(),
                SimTime::from_secs(1),
            );
        }
        sb.build()
    };

    let report_on = Emulator::new(build()).run();
    let mut disabled = Emulator::new(build());
    disabled.set_megaflow_enabled(false);
    let report_off = disabled.run();
    prop_assert_eq!(&report_on.packets, &report_off.packets);
    prop_assert_eq!(&report_on.notifications, &report_off.notifications);
    prop_assert_eq!(report_off.megaflow.stats.hits, 0);
    prop_assert_eq!(report_off.megaflow.stats.drop_hits, 0);
    prop_assert_eq!(report_off.megaflow.stats.drop_installs, 0);

    let again = Emulator::new(build()).run();
    prop_assert_eq!(
        serde_json::to_string(&report_on).unwrap(),
        serde_json::to_string(&again).unwrap()
    );
    Ok(report_on)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The megaflow-enabled station pipeline is outcome/state/stats
    /// equivalent to the uncached one across random rule sets and traffic
    /// mixes — for both the per-packet and the batched entry points.
    #[test]
    fn megaflow_pipeline_equals_uncached_pipeline(
        fw in arb_firewall_config(),
        packets in proptest::collection::vec(arb_packet(), 1..60),
        http_filter in any::<bool>(),
        http_only in any::<bool>(),
    ) {
        let mut specs = vec![NfSpec::new("fw", NfConfig::Firewall(fw))];
        if http_filter {
            specs.push(NfSpec::new(
                "filter",
                NfConfig::HttpFilter(HttpFilterConfig::block_hosts(&["prop.example"])),
            ));
        }
        let selector = if http_only {
            TrafficSelector::http_only()
        } else {
            TrafficSelector::all()
        };
        let now = SimTime::from_secs(2);

        // Reference: megaflow disabled (the historical pipeline).
        let mut off = build_agent(false, specs.clone(), selector);
        let expected: Vec<PacketOutcome> = packets
            .iter()
            .flat_map(|p| upstream(&mut off, p.clone(), now))
            .collect();
        let expected_notifications = off.drain_nf_notifications(now).len();

        // Megaflow on, per-packet.
        let mut on = build_agent(true, specs.clone(), selector);
        let outcomes: Vec<PacketOutcome> = packets
            .iter()
            .flat_map(|p| upstream(&mut on, p.clone(), now))
            .collect();
        prop_assert_eq!(&outcomes, &expected);
        assert_station_equivalent(&on, &off)?;
        prop_assert_eq!(on.drain_nf_notifications(now).len(), expected_notifications);

        // Megaflow on, batched.
        let mut on_batched = build_agent(true, specs, selector);
        let outcomes = upstream(&mut on_batched, packets, now);
        prop_assert_eq!(&outcomes, &expected);
        assert_station_equivalent(&on_batched, &off)?;
        prop_assert_eq!(
            on_batched.drain_nf_notifications(now).len(),
            expected_notifications
        );
    }

    /// Drop-bypass equivalence under attack traffic: with random rule sets
    /// (denies, rejects, conntrack on/off) and scan-shaped churn, the
    /// station pipeline produces identical packet outcomes (including drop
    /// reasons), NF statistics, exported state and port counters whether
    /// wildcarded drop entries retire the churn or the megaflow layer is
    /// off entirely — per-packet and batched (mid-batch sealing included).
    #[test]
    fn drop_bypass_pipeline_equals_uncached_pipeline(
        fw in arb_firewall_config(),
        packets in proptest::collection::vec(arb_attack_packet(), 1..60),
    ) {
        let specs = vec![NfSpec::new("fw", NfConfig::Firewall(fw))];
        let selector = TrafficSelector::all();
        let now = SimTime::from_secs(2);

        // Reference: megaflow disabled entirely.
        let mut off = build_agent(false, specs.clone(), selector);
        let expected: Vec<PacketOutcome> = packets
            .iter()
            .flat_map(|p| upstream(&mut off, p.clone(), now))
            .collect();

        // Megaflow on with drop entries, per-packet.
        let mut drops_on = build_agent(true, specs.clone(), selector);
        let outcomes: Vec<PacketOutcome> = packets
            .iter()
            .flat_map(|p| upstream(&mut drops_on, p.clone(), now))
            .collect();
        prop_assert_eq!(&outcomes, &expected);
        assert_station_equivalent(&drops_on, &off)?;

        // Batched with drop entries: outcomes match, and mid-batch sealing
        // makes even the cache telemetry match the per-packet run.
        let mut batched = build_agent(true, specs, selector);
        let outcomes = upstream(&mut batched, packets, now);
        prop_assert_eq!(&outcomes, &expected);
        assert_station_equivalent(&batched, &off)?;
        prop_assert_eq!(batched.megaflow_telemetry(), drops_on.megaflow_telemetry());
        prop_assert_eq!(batched.flow_cache_telemetry(), drops_on.flow_cache_telemetry());
    }

    /// Emulator-level equivalence: with a bypassable (conntrack-off)
    /// firewall chain deployed fleet-wide, a megaflow-enabled run reports
    /// the same packet accounting and notifications as a disabled one, and
    /// the megaflow-enabled RunReport is byte-identical on a second run.
    #[test]
    fn emulator_megaflow_equivalence_across_worker_counts(seed in 0u64..100) {
        let low_ports_denying_fw = FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Range(1, 23),
            action: RuleAction::Drop,
            ..FirewallRule::any("low-ports", RuleAction::Drop)
        };
        emulator_megaflow_on_equals_off(seed, low_ports_denying_fw)?;
    }

    /// The same on an attack-shaped fleet: a conntrack-off firewall denying
    /// the smartphones' DNS traffic turns every lookup (fresh source port
    /// each) into dropped-flow churn, which must actually ride the drop
    /// entries.
    #[test]
    fn emulator_drop_bypass_equivalence_across_worker_counts(seed in 0u64..100) {
        let dns_denying_fw = FirewallRule {
            protocol: ProtocolMatch::Udp,
            dst_port: PortMatch::Exact(53),
            action: RuleAction::Drop,
            ..FirewallRule::any("no-dns", RuleAction::Drop)
        };
        let report_on = emulator_megaflow_on_equals_off(seed, dns_denying_fw)?;
        prop_assert!(report_on.packets.dropped_by_nf > 0, "the deny rule fired");
        prop_assert!(
            report_on.megaflow.stats.drop_hits > 0,
            "dropped-flow churn must bypass: {:?}",
            report_on.megaflow
        );
    }
}

/// Deterministic end-to-end check that the wildcard layer actually engages
/// under emulated new-flow churn (not just stays silently equivalent).
#[test]
fn emulated_churn_hits_the_wildcard_layer() {
    let untracked_fw = NfSpec::new(
        "fw",
        NfConfig::Firewall(FirewallConfig {
            rules: Vec::new(),
            default_action: RuleAction::Accept,
            track_connections: false,
            conntrack_idle_timeout_secs: 60,
        }),
    );
    let mut builder = Scenario::builder(2, HostClass::EdgeServer).with_config(GnfConfig::default());
    let clients = builder.add_clients(4, TrafficProfile::smartphone());
    let mut sb = builder.with_duration(SimDuration::from_secs(10));
    for client in &clients {
        sb = sb.attach_policy(
            *client,
            vec![untracked_fw.clone()],
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    let report = Emulator::new(sb.build()).run();
    assert!(
        report.megaflow.stats.installs > 0,
        "wildcard entries were installed: {:?}",
        report.megaflow
    );
    assert!(
        report.megaflow.stats.hits > 0,
        "new flows rode the wildcard entries: {:?}",
        report.megaflow
    );
    assert!(report.summary().contains("megaflow"));
}
