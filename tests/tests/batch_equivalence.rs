//! Property tests for the batched data plane: the packet is the unit, and
//! what a batch amortizes at the switch is its prologue (port validated and
//! RX counted once, a just-learned source MAC not re-learned), so one batch
//! must be observably equivalent to the same packets as batches of one —
//! same classifications in the same order, same switch counters — and the
//! emulator's sharded execution must produce an identical `RunReport` for
//! any worker count. (NF chains have no batched path of their own: a batch
//! crosses a chain one `process` call per packet.)

use gnf_core::emulator::PACKET_BREAK_EVEN;
use gnf_core::{Emulator, Scenario};
use gnf_edge::TrafficProfile;
use gnf_nf::testing::sample_specs;
use gnf_packet::{builder, Packet, TcpFlags};
use gnf_switch::{
    Classified, SoftwareSwitch, SteeringRule, TrafficSelector, DEFAULT_MEGAFLOW_CAPACITY,
};
use gnf_types::{ChainId, ClientId, GnfConfig, HostClass, MacAddr, SimDuration, SimTime};
use gnf_workload::{ArrivalModel, Population, SyntheticSpec, TrafficMix};
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Runs `scenario` at `workers` with a burst of `PACKET_BREAK_EVEN` + 512
/// one-packet flows over every client, emitted within ~3 ms of t = 3.5 s
/// (clear of every report timer), so at least one flush reaches the
/// break-even. Returns the serialized report; a run with several workers
/// must have fanned a packet flush out, or it proved nothing.
fn run_with_burst(scenario: Scenario, workers: usize) -> String {
    let population = Population::from_topology(&scenario.topology);
    let mut emulator = Emulator::new(scenario);
    emulator.set_workers(workers);
    emulator.add_workload(Box::new(
        SyntheticSpec::new("burst", 1)
            .starting_at(SimTime::from_millis(3_500))
            .with_arrivals(ArrivalModel::Periodic {
                flows_per_sec: 1_000_000.0,
            })
            .with_mix(TrafficMix::churn())
            .with_packet_budget(PACKET_BREAK_EVEN + 512)
            .build(population),
    ));
    let report = serde_json::to_string(&emulator.run()).unwrap();
    let fan_outs = emulator.fan_out_telemetry();
    assert_eq!(
        fan_outs.packet_flushes > 0,
        workers > 1,
        "{workers}: {fan_outs:?}"
    );
    report
}

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    // A small address pool so flows repeat, back to back too.
    (0u8..4, 0u8..4).prop_map(|(a, b)| Ipv4Addr::new(10, 0, a, b))
}

/// Source and destination ports are drawn from one shared pool, so batches
/// regularly contain both directions of "the same flow" (same canonical
/// tuple, different exact tuple), which the exact-match cache must keep
/// apart.
const PORT_POOL: [u16; 6] = [22, 53, 80, 443, 40_001, 40_002];

fn arb_packet() -> impl Strategy<Value = Packet> {
    let mac = (0u8..3, 0u32..3).prop_map(|(ns, ix)| MacAddr::derived(ns, ix));
    (
        mac,
        arb_ip(),
        arb_ip(),
        0usize..PORT_POOL.len(),
        0usize..PORT_POOL.len(),
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..64),
        0usize..5,
    )
        .prop_map(
            |(src_mac, src_ip, dst_ip, sport_ix, dport_ix, flags, payload, kind)| {
                let gw = MacAddr::derived(0xA0, 0);
                let sport = PORT_POOL[sport_ix];
                let dport = PORT_POOL[dport_ix];
                match kind {
                    0 => builder::tcp_packet(
                        src_mac,
                        gw,
                        src_ip,
                        dst_ip,
                        sport,
                        dport,
                        TcpFlags::from_byte(flags),
                        &payload,
                    ),
                    1 => {
                        // Every other datagram carries the IDS test signature
                        // somewhere inside its payload.
                        let mut payload = payload;
                        if flags & 1 == 1 {
                            let at = payload.len() / 2;
                            payload.splice(at..at, *b"MALWARE-TEST-SIGNATURE");
                        }
                        builder::udp_packet(src_mac, gw, src_ip, dst_ip, sport, dport, &payload)
                    }
                    2 => builder::dns_query(
                        src_mac,
                        gw,
                        src_ip,
                        dst_ip,
                        sport,
                        sport,
                        "prop.example",
                    ),
                    3 => {
                        // Allowed and blocked hosts, the blocked one in a
                        // case the filter must fold.
                        let host = if flags & 1 == 0 {
                            "prop.example"
                        } else {
                            "cdn.Ads.Example"
                        };
                        builder::http_get(src_mac, gw, src_ip, dst_ip, sport, host, "/x")
                    }
                    _ => builder::icmp_echo_request(src_mac, gw, src_ip, dst_ip, sport, dport),
                }
            },
        )
}

/// New-flow churn from one client: fresh source ports towards a small pool
/// of destinations, so brand-new flows keep sharing a masked pattern (the
/// wildcard layer's workload), plus the occasional non-IP frame.
fn arb_new_flow_packet() -> impl Strategy<Value = Packet> {
    (0u16..600, 0usize..PORT_POOL.len(), 0u8..4, 0usize..4).prop_map(
        |(sport, dport_ix, octet, kind)| {
            let client = MacAddr::derived(1, 0);
            let ip = Ipv4Addr::new(172, 16, 0, 2);
            let gw = MacAddr::derived(0xA0, 0);
            let dst = Ipv4Addr::new(203, 0, octet, 10);
            let (sport, dport) = (40_000 + sport, PORT_POOL[dport_ix]);
            match kind {
                0 | 1 => builder::tcp_syn(client, gw, ip, dst, sport, dport),
                2 => builder::udp_packet(client, gw, ip, dst, sport, dport, b"payload"),
                _ => builder::arp_request(client, ip, Ipv4Addr::new(172, 16, 0, 1)),
            }
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One batch through one prologue == the same packets as batches of
    /// one: every classification (decision and megaflow aspect), the port
    /// counters, the MAC table, every exact-match and megaflow counter —
    /// with the wildcard layer on and off.
    #[test]
    fn switch_batch_equals_per_packet(
        packets in proptest::collection::vec(
            (any::<bool>(), arb_packet(), arb_new_flow_packet())
                .prop_map(|(churn, mixed, new_flow)| if churn { new_flow } else { mixed }),
            1..60,
        ),
        steer_all in any::<bool>(),
        megaflow in any::<bool>(),
    ) {
        let now = SimTime::from_secs(1);
        let build = || {
            let mut sw = SoftwareSwitch::new();
            if megaflow {
                sw.set_megaflow_capacity(DEFAULT_MEGAFLOW_CAPACITY);
            }
            if steer_all {
                for ns in 0u8..3 {
                    for ix in 0u32..3 {
                        sw.steering_mut().install(SteeringRule {
                            client: ClientId::new(u64::from(ix)),
                            client_mac: MacAddr::derived(ns, ix),
                            selector: if ix % 2 == 0 {
                                TrafficSelector::all()
                            } else {
                                TrafficSelector::http_only()
                            },
                            chain: ChainId::new(u64::from(ix)),
                        });
                    }
                }
            }
            sw
        };
        let mut reference = build();
        let port = reference.client_port();
        let expected: Vec<Classified> = packets
            .iter()
            .map(|p| {
                let mut cursor = reference
                    .begin_batch(std::slice::from_ref(p), port, now)
                    .unwrap();
                reference.classify(&mut cursor, p)
            })
            .collect();

        let mut batched = build();
        let mut cursor = batched.begin_batch(&packets, port, now).unwrap();
        let classified: Vec<Classified> = packets
            .iter()
            .map(|p| batched.classify(&mut cursor, p))
            .collect();
        prop_assert_eq!(classified, expected);
        for (a, b) in batched.ports().iter().zip(reference.ports()) {
            prop_assert_eq!(a.counters, b.counters);
        }
        prop_assert_eq!(batched.mac_table_len(), reference.mac_table_len());
        prop_assert_eq!(batched.flow_cache_stats(), reference.flow_cache_stats());
        prop_assert_eq!(batched.flow_cache_len(), reference.flow_cache_len());
        prop_assert_eq!(batched.megaflow_stats(), reference.megaflow_stats());
        prop_assert_eq!(batched.megaflow_len(), reference.megaflow_len());
        prop_assert_eq!(batched.megaflow_mask_count(), reference.megaflow_mask_count());
    }

    /// The emulator's sharded execution is invisible in the results: the
    /// RunReport serializes byte-identically for workers 1, 2 and 4, across
    /// seeds and traffic profiles, with a flush that fans out.
    #[test]
    fn sharded_run_reports_are_identical(seed in 0u64..200, cbr in any::<bool>()) {
        let build = || {
            let config = GnfConfig::default().with_seed(seed);
            let mut builder = Scenario::builder(4, HostClass::EdgeServer).with_config(config);
            let profile = if cbr {
                TrafficProfile::ConstantBitRate { packets_per_sec: 50.0, payload_bytes: 200 }
            } else {
                TrafficProfile::smartphone()
            };
            let clients = builder.add_clients(6, profile);
            let mut sb = builder.with_duration(SimDuration::from_secs(6));
            for client in &clients {
                sb = sb.attach_policy(
                    *client,
                    vec![sample_specs()[0].clone(), sample_specs()[1].clone()],
                    TrafficSelector::all(),
                    SimTime::from_secs(1),
                );
            }
            sb.build()
        };
        let reports: Vec<String> = [1usize, 2, 4]
            .into_iter()
            .map(|workers| run_with_burst(build(), workers))
            .collect();
        prop_assert_eq!(&reports[0], &reports[1]);
        prop_assert_eq!(&reports[0], &reports[2]);
    }

    /// Mixed chains are as invisible to the worker count as uniform ones:
    /// the RunReport serializes byte-identically for workers 1, 2 and 4,
    /// with a flush that fans out.
    /// Half the clients ride a two-NF chain ending in the (opaque) IDS, so
    /// stations carry real chain work, and the other half a one-NF chain,
    /// so a station flushes through more than one chain per step.
    #[test]
    fn rss_sharded_run_reports_are_identical(seed in 0u64..200, cbr in any::<bool>()) {
        let build = || {
            let config = GnfConfig::default().with_seed(seed);
            let mut builder = Scenario::builder(4, HostClass::EdgeServer).with_config(config);
            let profile = if cbr {
                TrafficProfile::ConstantBitRate { packets_per_sec: 50.0, payload_bytes: 200 }
            } else {
                TrafficProfile::smartphone()
            };
            let clients = builder.add_clients(6, profile);
            let mut sb = builder.with_duration(SimDuration::from_secs(6));
            for (ix, client) in clients.iter().enumerate() {
                let specs = if ix % 2 == 0 {
                    vec![sample_specs()[0].clone(), sample_specs()[6].clone()]
                } else {
                    vec![sample_specs()[1].clone()]
                };
                sb = sb.attach_policy(
                    *client,
                    specs,
                    TrafficSelector::all(),
                    SimTime::from_secs(1),
                );
            }
            sb.build()
        };
        let baseline = run_with_burst(build(), 1);
        for workers in [2usize, 4] {
            let report = run_with_burst(build(), workers);
            prop_assert!(report == baseline, "workers={} diverged", workers);
        }
    }
}
