//! Property-based integration tests over the data plane: arbitrary traffic
//! through arbitrary chains must never panic, never forge packets, and always
//! account for every packet exactly once.

use gnf_nf::testing::sample_specs;
use gnf_nf::{instantiate_chain, Direction, NfContext, Verdict};
use gnf_packet::{builder, Packet, TcpFlags};
use gnf_types::{MacAddr, SimTime};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_ip() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    let mac = (any::<u8>(), any::<u32>()).prop_map(|(ns, ix)| MacAddr::derived(ns, ix));
    (
        mac,
        arb_ip(),
        arb_ip(),
        1u16..,
        1u16..,
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..200),
        0usize..5,
    )
        .prop_map(
            |(src_mac, src_ip, dst_ip, sport, dport, flags, payload, kind)| {
                let gw = MacAddr::derived(0xA0, 0);
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
                    1 => builder::udp_packet(src_mac, gw, src_ip, dst_ip, sport, dport, &payload),
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
                        builder::http_get(src_mac, gw, src_ip, dst_ip, sport, "prop.example", "/x")
                    }
                    _ => builder::icmp_echo_request(src_mac, gw, src_ip, dst_ip, sport, dport),
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_chain_accounts_for_every_packet(
        packets in proptest::collection::vec(arb_packet(), 1..60),
        upstream_mask in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let mut chain = instantiate_chain("prop-chain", &sample_specs());
        let ctx = NfContext::at(SimTime::from_secs(1));
        let mut forwarded = 0u64;
        let mut dropped = 0u64;
        let mut replied = 0u64;
        let total = packets.len() as u64;
        for (ix, packet) in packets.into_iter().enumerate() {
            let direction = if *upstream_mask.get(ix).unwrap_or(&true) {
                Direction::Ingress
            } else {
                Direction::Egress
            };
            match chain.process(packet, direction, &ctx) {
                Verdict::Forward(p) => {
                    forwarded += 1;
                    // A forwarded frame must still be a parseable frame.
                    prop_assert!(Packet::parse(p.bytes().clone()).is_ok());
                }
                Verdict::Drop(reason) => {
                    dropped += 1;
                    prop_assert!(!reason.is_empty());
                }
                Verdict::Reply(replies) => {
                    replied += 1;
                    prop_assert!(!replies.is_empty());
                    for reply in replies {
                        prop_assert!(Packet::parse(reply.bytes().clone()).is_ok());
                    }
                }
            }
        }
        let stats = chain.stats();
        prop_assert_eq!(stats.packets_in, total);
        prop_assert_eq!(forwarded + dropped + replied, total);
        prop_assert_eq!(stats.packets_forwarded, forwarded);
        prop_assert_eq!(stats.packets_dropped, dropped);
        prop_assert_eq!(stats.packets_replied, replied);
    }

    #[test]
    fn chain_state_roundtrips_for_any_traffic(
        packets in proptest::collection::vec(arb_packet(), 1..40),
    ) {
        let mut chain = instantiate_chain("prop-chain", &sample_specs());
        let ctx = NfContext::at(SimTime::from_secs(1));
        for packet in packets {
            let _ = chain.process(packet, Direction::Ingress, &ctx);
        }
        // Export → serialize → deserialize → import into a fresh chain must
        // never fail or panic, whatever state the traffic created.
        let state = chain.export_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: Vec<gnf_nf::NfStateSnapshot> = serde_json::from_str(&json).unwrap();
        let mut fresh = instantiate_chain("prop-chain", &sample_specs());
        fresh.import_state(back);
        let bytes = |state: &[gnf_nf::NfStateSnapshot]| -> usize {
            state.iter().map(|s| s.approximate_size_bytes()).sum()
        };
        prop_assert!(bytes(&fresh.export_state()) <= bytes(&state) + 16);
    }

    #[test]
    fn flow_cached_decisions_equal_slow_path_decisions(
        packets in proptest::collection::vec(arb_packet(), 1..50),
        steer_mask in proptest::collection::vec(any::<bool>(), 8),
    ) {
        use gnf_switch::{SoftwareSwitch, SteeringRule, TrafficSelector};
        use gnf_types::{ChainId, ClientId, SimTime};

        // Two switches with identical steering rules: one processes every
        // packet twice (the second pass rides the flow cache), the other is
        // the uncached reference. Decisions must agree packet for packet.
        let mut cached = SoftwareSwitch::new();
        let mut reference = SoftwareSwitch::new();
        for (ix, steer) in steer_mask.iter().enumerate() {
            if !steer {
                continue;
            }
            for sw in [&mut cached, &mut reference] {
                sw.steering_mut().install(SteeringRule {
                    client: ClientId::new(ix as u64),
                    client_mac: MacAddr::derived(ix as u8, ix as u32),
                    selector: if ix % 2 == 0 {
                        TrafficSelector::all()
                    } else {
                        TrafficSelector::http_only()
                    },
                    chain: ChainId::new(ix as u64),
                });
            }
        }
        // One rule matches every generated packet's destination MAC, so the
        // steering arm of the decision is exercised (downstream direction).
        for sw in [&mut cached, &mut reference] {
            sw.steering_mut().install(SteeringRule {
                client: ClientId::new(99),
                client_mac: MacAddr::derived(0xA0, 0),
                selector: TrafficSelector::all(),
                chain: ChainId::new(99),
            });
        }
        let now = SimTime::from_secs(1);
        // A lone frame is a batch of one.
        let receive = |sw: &mut SoftwareSwitch, packet: &Packet| {
            let port = sw.client_port();
            let mut cursor = sw.begin_batch(std::slice::from_ref(packet), port, now).unwrap();
            sw.classify(&mut cursor, packet).decision
        };
        for packet in &packets {
            let first = receive(&mut cached, packet);
            let second = receive(&mut cached, packet);
            let expected = receive(&mut reference, packet);
            // The reference switch saw each packet once while the cached
            // switch saw it twice, so MAC learning state is identical after
            // packet one — and repeats must be byte-identical decisions.
            prop_assert_eq!(&first, &second);
            prop_assert_eq!(&second, &expected);
        }
        prop_assert!(cached.flow_cache_stats().hits > 0 || packets.iter().all(|p| p.five_tuple().is_none()));
    }

    #[test]
    fn switch_steering_never_loses_track_of_generation(
        macs in proptest::collection::vec((any::<u8>(), any::<u32>()), 1..30),
    ) {
        use gnf_switch::{SteeringRule, SteeringTable, TrafficSelector};
        use gnf_types::{ChainId, ClientId};
        let mut table = SteeringTable::new();
        let mut expected_len = 0usize;
        for (ix, (ns, id)) in macs.iter().enumerate() {
            let mac = MacAddr::derived(*ns, *id);
            let before = table.rules_for(mac).len();
            table.install(SteeringRule {
                client: ClientId::new(ix as u64),
                client_mac: mac,
                selector: TrafficSelector::all(),
                chain: ChainId::new(ix as u64),
            });
            prop_assert_eq!(table.rules_for(mac).len(), before + 1);
            expected_len += 1;
            prop_assert_eq!(table.len(), expected_len);
        }
        // Generation increases monotonically with changes.
        let g = table.generation();
        prop_assert_eq!(g, expected_len as u64);
    }
}
