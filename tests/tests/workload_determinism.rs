//! Property tests for the workload subsystem's determinism contract:
//!
//! * the same generator config + seed yields a byte-identical trace;
//! * pcap/pcapng write → read round-trips exactly;
//! * replaying a captured trace through the emulator reproduces the original
//!   run's packet statistics and its whole report, byte for byte.

use gnf_core::{Emulator, RunReport, Scenario};
use gnf_edge::TrafficProfile;
use gnf_nf::testing::sample_specs;
use gnf_sim::Rng;
use gnf_switch::TrafficSelector;
use gnf_types::{GnfConfig, HostClass, MacAddr, SimDuration, SimTime, StationId};
use gnf_workload::{
    ArrivalModel, CaptureWorkload, FlowSizeModel, Population, SharedBuffer, SyntheticSpec,
    TraceFormat, TraceReader, TraceRecord, TraceWorkload, TraceWriter, TrafficMix, Workload,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

// ----------------------------------------------------------- trace identity

fn mix_for(ix: u8) -> TrafficMix {
    match ix % 3 {
        0 => TrafficMix::web(),
        1 => TrafficMix::attack(),
        _ => TrafficMix::churn(),
    }
}

fn arrivals_for(ix: u8) -> ArrivalModel {
    match ix % 3 {
        0 => ArrivalModel::Poisson {
            flows_per_sec: 800.0,
        },
        1 => ArrivalModel::Periodic {
            flows_per_sec: 600.0,
        },
        _ => ArrivalModel::OnOff {
            on_flows_per_sec: 3_000.0,
            mean_on: SimDuration::from_millis(80),
            mean_off: SimDuration::from_millis(250),
        },
    }
}

/// Drains a workload into nanosecond-pcap bytes — the canonical byte
/// representation of a packet stream.
fn trace_bytes(spec: SyntheticSpec, population: Population) -> Vec<u8> {
    let mut workload = spec.build(population);
    let mut writer = TraceWriter::pcap(Vec::new()).unwrap();
    while let Some(batch) = workload.next_batch() {
        for (_, packet) in &batch.packets {
            writer
                .write_record(batch.at, packet.bytes().as_ref())
                .unwrap();
        }
    }
    writer.into_inner().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Same generator config + seed ⇒ byte-identical traces; a different
    // seed diverges.
    #[test]
    fn same_config_and_seed_yields_byte_identical_traces(
        seed in any::<u64>(),
        mix_ix in any::<u8>(),
        arrivals_ix in any::<u8>(),
        stations in 1usize..4,
        clients in 1usize..5,
    ) {
        let spec = || SyntheticSpec::new("prop", seed)
            .with_mix(mix_for(mix_ix))
            .with_arrivals(arrivals_for(arrivals_ix))
            .with_flow_sizes(FlowSizeModel::Zipf { max_packets: 60, exponent: 1.2 })
            .with_packet_gap(SimDuration::from_millis(3))
            .with_packet_budget(600);
        let population = || Population::synthetic(stations, clients);

        let a = trace_bytes(spec(), population());
        let b = trace_bytes(spec(), population());
        prop_assert_eq!(&a, &b);

        let other = trace_bytes(
            SyntheticSpec::new("prop", seed ^ 0x9E37_79B9)
                .with_mix(mix_for(mix_ix))
                .with_arrivals(arrivals_for(arrivals_ix))
                .with_flow_sizes(FlowSizeModel::Zipf { max_packets: 60, exponent: 1.2 })
                .with_packet_gap(SimDuration::from_millis(3))
                .with_packet_budget(600),
            population(),
        );
        prop_assert_ne!(&a, &other);
    }

    // pcap and pcapng round-trip arbitrary records exactly.
    #[test]
    fn pcap_roundtrip_is_exact(seed in any::<u64>(), pcapng in any::<bool>()) {
        let mut rng = Rng::new(seed);
        let mut at = 0u64;
        let records: Vec<TraceRecord> = (0..rng.range_inclusive(1, 40))
            .map(|_| {
                at += rng.range_inclusive(0, 3_000_000_000);
                let payload: Vec<u8> = (0..rng.range_inclusive(0, 400))
                    .map(|_| rng.next_u32() as u8)
                    .collect();
                let frame = gnf_packet::builder::udp_packet(
                    MacAddr::derived(1, rng.next_u32() % 8),
                    MacAddr::derived(0xA0, rng.next_u32() % 4),
                    Ipv4Addr::new(10, 0, 0, 2),
                    Ipv4Addr::new(203, 0, 113, 9),
                    rng.range_inclusive(1024, 65_000) as u16,
                    rng.range_inclusive(1, 65_000) as u16,
                    &payload,
                )
                .bytes()
                .to_vec();
                TraceRecord { at: SimTime::from_nanos(at), frame }
            })
            .collect();

        let format = if pcapng { TraceFormat::PcapNg } else { TraceFormat::Pcap };
        let mut writer = TraceWriter::new(Vec::new(), format).unwrap();
        for r in &records {
            writer.write_record(r.at, &r.frame).unwrap();
        }
        let bytes = writer.into_inner().unwrap();
        let back = TraceReader::new(&bytes[..]).unwrap().read_all().unwrap();
        prop_assert_eq!(&back, &records);

        // And rewriting what was read reproduces the same bytes.
        let mut again = TraceWriter::new(Vec::new(), format).unwrap();
        for r in &back {
            again.write_record(r.at, &r.frame).unwrap();
        }
        prop_assert_eq!(again.into_inner().unwrap(), bytes);
    }
}

// ------------------------------------------------------------- trace replay

/// The fixed scenario both the captured run and its replays execute: idle
/// clients (all traffic comes from the source), every client steered through
/// the sample firewall.
fn replay_scenario() -> Scenario {
    let config = GnfConfig::default().with_seed(0xE8E8);
    let mut builder = Scenario::builder(2, HostClass::EdgeServer).with_config(config);
    let clients = builder.add_clients(6, TrafficProfile::Idle);
    let mut sb = builder.with_duration(SimDuration::from_secs(15));
    for client in &clients {
        sb = sb.attach_policy(
            *client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    sb.build()
}

fn captured_run() -> (RunReport, Vec<u8>, Population) {
    let scenario = replay_scenario();
    let population = Population::from_topology(&scenario.topology);
    let buffer = SharedBuffer::new();
    let writer = TraceWriter::pcap(buffer.clone()).unwrap();
    let synth = SyntheticSpec::new("captured", 99)
        .starting_at(SimTime::from_secs(3))
        .with_mix(TrafficMix::attack())
        .with_flow_sizes(FlowSizeModel::Zipf {
            max_packets: 80,
            exponent: 1.2,
        })
        .with_packet_gap(SimDuration::from_millis(2))
        .with_packet_budget(4_000)
        .build(population.clone());
    let mut emulator = Emulator::new(scenario);
    emulator.add_workload(Box::new(CaptureWorkload::new(synth, writer)));
    let report = emulator.run();
    (report, buffer.take(), population)
}

#[test]
fn replaying_a_captured_trace_reproduces_the_run_at_any_worker_count() {
    let (original, bytes, population) = captured_run();
    assert_eq!(original.packets.generated, 4_000);
    assert!(
        original.packets.dropped_by_nf > 0,
        "the attack mix must trip the firewall: {:?}",
        original.packets
    );
    assert!(!bytes.is_empty(), "the capture recorded the trace");

    let replay = TraceWorkload::new(
        "replay",
        std::io::Cursor::new(bytes),
        StationId::new(0),
        population.stations_by_gateway(),
        population.clients_by_mac(),
    )
    .unwrap();
    let mut emulator = Emulator::new(replay_scenario());
    emulator.add_workload(Box::new(replay));
    let report = emulator.run();
    assert_eq!(
        report.packets, original.packets,
        "replay must reproduce the original packet stats"
    );
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&original).unwrap(),
        "replay reproduces the full report byte-for-byte"
    );
}

#[test]
fn capture_of_a_replay_is_byte_identical() {
    // Round-tripping through the emulator's input side twice: capture the
    // replay of a capture and compare bytes.
    let (_, bytes, population) = captured_run();
    let replay = TraceWorkload::new(
        "replay",
        &bytes[..],
        StationId::new(0),
        population.stations_by_gateway(),
        population.clients_by_mac(),
    )
    .unwrap();
    let buffer = SharedBuffer::new();
    let mut capture = CaptureWorkload::new(replay, TraceWriter::pcap(buffer.clone()).unwrap());
    while capture.next_batch().is_some() {}
    assert_eq!(buffer.take(), bytes);
}
