//! Golden digests of whole emulator runs in the corners the benchmark's
//! five digests never reach: a crash with tracing and metrics armed, a roam
//! wave whose migration commands a delaying partition absorbs and
//! re-enqueues, and a roam wave whose packet batches and migration commands
//! share virtual timestamps.
//!
//! Each digest is FNV-1a over `serde_json::to_string(&RunReport)` (the
//! benchmark's own digest), and for the traced run also over the Chrome-trace
//! JSON and the metrics CSV. They pin the order of station work and control
//! events: a packet batch runs before any later event is handled, and a
//! migration command is handled when it pops, its replies dispatched at its
//! own time in event order. A station that ran a command before the packets
//! that popped ahead of it moves the third digest.
//!
//! The digests were recorded while migration commands still waited for the
//! station flush beside the packet batches, and did not move when each
//! command came to be handled as it arrives.

use gnf_core::{Emulator, FaultKind, FaultSchedule, Mobility, PartitionMode, RunReport, Scenario};
use gnf_edge::{RoamTrace, TrafficProfile};
use gnf_nf::testing::sample_specs;
use gnf_packet::builder;
use gnf_switch::TrafficSelector;
use gnf_types::{CellId, GnfConfig, HostClass, SimDuration, SimTime, StationId};
use gnf_workload::{ArrivalModel, Population, SyntheticSpec, TimedBatch, TrafficMix, Workload};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// FNV-1a, 64-bit, over a string's bytes.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn report_digest(report: &RunReport) -> u64 {
    fnv(&serde_json::to_string(report).expect("report serializes"))
}

/// Six stateful smartphone clients on four stations, each with a one-NF
/// chain from t = 1 s, all roaming to the next cell over at `roam_at`.
fn roam_wave(roam_at: SimTime, duration: SimDuration) -> Scenario {
    let config = GnfConfig {
        migration_precopy: true,
        ..Default::default()
    };
    let mut builder = Scenario::builder(4, HostClass::EdgeServer);
    let clients = builder.add_clients(6, TrafficProfile::smartphone());
    let mut sb = builder.with_config(config).with_duration(duration);
    for client in &clients {
        sb = sb.attach_policy(
            *client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    let mut trace = RoamTrace::new();
    for (ix, client) in clients.iter().enumerate() {
        trace = trace.roam(roam_at, *client, CellId::new(((ix + 1) % 4) as u64));
    }
    sb.with_mobility(Mobility::Trace(trace)).build()
}

/// 2 560 one-packet flows over every client within ~3 ms of t = 3.5 s,
/// clear of every report timer: a few flushes of thousands of packets.
fn add_packet_burst(emulator: &mut Emulator, scenario: &Scenario) {
    emulator.add_workload(Box::new(
        SyntheticSpec::new("burst", 1)
            .starting_at(SimTime::from_millis(3_500))
            .with_arrivals(ArrivalModel::Periodic {
                flows_per_sec: 1_000_000.0,
            })
            .with_mix(TrafficMix::churn())
            .with_packet_budget(2_560)
            .build(Population::from_topology(&scenario.topology)),
    ));
}

/// The emulator's observability scenario: the roam wave at t = 25 s after
/// station 0 crashed at t = 10 s for 5 s, with the packet burst, traced and
/// sampled. Digests of the report, the Chrome-trace JSON and the metrics
/// CSV.
fn observability_run() -> (u64, u64, u64) {
    let scenario = roam_wave(SimTime::from_secs(25), SimDuration::from_secs(40));
    let mut emulator = Emulator::new(scenario.clone());
    let mut faults = FaultSchedule::new();
    faults.push(
        SimTime::from_secs(10),
        FaultKind::StationCrash {
            station: StationId::new(0),
            down_for: SimDuration::from_secs(5),
        },
    );
    emulator.set_fault_schedule(faults);
    add_packet_burst(&mut emulator, &scenario);
    emulator.enable_tracing();
    emulator.enable_metrics();
    let report = emulator.run();
    assert!(report.all_migrations_completed());
    assert!(report.chaos.fully_recovered(), "{:?}", report.chaos);
    let log = emulator.trace_log();
    let metrics = emulator.metrics_series().expect("metrics armed").to_csv();
    (
        report_digest(&report),
        fnv(&log.to_chrome_json()),
        fnv(&metrics),
    )
}

#[test]
fn the_traced_crash_and_roam_run_is_pinned() {
    assert_eq!(
        observability_run(),
        (
            0xff14_eb78_5f98_5fe4,
            0x6545_2484_58ad_a60c,
            0x26f7_bf72_6e3a_b7f1
        ),
        "report / trace JSON / metrics CSV"
    );
}

#[test]
fn a_roam_wave_through_a_delaying_partition_is_pinned() {
    let roam_at = SimTime::from_secs(20);
    let mut emulator = Emulator::new(roam_wave(roam_at, SimDuration::from_secs(40)));
    // Station 2 is the target of two roams: its link holds every message
    // for 3 s from just before the wave's first commands reach it.
    let mut faults = FaultSchedule::new();
    faults.push(
        roam_at + SimDuration::from_millis(100),
        FaultKind::LinkPartition {
            station: StationId::new(2),
            duration: SimDuration::from_secs(3),
            mode: PartitionMode::Delay,
        },
    );
    emulator.set_fault_schedule(faults);
    let report = emulator.run();
    assert!(report.all_migrations_completed());
    assert!(report.chaos.messages_delayed > 0, "{:?}", report.chaos);
    assert_eq!(report_digest(&report), 0xd5bc_edd2_6306_c879);
}

/// A workload that delivers a fixed list of batches.
struct Batches(VecDeque<TimedBatch>);

impl Workload for Batches {
    fn label(&self) -> &str {
        "batches"
    }

    fn next_batch(&mut self) -> Option<TimedBatch> {
        self.0.pop_front()
    }
}

/// One UDP packet from every client `station` serves at set-up, at `at`.
fn batch_at(scenario: &Scenario, station: StationId, at: SimTime) -> TimedBatch {
    let packets = Population::from_topology(&scenario.topology)
        .endpoints()
        .iter()
        .filter(|ep| ep.station == station)
        .enumerate()
        .map(|(ix, ep)| {
            let packet = builder::udp_packet(
                ep.mac,
                ep.gateway_mac,
                ep.ip,
                Ipv4Addr::new(203, 0, 113, 10),
                40_000 + ix as u16,
                53,
                b"mixed",
            );
            (ep.client, packet)
        })
        .collect();
    TimedBatch {
        at,
        station,
        packets,
    }
}

#[test]
fn a_roam_wave_sharing_timestamps_with_packets_is_pinned() {
    let roam_at = SimTime::from_secs(20);
    let scenario = roam_wave(roam_at, SimDuration::from_secs(35));
    // The wave's checkpoint commands reach their sources one control hop
    // after the Manager opened the migrations.
    let mut probe = Emulator::new(scenario.clone());
    probe.run();
    let record = probe
        .manager()
        .migrations()
        .next()
        .expect("the wave migrates");
    let latency = scenario
        .topology
        .site(record.from)
        .expect("source site")
        .control_latency;
    let at = record.started_at + latency;

    let mut emulator = Emulator::new(scenario.clone());
    // Station 0's batch pops before the commands (it was queued first) and
    // runs in the flush the first of them triggers; station 1's is pumped
    // only when station 0's delivers, so it pops after them at the same
    // timestamp and is admitted against the state they left.
    emulator.add_workload(Box::new(Batches(VecDeque::from([
        batch_at(&scenario, StationId::new(0), at),
        batch_at(&scenario, StationId::new(1), at),
    ]))));
    let report = emulator.run();
    assert!(report.all_migrations_completed());
    assert!(report.packets.is_conserved(), "{:?}", report.packets);
    assert_eq!(report_digest(&report), 0xd1c3_da9f_2e5e_2a20);
}
