//! Experiment E5 — fleet-scale control plane: Manager reconciliation cost,
//! delta vs full report transport and hotspot detection, from 100 stations
//! up to 10 000.
//!
//! Sections:
//!
//! * **manager cost vs fleet size** — 10 minutes of virtual reporting over
//!   fleets of 100 → 10 000 stations, on both transports. Prints wall-clock,
//!   the per-station drive cost (which must stay flat as the fleet grows —
//!   the reconciliation loop does `O(dirty)` work, not `O(fleet)`) and the
//!   reconciliation `tick()` latency percentiles.
//! * **bytes/station** — what one steady-state reporting interval costs on
//!   the wire: a full report vs an idle/churn delta frame, with the ≥5×
//!   steady-state guardrail asserted on the 5 %-hot blend.
//! * **RunReport byte-identity** — a 4-station emulator scenario with a
//!   mid-run station crash, replayed on the delta transport: it must
//!   produce a byte-identical `RunReport` to the full-transport baseline,
//!   with nonzero delta traffic and at least one forced keyframe resync.
//! * **station data-plane slope** — `Agent::process` on one-packet batches,
//!   round-robin over N warmed one-client stations (N = 200, 2 000 and
//!   20 000, as far as `--stations` allows): ns/packet per N, the
//!   largest-N / 200 ratio and the cold-station excess (largest-N minus
//!   200-station ns/packet), the cost of a station whose state went cold
//!   between its packets, free of the event loop. Only deterministic facts
//!   are asserted: every station's outcomes equal one reference station's.
//!
//! `--stations N` caps the fleet curve and the slope (CI smoke runs
//! `--stations 2000`); `--seed N` reproduces a run exactly.

use gnf_agent::{Agent, PacketOutcome};
use gnf_api::codec;
use gnf_api::messages::AgentToManager;
use gnf_bench::dataplane_fixture::{station_agent, NOW};
use gnf_bench::{arg_value, register_fleet, section, station_report};
use gnf_core::{Emulator, FaultKind, FaultSchedule, Mobility, Scenario};
use gnf_edge::{RoamTrace, TrafficProfile};
use gnf_manager::{ControlPlaneStats, Manager};
use gnf_nf::testing::sample_specs;
use gnf_nf::Direction;
use gnf_packet::{builder, Packet, PacketBatch};
use gnf_sim::Histogram;
use gnf_switch::TrafficSelector;
use gnf_telemetry::{
    DeltaEncoder, MetricsSeries, StationReport, TraceLog, TraceScope, TraceSink,
    DEFAULT_TRACE_CAPACITY,
};
use gnf_types::{CellId, ClientId, GnfConfig, HostClass, MacAddr, SimDuration, SimTime, StationId};
use std::net::Ipv4Addr;
use std::time::Instant;

const FLEETS: [u64; 5] = [100, 1_000, 2_000, 5_000, 10_000];
const CURVE_DURATION: SimDuration = SimDuration::from_secs(600);
/// Station counts of the data-plane slope; the first is the ratio's base.
const SLOPE_FLEETS: [u64; 3] = [200, 2_000, 20_000];
/// Packets timed per repetition of one slope row, whatever its N.
const SLOPE_PACKETS: u64 = 300_000;

fn report(station: u64, cpu: f64, at: SimTime) -> AgentToManager {
    AgentToManager::Report(Box::new(station_report(station, cpu, at)))
}

struct FleetOutcome {
    reports: u64,
    wall_ms: f64,
    per_station_us: f64,
    ticks: Histogram,
    hotspots: usize,
    stats: ControlPlaneStats,
}

/// Drives `stations` through 10 virtual minutes of reporting (5 % of the
/// fleet hot) on one transport, ticking the Manager every interval. On the
/// delta transport, station 0's agent restarts mid-run and must force a
/// keyframe resync.
fn run_fleet(config: &GnfConfig, stations: u64, delta: bool) -> FleetOutcome {
    let mut manager = Manager::new(config.clone());
    register_fleet(&mut manager, stations);
    let hot = (stations / 20).max(1);
    let cpu_of = |s: u64| if s < hot { 0.95 } else { 0.30 };

    let mut encoders: Vec<DeltaEncoder> = Vec::new();
    let mut live: Vec<StationReport> = Vec::new();
    if delta {
        encoders = (0..stations)
            .map(|_| DeltaEncoder::new(config.report_keyframe_interval))
            .collect();
        live = (0..stations)
            .map(|s| station_report(s, cpu_of(s), SimTime::ZERO))
            .collect();
    }

    let interval = config.agent_report_interval;
    let mut ticks = Histogram::new();
    let mut now = SimTime::ZERO;
    let mut reports = 0u64;
    let mut intervals = 0u64;
    let start = Instant::now();
    while now.duration_since(SimTime::ZERO) < CURVE_DURATION {
        now += interval;
        intervals += 1;
        for s in 0..stations {
            let msg = if delta {
                let s_ix = s as usize;
                if s < hot {
                    // Hot stations churn their flow cache every interval;
                    // idle stations ship header-only frames.
                    live[s_ix].flow_cache.stats.hits += 7;
                }
                if intervals == 150 && s == 0 {
                    // Mid-run agent restart: volatile counters lost, the
                    // encoder must open a new generation with a forced
                    // keyframe.
                    live[s_ix].flow_cache = Default::default();
                    live[s_ix].chaos.crashes += 1;
                    live[s_ix].chaos.generation += 1;
                    encoders[s_ix].force_resync();
                }
                live[s_ix].produced_at = now;
                AgentToManager::ReportDelta(Box::new(encoders[s_ix].encode(&live[s_ix])))
            } else {
                report(s, cpu_of(s), now)
            };
            manager.handle_agent_msg(StationId::new(s), msg, now);
            reports += 1;
        }
        let t0 = Instant::now();
        manager.tick(now);
        ticks.record(t0.elapsed().as_secs_f64() * 1e6);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let hotspots = manager
        .notifications()
        .entries()
        .filter(|n| n.category == "hotspot")
        .count();
    FleetOutcome {
        reports,
        wall_ms,
        per_station_us: wall_ms * 1e3 / (stations * intervals) as f64,
        ticks,
        hotspots,
        stats: manager.control_plane_stats(),
    }
}

/// The emulator scenario for the byte-identity matrix: four stations, six
/// stateful clients that roam at t=25 s, after station 0 crashed at t=10 s
/// and rejoined — so the delta stream sees churn, a crash and a rejoin.
fn matrix_scenario(seed: u64, delta: bool) -> Scenario {
    let config = GnfConfig {
        migration_precopy: true,
        delta_reports: delta,
        report_keyframe_interval: 4,
        ..GnfConfig::default().with_seed(seed)
    };
    let mut builder = Scenario::builder(4, HostClass::EdgeServer);
    let clients = builder.add_clients(6, TrafficProfile::smartphone());
    let mut sb = builder
        .with_config(config)
        .with_duration(SimDuration::from_secs(40));
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
        trace = trace.roam(
            SimTime::from_secs(25),
            *client,
            CellId::new(((ix + 1) % 4) as u64),
        );
    }
    sb.with_mobility(Mobility::Trace(trace)).build()
}

/// One smartphone's upstream frames, cycled by every slope station: DNS
/// lookups, HTTP requests, TLS data and an SSH attempt the demo firewall
/// denies — the flows a `fleet_steady` client sends through its chain.
fn slope_frames() -> Vec<Packet> {
    let (mac, gateway) = (MacAddr::derived(1, 1), MacAddr::derived(0xA0, 0));
    let (ip, resolver, web) = (
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(203, 0, 113, 9),
    );
    vec![
        builder::dns_query(mac, gateway, ip, resolver, 50_000, 1, "www.gla.ac.uk"),
        builder::http_get(mac, gateway, ip, web, 40_000, "www.gla.ac.uk", "/"),
        builder::tcp_data(mac, gateway, ip, web, 40_001, 443, &[0xAB; 200]),
        builder::dns_query(mac, gateway, ip, resolver, 50_001, 2, "news.example"),
        builder::http_get(mac, gateway, ip, web, 40_002, "news.example", "/a"),
        builder::tcp_syn(mac, gateway, ip, web, 40_003, 22),
        builder::tcp_data(mac, gateway, ip, web, 40_001, 443, &[0xCD; 600]),
        builder::http_get(mac, gateway, ip, web, 40_000, "www.gla.ac.uk", "/b"),
    ]
}

/// What a slope station did with its packets, kept cheap enough to record
/// inside the timed loop: outcomes per kind and the bytes forwarded.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    forwarded: u64,
    forwarded_bytes: u64,
    dropped: u64,
    replied: u64,
}

impl Tally {
    fn record(&mut self, outcome: &PacketOutcome) {
        match outcome {
            PacketOutcome::Forwarded(packet) => {
                self.forwarded += 1;
                self.forwarded_bytes += packet.len() as u64;
            }
            PacketOutcome::Dropped(_) => self.dropped += 1,
            PacketOutcome::Replied(_) => self.replied += 1,
        }
    }
}

/// One packet, a batch of one, through a station's `Agent::process`.
fn slope_step(agent: &mut Agent, frame: &Packet, sink: &mut impl FnMut(PacketOutcome)) {
    agent.process(
        Direction::Ingress,
        PacketBatch::from(frame.clone()),
        NOW,
        sink,
    );
}

/// A `fleet_steady` station: one client behind the demo firewall, megaflow
/// on, warmed by one pass over `frames`.
fn slope_station(frames: &[Packet]) -> Agent {
    let mut agent = station_agent(
        [(
            ClientId::new(1),
            MacAddr::derived(1, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        )],
        &[sample_specs()[0].clone()],
        true,
    );
    for frame in frames {
        slope_step(&mut agent, frame, &mut |_| {});
    }
    agent
}

/// Times one-packet batches round-robin over `stations` warmed stations —
/// each round hands every station the round's frame — and returns the best
/// ns/packet of three repetitions. Then checks the deterministic facts: each
/// station's tally equals the reference station's, which processed the same
/// sequence alone, and one more pass gives outcomes equal to the
/// reference's, packet by packet.
fn station_slope(stations: u64, frames: &[Packet]) -> f64 {
    let mut fleet: Vec<(Agent, Tally)> = (0..stations)
        .map(|_| (slope_station(frames), Tally::default()))
        .collect();
    let rounds = (SLOPE_PACKETS / stations).max(frames.len() as u64) as usize;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for round in 0..rounds {
            let frame = &frames[round % frames.len()];
            for (agent, tally) in fleet.iter_mut() {
                slope_step(agent, frame, &mut |outcome| tally.record(&outcome));
            }
        }
        let ns = start.elapsed().as_secs_f64() * 1e9 / (rounds as u64 * stations) as f64;
        best = best.min(ns);
    }
    let mut reference = (slope_station(frames), Tally::default());
    for _ in 0..3 {
        for round in 0..rounds {
            let (agent, tally) = &mut reference;
            slope_step(agent, &frames[round % frames.len()], &mut |outcome| {
                tally.record(&outcome)
            });
        }
    }
    let mut expected = Vec::new();
    for frame in frames {
        slope_step(&mut reference.0, frame, &mut |outcome| {
            expected.push(outcome)
        });
    }
    for (ix, (agent, tally)) in fleet.iter_mut().enumerate() {
        assert_eq!(*tally, reference.1, "station {ix}'s outcomes drifted");
        let mut outcomes = Vec::with_capacity(frames.len());
        for frame in frames {
            slope_step(agent, frame, &mut |outcome| outcomes.push(outcome));
        }
        assert_eq!(outcomes, expected, "station {ix}'s last pass drifted");
    }
    best
}

fn crash_fault() -> FaultSchedule {
    let mut schedule = FaultSchedule::new();
    schedule.push(
        SimTime::from_secs(10),
        FaultKind::StationCrash {
            station: StationId::new(0),
            down_for: SimDuration::from_secs(5),
        },
    );
    schedule
}

fn main() {
    println!("E5 — fleet-scale control plane: reconciliation, delta telemetry");
    let seed = gnf_bench::seed_arg();
    let config = GnfConfig::default().with_seed(seed);
    let cap: u64 = arg_value("--stations").unwrap_or(10_000);
    let fleets: Vec<u64> = FLEETS.iter().copied().filter(|&s| s <= cap).collect();
    let fleets = if fleets.is_empty() {
        vec![cap.max(10)]
    } else {
        fleets
    };
    let top = *fleets.last().unwrap();
    println!("fleet curve up to {top} stations  (override with --stations N)");

    section("manager cost vs fleet size (10 minutes of virtual time, 5% hot)");
    println!(
        "{:>10} {:>7} {:>10} {:>12} {:>14} {:>24} {:>9}",
        "stations",
        "wire",
        "reports",
        "wall (ms)",
        "us/stn/intvl",
        "tick p50/p99/max (us)",
        "hotspots"
    );
    for &stations in &fleets {
        for delta in [false, true] {
            let out = run_fleet(&config, stations, delta);
            println!(
                "{:>10} {:>7} {:>10} {:>12.1} {:>14.2} {:>24} {:>9}",
                stations,
                if delta { "delta" } else { "full" },
                out.reports,
                out.wall_ms,
                out.per_station_us,
                format!(
                    "{:.0} / {:.0} / {:.0}",
                    out.ticks.median(),
                    out.ticks.p99(),
                    out.ticks.max()
                ),
                out.hotspots,
            );
            if delta {
                assert_eq!(
                    out.stats.full_reports, 0,
                    "delta mode sends no full reports"
                );
                assert!(out.stats.deltas_applied > 0, "steady state rides deltas");
                assert!(out.stats.delta_keyframes > 0, "keyframes open generations");
                assert!(
                    out.stats.delta_forced_resyncs >= 1,
                    "the mid-run agent restart must force a resync"
                );
            } else {
                assert_eq!(out.stats.full_reports, out.reports);
            }
        }
    }
    println!(
        "per-station cost and tick percentiles stay flat as the fleet grows: \
         the reconciliation loop is O(dirty), not O(fleet)"
    );

    section("station data-plane slope (one-packet batches, round-robin over warmed stations)");
    let frames = slope_frames();
    let slope: Vec<(u64, f64)> = SLOPE_FLEETS
        .iter()
        .copied()
        .filter(|&stations| stations <= cap.max(SLOPE_FLEETS[0]))
        .map(|stations| (stations, station_slope(stations, &frames)))
        .collect();
    println!("{:>10} {:>10}", "stations", "ns/pkt");
    for (stations, ns) in &slope {
        println!("{stations:>10} {ns:>10.1}");
    }
    if let [(base_n, base), .., (top_n, top)] = slope[..] {
        println!(
            "slope ratio {top_n}/{base_n}: {:.2}x  (wall clock; compare within one host)",
            top / base
        );
        // The ratio divides by the warm cost, so a cheaper packet raises it
        // although no station got slower; the excess is the cold cost alone.
        println!(
            "cold-station excess {top_n} - {base_n}: {:.1} ns/pkt",
            top - base
        );
    }

    section("control-plane bytes/station (one steady-state reporting interval)");
    let mut encoder = DeltaEncoder::new(u64::MAX);
    let mut probe = station_report(0, 0.30, SimTime::from_secs(10));
    let _ = encoder.encode(&probe); // keyframe opens the stream
    probe.produced_at = SimTime::from_secs(12);
    let idle_frame = AgentToManager::ReportDelta(Box::new(encoder.encode(&probe)));
    probe.flow_cache.stats.hits += 7;
    probe.produced_at = SimTime::from_secs(14);
    let churn_frame = AgentToManager::ReportDelta(Box::new(encoder.encode(&probe)));
    let full_bytes = codec::encode_to_vec(&report(0, 0.30, SimTime::from_secs(14)))
        .unwrap()
        .len() as f64;
    let idle_bytes = codec::encode_to_vec(&idle_frame).unwrap().len() as f64;
    let churn_bytes = codec::encode_to_vec(&churn_frame).unwrap().len() as f64;
    let blended = 0.95 * idle_bytes + 0.05 * churn_bytes;
    println!("full report:       {full_bytes:>6.0} B  (re-shipped every interval)");
    println!(
        "idle delta frame:  {idle_bytes:>6.0} B  ({:.1}x smaller)",
        full_bytes / idle_bytes
    );
    println!(
        "churn delta frame: {churn_bytes:>6.0} B  ({:.1}x smaller)",
        full_bytes / churn_bytes
    );
    println!(
        "5%-hot fleet blend: {blended:>5.0} B/station/interval ({:.1}x, guardrail >=5x)",
        full_bytes / blended
    );
    assert!(
        full_bytes / blended >= 5.0,
        "steady-state delta transport must cut control-plane bytes at least 5x \
         (full={full_bytes} B, blended delta={blended:.0} B)"
    );

    section("hotspot detection precision (100 stations, 7 genuinely overloaded)");
    let obs = gnf_bench::observability_args();
    let mut manager = Manager::new(config.clone());
    if obs.trace_out.is_some() {
        manager.set_tracing(TraceSink::buffered(
            TraceScope::Manager,
            DEFAULT_TRACE_CAPACITY,
        ));
    }
    register_fleet(&mut manager, 100);
    let now = SimTime::from_secs(10);
    for s in 0..100u64 {
        let cpu = if s < 7 { 0.9 + (s as f64) * 0.01 } else { 0.4 };
        manager.handle_agent_msg(StationId::new(s), report(s, cpu, now), now);
    }
    manager.tick(SimTime::from_secs(20));
    let flagged: Vec<String> = manager
        .notifications()
        .entries()
        .filter(|n| n.category == "hotspot")
        .map(|n| n.message.clone())
        .collect();
    println!("flagged {} stations (expected 7):", flagged.len());
    for f in &flagged {
        println!("  {f}");
    }

    section("RunReport byte-identity: delta vs full transport (crash at t=10 s)");
    let mut full = Emulator::new(matrix_scenario(seed, false));
    full.set_fault_schedule(crash_fault());
    let full_report = full.run();
    let full_report_bytes = serde_json::to_string(&full_report).expect("report serializes");
    let full_stats = full.manager().control_plane_stats();
    assert!(full_stats.full_reports > 0);
    assert_eq!(full_stats.deltas_applied, 0);
    let mut emulator = Emulator::new(matrix_scenario(seed, true));
    emulator.set_fault_schedule(crash_fault());
    let delta_bytes = serde_json::to_string(&emulator.run()).expect("report serializes");
    assert_eq!(
        full_report_bytes, delta_bytes,
        "delta transport changed the RunReport"
    );
    let stats = emulator.manager().control_plane_stats();
    assert_eq!(stats.full_reports, 0, "delta mode sends no full reports");
    assert!(stats.deltas_applied > 0, "steady state rides delta frames");
    assert!(stats.delta_keyframes > 0, "keyframes open each generation");
    assert!(
        stats.delta_forced_resyncs >= 1,
        "the crashed station must force a keyframe resync"
    );
    println!(
        "  delta transport: byte-identical \
         ({} deltas, {} keyframes, {} forced resyncs)",
        stats.deltas_applied, stats.delta_keyframes, stats.delta_forced_resyncs
    );
    println!("\nE5 PASS: {top}-station curve, >=5x wire reduction, byte-identical transports");

    // This harness drives the Manager directly (no emulator) for the fleet
    // curve, so the trace artifact carries the Manager-scope events of the
    // precision run only (empty when no migration runs) and the metrics CSV
    // is header-only — both still valid for downstream tooling.
    if obs.any() {
        let mut log = TraceLog::new();
        log.absorb(manager.trace_mut());
        log.sort();
        obs.write_log(&log);
        obs.write_series(&MetricsSeries::new(config.metrics_interval, 1));
    }
}
