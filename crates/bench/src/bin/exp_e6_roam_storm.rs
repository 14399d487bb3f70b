//! Experiment E6b — mass-roaming storm: the pre-copy migration pipeline
//! under 1→N simultaneous handovers.
//!
//! A correlated roam storm (train arrival, stadium emptying) is the scale
//! wall of live NF-chain migration: with one monolithic checkpoint/restore
//! per roam, downtime grows with both state size and peer count. This
//! harness drives a fleet of stateful clients (firewall chains accumulating
//! conntrack) through simultaneous roams with the **pre-copy pipeline** on:
//! the baseline ships while the source keeps serving, and only the dirty
//! delta is replayed inside the switchover window.
//!
//! The run sweeps concurrency (1, 10, N simultaneous roams), prints the
//! switchover-downtime CDF per level, and asserts the flat-downtime
//! contract: p99 switchover downtime at N concurrent roams stays within 2×
//! of the single-roam p99. It then replays the storm across the full
//! migration-workers {1,2,4} × workers {1,2} matrix, requiring a
//! byte-identical `RunReport` from every cell — the migration pool is a
//! host-CPU knob, never a result knob. The matrix storm carries at least
//! `MIGRATION_BREAK_EVEN` roams and a packet burst past
//! `PACKET_BREAK_EVEN`, and every cell that threads a layer must show that
//! layer's flushes fanned out (it prints the counts).
//!
//! Last, the Section-4 demo scaled up: three random-walk fleets (4, 9 and 16
//! cells) roam for 10 virtual minutes; each asserts every migration
//! completes, every packet is accounted and every chain ends active.
//! Observability artifacts describe the headline storm run.
//!
//! `--seed N` reproduces a storm exactly; `--roams N` sets the storm size;
//! `--migration-workers N` / `--workers N` pick the matrix cell for the
//! headline run.

use gnf_bench::{
    cdf_row, migration_workers_arg, ms_row, roams_arg, section, seed_arg, workers_arg,
    ObservabilityArgs,
};
use gnf_core::emulator::{MIGRATION_BREAK_EVEN, PACKET_BREAK_EVEN};
use gnf_core::{Emulator, Mobility, RunReport, Scenario};
use gnf_edge::{RandomWalkMobility, RoamTrace, TrafficProfile};
use gnf_nf::testing::sample_specs;
use gnf_sim::Histogram;
use gnf_switch::TrafficSelector;
use gnf_telemetry::{FanOutTelemetry, MigrationPoolTelemetry};
use gnf_types::{CellId, GnfConfig, HostClass, SimDuration, SimTime};
use gnf_ui::Dashboard;
use gnf_workload::{ArrivalModel, Population, SyntheticSpec, TrafficMix};

const STATIONS: usize = 6;
const DURATION: SimDuration = SimDuration::from_secs(35);
const ROAM_AT: SimTime = SimTime::from_secs(18);

/// A fleet of `clients` stateful roamer candidates of which the first
/// `concurrency` roam simultaneously at `ROAM_AT`. Keeping the fleet size
/// fixed across concurrency levels isolates the storm size as the only
/// variable (same traffic, same stations, same chains).
fn scenario(seed: u64, clients: usize, concurrency: usize) -> Scenario {
    let config = GnfConfig {
        seed,
        migration_precopy: true,
        ..GnfConfig::default()
    };
    let mut builder = Scenario::builder(STATIONS, HostClass::EdgeServer).with_config(config);
    let ids = builder.add_clients(clients, TrafficProfile::smartphone());
    let mut sb = builder.with_duration(DURATION);
    for client in &ids {
        sb = sb.attach_policy(
            *client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    // Client i sits on cell i % STATIONS; it roams to the next cell over.
    let mut trace = RoamTrace::new();
    for (ix, client) in ids.iter().take(concurrency).enumerate() {
        let target = ((ix % STATIONS) + 1) % STATIONS;
        trace = trace.roam(ROAM_AT, *client, CellId::new(target as u64));
    }
    sb.with_mobility(Mobility::Trace(trace)).build()
}

struct Cell {
    report: RunReport,
    pool: MigrationPoolTelemetry,
    fan_outs: FanOutTelemetry,
}

/// Packets in the matrix storm's burst: enough that one packet flush
/// reaches the break-even.
const BURST_PACKETS: u64 = PACKET_BREAK_EVEN + 512;

fn run_cell(
    seed: u64,
    clients: usize,
    concurrency: usize,
    migration_workers: usize,
    workers: usize,
    obs: &ObservabilityArgs,
    burst: bool,
) -> Cell {
    let scenario = scenario(seed, clients, concurrency);
    let population = Population::from_topology(&scenario.topology);
    let mut emulator = Emulator::new(scenario);
    emulator.set_workers(workers);
    emulator.set_migration_workers(migration_workers);
    if burst {
        // One-packet flows over every client within ~3 ms of t = 10.5 s,
        // clear of every report timer and before the storm.
        emulator.add_workload(Box::new(
            SyntheticSpec::new("burst", seed)
                .starting_at(SimTime::from_millis(10_500))
                .with_arrivals(ArrivalModel::Periodic {
                    flows_per_sec: 1_000_000.0,
                })
                .with_mix(TrafficMix::churn())
                .with_packet_budget(BURST_PACKETS)
                .build(population),
        ));
    }
    obs.arm(&mut emulator);
    let report = emulator.run();
    obs.write(&mut emulator);
    Cell {
        report,
        pool: emulator.migration_pool_telemetry(),
        fan_outs: emulator.fan_out_telemetry(),
    }
}

/// Exact switchover-downtime histogram (ms) of the completed migrations.
/// Built from the per-migration summaries (not the report's log-bucketed
/// aggregate) so the flat-downtime assertion compares exact quantiles.
fn switchover_histogram(report: &RunReport) -> Histogram {
    let mut h = Histogram::new();
    for ms in report
        .migrations
        .iter()
        .filter(|m| m.completed)
        .filter_map(|m| m.switchover_ms)
    {
        h.record(ms);
    }
    h
}

fn main() {
    let seed = seed_arg();
    let roams = roams_arg(100);
    let migration_workers = migration_workers_arg(1);
    let workers = workers_arg(1);
    println!(
        "E6b — roam storm: {roams} simultaneous handovers over {STATIONS} stations, \
         {DURATION} virtual time, pre-copy pipeline on"
    );

    // ------------------------------------------------------------------
    // Downtime CDF vs concurrency: same fleet, growing storm.
    // ------------------------------------------------------------------
    section("switchover-downtime CDF vs concurrency");
    let mut levels = vec![1usize, 10, roams];
    levels.retain(|l| *l <= roams);
    levels.dedup();
    let mut p99_single = 0.0f64;
    let mut p99_storm = 0.0f64;
    for &level in &levels {
        let cell = run_cell(
            seed,
            roams,
            level,
            migration_workers,
            workers,
            &ObservabilityArgs::default(),
            false,
        );
        let samples = switchover_histogram(&cell.report);
        assert_eq!(
            samples.count() as usize,
            level,
            "every one of the {level} concurrent roams must complete its migration"
        );
        let p99 = samples.p99();
        if level == 1 {
            p99_single = p99;
        }
        if level == roams {
            p99_storm = p99;
        }
        println!("  {level:>5} concurrent: {}", cdf_row(&samples));
    }

    // ------------------------------------------------------------------
    // The headline storm run.
    // ------------------------------------------------------------------
    // Artifacts (when requested) describe the headline storm run.
    let obs = gnf_bench::observability_args();
    let storm = run_cell(seed, roams, roams, migration_workers, workers, &obs, false);
    let report = &storm.report;

    section("storm outcome");
    println!(
        "{} handovers, {} migrations ({} completed), {} pre-copied, {} dirty deltas replayed",
        report.handovers,
        report.migration.total,
        report.migration.completed,
        report.migration.precopied,
        report.migration.deltas_replayed,
    );
    println!(
        "state moved ahead of switchover: {} bytes | replayed inside the window: {} bytes",
        report.migration.state_bytes_total, report.migration.delta_bytes_total,
    );
    println!(
        "full downtime p99: {:>7.1} ms | switchover p99: {:>7.1} ms",
        report.downtime_ms.p99(),
        report.migration.switchover_ms.p99(),
    );
    println!(
        "migration pool (host-side, not in the report): {} commands in {} batches \
         (max batch {}, {} cap flushes)",
        storm.pool.commands, storm.pool.batches, storm.pool.max_batch, storm.pool.cap_flushes,
    );

    section("packet conservation across the switchover");
    let p = &report.packets;
    println!(
        "{} generated = {} forwarded + {} NF-dropped + {} NF-replied + {} gap-dropped \
         + {} gap-bypassed + {} station-down",
        p.generated,
        p.forwarded,
        p.dropped_by_nf,
        p.replied_by_nf,
        p.dropped_in_gap,
        p.bypassed_in_gap,
        p.dropped_station_down,
    );
    println!(
        "{} packets hairpinned through the still-serving source during pre-copy \
         (each also lands in a class above)",
        p.hairpinned,
    );

    // The experiment's contract.
    assert!(
        report.all_migrations_completed(),
        "every storm migration must complete"
    );
    assert_eq!(
        report.migration.precopied, report.migration.total,
        "every storm migration must run the pre-copy pipeline"
    );
    assert!(
        report.migration.deltas_replayed >= 1,
        "at least one roam must replay a non-empty dirty delta at cutover"
    );
    assert!(
        p.is_conserved(),
        "no packet may be lost or double-counted across the switchover: {p:?}"
    );
    assert!(p.forwarded > 0, "the storm run must carry traffic");
    assert!(
        p99_storm <= 2.0 * p99_single.max(1.0),
        "flat-downtime contract: p99 switchover at {roams} concurrent roams \
         ({p99_storm:.1} ms) must stay within 2x of the single-roam p99 ({p99_single:.1} ms)"
    );

    // ------------------------------------------------------------------
    // Determinism matrix.
    // ------------------------------------------------------------------
    section("determinism matrix: migration-workers {1,2,4} x workers {1,2}");
    // The matrix storm is the headline storm, grown to the migration
    // break-even if smaller, plus a packet burst past the packet break-even:
    // a cell that threads a layer must show that layer fanned out, or its
    // identity proves nothing about the threaded path.
    let matrix_roams = roams.max(MIGRATION_BREAK_EVEN as usize);
    println!(
        "{matrix_roams} roams plus a {BURST_PACKETS}-packet burst; fan-outs per cell \
         (packet flushes / migration flushes / helper threads):"
    );
    let matrix_cell = |mw: usize, w: usize| {
        let cell = run_cell(
            seed,
            matrix_roams,
            matrix_roams,
            mw,
            w,
            &ObservabilityArgs::default(),
            true,
        );
        let f = cell.fan_outs;
        println!(
            "  migration-workers {mw} x workers {w}: {} / {} / {}",
            f.packet_flushes, f.migration_flushes, f.helper_threads
        );
        assert_eq!(
            f.packet_flushes > 0,
            w > 1,
            "packet fan-out at {mw} x {w}: {f:?}"
        );
        assert_eq!(
            f.migration_flushes > 0,
            mw > 1,
            "migration fan-out at {mw} x {w}: {f:?}"
        );
        assert!(f.helper_threads < mw.max(w), "threads at {mw} x {w}: {f:?}");
        serde_json::to_string(&cell.report).expect("report serializes")
    };
    let baseline = matrix_cell(1, 1);
    let mut cells = 0;
    for mw in [1usize, 2, 4] {
        for w in [1usize, 2] {
            if (mw, w) == (1, 1) {
                continue;
            }
            assert_eq!(
                baseline,
                matrix_cell(mw, w),
                "RunReport must be byte-identical at migration-workers={mw}, workers={w}"
            );
            cells += 1;
        }
    }
    println!("storm replayed byte-for-byte across {cells} additional matrix cells");
    println!(
        "\nE6b PASS: {} roams, switchover p99 {:.1} ms (single-roam p99 {:.1} ms), \
         {} deltas replayed, deterministic across the pool matrix",
        roams, p99_storm, p99_single, report.migration.deltas_replayed,
    );

    // ------------------------------------------------------------------
    // Fleet roaming: random walks over growing grids.
    // ------------------------------------------------------------------
    println!("E6 — fleet-scale roaming (the Section-4 demo scaled up)");
    for (cells, clients, mobile_fraction) in [(4, 20, 0.5), (9, 60, 0.5), (16, 120, 0.3)] {
        fleet_run(cells, clients, mobile_fraction, seed);
    }
}

/// The Section-4 demo scaled up: `clients` web-browsing clients, each with a
/// firewall chain, of which `mobile_fraction` random-walk over a grid of
/// `cells` for 10 virtual minutes. Prints handovers, migration outcome,
/// downtime, packet accounting and where the chains ended up, and asserts
/// that every migration completed, every packet is accounted and every
/// chain is active at the end.
fn fleet_run(cells: usize, clients: usize, mobile_fraction: f64, seed: u64) {
    let mut builder = Scenario::builder(cells, HostClass::EdgeServer)
        .with_config(GnfConfig::default().with_seed(seed));
    let ids = builder.add_clients(
        clients,
        TrafficProfile::WebBrowsing {
            mean_think_time: SimDuration::from_secs(2),
        },
    );
    let mut sb = builder
        .with_duration(SimDuration::from_secs(600))
        .with_mobility(Mobility::RandomWalk(RandomWalkMobility {
            mean_residence: SimDuration::from_secs(120),
            mobile_fraction,
        }));
    for client in &ids {
        sb = sb.attach_policy(
            *client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(2),
        );
    }
    let mut emulator = Emulator::new(sb.build());
    let report = emulator.run();

    section(&format!(
        "E6 fleet — {cells} cells, {clients} clients, {:.0}% mobile, 10 min virtual time",
        mobile_fraction * 100.0
    ));
    println!(
        "handovers: {} | migrations: {} started, {} completed | failed: {}",
        report.handovers,
        report.migrations.len(),
        report.completed_migrations(),
        report.manager.migrations_failed
    );
    if report.downtime_ms.count() > 0 {
        println!("migration downtime: {}", ms_row(&report.downtime_ms));
    }
    if report.deploy_latency_ms.count() > 0 {
        println!(
            "chain deploy latency: {}",
            ms_row(&report.deploy_latency_ms)
        );
    }
    let p = &report.packets;
    println!(
        "packets: generated={} forwarded={} dropped-by-NF={} replied={} gap={} ({:.2}%)",
        p.generated,
        p.forwarded,
        p.dropped_by_nf,
        p.replied_by_nf,
        p.dropped_in_gap + p.bypassed_in_gap,
        p.gap_fraction() * 100.0
    );
    println!(
        "control plane: {} msgs in / {} out ({:.1} per client per minute)",
        report.manager.messages_received,
        report.manager.messages_sent,
        report.manager.messages_received as f64 / clients as f64 / 10.0
    );
    let dashboard = Dashboard::capture(emulator.manager(), SimTime::ZERO + report.duration);
    println!(
        "final NF placement: {} chains active across {} online stations",
        dashboard.enabled_chains, dashboard.online_stations
    );

    // Not every handover starts a migration (the 9-cell run at seed 7 has
    // 165 handovers and 164 migrations), so the two are not compared.
    assert!(
        report.all_migrations_completed(),
        "fleet {cells}: every started migration must complete"
    );
    assert_eq!(
        report.manager.migrations_failed, 0,
        "fleet {cells}: no migration may fail"
    );
    assert!(
        p.is_conserved(),
        "fleet {cells}: packet conservation: {p:?}"
    );
    assert_eq!(
        dashboard.enabled_chains, clients,
        "fleet {cells}: every chain must be active at the end"
    );
}
