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
//! host-CPU knob, never a result knob.
//!
//! `--seed N` reproduces a storm exactly; `--roams N` sets the storm size;
//! `--migration-workers N` / `--workers N` pick the matrix cell for the
//! headline run.

use gnf_bench::{
    cdf_row, migration_workers_arg, roams_arg, section, seed_arg, workers_arg, ObservabilityArgs,
};
use gnf_core::{Emulator, Mobility, RunReport, Scenario};
use gnf_edge::{RoamTrace, TrafficProfile};
use gnf_nf::testing::sample_specs;
use gnf_sim::Histogram;
use gnf_switch::TrafficSelector;
use gnf_telemetry::MigrationPoolTelemetry;
use gnf_types::{CellId, GnfConfig, HostClass, SimDuration, SimTime};

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
}

fn run_cell(
    seed: u64,
    clients: usize,
    concurrency: usize,
    migration_workers: usize,
    workers: usize,
    obs: &ObservabilityArgs,
) -> Cell {
    let mut emulator = Emulator::new(scenario(seed, clients, concurrency));
    emulator.set_workers(workers);
    emulator.set_migration_workers(migration_workers);
    obs.arm(&mut emulator);
    let report = emulator.run();
    obs.write(&mut emulator);
    Cell {
        report,
        pool: emulator.migration_pool_telemetry(),
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
    let storm = run_cell(seed, roams, roams, migration_workers, workers, &obs);
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
    let accounted = p.forwarded
        + p.dropped_by_nf
        + p.replied_by_nf
        + p.dropped_in_gap
        + p.bypassed_in_gap
        + p.dropped_station_down;
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
    assert_eq!(
        p.generated, accounted,
        "no packet may be lost or double-counted across the switchover"
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
    let baseline = serde_json::to_string(report).expect("report serializes");
    let mut cells = 0;
    for mw in [1usize, 2, 4] {
        for w in [1usize, 2] {
            if mw == migration_workers && w == workers {
                continue;
            }
            let other = run_cell(seed, roams, roams, mw, w, &ObservabilityArgs::default());
            let bytes = serde_json::to_string(&other.report).expect("report serializes");
            assert_eq!(
                baseline, bytes,
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
}
