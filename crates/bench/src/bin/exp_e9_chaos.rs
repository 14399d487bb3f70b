//! Experiment E9 — chaos: a 4-station fleet under a deterministic fault
//! storm.
//!
//! The paper's stations are cheap, disposable edge boxes; this harness
//! measures what the control plane does when they behave like it. A seeded
//! [`FaultSchedule`] injects, on top of normal roaming traffic:
//!
//! * a **station crash** — all soft state (chains, clients, caches) lost;
//!   the station rejoins with a bumped generation and the Manager redeploys
//!   every chain it owed;
//! * **control-link partitions** — Manager⇄Agent messages dropped or
//!   delayed, forcing a mid-roam migration past its deadline so the Manager
//!   aborts it, rolls the steering back to the source and retries with
//!   capped exponential backoff;
//! * **steering-rule churn storms** and **cache-invalidation floods** on the
//!   switches of healthy stations.
//!
//! The run prints the recovery-time distribution, the loss breakdown (the
//! in-flight packets to a dead station are their own loss class) and the
//! migration outcome table, then asserts every crashed station reconverged
//! and every packet is accounted, and replays the identical storm at workers {1,2,4}, requiring a
//! byte-identical `RunReport` from each cell.
//!
//! `--seed N` reproduces a storm exactly; `--workers N` picks the matrix
//! cell for the headline run.

use gnf_bench::{ms_row_log, pct, section, seed_arg, workers_arg, ObservabilityArgs};
use gnf_core::{
    ChaosSpec, Emulator, FaultKind, FaultSchedule, Mobility, PartitionMode, RunReport, Scenario,
};
use gnf_edge::{Position, RoamTrace, TrafficProfile};
use gnf_nf::testing::sample_specs;
use gnf_switch::TrafficSelector;
use gnf_types::{CellId, GnfConfig, HostClass, SimDuration, SimTime, StationId};

const STATIONS: usize = 4;
const CLIENTS: usize = 8;
const DURATION: SimDuration = SimDuration::from_secs(50);

fn scenario(seed: u64) -> Scenario {
    let config = GnfConfig {
        seed,
        // Tight recovery knobs: a 4 s migration deadline scanned every
        // second, retried up to 4 times with 500 ms → 2 s backoff.
        migration_deadline: SimDuration::from_secs(4),
        migration_max_retries: 4,
        migration_backoff_base: SimDuration::from_millis(500),
        migration_backoff_cap: SimDuration::from_secs(2),
        hotspot_scan_interval: SimDuration::from_secs(1),
        ..GnfConfig::default()
    };
    let mut builder = Scenario::builder(STATIONS, HostClass::EdgeServer).with_config(config);
    let clients = builder.add_clients(CLIENTS, TrafficProfile::smartphone());
    // One dedicated roamer parked on cell 0: its mid-storm roam to cell 2 is
    // what the station-0 partition turns into an aborted-then-retried
    // migration.
    let roamer = builder.add_client_at(Position::new(1.0, 1.0), TrafficProfile::smartphone());
    let mut sb = builder
        .with_duration(DURATION)
        .with_mobility(Mobility::Trace(RoamTrace::new().roam(
            SimTime::from_secs(30),
            roamer,
            CellId::new(2),
        )));
    for client in clients.iter().chain(std::iter::once(&roamer)) {
        sb = sb.attach_policy(
            *client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(2),
        );
    }
    sb.build()
}

/// The storm: a scripted backbone guaranteeing every fault class the
/// experiment measures, plus seed-generated extras in the 10–19 s window.
fn storm(seed: u64) -> FaultSchedule {
    let stations: Vec<StationId> = (0..STATIONS as u64).map(StationId::new).collect();
    let spec = ChaosSpec {
        crashes: 1,
        crash_down_for: (SimDuration::from_secs(3), SimDuration::from_secs(4)),
        partitions: 1,
        partition_duration: (SimDuration::from_secs(2), SimDuration::from_secs(4)),
        churn_storms: 2,
        churn_rules: (16, 64),
        invalidation_floods: 2,
        flood_size: (1, 3),
        window: (SimTime::from_secs(10), SimTime::from_secs(19)),
    };
    let mut schedule = FaultSchedule::generate(seed, &spec, &stations);
    // Station 3 dies mid-run and must reconverge.
    schedule.push(
        SimTime::from_secs(26),
        FaultKind::StationCrash {
            station: StationId::new(3),
            down_for: SimDuration::from_secs(8),
        },
    );
    // Station 0's control link drops everything across the roamer's 30 s
    // handover: the checkpoint request dies, the migration times out, rolls
    // back, and the backoff retries land only after the heal.
    schedule.push(
        SimTime::from_secs(29),
        FaultKind::LinkPartition {
            station: StationId::new(0),
            duration: SimDuration::from_secs(7),
            mode: PartitionMode::Drop,
        },
    );
    // A churn storm and an invalidation flood on a healthy station while the
    // fleet is busy recovering.
    schedule.push(
        SimTime::from_secs(40),
        FaultKind::SteeringChurn {
            station: StationId::new(1),
            rules: 32,
        },
    );
    schedule.push(
        SimTime::from_secs(42),
        FaultKind::CacheInvalidation {
            station: StationId::new(1),
            floods: 3,
        },
    );
    schedule
}

fn run_cell(seed: u64, workers: usize, obs: &ObservabilityArgs) -> (RunReport, usize) {
    let mut emulator = Emulator::new(scenario(seed));
    emulator.set_workers(workers);
    emulator.set_fault_schedule(storm(seed));
    obs.arm(&mut emulator);
    let report = emulator.run();
    obs.write(&mut emulator);
    let active = emulator
        .manager()
        .attachments()
        .filter(|a| a.active)
        .count();
    (report, active)
}

fn main() {
    println!("E9 — fault storm over a {STATIONS}-station fleet, {DURATION} virtual time");
    let seed = seed_arg();
    let workers = workers_arg(1);

    let schedule = storm(seed);
    section("fault schedule");
    for event in schedule.events() {
        println!("  {:>12}  {:?}", format!("{}", event.at), event.kind);
    }

    // Artifacts (when requested) describe the headline matrix cell.
    let obs = gnf_bench::observability_args();
    let (report, active) = run_cell(seed, workers, &obs);

    section("chaos outcome");
    let chaos = &report.chaos;
    println!(
        "faults injected: {} | crashes: {} (restarts: {}) | partitions: {} | churn storms: {} | floods: {}",
        chaos.faults_injected,
        chaos.crashes,
        chaos.restarts,
        chaos.partitions,
        chaos.churn_storms,
        chaos.invalidation_floods,
    );
    println!(
        "control messages lost to the storm: {} dropped, {} delayed",
        chaos.messages_dropped, chaos.messages_delayed
    );
    println!(
        "station soft-state: {} crashes, {} generation bumps, {} churned rules, {} cache invalidations",
        chaos.stations.crashes,
        chaos.stations.generation,
        chaos.stations.steering_churn_rules,
        chaos.stations.cache_invalidations,
    );
    if chaos.recovery_ms.count() > 0 {
        println!("crash → reconvergence: {}", ms_row_log(&chaos.recovery_ms));
    }

    section("migration outcomes under the storm");
    let timed_out = report
        .migrations
        .iter()
        .filter(|m| m.outcome == "timed-out")
        .count();
    let retried_ok = report
        .migrations
        .iter()
        .filter(|m| m.outcome == "complete" && m.attempt > 0)
        .count();
    println!(
        "{} migrations: {} complete ({} via backoff retry), {} timed out and rolled back, {} failed",
        report.migrations.len(),
        report.completed_migrations(),
        retried_ok,
        timed_out,
        report
            .migrations
            .iter()
            .filter(|m| m.outcome == "failed")
            .count(),
    );
    println!(
        "manager: {} timeouts, {} retries, {} station rejoins",
        report.manager.migrations_timed_out,
        report.manager.migration_retries,
        report.manager.station_rejoins,
    );

    section("loss breakdown");
    let p = &report.packets;
    println!(
        "{} generated | {} forwarded ({:.1}%)",
        p.generated,
        p.forwarded,
        pct(p.forwarded, p.generated)
    );
    println!(
        "  dropped by NF verdict:    {:>8} ({:.2}%)",
        p.dropped_by_nf,
        pct(p.dropped_by_nf, p.generated)
    );
    println!(
        "  replied by NF:            {:>8} ({:.2}%)",
        p.replied_by_nf,
        pct(p.replied_by_nf, p.generated)
    );
    println!(
        "  migration/deploy gap:     {:>8} ({:.2}%)",
        p.dropped_in_gap + p.bypassed_in_gap,
        pct(p.dropped_in_gap + p.bypassed_in_gap, p.generated)
    );
    println!(
        "  station down (new class): {:>8} ({:.2}%)",
        p.dropped_station_down,
        pct(p.dropped_station_down, p.generated)
    );

    // The experiment's contract.
    assert!(
        chaos.crashes >= 1,
        "the storm must crash at least one station"
    );
    assert!(
        chaos.fully_recovered(),
        "every crashed station must restart and reconverge: {chaos:?}"
    );
    assert!(
        chaos.invalidation_floods >= 1,
        "the storm must flood at least one cache"
    );
    assert!(
        report.manager.migrations_timed_out >= 1 && retried_ok >= 1,
        "the partition must abort a migration that then completes via retry \
         ({} timed out, {} retried to completion)",
        report.manager.migrations_timed_out,
        retried_ok,
    );
    assert!(
        p.dropped_station_down > 0,
        "in-flight packets to the dead station must be accounted"
    );
    assert!(
        p.is_conserved(),
        "no packet may be lost or double-counted under the storm: {p:?}"
    );
    assert_eq!(
        active,
        CLIENTS + 1,
        "every chain must be active once the storm clears"
    );

    section("determinism matrix: workers {1,2,4}");
    let baseline = serde_json::to_string(&report).expect("report serializes");
    let mut cells = 0;
    for w in [1usize, 2, 4] {
        if w == workers {
            continue;
        }
        let (other, _) = run_cell(seed, w, &ObservabilityArgs::default());
        let bytes = serde_json::to_string(&other).expect("report serializes");
        assert_eq!(
            baseline, bytes,
            "RunReport must be byte-identical at workers={w}"
        );
        cells += 1;
        println!("  workers={w}: byte-identical");
    }
    println!(
        "storm replayed byte-for-byte across {} additional matrix cells",
        cells
    );
    println!(
        "\nE9 PASS: {} faults, full reconvergence, deterministic replay",
        chaos.faults_injected
    );
}
