//! The traced layer run: one workload, every per-layer row.
//!
//! Timed rows come from spans recorded here, around calls into each crate's
//! public API, or from differences between whole passes (the *derived*
//! rows: the split inside `Agent`/`Emulator` needs in-program spans, which
//! is a later change). Count rows come from `RunReport` and are exact.

use crate::alloc::{counted, AllocCount};
use crate::e2e::{self, Input, Kind, Rep, Sizes, Variant};
use crate::probes;
use crate::spans::{self, Recorder};
use crate::stats;
use gnf_core::RunReport;
use gnf_sim::Histogram;
use gnf_telemetry::MigrationPoolTelemetry;
use gnf_workload::Population;
use std::collections::BTreeMap;

/// Untimed-by-the-emulator repetitions the derived rows are based on.
const REFERENCE_REPS: usize = 3;
const TWIN_REPS: usize = 3;
/// Report intervals of the control-plane drive: 100 ticks is the fewest
/// that still leaves ten samples beyond the 90th percentile.
const CONTROL_INTERVALS: u64 = 100;

/// Per-layer rows by name.
pub type Rows = BTreeMap<&'static str, f64>;

pub struct Traced {
    pub rows: Rows,
    pub ops: e2e::Ops,
    pub recorder: Recorder,
    pub report_digest: u64,
    pub trace_digest: Option<u64>,
}

fn timed_runs(
    rec: &mut Recorder,
    input: &Input,
    threads: usize,
    reps: usize,
) -> Result<Vec<Rep>, String> {
    let mut done = Vec::with_capacity(reps);
    for _ in 0..reps {
        let prepared = rec.span("core", "Emulator::new", |_| {
            (e2e::build_emulator(input, threads), 1)
        });
        let rep = rec.span("core", "Emulator::run", |_| {
            let rep = e2e::run(prepared);
            let packets = rep.report.packets.generated;
            (rep, packets)
        });
        e2e::check(input, &rep)?;
        done.push(rep);
    }
    Ok(done)
}

fn median_run_ns(reps: &[Rep]) -> f64 {
    stats::median(&reps.iter().map(|r| r.run_secs * 1e9).collect::<Vec<_>>())
}

fn twin(
    rec: &mut Recorder,
    kind: Kind,
    base: &Input,
    variant: Variant,
    seed: u64,
    sizes: &Sizes,
    threads: usize,
) -> Result<Vec<Rep>, String> {
    rec.next_pass();
    let input = Input {
        scenario: e2e::build_scenario(kind, variant, seed, sizes),
        trace: base.trace.clone().filter(|_| variant != Variant::NoTraffic),
    };
    timed_runs(rec, &input, threads, TWIN_REPS)
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Splits one `run()` into the parts the passes can tell apart. Parts are
/// clamped at zero and the shares are of their sum, so they are never
/// negative and always total 100 %.
pub fn shares(run_ns: f64, parts: [(&'static str, f64); 4]) -> Vec<(&'static str, f64)> {
    let mut parts: Vec<(&'static str, f64)> = parts
        .iter()
        .map(|(name, ns)| (*name, ns.max(0.0)))
        .collect();
    let known: f64 = parts.iter().map(|(_, ns)| ns).sum();
    parts.push(("share.core_switch_agent", (run_ns - known).max(0.0)));
    let total: f64 = parts.iter().map(|(_, ns)| ns).sum();
    parts
        .into_iter()
        .map(|(name, ns)| (name, if total > 0.0 { ns / total * 100.0 } else { 0.0 }))
        .collect()
}

/// Rows read straight off the report: exact, and identical on every run.
fn count_rows(rows: &mut Rows, report: &RunReport, pool: MigrationPoolTelemetry) {
    let packets = report.packets.generated;
    let flow = &report.flow_cache.stats;
    let mega = &report.megaflow.stats;
    let lookups = flow.hits + flow.misses;
    rows.insert("switch.exact_hit_ratio", ratio(flow.hits, lookups));
    rows.insert("switch.megaflow_hit_ratio", ratio(mega.hits, lookups));
    rows.insert("switch.slow_path_ratio", ratio(mega.misses, lookups));
    rows.insert(
        "switch.drop_bypass_ratio",
        ratio(mega.drop_hits, report.packets.dropped_by_nf),
    );
    rows.insert("switch.megaflow_entries", report.megaflow.entries as f64);
    rows.insert("switch.megaflow_masks", report.megaflow.masks as f64);
    rows.insert("agent.mean_batch_pkts", report.batches.mean_batch_size());
    rows.insert(
        "core.hairpin_ratio",
        ratio(report.packets.hairpinned, packets),
    );
    rows.insert("core.pool_batches", pool.batches as f64);
    rows.insert("core.pool_max_batch", pool.max_batch as f64);
    rows.insert("core.pool_cap_flushes", pool.cap_flushes as f64);
    let migrations = report.migration.completed as u64;
    rows.insert(
        "nf.state_bytes_per_migration",
        ratio(report.migration.state_bytes_total, migrations),
    );
    rows.insert(
        "nf.delta_bytes_per_migration",
        ratio(report.migration.delta_bytes_total, migrations),
    );

    // Virtual-time outcomes, from the exact per-migration values rather
    // than the report's log-bucketed aggregate.
    let mut switchover = Histogram::new();
    for migration in report.migrations.iter().filter(|m| m.completed) {
        switchover.record(migration.switchover_ms.unwrap_or(0.0));
    }
    rows.insert("outcome.switchover_p50_ms", switchover.median());
    rows.insert("outcome.switchover_p99_ms", switchover.p99());
    rows.insert("outcome.downtime_p99_ms", report.downtime_ms.p99());
    rows.insert("outcome.deploy_p99_ms", report.deploy_latency_ms.p99());
    rows.insert(
        "outcome.gap_loss_ratio",
        ratio(e2e::gap_loss(report), packets),
    );
}

fn control_messages(report: &RunReport) -> f64 {
    (report.manager.messages_received + report.manager.messages_sent) as f64
}

pub fn run(kind: Kind, seed: u64, sizes: &Sizes) -> Result<Traced, String> {
    let mut rec = Recorder::new();
    let threads = e2e::threads_for(kind);
    let mut rows = Rows::new();

    // Pass 1 — set-up. The load generator runs here and nowhere else.
    rec.next_pass();
    let input = rec.span("bench", "set-up", |rec| {
        let scenario = rec.span("core", "Scenario::build", |_| {
            (e2e::build_scenario(kind, Variant::Full, seed, sizes), 1)
        });
        let trace = kind.is_replay().then(|| {
            rec.span("workload", "SyntheticWorkload::next_batch", |_| {
                let population = Population::from_topology(&scenario.topology);
                let trace = e2e::capture_trace(kind, seed, sizes.replay_packets, population);
                let packets = trace.packets;
                (trace, packets)
            })
        });
        (Input { scenario, trace }, 1)
    });

    // Pass 2 — reference repetitions with every kind of tracing off.
    rec.next_pass();
    let reference = timed_runs(&mut rec, &input, threads, REFERENCE_REPS)?;
    let report = &reference[0].report;
    let digest = e2e::report_digest(report);
    let same_report = |rep: &Rep, what: &str| {
        if e2e::report_digest(&rep.report) == digest {
            Ok(())
        } else {
            Err(format!("RunReport differs {what}"))
        }
    };
    for rep in &reference {
        same_report(rep, "between repetitions")?;
    }
    let packets = report.packets.generated;
    if packets == 0 {
        return Err("the workload carried no traffic".into());
    }
    let run_ns = median_run_ns(&reference);
    let per_packet = |ns: f64| ns / packets as f64;
    let station_intervals = (input.stations() as u64 * input.intervals()) as f64;
    let migrations = report.migration.completed as f64;
    let per_migration = |total: f64| {
        if migrations > 0.0 {
            total / migrations
        } else {
            0.0
        }
    };

    // Pass 3 — heap traffic of `run()`, counted twice on one thread: the
    // counts must repeat exactly or they are not evidence.
    rec.next_pass();
    let mut counts: Vec<AllocCount> = Vec::new();
    for _ in 0..2 {
        let prepared = e2e::build_emulator(&input, 1);
        let (rep, count) = counted(|| e2e::run(prepared));
        e2e::check(&input, &rep)?;
        same_report(&rep, "between one thread and two")?;
        counts.push(count);
    }
    if counts[0] != counts[1] {
        return Err(format!(
            "allocation counts do not repeat: {:?} vs {:?}",
            counts[0], counts[1]
        ));
    }

    // Pass 4 — the emulator's own virtual-time tracing and metrics on.
    rec.next_pass();
    let mut prepared = e2e::build_emulator(&input, threads);
    prepared.emulator.enable_tracing();
    prepared.emulator.enable_metrics();
    let traced = rec.span("core", "Emulator::run (traced)", |_| {
        (e2e::run(prepared), packets)
    });
    e2e::check(&input, &traced)?;
    same_report(&traced, "with the emulator's tracing on")?;

    // Pass 5 — twins: the same input with one ingredient removed.
    let no_policy = twin(
        &mut rec,
        kind,
        &input,
        Variant::NoPolicy,
        seed,
        sizes,
        threads,
    )?;
    let no_traffic = twin(
        &mut rec,
        kind,
        &input,
        Variant::NoTraffic,
        seed,
        sizes,
        threads,
    )?;
    let no_roam = if input.scheduled_roams() > 0 {
        twin(
            &mut rec,
            kind,
            &input,
            Variant::NoRoam,
            seed,
            sizes,
            threads,
        )?
    } else {
        Vec::new()
    };
    let no_policy_ns = median_run_ns(&no_policy);
    let no_traffic_ns = median_run_ns(&no_traffic);
    // Where nobody roams the workload is its own no-roam twin.
    let (no_roam_ns, no_roam_messages) = match no_roam.first() {
        Some(rep) => (median_run_ns(&no_roam), control_messages(&rep.report)),
        None => (run_ns, control_messages(report)),
    };
    let migration_ns = (run_ns - no_roam_ns).max(0.0);

    // Pass 6 — each layer alone, on this workload's own frames.
    rec.next_pass();
    let frames = match &input.trace {
        Some(trace) => probes::read_trace(&mut rec, trace),
        None => probes::generate_native(&mut rec, &input),
    };
    let parsed = probes::parse_frames(&mut rec, &frames);
    drop(frames);
    let ingest_allocs = input
        .trace
        .as_ref()
        .map(|trace| probes::ingest(&mut rec, trace))
        .unwrap_or_default();
    let specs = e2e::chain(kind);
    let chain = probes::chain(&mut rec, &specs, &parsed);
    probes::state(&mut rec, &specs, &parsed);
    drop(parsed);
    // Replays hold one pending batch per source; native traffic is
    // pre-scheduled, so the queue starts one event per batch deep.
    let depth = if kind.is_replay() {
        (input.stations() + input.scenario.topology.client_count()) as u64
    } else {
        report.batches.batches
    };
    probes::event_queue(&mut rec, depth);
    let control = probes::control_plane(
        &mut rec,
        &input.scenario.config,
        input.stations(),
        CONTROL_INTERVALS,
    );

    // Rows that are one span name's nanoseconds per item.
    for (row, span) in [
        (
            "workload.synth_gen_ns_per_pkt",
            "SyntheticWorkload::next_batch",
        ),
        ("workload.pcap_read_ns_per_pkt", "TraceReader::next_record"),
        ("workload.ingest_ns_per_pkt", "TraceWorkload::next_batch"),
        ("packet.parse_ns_per_pkt", "Packet::parse"),
        ("edge.traffic_gen_ns_per_pkt", "TrafficGenerator::generate"),
        ("sim.queue_ns_per_event", "EventQueue::pop+schedule_at"),
        ("agent.make_report_ns", "Agent::make_report"),
        ("api.encode_ns_per_report", "codec::encode"),
        ("api.decode_ns_per_report", "codec::decode"),
        (
            "telemetry.delta_encode_ns_per_report",
            "DeltaEncoder::encode",
        ),
        ("manager.ingest_ns_per_report", "Manager::handle_agent_msg"),
        ("nf.state_export_ns_per_byte", "NfChain::export_state"),
        ("nf.state_diff_ns_per_byte", "NfStateDelta::diff"),
        ("nf.state_apply_ns_per_byte", "NfStateDelta::apply"),
        ("nf.state_import_ns_per_byte", "NfChain::import_state"),
    ] {
        rows.insert(row, rec.ns_per_item(span));
    }
    let ingest_ns = rows["workload.ingest_ns_per_pkt"];
    let (instantiate_ns, _) = rec.total("instantiate_chain");
    let (process_ns, chain_packets) = rec.total("NfChain::process_batch");
    let per_chain_packet = |total: f64| total / chain_packets.max(1) as f64;
    let chain_ns = per_chain_packet((instantiate_ns + process_ns) as f64);
    rows.insert("nf.chain_ns_per_pkt", chain_ns);
    rows.insert(
        "nf.chain_allocs_per_pkt",
        per_chain_packet(chain.allocations.allocations as f64),
    );
    rows.insert(
        "workload.ingest_allocs_per_pkt",
        per_packet(ingest_allocs.allocations as f64),
    );
    rows.insert(
        "core.run_allocs_per_pkt",
        per_packet(counts[0].allocations as f64),
    );
    rows.insert(
        "core.run_alloc_bytes_per_pkt",
        per_packet(counts[0].bytes as f64),
    );
    rows.insert("api.report_bytes_full", control.report_bytes_full);
    rows.insert("api.report_bytes_delta", control.report_bytes_delta);
    rows.insert("manager.tick_p50_us", control.tick_p50_us);
    rows.insert("manager.tick_p90_us", control.tick_p90_us);
    rows.insert("bench.span_cost_ns", spans::span_cost_ns());

    // Whole passes and the differences between them (the derived rows).
    rows.insert("core.run_s", run_ns / 1e9);
    rows.insert("core.noroam_run_s", no_roam_ns / 1e9);
    rows.insert(
        "core.us_per_station_interval",
        run_ns / 1e3 / station_intervals,
    );
    rows.insert("core.migrations_per_s", migrations / (run_ns / 1e9));
    rows.insert(
        "telemetry.trace_overhead_ratio",
        traced.run_secs * 1e9 / run_ns,
    );
    rows.insert(
        "core.floor_ns_per_pkt",
        (per_packet(no_policy_ns) - ingest_ns).max(0.0),
    );
    rows.insert(
        "core.policy_ns_per_pkt",
        per_packet(run_ns - no_policy_ns).max(0.0),
    );
    rows.insert(
        "core.idle_fleet_us_per_station_interval",
        no_traffic_ns / 1e3 / station_intervals,
    );
    rows.insert(
        "core.fleet_us_per_pkt",
        per_packet(run_ns - no_traffic_ns).max(0.0) / 1e3,
    );
    rows.insert("core.us_per_migration", per_migration(migration_ns / 1e3));
    rows.insert(
        "manager.msgs_per_station_interval",
        control_messages(report) / station_intervals,
    );
    rows.insert(
        "manager.msgs_per_migration",
        per_migration(control_messages(report) - no_roam_messages),
    );
    count_rows(&mut rows, report, reference[0].pool);

    // Packets that really executed their chain: all of them, minus
    // certified drops, minus wildcard hits when the chain certifies
    // forwards too.
    let mega = &report.megaflow.stats;
    let forward_bypassed = if chain.forward_bypassable {
        mega.hits - mega.drop_hits
    } else {
        0
    };
    let executed = packets.saturating_sub(mega.drop_hits + forward_bypassed) as f64;
    let split = shares(
        run_ns,
        [
            ("share.workload", ingest_ns * packets as f64),
            ("share.nf", chain_ns * executed),
            ("share.migration", migration_ns),
            ("share.control", no_traffic_ns),
        ],
    );
    rows.extend(split);

    Ok(Traced {
        ops: e2e::ops(report),
        report_digest: digest,
        trace_digest: input.trace.as_ref().map(|t| e2e::fnv1a(&t.pcap)),
        rows,
        recorder: rec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(shares: &[(&str, f64)]) -> f64 {
        shares.iter().map(|(_, share)| share).sum()
    }

    #[test]
    fn shares_total_one_hundred_and_the_rest_goes_to_the_data_path() {
        let split = shares(
            1_000.0,
            [
                ("share.workload", 250.0),
                ("share.nf", 100.0),
                ("share.migration", 0.0),
                ("share.control", 50.0),
            ],
        );
        assert_eq!(split.len(), 5);
        assert_eq!(split[0], ("share.workload", 25.0));
        assert_eq!(split[4], ("share.core_switch_agent", 60.0));
        assert!((total(&split) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn shares_are_never_negative_even_when_the_parts_overshoot() {
        // A standalone probe can cost more than the same work in situ, and
        // a twin can come out slower than the run it is subtracted from.
        let split = shares(
            1_000.0,
            [
                ("share.workload", 400.0),
                ("share.nf", 900.0),
                ("share.migration", -30.0),
                ("share.control", 0.0),
            ],
        );
        assert!(split.iter().all(|(_, share)| *share >= 0.0));
        assert_eq!(split[2], ("share.migration", 0.0));
        assert_eq!(split[4], ("share.core_switch_agent", 0.0));
        assert!((total(&split) - 100.0).abs() < 1e-9);
        assert_eq!(
            total(&shares(
                0.0,
                [("a", 0.0), ("b", 0.0), ("c", 0.0), ("d", 0.0)]
            )),
            0.0
        );
    }

    #[test]
    fn ratios_of_nothing_are_zero() {
        assert_eq!(ratio(5, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
    }
}
