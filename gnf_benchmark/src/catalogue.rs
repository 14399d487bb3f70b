//! The benchmark's names: workloads with their reasons, end-to-end metrics
//! with their bounds, per-layer rows. `BENCHMARK.json` repeats this table
//! for the driver; a unit test keeps the two identical.

use crate::e2e::Kind;

/// Seconds one run measures for when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 15.0;
pub const DEFAULT_SEED: u64 = 7;

pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::WebReplay => "web pcap through a conntrack-off 100-rule firewall: the certified-bypass fast path; ingest, classification and settle do the work, chains run ~never",
        Kind::StatefulReplay => "the byte-identical pcap through five opaque NFs: a cache hit only steers, so chain execution dominates and the bypass is never taken",
        Kind::ScanChurn => "port scans and SYN floods, smallest frames, a new five-tuple on most packets: per-packet fixed costs, mask diversity and the drop path",
        Kind::FleetSteady => "2000 stations with one client each, batches of one packet: event loop, per-flush attachment scan and Manager ingest dominate; trace ingest is bypassed and chains are ~5 % of the run",
        Kind::RoamStorm => "every client roams in every wave, pre-copy on, two threads: migration pipeline and state export/diff/apply dominate; the only threaded workload",
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median a later PR may lose (end-to-end only).
    pub bound: Option<f64>,
}

impl Metric {
    /// True for rows that are counted or virtual-time, not host-timed: they
    /// must read the same on every run of one seed.
    pub fn is_exact(&self) -> bool {
        match self.unit {
            "count" | "B" | "virt_ms" => true,
            "ratio" => self.name != "telemetry.trace_overhead_ratio",
            _ => false,
        }
    }
}

const fn bounded(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn row(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Measured with every kind of tracing off; every workload reports both.
pub const END_TO_END: [Metric; 2] = [
    bounded("pkts_per_s", "1/s", "higher", 0.25),
    bounded("setup_s", "s", "lower", 0.25),
];

/// Reported by the traced run; a row whose layer the workload bypasses
/// reads 0.
pub const PER_LAYER: [Metric; 60] = [
    row("workload.synth_gen_ns_per_pkt", "ns", "lower"),
    row("workload.pcap_read_ns_per_pkt", "ns", "lower"),
    row("workload.ingest_ns_per_pkt", "ns", "lower"),
    row("workload.ingest_allocs_per_pkt", "count", "lower"),
    row("packet.parse_ns_per_pkt", "ns", "lower"),
    row("core.run_s", "s", "lower"),
    row("core.floor_ns_per_pkt", "ns", "lower"),
    row("core.policy_ns_per_pkt", "ns", "lower"),
    row("core.run_allocs_per_pkt", "count", "lower"),
    row("core.run_alloc_bytes_per_pkt", "B", "lower"),
    row("nf.chain_ns_per_pkt", "ns", "lower"),
    row("nf.chain_allocs_per_pkt", "count", "lower"),
    row("switch.exact_hit_ratio", "ratio", "higher"),
    row("switch.megaflow_hit_ratio", "ratio", "higher"),
    row("switch.slow_path_ratio", "ratio", "lower"),
    row("switch.drop_bypass_ratio", "ratio", "higher"),
    row("switch.megaflow_entries", "count", "lower"),
    row("switch.megaflow_masks", "count", "lower"),
    row("agent.mean_batch_pkts", "count", "higher"),
    row("core.us_per_station_interval", "us", "lower"),
    row("core.idle_fleet_us_per_station_interval", "us", "lower"),
    row("core.fleet_us_per_pkt", "us", "lower"),
    row("edge.traffic_gen_ns_per_pkt", "ns", "lower"),
    row("sim.queue_ns_per_event", "ns", "lower"),
    row("agent.make_report_ns", "ns", "lower"),
    row("api.encode_ns_per_report", "ns", "lower"),
    row("api.decode_ns_per_report", "ns", "lower"),
    row("api.report_bytes_full", "B", "lower"),
    row("api.report_bytes_delta", "B", "lower"),
    row("telemetry.delta_encode_ns_per_report", "ns", "lower"),
    row("manager.ingest_ns_per_report", "ns", "lower"),
    row("manager.tick_p50_us", "us", "lower"),
    row("manager.tick_p90_us", "us", "lower"),
    row("manager.msgs_per_station_interval", "count", "lower"),
    row("core.migrations_per_s", "1/s", "higher"),
    row("core.noroam_run_s", "s", "lower"),
    row("core.us_per_migration", "us", "lower"),
    row("nf.state_export_ns_per_byte", "ns", "lower"),
    row("nf.state_diff_ns_per_byte", "ns", "lower"),
    row("nf.state_apply_ns_per_byte", "ns", "lower"),
    row("nf.state_import_ns_per_byte", "ns", "lower"),
    row("nf.state_bytes_per_migration", "B", "lower"),
    row("nf.delta_bytes_per_migration", "B", "lower"),
    row("manager.msgs_per_migration", "count", "lower"),
    row("core.hairpin_ratio", "ratio", "lower"),
    row("core.pool_batches", "count", "lower"),
    row("core.pool_max_batch", "count", "higher"),
    row("core.pool_cap_flushes", "count", "lower"),
    row("telemetry.trace_overhead_ratio", "ratio", "lower"),
    row("bench.span_cost_ns", "ns", "lower"),
    row("outcome.switchover_p50_ms", "virt_ms", "lower"),
    row("outcome.switchover_p99_ms", "virt_ms", "lower"),
    row("outcome.downtime_p99_ms", "virt_ms", "lower"),
    row("outcome.deploy_p99_ms", "virt_ms", "lower"),
    row("outcome.gap_loss_ratio", "ratio", "lower"),
    row("share.workload", "%", "lower"),
    row("share.nf", "%", "lower"),
    row("share.migration", "%", "lower"),
    row("share.control", "%", "lower"),
    row("share.core_switch_agent", "%", "lower"),
];
