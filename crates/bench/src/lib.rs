//! # gnf-bench
//!
//! The experiment harnesses of the GNF reproduction and their shared
//! fixtures. Each `src/bin/exp_*` binary (E1–E9) prints the table or series
//! that reproduces one claim or figure of the paper; all but E2 and E3 also
//! assert their own contract. Run one with, e.g.:
//!
//! ```text
//! cargo run --release -p gnf-bench --bin exp_e1_roaming
//! ```
//!
//! Host-time numbers that count come from the repository benchmark,
//! `gnf_benchmark`, compared in pairs by `tools/bench_pair.py`.

#![forbid(unsafe_code)]

pub mod dataplane_fixture;

use gnf_api::messages::AgentToManager;
use gnf_core::Emulator;
use gnf_manager::Manager;
use gnf_sim::Histogram;
use gnf_telemetry::{LogHistogram, MetricsSeries, StationReport, TraceLog};
use gnf_types::{AgentId, ClientId, HostClass, ResourceUsage, SimTime, StationId};

/// Formats a histogram (in ms) as `mean/median/p99/max` for experiment tables.
pub fn ms_row(h: &Histogram) -> String {
    format!(
        "mean {:>8.1} ms | median {:>8.1} ms | p99 {:>8.1} ms | max {:>8.1} ms",
        h.mean(),
        h.median(),
        h.p99(),
        h.max()
    )
}

/// [`ms_row`] for the log-bucketed aggregate histograms carried by run
/// reports (`MigrationReport::switchover_ms`, `ChaosReport::recovery_ms`).
pub fn ms_row_log(h: &LogHistogram) -> String {
    format!(
        "mean {:>8.1} ms | median {:>8.1} ms | p99 {:>8.1} ms | max {:>8.1} ms",
        h.mean(),
        h.median(),
        h.p99(),
        h.max()
    )
}

/// Formats a histogram (in ms) as a `p10/p50/p90/p99/max` CDF row — the
/// shape the paper's downtime figures use.
pub fn cdf_row(h: &Histogram) -> String {
    format!(
        "p10 {:>7.1} ms | p50 {:>7.1} ms | p90 {:>7.1} ms | p99 {:>7.1} ms | max {:>7.1} ms",
        h.quantile(0.10),
        h.quantile(0.50),
        h.quantile(0.90),
        h.quantile(0.99),
        h.max()
    )
}

/// Prints a section header for experiment output.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Parses the value following a `--flag` from the command line.
pub fn arg_value<T: std::str::FromStr>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|ix| args.get(ix + 1))
        .and_then(|v| v.parse().ok())
}

/// Parses `--seed N` from the command line and prints the seed the run uses
/// (so every experiment output is reproducible from its own header). Every
/// `exp_e*` harness calls this; the default is the framework-wide
/// [`gnf_types::GnfConfig`] seed.
pub fn seed_arg() -> u64 {
    let seed = arg_value("--seed").unwrap_or(gnf_types::GnfConfig::default().seed);
    println!("seed: {seed}  (override with --seed N)");
    seed
}

/// Parses `--roams N` from the command line, falling back to `default`
/// (clamped to at least 1): how many clients roam simultaneously in the
/// mass-roaming storm.
pub fn roams_arg(default: usize) -> usize {
    arg_value("--roams").unwrap_or(default).max(1)
}

/// Parses `--packets N` from the command line, falling back to `default`.
/// Used by the workload harness to scale run length (CI smoke vs full runs).
pub fn packets_arg(default: u64) -> u64 {
    arg_value("--packets").unwrap_or(default).max(1)
}

/// The `--trace-out PATH` / `--metrics-out PATH` pair every experiment
/// harness accepts: which observability artifacts the run should write.
/// Both default to off, so the harness pays no tracing cost unless asked.
#[derive(Debug, Clone, Default)]
pub struct ObservabilityArgs {
    /// Chrome `trace_event` JSON target (a `.csv` sibling rides along).
    pub trace_out: Option<String>,
    /// Virtual-time metrics CSV target.
    pub metrics_out: Option<String>,
}

/// Parses `--trace-out PATH` and `--metrics-out PATH` from the command line.
pub fn observability_args() -> ObservabilityArgs {
    ObservabilityArgs {
        trace_out: arg_value("--trace-out"),
        metrics_out: arg_value("--metrics-out"),
    }
}

impl ObservabilityArgs {
    /// Arms tracing and/or metrics on an emulator, matching the flags that
    /// are present. Call before `run()`, on the run the artifacts should
    /// describe (sweep harnesses pick one representative run).
    pub fn arm(&self, emulator: &mut Emulator) {
        if self.trace_out.is_some() {
            emulator.enable_tracing();
        }
        if self.metrics_out.is_some() {
            emulator.enable_metrics();
        }
    }

    /// True when either artifact was requested.
    pub fn any(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }

    /// Writes the requested artifacts from an armed emulator. Call after
    /// `run()`, on the same emulator [`ObservabilityArgs::arm`] touched.
    ///
    /// With `--trace-out PATH` it also writes the emulator's host stage table
    /// to `PATH.stages.csv` (wall clock, so never inside the trace itself),
    /// and panics unless the stages sum to within 10 % of `run()`.
    pub fn write(&self, emulator: &mut Emulator) {
        if let Some(path) = &self.trace_out {
            self.write_log(&emulator.trace_log());
            let stages = emulator
                .host_stages()
                .expect("tracing armed the stage table before the run");
            assert!(
                stages.closes(0.10),
                "the host stages must sum to within 10 % of run():\n{}",
                stages.to_csv()
            );
            let stages_path = format!("{path}.stages.csv");
            std::fs::write(&stages_path, stages.to_csv()).expect("write stage table CSV");
            // No figures here: host time would make stdout differ per run.
            println!("stages: host wall-clock table -> {stages_path}");
        }
        if self.metrics_out.is_some() {
            self.write_series(
                emulator
                    .metrics_series()
                    .expect("metrics armed before the run"),
            );
        }
    }

    /// Writes a pre-merged trace log to `--trace-out` (Chrome JSON, plus a
    /// `.csv` sibling). The component-level harnesses — which drive an Agent
    /// or the Manager without an emulator — merge their own sinks and call
    /// this directly.
    pub fn write_log(&self, log: &TraceLog) {
        let Some(path) = &self.trace_out else {
            return;
        };
        std::fs::write(path, log.to_chrome_json()).expect("write trace JSON");
        let csv_path = format!("{path}.csv");
        std::fs::write(&csv_path, log.to_csv()).expect("write trace CSV");
        println!(
            "trace: {} events ({} dropped) -> {path} (+ {csv_path})",
            log.len(),
            log.dropped()
        );
    }

    /// Writes a metrics series to `--metrics-out`. Harnesses without a
    /// virtual-time sampler pass an empty series: a valid header-only CSV.
    pub fn write_series(&self, series: &MetricsSeries) {
        let Some(path) = &self.metrics_out else {
            return;
        };
        std::fs::write(path, series.to_csv()).expect("write metrics CSV");
        println!("metrics: {} samples -> {path}", series.len());
    }
}

/// `num / den` as a percentage, defined as 0 when the denominator is zero —
/// so experiment summaries can never print `NaN` (or panic) on zero-packet
/// or zero-probe mixes (tiny `--packets` budgets, one-kind traffic mixes
/// that never exercise a counter).
pub fn pct(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64 * 100.0
    }
}

/// A realistic steady-state station report: populated cache counters and a
/// batch distribution — what a full report re-ships every interval
/// regardless of what changed, and what the delta transport avoids
/// re-shipping. `exp_e5_manager_scale` feeds it to the Manager and the
/// delta encoder.
pub fn station_report(station: u64, cpu: f64, at: SimTime) -> StationReport {
    let flow_cache = gnf_telemetry::FlowCacheTelemetry {
        stats: gnf_types::FlowCacheStats {
            hits: 1_000_000 + station,
            misses: 40_000,
            evictions: 1_200,
            ..Default::default()
        },
        entries: 4_096,
    };
    let megaflow = gnf_telemetry::MegaflowTelemetry {
        stats: gnf_types::MegaflowStats {
            hits: 30_000,
            misses: 10_000,
            installs: 600,
            ..Default::default()
        },
        entries: 512,
        masks: 3,
    };
    let batches = gnf_telemetry::BatchTelemetry {
        batches: 80_000,
        packets: 1_070_000,
        max_batch: 210,
        size_buckets: [10, 20, 300, 4_000, 30_000, 40_000, 5_000, 600, 70],
    };
    StationReport {
        station: StationId::new(station),
        agent: AgentId::new(station),
        produced_at: at,
        host_class: HostClass::EdgeServer,
        capacity: HostClass::EdgeServer.capacity(),
        usage: ResourceUsage {
            cpu_fraction: cpu,
            memory_mb: 800,
            disk_mb: 2_000,
            rx_bps: 5e6,
            tx_bps: 1e6,
        },
        connected_clients: (0..10).map(|c| ClientId::new(station * 100 + c)).collect(),
        running_nfs: 12,
        cached_images: 4,
        flow_cache,
        megaflow,
        batches,
        chaos: Default::default(),
    }
}

/// Registers stations `0..stations` (edge servers) with `manager` at time
/// zero.
pub fn register_fleet(manager: &mut Manager, stations: u64) {
    for s in 0..stations {
        manager.handle_agent_msg(
            StationId::new(s),
            AgentToManager::Register {
                agent: AgentId::new(s),
                station: StationId::new(s),
                host_class: HostClass::EdgeServer,
                capacity: HostClass::EdgeServer.capacity(),
            },
            SimTime::ZERO,
        );
    }
}
