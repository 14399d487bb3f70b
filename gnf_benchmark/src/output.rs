//! What the benchmark prints: a table for people, one JSON line for the
//! driver, the span file of a traced run.

use crate::catalogue::{self, Metric, END_TO_END, PER_LAYER};
use crate::e2e::{self, Kind, Measurement, Sizes};
use crate::layers::Traced;
use crate::spans::{self, Recorder};
use crate::stats::{self, Summary};
use serde::Value;
use std::path::PathBuf;
use std::process::Command;

/// One workload's result in one mode.
pub struct Outcome {
    pub workload: Kind,
    pub traced: bool,
    pub correct: bool,
    pub error: Option<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the mode, in catalogue order.
    pub metrics: Vec<(&'static Metric, f64)>,
    /// Sample summaries behind the end-to-end medians.
    pub samples: Vec<(&'static str, Summary)>,
    pub report_digest: u64,
    pub trace_digest: Option<u64>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn failed(workload: Kind, traced: bool, error: String) -> Outcome {
        Outcome {
            workload,
            traced,
            correct: false,
            error: Some(error),
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
            samples: Vec::new(),
            report_digest: 0,
            trace_digest: None,
            notes: Vec::new(),
        }
    }

    pub fn from_measurement(workload: Kind, measured: Measurement) -> Outcome {
        let ops = e2e::ops(&measured.report);
        let run = stats::summarize(&measured.run_secs);
        let setup = stats::summarize(&measured.setup_secs);
        let packets = measured.report.packets.generated as f64;
        let value = |metric: &Metric| match metric.name {
            "pkts_per_s" => packets / run.median,
            "setup_s" => setup.median,
            other => unreachable!("end-to-end metric `{other}` has no formula"),
        };
        Outcome {
            workload,
            traced: false,
            correct: true,
            error: None,
            attempted: ops.attempted,
            failed: ops.failed,
            metrics: END_TO_END.iter().map(|m| (m, value(m))).collect(),
            samples: vec![("run_s", run), ("setup_s", setup)],
            report_digest: measured.report_digest,
            trace_digest: measured.trace_digest,
            notes: vec![outcome_note(&measured.report)],
        }
    }

    pub fn from_layers(workload: Kind, traced: Traced) -> Outcome {
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|name| !traced.rows.get(name).is_some_and(|v| v.is_finite()))
            .collect();
        let mut notes = vec![
            layer_table(traced.recorder.spans()),
            format!("spans: {}", span_path(workload).display()),
        ];
        let error = (!missing.is_empty())
            .then(|| format!("per-layer rows missing or not finite: {missing:?}"));
        if let Some(error) = &error {
            notes.push(error.clone());
        }
        Outcome {
            workload,
            traced: true,
            correct: error.is_none(),
            error,
            attempted: traced.ops.attempted,
            failed: traced.ops.failed,
            metrics: PER_LAYER
                .iter()
                .filter_map(|m| traced.rows.get(m.name).map(|v| (m, *v)))
                .collect(),
            samples: Vec::new(),
            report_digest: traced.report_digest,
            trace_digest: traced.trace_digest,
            notes,
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(m, _)| m.name == name)
            .map(|(_, v)| *v)
    }

    fn metrics_json(&self, prefix: &str) -> Vec<(String, Value)> {
        self.metrics
            .iter()
            .map(|(metric, value)| {
                (
                    format!("{prefix}{}", metric.name),
                    Value::Object(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::String(metric.unit.into())),
                    ]),
                )
            })
            .collect()
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`.
    pub fn result_line(&self) -> String {
        result_json(
            self.correct,
            self.attempted,
            self.failed,
            self.metrics_json(""),
        )
    }
}

fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(attempted)),
        ("failed".into(), Value::UInt(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]))
    .expect("a Value tree serializes")
}

/// The suite's last line: every workload's metrics under
/// `<workload>/<metric>`, operations summed.
pub fn suite_line(outcomes: &[Outcome]) -> String {
    // A traced outcome repeats its workload's operations; count each once.
    let counted = || outcomes.iter().filter(|o| !o.traced);
    result_json(
        outcomes.iter().all(|o| o.correct),
        counted().map(|o| o.attempted).sum(),
        counted().map(|o| o.failed).sum(),
        outcomes
            .iter()
            .flat_map(|o| o.metrics_json(&format!("{}/", o.workload.name())))
            .collect(),
    )
}

fn outcome_note(report: &gnf_core::RunReport) -> String {
    let p = &report.packets;
    format!(
        "outcome: {} generated = {} forwarded + {} NF-dropped + {} NF-replied + {} gap + {} station-down | {} migrations ({} completed) | {} events, batches of {:.2}, {} megaflow entries",
        p.generated,
        p.forwarded,
        p.dropped_by_nf,
        p.replied_by_nf,
        e2e::gap_loss(report),
        p.dropped_station_down,
        report.migration.total,
        report.migration.completed,
        report.events_processed,
        report.batches.mean_batch_size(),
        report.megaflow.entries,
    )
}

/// Self time per layer over every span of the traced run.
fn layer_table(spans: &[spans::Span]) -> String {
    let layers = spans::layer_self_times(spans);
    let total: u64 = layers.values().sum();
    let mut table = String::from("host self time by layer, all passes:");
    for (layer, ns) in &layers {
        table.push_str(&format!(
            " {layer} {:.1} %",
            *ns as f64 / total.max(1) as f64 * 100.0
        ));
    }
    table
}

pub fn print_outcome(outcome: &Outcome) {
    println!(
        "\n== {} ({}) — {}",
        outcome.workload.name(),
        if outcome.traced {
            "traced layer run"
        } else {
            "end to end, tracing off"
        },
        catalogue::why(outcome.workload),
    );
    if let Some(error) = &outcome.error {
        println!("FAILED: {error}");
    }
    for (metric, value) in &outcome.metrics {
        let bound = metric
            .bound
            .map_or(String::new(), |b| format!(", bound {:.0} %", b * 100.0));
        println!(
            "{:<42} {:>18.6} {:<8} ({} is better{bound})",
            metric.name, value, metric.unit, metric.better
        );
    }
    for (name, s) in &outcome.samples {
        println!(
            "{name:<42} median {:.6} | q1 {:.6} q3 {:.6} ({:.2} % of median) | min {:.6} max {:.6} | n {}",
            s.median,
            s.q1,
            s.q3,
            (s.q3 - s.q1) / s.median * 100.0,
            s.min,
            s.max,
            s.n
        );
    }
    println!(
        "operations: {} attempted, {} failed | RunReport fnv {:016x} | input trace fnv {}",
        outcome.attempted,
        outcome.failed,
        outcome.report_digest,
        outcome
            .trace_digest
            .map_or("-".into(), |d| format!("{d:016x}")),
    );
    for note in &outcome.notes {
        println!("{note}");
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Host facts and every frozen size, so a number can be traced to its run.
pub fn print_facts(args: &str, sizes: &Sizes) {
    println!("gnf_benchmark — {args}");
    println!(
        "host: nproc {} | git {} | {}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
    );
    println!(
        "sizes: {sizes:?} | replays {} stations x {} clients | storm {} stations",
        e2e::REPLAY_STATIONS,
        e2e::REPLAY_CLIENTS,
        e2e::STORM_STATIONS
    );
}

fn span_path(kind: Kind) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("gnf_benchmark")
        .join(format!("trace_{}.json", kind.name()))
}

/// Writes the traced run's spans, kept in memory until now.
pub fn write_spans(kind: Kind, recorder: &Recorder) -> std::io::Result<()> {
    let path = span_path(kind);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let json = serde_json::to_string(&recorder.to_json()).expect("a Value tree serializes");
    std::fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_is_legal(name: &str) -> bool {
        let legal = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(legal)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn unit_is_legal(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        names.extend(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        assert!(names.iter().all(|n| name_is_legal(n)), "{names:?}");
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_is_legal(metric.unit), "{}", metric.unit);
            assert!(matches!(metric.better, "lower" | "higher"));
        }
        for kind in Kind::ALL {
            let why = catalogue::why(kind);
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
    }

    #[test]
    fn end_to_end_bounds_respect_the_contract() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn exact_rows_are_the_counted_and_virtual_time_ones() {
        let exact = |name: &str| {
            let metric = PER_LAYER.iter().find(|m| m.name == name).expect(name);
            metric.is_exact()
        };
        assert!(exact("core.run_allocs_per_pkt") && exact("outcome.switchover_p99_ms"));
        assert!(exact("switch.megaflow_hit_ratio") && exact("api.report_bytes_delta"));
        assert!(!exact("telemetry.trace_overhead_ratio") && !exact("nf.chain_ns_per_pkt"));
        assert!(!exact("manager.tick_p90_us") && !exact("share.nf"));
        assert!(END_TO_END.iter().all(|m| !m.is_exact()));
    }

    /// `BENCHMARK.json` is the driver's copy of the catalogue.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let json: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let text = |v: &Value| v.as_str().expect("a string").to_string();
        let rows = |key: &str| json[key].as_array().expect("an array").to_vec();

        let workloads: Vec<(String, String)> = rows("workloads")
            .iter()
            .map(|w| (text(&w["name"]), text(&w["why"])))
            .collect();
        let expected: Vec<(String, String)> = Kind::ALL
            .iter()
            .map(|k| (k.name().to_string(), catalogue::why(*k).to_string()))
            .collect();
        assert_eq!(workloads, expected);

        for (key, metrics) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = rows(key);
            assert_eq!(listed.len(), metrics.len(), "{key}");
            for (row, metric) in listed.iter().zip(metrics) {
                assert_eq!(text(&row["name"]), metric.name);
                assert_eq!(text(&row["unit"]), metric.unit);
                assert_eq!(text(&row["better"]), metric.better);
                match metric.bound {
                    Some(bound) => assert_eq!(row["bound"].as_f64(), Some(bound)),
                    None => assert_eq!(row.as_object().map(|o| o.len()), Some(3)),
                }
            }
        }
        assert_eq!(json["run_seconds"].as_f64(), Some(catalogue::RUN_SECONDS));
        assert_eq!(rows("paths"), vec![Value::String("gnf_benchmark".into())]);
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            metrics: vec![(&END_TO_END[0], 1234.5), (&END_TO_END[1], 0.25)],
            correct: true,
            error: None,
            attempted: 10,
            failed: 0,
            ..Outcome::failed(Kind::WebReplay, false, String::new())
        };
        let line = outcome.result_line();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"pkts_per_s\":{\"value\":1234.5,\"unit\":\"1/s\"},\
             \"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        let suite = suite_line(&[outcome]);
        assert!(suite.contains("\"web_replay/pkts_per_s\""), "{suite}");
    }
}
