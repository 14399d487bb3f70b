//! The repository benchmark. See `README.md` beside this package.
//!
//! Driver mode (`BENCHMARK.json`'s `command`) measures one workload:
//!
//! ```text
//! gnf_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer rows with `--trace 1`. Without `--workload`
//! it runs the whole suite (`--quick` for a smoke-sized one, `--trace` to
//! add the layer run, `--check-repeat` to run everything twice and hold the
//! two against the bounds).

mod alloc;
mod catalogue;
mod e2e;
mod layers;
mod output;
mod probes;
mod spans;
mod stats;

use catalogue::{DEFAULT_SEED, END_TO_END, RUN_SECONDS};
use e2e::{Kind, Sizes};
use output::Outcome;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        check_repeat: false,
        quick: false,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                // `--trace 0|1` for the driver; a bare `--trace` means on.
                parsed.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check-repeat" => parsed.check_repeat = true,
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(parsed.seconds.is_finite() && parsed.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(parsed)
}

/// One workload, one mode: the unit the driver runs.
fn run_workload(kind: Kind, trace: bool, seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let outcome = if trace {
        layers::run(kind, seed, sizes).and_then(|traced| {
            output::write_spans(kind, &traced.recorder)
                .map_err(|error| format!("span file: {error}"))?;
            Ok(Outcome::from_layers(kind, traced))
        })
    } else {
        e2e::measure(kind, seed, sizes, seconds)
            .map(|measured| Outcome::from_measurement(kind, measured))
    };
    let outcome = outcome.unwrap_or_else(|error| Outcome::failed(kind, trace, error));
    output::print_outcome(&outcome);
    outcome
}

/// Every workload end to end; `--trace` adds each one's layer run.
fn run_suite(args: &Args, sizes: &Sizes) -> Vec<Outcome> {
    let seconds = if args.quick { 1.0 } else { args.seconds };
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    Kind::ALL
        .into_iter()
        .flat_map(|kind| modes.iter().map(move |trace| (kind, *trace)))
        .map(|(kind, trace)| run_workload(kind, trace, args.seed, seconds, sizes))
        .collect()
}

/// Holds two suites of the same code against the benchmark's own bounds:
/// host-time metrics within their bound, everything deterministic
/// identical.
fn check_repeat(first: &[Outcome], second: &[Outcome]) -> bool {
    let mut pass = true;
    println!("\n== check-repeat: two suites, same code ==");
    for (a, b) in first.iter().zip(second) {
        if a.traced {
            // Count rows and virtual-time outcomes are exact: any difference
            // between two runs of one seed is a determinism bug.
            let differing: Vec<&str> = a
                .metrics
                .iter()
                .zip(&b.metrics)
                .filter(|((metric, x), (_, y))| metric.is_exact() && x.to_bits() != y.to_bits())
                .map(|((metric, _), _)| metric.name)
                .collect();
            pass &= differing.is_empty();
            println!(
                "{:<16} {:<12} {} of the traced run's exact rows differ {differing:?}",
                a.workload.name(),
                "exact rows",
                differing.len(),
            );
            continue;
        }
        for metric in &END_TO_END {
            let (Some(x), Some(y)) = (a.value(metric.name), b.value(metric.name)) else {
                continue;
            };
            let difference = (y - x) / x;
            let worse = if metric.better == "lower" {
                difference
            } else {
                -difference
            };
            let bound = metric.bound.expect("end-to-end metrics are bounded");
            let ok = worse <= bound;
            pass &= ok;
            println!(
                "{:<16} {:<12} {:>16.6} {:>16.6} {:>+8.2} % (bound {:.0} %) {}",
                a.workload.name(),
                metric.name,
                x,
                y,
                difference * 100.0,
                bound * 100.0,
                if ok { "pass" } else { "FAIL" },
            );
        }
        let same = a.report_digest == b.report_digest && a.trace_digest == b.trace_digest;
        pass &= same;
        println!(
            "{:<16} {:<12} {:>16x} {:>16x} {}",
            a.workload.name(),
            "RunReport",
            a.report_digest,
            b.report_digest,
            if same { "identical" } else { "DIFFERENT" },
        );
    }
    pass
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("gnf_benchmark: {error}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };

    if let Some(kind) = args.workload {
        let outcome = run_workload(kind, args.trace, args.seed, args.seconds, &sizes);
        println!("{}", outcome.result_line());
        return if outcome.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    output::print_facts(
        &format!(
            "seed {} | {} s per workload | trace {} | check-repeat {} | quick {}",
            args.seed, args.seconds, args.trace, args.check_repeat, args.quick
        ),
        &sizes,
    );
    let first = run_suite(&args, &sizes);
    let mut ok = first.iter().all(|o| o.correct);
    if args.check_repeat {
        let second = run_suite(&args, &sizes);
        ok &= second.iter().all(|o| o.correct);
        ok &= check_repeat(&first, &second);
    }
    println!("{}", output::suite_line(&first));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse("--workload roam_storm --seed 1016 --seconds 3 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Kind::RoamStorm));
        assert_eq!((args.seed, args.seconds, args.trace), (1016, 3.0, true));
        let args = parse("--workload web_replay --seed 1 --seconds 10 --trace 0").unwrap();
        assert!(!args.trace);
    }

    #[test]
    fn a_bare_trace_flag_means_on_and_defaults_hold() {
        let args = parse("--trace --quick").unwrap();
        assert!(args.trace && args.quick && !args.check_repeat);
        assert_eq!(args.workload, None);
        assert_eq!((args.seed, args.seconds), (DEFAULT_SEED, RUN_SECONDS));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn the_counting_allocator_sees_heap_requests_only_while_counting() {
        let (buffer, count) = alloc::counted(|| Vec::<u8>::with_capacity(4096));
        assert!(count.allocations >= 1 && count.bytes >= 4096);
        drop(buffer);
    }
}
