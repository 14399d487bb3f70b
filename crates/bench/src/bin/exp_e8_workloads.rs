//! Experiment E8 — workload diversity: the data plane under realistic
//! traffic shapes instead of hand-rolled packet loops.
//!
//! Four workloads stream through the full multi-station emulation (switch
//! classification, flow cache, megaflow wildcard cache, NF chains) via the
//! `gnf-workload` streaming source — batches are pulled one at a time, so
//! even the million-packet runs hold only the *active* flows in memory:
//!
//! * **heavy-tail-zipf** — web mix with Zipf(500, 1.2) flow sizes (elephant/
//!   mice), Poisson flow arrivals;
//! * **bursty-mmpp** — the same mix under MMPP-style on/off arrival bursts;
//! * **attack-mix** — port scans + SYN floods over a web background, steered
//!   through a blocking firewall + IDS chain;
//! * **new-flow-churn** — single-packet flows with fresh source ports, the
//!   exact-match cache's worst case and the megaflow cache's reason to exist.
//!
//! Each run prints its packet accounting and the per-workload flow-cache /
//! megaflow hit-rate breakdown. `--seed N` reproduces a run exactly,
//! `--packets N` scales it (CI smoke uses 20 000; the default is 1 000 000
//! for the heavy-tail and attack headliners), and `--capture DIR` writes each workload to `DIR/<name>.pcap` for replay.

use gnf_bench::dataplane_fixture::hundred_rule_config;
use gnf_bench::{arg_value, packets_arg, pct, section, seed_arg, ObservabilityArgs};
use gnf_core::{Emulator, RunReport, Scenario};
use gnf_edge::TrafficProfile;
use gnf_nf::firewall::{FirewallConfig, FirewallRule, PortMatch, ProtocolMatch, RuleAction};
use gnf_nf::testing::sample_specs;
use gnf_nf::{NfConfig, NfSpec};
use gnf_switch::TrafficSelector;
use gnf_types::{GnfConfig, HostClass, SimDuration, SimTime};
use gnf_workload::{
    ArrivalModel, CaptureWorkload, FlowSizeModel, GeneratorStats, Population, SyntheticSpec,
    SyntheticWorkload, TimedBatch, TraceWriter, TrafficMix, Workload,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const STATIONS: usize = 4;
const CLIENTS: usize = 16;
/// Flow arrivals are spread over this much virtual time regardless of the
/// packet budget (rates scale instead), so burst structure is budget-free.
const ARRIVAL_WINDOW_SECS: f64 = 20.0;
const START: SimTime = SimTime::from_secs(3);

/// Mirrors the generator's stats out of the emulator-owned box.
struct Probe {
    inner: SyntheticWorkload,
    shared: Arc<Mutex<GeneratorStats>>,
}

impl Workload for Probe {
    fn label(&self) -> &str {
        self.inner.label()
    }
    fn next_batch(&mut self) -> Option<TimedBatch> {
        let batch = self.inner.next_batch();
        *self.shared.lock().unwrap() = self.inner.stats();
        batch
    }
}

/// The conntrack-off 100-rule firewall (pure masks: megaflow-bypassable) —
/// the rule shape `exp_e4_dataplane`'s cache sections walk.
fn pure_firewall() -> NfSpec {
    NfSpec::new("edge-fw", NfConfig::Firewall(hundred_rule_config(false)))
}

/// The attack-facing firewall: drops privileged ports except HTTP, so port
/// scans die at the first NF while SYN floods reach the IDS behind it.
fn blocking_firewall() -> NfSpec {
    let rule = |name: &str, low: u16, high: u16| FirewallRule {
        protocol: ProtocolMatch::Tcp,
        dst_port: PortMatch::Range(low, high),
        action: RuleAction::Drop,
        ..FirewallRule::any(name, RuleAction::Drop)
    };
    NfSpec::new(
        "edge-fw",
        NfConfig::Firewall(FirewallConfig {
            rules: vec![rule("low-ports", 1, 79), rule("privileged", 81, 1023)],
            default_action: RuleAction::Accept,
            track_connections: false,
            conntrack_idle_timeout_secs: 600,
        }),
    )
}

fn scenario(seed: u64, chain: &[NfSpec], duration: SimDuration) -> Scenario {
    let config = GnfConfig {
        // Fewer control events → longer uninterrupted packet runs to batch.
        agent_report_interval: SimDuration::from_secs(10),
        seed,
        ..GnfConfig::default()
    };
    let mut builder = Scenario::builder(STATIONS, HostClass::EdgeServer).with_config(config);
    // Idle profiles: the clients exist (associate, get steering) but all
    // traffic comes from the streaming workload source.
    let clients = builder.add_clients(CLIENTS, TrafficProfile::Idle);
    let mut sb = builder.with_duration(duration);
    for client in &clients {
        sb = sb.attach_policy(
            *client,
            chain.to_vec(),
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    sb.build()
}

struct Row {
    name: &'static str,
    packets: u64,
    kpps: f64,
    flow_cache_pct: f64,
    megaflow_pct: f64,
    /// Share of NF-dropped packets retired by a wildcarded drop entry
    /// (0 for mixes that drop nothing).
    drop_bypass_pct: f64,
    drop_hits: u64,
    peak_active: usize,
}

#[allow(clippy::too_many_arguments)]
fn run_workload(
    name: &'static str,
    describe: &str,
    spec: SyntheticSpec,
    chain: &[NfSpec],
    duration: SimDuration,
    seed: u64,
    capture_dir: Option<&str>,
    obs: &ObservabilityArgs,
) -> Row {
    section(&format!("E8 workload: {name} — {describe}"));
    let scenario = scenario(seed, chain, duration);
    let population = Population::from_topology(&scenario.topology);
    let budget = spec.max_packets;
    let mut emulator = Emulator::new(scenario);

    let shared = Arc::new(Mutex::new(GeneratorStats::default()));
    let probe = Probe {
        inner: spec.build(population),
        shared: Arc::clone(&shared),
    };
    match capture_dir {
        Some(dir) => {
            let path = format!("{dir}/{name}.pcap");
            let file = std::fs::File::create(&path)
                .unwrap_or_else(|e| panic!("cannot create capture file {path}: {e}"));
            let writer = TraceWriter::pcap(std::io::BufWriter::new(file))
                .expect("capture header write failed");
            println!("capturing to {path}");
            emulator.add_workload(Box::new(CaptureWorkload::new(probe, writer)));
        }
        None => emulator.add_workload(Box::new(probe)),
    }

    obs.arm(&mut emulator);
    let start = Instant::now();
    let report = emulator.run();
    let wall = start.elapsed().as_secs_f64();
    let stats = *shared.lock().unwrap();
    print_report(&report, stats, budget, wall);
    obs.write(&mut emulator);
    Row {
        name,
        packets: report.packets.generated,
        kpps: report.packets.generated as f64 / wall.max(1e-9) / 1e3,
        flow_cache_pct: report.flow_cache.hit_rate() * 100.0,
        megaflow_pct: report.megaflow.hit_rate() * 100.0,
        drop_bypass_pct: pct(
            report.megaflow.stats.drop_hits,
            report.packets.dropped_by_nf,
        ),
        drop_hits: report.megaflow.stats.drop_hits,
        peak_active: stats.peak_active_flows,
    }
}

fn print_report(report: &RunReport, stats: GeneratorStats, budget: u64, wall: f64) {
    assert_eq!(
        report.packets.generated, budget,
        "the streaming source must deliver its full packet budget within the horizon"
    );
    println!(
        "packets: {} generated | {} forwarded | {} dropped-by-NF | {} replied | {} gap",
        report.packets.generated,
        report.packets.forwarded,
        report.packets.dropped_by_nf,
        report.packets.replied_by_nf,
        report.packets.dropped_in_gap + report.packets.bypassed_in_gap,
    );
    println!(
        "flows: {} spawned, mean size {:.1} packets, peak {} active (streaming: RSS ∝ active flows, not trace size)",
        stats.flows_spawned,
        stats.packets_emitted as f64 / stats.flows_spawned.max(1) as f64,
        stats.peak_active_flows,
    );
    println!(
        "flow cache: {:.1}% hit rate ({} hits / {} misses) | megaflow: {:.1}% ({} hits, {} entries, {} masks)",
        report.flow_cache.hit_rate() * 100.0,
        report.flow_cache.stats.hits,
        report.flow_cache.stats.misses,
        report.megaflow.hit_rate() * 100.0,
        report.megaflow.stats.hits,
        report.megaflow.entries,
        report.megaflow.masks,
    );
    println!(
        "drop bypass: {} certified-drop hits over {} drop entries — {:.1}% of the {} NF drops retired at the switch",
        report.megaflow.stats.drop_hits,
        report.megaflow.stats.drop_installs,
        pct(report.megaflow.stats.drop_hits, report.packets.dropped_by_nf),
        report.packets.dropped_by_nf,
    );
    println!(
        "batches: {} (mean size {:.1}, max {}) | notifications: {} info / {} warning / {} critical",
        report.batches.batches,
        report.batches.mean_batch_size(),
        report.batches.max_batch,
        report.notifications.0,
        report.notifications.1,
        report.notifications.2,
    );
    println!(
        "wall: {:.0} ms, {:.0} kpps end-to-end",
        wall * 1e3,
        report.packets.generated as f64 / wall / 1e3
    );
}

fn main() {
    println!("E8 — trace-driven and synthetic workloads through the full emulation");
    let seed = seed_arg();
    let headline = packets_arg(1_000_000);
    let capture_dir = arg_value::<String>("--capture");
    let capture = capture_dir.as_deref();
    // Artifacts (when requested) describe the heavy-tail headline workload.
    let obs = gnf_bench::observability_args();
    let off = ObservabilityArgs::default();
    println!(
        "{STATIONS} stations x {} clients, {headline} packets per headline workload",
        CLIENTS
    );

    // Rates spread each workload's flow arrivals over the same virtual
    // window whatever the budget; the divisors are the mixes' mean flow
    // sizes (the budget itself is exact regardless).
    let rate = |mean_flow_size: f64, packets: u64| {
        (packets as f64 / mean_flow_size / ARRIVAL_WINDOW_SECS).max(1.0)
    };
    let mut rows = Vec::new();

    let heavy_sizes = FlowSizeModel::Zipf {
        max_packets: 500,
        exponent: 1.2,
    };
    rows.push(run_workload(
        "heavy-tail-zipf",
        "web mix, Zipf(500, 1.2) flow sizes (elephants/mice), Poisson arrivals",
        SyntheticSpec::new("heavy-tail-zipf", seed)
            .starting_at(START)
            .with_flow_sizes(heavy_sizes)
            .with_arrivals(ArrivalModel::Poisson {
                flows_per_sec: rate(36.0, headline),
            })
            .with_packet_budget(headline),
        &[pure_firewall()],
        SimDuration::from_secs(60),
        seed,
        capture,
        &obs,
    ));

    let bursty = (headline / 4).max(1);
    rows.push(run_workload(
        "bursty-mmpp",
        "web mix under MMPP on/off arrival bursts (25% duty cycle)",
        SyntheticSpec::new("bursty-mmpp", seed)
            .starting_at(START)
            .with_flow_sizes(heavy_sizes)
            .with_arrivals(ArrivalModel::OnOff {
                on_flows_per_sec: rate(36.0, bursty) * 4.0,
                mean_on: SimDuration::from_millis(200),
                mean_off: SimDuration::from_millis(600),
            })
            .with_packet_budget(bursty),
        &[pure_firewall()],
        SimDuration::from_secs(60),
        seed,
        capture,
        &off,
    ));

    rows.push(run_workload(
        "attack-mix",
        "port-scan + SYN-flood over a web background, firewall + IDS chain",
        SyntheticSpec::new("attack-mix", seed)
            .starting_at(START)
            .with_mix(TrafficMix::attack())
            .with_flow_sizes(FlowSizeModel::Zipf {
                max_packets: 200,
                exponent: 1.1,
            })
            .with_packet_gap(SimDuration::from_millis(5))
            .with_arrivals(ArrivalModel::Poisson {
                flows_per_sec: rate(31.0, headline),
            })
            .with_packet_budget(headline),
        &[blocking_firewall(), sample_specs()[6].clone()],
        SimDuration::from_secs(45),
        seed,
        capture,
        &off,
    ));

    let churn = (headline / 2).max(1);
    rows.push(run_workload(
        "new-flow-churn",
        "single-packet flows, fresh source port each (megaflow's workload)",
        SyntheticSpec::new("new-flow-churn", seed)
            .starting_at(START)
            .with_mix(TrafficMix::churn())
            .with_arrivals(ArrivalModel::Poisson {
                flows_per_sec: rate(1.0, churn),
            })
            .with_packet_budget(churn),
        &[pure_firewall()],
        SimDuration::from_secs(30),
        seed,
        capture,
        &off,
    ));

    // The whole point of wildcarded drop entries is the attack mix: its
    // port scans die on the firewall's deny rules in patterns the megaflow
    // cache can certify, so the drop bypass must engage. Asserted here (and
    // exercised by the CI smoke run) for any budget big enough for scan
    // patterns to repeat.
    let attack = rows
        .iter()
        .find(|r| r.name == "attack-mix")
        .expect("attack row");
    if headline >= 10_000 {
        assert!(
            attack.drop_hits > 0,
            "attack churn must ride wildcarded drop entries: {} drop hits",
            attack.drop_hits
        );
    }

    section("per-workload cache breakdown");
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "workload", "packets", "kpps", "flow-cache", "megaflow", "drop-bypass", "peak flows"
    );
    for row in &rows {
        println!(
            "{:<18} {:>10} {:>10.0} {:>11.1}% {:>11.1}% {:>11.1}% {:>12}",
            row.name,
            row.packets,
            row.kpps,
            row.flow_cache_pct,
            row.megaflow_pct,
            row.drop_bypass_pct,
            row.peak_active
        );
    }
}
