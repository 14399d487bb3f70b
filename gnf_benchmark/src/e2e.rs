//! The end-to-end path: build a workload's input from the seed, run it
//! through `Emulator::run()`, check the outcome.
//!
//! Everything here goes through the emulator-level API only (`Scenario`,
//! `Emulator`, `RunReport`, the `gnf-workload` sources and NF *specs*), so
//! the end-to-end numbers survive ROADMAP items 2–3 reshaping what sits
//! underneath. The wider-surface layer probes live in `probes.rs`.

use gnf_core::{Emulator, Mobility, RunReport, Scenario};
use gnf_edge::{RoamTrace, TrafficProfile};
use gnf_nf::firewall::{
    CidrV4, FirewallConfig, FirewallRule, PortMatch, ProtocolMatch, RuleAction,
};
use gnf_nf::http_filter::HttpFilterConfig;
use gnf_nf::ids::IdsConfig;
use gnf_nf::rate_limiter::RateLimiterConfig;
use gnf_nf::{NfConfig, NfSpec};
use gnf_switch::TrafficSelector;
use gnf_telemetry::MigrationPoolTelemetry;
use gnf_types::{CellId, ClientId, GnfConfig, HostClass, MacAddr, SimDuration, SimTime, StationId};
use gnf_workload::{
    ArrivalModel, FlowSizeModel, Population, SyntheticSpec, TimedBatch, TraceWorkload, TraceWriter,
    TrafficMix, Workload,
};
use std::collections::HashMap;
use std::io::Cursor;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The five workloads. Names are permanent: later PRs are judged by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    WebReplay,
    StatefulReplay,
    ScanChurn,
    FleetSteady,
    RoamStorm,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::WebReplay,
        Kind::StatefulReplay,
        Kind::ScanChurn,
        Kind::FleetSteady,
        Kind::RoamStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WebReplay => "web_replay",
            Kind::StatefulReplay => "stateful_replay",
            Kind::ScanChurn => "scan_churn",
            Kind::FleetSteady => "fleet_steady",
            Kind::RoamStorm => "roam_storm",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Replays feed a captured pcap through `TraceWorkload`; the other two
    /// use the scenario's built-in per-client traffic profiles.
    pub fn is_replay(self) -> bool {
        matches!(
            self,
            Kind::WebReplay | Kind::StatefulReplay | Kind::ScanChurn
        )
    }
}

/// Every size a workload depends on. Frozen: changing one re-bases every
/// number measured so far, so it is a benchmark PR of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Packets in each replay trace.
    pub replay_packets: u64,
    /// Stations (= clients) of `fleet_steady`.
    pub fleet_stations: usize,
    /// Virtual seconds of `fleet_steady`.
    pub fleet_secs: u64,
    /// Clients of `roam_storm` (over [`STORM_STATIONS`] stations).
    pub storm_clients: usize,
    /// Roam waves of `roam_storm`; every client roams in every wave.
    pub storm_waves: u64,
}

impl Sizes {
    /// The sizes every recorded number uses.
    pub const FULL: Sizes = Sizes {
        replay_packets: 400_000,
        fleet_stations: 2_000,
        fleet_secs: 40,
        storm_clients: 64,
        storm_waves: 10,
    };

    /// About 1/20 of [`Sizes::FULL`], for smoke runs (`--quick`).
    pub const QUICK: Sizes = Sizes {
        replay_packets: 20_000,
        fleet_stations: 200,
        fleet_secs: 20,
        storm_clients: 32,
        storm_waves: 1,
    };
}

pub const REPLAY_STATIONS: usize = 4;
pub const REPLAY_CLIENTS: usize = 16;
pub const STORM_STATIONS: usize = 16;
/// Replay traffic starts here, after every chain is deployed: a replay must
/// lose nothing to the deploy gap.
const REPLAY_START: SimTime = SimTime::from_secs(10);
/// Flow arrivals spread over this window whatever the packet budget.
const REPLAY_ARRIVAL_SECS: f64 = 20.0;
const REPLAY_DURATION: SimDuration = SimDuration::from_secs(60);
const POLICY_AT: SimTime = SimTime::from_secs(1);
const STORM_FIRST_WAVE_SECS: u64 = 12;
const STORM_WAVE_GAP_SECS: u64 = 6;
/// Virtual time after the last wave for its migrations to complete.
const STORM_TAIL_SECS: u64 = 14;

/// A scenario variant. `Full` is the workload; the others are the twins the
/// derived per-layer rows subtract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Full,
    /// Same traffic, no NF policy attached: event loop, flush and L2
    /// forwarding only.
    NoPolicy,
    /// Same fleet and policies, no traffic and no roams: control plane and
    /// event loop.
    NoTraffic,
    /// Same scenario, nobody roams.
    NoRoam,
}

// ------------------------------------------------------------------ chains

fn firewall(name: &str, config: FirewallConfig) -> NfSpec {
    NfSpec::new(name, NfConfig::Firewall(config))
}

/// 60 TCP port-range drops + 40 /24 destination blocks, default accept: rule
/// shapes an exact-port index cannot bucket, so an uncached packet walks the
/// list. With conntrack off every verdict is a pure function of header
/// fields, which is what lets the switch certify a bypass.
fn hundred_rule_firewall(track_connections: bool) -> NfSpec {
    let mut rules = Vec::with_capacity(100);
    for i in 0..60u16 {
        rules.push(FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Range(10_000 + i * 10, 10_005 + i * 10),
            ..FirewallRule::any(format!("range-{i}"), RuleAction::Drop)
        });
    }
    for i in 0..40u8 {
        rules.push(FirewallRule::block_dst(
            format!("cidr-{i}"),
            CidrV4::new(Ipv4Addr::new(192, 168, i, 0), 24),
        ));
    }
    firewall(
        "edge-fw",
        FirewallConfig {
            rules,
            default_action: RuleAction::Accept,
            track_connections,
            conntrack_idle_timeout_secs: 600,
        },
    )
}

/// Drops privileged TCP ports except HTTP: port scans die here while SYN
/// floods towards port 80 reach the IDS behind it.
fn blocking_firewall() -> NfSpec {
    let rule = |name: &str, low: u16, high: u16| FirewallRule {
        protocol: ProtocolMatch::Tcp,
        dst_port: PortMatch::Range(low, high),
        ..FirewallRule::any(name, RuleAction::Drop)
    };
    firewall(
        "edge-fw",
        FirewallConfig {
            rules: vec![rule("low-ports", 1, 79), rule("privileged", 81, 1023)],
            default_action: RuleAction::Accept,
            track_connections: false,
            conntrack_idle_timeout_secs: 600,
        },
    )
}

/// The paper's demo firewall: conntrack on, two blocked ports.
fn client_firewall() -> NfSpec {
    firewall(
        "client-fw",
        FirewallConfig::with_rules(vec![
            FirewallRule::block_tcp_dst_port("no-ssh", 22),
            FirewallRule::block_tcp_dst_port("no-telnet", 23),
        ]),
    )
}

fn ids() -> NfSpec {
    NfSpec::new("ids", NfConfig::Ids(IdsConfig::default()))
}

/// The NF chain every client of the workload is steered through.
pub fn chain(kind: Kind) -> Vec<NfSpec> {
    match kind {
        Kind::WebReplay => vec![hundred_rule_firewall(false)],
        Kind::StatefulReplay => vec![
            hundred_rule_firewall(true),
            NfSpec::new(
                "http-filter",
                NfConfig::HttpFilter(HttpFilterConfig::block_hosts(&[
                    "ads.example",
                    "tracker.example",
                ])),
            ),
            // Never limits: the bucket work is paid, no packet is lost to it.
            NfSpec::new(
                "rate-limiter",
                NfConfig::RateLimiter(RateLimiterConfig::per_client(1e12, 1e12)),
            ),
            NfSpec::new(
                "nat",
                NfConfig::Nat {
                    public_ip: Ipv4Addr::new(198, 51, 100, 1),
                },
            ),
            ids(),
        ],
        Kind::ScanChurn => vec![blocking_firewall(), ids()],
        Kind::FleetSteady | Kind::RoamStorm => vec![client_firewall()],
    }
}

// ------------------------------------------------------------------- input

/// A captured trace, shared by every repetition that replays it.
#[derive(Clone)]
pub struct Trace {
    pub pcap: Arc<[u8]>,
    pub packets: u64,
    stations: HashMap<MacAddr, StationId>,
    clients: HashMap<MacAddr, ClientId>,
}

/// Everything `Emulator::run()` needs, built from the seed alone.
pub struct Input {
    pub scenario: Scenario,
    pub trace: Option<Trace>,
}

impl Input {
    pub fn stations(&self) -> usize {
        self.scenario.topology.cell_count()
    }

    /// Report intervals each station lives through.
    pub fn intervals(&self) -> u64 {
        self.scenario.duration.as_nanos() / self.scenario.config.agent_report_interval.as_nanos()
    }

    /// Roams the mobility trace schedules; each moves one chain.
    pub fn scheduled_roams(&self) -> usize {
        match &self.scenario.mobility {
            Mobility::Trace(trace) => trace.events().len(),
            _ => 0,
        }
    }
}

fn synthetic_spec(kind: Kind, seed: u64, packets: u64) -> SyntheticSpec {
    // The divisors are the mixes' mean flow sizes: arrivals then fill the
    // same virtual window whatever the budget (the budget itself is exact).
    let rate = |mean_flow_size: f64| ArrivalModel::Poisson {
        flows_per_sec: (packets as f64 / mean_flow_size / REPLAY_ARRIVAL_SECS).max(1.0),
    };
    let spec = SyntheticSpec::new("replay", seed)
        .starting_at(REPLAY_START)
        .with_packet_budget(packets);
    if kind == Kind::ScanChurn {
        spec.with_mix(TrafficMix::attack())
            .with_flow_sizes(FlowSizeModel::Zipf {
                max_packets: 200,
                exponent: 1.1,
            })
            .with_packet_gap(SimDuration::from_millis(5))
            .with_arrivals(rate(31.0))
    } else {
        // `web_replay` and `stateful_replay` share this spec, so their
        // traces are byte-identical.
        spec.with_mix(TrafficMix::web())
            .with_flow_sizes(FlowSizeModel::Zipf {
                max_packets: 500,
                exponent: 1.2,
            })
            .with_arrivals(rate(36.0))
    }
}

/// Drains the seeded generator into an in-memory pcap. This is the load
/// generator: it runs during set-up, never inside a timed `run()`.
pub fn capture_trace(kind: Kind, seed: u64, packets: u64, population: Population) -> Trace {
    let stations = population.stations_by_gateway();
    let clients = population.clients_by_mac();
    let mut source = synthetic_spec(kind, seed, packets).build(population);
    let mut writer =
        TraceWriter::pcap(Vec::with_capacity(packets as usize * 160)).expect("Vec sink");
    while let Some(batch) = source.next_batch() {
        for (_, packet) in &batch.packets {
            writer
                .write_record(batch.at, packet.bytes().as_ref())
                .expect("Vec sink");
        }
    }
    let written = writer.records_written();
    Trace {
        pcap: writer.into_inner().expect("Vec sink").into(),
        packets: written,
        stations,
        clients,
    }
}

fn config(kind: Kind, seed: u64) -> GnfConfig {
    // The only rollout toggles the benchmark sets are the two legs ROADMAP
    // item 3 makes default; each call goes away when its default flips.
    let config = GnfConfig::default().with_seed(seed);
    match kind {
        Kind::FleetSteady => config.with_delta_reports(true),
        Kind::RoamStorm => config.with_migration_precopy(true),
        _ => config,
    }
}

pub fn build_scenario(kind: Kind, variant: Variant, seed: u64, sizes: &Sizes) -> Scenario {
    let (stations, clients, profile, duration) = match kind {
        Kind::WebReplay | Kind::StatefulReplay | Kind::ScanChurn => (
            REPLAY_STATIONS,
            REPLAY_CLIENTS,
            TrafficProfile::Idle,
            REPLAY_DURATION,
        ),
        Kind::FleetSteady => (
            sizes.fleet_stations,
            sizes.fleet_stations,
            TrafficProfile::smartphone(),
            SimDuration::from_secs(sizes.fleet_secs),
        ),
        Kind::RoamStorm => (
            STORM_STATIONS,
            sizes.storm_clients,
            // One new flow per query: conntrack grows for the whole run, so
            // later waves move more state than earlier ones.
            TrafficProfile::DnsHeavy {
                mean_interval: SimDuration::from_millis(25),
            },
            SimDuration::from_secs(
                STORM_FIRST_WAVE_SECS
                    + STORM_WAVE_GAP_SECS * sizes.storm_waves.saturating_sub(1)
                    + STORM_TAIL_SECS,
            ),
        ),
    };
    let profile = if variant == Variant::NoTraffic {
        TrafficProfile::Idle
    } else {
        profile
    };
    let mut builder =
        Scenario::builder(stations, HostClass::EdgeServer).with_config(config(kind, seed));
    let ids = builder.add_clients(clients, profile);
    let mut builder = builder.with_duration(duration);
    if variant != Variant::NoPolicy {
        let specs = chain(kind);
        for client in &ids {
            builder =
                builder.attach_policy(*client, specs.clone(), TrafficSelector::all(), POLICY_AT);
        }
    }
    if kind == Kind::RoamStorm && !matches!(variant, Variant::NoRoam | Variant::NoTraffic) {
        // Client i starts on cell i % stations; in wave k all of them move
        // one cell over, so every station is source and target at once.
        let mut trace = RoamTrace::new();
        for wave in 0..sizes.storm_waves {
            let at = SimTime::from_secs(STORM_FIRST_WAVE_SECS + STORM_WAVE_GAP_SECS * wave);
            for (ix, client) in ids.iter().enumerate() {
                let cell = (ix as u64 + wave + 1) % stations as u64;
                trace = trace.roam(at, *client, CellId::new(cell));
            }
        }
        builder = builder.with_mobility(Mobility::Trace(trace));
    }
    builder.build()
}

/// Set-up, part one: the scenario and, for replays, the captured trace.
pub fn build_input(kind: Kind, variant: Variant, seed: u64, sizes: &Sizes) -> Input {
    let scenario = build_scenario(kind, variant, seed, sizes);
    let trace = (kind.is_replay() && variant != Variant::NoTraffic).then(|| {
        capture_trace(
            kind,
            seed,
            sizes.replay_packets,
            Population::from_topology(&scenario.topology),
        )
    });
    Input { scenario, trace }
}

// --------------------------------------------------------------- emulation

/// What a replay source saw, published when the emulator drains it.
#[derive(Debug, Default, Clone)]
pub struct ReplayStatus {
    pub exhausted: bool,
    pub malformed: u64,
    pub read_error: Option<String>,
}

/// Forwards to the `TraceWorkload` the emulator owns and publishes its
/// end-of-trace status, which is otherwise unreachable behind the box.
struct CheckedReplay {
    inner: TraceWorkload<Cursor<Arc<[u8]>>>,
    status: Arc<Mutex<ReplayStatus>>,
}

impl Workload for CheckedReplay {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn next_batch(&mut self) -> Option<TimedBatch> {
        let batch = self.inner.next_batch();
        if batch.is_none() {
            *self.status.lock().expect("status lock") = ReplayStatus {
                exhausted: true,
                malformed: self.inner.malformed_frames(),
                read_error: self.inner.read_error().map(|e| e.to_string()),
            };
        }
        batch
    }
}

pub fn open_replay(trace: &Trace) -> TraceWorkload<Cursor<Arc<[u8]>>> {
    TraceWorkload::new(
        "replay",
        Cursor::new(Arc::clone(&trace.pcap)),
        StationId::new(0),
        trace.stations.clone(),
        trace.clients.clone(),
    )
    .expect("the captured trace starts with a pcap header")
}

/// A built emulator, ready for its one `run()`.
pub struct Prepared {
    pub emulator: Emulator,
    replay: Option<Arc<Mutex<ReplayStatus>>>,
}

/// Set-up, part two: a fresh emulator with the replay source attached.
/// `threads` sets both the data-plane and the migration-pool workers.
pub fn build_emulator(input: &Input, threads: usize) -> Prepared {
    let mut emulator = Emulator::new(input.scenario.clone());
    emulator.set_workers(threads);
    emulator.set_migration_workers(threads);
    let replay = input.trace.as_ref().map(|trace| {
        let status = Arc::new(Mutex::new(ReplayStatus::default()));
        emulator.add_workload(Box::new(CheckedReplay {
            inner: open_replay(trace),
            status: Arc::clone(&status),
        }));
        status
    });
    Prepared { emulator, replay }
}

/// One repetition's result.
pub struct Rep {
    pub report: RunReport,
    pub run_secs: f64,
    pub pool: MigrationPoolTelemetry,
    pub replay: Option<ReplayStatus>,
}

/// Times `Emulator::run()` and nothing else.
pub fn run(mut prepared: Prepared) -> Rep {
    let start = Instant::now();
    let report = prepared.emulator.run();
    let run_secs = start.elapsed().as_secs_f64();
    Rep {
        report,
        run_secs,
        pool: prepared.emulator.migration_pool_telemetry(),
        replay: prepared
            .replay
            .map(|status| status.lock().expect("status lock").clone()),
    }
}

/// How many threads the threaded workload may use.
pub fn threads_for(kind: Kind) -> usize {
    if kind == Kind::RoamStorm {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2)
    } else {
        1
    }
}

// ------------------------------------------------------------------ checks

/// Operations for the failed-share rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ops {
    /// Packets offered, plus migrations started.
    pub attempted: u64,
    /// Packets that did not end forwarded / NF-dropped / NF-replied, plus
    /// migrations that did not complete. A policy drop is a correct outcome.
    pub failed: u64,
}

pub fn ops(report: &RunReport) -> Ops {
    let p = &report.packets;
    let served = p.forwarded + p.dropped_by_nf + p.replied_by_nf;
    let migrations = report.migration.total as u64;
    Ops {
        attempted: p.generated + migrations,
        failed: (p.generated - served.min(p.generated))
            + (migrations - report.migration.completed as u64),
    }
}

pub fn gap_loss(report: &RunReport) -> u64 {
    report.packets.dropped_in_gap + report.packets.bypassed_in_gap
}

/// Checks one repetition's outputs; `Err` names the first violated rule.
/// (That a workload carries traffic at all is checked by its callers: the
/// no-traffic twin legitimately carries none.)
pub fn check(input: &Input, rep: &Rep) -> Result<(), String> {
    let report = &rep.report;
    let p = &report.packets;
    let classes = p.forwarded
        + p.dropped_by_nf
        + p.replied_by_nf
        + p.dropped_in_gap
        + p.bypassed_in_gap
        + p.dropped_station_down;
    if p.generated != classes {
        return Err(format!(
            "packet conservation: {} generated != {} accounted",
            p.generated, classes
        ));
    }
    if let Some(trace) = &input.trace {
        let status = rep.replay.as_ref().ok_or("replay status missing")?;
        if !status.exhausted {
            return Err("the horizon ended before the trace did".into());
        }
        if status.malformed != 0 || status.read_error.is_some() {
            return Err(format!(
                "trace ingest: {} malformed frames, read error {:?}",
                status.malformed, status.read_error
            ));
        }
        if p.generated != trace.packets {
            return Err(format!(
                "replay delivered {} of {} packets",
                p.generated, trace.packets
            ));
        }
        if gap_loss(report) != 0 || p.dropped_station_down != 0 {
            return Err(format!(
                "a replay starts after its chains are ready, yet {} packets hit a gap",
                gap_loss(report)
            ));
        }
    }
    // Without a policy there is no chain to move.
    let roams = if input.scenario.policies.is_empty() {
        0
    } else {
        input.scheduled_roams()
    };
    if report.migration.total != roams
        || report.migration.completed != roams
        || report.migration.precopied != roams
    {
        return Err(format!(
            "{} roams scheduled: {} migrations, {} completed, {} pre-copied",
            roams, report.migration.total, report.migration.completed, report.migration.precopied
        ));
    }
    Ok(())
}

pub fn report_digest(report: &RunReport) -> u64 {
    let json = serde_json::to_string(report).expect("RunReport serializes");
    fnv1a(json.as_bytes())
}

// ------------------------------------------------------------- measurement

/// Complete set-ups (trace capture included) timed per run; later
/// repetitions reuse the last one's input and only rebuild the emulator.
const FULL_SETUPS: usize = 5;
const MIN_TIMED_REPS: usize = 3;

/// What one untraced run of a workload measured.
pub struct Measurement {
    /// Scenario + trace capture + `Emulator::new`, one sample per set-up.
    pub setup_secs: Vec<f64>,
    /// `Emulator::run()` alone, one sample per repetition after the warm-up.
    pub run_secs: Vec<f64>,
    /// Identical for every repetition, or the measurement fails.
    pub report: RunReport,
    pub report_digest: u64,
    pub trace_digest: Option<u64>,
}

/// Repeats the workload, tracing off, for `seconds` of wall time after one
/// warm-up repetition. Each repetition builds a fresh emulator and times
/// only `run()`; each is checked.
pub fn measure(kind: Kind, seed: u64, sizes: &Sizes, seconds: f64) -> Result<Measurement, String> {
    let threads = threads_for(kind);
    let mut setup_secs = Vec::new();
    let mut run_secs = Vec::new();
    let mut input: Option<Input> = None;
    let mut digest = None;
    let mut clock = Instant::now();
    for rep in 0usize.. {
        let setup = Instant::now();
        let full = rep < FULL_SETUPS;
        if full {
            // Dropped first: two traces never coexist.
            drop(input.take());
            input = Some(build_input(kind, Variant::Full, seed, sizes));
        }
        let current = input.as_ref().expect("built by the first repetition");
        let prepared = build_emulator(current, threads);
        if full {
            setup_secs.push(setup.elapsed().as_secs_f64());
        }
        let rep_result = run(prepared);
        check(current, &rep_result)?;
        if rep_result.report.packets.generated == 0 {
            return Err("the workload carried no traffic".into());
        }
        let this = report_digest(&rep_result.report);
        if *digest.get_or_insert(this) != this {
            return Err("RunReport differs between repetitions".into());
        }
        if rep == 0 {
            // The warm-up: its set-up counts, its run does not, and the
            // measuring clock starts after it.
            clock = Instant::now();
            continue;
        }
        run_secs.push(rep_result.run_secs);
        if run_secs.len() >= MIN_TIMED_REPS && clock.elapsed().as_secs_f64() >= seconds {
            return Ok(Measurement {
                setup_secs,
                run_secs,
                trace_digest: current.trace.as_ref().map(|t| fnv1a(&t.pcap)),
                report: rep_result.report,
                report_digest: this,
            });
        }
    }
    unreachable!("the repetition loop only ends by returning")
}

/// 64-bit FNV-1a, for the printed (never pinned) input and outcome digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Sizes = Sizes {
        replay_packets: 2_000,
        fleet_stations: 8,
        fleet_secs: 6,
        storm_clients: 4,
        storm_waves: 2,
    };

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn every_client_roams_in_every_wave_and_the_twins_drop_one_ingredient() {
        let storm = |variant| Input {
            scenario: build_scenario(Kind::RoamStorm, variant, 7, &TINY),
            trace: None,
        };
        let full = storm(Variant::Full);
        assert_eq!(full.scheduled_roams(), 4 * 2);
        assert_eq!(full.stations(), STORM_STATIONS);
        assert_eq!(full.scenario.policies.len(), 4);
        // Two waves: 12 s + one 6 s gap + the 14 s tail, in 2 s intervals.
        assert_eq!(full.intervals(), 16);
        assert_eq!(storm(Variant::NoRoam).scheduled_roams(), 0);
        assert_eq!(storm(Variant::NoTraffic).scheduled_roams(), 0);
        assert!(storm(Variant::NoPolicy).scenario.policies.is_empty());
        assert!(full.scenario.config.migration_precopy);
        let fleet = build_scenario(Kind::FleetSteady, Variant::Full, 7, &TINY);
        assert!(fleet.config.delta_reports && !fleet.config.migration_precopy);
    }

    #[test]
    fn the_two_web_replays_share_one_trace_and_the_seed_changes_it() {
        let population = || {
            let scenario = build_scenario(Kind::WebReplay, Variant::Full, 7, &TINY);
            Population::from_topology(&scenario.topology)
        };
        let web = capture_trace(Kind::WebReplay, 7, 500, population());
        let stateful = capture_trace(Kind::StatefulReplay, 7, 500, population());
        let reseeded = capture_trace(Kind::WebReplay, 8, 500, population());
        assert_eq!(web.packets, 500);
        assert!(web.pcap == stateful.pcap, "same seed, same bytes");
        assert!(web.pcap != reseeded.pcap, "another seed, another trace");
    }

    #[test]
    fn a_tiny_replay_runs_checks_and_fails_no_operation() {
        let input = build_input(Kind::ScanChurn, Variant::Full, 7, &TINY);
        let rep = run(build_emulator(&input, 1));
        assert_eq!(check(&input, &rep), Ok(()));
        let ops = ops(&rep.report);
        assert_eq!((ops.attempted, ops.failed), (2_000, 0));
        assert!(
            rep.report.packets.dropped_by_nf > 0,
            "scans meet the firewall"
        );
        // The same input again gives the same report, byte for byte.
        let again = run(build_emulator(&input, 1));
        assert_eq!(report_digest(&rep.report), report_digest(&again.report));
    }

    #[test]
    fn a_truncated_replay_is_caught() {
        let mut input = build_input(Kind::WebReplay, Variant::Full, 7, &TINY);
        let trace = input.trace.as_mut().expect("replays carry a trace");
        trace.pcap = trace.pcap[..trace.pcap.len() - 7].into();
        let rep = run(build_emulator(&input, 1));
        let error = check(&input, &rep).expect_err("a torn record must not pass");
        assert!(error.contains("trace ingest"), "{error}");
    }

    #[test]
    fn a_tiny_storm_completes_every_migration_and_counts_gap_loss_as_failed() {
        let input = build_input(Kind::RoamStorm, Variant::Full, 7, &TINY);
        let rep = run(build_emulator(&input, threads_for(Kind::RoamStorm)));
        assert_eq!(check(&input, &rep), Ok(()));
        assert_eq!(rep.report.migration.completed, 8);
        let ops = ops(&rep.report);
        assert_eq!(ops.attempted, rep.report.packets.generated + 8);
        assert_eq!(ops.failed, gap_loss(&rep.report));
    }
}
