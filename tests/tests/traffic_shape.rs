//! The traffic shape the single NF execution path rests on.
//!
//! A batch crosses an NF chain one `process` call per packet; there is no
//! batched NF path. That is the right design only while a
//! [`gnf_switch::DecisionRun`] — consecutive same-flow packets of one
//! flush, the only unit a batched NF path could amortise over — almost
//! always holds a single packet. This test pins that fact for the two
//! synthetic mixes the repository benchmark replays (`web_replay` /
//! `stateful_replay` and `scan_churn`), read from the `BatchFlush` trace
//! events the Agents emit.

use gnf_core::{Emulator, Scenario};
use gnf_edge::TrafficProfile;
use gnf_nf::testing::sample_specs;
use gnf_switch::TrafficSelector;
use gnf_telemetry::TraceKind;
use gnf_types::{GnfConfig, HostClass, SimDuration, SimTime};
use gnf_workload::{ArrivalModel, FlowSizeModel, Population, SyntheticSpec, TrafficMix};

/// Half the benchmark's packet budget: enough for the flow population to
/// reach the benchmark's concurrency (fewer concurrent flows interleave
/// less, so short runs overstate the share), small enough for a debug test.
const PACKETS: u64 = 200_000;
/// New flows per second of the benchmark's 400 000-packet web replay
/// (packets / mean flow size 36 / a 20 s arrival window).
const WEB_FLOWS_PER_SEC: f64 = 400_000.0 / 36.0 / 20.0;
/// The same for its attack replay (mean flow size 31).
const ATTACK_FLOWS_PER_SEC: f64 = 400_000.0 / 31.0 / 20.0;

/// The benchmark's replay fleet: 4 stations, 16 idle clients (all traffic
/// comes from the synthetic source), every client steered through a chain.
fn fleet() -> Scenario {
    let config = GnfConfig::default().with_seed(7);
    let mut builder = Scenario::builder(4, HostClass::EdgeServer).with_config(config);
    let clients = builder.add_clients(16, TrafficProfile::Idle);
    let mut sb = builder.with_duration(SimDuration::from_secs(30));
    for client in &clients {
        sb = sb.attach_policy(
            *client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    sb.build()
}

/// Runs `spec` through the traced fleet and returns `(packets, runs)`
/// summed over every `BatchFlush`.
fn flushed(spec: SyntheticSpec) -> (u64, u64) {
    let scenario = fleet();
    let population = Population::from_topology(&scenario.topology);
    let mut emulator = Emulator::new(scenario);
    emulator.enable_tracing();
    emulator.add_workload(Box::new(
        spec.starting_at(SimTime::from_secs(3))
            .with_packet_budget(PACKETS)
            .build(population),
    ));
    emulator.run();
    emulator
        .trace_log()
        .events()
        .iter()
        .fold((0, 0), |(packets, runs), event| match event.kind {
            TraceKind::BatchFlush {
                packets: p,
                runs: r,
            } => (packets + p, runs + r),
            _ => (packets, runs),
        })
}

#[test]
fn multi_packet_decision_runs_carry_under_two_percent_of_the_packets() {
    let web = SyntheticSpec::new("web", 7)
        .with_mix(TrafficMix::web())
        .with_flow_sizes(FlowSizeModel::Zipf {
            max_packets: 500,
            exponent: 1.2,
        })
        .with_arrivals(ArrivalModel::Poisson {
            flows_per_sec: WEB_FLOWS_PER_SEC,
        });
    let attack = SyntheticSpec::new("attack", 7)
        .with_mix(TrafficMix::attack())
        .with_flow_sizes(FlowSizeModel::Zipf {
            max_packets: 200,
            exponent: 1.1,
        })
        .with_packet_gap(SimDuration::from_millis(5))
        .with_arrivals(ArrivalModel::Poisson {
            flows_per_sec: ATTACK_FLOWS_PER_SEC,
        });
    for (mix, spec) in [("web", web), ("attack", attack)] {
        let (packets, runs) = flushed(spec);
        assert_eq!(packets, PACKETS, "{mix}: the trace holds every flush");
        assert!(
            runs < packets,
            "{mix}: no run held a second packet — the generator no longer \
             produces same-flow bursts and this test measures nothing"
        );
        // A run of n > 1 packets adds n - 1 to `packets - runs`, and
        // n <= 2 (n - 1): twice the difference bounds the packets that rode
        // a multi-packet run.
        let riding = 2 * (packets - runs);
        assert!(
            riding * 100 < packets * 2,
            "{mix}: up to {riding} of {packets} packets ({:.2} %) now ride a \
             multi-packet DecisionRun (it was 1.2 % when NF batching was \
             removed). Before re-adding a batched NF path, re-measure on the \
             repository benchmark: the run-length histogram of `web_replay`, \
             `stateful_replay` and `scan_churn` (sum `BatchFlush` \
             packets/runs from `--trace 1`), then `nf.chain_ns_per_pkt` and \
             `pkts_per_s` with and without the batched path by \
             `tools/bench_pair.py` — a batched chain fed mixed-flow batches \
             measured 1.5-1.8x slower per packet than the scalar loop.",
            riding as f64 * 100.0 / packets as f64
        );
    }
}
