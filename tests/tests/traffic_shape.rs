//! The traffic shape the packet-at-a-time station data plane rests on.
//!
//! Between `PacketBatch` and `NetworkFunction::process` the packet is the
//! only unit: a batch crosses the switch one `classify` per packet and a
//! chain one `process` call per packet. Two mechanisms that amortised over
//! same-flow packets of one batch were deleted on the strength of one
//! measured fact — a packet almost never shares its batch with an earlier
//! packet of its own flow: the batched NF path (PR 18) and the switch's
//! run grouping of consecutive same-flow packets (PR 19). This test pins
//! that fact at its source, for the two synthetic mixes the repository
//! benchmark replays (`web_replay` / `stateful_replay` and `scan_churn`).
//!
//! What it counts is an upper bound: every packet that repeats a flow of
//! its batch, adjacent or not — 2.4 % (web) and 2.7 % (attack) of the
//! packets, at this size and at the benchmark's 400 000 alike. The share
//! run grouping actually served, a packet whose *predecessor* in the batch
//! is of its flow, was 0.52 % / 0.58 % (ARCHITECTURE.md, "Measured effect
//! (batching)"). The bound below is about twice the measured upper bound.

use gnf_types::{MacAddr, SimDuration, SimTime};
use gnf_workload::{ArrivalModel, FlowSizeModel, Population, SyntheticSpec, TrafficMix, Workload};
use std::collections::HashSet;

/// Half the benchmark's packet budget: enough for the flow population to
/// reach the benchmark's concurrency (fewer concurrent flows interleave
/// less, so short runs overstate the share), small enough for a debug test.
const PACKETS: u64 = 200_000;
/// New flows per second of the benchmark's 400 000-packet web replay
/// (packets / mean flow size 36 / a 20 s arrival window).
const WEB_FLOWS_PER_SEC: f64 = 400_000.0 / 36.0 / 20.0;
/// The same for its attack replay (mean flow size 31).
const ATTACK_FLOWS_PER_SEC: f64 = 400_000.0 / 31.0 / 20.0;

/// Drains `spec` over the benchmark's replay population (4 stations, 16
/// clients) and returns `(packets, repeats)`: a repeat is a packet that
/// shares arrival time, station, MACs and five-tuple with an *earlier*
/// packet of its `next_batch()` — adjacent or not, so an upper bound on
/// what any per-station grouping could ever put behind another packet.
fn drained(spec: SyntheticSpec) -> (u64, u64) {
    let mut source = spec
        .starting_at(SimTime::from_secs(3))
        .with_packet_budget(PACKETS)
        .build(Population::synthetic(4, 4));
    let (mut packets, mut repeats) = (0u64, 0u64);
    let mut seen: HashSet<(MacAddr, MacAddr, gnf_packet::FiveTuple)> = HashSet::new();
    while let Some(batch) = source.next_batch() {
        seen.clear();
        for (_, packet) in &batch.packets {
            packets += 1;
            let Some(tuple) = packet.five_tuple() else {
                continue;
            };
            if !seen.insert((packet.src_mac(), packet.dst_mac(), tuple)) {
                repeats += 1;
            }
        }
    }
    (packets, repeats)
}

#[test]
fn same_flow_repeats_within_a_batch_stay_under_five_percent_of_the_packets() {
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
        let (packets, repeats) = drained(spec);
        println!(
            "{mix}: {repeats} of {packets} packets ({:.2} %) repeat a flow of their batch",
            repeats as f64 * 100.0 / packets as f64
        );
        assert_eq!(packets, PACKETS, "{mix}: the source spends its budget");
        assert!(
            repeats > 0,
            "{mix}: no packet repeated a flow of its batch — the generator \
             no longer produces same-flow bursts and this test measures nothing"
        );
        assert!(
            repeats * 100 < packets * 5,
            "{mix}: {repeats} of {packets} packets ({:.2} %) now share their \
             batch with an earlier packet of their own flow (it was 2.4 % web \
             / 2.7 % attack, and 0.5-0.6 % counting adjacent repeats only, \
             when the mechanisms below were removed). Two mechanisms were \
             deleted because this share is negligible: the batched NF path \
             (`NetworkFunction::process_batch`, PR 18) and the switch's run \
             grouping of consecutive same-flow packets (PR 19). Before re-adding either, re-measure on the repository \
             benchmark: this share on `web_replay`, `stateful_replay` and \
             `scan_churn` at their full 400 000-packet input, then \
             `nf.chain_ns_per_pkt`, `core.run_allocs_per_pkt` and \
             `pkts_per_s` with and without the mechanism by \
             `tools/bench_pair.py` — a batched chain fed mixed-flow batches \
             measured 1.5-1.8x slower per packet than the scalar loop, and \
             run grouping moved no end-to-end number.",
            repeats as f64 * 100.0 / packets as f64
        );
    }
}
