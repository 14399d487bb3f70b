//! Property-based tests over the delta-report protocol: for any sequence of
//! counter churn, agent crashes (forced resyncs) and stale-frame replays, the
//! receiver's reconstruction must stay byte-for-byte identical to the full
//! report the sender would have produced — and stale/reordered frames must be
//! rejected without corrupting the held state.

use gnf_telemetry::{DeltaEncoder, ReportDelta, ReportReassembler, StationReport};
use gnf_types::{AgentId, ClientId, HostClass, ResourceSpec, ResourceUsage, SimTime, StationId};
use proptest::prelude::*;

/// One step of the generated timeline: a mutation applied to the station's
/// live state, plus optional fault/adversary behaviour riding the step.
#[derive(Debug, Clone)]
struct Step {
    /// Which section to churn (see `apply_churn`); high values are no-ops,
    /// so idle reporting intervals (empty deltas) are exercised too.
    op: u8,
    /// Magnitude of the churn.
    value: u16,
    /// The agent crashes before this step's report: all soft state is lost
    /// and the encoder must force a keyframe resync.
    crash: bool,
    /// After delivering this step's frame, replay an earlier frame out of
    /// order: the reassembler must reject it and keep its reconstruction.
    replay_stale: bool,
}

fn arb_step() -> impl Strategy<Value = Step> {
    (any::<u8>(), any::<u16>(), any::<u8>(), any::<u8>()).prop_map(|(op, value, c, r)| Step {
        op,
        value,
        crash: c < 24,        // ~9% of steps crash
        replay_stale: r < 48, // ~19% of steps replay a stale frame
    })
}

fn base_report() -> StationReport {
    StationReport {
        station: StationId::new(7),
        agent: AgentId::new(7),
        produced_at: SimTime::ZERO,
        host_class: HostClass::EdgeServer,
        capacity: HostClass::EdgeServer.capacity(),
        usage: ResourceUsage::default(),
        connected_clients: Vec::new(),
        running_nfs: 0,
        cached_images: 0,
        flow_cache: Default::default(),
        megaflow: Default::default(),
        batches: Default::default(),
        chaos: Default::default(),
    }
}

/// Mutates one section of the live report, the way Agent counter paths do.
fn apply_churn(report: &mut StationReport, op: u8, value: u16) {
    let v = value as u64;
    match op % 9 {
        0 => {
            report.flow_cache.stats.hits += v;
            report.flow_cache.stats.misses += v / 3;
            report.flow_cache.entries = (value % 512) as usize;
        }
        1 => {
            report.megaflow.stats.hits += v;
            report.megaflow.entries = (value % 128) as usize;
            report.megaflow.masks = (value % 7) as usize;
        }
        2 => {
            report.connected_clients = (0..(value % 6) as u64).map(ClientId::new).collect();
        }
        3 => {
            report.running_nfs = (value % 9) as usize;
            report.cached_images = (value % 5) as usize;
        }
        4 => {
            report.usage.cpu_fraction = f64::from(value % 1000) / 1000.0;
            report.usage.memory_mb = v % 4096;
            report.usage.rx_bps = f64::from(value) * 8_000.0;
        }
        5 => {
            report.batches.batches += v / 7 + 1;
            report.batches.packets += v;
            report.batches.max_batch = report.batches.max_batch.max(v % 300);
            report.batches.size_buckets[(value % 9) as usize] += 1;
        }
        6 => {
            report.chaos.steering_churn_rules += v;
            report.chaos.cache_invalidations += v % 3;
        }
        7 => {
            // A capacity re-probe after maintenance: identity churn.
            report.capacity = ResourceSpec {
                cpu_millicores: 1000 * u64::from(value % 8 + 1),
                memory_mb: 1024 + v % 8192,
                disk_mb: 10_000,
            };
        }
        _ => {} // idle interval: nothing changed since the last report
    }
}

/// A crash wipes the station's volatile counters (what the Agent rebuilds
/// from scratch after a restart).
fn apply_crash(report: &mut StationReport) {
    report.flow_cache = Default::default();
    report.megaflow = Default::default();
    report.batches = Default::default();
    report.connected_clients.clear();
    report.running_nfs = 0;
    report.usage = ResourceUsage::default();
    report.chaos.crashes += 1;
    report.chaos.generation += 1;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// apply(delta_stream) == full report, byte for byte, at every instant —
    /// under random churn, mid-stream crashes and stale-frame replays.
    #[test]
    fn delta_stream_reconstructs_full_reports_byte_for_byte(
        steps in proptest::collection::vec(arb_step(), 1..40),
        keyframe_interval in 0u64..6,
    ) {
        let mut live = base_report();
        let mut encoder = DeltaEncoder::new(keyframe_interval);
        let mut reassembler = ReportReassembler::new();
        let mut history: Vec<ReportDelta> = Vec::new();
        let mut crashes = 0u64;

        for (ix, step) in steps.iter().enumerate() {
            if step.crash {
                apply_crash(&mut live);
                encoder.force_resync();
                crashes += 1;
            }
            apply_churn(&mut live, step.op, step.value);
            live.produced_at = SimTime::from_millis(250 * (ix as u64 + 1));

            let frame = encoder.encode(&live);
            if step.crash {
                prop_assert!(frame.is_keyframe(), "a crash must force a keyframe");
                prop_assert!(frame.forced);
            }
            let rebuilt = reassembler
                .apply(&frame)
                .expect("an in-order frame always applies");
            prop_assert_eq!(
                serde_json::to_string(&rebuilt).unwrap(),
                serde_json::to_string(&live).unwrap()
            );
            history.push(frame);

            if step.replay_stale && history.len() > 1 {
                // Replay an earlier frame (reordered delivery / duplicate):
                // the reassembler must reject it...
                let stale = history[(step.value as usize) % (history.len() - 1)].clone();
                prop_assert!(
                    reassembler.apply(&stale).is_err(),
                    "a stale or duplicate frame must be rejected"
                );
                // ...and the held reconstruction must be unharmed: the next
                // no-change frame still matches the live report exactly.
                let check = encoder.encode(&live);
                let rebuilt = reassembler.apply(&check).expect("in-order frame");
                prop_assert_eq!(
                    serde_json::to_string(&rebuilt).unwrap(),
                    serde_json::to_string(&live).unwrap()
                );
                history.push(check);
            }
        }

        let stats = reassembler.stats();
        // Every crash forces a keyframe; a crash before the very first frame
        // merges with the stream-opening keyframe, so >= max, not a sum.
        prop_assert!(stats.keyframes >= crashes.max(1));
        prop_assert_eq!(stats.forced_resyncs, crashes);
    }
}
