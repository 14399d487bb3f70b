//! Property-based tests over the delta-report protocol: for any sequence of
//! counter churn, agent crashes (forced resyncs) and stale-frame replays,
//! both receivers — the Manager's `MonitoringStore` and a region's
//! `RegionAggregator` — must hold a report byte-for-byte identical to the
//! full report the sender would have produced, and stale/reordered frames
//! must be rejected without touching the station's view.

use gnf_telemetry::{
    DeltaEncoder, MonitoringStore, RegionAggregator, ReportDelta, StationHealth, StationReport,
    StationStatus,
};
use gnf_types::{
    AgentId, ClientId, HostClass, ResourceSpec, ResourceUsage, SimDuration, SimTime, StationId,
};
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
    /// order: the receivers must reject it and keep their views.
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
    report_of(7)
}

fn report_of(station: u64) -> StationReport {
    StationReport {
        station: StationId::new(station),
        agent: AgentId::new(station),
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

const INTERVAL: SimDuration = SimDuration::from_secs(2);
const MISSED_FOR_OFFLINE: u32 = 3;
const HOTSPOT_THRESHOLD: f64 = 0.85;

fn store() -> MonitoringStore {
    MonitoringStore::new(INTERVAL, MISSED_FOR_OFFLINE)
}

fn region() -> RegionAggregator {
    RegionAggregator::new(0, HOTSPOT_THRESHOLD, INTERVAL, MISSED_FOR_OFFLINE)
}

/// The station's view in `store`, which must exist.
fn view(store: &MonitoringStore, station: StationId) -> &StationHealth {
    store.station(station).expect("the station has a view")
}

/// The serialized last report of a view.
fn last_bytes(view: &StationHealth) -> String {
    serde_json::to_string(view.last_report.as_ref().expect("a report arrived")).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The view's report == full report, byte for byte, at every instant, in
    /// the Manager's store and in a region's — under random churn,
    /// mid-stream crashes and stale-frame replays.
    #[test]
    fn delta_stream_reconstructs_full_reports_byte_for_byte(
        steps in proptest::collection::vec(arb_step(), 1..40),
        keyframe_interval in 0u64..6,
    ) {
        let mut live = base_report();
        let station = live.station;
        let mut encoder = DeltaEncoder::new(keyframe_interval);
        let mut store = store();
        let mut region = region();
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
            let live_bytes = serde_json::to_string(&live).unwrap();

            let frame = encoder.encode(&live);
            if step.crash {
                prop_assert!(frame.is_keyframe(), "a crash must force a keyframe");
                prop_assert!(frame.forced);
            }
            let at = live.produced_at;
            store.ingest_delta(&frame, at).expect("an in-order frame always applies");
            region.ingest_delta(&frame, at).expect("an in-order frame always applies");
            prop_assert_eq!(&last_bytes(view(&store, station)), &live_bytes);
            prop_assert_eq!(&last_bytes(view(region.store(), station)), &live_bytes);
            history.push(frame);

            if step.replay_stale && history.len() > 1 {
                // Replay an earlier frame (reordered delivery / duplicate),
                // a little later: both receivers must reject it and leave
                // the view as it was — last report, stream state, last
                // sighting and count alike.
                let stale = history[(step.value as usize) % (history.len() - 1)].clone();
                let later = at + SimDuration::from_millis(1);
                let views = |store: &MonitoringStore, region: &RegionAggregator| {
                    [store, region.store()].map(|receiver| format!("{:?}", view(receiver, station)))
                };
                let before = views(&store, &region);
                prop_assert!(
                    store.ingest_delta(&stale, later).is_err(),
                    "a stale or duplicate frame must be rejected"
                );
                prop_assert!(region.ingest_delta(&stale, later).is_err());
                prop_assert_eq!(view(&store, station).last_seen, Some(at));
                prop_assert_eq!(views(&store, &region), before);
                // ...and the next no-change frame still matches the live
                // report exactly.
                let check = encoder.encode(&live);
                store.ingest_delta(&check, later).expect("in-order frame");
                region.ingest_delta(&check, later).expect("in-order frame");
                prop_assert_eq!(&last_bytes(view(&store, station)), &live_bytes);
                prop_assert_eq!(&last_bytes(view(region.store(), station)), &live_bytes);
                history.push(check);
            }
        }

        let stats = store.stats();
        // Every crash forces a keyframe; a crash before the very first frame
        // merges with the stream-opening keyframe, so >= max, not a sum.
        prop_assert!(stats.keyframes >= crashes.max(1));
        prop_assert_eq!(stats.forced_resyncs, crashes);
        prop_assert_eq!(region.store().stats(), stats);
    }

    /// A region summary's hotspots and offline stations are what the
    /// Manager's own store derives from the same frames at the same
    /// instants: hotspots by `hotspots`, offline stations by
    /// `refresh_liveness`.
    #[test]
    fn region_summaries_flag_what_the_direct_store_flags(
        silences in proptest::collection::vec(0u8..8, 2..9),
        loads in proptest::collection::vec(0u16..1000, 2..9),
        keyframe_interval in 0u64..4,
    ) {
        let stations = silences.len().min(loads.len()) as u64;
        let mut lives: Vec<StationReport> = (0..stations).map(report_of).collect();
        let mut encoders: Vec<DeltaEncoder> =
            (0..stations).map(|_| DeltaEncoder::new(keyframe_interval)).collect();
        let mut direct = store();
        let mut region = region();
        for station in (0..stations).map(StationId::new) {
            direct.register_station(station);
            region.register_station(station);
        }
        for interval in 1..=12u64 {
            let now = SimTime::ZERO + INTERVAL * interval;
            for (s, live) in lives.iter_mut().enumerate() {
                // Station `s` falls silent after `silences[s]` intervals
                // (0 never reports; 7 reports throughout).
                if silences[s] != 7 && interval > u64::from(silences[s]) {
                    continue;
                }
                live.produced_at = now;
                live.usage.cpu_fraction =
                    f64::from((loads[s] + 97 * interval as u16) % 1000) / 1000.0;
                let frame = encoders[s].encode(live);
                direct.ingest_delta(&frame, now).expect("in-order frame");
                region.ingest_delta(&frame, now).expect("in-order frame");
            }
            let summary = region.summary(now);
            direct.refresh_liveness(now);
            let offline: Vec<StationId> = direct
                .stations()
                .filter(|view| view.last_seen.is_some() && view.status == StationStatus::Offline)
                .map(|view| view.station)
                .collect();
            prop_assert_eq!(&summary.offline, &offline);
            prop_assert_eq!(&summary.hotspots, &direct.hotspots(HOTSPOT_THRESHOLD));
        }
    }
}
