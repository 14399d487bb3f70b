//! The flow flight recorder: seeded flow-sampled per-packet lifecycle
//! traces, bounded by a ring buffer.
//!
//! A deterministic hash of each flow's direction-symmetric shard hash and
//! the recorder seed decides — identically on every station and in every
//! run — whether a flow is *sampled*. Sampled flows leave
//! one [`FlowRecord`] per packet at every stage of their life:
//! ingress cache-probe path (`exact`, `megaflow-bypass`, `megaflow-drop`,
//! `slow-path`, `unsteered`), chain/NF verdict, and loss classes
//! (`gap-drop`, `gap-bypass`, `station-down`, `hairpin`) recorded by the
//! emulator. That answers "why did this flow drop during the partition"
//! post-hoc without recording every packet of every flow.

use crate::trace::{FlowRecord, TraceEvent, TraceKind, TraceScope, TraceSink};
use gnf_types::SimTime;

/// Default bound on retained flight records per recorder.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 4096;

/// Default sampling rate: one in this many flows is recorded.
pub const DEFAULT_FLIGHT_SAMPLE_RATE: u64 = 16;

/// fmix64 finalizer (splitmix/Murmur3): decorrelates the flow hash from the
/// seed so sampling picks an unbiased 1-in-N subset of flows.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A per-component flow flight recorder. Disabled by default (one branch on
/// the hot path, no allocation); when armed, records [`FlowRecord`]s for
/// the deterministic sample of flows into a bounded ring.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightRecorder {
    sink: TraceSink,
    seed: u64,
    rate: u64,
}

impl FlightRecorder {
    /// Creates an armed recorder for `scope`, sampling one in `rate` flows
    /// (a rate of 1 samples every flow), retaining up to `capacity` records.
    pub fn armed(scope: TraceScope, seed: u64, rate: u64, capacity: usize) -> Self {
        FlightRecorder {
            sink: TraceSink::buffered(scope, capacity),
            seed,
            rate: rate.max(1),
        }
    }

    /// True when the recorder is armed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// Deterministic sampling decision for a flow hash. False when the
    /// recorder is disabled, so call sites need no separate guard.
    #[inline]
    pub fn samples(&self, flow_hash: u64) -> bool {
        self.enabled() && fmix64(flow_hash ^ self.seed).is_multiple_of(self.rate)
    }

    /// Records one lifecycle stage of a sampled flow.
    pub fn record(&mut self, at: SimTime, record: FlowRecord) {
        self.sink.emit(at, TraceKind::Flow(record));
    }

    /// Drains the retained records for merging into a trace log.
    pub fn take_events(&mut self) -> Vec<TraceEvent> {
        self.sink.take_events()
    }

    /// Records rotated out by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.sink.dropped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_samples_nothing() {
        let recorder = FlightRecorder::default();
        assert!(!recorder.enabled());
        assert!(!recorder.samples(42));
    }

    #[test]
    fn sampling_is_deterministic_and_seed_dependent() {
        let a = FlightRecorder::armed(TraceScope::Station(0), 7, 4, 64);
        let b = FlightRecorder::armed(TraceScope::Station(1), 7, 4, 64);
        let c = FlightRecorder::armed(TraceScope::Station(0), 8, 4, 64);
        let sampled_a: Vec<u64> = (0..256).filter(|h| a.samples(*h)).collect();
        let sampled_b: Vec<u64> = (0..256).filter(|h| b.samples(*h)).collect();
        let sampled_c: Vec<u64> = (0..256).filter(|h| c.samples(*h)).collect();
        assert_eq!(
            sampled_a, sampled_b,
            "the same seed samples the same flows on every station"
        );
        assert_ne!(sampled_a, sampled_c, "a different seed samples differently");
        // Rate 4 over 256 hashes lands in a loose binomial band.
        assert!(
            (32..=96).contains(&sampled_a.len()),
            "1-in-4 sampling should pick roughly a quarter: {}",
            sampled_a.len()
        );
    }

    #[test]
    fn rate_one_samples_every_flow() {
        let recorder = FlightRecorder::armed(TraceScope::Run, 1, 1, 64);
        assert!((0..64).all(|h| recorder.samples(h)));
    }

    #[test]
    fn records_ride_the_bounded_ring() {
        let mut recorder = FlightRecorder::armed(TraceScope::Station(2), 1, 1, 2);
        for i in 0..3u64 {
            recorder.record(
                SimTime::from_secs(i),
                FlowRecord {
                    station: 2,
                    flow: i,
                    tuple: String::new(),
                    stage: "exact",
                    verdict: "forwarded",
                },
            );
        }
        assert_eq!(recorder.dropped(), 1);
        let events = recorder.take_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            &events[0].kind,
            TraceKind::Flow(FlowRecord { flow: 1, .. })
        ));
    }
}
