//! Time-series metrics over **virtual time**: the bounded histogram and
//! fleet-sample types behind the emulator's `--metrics-out` artifact.
//!
//! Everything here is driven by the emulator's virtual clock, never the host
//! clock, so a metrics artifact is a pure function of the scenario and its
//! seed: byte-identical from run to run, exactly like the `RunReport`.
//!
//! * [`LogHistogram`] — a log₂-bucketed, constant-memory histogram with
//!   percentile queries; the shared distribution type for switchover windows
//!   and crash-recovery times (replacing the sample-hoarding histograms those
//!   reports used to carry).
//! * [`MetricsSeries`] — the ring of fleet-wide [`MetricsSample`] snapshots
//!   taken every `metrics_interval`, exportable as CSV.

use gnf_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Number of virtual flow-hash shards the fleet sampler partitions
/// flow-cache occupancy over (the metrics CSV's `vshard*` columns). The
/// partition is fixed, so a column means the same flows in every run.
pub const VIRTUAL_SHARDS: usize = 4;

// ---------------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------------

/// Number of log₂ buckets: bucket `i` covers values in `[2^(i-1), 2^i)`
/// (bucket 0 covers `[0, 1)`), which spans `[0, 2^62)` — far beyond any
/// millisecond quantity an emulation produces.
const LOG_BUCKETS: usize = 63;

/// A constant-memory histogram over non-negative values (milliseconds in
/// every current use) with log₂ buckets and interpolated percentile queries.
///
/// Unlike [`gnf_sim::Histogram`], which stores every sample to answer exact
/// quantiles, this type is O(1) per record and O(1) total memory — the shape
/// a long-running emulation (or a real deployment) needs. Count, sum, min
/// and max are exact; quantiles are linearly interpolated inside the
/// matching power-of-two bucket and clamped to the observed `[min, max]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    counts: [u64; LOG_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; LOG_BUCKETS],
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }
}

/// Bucket index for a value: `floor(log2(v)) + 1` clamped into range, with
/// everything below 1 in bucket 0.
fn bucket_of(value: f64) -> usize {
    let v = value.max(0.0);
    if v < 1.0 {
        return 0;
    }
    let n = v as u64;
    (64 - n.leading_zeros() as usize).min(LOG_BUCKETS - 1)
}

/// Inclusive value range covered by a bucket.
fn bucket_bounds(ix: usize) -> (f64, f64) {
    if ix == 0 {
        (0.0, 1.0)
    } else {
        ((1u64 << (ix - 1)) as f64, (1u64 << ix) as f64)
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation (negative values clamp to 0).
    pub fn record(&mut self, value: f64) {
        let v = value.max(0.0);
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Records a duration in milliseconds (the unit the experiment tables
    /// report).
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0 when empty). Exact.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0 when empty). Exact.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (0 when empty). Exact.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The q-quantile (0 ≤ q ≤ 1), linearly interpolated inside the matching
    /// log₂ bucket and clamped to the observed range; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank target over the cumulative bucket counts.
        let target = (q * (self.count - 1) as f64).floor() as u64 + 1;
        let mut seen = 0u64;
        for (ix, &n) in self.counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                let (lo, hi) = bucket_bounds(ix);
                // Position of the target rank inside this bucket.
                let frac = (target - seen) as f64 / n as f64;
                let value = lo + (hi - lo) * frac;
                return value.clamp(self.min, self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median observation (interpolated).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th-percentile observation (interpolated).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// The non-empty log₂ buckets as `(lower, upper, count)` rows — what the
    /// experiment harnesses print for distribution tables.
    pub fn buckets(&self) -> Vec<(f64, f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(ix, n)| {
                let (lo, hi) = bucket_bounds(ix);
                (lo, hi, *n)
            })
            .collect()
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

// ---------------------------------------------------------------------------
// MetricsSample / MetricsSeries
// ---------------------------------------------------------------------------

/// One fleet-wide snapshot taken at a virtual-time sample boundary. Counter
/// fields are **deltas over the sample interval**; gauge fields (occupancy,
/// in-flight migrations, dead stations) are instantaneous.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSample {
    /// Virtual time of the sample boundary.
    pub at: SimTime,
    /// Forwarded packets per virtual second over the interval, in kpps.
    pub kpps: f64,
    /// Packets generated during the interval.
    pub generated: u64,
    /// Packets forwarded during the interval.
    pub forwarded: u64,
    /// Packets dropped by NF verdict during the interval.
    pub dropped_by_nf: u64,
    /// Packets dropped in a migration/deploy gap during the interval.
    pub dropped_in_gap: u64,
    /// Packets bypassed (forwarded unprocessed) in a gap during the interval.
    pub bypassed_in_gap: u64,
    /// In-flight packets lost to a crashed station during the interval.
    pub dropped_station_down: u64,
    /// Exact-match flow-cache hit rate over the interval's lookups (0 when
    /// the interval saw none).
    pub flow_hit_rate: f64,
    /// Megaflow (wildcard) hit rate over the interval's probes (0 when the
    /// interval saw none).
    pub megaflow_hit_rate: f64,
    /// Exact-match cache entries resident across the fleet.
    pub flow_entries: u64,
    /// Megaflow entries resident across the fleet.
    pub megaflow_entries: u64,
    /// Migrations currently in flight (started, not yet finished).
    pub in_flight_migrations: u64,
    /// Stations currently crashed/offline.
    pub dead_stations: u64,
    /// Fleet flow-cache occupancy partitioned over [`VIRTUAL_SHARDS`] fixed
    /// flow-hash shards.
    pub shard_occupancy: [u64; VIRTUAL_SHARDS],
}

/// The ring of [`MetricsSample`]s the emulator's virtual-time sampler fills,
/// exportable as CSV. Bounded like every other history in this module.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSeries {
    interval: SimDuration,
    samples: VecDeque<MetricsSample>,
    capacity: usize,
    dropped: u64,
}

impl MetricsSeries {
    /// Creates an empty series sampling every `interval`, retaining at most
    /// `capacity` samples.
    pub fn new(interval: SimDuration, capacity: usize) -> Self {
        MetricsSeries {
            interval,
            samples: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// The sample interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Appends a sample, rotating out (and counting) the oldest when full.
    pub fn push(&mut self, sample: MetricsSample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
            self.dropped += 1;
        }
        self.samples.push_back(sample);
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &MetricsSample> {
        self.samples.iter()
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were taken (or everything rotated out).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Samples rotated out by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the series as CSV with a fixed header row. All numbers are
    /// formatted deterministically (integers, or floats with a fixed number
    /// of decimals), so equal series render to identical bytes.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 + self.samples.len() * 96);
        out.push_str(
            "time_ms,kpps,generated,forwarded,dropped_by_nf,dropped_in_gap,bypassed_in_gap,\
             dropped_station_down,flow_hit_rate,megaflow_hit_rate,flow_entries,megaflow_entries,\
             in_flight_migrations,dead_stations",
        );
        for shard in 0..VIRTUAL_SHARDS {
            out.push_str(&format!(",vshard{shard}_occupancy"));
        }
        out.push('\n');
        for s in &self.samples {
            out.push_str(&format!(
                "{:.3},{:.3},{},{},{},{},{},{},{:.4},{:.4},{},{},{},{}",
                s.at.as_millis_f64(),
                s.kpps,
                s.generated,
                s.forwarded,
                s.dropped_by_nf,
                s.dropped_in_gap,
                s.bypassed_in_gap,
                s.dropped_station_down,
                s.flow_hit_rate,
                s.megaflow_hit_rate,
                s.flow_entries,
                s.megaflow_entries,
                s.in_flight_migrations,
                s.dead_stations,
            ));
            for occ in s.shard_occupancy {
                out.push_str(&format!(",{occ}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_exact_statistics() {
        let mut h = LogHistogram::new();
        for v in [0.5, 3.0, 12.0, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 115.5).abs() < 1e-9);
        assert!((h.mean() - 28.875).abs() < 1e-9);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn log_histogram_quantiles_are_bucket_bounded() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        // The interpolated quantile must land within one bucket (2x) of the
        // exact value and inside the observed range.
        let median = h.median();
        assert!(
            (250.0..=1000.0).contains(&median),
            "median {median} out of range"
        );
        let p99 = h.p99();
        assert!((512.0..=1000.0).contains(&p99), "p99 {p99} out of range");
        assert!(h.quantile(0.0) >= h.min());
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn log_histogram_single_value_is_exact_everywhere() {
        let mut h = LogHistogram::new();
        h.record(42.0);
        assert_eq!(h.median(), 42.0);
        assert_eq!(h.p99(), 42.0);
        assert_eq!(h.min(), 42.0);
        assert_eq!(h.max(), 42.0);
    }

    #[test]
    fn empty_log_histogram_is_safe() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.median(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn log_histogram_merge_matches_single_stream() {
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..200 {
            let v = (i * 7 % 97) as f64;
            all.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn log_histogram_serde_roundtrip() {
        let mut h = LogHistogram::new();
        h.record(17.0);
        h.record_duration(SimDuration::from_millis(250));
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }

    fn sample(at_ms: u64) -> MetricsSample {
        MetricsSample {
            at: SimTime::from_millis(at_ms),
            kpps: 1.5,
            generated: 10,
            forwarded: 9,
            dropped_by_nf: 1,
            dropped_in_gap: 0,
            bypassed_in_gap: 0,
            dropped_station_down: 0,
            flow_hit_rate: 0.75,
            megaflow_hit_rate: 0.5,
            flow_entries: 12,
            megaflow_entries: 3,
            in_flight_migrations: 1,
            dead_stations: 0,
            shard_occupancy: [3, 3, 3, 3],
        }
    }

    #[test]
    fn metrics_series_bounds_and_renders_csv() {
        let mut series = MetricsSeries::new(SimDuration::from_secs(1), 2);
        series.push(sample(1000));
        series.push(sample(2000));
        series.push(sample(3000));
        assert_eq!(series.len(), 2);
        assert_eq!(series.dropped(), 1);
        let csv = series.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 samples");
        assert!(lines[0].starts_with("time_ms,kpps,"));
        assert!(lines[0].ends_with("vshard3_occupancy"));
        assert!(lines[1].starts_with("2000.000,1.500,10,9,1,"));
        // Equal series render to identical bytes.
        let again = series.clone();
        assert_eq!(again.to_csv(), csv);
    }
}
