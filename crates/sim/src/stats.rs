//! Measurement primitives used by experiments, telemetry and the UI: counters,
//! gauges, summary statistics, quantile-capable histograms and time series.

use gnf_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// Streaming summary statistics (count / sum / min / max / mean / stddev)
/// using Welford's online algorithm.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation (0 when fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let combined = self.count + other.count;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / combined as f64;
        self.m2 +=
            other.m2 + delta * delta * self.count as f64 * other.count as f64 / combined as f64;
        self.mean = new_mean;
        self.count = combined;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A histogram that stores every sample (experiments here involve at most a
/// few hundred thousand observations) and answers exact quantile queries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    samples: Vec<f64>,
    summary: Summary,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        self.samples.push(value);
        self.summary.record(value);
    }

    /// Records a duration in milliseconds (the unit the experiment tables
    /// report).
    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_millis_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Summary statistics of the observations.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// The exact q-quantile (0 ≤ q ≤ 1) using nearest-rank interpolation;
    /// 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let q = q.clamp(0.0, 1.0);
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// Median observation.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th-percentile observation.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Mean observation.
    pub fn mean(&self) -> f64 {
        self.summary.mean()
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.summary.max()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.summary.min()
    }

    /// All raw samples, in insertion order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A time series of (time, value) points, e.g. per-station CPU load over a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a point. Out-of-order points are accepted but flagged by
    /// `is_monotonic`.
    pub fn push(&mut self, time: SimTime, value: f64) {
        self.points.push((time, value));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }

    /// True when timestamps never decrease.
    pub fn is_monotonic(&self) -> bool {
        self.points.windows(2).all(|w| w[0].0 <= w[1].0)
    }

    /// Average of the values (ignoring spacing), 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Maximum value, 0 when empty.
    pub fn max(&self) -> f64 {
        self.points
            .iter()
            .map(|(_, v)| *v)
            .fold(0.0f64, |a, b| a.max(b))
    }
}

/// Helper to compute a rate (events per second) over a window.
pub fn rate_per_second(events: u64, window: SimDuration) -> f64 {
    let secs = window.as_secs_f64();
    if secs <= 0.0 {
        0.0
    } else {
        events as f64 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.add(1);
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn summary_statistics_match_direct_computation() {
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = Summary::new();
        for v in values {
            s.record(v);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn empty_summary_reports_zeros() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn summary_merge_equals_single_stream() {
        let mut all = Summary::new();
        let mut a = Summary::new();
        let mut b = Summary::new();
        for i in 0..100 {
            let v = (i as f64).sin() * 10.0 + 20.0;
            all.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.std_dev() - all.std_dev()).abs() < 1e-9);
        assert!((a.min() - all.min()).abs() < 1e-12);

        let mut empty = Summary::new();
        empty.merge(&all);
        assert_eq!(empty.count(), all.count());
        let mut other = all.clone();
        other.merge(&Summary::new());
        assert_eq!(other.count(), all.count());
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert!((h.median() - 50.5).abs() < 1e-9);
        assert!((h.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((h.quantile(1.0) - 100.0).abs() < 1e-9);
        assert!(h.p99() > 98.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.median(), 0.0);
        assert_eq!(h.quantile(0.9), 0.0);
    }

    #[test]
    fn histogram_records_durations_in_milliseconds() {
        let mut h = Histogram::new();
        h.record_duration(SimDuration::from_millis(250));
        h.record_duration(SimDuration::from_secs(1));
        assert_eq!(h.count(), 2);
        assert!((h.max() - 1000.0).abs() < 1e-9);
        assert!((h.min() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_cdf_is_monotonic() {
        let mut h = Histogram::new();
        for i in 0..1000 {
            h.record((i % 37) as f64);
        }
        let cdf: Vec<f64> = (0..=20).map(|i| h.quantile(f64::from(i) / 20.0)).collect();
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(cdf[20], h.max());
    }

    #[test]
    fn time_series_statistics() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0), 0.0);
        ts.push(SimTime::from_secs(10), 1.0);
        ts.push(SimTime::from_secs(20), 0.5);
        assert_eq!(ts.len(), 3);
        assert!(ts.is_monotonic());
        assert_eq!(ts.last(), Some(0.5));
        assert!((ts.mean() - 0.5).abs() < 1e-12);
        assert_eq!(ts.max(), 1.0);
    }

    #[test]
    fn non_monotonic_series_is_detected() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(5), 1.0);
        ts.push(SimTime::from_secs(3), 2.0);
        assert!(!ts.is_monotonic());
    }

    #[test]
    fn rate_helper() {
        assert_eq!(rate_per_second(100, SimDuration::from_secs(10)), 10.0);
        assert_eq!(rate_per_second(5, SimDuration::ZERO), 0.0);
    }
}
