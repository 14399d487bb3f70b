//! Order statistics for repetition samples.

/// Median, quartiles and extremes of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

/// The `q`-quantile by linear interpolation at position `q * (n + 1)`,
/// clamped to the extremes — the rule Python's `statistics.quantiles` uses
/// by default, so spreads computed here and by the driver agree.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let position = q * (n as f64 + 1.0);
    let below = (position.floor() as usize).clamp(1, n);
    let above = (below + 1).min(n);
    let fraction = (position - below as f64).clamp(0.0, 1.0);
    sorted[below - 1] + (sorted[above - 1] - sorted[below - 1]) * fraction
}

pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        n: sorted.len(),
        min: sorted[0],
        q1: quantile(&sorted, 0.25),
        median: quantile(&sorted, 0.5),
        q3: quantile(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it; below 20 samples only the median is supported.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // Per mille and whole numbers: `n * 0.1 / 100` is not exact in floats.
    [(999, 99.9), (990, 99.0), (950, 95.0), (900, 90.0)]
        .into_iter()
        .find(|(per_mille, _)| n * (1000 - per_mille) >= 10 * 1000)
        .map_or(50.0, |(_, percentile)| percentile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = summarize(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.n, s.min, s.max), (10, 1.0, 10.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn one_sample_is_its_own_summary() {
        let s = summarize(&[4.5]);
        assert_eq!((s.q1, s.median, s.q3), (4.5, 4.5, 4.5));
    }

    #[test]
    fn even_counts_average_the_middle_pair() {
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn percentile_support_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(5), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        // 150 manager ticks: 15 samples beyond p90, 7.5 beyond p95.
        assert_eq!(highest_supported_percentile(150), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }
}
