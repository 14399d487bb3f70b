//! A small, deterministic pseudo-random number generator and the sampling
//! distributions the edge model needs.
//!
//! The framework deliberately does not use the `rand` crate: experiment runs
//! must be bit-reproducible from a single seed across platforms and crate
//! upgrades, and the generator must be cheaply cloneable so that every
//! component (traffic generators, mobility models, cost models) can own an
//! independent, named stream derived from the scenario seed.
//!
//! The core generator is PCG-XSH-RR 64/32 (O'Neill 2014), seeded through
//! SplitMix64.

use gnf_types::SimDuration;
use serde::{Deserialize, Serialize};

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A PCG-XSH-RR 64/32 pseudo-random number generator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rng {
    state: u64,
    increment: u64,
}

impl Rng {
    const MULTIPLIER: u64 = 6_364_136_223_846_793_005;

    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = splitmix64(&mut sm);
        let increment = splitmix64(&mut sm) | 1; // must be odd
        let mut rng = Rng { state, increment };
        // Warm up so that nearby seeds diverge immediately.
        rng.next_u32();
        rng
    }

    /// Derives an independent named stream from this generator's seed without
    /// advancing `self`. Components use this to get their own generators
    /// (`rng.derive("mobility")`, `rng.derive("traffic")`) so that adding a
    /// draw in one component does not perturb any other component's sequence.
    pub fn derive(&self, label: &str) -> Rng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325; // FNV offset basis
        for byte in label.as_bytes() {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng::new(self.state ^ h.rotate_left(17) ^ self.increment)
    }

    /// Next raw 32-bit output.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old
            .wrapping_mul(Self::MULTIPLIER)
            .wrapping_add(self.increment);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, bound)`. Returns 0 when `bound` is 0.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Lemire-style rejection to remove modulo bias.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let candidate = self.next_u64();
            if candidate >= threshold {
                return candidate % bound;
            }
        }
    }

    /// A uniform integer in `[low, high]` (inclusive). `low > high` is treated
    /// as the single value `low`.
    pub fn range_inclusive(&mut self, low: u64, high: u64) -> u64 {
        if high <= low {
            return low;
        }
        low + self.next_below(high - low + 1)
    }

    /// A Bernoulli draw with probability `p` of returning true.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Chooses a uniformly random element of a slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let ix = self.next_below(items.len() as u64) as usize;
            Some(&items[ix])
        }
    }

    /// An exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// An exponentially distributed duration with the given mean — the
    /// inter-arrival time of a Poisson process.
    pub fn exponential_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exponential(mean.as_secs_f64()))
    }
}

/// A Zipf distribution over the ranks `[0, n)` with exponent `s`, sampled by
/// inverse transform on the truncated harmonic series. Used for content and
/// domain popularity in the traffic models.
///
/// The terms `1 / k^s` and their sum are computed once, so a draw is one
/// [`Rng::next_f64`] and a walk over the table: the same float operations, in
/// the same order, as recomputing the series on every draw.
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    /// `1 / k^s` for `k` in `1..=n`.
    terms: Vec<f64>,
    /// The sum of `terms`, in order.
    harmonic: f64,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let terms: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let harmonic = terms.iter().sum();
        Zipf { terms, harmonic }
    }

    /// Draws a rank. Consumes exactly one `next_f64`, or none when there is
    /// at most one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let n = self.terms.len();
        if n <= 1 {
            return 0;
        }
        let mut target = rng.next_f64() * self.harmonic;
        for (rank, term) in self.terms.iter().enumerate() {
            target -= term;
            if target <= 0.0 {
                return rank;
            }
        }
        n - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-draw series walk `Zipf` replaced, kept as its oracle.
    fn zipf_by_series(rng: &mut Rng, n: usize, s: f64) -> usize {
        if n <= 1 {
            return 0;
        }
        let harmonic: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let mut target = rng.next_f64() * harmonic;
        for k in 1..=n {
            target -= 1.0 / (k as f64).powf(s);
            if target <= 0.0 {
                return k - 1;
            }
        }
        n - 1
    }

    #[test]
    fn same_seed_gives_same_sequence() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "sequences should differ almost everywhere");
    }

    #[test]
    fn derived_streams_are_independent_and_deterministic() {
        let root = Rng::new(7);
        let mut m1 = root.derive("mobility");
        let mut m2 = root.derive("mobility");
        let mut t = root.derive("traffic");
        assert_eq!(m1.next_u64(), m2.next_u64());
        assert_ne!(m1.next_u64(), t.next_u64());
    }

    #[test]
    fn uniform_floats_stay_in_range_and_cover_it() {
        let mut rng = Rng::new(3);
        let mut low = false;
        let mut high = false;
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            if x < 0.1 {
                low = true;
            }
            if x > 0.9 {
                high = true;
            }
        }
        assert!(low && high, "uniform draws should cover both tails");
    }

    #[test]
    fn next_below_respects_bound_and_is_roughly_uniform() {
        let mut rng = Rng::new(11);
        let mut counts = [0usize; 10];
        for _ in 0..50_000 {
            let x = rng.next_below(10) as usize;
            counts[x] += 1;
        }
        for &c in &counts {
            // Expected 5000, allow generous slack.
            assert!(
                (4000..6000).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
        assert_eq!(rng.next_below(0), 0);
        assert_eq!(rng.next_below(1), 0);
    }

    #[test]
    fn range_inclusive_handles_degenerate_ranges() {
        let mut rng = Rng::new(5);
        assert_eq!(rng.range_inclusive(7, 7), 7);
        assert_eq!(rng.range_inclusive(9, 3), 9);
        for _ in 0..1000 {
            let x = rng.range_inclusive(3, 5);
            assert!((3..=5).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = Rng::new(13);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(2.0)).sum::<f64>() / n as f64;
        assert!(
            (mean - 2.0).abs() < 0.1,
            "sample mean {mean} too far from 2.0"
        );
        assert_eq!(rng.exponential(0.0), 0.0);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = Rng::new(19);
        let zipf = Zipf::new(20, 1.0);
        let mut counts = [0usize; 20];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[5]);
        assert!(counts[0] > counts[19] * 3);
        assert_eq!(Zipf::new(1, 1.0).sample(&mut rng), 0);
        assert_eq!(Zipf::new(0, 1.0).sample(&mut rng), 0);
    }

    #[test]
    fn zipf_table_draws_exactly_what_the_series_walk_draws() {
        for n in [0, 1, 2, 8, 20] {
            for s in [0.8, 1.0, 1.1, 1.6] {
                let zipf = Zipf::new(n, s);
                // A sum in another order can differ in the last bit, which
                // moves a draw only on a boundary: pin the table itself.
                let sum: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
                assert_eq!(zipf.harmonic.to_bits(), sum.to_bits(), "n = {n}, s = {s}");
                let mut tabled = Rng::new(n as u64 * 1_000 + (s * 10.0) as u64);
                let mut series = tabled.clone();
                for draw in 0..100_000 {
                    assert_eq!(
                        zipf.sample(&mut tabled),
                        zipf_by_series(&mut series, n, s),
                        "n = {n}, s = {s}, draw {draw}"
                    );
                    assert_eq!(tabled, series, "n = {n}, s = {s}, draw {draw}");
                }
            }
        }
    }

    #[test]
    fn choose_and_shuffle() {
        let mut rng = Rng::new(29);
        let items = [1, 2, 3, 4, 5];
        for _ in 0..100 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
        assert!(rng.choose::<u32>(&[]).is_none());
    }

    #[test]
    fn duration_helpers_produce_sane_values() {
        let mut rng = Rng::new(31);
        let mean = SimDuration::from_millis(100);
        let n = 20_000;
        let total: SimDuration = (0..n).map(|_| rng.exponential_duration(mean)).sum();
        let avg_ms = total.as_millis_f64() / n as f64;
        assert!(
            (avg_ms - 100.0).abs() < 5.0,
            "mean inter-arrival {avg_ms}ms"
        );
    }

    #[test]
    fn chance_probability_is_respected() {
        let mut rng = Rng::new(37);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((2000..3000).contains(&hits));
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
