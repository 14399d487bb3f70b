//! Property-based tests for the simulation kernel: the event queue must be a
//! total order over (time, insertion sequence), the clock must never move
//! backwards, and the statistics must agree with brute-force computation.

use gnf_sim::{EventQueue, Histogram, Rng, Summary};
use gnf_types::SimTime;
use proptest::prelude::*;

proptest! {
    #[test]
    fn queue_pops_in_nondecreasing_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(*t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0usize;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last, "time went backwards");
            prop_assert!(q.now() == ev.time);
            last = ev.time;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    #[test]
    fn equal_times_preserve_insertion_order(n in 1usize..200, t in 0u64..1_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_millis(t), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        let expected: Vec<usize> = (0..n).collect();
        prop_assert_eq!(order, expected);
    }

    /// The laned queue is observationally a single heap: any interleaving
    /// of `schedule_at`, `schedule_sorted` (sorted, raw, constant-time and —
    /// once pops have moved the clock — past-time runs), `schedule_timer`
    /// (re-arms one period after now, and arbitrary, out-of-order and
    /// past times) and `pop_until` pops the sequence a reference queue pops
    /// when it is fed the same events through `schedule_at` only.
    #[test]
    fn sorted_lane_pops_exactly_like_schedule_at_only(
        ops in proptest::collection::vec(
            (0u8..7, 0u64..400, proptest::collection::vec(0u64..400, 0..12)),
            1..40,
        )
    ) {
        let mut lanes: EventQueue<u32> = EventQueue::new();
        let mut reference: EventQueue<u32> = EventQueue::new();
        let mut next_event = 0u32;
        let mut tag = |times: Vec<u64>| -> Vec<(SimTime, u32)> {
            times
                .into_iter()
                .map(|t| {
                    next_event += 1;
                    (SimTime::from_millis(t), next_event)
                })
                .collect()
        };
        for (kind, t, mut run) in ops {
            match kind {
                0 => {
                    let (time, event) = tag(vec![t])[0];
                    lanes.schedule_at(time, event);
                    reference.schedule_at(time, event);
                }
                5 | 6 => {
                    // Timers: re-arms a period after the clock (mostly in
                    // order), or raw times (out of order, past included).
                    let now = lanes.now();
                    let times = run
                        .into_iter()
                        .map(|x| if kind == 5 { now.as_nanos() / 1_000_000 + x } else { x })
                        .collect();
                    for (time, event) in tag(times) {
                        lanes.schedule_timer(time, event);
                        reference.schedule_at(time, event);
                    }
                }
                4 => {
                    // Pops move the clock, so later runs start in the past.
                    let limit = SimTime::from_millis(t);
                    loop {
                        let (got, want) = (lanes.pop_until(limit), reference.pop_until(limit));
                        prop_assert_eq!(&got, &want);
                        if got.is_none() {
                            break;
                        }
                    }
                }
                shape => {
                    match shape {
                        1 => run.sort_unstable(),
                        2 => run.fill(t),
                        _ => {} // raw: unsorted, with duplicates
                    }
                    let run = tag(run);
                    for (time, event) in &run {
                        reference.schedule_at(*time, *event);
                    }
                    lanes.schedule_sorted(run);
                }
            }
            prop_assert_eq!(lanes.len(), reference.len());
            prop_assert_eq!(lanes.is_empty(), reference.is_empty());
            prop_assert_eq!(lanes.peek_time(), reference.peek_time());
            prop_assert_eq!(lanes.now(), reference.now());
            prop_assert_eq!(lanes.scheduled_total(), reference.scheduled_total());
        }
        loop {
            let (got, want) = (lanes.pop(), reference.pop());
            prop_assert_eq!(&got, &want);
            if got.is_none() {
                break;
            }
        }
        prop_assert_eq!(lanes.processed_total(), reference.processed_total());
    }

    #[test]
    fn rng_is_deterministic_per_seed(seed in any::<u64>()) {
        let mut a = Rng::new(seed);
        let mut b = Rng::new(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn rng_bounded_draws_stay_in_bounds(seed in any::<u64>(), bound in 1u64..10_000) {
        let mut rng = Rng::new(seed);
        for _ in 0..256 {
            prop_assert!(rng.next_below(bound) < bound);
        }
    }

    #[test]
    fn summary_matches_bruteforce(values in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = Summary::new();
        for v in &values {
            s.record(*v);
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(s.count(), values.len() as u64);
        prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.min() - min).abs() < 1e-9);
        prop_assert!((s.max() - max).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_are_bounded_and_monotonic(values in proptest::collection::vec(0f64..1e6, 1..300)) {
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let mut prev = f64::NEG_INFINITY;
        for q in qs {
            let val = h.quantile(q);
            prop_assert!(val >= h.min() - 1e-9);
            prop_assert!(val <= h.max() + 1e-9);
            prop_assert!(val >= prev - 1e-9, "quantiles must be monotone in q");
            prev = val;
        }
    }
}
