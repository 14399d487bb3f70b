//! The emulator's one fork-join: independent work items, packed over a few
//! scoped worker threads and merged back in submission order.
//!
//! Determinism argument: the items are independent (the caller hands each
//! its own `&mut` state), every result lands in the slot of the item that
//! produced it, and the packing is a pure function of `(weights, workers)` —
//! so neither the thread interleaving nor the worker count can be observed
//! in the returned vector. Worker count only changes wall-clock time.

use std::cmp::Reverse;
use std::panic::resume_unwind;

/// Runs `f` over every item and returns the results in submission order.
///
/// With `workers <= 1`, or at most one item, everything runs inline on the
/// caller's thread and `weight` is never consulted. Otherwise the items are
/// LPT-packed by `weight` — heaviest first into the least-loaded worker —
/// over `min(workers, items.len())` scoped threads. A panic inside `f` is
/// re-raised on the caller's thread with its original payload once the
/// other workers have finished.
pub fn fork_join<T: Send, R: Send>(
    items: Vec<T>,
    weight: impl Fn(&T) -> u64,
    workers: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let assignment = lpt_pack(items.iter().map(weight), workers);
    let mut results: Vec<Option<R>> = items.iter().map(|_| None).collect();
    // Each item travels with the slot its result lands in, so the merge is
    // free and submission order holds by construction.
    let mut bins: Vec<Vec<(T, &mut Option<R>)>> = (0..workers.min(items.len()))
        .map(|_| Vec::with_capacity(items.len().div_ceil(workers)))
        .collect();
    for ((item, slot), worker) in items.into_iter().zip(&mut results).zip(assignment) {
        bins[worker].push((item, slot));
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = bins
            .into_iter()
            .map(|bin| {
                scope.spawn(move || {
                    for (item, slot) in bin {
                        *slot = Some(f(item));
                    }
                })
            })
            .collect();
        for handle in handles {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every item ran on some worker"))
        .collect()
}

/// Longest-processing-time-first packing: takes the weights heaviest first
/// (stable, so equal weights keep submission order) and puts each on the
/// least-loaded of `min(workers, weights.len())` workers (lowest index on a
/// tie). Returns the worker of every item, in submission order.
///
/// Greedy placement bounds every worker's load by `mean load + max weight`.
fn lpt_pack(weights: impl IntoIterator<Item = u64>, workers: usize) -> Vec<usize> {
    let mut order: Vec<(usize, u64)> = weights.into_iter().enumerate().collect();
    order.sort_by_key(|&(_, weight)| Reverse(weight));
    let mut loads = vec![0u64; workers.min(order.len()).max(1)];
    let mut assignment = vec![0; order.len()];
    for (item, weight) in order {
        let lightest = (0..loads.len())
            .min_by_key(|&worker| loads[worker])
            .unwrap_or(0);
        loads[lightest] += weight;
        assignment[item] = lightest;
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::thread;

    #[test]
    fn results_come_back_in_submission_order_for_any_worker_count() {
        let items: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * i).collect();
        for workers in [0, 1, 2, 4, 23, 64] {
            let got = fork_join(items.clone(), |i| 1 + i % 5, workers, |i| i * i);
            assert_eq!(got, expected, "workers = {workers}");
        }
        assert!(fork_join(Vec::<u64>::new(), |_| 1, 4, |i| i).is_empty());
    }

    #[test]
    fn items_may_borrow_disjoint_mutable_state() {
        let mut cells = vec![0u64; 9];
        let items: Vec<(u64, &mut u64)> = (1..).zip(cells.iter_mut()).collect();
        let sums = fork_join(
            items,
            |(n, _)| *n,
            3,
            |(n, cell)| {
                *cell = n * 10;
                n
            },
        );
        assert_eq!(sums, (1..=9).collect::<Vec<u64>>());
        assert_eq!(cells, (1..=9).map(|n| n * 10).collect::<Vec<u64>>());
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        let here = |_: u8| thread::current().id();
        for workers in [0, 1] {
            let ids = fork_join(vec![1, 2, 3], |_| 1, workers, here);
            assert!(ids.iter().all(|id| *id == caller), "workers = {workers}");
        }
        assert_eq!(fork_join(vec![1], |_| 1, 8, here), vec![caller]);
        // And the fan-out really leaves it.
        let ids = fork_join(vec![1, 2, 3], |_| 1, 2, here);
        assert!(ids.iter().all(|id| *id != caller));
    }

    #[test]
    fn a_panicking_item_surfaces_its_own_message() {
        let outcome = std::panic::catch_unwind(|| {
            fork_join(
                vec![1u32, 2, 3, 4],
                |_| 1,
                2,
                |i| {
                    assert!(i != 3, "item {i} exploded");
                    i
                },
            )
        });
        let payload = outcome.expect_err("the worker's panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic carries a String");
        assert_eq!(message, "item 3 exploded");
    }

    #[test]
    fn packing_is_heaviest_first_least_loaded_and_stable() {
        // 9 → w0, 7 → w1, then 5 joins the lighter w1, 4 joins w0, 1 → w1.
        assert_eq!(lpt_pack([5, 9, 1, 7, 4], 2), vec![1, 0, 1, 1, 0]);
        // Equal weights keep submission order: plain round-robin.
        assert_eq!(lpt_pack([3; 7], 3), vec![0, 1, 2, 0, 1, 2, 0]);
        // Never more workers than items; degenerate inputs are fine.
        assert_eq!(lpt_pack([2, 8], 16), vec![1, 0]);
        assert_eq!(lpt_pack([4, 4], 0), vec![0, 0]);
        assert!(lpt_pack([], 4).is_empty());
    }

    proptest! {
        #[test]
        fn packing_is_pure_bounded_and_order_preserving(
            weights in proptest::collection::vec(0u64..10_000, 0..60),
            workers in 0usize..9,
        ) {
            let assignment = lpt_pack(weights.iter().copied(), workers);
            // Pure: a function of (weights, workers) alone.
            prop_assert_eq!(&assignment, &lpt_pack(weights.clone(), workers));
            prop_assert_eq!(assignment.len(), weights.len());
            let bins = workers.min(weights.len()).max(1);
            let mut loads = vec![0u64; bins];
            for (weight, worker) in weights.iter().zip(&assignment) {
                prop_assert!(*worker < bins);
                loads[*worker] += weight;
            }
            // The greedy bound: no worker above mean load + max weight.
            let total: u64 = weights.iter().sum();
            let heaviest = weights.iter().copied().max().unwrap_or(0);
            for load in loads {
                prop_assert!(load * bins as u64 <= total + heaviest * bins as u64);
            }
            // And fork_join over the same inputs keeps submission order.
            let tagged: Vec<(usize, u64)> = weights.iter().copied().enumerate().collect();
            let echoed = fork_join(tagged.clone(), |(_, w)| *w, workers, |item| item);
            prop_assert_eq!(echoed, tagged);
        }
    }
}
