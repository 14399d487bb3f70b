//! The emulator's one fork-join: independent work items, packed over a
//! persistent pool of worker threads and merged back in submission order.
//!
//! Determinism argument: the items are independent (each owns its state),
//! every result is tagged with the index of the item that produced it and
//! put back in that order, and the packing is a pure function of
//! `(weights, workers)` — so neither the thread interleaving nor the worker
//! count can be observed in the returned vector. Worker count and the
//! break-even only change wall-clock time.

use std::cmp::Reverse;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::thread::{self, JoinHandle};

/// One bin of one map, boxed so a helper serves every item type. It sends
/// its own results (or its panic payload) down the map's result channel.
type Job = Box<dyn FnOnce() + Send>;

/// A long-lived worker thread and the channel that feeds it.
struct Helper {
    jobs: Sender<Job>,
    thread: JoinHandle<()>,
}

/// A fork-join pool whose helper threads live as long as it does.
///
/// A fresh pool owns no thread. [`WorkerPool::map`] spawns helpers the
/// first time a map fans out, and only as many as that map needs, so a
/// pool that is only ever asked for one worker — or for work below its
/// break-even — never spawns one. The caller's thread is always a worker
/// too: it runs the first bin itself while the helpers run the others.
/// Dropping the pool closes the job channels and joins every helper.
///
/// Work travels as owned items over `std::sync::mpsc` channels — one job
/// channel per helper, one result channel per map — so nothing is shared
/// and no item may borrow from the caller.
#[derive(Default)]
pub struct WorkerPool {
    helpers: Vec<Helper>,
}

impl WorkerPool {
    /// A pool with no threads yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Helper threads spawned so far (the caller's thread not counted).
    pub fn helper_threads(&self) -> usize {
        self.helpers.len()
    }

    /// Runs `f` over every item and returns the results in submission order.
    ///
    /// Everything runs inline on the caller's thread, `f` item by item,
    /// when `workers <= 1`, when there is at most one item, or when the
    /// items' total `weight` is below `break_even` — the work too small to
    /// pay for a hand-off. Otherwise the items are LPT-packed by weight —
    /// heaviest first into the least-loaded bin — into
    /// `min(workers, items.len())` bins; the caller runs bin 0 and a helper
    /// each of the others. Returns whether the map fanned out, with the
    /// results.
    ///
    /// A panic inside `f` is re-raised on the caller's thread with its
    /// original payload once every bin has finished (the lowest bin's, if
    /// several panicked). The helpers survive it: the pool keeps answering.
    pub fn map<T, R, F>(
        &mut self,
        items: Vec<T>,
        workers: usize,
        break_even: u64,
        weight: impl Fn(&T) -> u64,
        f: F,
    ) -> (Vec<R>, bool)
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Clone + Send + 'static,
    {
        if workers <= 1 || items.len() <= 1 {
            return (items.into_iter().map(f).collect(), false);
        }
        let weights: Vec<u64> = items.iter().map(weight).collect();
        if weights.iter().sum::<u64>() < break_even {
            return (items.into_iter().map(f).collect(), false);
        }
        let count = items.len();
        let bins = workers.min(count);
        let mut packed: Vec<Vec<(usize, T)>> = (0..bins)
            .map(|_| Vec::with_capacity(count.div_ceil(bins)))
            .collect();
        for ((ix, item), bin) in items.into_iter().enumerate().zip(lpt_pack(weights, bins)) {
            packed[bin].push((ix, item));
        }
        self.grow(bins - 1);

        let (results, finished) = channel();
        let mut packed = packed.into_iter();
        let own = packed.next().unwrap_or_default();
        for ((bin, items), helper) in (1..).zip(packed).zip(&self.helpers) {
            let (f, results) = (f.clone(), results.clone());
            let job: Job = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(|| run_bin(items, &f)));
                // The caller waits for every bin, so its receiver is alive.
                let _ = results.send((bin, outcome));
            });
            helper
                .jobs
                .send(job)
                .expect("a helper lives as long as its pool");
        }
        // Only the jobs hold senders now: the receiver drains every bin and
        // ends when the last one has reported.
        drop(results);

        let mut out = Vec::with_capacity(count);
        let mut panicked = None;
        let mine = catch_unwind(AssertUnwindSafe(|| run_bin(own, &f)));
        for (bin, outcome) in std::iter::once((0, mine)).chain(finished.iter()) {
            match outcome {
                Ok(done) => out.extend(done),
                Err(payload) => {
                    if panicked.as_ref().is_none_or(|(first, _)| bin < *first) {
                        panicked = Some((bin, payload));
                    }
                }
            }
        }
        if let Some((_, payload)) = panicked {
            resume_unwind(payload);
        }
        out.sort_unstable_by_key(|(ix, _)| *ix);
        (out.into_iter().map(|(_, result)| result).collect(), true)
    }

    /// Spawns helpers until there are at least `helpers`.
    fn grow(&mut self, helpers: usize) {
        while self.helpers.len() < helpers {
            let (jobs, queue) = channel::<Job>();
            let thread = thread::spawn(move || {
                for job in queue {
                    job();
                }
            });
            self.helpers.push(Helper { jobs, thread });
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for Helper { jobs, thread } in self.helpers.drain(..) {
            // Closing the channel ends the helper's loop. A job catches its
            // own panic, so the join has no payload to surface.
            drop(jobs);
            let _ = thread.join();
        }
    }
}

/// Runs one bin's items, keeping each result's submission index.
fn run_bin<T, R>(items: Vec<(usize, T)>, f: &impl Fn(T) -> R) -> Vec<(usize, R)> {
    items.into_iter().map(|(ix, item)| (ix, f(item))).collect()
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
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Mutex};

    fn here<T>(_: T) -> thread::ThreadId {
        thread::current().id()
    }

    #[test]
    fn results_come_back_in_submission_order_for_any_worker_count() {
        let items: Vec<u64> = (0..23).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * i).collect();
        let mut pool = WorkerPool::new();
        for workers in [0, 1, 2, 4, 8, 23, 64] {
            let (got, fanned) = pool.map(items.clone(), workers, 0, |i| 1 + i % 5, |i| i * i);
            assert_eq!(got, expected, "workers = {workers}");
            assert_eq!(fanned, workers > 1, "workers = {workers}");
        }
        // Never more helpers than the widest map had bins, less its own.
        assert_eq!(pool.helper_threads(), 22);
        assert!(pool.map(Vec::<u64>::new(), 4, 0, |_| 1, |i| i).0.is_empty());
    }

    #[test]
    fn weights_change_the_packing_never_the_results() {
        let items: Vec<u64> = (0..40).collect();
        let expected: Vec<u64> = items.iter().map(|i| i * 3 + 1).collect();
        let weights: [fn(&u64) -> u64; 4] = [|_| 1, |i| *i, |i| 1_000 - *i, |i| i % 3 * 100];
        let mut pool = WorkerPool::new();
        for (ix, weight) in weights.into_iter().enumerate() {
            for workers in [2, 4] {
                let (got, fanned) = pool.map(items.clone(), workers, 0, weight, |i| i * 3 + 1);
                assert!(fanned);
                assert_eq!(got, expected, "weight {ix}, workers = {workers}");
            }
        }
    }

    #[test]
    fn items_move_to_the_workers_and_back() {
        let cells: Vec<Box<Vec<u64>>> = (1..=9).map(|n| Box::new(vec![n])).collect();
        let (cells, _) = WorkerPool::new().map(
            cells,
            3,
            0,
            |cell| cell[0],
            |mut cell| {
                let n = cell[0];
                cell.push(n * 10);
                cell
            },
        );
        let expected: Vec<Vec<u64>> = (1..=9).map(|n| vec![n, n * 10]).collect();
        assert_eq!(cells.into_iter().map(|c| *c).collect::<Vec<_>>(), expected);
    }

    #[test]
    fn one_worker_or_one_item_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        let mut pool = WorkerPool::new();
        for workers in [0, 1] {
            let (ids, fanned) = pool.map(vec![1, 2, 3], workers, 0, |_| 1, here);
            assert!(!fanned);
            assert!(ids.iter().all(|id| *id == caller), "workers = {workers}");
        }
        assert_eq!(pool.map(vec![1], 8, 0, |_| 1, here).0, vec![caller]);
        assert_eq!(pool.helper_threads(), 0, "nothing fanned out yet");
        // And the fan-out really leaves it: bin 0 stays, bin 1 goes.
        let (ids, fanned) = pool.map(vec![1, 2], 2, 0, |_| 1, here);
        assert!(fanned);
        assert_eq!(ids[0], caller);
        assert_ne!(ids[1], caller);
    }

    #[test]
    fn a_map_below_the_break_even_runs_on_the_callers_thread() {
        let caller = thread::current().id();
        let mut pool = WorkerPool::new();
        // Total weight 6 against a break-even of 7: inline, no thread.
        let (ids, fanned) = pool.map(vec![1u64, 2, 3], 2, 7, |w| *w, here);
        assert!(!fanned);
        assert!(ids.iter().all(|id| *id == caller));
        assert_eq!(pool.helper_threads(), 0);
        // Total weight 7 reaches it. LPT puts the 4 in bin 0 (the caller's)
        // and the 1 and the 2 in bin 1 (the helper's).
        let (ids, fanned) = pool.map(vec![1u64, 2, 4], 2, 7, |w| *w, here);
        assert!(fanned);
        assert_eq!(pool.helper_threads(), 1);
        assert_eq!(ids[2], caller);
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[0], caller);
    }

    #[test]
    fn a_thousand_maps_reuse_the_same_helpers() {
        let caller = thread::current().id();
        let mut pool = WorkerPool::new();
        let mut helpers = HashSet::new();
        for _ in 0..1_000 {
            let (ids, fanned) = pool.map((0..6).collect::<Vec<u64>>(), 3, 0, |_| 1, here);
            assert!(fanned);
            helpers.extend(ids.into_iter().filter(|id| *id != caller));
        }
        assert_eq!(helpers.len(), 2, "workers − 1 helpers ran every bin");
        assert_eq!(pool.helper_threads(), 2);
    }

    thread_local! {
        /// Lives until its thread exits; dropped by the thread's exit.
        static HELD: RefCell<Vec<Arc<()>>> = const { RefCell::new(Vec::new()) };
    }

    #[test]
    fn dropping_the_pool_joins_its_threads() {
        let caller = thread::current().id();
        let token = Arc::new(());
        let mut pool = WorkerPool::new();
        let held = Arc::clone(&token);
        let (_, fanned) = pool.map(
            vec![0u8; 4],
            4,
            0,
            |_| 1,
            move |_| {
                // Each helper parks a clone in a thread-local, which only its
                // thread's exit drops.
                if thread::current().id() != caller {
                    HELD.with(|h| h.borrow_mut().push(Arc::clone(&held)));
                }
            },
        );
        assert!(fanned);
        assert_eq!(Arc::strong_count(&token), 4, "three helpers hold a clone");
        drop(pool);
        assert_eq!(
            Arc::strong_count(&token),
            1,
            "every helper thread has exited by the time drop returns"
        );
    }

    #[test]
    fn a_panicking_item_surfaces_its_own_message() {
        let mut pool = WorkerPool::new();
        let finished = Arc::new(AtomicUsize::new(0));
        let (go, wait) = mpsc::channel::<()>();
        let wait = Arc::new(Mutex::new(wait));
        let counter = Arc::clone(&finished);
        // Equal weights pack round-robin: items 1 and 3 on the caller (bin
        // 0), 2 and 4 on the helper. Item 2 waits until item 3 has started
        // to panic, so the helper's bin provably ends after the panic.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.map(
                vec![1u32, 2, 3, 4],
                2,
                0,
                |_| 1,
                move |i| {
                    if i == 2 {
                        wait.lock()
                            .expect("no panic holds it")
                            .recv()
                            .expect("item 3 signals");
                    }
                    if i == 3 {
                        go.send(()).expect("item 2 waits");
                        panic!("item {i} exploded");
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                    i
                },
            )
        }));
        let payload = outcome.expect_err("the panic reaches the caller");
        let message = payload
            .downcast_ref::<String>()
            .expect("a formatted panic carries a String");
        assert_eq!(message, "item 3 exploded");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            3,
            "items 1, 2 and 4 finished before the panic was re-raised"
        );
        // A helper's own panic reaches the caller the same way, and the
        // pool keeps answering after both.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            pool.map(
                vec![1u32, 2],
                2,
                0,
                |_| 1,
                |i| {
                    assert!(i != 2, "helper item {i} exploded");
                    i
                },
            )
        }));
        let payload = outcome.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("helper item 2 exploded")
        );
        assert_eq!(
            pool.map(vec![5u32, 6, 7], 2, 0, |_| 1, |i| i + 1).0,
            vec![6, 7, 8]
        );
        assert_eq!(pool.helper_threads(), 1);
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
            // And a pool map over the same inputs keeps submission order.
            let tagged: Vec<(usize, u64)> = weights.iter().copied().enumerate().collect();
            let (echoed, _) = WorkerPool::new().map(tagged.clone(), workers, 0, |(_, w)| *w, |item| item);
            prop_assert_eq!(echoed, tagged);
        }
    }
}
