//! The deterministic event queue and virtual clock at the heart of the
//! emulator.
//!
//! [`EventQueue`] is a time-ordered priority queue of `(SimTime, sequence,
//! event)` entries. Ties in time are broken by insertion order (the sequence
//! number), which — together with the seeded PRNG — makes every run of a
//! scenario bit-for-bit reproducible.
//!
//! The queue is generic over the event payload so the kernel can be tested in
//! isolation and reused by any world model (the GNF emulator defines its own
//! event enum in `gnf-core`).
//!
//! # Two lanes, one order
//!
//! Entries live in one of three containers: a binary heap, which accepts
//! any time, and two FIFO lanes. The *sorted lane*, fed by
//! [`EventQueue::schedule_sorted`], holds a run whose times were already
//! non-decreasing when it was scheduled (the emulator's pre-generated
//! traffic). The *timer lane*, fed by [`EventQueue::schedule_timer`], holds
//! periodic timers: each one is re-armed one period after it fires, and
//! timers fire in time order, so their re-arms arrive in time order too
//! (the emulator's per-station report timers).
//!
//! All three draw their sequence numbers from the one counter, so every
//! entry has a unique `(time, seq)` key whichever container holds it, and a
//! lane only ever appends an entry whose key exceeds its current tail's —
//! anything else goes to the heap. Each lane is therefore sorted by key
//! front to back and its head is its minimum, the heap's head is the heap's
//! minimum, and popping the smallest of the three heads pops the global
//! minimum: the pop order is the total order by `(time, seq)`, exactly what
//! a single heap fed the same calls through [`EventQueue::schedule_at`]
//! produces. What the lanes buy is cost: an in-order entry is appended and
//! popped in `O(1)` and never deepens the heap that every other event sifts
//! through.

use gnf_types::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Internal queue entry. Ordered so that the *earliest* time pops first and,
/// within a time, the lowest sequence number pops first.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// The total-order key: unique per entry, across both lanes.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest (time, seq) wins.
        other.key().cmp(&self.key())
    }
}

/// A scheduled event popped from the queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The virtual time at which the event fires.
    pub time: SimTime,
    /// The event payload.
    pub event: E,
}

/// The sorted lane's index in [`EventQueue::lanes`].
const SORTED: usize = 0;
/// The timer lane's index in [`EventQueue::lanes`].
const TIMER: usize = 1;

/// Where the next entry in `(time, seq)` order is.
#[derive(Clone, Copy)]
enum Head {
    Heap,
    Lane(usize),
}

/// A deterministic, time-ordered event queue with a virtual clock.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// The sorted lane and the timer lane: in each, keys strictly increase
    /// front to back.
    lanes: [VecDeque<Entry<E>>; 2],
    now: SimTime,
    next_seq: u64,
    scheduled_total: u64,
    processed_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at `t = 0`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: [VecDeque::new(), VecDeque::new()],
            now: SimTime::ZERO,
            next_seq: 0,
            scheduled_total: 0,
            processed_total: 0,
        }
    }

    /// The current virtual time (the time of the most recently popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Total number of events ever scheduled.
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Total number of events popped so far.
    pub fn processed_total(&self) -> u64 {
        self.processed_total
    }

    /// Schedules an event at an absolute time. Times in the past are clamped
    /// to `now` (the event will still run, immediately, preserving causality).
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let entry = self.stamp(time, event);
        self.heap.push(entry);
    }

    /// Schedules a run of events whose times are already non-decreasing —
    /// the same clamping, sequence numbers and pop order as one
    /// [`schedule_at`](EventQueue::schedule_at) call per element, but an
    /// in-order element is appended to the sorted lane instead of being
    /// sifted into the heap. An element that is earlier than the lane's tail
    /// (an unsorted input, or one clamped to `now` behind a later tail) just
    /// takes the heap: always correct, merely not faster.
    pub fn schedule_sorted(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        for (time, event) in events {
            let entry = self.stamp(time, event);
            self.append(SORTED, entry);
        }
    }

    /// Schedules a periodic timer's firing — the same clamping, sequence
    /// number and pop order as [`schedule_at`](EventQueue::schedule_at),
    /// but an entry not earlier than the timer lane's tail is appended to
    /// it instead of being sifted into the heap. A timer re-armed one
    /// period after each firing is always in order from its second period
    /// on; an out-of-order first arming just takes the heap.
    pub fn schedule_timer(&mut self, time: SimTime, event: E) {
        let entry = self.stamp(time, event);
        self.append(TIMER, entry);
    }

    /// Appends `entry` to a lane if its key exceeds the tail's, else
    /// pushes it to the heap. Sequence numbers only grow, so the key
    /// exceeds the tail's exactly when the time does not precede it.
    fn append(&mut self, lane: usize, entry: Entry<E>) {
        match self.lanes[lane].back() {
            Some(tail) if entry.time < tail.time => self.heap.push(entry),
            _ => self.lanes[lane].push_back(entry),
        }
    }

    /// Clamps `time` to the clock and draws the next sequence number.
    fn stamp(&mut self, time: SimTime, event: E) -> Entry<E> {
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        Entry { time, seq, event }
    }

    /// The time of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.front(self.head()).map(|e| e.time)
    }

    /// The first entry of a container.
    fn front(&self, head: Head) -> Option<&Entry<E>> {
        match head {
            Head::Heap => self.heap.peek(),
            Head::Lane(lane) => self.lanes[lane].front(),
        }
    }

    /// The container holding the next entry in `(time, seq)` order (the
    /// heap when everything is empty).
    fn head(&self) -> Head {
        let mut best = (Head::Heap, self.heap.peek().map(Entry::key));
        for (lane, entries) in self.lanes.iter().enumerate() {
            if let Some(key) = entries.front().map(Entry::key) {
                if best.1.is_none_or(|min| key < min) {
                    best = (Head::Lane(lane), Some(key));
                }
            }
        }
        best.0
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.pop_from(self.head())
    }

    /// Pops the first entry of the container [`EventQueue::head`] chose.
    fn pop_from(&mut self, head: Head) -> Option<Scheduled<E>> {
        let entry = match head {
            Head::Heap => self.heap.pop(),
            Head::Lane(lane) => self.lanes[lane].pop_front(),
        }?;
        debug_assert!(entry.time >= self.now, "virtual time must not go backwards");
        self.now = entry.time;
        self.processed_total += 1;
        Some(Scheduled {
            time: entry.time,
            event: entry.event,
        })
    }

    /// Pops the next event only if it fires at or before `limit`.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<Scheduled<E>> {
        let head = self.head();
        match self.front(head) {
            Some(next) if next.time <= limit => self.pop_from(head),
            _ => None,
        }
    }

    /// Advances the clock to `time` without processing anything (used at the
    /// end of a run to account for trailing idle time). Does nothing if `time`
    /// is in the past.
    pub fn advance_to(&mut self, time: SimTime) {
        if time > self.now {
            self.now = time;
        }
    }

    /// Drops every pending event (used when a scenario is aborted).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lanes.iter_mut().for_each(VecDeque::clear);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_types::SimDuration;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(30), "c");
        q.schedule_at(SimTime::from_millis(10), "a");
        q.schedule_at(SimTime::from_millis(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_millis(30));
        assert_eq!(q.processed_total(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let popped: Vec<i32> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        let expected: Vec<i32> = (0..100).collect();
        assert_eq!(popped, expected);
    }

    #[test]
    fn clock_advances_with_pops_and_relative_scheduling_uses_it() {
        let mut q = EventQueue::new();
        q.schedule_at(q.now() + SimDuration::from_secs(5), "first");
        let first = q.pop().unwrap();
        assert_eq!(first.time, SimTime::from_secs(5));
        q.schedule_at(q.now() + SimDuration::from_secs(2), "second");
        let second = q.pop().unwrap();
        assert_eq!(second.time, SimTime::from_secs(7));
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), "late");
        q.pop();
        q.schedule_at(SimTime::from_secs(1), "early-but-clamped");
        let e = q.pop().unwrap();
        assert_eq!(e.time, SimTime::from_secs(10));
    }

    #[test]
    fn pop_until_respects_the_limit() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(3), 3);
        assert_eq!(q.pop_until(SimTime::from_secs(2)).unwrap().event, 1);
        assert!(q.pop_until(SimTime::from_secs(2)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_until(SimTime::from_secs(10)).unwrap().event, 3);
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(4));
        assert_eq!(q.now(), SimTime::from_secs(4));
        q.advance_to(SimTime::from_secs(2));
        assert_eq!(q.now(), SimTime::from_secs(4));
    }

    #[test]
    fn clear_empties_the_queue() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::ZERO, 1);
        q.schedule_at(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    fn at_secs<E>(run: impl IntoIterator<Item = (u64, E)>) -> Vec<(SimTime, E)> {
        run.into_iter()
            .map(|(s, e)| (SimTime::from_secs(s), e))
            .collect()
    }

    #[test]
    fn a_sorted_run_never_touches_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_sorted(at_secs([(1, "a"), (1, "b"), (2, "c"), (5, "d")]));
        assert!(q.heap.is_empty());
        assert_eq!(q.lanes[SORTED].len(), 4);
        // A second run continuing at or after the tail extends the lane.
        q.schedule_sorted(at_secs([(5, "e"), (9, "f")]));
        assert!(q.heap.is_empty());
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c", "d", "e", "f"]);
    }

    #[test]
    fn out_of_order_and_past_elements_fall_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(4), "clock");
        q.pop();
        // "early" precedes the tail; "past" is clamped to now = 4 s, behind
        // the 7 s tail: both take the heap and still pop in key order.
        q.schedule_sorted(at_secs([
            (7, "tail"),
            (6, "early"),
            (1, "past"),
            (7, "tie"),
        ]));
        assert_eq!(q.heap.len(), 2);
        assert_eq!(q.lanes[SORTED].len(), 2);
        let popped: Vec<(SimTime, &str)> =
            std::iter::from_fn(|| q.pop().map(|s| (s.time, s.event))).collect();
        assert_eq!(
            popped,
            at_secs([(4, "past"), (6, "early"), (7, "tail"), (7, "tie")])
        );
    }

    #[test]
    fn re_armed_timers_ride_the_timer_lane_and_pop_like_the_heap() {
        let mut q = EventQueue::new();
        // First arming staggered out of order: 2, 3 in the lane, the
        // second 2 behind the 3 takes the heap.
        q.schedule_timer(SimTime::from_secs(2), "a");
        q.schedule_timer(SimTime::from_secs(3), "b");
        q.schedule_timer(SimTime::from_secs(2), "c");
        q.schedule_at(SimTime::from_secs(2), "heap");
        q.schedule_sorted(at_secs([(2, "traffic")]));
        assert_eq!((q.lanes[TIMER].len(), q.heap.len()), (2, 2));
        let mut fired = Vec::new();
        while let Some(s) = q.pop_until(SimTime::from_secs(6)) {
            fired.push((s.time, s.event));
            // Re-arm every timer one period (4 s) later: in order from here.
            if s.event.len() == 1 {
                let heap = q.heap.len();
                q.schedule_timer(s.time + SimDuration::from_secs(4), s.event);
                assert_eq!(q.heap.len(), heap, "a re-arm never takes the heap");
            }
        }
        assert_eq!(
            fired,
            at_secs([
                (2, "a"),
                (2, "c"),
                (2, "heap"),
                (2, "traffic"),
                (3, "b"),
                (6, "a"),
                (6, "c")
            ])
        );
        // b at 7 s, a and c at 10 s: all waiting in the lane.
        assert_eq!(q.lanes[TIMER].len(), 3);
        assert!(q.heap.is_empty());
    }

    #[test]
    fn accessors_cover_both_lanes() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule_at(SimTime::from_secs(3), "heap-3");
        q.schedule_sorted(at_secs([(2, "lane-2"), (3, "lane-3")]));
        q.schedule_at(SimTime::from_secs(1), "heap-1");
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
        assert_eq!(q.scheduled_total(), 4);

        // The head is whichever lane holds the smaller (time, seq).
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop().unwrap().event, "heap-1");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(q.pop_until(SimTime::from_secs(2)).unwrap().event, "lane-2");
        assert!(q.pop_until(SimTime::from_secs(2)).is_none());
        // Same time in both lanes: insertion order decides.
        assert_eq!(q.pop().unwrap().event, "heap-3");
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));

        q.schedule_at(SimTime::from_secs(8), "heap-8");
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
        assert_eq!(q.scheduled_total(), 5);
        assert_eq!(q.processed_total(), 3);
    }
}
