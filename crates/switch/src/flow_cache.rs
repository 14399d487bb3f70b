//! The per-flow fast path: an exact-match cache over switch decisions.
//!
//! Production software switches (OVS, which GNF builds on) get their speed
//! from an exact-match microflow cache: the first packet of a flow walks the
//! full lookup pipeline (MAC table, steering rules, selectors) and the
//! resulting decision is memoized so every later packet of the flow costs
//! one table probe — five [`gnf_types::PathHasher`] word steps over the
//! [`FlowKey`], then the bucket compare. This module is that cache for
//! [`SoftwareSwitch`].
//!
//! ## Correctness model
//!
//! A cached decision is valid only while the state it was derived from is
//! unchanged. Rather than tracking which flows each mutation affects, the
//! switch maintains coarse *generation counters*:
//!
//! * the switch's own **topology generation** — bumped whenever ports are
//!   added or removed;
//! * the steering table's **rule generation** — bumped by the
//!   [`crate::steering::SteeringTable`] on every install/repoint/remove.
//!
//! Every entry records the pair of generations it was computed under and is
//! lazily discarded on lookup when either has advanced. MAC-table changes
//! (a MAC newly learned, moved or aged out) are deliberately *not* a
//! generation: they only affect flows destined to that MAC, so each entry
//! instead records the destination's MAC→port mapping it was computed from
//! and re-validates it on lookup — client churn never evicts unrelated
//! flows. Invalidation is O(1) regardless of cache size.
//!
//! Eviction is LRU with a hard entry bound, implemented with a lazily
//! compacted use-queue (the classic "stale stamp" scheme), so both hits and
//! evictions stay amortized O(1).
//!
//! [`SoftwareSwitch`]: crate::switch::SoftwareSwitch

use crate::switch::{PortId, SwitchDecision};
use gnf_packet::FiveTuple;
pub use gnf_types::FlowCacheStats;
use gnf_types::{MacAddr, PathMap};
use std::collections::VecDeque;

/// Default maximum number of cached flows per switch.
pub const DEFAULT_FLOW_CACHE_CAPACITY: usize = 4096;

/// The exact-match key of one cached flow.
///
/// The decision depends on where the frame entered (`in_port`), the Ethernet
/// endpoints (MAC learning + steering match on MACs) and the transport
/// five-tuple (steering selectors match on protocol/port). `Ord` so
/// defensive eviction can pick a deterministic victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Ingress port of the frame.
    pub in_port: PortId,
    /// Source MAC address.
    pub src_mac: MacAddr,
    /// Destination MAC address.
    pub dst_mac: MacAddr,
    /// Transport five-tuple.
    pub tuple: FiveTuple,
}

#[derive(Debug, Clone)]
struct CacheEntry {
    decision: SwitchDecision,
    topology_generation: u64,
    steering_generation: u64,
    /// The destination MAC's port mapping the decision was derived from
    /// (`None` = unknown unicast / multicast at the time).
    dst_mapping: Option<PortId>,
    last_use: u64,
}

/// The exact-match flow cache. `repr(C)`: what a lookup reads first.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct FlowCache {
    entries: PathMap<FlowKey, CacheEntry>,
    stats: FlowCacheStats,
    use_seq: u64,
    capacity: usize,
    /// `(key, use_stamp)` pairs in touch order; stale stamps are skipped.
    use_queue: VecDeque<(FlowKey, u64)>,
}

impl Default for FlowCache {
    fn default() -> Self {
        FlowCache::with_capacity(DEFAULT_FLOW_CACHE_CAPACITY)
    }
}

impl FlowCache {
    /// Creates a cache bounded to `capacity` flows (minimum 1). The bound
    /// is not a reservation: the table allocates at its first insert and
    /// grows with the flows it holds, so an idle station's switch costs no
    /// table at all.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlowCache {
            capacity,
            entries: PathMap::default(),
            use_queue: VecDeque::new(),
            use_seq: 0,
            stats: FlowCacheStats::default(),
        }
    }

    /// Adds each live entry to `occupancy[shard_hash % occupancy.len()]`:
    /// the cache's occupancy partitioned over a fixed number of *virtual*
    /// shards by the direction-symmetric flow hash. The caller owns the
    /// partition, so a fleet sampler sums every station into one array
    /// without a buffer per station. An empty slice adds nothing.
    pub fn add_occupancy_by_virtual_shard(&self, occupancy: &mut [u64]) {
        let n = occupancy.len() as u64;
        if n == 0 {
            return;
        }
        for key in self.entries.keys() {
            occupancy[(key.tuple.shard_hash() % n) as usize] += 1;
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries (including any not yet lazily invalidated).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The counters.
    pub fn stats(&self) -> FlowCacheStats {
        self.stats
    }

    /// Looks a flow up. Returns the memoized decision when present, still
    /// valid under the given `(topology, steering)` generations, and derived
    /// from the same destination MAC→port mapping the caller observes now.
    pub fn lookup(
        &mut self,
        key: &FlowKey,
        topology_generation: u64,
        steering_generation: u64,
        dst_mapping: Option<PortId>,
    ) -> Option<SwitchDecision> {
        match self.entries.get_mut(key) {
            Some(entry)
                if entry.topology_generation == topology_generation
                    && entry.steering_generation == steering_generation
                    && entry.dst_mapping == dst_mapping =>
            {
                self.use_seq += 1;
                entry.last_use = self.use_seq;
                let decision = entry.decision.clone();
                self.touch(*key);
                self.stats.hits += 1;
                Some(decision)
            }
            Some(_) => {
                self.entries.remove(key);
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Memoizes the decision for a flow, evicting the least-recently-used
    /// entry when the capacity bound is hit.
    pub fn insert(
        &mut self,
        key: FlowKey,
        decision: SwitchDecision,
        topology_generation: u64,
        steering_generation: u64,
        dst_mapping: Option<PortId>,
    ) {
        self.use_seq += 1;
        self.entries.insert(
            key,
            CacheEntry {
                decision,
                topology_generation,
                steering_generation,
                dst_mapping,
                last_use: self.use_seq,
            },
        );
        self.touch(key);
        while self.entries.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Drops every entry (used by tests and explicit flushes).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.use_queue.clear();
    }

    fn touch(&mut self, key: FlowKey) {
        self.use_queue.push_back((key, self.use_seq));
        // Keep the queue from growing without bound under hit-heavy traffic:
        // once it is dominated by stale stamps, drop them from the front.
        if self.use_queue.len() > self.capacity.saturating_mul(4).max(64) {
            self.compact_queue();
        }
    }

    fn compact_queue(&mut self) {
        let entries = &self.entries;
        self.use_queue
            .retain(|(key, stamp)| entries.get(key).is_some_and(|e| e.last_use == *stamp));
    }

    fn evict_lru(&mut self) {
        while let Some((key, stamp)) = self.use_queue.pop_front() {
            let is_current = self
                .entries
                .get(&key)
                .is_some_and(|entry| entry.last_use == stamp);
            if is_current {
                self.entries.remove(&key);
                self.stats.evictions += 1;
                return;
            }
            // Stale stamp: the entry was touched again later (or removed);
            // a fresher queue record exists for it.
        }
        // Queue exhausted but map non-empty (cannot happen — every insert and
        // touch pushes a record); fall back to dropping the *smallest* key —
        // not a hasher-dependent one — so the capacity bound still holds.
        if let Some(key) = self.entries.keys().min().copied() {
            self.entries.remove(&key);
            self.stats.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::Forwarding;
    use gnf_packet::IpProtocol;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    fn key(n: u16) -> FlowKey {
        FlowKey {
            in_port: PortId(0),
            src_mac: MacAddr::derived(1, 1),
            dst_mac: MacAddr::derived(2, 1),
            tuple: FiveTuple::new(
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(198, 51, 100, 1),
                IpProtocol::Tcp,
                40_000 + n,
                443,
            ),
        }
    }

    fn decision(port: u32) -> SwitchDecision {
        SwitchDecision {
            steering: None,
            forwarding: Forwarding::Unicast(PortId(port)),
        }
    }

    #[test]
    fn lookup_hits_after_insert() {
        let mut cache = FlowCache::with_capacity(8);
        assert!(cache.lookup(&key(0), 0, 0, None).is_none());
        cache.insert(key(0), decision(1), 0, 0, None);
        assert_eq!(cache.lookup(&key(0), 0, 0, None), Some(decision(1)));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn generation_advance_invalidates() {
        let mut cache = FlowCache::with_capacity(8);
        cache.insert(key(0), decision(1), 0, 0, None);
        // Steering generation moved: entry is discarded.
        assert!(cache.lookup(&key(0), 0, 1, None).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty());
        // Topology generation moved: same story.
        cache.insert(key(0), decision(1), 0, 1, None);
        assert!(cache.lookup(&key(0), 1, 1, None).is_none());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn lru_eviction_honors_the_bound() {
        let mut cache = FlowCache::with_capacity(3);
        for n in 0..3 {
            cache.insert(key(n), decision(u32::from(n)), 0, 0, None);
        }
        // Touch key 0 so key 1 becomes the least recently used.
        assert!(cache.lookup(&key(0), 0, 0, None).is_some());
        cache.insert(key(3), decision(3), 0, 0, None);
        assert_eq!(cache.len(), 3);
        assert!(
            cache.lookup(&key(1), 0, 0, None).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.lookup(&key(0), 0, 0, None).is_some());
        assert!(cache.lookup(&key(3), 0, 0, None).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn the_bound_holds_under_churn() {
        let mut cache = FlowCache::with_capacity(16);
        for n in 0..10_000u16 {
            cache.insert(key(n % 500), decision(1), 0, 0, None);
            // Re-touch a rotating subset to exercise the stale-stamp queue.
            let _ = cache.lookup(&key(n % 7), 0, 0, None);
            assert!(cache.len() <= 16);
            assert!(cache.use_queue.len() <= 16 * 4 + 1);
        }
    }

    #[test]
    fn flood_decisions_are_cacheable() {
        let mut cache = FlowCache::with_capacity(4);
        let flood = SwitchDecision {
            steering: None,
            forwarding: Forwarding::Flood(Arc::from(vec![PortId(1), PortId(2)])),
        };
        cache.insert(key(0), flood.clone(), 0, 0, None);
        assert_eq!(cache.lookup(&key(0), 0, 0, None), Some(flood));
    }

    #[test]
    fn dst_mapping_change_invalidates_only_that_flow() {
        let mut cache = FlowCache::with_capacity(8);
        cache.insert(key(0), decision(1), 0, 0, None);
        cache.insert(key(1), decision(1), 0, 0, Some(PortId(3)));
        // Flow 0's destination MAC gets learned on port 2: only flow 0's
        // entry is invalid; flow 1 keeps hitting.
        assert!(cache.lookup(&key(0), 0, 0, Some(PortId(2))).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.lookup(&key(1), 0, 0, Some(PortId(3))).is_some());
        // And a moved mapping invalidates flow 1 too.
        assert!(cache.lookup(&key(1), 0, 0, Some(PortId(4))).is_none());
    }

    #[test]
    fn hit_rate_reflects_traffic() {
        let mut cache = FlowCache::with_capacity(4);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        cache.insert(key(0), decision(1), 0, 0, None);
        let _ = cache.lookup(&key(0), 0, 0, None);
        let _ = cache.lookup(&key(0), 0, 0, None);
        let _ = cache.lookup(&key(1), 0, 0, None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }
}
