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
use gnf_types::{MacAddr, PathMap, ShardCacheStats};
use serde::{Deserialize, Serialize};
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
    /// The flow-hash shard the entry's tuple maps to (0 when unsharded).
    shard: usize,
}

/// The exact-match flow cache.
///
/// ## Shard attribution
///
/// Under intra-station RSS sharding the cache keeps **one** storage arena
/// and **one** LRU clock — eviction order, the memory bound and every
/// aggregate counter are exactly what they would be unsharded, which is
/// what makes the emulator's report shard-count-invariant. Sharding only
/// *attributes*: each entry is tagged with its tuple's flow-hash shard, and
/// per-shard hit/miss/occupancy counters are updated in lockstep with the
/// aggregate [`FlowCacheStats`], so the shard blocks always sum to the
/// aggregates.
#[derive(Debug, Clone)]
pub struct FlowCache {
    capacity: usize,
    entries: PathMap<FlowKey, CacheEntry>,
    /// `(key, use_stamp)` pairs in touch order; stale stamps are skipped.
    use_queue: VecDeque<(FlowKey, u64)>,
    use_seq: u64,
    stats: FlowCacheStats,
    /// Number of flow-hash shards attribution runs over (1 = unsharded).
    shard_count: usize,
    /// Per-shard hit/miss/occupancy blocks, indexed by shard.
    shard_stats: Vec<ShardCacheStats>,
}

impl Default for FlowCache {
    fn default() -> Self {
        FlowCache::with_capacity(DEFAULT_FLOW_CACHE_CAPACITY)
    }
}

impl FlowCache {
    /// Creates a cache bounded to `capacity` flows (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlowCache {
            capacity,
            entries: PathMap::with_capacity_and_hasher(capacity.min(1024), Default::default()),
            use_queue: VecDeque::new(),
            use_seq: 0,
            stats: FlowCacheStats::default(),
            shard_count: 1,
            shard_stats: vec![ShardCacheStats::default()],
        }
    }

    /// Sets the number of flow-hash shards attribution runs over (clamped
    /// to at least 1). Storage and eviction are untouched — existing
    /// entries are re-tagged under the new shard map — but the per-shard
    /// activity counters restart from zero (call once at setup, before
    /// traffic, to keep shard sums equal to the lifetime aggregates).
    pub fn set_shards(&mut self, shards: usize) {
        self.shard_count = shards.max(1);
        self.shard_stats = vec![ShardCacheStats::default(); self.shard_count];
        let count = self.shard_count;
        for (key, entry) in self.entries.iter_mut() {
            entry.shard = if count > 1 {
                (key.tuple.shard_hash() % count as u64) as usize
            } else {
                0
            };
        }
        for entry in self.entries.values() {
            self.shard_stats[entry.shard].entries += 1;
        }
    }

    /// The configured shard count.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Per-shard hit/miss/occupancy blocks, in shard-index order. Their
    /// field-wise sums equal [`stats`]'s hits/misses (since the last
    /// [`set_shards`]) and [`len`].
    ///
    /// [`stats`]: FlowCache::stats
    /// [`set_shards`]: FlowCache::set_shards
    /// [`len`]: FlowCache::len
    pub fn shard_stats(&self) -> &[ShardCacheStats] {
        &self.shard_stats
    }

    /// The shard a flow's packets are attributed to.
    pub fn shard_of(&self, tuple: &FiveTuple) -> usize {
        if self.shard_count > 1 {
            (tuple.shard_hash() % self.shard_count as u64) as usize
        } else {
            0
        }
    }

    /// Live-entry occupancy partitioned over `n` *virtual* shards by the
    /// direction-symmetric flow hash, independent of the configured shard
    /// count. Observability uses this so metrics artifacts are byte-identical
    /// whether the data plane runs 1 shard or 4: the configured shards change
    /// which lane executes a chain, the virtual partition never changes.
    pub fn occupancy_by_virtual_shard(&self, n: usize) -> Vec<u64> {
        let n = n.max(1);
        let mut occupancy = vec![0u64; n];
        for key in self.entries.keys() {
            occupancy[(key.tuple.shard_hash() % n as u64) as usize] += 1;
        }
        occupancy
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
        let shard = self.shard_of(&key.tuple);
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
                self.shard_stats[shard].hits += 1;
                Some(decision)
            }
            Some(_) => {
                if let Some(stale) = self.entries.remove(key) {
                    self.shard_stats[stale.shard].entries -= 1;
                }
                self.stats.invalidations += 1;
                self.stats.misses += 1;
                self.shard_stats[shard].misses += 1;
                None
            }
            None => {
                self.stats.misses += 1;
                self.shard_stats[shard].misses += 1;
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
        let shard = self.shard_of(&key.tuple);
        if let Some(replaced) = self.entries.insert(
            key,
            CacheEntry {
                decision,
                topology_generation,
                steering_generation,
                dst_mapping,
                last_use: self.use_seq,
                shard,
            },
        ) {
            self.shard_stats[replaced.shard].entries -= 1;
        }
        self.shard_stats[shard].entries += 1;
        self.touch(key);
        while self.entries.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Drops every entry (used by tests and explicit flushes).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.use_queue.clear();
        for shard in &mut self.shard_stats {
            shard.entries = 0;
        }
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
                if let Some(evicted) = self.entries.remove(&key) {
                    self.shard_stats[evicted.shard].entries -= 1;
                }
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
            if let Some(evicted) = self.entries.remove(&key) {
                self.shard_stats[evicted.shard].entries -= 1;
            }
            self.stats.evictions += 1;
        }
    }
}

// The cache is derived runtime state: a serialized switch carries only the
// capacity, and deserializing yields an empty cache that re-warms itself.
impl Serialize for FlowCache {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![(
            "capacity".to_string(),
            serde::Value::UInt(self.capacity as u64),
        )])
    }
}

impl Deserialize for FlowCache {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let capacity = value
            .get("capacity")
            .and_then(serde::Value::as_u64)
            .unwrap_or(DEFAULT_FLOW_CACHE_CAPACITY as u64) as usize;
        Ok(FlowCache::with_capacity(capacity))
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
    fn shard_attribution_sums_to_the_aggregates() {
        let mut cache = FlowCache::with_capacity(8);
        cache.set_shards(4);
        assert_eq!(cache.shard_count(), 4);
        for n in 0..32 {
            let k = key(n);
            assert!(cache.lookup(&k, 0, 0, None).is_none());
            cache.insert(k, decision(1), 0, 0, None);
            assert!(cache.lookup(&k, 0, 0, None).is_some());
        }
        let stats = cache.stats();
        let shards = cache.shard_stats();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards.iter().map(|s| s.hits).sum::<u64>(), stats.hits);
        assert_eq!(shards.iter().map(|s| s.misses).sum::<u64>(), stats.misses);
        assert_eq!(
            shards.iter().map(|s| s.entries).sum::<u64>(),
            cache.len() as u64
        );
        assert!(stats.evictions > 0, "churn beyond capacity evicts");
        assert!(
            shards.iter().filter(|s| s.hits > 0).count() > 1,
            "distinct flows spread over more than one shard"
        );
    }

    #[test]
    fn set_shards_retags_existing_entries() {
        let mut cache = FlowCache::with_capacity(16);
        for n in 0..10 {
            cache.insert(key(n), decision(1), 0, 0, None);
        }
        cache.set_shards(2);
        let shards = cache.shard_stats();
        assert_eq!(
            shards.iter().map(|s| s.entries).sum::<u64>(),
            cache.len() as u64,
            "occupancy re-tagged under the new shard map"
        );
        // Each entry sits on the shard its tuple hashes to.
        for n in 0..10 {
            let k = key(n);
            let shard = cache.shard_of(&k.tuple);
            let before = cache.shard_stats()[shard].hits;
            assert!(cache.lookup(&k, 0, 0, None).is_some());
            assert_eq!(cache.shard_stats()[shard].hits, before + 1);
        }
        // Collapsing back to one shard folds everything onto shard 0.
        cache.set_shards(1);
        assert_eq!(cache.shard_stats().len(), 1);
        assert_eq!(cache.shard_stats()[0].entries, cache.len() as u64);
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
