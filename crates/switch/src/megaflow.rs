//! The megaflow (wildcard) flow cache: the second-level cache behind the
//! exact-match [`FlowCache`].
//!
//! The exact-match cache only helps packets of flows the switch has already
//! seen — every *new* flow pays the full slow path even when it is identical
//! in shape to a cached one (same client, same protocol, same destination
//! port, only the ephemeral source port differs). Production OVS solves this
//! with megaflows: while the slow path runs, every lookup stage records which
//! header fields it actually consulted, and the resulting decision is cached
//! under a *mask* covering exactly those fields. Any later packet agreeing on
//! the masked fields would have followed the same evaluation path, so it can
//! be served from the wildcard entry without running the slow path at all.
//!
//! This module is that cache for [`SoftwareSwitch`]. A GNF twist: the slow
//! path here is not just the switch lookup — steered packets also traverse an
//! NF chain. Each NF reports the fields it consulted (or that it is opaque)
//! through `gnf-nf`'s `NetworkFunction::fields_consulted` hook; when every NF
//! the packet visited is a pure function of the masked fields, the entry
//! stores a **chain bypass** ([`BypassOutcome`]): matching packets skip the
//! chain entirely — forwarded unchanged (`Forward`) or retired with a
//! certified drop (`Drop`, reason replayed verbatim) — and the NFs'
//! statistics are replayed from the entry's tokens. Drop entries are what
//! lets hostile churn (port scans, floods of denied flows) ride the cache:
//! the dropping NF is the last one the packet would have visited, so even a
//! chain with an opaque tail (e.g. an IDS behind the firewall) certifies the
//! drop.
//!
//! ## Correctness model
//!
//! * The ingress port and both MAC addresses are always matched exactly: MAC
//!   learning, the per-MAC steering table and the L2 forwarding decision all
//!   key on them.
//! * The five-tuple is matched under the entry's [`FieldMask`] — the union of
//!   the fields consulted by the steering lookup and (for bypass entries) by
//!   every NF in the chain. Fields skipped by short-circuit evaluation stay
//!   wildcarded.
//! * Validity mirrors the exact cache: entries record the topology and
//!   steering generations plus the destination MAC→port mapping they were
//!   derived from, and are lazily discarded when any of the three changed.
//! * A lookup probes the non-empty mask tables in creation order until one
//!   holds a valid entry: one key projection and one probe of that mask's
//!   entries per table tried — a key scan while the table holds at most
//!   [`gnf_types::INLINE_ENTRIES`] entries, a [`gnf_types::PathMap`] probe
//!   (five hasher word steps) beyond. A switch holds few live masks: at seed
//!   7 a `gnf_benchmark` lookup tried 1.45 masks per switch on `web_replay`,
//!   1.24 on `scan_churn`, 1.00 on `stateful_replay` and `roam_storm` and
//!   0.98 on `fleet_steady` (its `switch.megaflow_masks` row sums the live
//!   masks of every switch of a run).
//! * Eviction is FIFO with a hard entry bound (entries describe *patterns*,
//!   not flows, so churn is low and recency tracking is not worth its cost).
//!
//! Unlike OVS, a wildcard hit does **not** promote an exact-match entry: a
//! bypass hit is already cheaper than an exact hit followed by chain
//! processing, and promotion would make new-flow churn thrash the exact
//! cache's LRU for flows that are never seen twice.
//!
//! [`FlowCache`]: crate::flow_cache::FlowCache
//! [`SoftwareSwitch`]: crate::switch::SoftwareSwitch
//! [`FieldMask`]: gnf_packet::FieldMask

use crate::switch::{PortId, SwitchDecision};
use gnf_packet::{FieldMask, FiveTuple};
pub use gnf_types::MegaflowStats;
use gnf_types::{InlineMap, MacAddr};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default maximum number of wildcard entries per switch (when enabled).
pub const DEFAULT_MEGAFLOW_CAPACITY: usize = 1024;

/// The exact-matched part of a wildcard entry's key, plus the five-tuple
/// projected under the owning table's mask. `Ord` so defensive eviction can
/// pick a deterministic victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct MegaflowKey {
    in_port: PortId,
    src_mac: MacAddr,
    dst_mac: MacAddr,
    masked_tuple: FiveTuple,
}

/// The certified chain outcome a wildcard entry carries when every NF the
/// matching packets would visit vouched for its purity.
#[derive(Debug, Clone, PartialEq)]
pub enum BypassOutcome {
    /// Matching packets skip the chain and are forwarded unchanged; the
    /// tokens (one per NF, in traversal order) replay each NF's statistics
    /// via `NfChain::credit_bypass`.
    Forward(Arc<[u64]>),
    /// Matching packets are dropped before the chain runs: the tokens cover
    /// exactly the NFs the packet would have visited (the dropping NF last,
    /// replayed via `NfChain::credit_bypass_drop`) and `reason` is replayed
    /// verbatim as the drop reason.
    Drop {
        /// Replay tokens for the visited NFs, the dropping NF last.
        tokens: Arc<[u64]>,
        /// The replayed drop reason (borrowed for the fixed policy reasons,
        /// so a flood of bypassed drops stays allocation-free).
        reason: Cow<'static, str>,
    },
}

impl BypassOutcome {
    /// True when the outcome retires matching packets with a drop.
    pub fn is_drop(&self) -> bool {
        matches!(self, BypassOutcome::Drop { .. })
    }
}

#[derive(Debug, Clone)]
struct MegaflowEntry {
    decision: SwitchDecision,
    /// `Some(outcome)` when every NF the matching packets would visit
    /// certified its processing as a pure function of the masked fields:
    /// matching packets skip the chain entirely (forwarded unchanged or
    /// dropped per the outcome) with NF statistics replayed from the tokens.
    bypass: Option<BypassOutcome>,
    topology_generation: u64,
    steering_generation: u64,
    dst_mapping: Option<PortId>,
    /// Install stamp; FIFO records with a stale stamp are skipped.
    stamp: u64,
}

/// One mask's table: all entries sharing a wildcard pattern. A fleet
/// station's mask holds one entry per (client, masked pattern), a handful,
/// so they live inline in the table list's one block. `repr(C)`: the mask
/// and the entry count, all a skipped table costs, share its first line.
#[derive(Debug, Clone)]
#[repr(C)]
struct MaskTable {
    mask: FieldMask,
    entries: InlineMap<MegaflowKey, MegaflowEntry>,
}

/// A successful wildcard lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct MegaflowHit {
    /// The memoized switch decision.
    pub decision: SwitchDecision,
    /// The certified chain outcome, when the entry carries one.
    pub bypass: Option<BypassOutcome>,
}

/// The wildcard cache. Capacity 0 disables it entirely (every operation is a
/// no-op and no statistics are recorded). `repr(C)`: what a lookup reads
/// first, the install-only FIFO last.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct MegaflowCache {
    capacity: usize,
    tables: Vec<MaskTable>,
    stats: MegaflowStats,
    len: usize,
    stamp_seq: u64,
    /// `(table index, key, stamp)` in install order; stale stamps are skipped.
    fifo: VecDeque<(usize, MegaflowKey, u64)>,
}

impl MegaflowCache {
    /// Creates a cache bounded to `capacity` wildcard entries (0 = disabled).
    pub fn with_capacity(capacity: usize) -> Self {
        MegaflowCache {
            capacity,
            tables: Vec::new(),
            len: 0,
            fifo: VecDeque::new(),
            stamp_seq: 0,
            stats: MegaflowStats::default(),
        }
    }

    /// Re-bounds the cache to `capacity` entries (0 = disabled), dropping
    /// every entry but **keeping the cumulative counters** — like every
    /// other cache-clearing path, so telemetry never undercounts across an
    /// enable/disable or resize.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.clear();
    }

    /// True when the cache participates in lookups.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The capacity bound (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live wildcard entries (including any not yet lazily
    /// invalidated).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct wildcard masks currently holding entries.
    pub fn mask_count(&self) -> usize {
        self.tables.iter().filter(|t| !t.entries.is_empty()).count()
    }

    /// The counters.
    pub fn stats(&self) -> MegaflowStats {
        self.stats
    }

    /// Looks a packet up: probes every mask table with the tuple projected
    /// under that table's mask, returning the first entry that is still valid
    /// under the given generations and destination mapping. Invalid entries
    /// are discarded on the way.
    #[allow(clippy::too_many_arguments)]
    pub fn lookup(
        &mut self,
        in_port: PortId,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        tuple: &FiveTuple,
        topology_generation: u64,
        steering_generation: u64,
        dst_mapping: Option<PortId>,
    ) -> Option<MegaflowHit> {
        if !self.enabled() {
            return None;
        }
        let mut hit = None;
        for table in &mut self.tables {
            // Tables are created per mask and never removed; skip ones whose
            // entries have all been invalidated/evicted rather than paying a
            // projection + probe for them on the hot path.
            if table.entries.is_empty() {
                continue;
            }
            let key = MegaflowKey {
                in_port,
                src_mac,
                dst_mac,
                masked_tuple: table.mask.project(tuple),
            };
            match table.entries.get(&key) {
                Some(entry)
                    if entry.topology_generation == topology_generation
                        && entry.steering_generation == steering_generation
                        && entry.dst_mapping == dst_mapping =>
                {
                    hit = Some(MegaflowHit {
                        decision: entry.decision.clone(),
                        bypass: entry.bypass.clone(),
                    });
                    break;
                }
                Some(_) => {
                    table.entries.remove(&key);
                    self.len -= 1;
                    self.stats.invalidations += 1;
                }
                None => {}
            }
        }
        match hit {
            Some(hit) => {
                self.stats.hits += 1;
                if hit.bypass.as_ref().is_some_and(BypassOutcome::is_drop) {
                    self.stats.drop_hits += 1;
                }
                Some(hit)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs (or replaces) the wildcard entry for `tuple` projected under
    /// `mask`, evicting the oldest entry when the capacity bound is hit.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        in_port: PortId,
        src_mac: MacAddr,
        dst_mac: MacAddr,
        tuple: &FiveTuple,
        mask: FieldMask,
        decision: SwitchDecision,
        bypass: Option<BypassOutcome>,
        topology_generation: u64,
        steering_generation: u64,
        dst_mapping: Option<PortId>,
    ) {
        if !self.enabled() {
            return;
        }
        if bypass.as_ref().is_some_and(BypassOutcome::is_drop) {
            self.stats.drop_installs += 1;
        }
        let table_ix = match self.tables.iter().position(|t| t.mask == mask) {
            Some(ix) => ix,
            None => {
                self.tables.push(MaskTable {
                    mask,
                    entries: InlineMap::new(),
                });
                self.tables.len() - 1
            }
        };
        let key = MegaflowKey {
            in_port,
            src_mac,
            dst_mac,
            masked_tuple: mask.project(tuple),
        };
        self.stamp_seq += 1;
        let replaced = self.tables[table_ix].entries.insert(
            key,
            MegaflowEntry {
                decision,
                bypass,
                topology_generation,
                steering_generation,
                dst_mapping,
                stamp: self.stamp_seq,
            },
        );
        if replaced.is_none() {
            self.len += 1;
        }
        self.stats.installs += 1;
        self.fifo.push_back((table_ix, key, self.stamp_seq));
        while self.len > self.capacity {
            self.evict_oldest();
        }
        // Keep the FIFO from growing without bound under replace-heavy
        // churn: once it is dominated by stale records, drop them.
        if self.fifo.len() > self.capacity.saturating_mul(4).max(64) {
            let tables = &self.tables;
            self.fifo.retain(|(ix, key, stamp)| {
                tables[*ix]
                    .entries
                    .get(key)
                    .is_some_and(|e| e.stamp == *stamp)
            });
        }
    }

    /// Drops every entry (used by explicit flushes and capacity changes).
    pub fn clear(&mut self) {
        self.tables.clear();
        self.fifo.clear();
        self.len = 0;
    }

    fn evict_oldest(&mut self) {
        while let Some((table_ix, key, stamp)) = self.fifo.pop_front() {
            let is_current = self.tables[table_ix]
                .entries
                .get(&key)
                .is_some_and(|entry| entry.stamp == stamp);
            if is_current {
                self.tables[table_ix].entries.remove(&key);
                self.len -= 1;
                self.stats.evictions += 1;
                return;
            }
            // Stale record: the entry was replaced (fresher record exists) or
            // already invalidated.
        }
        // FIFO exhausted but entries remain (cannot happen — every live
        // entry keeps a current record, both through replacement and the
        // compaction retain); fall back to dropping from the first
        // non-empty table so the capacity bound still holds. The victim is
        // the *smallest* key, not an arbitrary hash-iteration one, so the
        // path stays deterministic if it ever fires.
        for table in &mut self.tables {
            if let Some(key) = table.entries.keys().min().copied() {
                table.entries.remove(&key);
                self.len -= 1;
                self.stats.evictions += 1;
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switch::Forwarding;
    use gnf_packet::IpProtocol;
    use std::net::Ipv4Addr;

    fn tuple(src_port: u16, dst_port: u16) -> FiveTuple {
        FiveTuple::new(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(203, 0, 113, 9),
            IpProtocol::Tcp,
            src_port,
            dst_port,
        )
    }

    fn decision(port: u32) -> SwitchDecision {
        SwitchDecision {
            steering: None,
            forwarding: Forwarding::Unicast(PortId(port)),
        }
    }

    fn lookup(
        cache: &mut MegaflowCache,
        t: &FiveTuple,
        topo: u64,
        steer: u64,
    ) -> Option<MegaflowHit> {
        cache.lookup(
            PortId(0),
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            t,
            topo,
            steer,
            None,
        )
    }

    fn insert(cache: &mut MegaflowCache, t: &FiveTuple, mask: FieldMask, port: u32) {
        cache.insert(
            PortId(0),
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            t,
            mask,
            decision(port),
            None,
            0,
            0,
            None,
        );
    }

    #[test]
    fn wildcarded_fields_do_not_constrain_the_match() {
        let mut cache = MegaflowCache::with_capacity(8);
        let mask = FieldMask::PROTOCOL.union(FieldMask::DST_PORT);
        insert(&mut cache, &tuple(40_000, 443), mask, 1);
        // A brand-new flow (different source port) still hits.
        let hit = lookup(&mut cache, &tuple(51_123, 443), 0, 0).expect("wildcard hit");
        assert_eq!(hit.decision, decision(1));
        // A flow differing on a masked field misses.
        assert!(lookup(&mut cache, &tuple(40_000, 80), 0, 0).is_none());
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.mask_count(), 1);
    }

    #[test]
    fn exact_key_parts_always_constrain_the_match() {
        let mut cache = MegaflowCache::with_capacity(8);
        insert(&mut cache, &tuple(40_000, 443), FieldMask::EMPTY, 1);
        // Same tuple shape but a different source MAC: no match.
        assert!(cache
            .lookup(
                PortId(0),
                MacAddr::derived(9, 9),
                MacAddr::derived(2, 1),
                &tuple(40_000, 443),
                0,
                0,
                None,
            )
            .is_none());
        // Different ingress port: no match.
        assert!(cache
            .lookup(
                PortId(3),
                MacAddr::derived(1, 1),
                MacAddr::derived(2, 1),
                &tuple(40_000, 443),
                0,
                0,
                None,
            )
            .is_none());
    }

    #[test]
    fn generation_advance_invalidates() {
        let mut cache = MegaflowCache::with_capacity(8);
        insert(&mut cache, &tuple(40_000, 443), FieldMask::DST_PORT, 1);
        assert!(lookup(&mut cache, &tuple(1, 443), 0, 1).is_none());
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty());
        insert(&mut cache, &tuple(40_000, 443), FieldMask::DST_PORT, 1);
        assert!(lookup(&mut cache, &tuple(1, 443), 1, 0).is_none());
        assert_eq!(cache.stats().invalidations, 2);
    }

    #[test]
    fn dst_mapping_change_invalidates() {
        let mut cache = MegaflowCache::with_capacity(8);
        cache.insert(
            PortId(0),
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            &tuple(40_000, 443),
            FieldMask::DST_PORT,
            decision(1),
            None,
            0,
            0,
            Some(PortId(1)),
        );
        // The destination MAC moved to port 2: the entry is discarded.
        assert!(cache
            .lookup(
                PortId(0),
                MacAddr::derived(1, 1),
                MacAddr::derived(2, 1),
                &tuple(9, 443),
                0,
                0,
                Some(PortId(2)),
            )
            .is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn fifo_eviction_honors_the_bound() {
        let mut cache = MegaflowCache::with_capacity(2);
        insert(&mut cache, &tuple(1, 100), FieldMask::DST_PORT, 1);
        insert(&mut cache, &tuple(1, 200), FieldMask::DST_PORT, 2);
        insert(&mut cache, &tuple(1, 300), FieldMask::DST_PORT, 3);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // The oldest pattern (dst_port 100) was evicted.
        assert!(lookup(&mut cache, &tuple(7, 100), 0, 0).is_none());
        assert!(lookup(&mut cache, &tuple(7, 200), 0, 0).is_some());
        assert!(lookup(&mut cache, &tuple(7, 300), 0, 0).is_some());
    }

    #[test]
    fn replacing_an_entry_does_not_double_count_or_evict_early() {
        let mut cache = MegaflowCache::with_capacity(2);
        for _ in 0..10 {
            insert(&mut cache, &tuple(1, 100), FieldMask::DST_PORT, 1);
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().evictions, 0);
        insert(&mut cache, &tuple(1, 200), FieldMask::DST_PORT, 2);
        assert_eq!(cache.len(), 2);
        // Eviction skips the stale records of the replaced entry and drops
        // entries in install order: dst_port-100 (installed last at its
        // 10th replacement, before 200) goes first, not the fresh 300.
        insert(&mut cache, &tuple(1, 300), FieldMask::DST_PORT, 3);
        assert_eq!(cache.stats().evictions, 1);
        assert!(lookup(&mut cache, &tuple(7, 100), 0, 0).is_none());
        assert!(lookup(&mut cache, &tuple(7, 200), 0, 0).is_some());
        assert!(lookup(&mut cache, &tuple(7, 300), 0, 0).is_some());
    }

    #[test]
    fn resizing_drops_entries_but_keeps_the_counters() {
        let mut cache = MegaflowCache::with_capacity(8);
        insert(&mut cache, &tuple(1, 443), FieldMask::DST_PORT, 1);
        assert!(lookup(&mut cache, &tuple(2, 443), 0, 0).is_some());
        let before = cache.stats();
        assert_eq!(before.hits, 1);
        cache.set_capacity(0);
        assert!(!cache.enabled());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats(), before, "cumulative telemetry survives");
        cache.set_capacity(4);
        assert!(cache.enabled());
        assert_eq!(cache.stats(), before);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut cache = MegaflowCache::with_capacity(0);
        assert!(!cache.enabled());
        insert(&mut cache, &tuple(1, 100), FieldMask::DST_PORT, 1);
        assert!(lookup(&mut cache, &tuple(1, 100), 0, 0).is_none());
        assert_eq!(cache.stats(), MegaflowStats::default());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn bypass_tokens_ride_the_entry() {
        let mut cache = MegaflowCache::with_capacity(4);
        let tokens: Arc<[u64]> = Arc::from(vec![3u64, 0]);
        cache.insert(
            PortId(0),
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            &tuple(40_000, 443),
            FieldMask::DST_PORT,
            decision(1),
            Some(BypassOutcome::Forward(tokens.clone())),
            0,
            0,
            None,
        );
        let hit = lookup(&mut cache, &tuple(5, 443), 0, 0).expect("hit");
        assert_eq!(
            hit.bypass,
            Some(BypassOutcome::Forward(tokens)),
            "forward outcome rides the entry"
        );
        assert_eq!(cache.stats().drop_hits, 0);
        assert_eq!(cache.stats().drop_installs, 0);
    }

    #[test]
    fn drop_entries_count_and_replay_their_outcome() {
        let mut cache = MegaflowCache::with_capacity(4);
        let tokens: Arc<[u64]> = Arc::from(vec![2u64]);
        cache.insert(
            PortId(0),
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            &tuple(40_000, 22),
            FieldMask::DST_PORT,
            decision(1),
            Some(BypassOutcome::Drop {
                tokens: tokens.clone(),
                reason: "firewall: policy drop".into(),
            }),
            0,
            0,
            None,
        );
        assert_eq!(cache.stats().installs, 1);
        assert_eq!(cache.stats().drop_installs, 1);
        // A brand-new flow of the dropped pattern hits and is counted as a
        // drop hit.
        let hit = lookup(&mut cache, &tuple(51_000, 22), 0, 0).expect("drop hit");
        let Some(BypassOutcome::Drop { tokens: t, reason }) = hit.bypass else {
            panic!("expected a drop outcome");
        };
        assert_eq!(t, tokens);
        assert_eq!(reason, "firewall: policy drop");
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().drop_hits, 1);
    }

    #[test]
    fn fifo_fallback_eviction_keeps_accounting_exact() {
        // The fallback arm of `evict_oldest` (FIFO exhausted while entries
        // remain) is unreachable through the public API — every live entry
        // keeps a current FIFO record — so force it white-box by discarding
        // the FIFO. Repeated fallback evictions must keep `len`, the table
        // contents and the eviction counter exactly in step, pick a
        // deterministic victim, and leave the cache fully operational.
        let mut cache = MegaflowCache::with_capacity(8);
        for n in 0..6u16 {
            insert(&mut cache, &tuple(1, 100 + n), FieldMask::DST_PORT, 1);
        }
        let before = cache.stats();
        cache.fifo.clear();

        // First fallback eviction removes the smallest key (dst port 100).
        cache.evict_oldest();
        assert!(lookup(&mut cache, &tuple(9, 100), 0, 0).is_none());
        assert!(lookup(&mut cache, &tuple(9, 101), 0, 0).is_some());

        // Keep firing the fallback until the cache is empty: no drift.
        for expected_len in (0..5usize).rev() {
            cache.evict_oldest();
            let live: usize = cache.tables.iter().map(|t| t.entries.len()).sum();
            assert_eq!(cache.len(), expected_len, "len tracks the eviction");
            assert_eq!(live, expected_len, "tables agree with len");
        }
        assert_eq!(cache.stats().evictions, before.evictions + 6);

        // With nothing left, a further eviction is a no-op (no counter
        // drift, no panic).
        cache.evict_oldest();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evictions, before.evictions + 6);

        // The cache keeps working afterwards: fresh inserts repopulate the
        // FIFO and the capacity bound holds through normal eviction again.
        for n in 0..20u16 {
            insert(&mut cache, &tuple(2, 300 + n), FieldMask::DST_PORT, 1);
            assert!(cache.len() <= 8);
            let live: usize = cache.tables.iter().map(|t| t.entries.len()).sum();
            assert_eq!(cache.len(), live);
        }
        assert!(lookup(&mut cache, &tuple(9, 319), 0, 0).is_some());
    }

    #[test]
    fn the_bound_holds_under_churn() {
        let mut cache = MegaflowCache::with_capacity(16);
        for n in 0..10_000u16 {
            insert(
                &mut cache,
                &tuple(1, n % 500),
                FieldMask::DST_PORT,
                u32::from(n),
            );
            assert!(cache.len() <= 16);
            assert!(cache.fifo.len() <= 16 * 4 + 1);
        }
    }
}
