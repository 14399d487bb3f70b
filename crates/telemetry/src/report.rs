//! The periodic state report an Agent sends to the Manager.

use gnf_types::{
    AgentId, ClientId, FlowCacheStats, HostClass, MegaflowStats, ResourceSpec, ResourceUsage,
    SimTime, StationId,
};
use serde::{Deserialize, Serialize};

/// Data-plane fast-path counters reported by a station: how well the
/// switch's per-flow exact-match cache is doing, plus its current size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowCacheTelemetry {
    /// Hit/miss/eviction/invalidation counters (shared with the switch).
    pub stats: FlowCacheStats,
    /// Flows currently memoized.
    pub entries: usize,
}

impl FlowCacheTelemetry {
    /// Merges another station's counters into this aggregate.
    pub fn merge(&mut self, other: &FlowCacheTelemetry) {
        let FlowCacheTelemetry { stats, entries } = other;
        self.stats.merge(stats);
        self.entries += entries;
    }

    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }
}

/// Megaflow (wildcard) cache counters reported by a station: how well the
/// switch's second-level cache turns *new*-flow slow-path work into wildcard
/// hits, plus its current size and mask diversity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MegaflowTelemetry {
    /// Hit/miss/install/eviction/invalidation counters (shared with the
    /// switch).
    pub stats: MegaflowStats,
    /// Wildcard entries currently installed.
    pub entries: usize,
    /// Distinct wildcard masks currently holding entries (summed over
    /// stations when aggregated).
    pub masks: usize,
}

impl MegaflowTelemetry {
    /// Merges another station's counters into this aggregate.
    pub fn merge(&mut self, other: &MegaflowTelemetry) {
        let MegaflowTelemetry {
            stats,
            entries,
            masks,
        } = other;
        self.stats.merge(stats);
        self.entries += entries;
        self.masks += masks;
    }

    /// Fraction of exact-miss lookups served by a wildcard entry (0 when
    /// idle).
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }
}

/// Batched data-plane counters reported by a station: how many batches its
/// data plane processed, how big they were and the distribution of batch
/// sizes over power-of-two buckets (1, 2–3, 4–7, ..., ≥256).
///
/// Batch size is the main lever of the vectorized data plane — per-packet
/// overhead is amortized over the batch — so the distribution tells an
/// operator whether traffic actually coalesces or degenerates to batch = 1.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchTelemetry {
    /// Batches processed.
    pub batches: u64,
    /// Packets processed across all batches.
    pub packets: u64,
    /// Largest batch observed.
    pub max_batch: u64,
    /// Batch-size histogram: bucket `i` counts batches of size in
    /// `[2^i, 2^(i+1))`, with the last bucket open-ended (≥256).
    pub size_buckets: [u64; 9],
}

impl BatchTelemetry {
    /// Records one processed batch of `size` packets (empty batches are not
    /// counted).
    pub fn record(&mut self, size: u64) {
        if size == 0 {
            return;
        }
        self.batches += 1;
        self.packets += size;
        self.max_batch = self.max_batch.max(size);
        let bucket = (63 - size.leading_zeros() as usize).min(self.size_buckets.len() - 1);
        self.size_buckets[bucket] += 1;
    }

    /// Merges another station's counters into this aggregate.
    pub fn merge(&mut self, other: &BatchTelemetry) {
        let BatchTelemetry {
            batches,
            packets,
            max_batch,
            size_buckets,
        } = other;
        self.batches += batches;
        self.packets += packets;
        self.max_batch = self.max_batch.max(*max_batch);
        for (mine, theirs) in self.size_buckets.iter_mut().zip(size_buckets) {
            *mine += theirs;
        }
    }

    /// Mean packets per batch (0 when idle).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.packets as f64 / self.batches as f64
    }
}

/// Fault-injection and recovery counters of one station: how often the
/// station crashed and rejoined, the soft-state generation it is currently
/// serving from, and how much synthetic churn/invalidation pressure the
/// chaos layer applied to its switch. All zeros outside chaos runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaosTelemetry {
    /// Times this station crashed (lost all soft state).
    pub crashes: u64,
    /// The station's soft-state generation: bumped on every crash so no
    /// pre-crash cache entry can serve post-restart traffic. Summed over
    /// stations when aggregated.
    pub generation: u64,
    /// Synthetic steering rules installed-and-removed by churn storms.
    pub steering_churn_rules: u64,
    /// Cache-invalidation floods applied to the switch (each flood bumps the
    /// topology generation, lazily invalidating both cache levels).
    pub cache_invalidations: u64,
}

impl ChaosTelemetry {
    /// Merges another station's counters into this aggregate.
    pub fn merge(&mut self, other: &ChaosTelemetry) {
        let ChaosTelemetry {
            crashes,
            generation,
            steering_churn_rules,
            cache_invalidations,
        } = other;
        self.crashes += crashes;
        self.generation += generation;
        self.steering_churn_rules += steering_churn_rules;
        self.cache_invalidations += cache_invalidations;
    }
}

/// Host-side counters of the emulator's migration worker pool: how the
/// migration-lifecycle control commands (checkpoints, pre-copies, staged
/// deploys, delta replays, activations) were batched for parallel execution.
///
/// These are **host-CPU observability only** and deliberately live outside
/// the `RunReport`: `cap_flushes` depends on the configured queue depth and
/// `batches`/`max_batch` on how roams align in virtual time, none of which
/// may influence (or appear in) the byte-compared run results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationPoolTelemetry {
    /// Flushes of the parked same-timestamp migration command batch.
    pub batches: u64,
    /// Migration-lifecycle commands that went through the pool.
    pub commands: u64,
    /// Largest batch flushed at once.
    pub max_batch: u64,
    /// Flushes forced early by the `migration_queue_size` cap.
    pub cap_flushes: u64,
}

impl MigrationPoolTelemetry {
    /// Records one flushed batch of `size` commands.
    pub fn record_batch(&mut self, size: u64) {
        self.batches += 1;
        self.commands += size;
        self.max_batch = self.max_batch.max(size);
    }

    /// Mean commands per flushed batch (0 when nothing was pooled).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.commands as f64 / self.batches as f64
    }
}

/// Host-side counts of the emulator's fan-outs: the flushes whose station
/// work reached its break-even and ran on the worker pool, and the helper
/// threads that pool spawned. Like [`MigrationPoolTelemetry`], outside the
/// `RunReport`: they depend on the worker counts, which the report may not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanOutTelemetry {
    /// Packet flushes that fanned out over the pool.
    pub packet_flushes: u64,
    /// Migration flushes that fanned out over the pool.
    pub migration_flushes: u64,
    /// Helper threads spawned so far (the emulator's own thread not counted).
    pub helper_threads: usize,
}

/// A snapshot of one station's state, produced by its Agent every reporting
/// interval ("reporting periodically the state of the device").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StationReport {
    /// The station being reported on.
    pub station: StationId,
    /// The Agent that produced the report.
    pub agent: AgentId,
    /// When the report was produced (virtual time).
    pub produced_at: SimTime,
    /// The station's hardware class.
    pub host_class: HostClass,
    /// Total capacity of the station.
    pub capacity: ResourceSpec,
    /// Measured utilisation.
    pub usage: ResourceUsage,
    /// Clients currently associated with the station's cell.
    pub connected_clients: Vec<ClientId>,
    /// Number of NF containers currently running.
    pub running_nfs: usize,
    /// Number of NF images held in the local cache.
    pub cached_images: usize,
    /// Data-plane fast-path counters.
    pub flow_cache: FlowCacheTelemetry,
    /// Megaflow (wildcard) cache counters.
    pub megaflow: MegaflowTelemetry,
    /// Batched data-plane counters (batch sizes processed by the station).
    pub batches: BatchTelemetry,
    /// Fault-injection and recovery counters (all zeros outside chaos runs).
    pub chaos: ChaosTelemetry,
}

impl StationReport {
    /// The dominant utilisation fraction (CPU vs memory), used by hotspot
    /// detection.
    pub fn dominant_utilisation(&self) -> f64 {
        self.usage.dominant_fraction(&self.capacity)
    }

    /// True when the station is using more than `threshold` of its capacity
    /// in any dimension.
    pub fn is_hotspot(&self, threshold: f64) -> bool {
        self.dominant_utilisation() >= threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cpu: f64, memory_mb: u64) -> StationReport {
        StationReport {
            station: StationId::new(1),
            agent: AgentId::new(1),
            produced_at: SimTime::from_secs(10),
            host_class: HostClass::HomeRouter,
            capacity: HostClass::HomeRouter.capacity(),
            usage: ResourceUsage {
                cpu_fraction: cpu,
                memory_mb,
                disk_mb: 10,
                rx_bps: 1e6,
                tx_bps: 2e5,
            },
            connected_clients: vec![ClientId::new(1), ClientId::new(2)],
            running_nfs: 3,
            cached_images: 2,
            flow_cache: Default::default(),
            megaflow: Default::default(),
            batches: Default::default(),
            chaos: Default::default(),
        }
    }

    #[test]
    fn dominant_utilisation_picks_the_larger_dimension() {
        // 64 MB of 128 MB = 0.5 memory; CPU 0.2 → dominant 0.5.
        let r = report(0.2, 64);
        assert!((r.dominant_utilisation() - 0.5).abs() < 1e-12);
        let r = report(0.9, 64);
        assert!((r.dominant_utilisation() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn hotspot_thresholding() {
        assert!(report(0.95, 10).is_hotspot(0.85));
        assert!(!report(0.5, 32).is_hotspot(0.85));
        // Memory pressure alone can make a hotspot.
        assert!(report(0.1, 127).is_hotspot(0.85));
    }

    #[test]
    fn reports_serialize() {
        let r = report(0.4, 80);
        let json = serde_json::to_string(&r).unwrap();
        let back: StationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn megaflow_telemetry_merges_and_serializes() {
        let t = MegaflowTelemetry {
            stats: MegaflowStats {
                hits: 6,
                misses: 2,
                installs: 3,
                evictions: 1,
                invalidations: 0,
                drop_hits: 4,
                drop_installs: 1,
            },
            entries: 2,
            masks: 1,
        };
        assert!((t.hit_rate() - 0.75).abs() < 1e-12);
        let mut merged = MegaflowTelemetry::default();
        merged.merge(&t);
        merged.merge(&t);
        assert_eq!(merged.stats.hits, 12);
        assert_eq!(merged.entries, 4);
        assert_eq!(merged.masks, 2);
        let json = serde_json::to_string(&t).unwrap();
        let back: MegaflowTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn batch_telemetry_buckets_and_merges() {
        let mut t = BatchTelemetry::default();
        t.record(0); // ignored
        t.record(1);
        t.record(2);
        t.record(3);
        t.record(32);
        t.record(1000);
        assert_eq!(t.batches, 5);
        assert_eq!(t.packets, 1 + 2 + 3 + 32 + 1000);
        assert_eq!(t.max_batch, 1000);
        assert_eq!(t.size_buckets[0], 1, "size 1");
        assert_eq!(t.size_buckets[1], 2, "sizes 2-3");
        assert_eq!(t.size_buckets[5], 1, "size 32");
        assert_eq!(t.size_buckets[8], 1, "size >= 256");
        assert!((t.mean_batch_size() - 1038.0 / 5.0).abs() < 1e-12);

        let mut merged = BatchTelemetry::default();
        merged.merge(&t);
        merged.merge(&t);
        assert_eq!(merged.batches, 10);
        assert_eq!(merged.max_batch, 1000);
        assert_eq!(merged.size_buckets[1], 4);
        assert_eq!(BatchTelemetry::default().mean_batch_size(), 0.0);

        let json = serde_json::to_string(&t).unwrap();
        let back: BatchTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn migration_pool_telemetry_tracks_batches() {
        let mut t = MigrationPoolTelemetry::default();
        assert_eq!(t.mean_batch_size(), 0.0);
        t.record_batch(1);
        t.record_batch(7);
        t.cap_flushes += 1;
        assert_eq!(t.batches, 2);
        assert_eq!(t.commands, 8);
        assert_eq!(t.max_batch, 7);
        assert_eq!(t.cap_flushes, 1);
        assert!((t.mean_batch_size() - 4.0).abs() < 1e-12);
        let json = serde_json::to_string(&t).unwrap();
        let back: MigrationPoolTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
