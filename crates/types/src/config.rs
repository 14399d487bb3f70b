//! Global tuning knobs shared by the emulator, the Manager and the Agents.
//!
//! Everything latency- or interval-shaped that an experiment might sweep lives
//! here, with defaults calibrated to the paper's deployment environment
//! (commodity edge devices, a wide-area control network, container NFs).

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Framework-wide configuration.
///
/// Scenario builders start from [`GnfConfig::default`] and override individual
/// fields; experiments sweep them explicitly so that the provenance of every
/// number in a report is visible in the harness code.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GnfConfig {
    /// One-way latency of the control network between the Manager and an
    /// Agent (the paper's Manager keeps a persistent connection to every
    /// Agent across a wide-area network).
    pub control_link_latency: SimDuration,
    /// How often each Agent reports station state to the Manager
    /// ("reporting periodically the state of the device").
    pub agent_report_interval: SimDuration,
    /// How often the Manager evaluates hotspot detection over fresh reports.
    pub hotspot_scan_interval: SimDuration,
    /// Dominant-utilisation fraction above which a station is flagged as a
    /// resource hotspot.
    pub hotspot_threshold: f64,
    /// Number of consecutive missed Agent reports after which the Manager
    /// marks a station offline.
    pub missed_reports_for_offline: u32,
    /// Latency applied when a client (dis)associates with a cell before the
    /// Agent observes it (DHCP / association handshake).
    pub association_latency: SimDuration,
    /// Whether migrations keep the old NF instance serving until the new one
    /// is ready (make-before-break) or tear down eagerly (break-before-make).
    pub make_before_break: bool,
    /// Whether client traffic bypasses the NF chain (and is forwarded
    /// unprocessed) or is dropped while no NF instance is available during a
    /// migration gap. The paper's "transparent traffic handling" corresponds
    /// to bypass; policy-critical NFs (firewalls) would choose drop.
    pub bypass_during_migration: bool,
    /// Seed for every pseudo-random draw in a scenario run.
    pub seed: u64,
    /// Hard deadline for the checkpoint/deploy half of a migration: a
    /// migration still awaiting state or deployment after this long is
    /// aborted, rolled back (the source chain keeps serving under
    /// make-before-break) and retried with backoff instead of wedging the
    /// Manager forever on a lost message.
    pub migration_deadline: SimDuration,
    /// How many times a timed-out or failed migration is retried before the
    /// Manager gives up on it.
    pub migration_max_retries: u32,
    /// First retry delay after a migration timeout; doubled per attempt.
    pub migration_backoff_base: SimDuration,
    /// Upper bound on the exponential migration retry backoff.
    pub migration_backoff_cap: SimDuration,
    /// Size of the migration worker pool: how many in-flight migration
    /// commands the emulator executes concurrently on host threads. Purely a
    /// host-CPU knob — the `RunReport` is byte-identical for any value.
    pub migration_workers: usize,
    /// Bound on the migration command batch admitted to the worker pool
    /// before a forced flush (Forest-style `job_queue_size`). Like
    /// `migration_workers`, this never changes results, only scheduling.
    pub migration_queue_size: usize,
    /// Whether make-before-break migrations use the pre-copy pipeline: ship
    /// the bulk of the NF state ahead of switchover while the source keeps
    /// serving, then replay only the dirty delta at cutover. When false the
    /// classic monolithic checkpoint/restore path is used.
    pub migration_precopy: bool,
    /// Whether Agents send delta-encoded reports (`ReportDelta` frames:
    /// periodic keyframes plus cumulative per-section deltas) instead of a
    /// full `StationReport` every interval. Message *count* is unchanged —
    /// one frame per report interval — so the `RunReport` stays
    /// byte-identical to full-report mode; only bytes on the wire shrink.
    pub delta_reports: bool,
    /// With `delta_reports` on: how many cumulative deltas are sent between
    /// keyframes (0 makes every frame a keyframe). Crashes and rejoins force
    /// an immediate keyframe regardless of this cadence.
    pub report_keyframe_interval: u64,
    /// Hierarchical aggregation: stations per region aggregator. When
    /// non-zero, agents report to an emulator-driven per-region
    /// `RegionAggregator` (region = station id / `region_size`) and the
    /// Manager ingests one `RegionSummary` feed per region instead of every
    /// station's report. 0 (the default) disables the tier.
    pub region_size: usize,
    /// Sampling period of the virtual-time metrics sampler: when metrics
    /// collection is enabled, the emulator snapshots the fleet's counters at
    /// every multiple of this interval. Purely observational — sampling
    /// schedules no events and never changes the `RunReport`.
    pub metrics_interval: SimDuration,
}

impl Default for GnfConfig {
    fn default() -> Self {
        Self {
            control_link_latency: SimDuration::from_millis(10),
            agent_report_interval: SimDuration::from_secs(2),
            hotspot_scan_interval: SimDuration::from_secs(5),
            hotspot_threshold: 0.85,
            missed_reports_for_offline: 3,
            association_latency: SimDuration::from_millis(150),
            make_before_break: true,
            bypass_during_migration: false,
            seed: 0x6e46_5f67_6c61_7367, // "gnf_glasg"
            migration_deadline: SimDuration::from_secs(20),
            migration_max_retries: 3,
            migration_backoff_base: SimDuration::from_millis(500),
            migration_backoff_cap: SimDuration::from_secs(8),
            migration_workers: 1,
            migration_queue_size: 32,
            migration_precopy: false,
            delta_reports: false,
            report_keyframe_interval: 16,
            region_size: 0,
            metrics_interval: SimDuration::from_secs(1),
        }
    }
}

impl GnfConfig {
    /// Validates that the configuration is internally consistent.
    pub fn validate(&self) -> Result<(), crate::error::GnfError> {
        use crate::error::GnfError;
        if self.agent_report_interval.is_zero() {
            return Err(GnfError::InvalidConfig {
                parameter: "agent_report_interval".into(),
                reason: "must be positive".into(),
            });
        }
        if self.hotspot_scan_interval.is_zero() {
            return Err(GnfError::InvalidConfig {
                parameter: "hotspot_scan_interval".into(),
                reason: "must be positive".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.hotspot_threshold) {
            return Err(GnfError::InvalidConfig {
                parameter: "hotspot_threshold".into(),
                reason: format!("must be within [0, 1], got {}", self.hotspot_threshold),
            });
        }
        if self.missed_reports_for_offline == 0 {
            return Err(GnfError::InvalidConfig {
                parameter: "missed_reports_for_offline".into(),
                reason: "must be at least 1".into(),
            });
        }
        if self.migration_deadline.is_zero() {
            return Err(GnfError::InvalidConfig {
                parameter: "migration_deadline".into(),
                reason: "must be positive".into(),
            });
        }
        if self.migration_backoff_base.is_zero() {
            return Err(GnfError::InvalidConfig {
                parameter: "migration_backoff_base".into(),
                reason: "must be positive".into(),
            });
        }
        if self.migration_backoff_cap < self.migration_backoff_base {
            return Err(GnfError::InvalidConfig {
                parameter: "migration_backoff_cap".into(),
                reason: "must be at least migration_backoff_base".into(),
            });
        }
        if self.migration_workers == 0 {
            return Err(GnfError::InvalidConfig {
                parameter: "migration_workers".into(),
                reason: "must be at least 1".into(),
            });
        }
        if self.migration_queue_size == 0 {
            return Err(GnfError::InvalidConfig {
                parameter: "migration_queue_size".into(),
                reason: "must be at least 1".into(),
            });
        }
        if self.metrics_interval.is_zero() {
            return Err(GnfError::InvalidConfig {
                parameter: "metrics_interval".into(),
                reason: "must be positive".into(),
            });
        }
        Ok(())
    }

    /// Returns a copy with a different seed; used to run replicated trials.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different migration worker-pool size (clamped to
    /// at least 1).
    pub fn with_migration_workers(mut self, workers: usize) -> Self {
        self.migration_workers = workers.max(1);
        self
    }

    /// Returns a copy with pre-copy state transfer toggled.
    pub fn with_migration_precopy(mut self, precopy: bool) -> Self {
        self.migration_precopy = precopy;
        self
    }

    /// Returns a copy with delta-encoded reporting toggled.
    pub fn with_delta_reports(mut self, enabled: bool) -> Self {
        self.delta_reports = enabled;
        self
    }

    /// Returns a copy with a different keyframe cadence (deltas between
    /// keyframes; 0 sends only keyframes).
    pub fn with_report_keyframe_interval(mut self, interval: u64) -> Self {
        self.report_keyframe_interval = interval;
        self
    }

    /// Returns a copy with a different region-aggregator fan-in (stations
    /// per region; 0 disables the aggregation tier).
    pub fn with_region_size(mut self, region_size: usize) -> Self {
        self.region_size = region_size;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(GnfConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_intervals_are_rejected() {
        let cfg = GnfConfig {
            agent_report_interval: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = GnfConfig {
            hotspot_scan_interval: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = GnfConfig {
            metrics_interval: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn out_of_range_threshold_is_rejected() {
        let mut cfg = GnfConfig {
            hotspot_threshold: 1.5,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        cfg.hotspot_threshold = -0.1;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_missed_reports_is_rejected() {
        let cfg = GnfConfig {
            missed_reports_for_offline: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn with_seed_only_changes_the_seed() {
        let base = GnfConfig::default();
        let reseeded = base.clone().with_seed(42);
        assert_eq!(reseeded.seed, 42);
        assert_eq!(reseeded.control_link_latency, base.control_link_latency);
    }

    #[test]
    fn migration_retry_knobs_are_validated() {
        let cfg = GnfConfig {
            migration_deadline: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = GnfConfig {
            migration_backoff_base: SimDuration::ZERO,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = GnfConfig {
            migration_backoff_base: SimDuration::from_secs(10),
            migration_backoff_cap: SimDuration::from_secs(1),
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn migration_pool_knobs_are_validated_and_the_builders_clamp() {
        let cfg = GnfConfig {
            migration_workers: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = GnfConfig {
            migration_queue_size: 0,
            ..Default::default()
        };
        assert!(cfg.validate().is_err());
        assert_eq!(
            GnfConfig::default()
                .with_migration_workers(0)
                .migration_workers,
            1
        );
        assert_eq!(
            GnfConfig::default()
                .with_migration_workers(4)
                .migration_workers,
            4
        );
        assert!(
            GnfConfig::default()
                .with_migration_precopy(true)
                .migration_precopy
        );
    }

    #[test]
    fn control_plane_builders_set_their_knobs() {
        let cfg = GnfConfig::default()
            .with_delta_reports(true)
            .with_report_keyframe_interval(4)
            .with_region_size(100);
        assert!(cfg.delta_reports);
        assert_eq!(cfg.report_keyframe_interval, 4);
        assert_eq!(cfg.region_size, 100);
        assert!(cfg.validate().is_ok());
        // Every-frame-a-keyframe and no-region-tier are both valid.
        assert!(GnfConfig::default()
            .with_report_keyframe_interval(0)
            .with_region_size(0)
            .validate()
            .is_ok());
    }

    #[test]
    fn config_serde_roundtrip() {
        let cfg = GnfConfig::default();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: GnfConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cfg);
    }
}
