//! The measurements an emulator run produces: the numbers the paper's demo
//! shows on its UI plus the quantities the experiments report (migration
//! downtime, deployment latency, packet-level policy enforcement).

use crate::chaos::ChaosReport;
use gnf_manager::{ManagerStats, MigrationPhase, MigrationRecord};
use gnf_sim::Histogram;
use gnf_telemetry::{BatchTelemetry, FlowCacheTelemetry, LogHistogram, MegaflowTelemetry};
use gnf_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Summary of one migration observed during the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationSummary {
    /// The roaming client.
    pub client: u64,
    /// The chain that moved.
    pub chain: u64,
    /// Source station.
    pub from: u64,
    /// Target station.
    pub to: u64,
    /// Service downtime in milliseconds (handover → chain active on target).
    pub downtime_ms: Option<f64>,
    /// Total migration duration in milliseconds.
    pub total_ms: Option<f64>,
    /// Bytes of NF state transferred.
    pub state_bytes: usize,
    /// Whether the migration ran the pre-copy pipeline (baseline shipped
    /// ahead while the source served, dirty delta replayed at cutover).
    pub precopy: bool,
    /// Downtime of the switchover window alone in milliseconds: the
    /// service-affecting interval pre-copy keeps independent of state size.
    /// Falls back to `downtime_ms` for classic monolithic migrations.
    pub switchover_ms: Option<f64>,
    /// Bytes of dirty delta replayed at cutover (pre-copy only).
    pub delta_bytes: usize,
    /// Whether the migration completed.
    pub completed: bool,
    /// Terminal outcome: `"complete"`, `"failed"`, `"timed-out"`, or
    /// `"in-flight"` for migrations still running when the report was cut.
    pub outcome: String,
    /// Which attempt this was (0 = original, n = n-th backoff retry).
    pub attempt: u32,
}

impl MigrationSummary {
    /// Builds a summary from a Manager migration record.
    pub fn from_record(record: &MigrationRecord) -> Self {
        MigrationSummary {
            client: record.client.raw(),
            chain: record.chain.raw(),
            from: record.from.raw(),
            to: record.to.raw(),
            downtime_ms: record.downtime().map(|d| d.as_millis_f64()),
            total_ms: record.total_duration().map(|d| d.as_millis_f64()),
            state_bytes: record.state_bytes,
            precopy: record.precopy,
            switchover_ms: record.switchover_downtime().map(|d| d.as_millis_f64()),
            delta_bytes: record.delta_bytes,
            completed: record.phase == MigrationPhase::Complete,
            outcome: match record.phase {
                MigrationPhase::Complete => "complete",
                MigrationPhase::Failed => "failed",
                MigrationPhase::TimedOut => "timed-out",
                _ => "in-flight",
            }
            .to_string(),
            attempt: record.attempt,
        }
    }
}

/// Aggregate view of every migration in a run: how many ran the pre-copy
/// pipeline, how much state moved ahead of switchover versus inside it, and
/// the distribution of the switchover window — the headline number of the
/// mass-roaming experiment (E6). Derived purely from the Manager's migration
/// records, so it is byte-identical for any worker/pool configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// Migration records observed (including retries and failures).
    pub total: usize,
    /// Migrations that completed successfully.
    pub completed: usize,
    /// Migrations that ran the pre-copy pipeline.
    pub precopied: usize,
    /// Pre-copy migrations whose cutover replayed a non-empty dirty delta.
    pub deltas_replayed: usize,
    /// Total bytes of baseline/monolithic NF state transferred.
    pub state_bytes_total: u64,
    /// Total bytes of dirty delta replayed inside switchover windows.
    pub delta_bytes_total: u64,
    /// Distribution of the switchover window (milliseconds); classic
    /// migrations contribute their full downtime (their entire restore sits
    /// inside the service-affecting window). Log-bucketed so the aggregate
    /// stays O(1) in the number of migrations; per-migration exact values
    /// remain in [`RunReport::migrations`].
    pub switchover_ms: LogHistogram,
}

impl MigrationReport {
    /// Aggregates the per-migration summaries.
    pub fn from_summaries(migrations: &[MigrationSummary]) -> Self {
        let mut report = MigrationReport::default();
        for m in migrations {
            report.total += 1;
            if m.completed {
                report.completed += 1;
            }
            if m.precopy {
                report.precopied += 1;
                if m.delta_bytes > 0 {
                    report.deltas_replayed += 1;
                }
            }
            report.state_bytes_total += m.state_bytes as u64;
            report.delta_bytes_total += m.delta_bytes as u64;
            if let Some(ms) = m.switchover_ms {
                report.switchover_ms.record(ms);
            }
        }
        report
    }
}

/// Packet-level accounting for the whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketStats {
    /// Packets generated by clients.
    pub generated: u64,
    /// Packets that traversed their chain (or needed no chain) and were
    /// forwarded.
    pub forwarded: u64,
    /// Packets dropped by an NF verdict (policy enforcement).
    pub dropped_by_nf: u64,
    /// Packets answered locally by an NF (403 pages, DNS LB answers, cache
    /// hits).
    pub replied_by_nf: u64,
    /// Packets dropped because they arrived during a migration gap and the
    /// configuration forbids bypassing the chain.
    pub dropped_in_gap: u64,
    /// Packets forwarded *without* NF processing during a migration gap
    /// (allowed only when `bypass_during_migration` is set). A subset of
    /// `forwarded`: each such packet is counted there too, so it does not
    /// enter the conservation sum.
    pub bypassed_in_gap: u64,
    /// Packets lost because they were in flight to (or arrived at) a station
    /// that had crashed and not yet restarted.
    pub dropped_station_down: u64,
    /// Packets that arrived at a migration target while a pre-copy
    /// migration was in flight and detoured through the still-serving
    /// source chain (make-before-break). Informational: each such packet is
    /// also counted in its terminal class (`forwarded`, `dropped_by_nf`,
    /// ...), so it does not enter the conservation sum.
    pub hairpinned: u64,
}

impl PacketStats {
    /// Fraction of generated packets that experienced the migration gap.
    pub fn gap_fraction(&self) -> f64 {
        if self.generated == 0 {
            return 0.0;
        }
        (self.dropped_in_gap + self.bypassed_in_gap) as f64 / self.generated as f64
    }

    /// Packet conservation: every generated packet landed in exactly one
    /// terminal class — forwarded, dropped or replied by an NF, dropped in a
    /// migration gap, or lost to a down station. A lost packet breaks the
    /// equality low, a double-counted one high. `bypassed_in_gap` and
    /// `hairpinned` are subsets of the terminal classes and stay out.
    pub fn is_conserved(&self) -> bool {
        self.generated
            == self.forwarded
                + self.dropped_by_nf
                + self.replied_by_nf
                + self.dropped_in_gap
                + self.dropped_station_down
    }
}

/// The full result of an emulator run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Virtual duration of the run.
    pub duration: SimDuration,
    /// Events processed by the discrete-event kernel.
    pub events_processed: u64,
    /// Handovers observed (client cell changes).
    pub handovers: u64,
    /// Per-migration summaries.
    pub migrations: Vec<MigrationSummary>,
    /// Aggregate migration accounting (pre-copy counts, switchover CDF).
    pub migration: MigrationReport,
    /// Distribution of migration downtime (milliseconds).
    pub downtime_ms: Histogram,
    /// Distribution of chain deployment latency (milliseconds).
    pub deploy_latency_ms: Histogram,
    /// Packet accounting.
    pub packets: PacketStats,
    /// Data-plane fast-path counters, aggregated over every station's switch
    /// at the end of the run.
    pub flow_cache: FlowCacheTelemetry,
    /// Megaflow (wildcard) cache counters, aggregated over every station's
    /// switch at the end of the run.
    pub megaflow: MegaflowTelemetry,
    /// Batched data-plane counters (batch-size distribution), aggregated
    /// over every station at the end of the run.
    pub batches: BatchTelemetry,
    /// Manager control-plane counters.
    pub manager: ManagerStats,
    /// Fault-injection accounting: what the chaos schedule did and how the
    /// fleet recovered. All-zero when no faults were scheduled.
    pub chaos: ChaosReport,
    /// Total notifications raised, by severity (info, warning, critical).
    pub notifications: (u64, u64, u64),
    /// Virtual time at which the run ended.
    pub ended_at: SimTime,
}

impl RunReport {
    /// Number of migrations that completed successfully.
    pub fn completed_migrations(&self) -> usize {
        self.migrations.iter().filter(|m| m.completed).count()
    }

    /// True when every handover that needed a migration got one and every
    /// migration completed.
    pub fn all_migrations_completed(&self) -> bool {
        self.migrations.iter().all(|m| m.completed)
    }

    /// A compact multi-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "run of {} ({} events): {} handovers, {} migrations ({} completed), \
             mean downtime {:.1} ms (p99 {:.1} ms), mean deploy {:.1} ms, \
             pre-copy: {} migrations ({} deltas replayed, {} delta bytes, switchover p99 {:.1} ms), \
             packets: {} generated / {} forwarded / {} dropped-by-NF / {} replied / {} gap-dropped / {} gap-bypassed / {} station-down-dropped / {} precopy-hairpinned, \
             flow cache: {:.0}% hit rate ({} hits / {} misses), \
             megaflow: {:.0}% hit rate ({} hits / {} misses, {} drop-bypassed, {} entries / {} masks), \
             batches: {} (mean size {:.1}, max {}), \
             control messages: {} in / {} out, \
             chaos: {} faults ({} crashes / {} restarts, {} partitions, {} msgs dropped)",
            self.duration,
            self.events_processed,
            self.handovers,
            self.migrations.len(),
            self.completed_migrations(),
            self.downtime_ms.mean(),
            self.downtime_ms.p99(),
            self.deploy_latency_ms.mean(),
            self.migration.precopied,
            self.migration.deltas_replayed,
            self.migration.delta_bytes_total,
            self.migration.switchover_ms.p99(),
            self.packets.generated,
            self.packets.forwarded,
            self.packets.dropped_by_nf,
            self.packets.replied_by_nf,
            self.packets.dropped_in_gap,
            self.packets.bypassed_in_gap,
            self.packets.dropped_station_down,
            self.packets.hairpinned,
            self.flow_cache.hit_rate() * 100.0,
            self.flow_cache.stats.hits,
            self.flow_cache.stats.misses,
            self.megaflow.hit_rate() * 100.0,
            self.megaflow.stats.hits,
            self.megaflow.stats.misses,
            self.megaflow.stats.drop_hits,
            self.megaflow.entries,
            self.megaflow.masks,
            self.batches.batches,
            self.batches.mean_batch_size(),
            self.batches.max_batch,
            self.manager.messages_received,
            self.manager.messages_sent,
            self.chaos.faults_injected,
            self.chaos.crashes,
            self.chaos.restarts,
            self.chaos.partitions,
            self.chaos.messages_dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_stats_gap_fraction() {
        let stats = PacketStats {
            generated: 100,
            forwarded: 90,
            dropped_by_nf: 4,
            replied_by_nf: 1,
            dropped_in_gap: 3,
            bypassed_in_gap: 2,
            dropped_station_down: 0,
            hairpinned: 0,
        };
        assert!((stats.gap_fraction() - 0.05).abs() < 1e-12);
        assert_eq!(PacketStats::default().gap_fraction(), 0.0);
    }

    #[test]
    fn report_summary_mentions_the_key_numbers() {
        let report = RunReport {
            duration: SimDuration::from_secs(120),
            events_processed: 1000,
            handovers: 1,
            migrations: vec![MigrationSummary {
                client: 0,
                chain: 0,
                from: 0,
                to: 1,
                downtime_ms: Some(450.0),
                total_ms: Some(600.0),
                state_bytes: 128,
                precopy: true,
                switchover_ms: Some(90.0),
                delta_bytes: 24,
                completed: true,
                outcome: "complete".to_string(),
                attempt: 0,
            }],
            migration: MigrationReport {
                total: 1,
                completed: 1,
                precopied: 1,
                deltas_replayed: 1,
                state_bytes_total: 128,
                delta_bytes_total: 24,
                switchover_ms: {
                    let mut h = LogHistogram::new();
                    h.record(90.0);
                    h
                },
            },
            downtime_ms: {
                let mut h = Histogram::new();
                h.record(450.0);
                h
            },
            deploy_latency_ms: Histogram::new(),
            packets: PacketStats {
                generated: 10,
                forwarded: 9,
                dropped_in_gap: 1,
                dropped_by_nf: 0,
                replied_by_nf: 0,
                bypassed_in_gap: 0,
                dropped_station_down: 0,
                hairpinned: 0,
            },
            flow_cache: FlowCacheTelemetry {
                stats: gnf_types::FlowCacheStats {
                    hits: 8,
                    misses: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
            megaflow: MegaflowTelemetry::default(),
            batches: BatchTelemetry::default(),
            manager: ManagerStats::default(),
            chaos: ChaosReport::default(),
            notifications: (3, 1, 0),
            ended_at: SimTime::from_secs(120),
        };
        assert_eq!(report.completed_migrations(), 1);
        assert!(report.all_migrations_completed());
        let text = report.summary();
        assert!(text.contains("1 handovers"));
        assert!(text.contains("450.0 ms"));
        assert!(text.contains("10 generated"));
        assert!(text.contains("80% hit rate"));
        assert!(text.contains("1 deltas replayed"));
        assert!(text.contains("switchover p99 90.0 ms"));
    }

    #[test]
    fn migration_report_aggregates_summaries() {
        let precopied = MigrationSummary {
            client: 1,
            chain: 1,
            from: 0,
            to: 1,
            downtime_ms: Some(700.0),
            total_ms: Some(900.0),
            state_bytes: 4_000,
            precopy: true,
            switchover_ms: Some(100.0),
            delta_bytes: 64,
            completed: true,
            outcome: "complete".to_string(),
            attempt: 0,
        };
        let classic = MigrationSummary {
            client: 2,
            chain: 2,
            from: 1,
            to: 0,
            downtime_ms: Some(500.0),
            total_ms: Some(650.0),
            state_bytes: 2_000,
            precopy: false,
            switchover_ms: Some(500.0),
            delta_bytes: 0,
            completed: true,
            outcome: "complete".to_string(),
            attempt: 0,
        };
        let aborted = MigrationSummary {
            client: 3,
            chain: 3,
            from: 0,
            to: 1,
            downtime_ms: None,
            total_ms: None,
            state_bytes: 0,
            precopy: true,
            switchover_ms: None,
            delta_bytes: 0,
            completed: false,
            outcome: "timed-out".to_string(),
            attempt: 0,
        };
        let report = MigrationReport::from_summaries(&[precopied, classic, aborted]);
        assert_eq!(report.total, 3);
        assert_eq!(report.completed, 2);
        assert_eq!(report.precopied, 2);
        assert_eq!(report.deltas_replayed, 1, "only non-empty deltas count");
        assert_eq!(report.state_bytes_total, 6_000);
        assert_eq!(report.delta_bytes_total, 64);
        assert_eq!(report.switchover_ms.count(), 2);
        let json = serde_json::to_string(&report).unwrap();
        let back: MigrationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
