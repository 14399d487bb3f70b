//! Hierarchical telemetry aggregation: per-region rollups before the Manager.
//!
//! At fleet scale one manager event loop should not ingest every station's
//! report directly. A [`RegionAggregator`] sits between a region's agents and
//! the Manager: it accepts full or delta-encoded station reports (it embeds a
//! [`ReportReassembler`], so the wire format
//! is transparent), tracks per-station freshness, and periodically emits one
//! [`RegionSummary`] — merged data-plane counters, resource totals, hotspot
//! candidates and offline stations — so the Manager observes thousands of
//! stations through a handful of region feeds.

use crate::delta::{DeltaReject, ReportReassembler};
use crate::report::{
    BatchTelemetry, ChaosTelemetry, FlowCacheTelemetry, MegaflowTelemetry, StationReport,
};
use crate::ReportDelta;
use gnf_types::{ResourceSpec, SimDuration, SimTime, StationId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One region's rolled-up view of its stations, produced by a
/// [`RegionAggregator`] and ingested by the Manager in place of the
/// individual station reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionSummary {
    /// Region identifier.
    pub region: u64,
    /// Virtual time the summary was produced.
    pub produced_at: SimTime,
    /// Stations assigned to this region.
    pub stations: usize,
    /// Stations that have reported at least once.
    pub reporting: usize,
    /// Reports ingested by the aggregator since creation.
    pub reports_ingested: u64,
    /// Summed capacity of the reporting stations.
    pub capacity: ResourceSpec,
    /// Mean CPU utilisation fraction across reporting stations.
    pub mean_cpu_fraction: f64,
    /// Connected clients across the region.
    pub connected_clients: usize,
    /// Running NF instances across the region.
    pub running_nfs: usize,
    /// Merged exact-match flow-cache counters.
    pub flow_cache: FlowCacheTelemetry,
    /// Merged megaflow counters.
    pub megaflow: MegaflowTelemetry,
    /// Merged batch-size distribution.
    pub batches: BatchTelemetry,
    /// Merged chaos counters.
    pub chaos: ChaosTelemetry,
    /// Stations over the hotspot threshold, most loaded first, with their
    /// dominant utilisation fraction.
    pub hotspots: Vec<(StationId, f64)>,
    /// Stations that reported before but have now been silent for the
    /// offline threshold.
    pub offline: Vec<StationId>,
}

#[derive(Debug, Clone, Default)]
struct StationSlot {
    last_report: Option<StationReport>,
    last_seen: Option<SimTime>,
    reports: u64,
}

/// Rolls a region's station reports up into [`RegionSummary`] snapshots.
///
/// The aggregator accepts both wire formats — full [`StationReport`]s and
/// [`ReportDelta`] streams — and applies the same freshness rules as the
/// Manager's own monitoring store (a station is offline after
/// `missed_for_offline` silent report intervals; stations that never
/// reported are counted but not alarmed).
#[derive(Debug, Clone)]
pub struct RegionAggregator {
    region: u64,
    hotspot_threshold: f64,
    report_interval: SimDuration,
    missed_for_offline: u32,
    reassembler: ReportReassembler,
    slots: BTreeMap<StationId, StationSlot>,
    reports_ingested: u64,
}

impl RegionAggregator {
    /// Creates an aggregator for `region` with the fleet's monitoring
    /// parameters (the same values the Manager's monitoring store uses).
    pub fn new(
        region: u64,
        hotspot_threshold: f64,
        report_interval: SimDuration,
        missed_for_offline: u32,
    ) -> Self {
        RegionAggregator {
            region,
            hotspot_threshold,
            report_interval,
            missed_for_offline,
            reassembler: ReportReassembler::new(),
            slots: BTreeMap::new(),
            reports_ingested: 0,
        }
    }

    /// Region identifier.
    pub fn region(&self) -> u64 {
        self.region
    }

    /// Assigns a station to this region (idempotent).
    pub fn register_station(&mut self, station: StationId) {
        self.slots.entry(station).or_default();
    }

    /// Stations assigned to this region.
    pub fn stations(&self) -> usize {
        self.slots.len()
    }

    /// Ingests a full station report.
    pub fn ingest_report(&mut self, report: StationReport, at: SimTime) {
        let slot = self.slots.entry(report.station).or_default();
        slot.last_seen = Some(at);
        slot.reports += 1;
        slot.last_report = Some(report);
        self.reports_ingested += 1;
    }

    /// Ingests a delta frame, reconstructing the full report through the
    /// embedded reassembler. Stale or reordered frames are dropped (and
    /// counted); the error is returned for callers that track rejects.
    pub fn ingest_delta(&mut self, delta: &ReportDelta, at: SimTime) -> Result<(), DeltaReject> {
        let report = self.reassembler.apply(delta)?;
        self.ingest_report(report, at);
        Ok(())
    }

    /// Receiver-side delta protocol counters.
    pub fn reassembler_stats(&self) -> crate::delta::ReassemblerStats {
        self.reassembler.stats()
    }

    /// Produces the region's rollup as of `now`.
    pub fn summary(&self, now: SimTime) -> RegionSummary {
        let mut summary = RegionSummary {
            region: self.region,
            produced_at: now,
            stations: self.slots.len(),
            reporting: 0,
            reports_ingested: self.reports_ingested,
            capacity: ResourceSpec::ZERO,
            mean_cpu_fraction: 0.0,
            connected_clients: 0,
            running_nfs: 0,
            flow_cache: FlowCacheTelemetry::default(),
            megaflow: MegaflowTelemetry::default(),
            batches: BatchTelemetry::default(),
            chaos: ChaosTelemetry::default(),
            hotspots: Vec::new(),
            offline: Vec::new(),
        };
        let offline_after = SimDuration::from_nanos(
            self.report_interval.as_nanos() * u64::from(self.missed_for_offline),
        );
        let mut cpu_sum = 0.0;
        for (&station, slot) in &self.slots {
            let Some(report) = &slot.last_report else {
                // Never reported: counted in `stations` but not alarmed,
                // mirroring the monitoring store's liveness rule.
                continue;
            };
            summary.reporting += 1;
            summary.capacity += report.capacity;
            cpu_sum += report.usage.cpu_fraction;
            summary.connected_clients += report.connected_clients.len();
            summary.running_nfs += report.running_nfs;
            summary.flow_cache.merge(&report.flow_cache);
            summary.megaflow.merge(&report.megaflow);
            summary.batches.merge(&report.batches);
            summary.chaos.merge(&report.chaos);
            if report.is_hotspot(self.hotspot_threshold) {
                summary
                    .hotspots
                    .push((station, report.dominant_utilisation()));
            }
            if let Some(last_seen) = slot.last_seen {
                if now.duration_since(last_seen) >= offline_after {
                    summary.offline.push(station);
                }
            }
        }
        if summary.reporting > 0 {
            summary.mean_cpu_fraction = cpu_sum / summary.reporting as f64;
        }
        summary
            .hotspots
            .sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::DeltaEncoder;
    use gnf_types::{AgentId, ClientId, HostClass, ResourceUsage};

    fn report(station: u64, cpu: f64, at: SimTime) -> StationReport {
        StationReport {
            station: StationId::new(station),
            agent: AgentId::new(station),
            produced_at: at,
            host_class: HostClass::EdgeServer,
            capacity: HostClass::EdgeServer.capacity(),
            usage: ResourceUsage {
                cpu_fraction: cpu,
                memory_mb: 100,
                disk_mb: 100,
                rx_bps: 0.0,
                tx_bps: 0.0,
            },
            connected_clients: vec![ClientId::new(station * 10)],
            running_nfs: 2,
            cached_images: 1,
            flow_cache: FlowCacheTelemetry {
                stats: Default::default(),
                entries: 5,
            },
            megaflow: MegaflowTelemetry::default(),
            batches: BatchTelemetry::default(),
            chaos: ChaosTelemetry::default(),
        }
    }

    fn aggregator() -> RegionAggregator {
        RegionAggregator::new(0, 0.85, SimDuration::from_secs(2), 3)
    }

    #[test]
    fn summary_merges_reports_and_flags_hotspots() {
        let mut agg = aggregator();
        for s in 0..4u64 {
            agg.register_station(StationId::new(s));
        }
        let at = SimTime::from_secs(2);
        for s in 0..3u64 {
            let cpu = if s == 2 { 0.95 } else { 0.30 };
            agg.ingest_report(report(s, cpu, at), at);
        }
        let summary = agg.summary(SimTime::from_secs(3));
        assert_eq!(summary.stations, 4);
        assert_eq!(summary.reporting, 3);
        assert_eq!(summary.connected_clients, 3);
        assert_eq!(summary.running_nfs, 6);
        assert_eq!(summary.flow_cache.entries, 15);
        assert_eq!(summary.hotspots, vec![(StationId::new(2), 0.95)]);
        assert!(summary.offline.is_empty());
        assert!((summary.mean_cpu_fraction - (0.3 + 0.3 + 0.95) / 3.0).abs() < 1e-9);
    }

    #[test]
    fn silent_station_goes_offline_but_never_reported_does_not() {
        let mut agg = aggregator();
        agg.register_station(StationId::new(0));
        agg.register_station(StationId::new(1));
        agg.ingest_report(report(0, 0.2, SimTime::from_secs(2)), SimTime::from_secs(2));
        // 3 missed intervals of 2s → offline at 8s.
        let summary = agg.summary(SimTime::from_secs(9));
        assert_eq!(summary.offline, vec![StationId::new(0)]);
        // Station 1 never reported: counted, not alarmed.
        assert_eq!(summary.stations, 2);
        assert_eq!(summary.reporting, 1);
    }

    #[test]
    fn aggregator_accepts_delta_streams() {
        let mut agg = aggregator();
        let mut encoder = DeltaEncoder::new(4);
        let at = SimTime::from_secs(2);
        let first = report(5, 0.4, at);
        agg.ingest_delta(&encoder.encode(&first), at).unwrap();
        let mut second = report(5, 0.9, SimTime::from_secs(4));
        second.running_nfs = 7;
        agg.ingest_delta(&encoder.encode(&second), SimTime::from_secs(4))
            .unwrap();
        let summary = agg.summary(SimTime::from_secs(5));
        assert_eq!(summary.reporting, 1);
        assert_eq!(summary.running_nfs, 7);
        assert_eq!(summary.hotspots.len(), 1);
        assert_eq!(agg.reassembler_stats().keyframes, 1);
        assert_eq!(agg.reassembler_stats().deltas_applied, 1);
    }
}
