//! The Manager-side monitoring store: per-station health derived from the
//! stream of Agent reports, offline detection based on missed reports, and
//! resource-hotspot detection ("the part of the infrastructure that should be
//! upgraded").

use crate::metrics::RingSeries;
use crate::report::StationReport;
use gnf_types::{PathMap, SimDuration, SimTime, StationId};
use serde::{Deserialize, Serialize};

/// Liveness status of a station as seen by the Manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StationStatus {
    /// Reports are arriving on schedule.
    Online,
    /// At least one report interval has been missed.
    Degraded,
    /// Enough reports have been missed to consider the station gone.
    Offline,
}

/// Per-station health record maintained by the monitoring store.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StationHealth {
    /// The station concerned.
    pub station: StationId,
    /// The most recent report, if any has ever arrived.
    pub last_report: Option<StationReport>,
    /// When the most recent report arrived.
    pub last_seen: Option<SimTime>,
    /// Liveness status.
    pub status: StationStatus,
    /// History of the dominant-utilisation fraction over time, bounded to
    /// [`UTILISATION_HISTORY_CAPACITY`] points (oldest rotated out and
    /// counted) so long emulations cannot grow Manager memory without bound.
    pub utilisation_history: RingSeries,
    /// Total reports received.
    pub reports_received: u64,
}

/// Retained utilisation-history points per station.
pub const UTILISATION_HISTORY_CAPACITY: usize = 1024;

impl StationHealth {
    fn new(station: StationId) -> Self {
        StationHealth {
            station,
            last_report: None,
            last_seen: None,
            status: StationStatus::Offline,
            utilisation_history: RingSeries::new(UTILISATION_HISTORY_CAPACITY),
            reports_received: 0,
        }
    }
}

/// The monitoring store fed by Agent reports. One health record per
/// station, found in O(1) by every report the Manager ingests.
#[derive(Debug, Clone)]
pub struct MonitoringStore {
    stations: PathMap<StationId, StationHealth>,
    report_interval: SimDuration,
    missed_for_offline: u32,
}

impl MonitoringStore {
    /// Creates a store expecting one report per `report_interval` from every
    /// station, declaring a station offline after `missed_for_offline`
    /// consecutive missed intervals.
    pub fn new(report_interval: SimDuration, missed_for_offline: u32) -> Self {
        MonitoringStore {
            stations: PathMap::default(),
            report_interval,
            missed_for_offline: missed_for_offline.max(1),
        }
    }

    /// Registers a station so its (lack of) reports is tracked.
    pub fn register_station(&mut self, station: StationId) {
        self.stations
            .entry(station)
            .or_insert_with(|| StationHealth::new(station));
    }

    /// Ingests a report from an Agent.
    pub fn ingest(&mut self, report: StationReport, received_at: SimTime) {
        let health = self
            .stations
            .entry(report.station)
            .or_insert_with(|| StationHealth::new(report.station));
        health.reports_received += 1;
        health.last_seen = Some(received_at);
        health.status = StationStatus::Online;
        health
            .utilisation_history
            .push(received_at, report.dominant_utilisation());
        health.last_report = Some(report);
    }

    /// Re-evaluates liveness at `now`, returning the stations whose status
    /// *changed* to offline in this pass, in station order (so the Manager
    /// can raise one notification per transition, in a fixed order).
    pub fn refresh_liveness(&mut self, now: SimTime) -> Vec<StationId> {
        let mut newly_offline = Vec::new();
        for health in self.stations.values_mut() {
            let Some(last_seen) = health.last_seen else {
                // Never reported: stays Offline.
                continue;
            };
            let silent_for = now.duration_since(last_seen);
            let missed = (silent_for.as_nanos() / self.report_interval.as_nanos().max(1)) as u32;
            let new_status = if missed == 0 {
                StationStatus::Online
            } else if missed < self.missed_for_offline {
                StationStatus::Degraded
            } else {
                StationStatus::Offline
            };
            if new_status == StationStatus::Offline && health.status != StationStatus::Offline {
                newly_offline.push(health.station);
            }
            health.status = new_status;
        }
        newly_offline.sort_unstable();
        newly_offline
    }

    /// The health record of one station.
    pub fn station(&self, station: StationId) -> Option<&StationHealth> {
        self.stations.get(&station)
    }

    /// All health records, in no particular order.
    pub fn stations(&self) -> impl Iterator<Item = &StationHealth> {
        self.stations.values()
    }

    /// Number of tracked stations.
    pub fn len(&self) -> usize {
        self.stations.len()
    }

    /// True when no station is tracked.
    pub fn is_empty(&self) -> bool {
        self.stations.is_empty()
    }

    /// Number of stations currently online.
    pub fn online_count(&self) -> usize {
        self.stations
            .values()
            .filter(|h| h.status == StationStatus::Online)
            .count()
    }

    /// Sum of connected clients over the latest reports.
    pub fn connected_clients(&self) -> usize {
        self.stations
            .values()
            .filter_map(|h| h.last_report.as_ref())
            .map(|r| r.connected_clients.len())
            .sum()
    }

    /// Sum of running NFs over the latest reports.
    pub fn running_nfs(&self) -> usize {
        self.stations
            .values()
            .filter_map(|h| h.last_report.as_ref())
            .map(|r| r.running_nfs)
            .sum()
    }
}

/// Detects resource hotspots over the monitoring store.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotspotDetector {
    /// Dominant-utilisation fraction at or above which a station is flagged.
    pub threshold: f64,
}

impl HotspotDetector {
    /// Creates a detector with the given threshold.
    pub fn new(threshold: f64) -> Self {
        HotspotDetector { threshold }
    }

    /// Returns the stations whose latest report exceeds the threshold,
    /// together with their dominant utilisation, most loaded first and in
    /// station order among equals.
    pub fn hotspots(&self, store: &MonitoringStore) -> Vec<(StationId, f64)> {
        let mut result: Vec<(StationId, f64)> = store
            .stations()
            .filter_map(|h| h.last_report.as_ref())
            .map(|r| (r.station, r.dominant_utilisation()))
            .filter(|(_, util)| *util >= self.threshold)
            .collect();
        // Every utilisation here passed the `>=` filter, so none is NaN and
        // the order is total.
        result.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                disk_mb: 10,
                rx_bps: 0.0,
                tx_bps: 0.0,
            },
            connected_clients: vec![ClientId::new(station * 10)],
            running_nfs: 2,
            cached_images: 1,
            flow_cache: Default::default(),
            megaflow: Default::default(),
            batches: Default::default(),
            chaos: Default::default(),
        }
    }

    fn store() -> MonitoringStore {
        MonitoringStore::new(SimDuration::from_secs(2), 3)
    }

    #[test]
    fn ingest_marks_stations_online_and_tracks_history() {
        let mut store = store();
        store.ingest(report(1, 0.3, SimTime::from_secs(2)), SimTime::from_secs(2));
        store.ingest(report(1, 0.5, SimTime::from_secs(4)), SimTime::from_secs(4));
        let health = store.station(StationId::new(1)).unwrap();
        assert_eq!(health.status, StationStatus::Online);
        assert_eq!(health.reports_received, 2);
        assert_eq!(health.utilisation_history.len(), 2);
        assert_eq!(store.online_count(), 1);
        assert_eq!(store.connected_clients(), 1);
        assert_eq!(store.running_nfs(), 2);
    }

    #[test]
    fn utilisation_history_is_bounded_with_drop_accounting() {
        let mut store = store();
        let n = UTILISATION_HISTORY_CAPACITY as u64 + 5;
        for i in 0..n {
            let t = SimTime::from_secs(2 * (i + 1));
            store.ingest(report(1, 0.5, t), t);
        }
        let health = store.station(StationId::new(1)).unwrap();
        assert_eq!(health.reports_received, n, "totals keep counting");
        assert_eq!(
            health.utilisation_history.len(),
            UTILISATION_HISTORY_CAPACITY,
            "history is bounded"
        );
        assert_eq!(
            health.utilisation_history.dropped(),
            5,
            "rotated-out points are accounted"
        );
    }

    #[test]
    fn missed_reports_degrade_then_offline() {
        let mut store = store();
        store.ingest(report(1, 0.3, SimTime::from_secs(2)), SimTime::from_secs(2));
        // One missed interval → degraded.
        assert!(store.refresh_liveness(SimTime::from_secs(5)).is_empty());
        assert_eq!(
            store.station(StationId::new(1)).unwrap().status,
            StationStatus::Degraded
        );
        // Three missed intervals → offline, reported exactly once.
        let newly = store.refresh_liveness(SimTime::from_secs(9));
        assert_eq!(newly, vec![StationId::new(1)]);
        assert!(store.refresh_liveness(SimTime::from_secs(20)).is_empty());
        // A fresh report brings it back online.
        store.ingest(
            report(1, 0.2, SimTime::from_secs(21)),
            SimTime::from_secs(21),
        );
        assert_eq!(
            store.station(StationId::new(1)).unwrap().status,
            StationStatus::Online
        );
    }

    #[test]
    fn registered_but_silent_stations_stay_offline() {
        let mut store = store();
        store.register_station(StationId::new(9));
        assert_eq!(
            store.station(StationId::new(9)).unwrap().status,
            StationStatus::Offline
        );
        assert!(store.refresh_liveness(SimTime::from_secs(100)).is_empty());
        assert_eq!(store.len(), 1);
        assert_eq!(store.online_count(), 0);
    }

    #[test]
    fn newly_offline_stations_come_out_in_station_order() {
        let mut store = store();
        let order = [12u64, 4, 30, 0, 17, 8, 25, 2];
        for station in order {
            store.register_station(StationId::new(station));
        }
        for station in order.iter().rev() {
            let t = SimTime::from_secs(2);
            store.ingest(report(*station, 0.1, t), t);
        }
        let mut expected: Vec<StationId> = order.map(StationId::new).to_vec();
        expected.sort();
        assert_eq!(store.refresh_liveness(SimTime::from_secs(60)), expected);
        assert!(store.refresh_liveness(SimTime::from_secs(90)).is_empty());
    }

    #[test]
    fn equally_loaded_hotspots_come_out_in_station_order() {
        let mut store = store();
        let t = SimTime::from_secs(10);
        for station in [9, 3, 6, 1] {
            store.ingest(report(station, 0.9, t), t);
        }
        store.ingest(report(4, 0.95, t), t);
        let flagged: Vec<u64> = HotspotDetector::new(0.8)
            .hotspots(&store)
            .into_iter()
            .map(|(station, _)| station.raw())
            .collect();
        assert_eq!(flagged, vec![4, 1, 3, 6, 9]);
    }

    #[test]
    fn hotspot_detection_flags_only_overloaded_stations() {
        let mut store = store();
        let t = SimTime::from_secs(10);
        store.ingest(report(1, 0.95, t), t);
        store.ingest(report(2, 0.40, t), t);
        store.ingest(report(3, 0.88, t), t);
        let detector = HotspotDetector::new(0.85);
        let hotspots = detector.hotspots(&store);
        assert_eq!(hotspots.len(), 2);
        assert_eq!(hotspots[0].0, StationId::new(1), "most loaded first");
        assert_eq!(hotspots[1].0, StationId::new(3));
        assert!(HotspotDetector::new(0.99).hotspots(&store).is_empty());
    }
}
