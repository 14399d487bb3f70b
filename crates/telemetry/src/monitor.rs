//! The receiver-side station view: one [`StationHealth`] per station —
//! what it registered with, its liveness, the delta stream its reports ride
//! and its latest report — in one [`MonitoringStore`], with the rules read
//! from it: offline detection based on missed reports, and resource-hotspot
//! detection ("the part of the infrastructure that should be upgraded").
//! The Manager keeps the one store; every station report lands in it.

use crate::delta::{DeltaReject, ReassemblerStats, ReportDelta};
use crate::report::StationReport;
use gnf_types::{HostClass, PathMap, ResourceSpec, SimDuration, SimTime, StationId};
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

/// What a station announced when it registered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Registration {
    /// Its hardware class.
    pub host_class: HostClass,
    /// Its capacity.
    pub capacity: ResourceSpec,
    /// When it (last) registered.
    pub registered_at: SimTime,
}

/// One station as a receiver sees it.
#[derive(Debug, Clone)]
pub struct StationHealth {
    /// The station concerned.
    pub station: StationId,
    /// Its registration; `None` until a `Register` arrives (a report can
    /// come first).
    pub registration: Option<Registration>,
    /// When the most recent accepted report arrived.
    pub last_seen: Option<SimTime>,
    /// Liveness status.
    pub status: StationStatus,
    /// Total reports accepted.
    pub reports_received: u64,
    /// The most recent report: a full report as it arrived, or the delta
    /// stream's reconstruction, overwritten in place by every frame.
    pub last_report: Option<StationReport>,
    /// The delta stream's keyframe, once one has arrived.
    keyframe: Option<StationReport>,
    /// Generation of the held keyframe.
    generation: u64,
    /// Sequence number of the last frame applied in that generation.
    last_seq: u64,
}

impl StationHealth {
    fn new(station: StationId) -> Self {
        StationHealth {
            station,
            registration: None,
            last_seen: None,
            status: StationStatus::Offline,
            reports_received: 0,
            last_report: None,
            keyframe: None,
            generation: 0,
            last_seq: 0,
        }
    }

    fn seen(&mut self, at: SimTime) {
        self.reports_received += 1;
        self.last_seen = Some(at);
        self.status = StationStatus::Online;
    }
}

/// The one liveness rule: silent for less than one report interval is
/// online, for `offline_after` or more offline, degraded in between.
fn status(silent: SimDuration, interval: SimDuration, offline_after: SimDuration) -> StationStatus {
    match (silent < interval, silent < offline_after) {
        (true, _) => StationStatus::Online,
        (false, true) => StationStatus::Degraded,
        (false, false) => StationStatus::Offline,
    }
}

/// The per-station table of one receiver, found in O(1) by every report it
/// ingests.
#[derive(Debug, Clone)]
pub struct MonitoringStore {
    stations: PathMap<StationId, StationHealth>,
    report_interval: SimDuration,
    offline_after: SimDuration,
    stats: ReassemblerStats,
}

impl MonitoringStore {
    /// Creates a store expecting one report per `report_interval` from every
    /// station, declaring a station offline after `missed_for_offline`
    /// (at least 1) silent intervals.
    pub fn new(report_interval: SimDuration, missed_for_offline: u32) -> Self {
        let interval = report_interval.as_nanos().max(1);
        MonitoringStore {
            stations: PathMap::default(),
            report_interval: SimDuration::from_nanos(interval),
            offline_after: SimDuration::from_nanos(
                interval.saturating_mul(u64::from(missed_for_offline.max(1))),
            ),
            stats: ReassemblerStats::default(),
        }
    }

    fn view(&mut self, station: StationId) -> &mut StationHealth {
        self.stations
            .entry(station)
            .or_insert_with(|| StationHealth::new(station))
    }

    /// Tracks a station so its (lack of) reports is seen.
    pub fn register_station(&mut self, station: StationId) {
        self.view(station);
    }

    /// Records a station's registration, returning true when it had
    /// registered before (a rejoin).
    pub fn register(&mut self, station: StationId, registration: Registration) -> bool {
        let view = self.view(station);
        view.registration.replace(registration).is_some()
    }

    /// Ingests a full report. The delta stream's state is left alone.
    pub fn ingest(&mut self, report: StationReport, at: SimTime) {
        self.stats.full_reports += 1;
        let view = self.view(report.station);
        view.seen(at);
        view.last_report = Some(report);
    }

    /// Ingests one delta frame, overwriting the station's last report in
    /// place (a warm view makes no heap request). A refused frame — stale,
    /// reordered or malformed — is counted and changes nothing in the view.
    pub fn ingest_delta(&mut self, frame: &ReportDelta, at: SimTime) -> Result<(), DeltaReject> {
        let held = self
            .stations
            .get(&frame.station)
            .filter(|view| view.keyframe.is_some())
            .map(|view| (view.generation, view.last_seq));
        let verdict = match (frame.is_keyframe(), held) {
            (true, _) if frame.sections_carried() < ReportDelta::SECTIONS => {
                Err(DeltaReject::MissingSections)
            }
            (true, Some((generation, _))) if frame.generation <= generation => {
                Err(DeltaReject::StaleKeyframe)
            }
            (false, None) => Err(DeltaReject::UnknownStation),
            (false, Some((generation, _))) if frame.generation != generation => {
                Err(DeltaReject::GenerationMismatch)
            }
            (false, Some((_, last_seq))) if frame.seq <= last_seq => Err(DeltaReject::StaleSeq),
            _ => Ok(()),
        };
        verdict.inspect_err(|_| self.stats.deltas_rejected += 1)?;
        if frame.is_keyframe() {
            self.stats.keyframes += 1;
            self.stats.forced_resyncs += u64::from(frame.forced);
        } else {
            self.stats.deltas_applied += 1;
        }
        let view = self.view(frame.station);
        if frame.is_keyframe() {
            let complete = frame.overlay(None, &mut view.keyframe);
            debug_assert!(complete, "a keyframe carries every section");
            view.generation = frame.generation;
        }
        view.last_seq = frame.seq;
        frame.overlay(view.keyframe.as_ref(), &mut view.last_report);
        view.seen(at);
        Ok(())
    }

    /// Report counters: full reports, and the delta protocol's keyframes,
    /// applied deltas and rejects.
    pub fn stats(&self) -> ReassemblerStats {
        self.stats
    }

    /// Re-evaluates liveness at `now`, returning the stations whose status
    /// *changed* to offline in this pass, in station order (so the Manager
    /// can raise one notification per transition, in a fixed order).
    pub fn refresh_liveness(&mut self, now: SimTime) -> Vec<StationId> {
        let (interval, offline_after) = (self.report_interval, self.offline_after);
        let mut newly_offline = Vec::new();
        for view in self.stations.values_mut() {
            // Never reported: stays Offline.
            let Some(last_seen) = view.last_seen else {
                continue;
            };
            let new_status = status(now.duration_since(last_seen), interval, offline_after);
            if new_status == StationStatus::Offline && view.status != StationStatus::Offline {
                newly_offline.push(view.station);
            }
            view.status = new_status;
        }
        newly_offline.sort_unstable();
        newly_offline
    }

    /// The stations whose latest report is at or above `threshold`, with
    /// their dominant utilisation, most loaded first and in station order
    /// among equals.
    pub fn hotspots(&self, threshold: f64) -> Vec<(StationId, f64)> {
        let mut hotspots: Vec<(StationId, f64)> = self
            .stations
            .values()
            .filter_map(|view| Some((view.station, view.last_report.as_ref()?)))
            .filter(|(_, report)| report.is_hotspot(threshold))
            .map(|(station, report)| (station, report.dominant_utilisation()))
            .collect();
        // Every utilisation here passed the `>=` filter, so none is NaN and
        // the order is total.
        hotspots.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        hotspots
    }

    /// The view of one station.
    pub fn station(&self, station: StationId) -> Option<&StationHealth> {
        self.stations.get(&station)
    }

    /// Every view, in station order.
    pub fn stations(&self) -> impl Iterator<Item = &StationHealth> {
        let mut views: Vec<&StationHealth> = self.stations.values().collect();
        views.sort_unstable_by_key(|view| view.station);
        views.into_iter()
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

    /// Sum of running NFs over the latest reports.
    pub fn running_nfs(&self) -> usize {
        self.stations
            .values()
            .filter_map(|h| h.last_report.as_ref())
            .map(|r| r.running_nfs)
            .sum()
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
        assert_eq!(store.online_count(), 1);
        assert_eq!(
            health.last_report.as_ref().unwrap().connected_clients.len(),
            1
        );
        assert_eq!(store.running_nfs(), 2);
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
        let flagged: Vec<u64> = store
            .hotspots(0.8)
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
        let hotspots = store.hotspots(0.85);
        assert_eq!(hotspots.len(), 2);
        assert_eq!(hotspots[0].0, StationId::new(1), "most loaded first");
        assert_eq!(hotspots[1].0, StationId::new(3));
        assert!(store.hotspots(0.99).is_empty());
    }

    #[test]
    fn a_report_before_registration_is_not_a_rejoin() {
        let mut store = store();
        let station = StationId::new(5);
        let t = SimTime::from_secs(2);
        store.ingest(report(5, 0.1, t), t);
        let registration = |at| Registration {
            host_class: HostClass::EdgeServer,
            capacity: HostClass::EdgeServer.capacity(),
            registered_at: at,
        };
        assert!(!store.register(station, registration(t)));
        assert!(store.register(station, registration(SimTime::from_secs(9))));
        let view = store.station(station).unwrap();
        assert_eq!(
            view.registration.unwrap().registered_at,
            SimTime::from_secs(9)
        );
        assert_eq!(view.reports_received, 1);
    }
}
