//! Delta-encoded station reports: the fleet-scale wire format.
//!
//! At 10k stations, shipping a full [`StationReport`] every interval makes
//! per-station manager cost grow with report *size*, not with what *changed*.
//! This module implements a cumulative-since-keyframe delta protocol:
//!
//! - Every generation opens with a **keyframe** (`seq == 0`): a delta frame
//!   carrying every section, stamped with a monotonically increasing
//!   `generation` that never resets (it survives crashes, so stale frames
//!   from before a crash are always recognisable).
//! - Subsequent frames of the generation (`seq > 0`) carry only the sections
//!   whose value differs from the keyframe — **cumulative** deltas, each one
//!   reconstructing the station's full current state against the keyframe
//!   alone. A lost delta therefore never corrupts later ones; the receiver
//!   simply skips an instant it never saw.
//! - A crash or rejoin forces the next frame to be a keyframe with
//!   `forced == true`, resynchronising the receiver without any
//!   manager→agent traffic (the resync protocol is strictly one-way, so
//!   delta mode adds zero control-plane messages).
//!
//! The receiver side is [`crate::MonitoringStore::ingest_delta`]: each
//! station's view holds the latest keyframe, rejects stale generations and
//! reordered sequence numbers, and overwrites its last report in place, so
//! it is byte-identical to what a full-report mode would have delivered at
//! the same instant.

use crate::report::{
    BatchTelemetry, ChaosTelemetry, FlowCacheTelemetry, MegaflowTelemetry, StationReport,
};
use gnf_types::{AgentId, ClientId, HostClass, ResourceSpec, ResourceUsage, SimTime, StationId};
use serde::{Deserialize, Serialize};

/// Rarely-changing station identity carried by keyframes (and by deltas in
/// the unlikely event a station's hardware class changes).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdentitySection {
    /// Hardware class of the host.
    pub host_class: HostClass,
    /// Total resources of the host.
    pub capacity: ResourceSpec,
}

/// NF inventory counters: how many NF instances run and how many images are
/// cached locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NfSection {
    /// NF instances currently running.
    pub running_nfs: usize,
    /// NF images cached locally.
    pub cached_images: usize,
}

/// Which report sections *may* differ from the current keyframe. Agents set
/// these bits on the mutation paths themselves (client association, chain
/// commands, packet processing, chaos events) so the encoder can skip
/// comparing sections that cannot have changed. Hints are conservative: a
/// set bit only means "compare this section", never "send it regardless".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionHints {
    /// Connected-client set may have changed.
    pub clients: bool,
    /// NF inventory (running instances, cached images) may have changed.
    pub nfs: bool,
    /// Traffic counters (flow cache, megaflow, batches) may have changed.
    pub traffic: bool,
    /// Chaos counters (crashes, generation, churn, invalidations) may have
    /// changed.
    pub chaos: bool,
}

impl SectionHints {
    /// Hints claiming every section may have changed (always safe).
    pub fn all() -> Self {
        SectionHints {
            clients: true,
            nfs: true,
            traffic: true,
            chaos: true,
        }
    }

    /// Hints claiming no section changed (only safe right after a keyframe
    /// when no mutation path ran).
    pub fn none() -> Self {
        SectionHints {
            clients: false,
            nfs: false,
            traffic: false,
            chaos: false,
        }
    }
}

impl Default for SectionHints {
    fn default() -> Self {
        SectionHints::all()
    }
}

/// One frame of the delta stream: a keyframe when `seq == 0` (all sections
/// present), otherwise a cumulative delta against the generation's keyframe
/// (absent sections mean "unchanged since the keyframe"). On the wire an
/// absent section is omitted rather than written as `null` (decoding reads
/// a missing key as `None`), so an idle station's frame is its header.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct ReportDelta {
    /// Station this frame describes.
    pub station: StationId,
    /// Agent that produced it.
    pub agent: AgentId,
    /// Virtual time the underlying report was produced.
    pub produced_at: SimTime,
    /// Keyframe generation this frame belongs to. Strictly increases over
    /// the agent's lifetime, including across crashes.
    pub generation: u64,
    /// Position within the generation: 0 for the keyframe itself, then
    /// strictly increasing for the cumulative deltas that follow.
    pub seq: u64,
    /// True when this keyframe was forced by a crash or rejoin rather than
    /// the periodic keyframe cadence.
    pub forced: bool,
    /// Host class and capacity (identity; present on keyframes).
    pub identity: Option<IdentitySection>,
    /// Resource usage snapshot.
    pub usage: Option<ResourceUsage>,
    /// Sorted connected-client set.
    pub clients: Option<Vec<ClientId>>,
    /// NF inventory counters.
    pub nfs: Option<NfSection>,
    /// Exact-match flow-cache counters.
    pub flow_cache: Option<FlowCacheTelemetry>,
    /// Megaflow (wildcard) cache counters.
    pub megaflow: Option<MegaflowTelemetry>,
    /// Batch-size distribution.
    pub batches: Option<BatchTelemetry>,
    /// Chaos counters.
    pub chaos: Option<ChaosTelemetry>,
}

impl Serialize for ReportDelta {
    fn to_value(&self) -> serde::Value {
        let header = [
            ("station", self.station.to_value()),
            ("agent", self.agent.to_value()),
            ("produced_at", self.produced_at.to_value()),
            ("generation", self.generation.to_value()),
            ("seq", self.seq.to_value()),
            ("forced", self.forced.to_value()),
        ];
        let sections = [
            ("identity", self.identity.as_ref().map(Serialize::to_value)),
            ("usage", self.usage.as_ref().map(Serialize::to_value)),
            ("clients", self.clients.as_ref().map(Serialize::to_value)),
            ("nfs", self.nfs.as_ref().map(Serialize::to_value)),
            (
                "flow_cache",
                self.flow_cache.as_ref().map(Serialize::to_value),
            ),
            ("megaflow", self.megaflow.as_ref().map(Serialize::to_value)),
            ("batches", self.batches.as_ref().map(Serialize::to_value)),
            ("chaos", self.chaos.as_ref().map(Serialize::to_value)),
        ];
        let present = sections
            .into_iter()
            .filter_map(|(key, value)| Some((key, value?)));
        serde::Value::Object(
            header
                .into_iter()
                .chain(present)
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }
}

impl ReportDelta {
    /// Sections a keyframe carries: all of them.
    pub(crate) const SECTIONS: usize = 8;

    /// Builds a keyframe: a frame carrying every section of `report`.
    pub fn keyframe(report: &StationReport, generation: u64, forced: bool) -> Self {
        ReportDelta {
            station: report.station,
            agent: report.agent,
            produced_at: report.produced_at,
            generation,
            seq: 0,
            forced,
            identity: Some(IdentitySection {
                host_class: report.host_class,
                capacity: report.capacity,
            }),
            usage: Some(report.usage),
            clients: Some(report.connected_clients.clone()),
            nfs: Some(NfSection {
                running_nfs: report.running_nfs,
                cached_images: report.cached_images,
            }),
            flow_cache: Some(report.flow_cache),
            megaflow: Some(report.megaflow),
            batches: Some(report.batches.clone()),
            chaos: Some(report.chaos),
        }
    }

    /// Builds a cumulative delta: only the sections of `current` whose value
    /// differs from the generation's keyframe `base` are carried. `hints`
    /// lets the caller skip comparisons for sections no mutation path
    /// touched; identity and usage are always compared (usage drifts with
    /// virtual time through the bits-per-second rates, so it has no single
    /// mutation path to piggyback on).
    pub fn diff(
        base: &StationReport,
        current: &StationReport,
        generation: u64,
        seq: u64,
        hints: SectionHints,
    ) -> Self {
        debug_assert!(hints.clients || current.connected_clients == base.connected_clients);
        debug_assert!(
            hints.nfs
                || (current.running_nfs == base.running_nfs
                    && current.cached_images == base.cached_images)
        );
        debug_assert!(
            hints.traffic
                || (current.flow_cache == base.flow_cache
                    && current.megaflow == base.megaflow
                    && current.batches == base.batches)
        );
        debug_assert!(hints.chaos || current.chaos == base.chaos);
        let identity = (current.host_class != base.host_class || current.capacity != base.capacity)
            .then_some(IdentitySection {
                host_class: current.host_class,
                capacity: current.capacity,
            });
        let nfs = (hints.nfs
            && (current.running_nfs != base.running_nfs
                || current.cached_images != base.cached_images))
            .then_some(NfSection {
                running_nfs: current.running_nfs,
                cached_images: current.cached_images,
            });
        ReportDelta {
            station: current.station,
            agent: current.agent,
            produced_at: current.produced_at,
            generation,
            seq,
            forced: false,
            identity,
            usage: (current.usage != base.usage).then_some(current.usage),
            clients: (hints.clients && current.connected_clients != base.connected_clients)
                .then(|| current.connected_clients.clone()),
            nfs,
            flow_cache: (hints.traffic && current.flow_cache != base.flow_cache)
                .then_some(current.flow_cache),
            megaflow: (hints.traffic && current.megaflow != base.megaflow)
                .then_some(current.megaflow),
            batches: (hints.traffic && current.batches != base.batches)
                .then(|| current.batches.clone()),
            chaos: (hints.chaos && current.chaos != base.chaos).then_some(current.chaos),
        }
    }

    /// True when this frame opens a generation (all sections present).
    pub fn is_keyframe(&self) -> bool {
        self.seq == 0
    }

    /// Writes the station's full state at this frame's instant into `into`,
    /// section by section: from this frame where it carries the section,
    /// else from `base`, the generation's keyframe. The old report's client
    /// buffer is reused (`clone_from`), so a warm overlay makes no heap
    /// request. Returns false, leaving `into` as it was, when a section is in
    /// neither (a keyframe missing sections, with no base).
    pub(crate) fn overlay(
        &self,
        base: Option<&StationReport>,
        into: &mut Option<StationReport>,
    ) -> bool {
        let identity = self.identity.or(base.map(|b| IdentitySection {
            host_class: b.host_class,
            capacity: b.capacity,
        }));
        let nfs = self.nfs.or(base.map(|b| NfSection {
            running_nfs: b.running_nfs,
            cached_images: b.cached_images,
        }));
        let rebuilt = || {
            Some(StationReport {
                station: self.station,
                agent: self.agent,
                produced_at: self.produced_at,
                host_class: identity?.host_class,
                capacity: identity?.capacity,
                usage: self.usage.or(base.map(|b| b.usage))?,
                connected_clients: Vec::new(),
                running_nfs: nfs?.running_nfs,
                cached_images: nfs?.cached_images,
                flow_cache: self.flow_cache.or(base.map(|b| b.flow_cache))?,
                megaflow: self.megaflow.or(base.map(|b| b.megaflow))?,
                batches: self.batches.as_ref().or(base.map(|b| &b.batches))?.clone(),
                chaos: self.chaos.or(base.map(|b| b.chaos))?,
            })
        };
        let clients = self.clients.as_ref().or(base.map(|b| &b.connected_clients));
        let (Some(mut report), Some(clients)) = (rebuilt(), clients) else {
            return false;
        };
        let old = into.take().map(|old| old.connected_clients);
        report.connected_clients = old.unwrap_or_default();
        report.connected_clients.clone_from(clients);
        *into = Some(report);
        true
    }

    /// Number of sections this frame carries (8 for a keyframe).
    pub fn sections_carried(&self) -> usize {
        usize::from(self.identity.is_some())
            + usize::from(self.usage.is_some())
            + usize::from(self.clients.is_some())
            + usize::from(self.nfs.is_some())
            + usize::from(self.flow_cache.is_some())
            + usize::from(self.megaflow.is_some())
            + usize::from(self.batches.is_some())
            + usize::from(self.chaos.is_some())
    }
}

/// Sender-side state of the delta protocol: holds the keyframe the receiver
/// is reconstructing against and decides when to open a new generation.
///
/// The Agent owns one of these; benchmark and test harnesses drive it
/// directly over synthetic reports.
#[derive(Debug, Clone)]
pub struct DeltaEncoder {
    keyframe: Option<Box<StationReport>>,
    generation: u64,
    seq: u64,
    interval: u64,
    force_keyframe: bool,
}

impl DeltaEncoder {
    /// Creates an encoder that emits `keyframe_interval` cumulative deltas
    /// between keyframes (0 makes every frame a keyframe).
    pub fn new(keyframe_interval: u64) -> Self {
        DeltaEncoder {
            keyframe: None,
            generation: 0,
            seq: 0,
            interval: keyframe_interval,
            force_keyframe: false,
        }
    }

    /// Forces the next frame to be a keyframe with `forced == true`. Called
    /// on crash or rejoin: the receiver's held keyframe describes pre-crash
    /// state, so the stream must resynchronise.
    pub fn force_resync(&mut self) {
        self.force_keyframe = true;
        self.keyframe = None;
    }

    /// Generation of the stream's current keyframe (0 before the first).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Encodes the next frame for `report` with every section compared.
    pub fn encode(&mut self, report: &StationReport) -> ReportDelta {
        self.encode_with_hints(report, SectionHints::all())
    }

    /// Encodes the next frame for `report`, comparing only hinted sections
    /// (plus identity and usage, which are always compared).
    pub fn encode_with_hints(
        &mut self,
        report: &StationReport,
        hints: SectionHints,
    ) -> ReportDelta {
        let due = self.force_keyframe || self.seq >= self.interval;
        let (false, Some(keyframe)) = (due, &self.keyframe) else {
            self.generation += 1;
            self.seq = 0;
            let forced = self.force_keyframe;
            self.force_keyframe = false;
            self.keyframe = Some(Box::new(report.clone()));
            return ReportDelta::keyframe(report, self.generation, forced);
        };
        self.seq += 1;
        ReportDelta::diff(keyframe, report, self.generation, self.seq, hints)
    }
}

/// Why a receiver refused a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaReject {
    /// A non-keyframe frame arrived for a station with no held keyframe
    /// (first contact, or the receiver restarted); wait for the next
    /// keyframe.
    UnknownStation,
    /// The frame's generation does not match the held keyframe — either a
    /// stale replay from before a resync, or the generation's keyframe was
    /// lost in transit.
    GenerationMismatch,
    /// A keyframe older than (or equal to) the held generation.
    StaleKeyframe,
    /// A delta at or behind the last applied sequence number (reordered or
    /// replayed frame).
    StaleSeq,
    /// A keyframe missing sections (malformed frame).
    MissingSections,
}

/// Receiver-side report counters: full reports, and the delta protocol's
/// frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblerStats {
    /// Full reports ingested.
    pub full_reports: u64,
    /// Keyframes accepted (generations opened).
    pub keyframes: u64,
    /// Keyframes accepted with `forced == true` (crash/rejoin resyncs).
    pub forced_resyncs: u64,
    /// Cumulative deltas applied.
    pub deltas_applied: u64,
    /// Frames rejected (stale, reordered or malformed).
    pub deltas_rejected: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MonitoringStore;
    use gnf_types::SimDuration;

    fn store() -> MonitoringStore {
        MonitoringStore::new(SimDuration::from_secs(2), 3)
    }

    /// Ingests `frame` and returns the station's reconstructed report.
    fn ingest(store: &mut MonitoringStore, frame: &ReportDelta) -> StationReport {
        store
            .ingest_delta(frame, frame.produced_at)
            .expect("an in-order frame applies");
        store
            .station(frame.station)
            .and_then(|view| view.last_report.clone())
            .expect("an applied frame leaves a report")
    }

    fn sample_report(station: u64, produced_at: SimTime) -> StationReport {
        StationReport {
            station: StationId::new(station),
            agent: AgentId::new(station),
            produced_at,
            host_class: HostClass::EdgeServer,
            capacity: HostClass::EdgeServer.capacity(),
            usage: ResourceUsage {
                cpu_fraction: 0.25,
                memory_mb: 512,
                disk_mb: 1_000,
                rx_bps: 1e6,
                tx_bps: 2e5,
            },
            connected_clients: vec![ClientId::new(1), ClientId::new(2)],
            running_nfs: 3,
            cached_images: 2,
            flow_cache: FlowCacheTelemetry::default(),
            megaflow: MegaflowTelemetry::default(),
            batches: BatchTelemetry::default(),
            chaos: ChaosTelemetry::default(),
        }
    }

    #[test]
    fn keyframe_roundtrips_to_identical_report() {
        let report = sample_report(7, SimTime::from_secs(2));
        let frame = ReportDelta::keyframe(&report, 1, false);
        assert!(frame.is_keyframe());
        assert_eq!(frame.sections_carried(), ReportDelta::SECTIONS);
        let mut rebuilt = None;
        assert!(frame.overlay(None, &mut rebuilt));
        assert_eq!(rebuilt.as_ref(), Some(&report));
        let mut headless = frame.clone();
        headless.usage = None;
        assert!(
            !headless.overlay(None, &mut rebuilt),
            "a section is missing"
        );
        assert_eq!(rebuilt, Some(report), "a refused overlay writes nothing");
    }

    #[test]
    fn cumulative_deltas_reconstruct_each_instant() {
        let mut encoder = DeltaEncoder::new(8);
        let mut store = store();
        let base = sample_report(1, SimTime::from_secs(2));
        let frame = encoder.encode(&base);
        assert_eq!(ingest(&mut store, &frame), base);

        let mut second = sample_report(1, SimTime::from_secs(4));
        second.flow_cache.entries = 40;
        second.running_nfs = 5;
        let frame = encoder.encode(&second);
        assert!(!frame.is_keyframe());
        // produced_at changed, usage unchanged, so: nfs + flow_cache only.
        assert_eq!(frame.sections_carried(), 2);
        assert_eq!(ingest(&mut store, &frame), second);

        // Third report reverts running_nfs to the keyframe value: the
        // cumulative delta simply stops carrying the section.
        let mut third = sample_report(1, SimTime::from_secs(6));
        third.flow_cache.entries = 80;
        let frame = encoder.encode(&third);
        assert_eq!(frame.sections_carried(), 1);
        assert_eq!(ingest(&mut store, &frame), third);
    }

    #[test]
    fn idle_station_sends_empty_deltas() {
        let mut encoder = DeltaEncoder::new(100);
        let base = sample_report(1, SimTime::from_secs(2));
        let _ = encoder.encode(&base);
        let mut next = base.clone();
        next.produced_at = SimTime::from_secs(4);
        let frame = encoder.encode_with_hints(&next, SectionHints::none());
        assert_eq!(frame.sections_carried(), 0);
        // An idle delta is far smaller on the wire than the full report.
        let delta_bytes = serde_json::to_string(&frame).unwrap().len();
        let full_bytes = serde_json::to_string(&next).unwrap().len();
        assert!(
            delta_bytes * 2 < full_bytes,
            "{delta_bytes} vs {full_bytes}"
        );
    }

    #[test]
    fn keyframe_cadence_and_generation_bumps() {
        let mut encoder = DeltaEncoder::new(2);
        let report = sample_report(1, SimTime::from_secs(2));
        let frames: Vec<ReportDelta> = (0..6).map(|_| encoder.encode(&report)).collect();
        let kinds: Vec<bool> = frames.iter().map(ReportDelta::is_keyframe).collect();
        assert_eq!(kinds, [true, false, false, true, false, false]);
        assert_eq!(frames[0].generation, 1);
        assert_eq!(frames[3].generation, 2);
        assert_eq!(frames[4].seq, 1);
    }

    #[test]
    fn forced_resync_opens_new_generation() {
        let mut encoder = DeltaEncoder::new(100);
        let mut store = store();
        let report = sample_report(1, SimTime::from_secs(2));
        ingest(&mut store, &encoder.encode(&report));
        encoder.force_resync();
        let frame = encoder.encode(&report);
        assert!(frame.is_keyframe());
        assert!(frame.forced);
        assert_eq!(frame.generation, 2);
        ingest(&mut store, &frame);
        assert_eq!(store.stats().forced_resyncs, 1);
        assert_eq!(store.stats().keyframes, 2);
    }

    #[test]
    fn stale_and_reordered_frames_are_rejected() {
        let mut encoder = DeltaEncoder::new(100);
        let mut store = store();
        let report = sample_report(1, SimTime::from_secs(2));
        let keyframe = encoder.encode(&report);
        let at = SimTime::from_secs(2);
        let mut changed = report.clone();
        changed.running_nfs = 9;
        let d1 = encoder.encode(&changed);
        let d2 = encoder.encode(&changed);

        // Delta before its keyframe: unknown station.
        assert_eq!(
            store.ingest_delta(&d1, at),
            Err(DeltaReject::UnknownStation)
        );
        assert!(store.is_empty(), "a refused frame opens no view");
        ingest(&mut store, &keyframe);
        ingest(&mut store, &d2);
        // Reordered: d1 (seq 1) after d2 (seq 2).
        assert_eq!(store.ingest_delta(&d1, at), Err(DeltaReject::StaleSeq));
        // Replaying the keyframe is stale too.
        assert_eq!(
            store.ingest_delta(&keyframe, at),
            Err(DeltaReject::StaleKeyframe)
        );
        // A newer keyframe missing a section is malformed.
        let mut malformed = keyframe.clone();
        malformed.generation = 9;
        malformed.chaos = None;
        assert_eq!(
            store.ingest_delta(&malformed, at),
            Err(DeltaReject::MissingSections)
        );

        // A frame from a superseded generation is rejected after resync.
        encoder.force_resync();
        let kf2 = encoder.encode(&report);
        ingest(&mut store, &kf2);
        let stale = encoder.encode(&changed);
        assert_eq!(stale.generation, 2);
        let mut old_gen = stale.clone();
        old_gen.generation = 1;
        assert_eq!(
            store.ingest_delta(&old_gen, at),
            Err(DeltaReject::GenerationMismatch)
        );
        assert_eq!(store.stats().deltas_rejected, 5);
    }
}
