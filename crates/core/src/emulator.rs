//! The discrete-event emulator: wires the Manager, the Agents, the edge
//! topology, the mobility model and the traffic generators together and runs
//! a [`Scenario`] in virtual time.
//!
//! This is the reproduction of the paper's testbed: where the demo had two
//! OpenWRT home routers, a laptop running the Manager and real smartphones,
//! the emulator has `gnf-agent` instances (each with its own container
//! runtime and software switch), a `gnf-manager`, and clients that generate
//! real packets and roam according to a mobility model. Control messages
//! travel with configurable latency; container operations take the time the
//! cost model assigns them; every run is deterministic in its seed.

use crate::chaos::{ChaosReport, FaultKind, FaultSchedule, PartitionMode};
use crate::report::{MigrationReport, MigrationSummary, PacketStats, RunReport};
use crate::scenario::{Mobility, Scenario};
use crate::stages::{HostStages, Stage, StageTable};
use gnf_agent::{Agent, AgentConfig, PacketOutcome};
use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_container::ImageRepository;
use gnf_edge::{MobilityModel, TrafficGenerator};
use gnf_manager::{Manager, ManagerAction};
use gnf_nf::Direction;
use gnf_packet::{Packet, PacketBatch};
use gnf_sim::{EventQueue, Histogram, Rng};
use gnf_telemetry::{
    FlightRecorder, FlowCacheTelemetry, FlowRecord, MegaflowTelemetry, MetricsSample,
    MetricsSeries, MigrationPoolTelemetry, NotificationSeverity, RegionAggregator, TraceKind,
    TraceLog, TraceScope, TraceSink, DEFAULT_FLIGHT_CAPACITY, DEFAULT_FLIGHT_SAMPLE_RATE,
    DEFAULT_TRACE_CAPACITY, VIRTUAL_SHARDS,
};
use gnf_types::{
    AgentId, CellId, ClientId, FlowCacheStats, MegaflowStats, PathMap, SimDuration, SimTime,
    StationId,
};
use gnf_workload::{TimedBatch, Workload};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;

/// Events driving the emulator.
enum EmuEvent {
    /// A control message from an Agent reaches the Manager.
    ToManager {
        /// Originating station.
        station: StationId,
        /// The message.
        msg: AgentToManager,
    },
    /// A control message from the Manager reaches an Agent.
    ToAgent {
        /// Target station.
        station: StationId,
        /// The message.
        msg: ManagerToAgent,
    },
    /// A client (re-)associates with a cell.
    Attach {
        /// The client.
        client: ClientId,
        /// The cell it attaches to.
        cell: CellId,
    },
    /// A coalesced batch of client upstream packets arrives at a station:
    /// every same-virtual-time packet destined to one station travels as one
    /// event, so the hot path pays the event queue once per batch, not once
    /// per packet.
    PacketBatch {
        /// The station serving the clients at this time.
        station: StationId,
        /// The packets with their originating clients, in generation order.
        packets: Vec<(ClientId, Packet)>,
    },
    /// A streaming workload source's next batch falls due. The batch itself
    /// is parked in `Emulator::workload_next[source]` (exactly one per
    /// source) and the source is pumped for its successor only after this
    /// event delivers — so even a million-flow trace never materializes in
    /// the queue.
    WorkloadBatch {
        /// Index into `Emulator::workloads`.
        source: usize,
    },
    /// An Agent's periodic report timer fires.
    ReportTimer {
        /// The reporting station.
        station: StationId,
    },
    /// The Manager's periodic housekeeping timer fires.
    ManagerTick,
    /// A region aggregator's flush timer fires: roll the region's station
    /// telemetry into one summary for the Manager.
    RegionFlush {
        /// The region being flushed.
        region: u64,
    },
    /// The operator attaches an NF policy (from the scenario description).
    OperatorAttach {
        /// Index into the scenario's policy list.
        policy_index: usize,
    },
    /// A scheduled fault fires (index into the emulator's fault schedule).
    Fault {
        /// Index into `Emulator::fault_schedule`.
        index: usize,
    },
    /// A crashed station comes back up and re-registers.
    StationRestart {
        /// The restarting station.
        station: StationId,
    },
    /// A control-link partition ends.
    PartitionHeal {
        /// The station whose link heals.
        station: StationId,
    },
}

impl EmuEvent {
    /// The stage-table row `handle` of this event is timed under. A
    /// workload event's admission laps `GapFilter` itself; its row is the
    /// pump that follows.
    fn handle_stage(&self) -> Stage {
        match self {
            EmuEvent::ToManager { .. } => Stage::HandleToManager,
            EmuEvent::ToAgent { .. } => Stage::HandleToAgent,
            EmuEvent::Attach { .. } => Stage::HandleAttach,
            EmuEvent::PacketBatch { .. } => Stage::GapFilter,
            EmuEvent::WorkloadBatch { .. } => Stage::WorkloadPump,
            EmuEvent::ReportTimer { .. } => Stage::HandleReportTimer,
            EmuEvent::ManagerTick => Stage::HandleManagerTick,
            EmuEvent::RegionFlush { .. } => Stage::HandleRegionFlush,
            EmuEvent::OperatorAttach { .. } => Stage::HandleOperatorAttach,
            EmuEvent::Fault { .. } => Stage::HandleFault,
            EmuEvent::StationRestart { .. } => Stage::HandleStationRestart,
            EmuEvent::PartitionHeal { .. } => Stage::HandlePartitionHeal,
        }
    }
}

/// One station's place in the emulator, at index `station` of
/// `Emulator::slots` (station ids are positions, `EdgeTopology::add_site`).
struct StationSlot {
    /// The station's Agent.
    agent: Box<Agent>,
    /// Packets admitted for the station since the last flush, per batch
    /// time, in admission order. Empty between flushes; the buffer is
    /// reused.
    batches: Vec<(SimTime, PacketBatch)>,
}

/// Per-client gap state, computed once per (client, station) between two
/// flushes: only a control event changes the state it reads, and every
/// control event flushes first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GapState {
    /// No policy attached: traffic flows unprotected, never in a gap.
    NoPolicy,
    /// A chain is deployed on the station; packets before this time are in
    /// the migration/deployment gap, packets at or after it are protected.
    ReadyAt(SimTime),
    /// Policy attached but no chain ready on this station: every packet is
    /// in the gap.
    NeverReady,
    /// An in-flight pre-copy migration keeps the source chain serving
    /// (make-before-break): packets detour through the chain on this
    /// station until switchover. This is what dirties the pre-copied
    /// baseline — the dirty delta replayed at cutover is exactly the state
    /// these packets created.
    Hairpin(StationId),
}

/// The emulator.
pub struct Emulator {
    scenario: Scenario,
    manager: Manager,
    /// One slot per station, indexed by station id.
    slots: Vec<StationSlot>,
    /// The stations whose slot holds admitted packets, each once, in
    /// admission order; the flush sorts it into station order.
    touched: Vec<StationId>,
    queue: EventQueue<EmuEvent>,
    deploy_latency_ms: Histogram,
    packets: PacketStats,
    /// The admitted packets' counts since the last flush, which folds them
    /// into `packets` (so a metrics sample reads flushed counts only).
    tally: PacketStats,
    handovers: u64,
    /// Streaming traffic sources attached via [`Emulator::add_workload`].
    workloads: Vec<Box<dyn Workload>>,
    /// The one outstanding batch per source (pulled, not yet delivered).
    workload_next: Vec<Option<TimedBatch>>,
    /// The fault schedule set via [`Emulator::set_fault_schedule`].
    fault_schedule: FaultSchedule,
    /// Stations currently down, with the time they crashed.
    dead: BTreeMap<StationId, SimTime>,
    /// Stations whose control link is partitioned: heal time and mode.
    partitions: BTreeMap<StationId, (SimTime, PartitionMode)>,
    /// Restarted stations whose chains have not all reconverged yet, with
    /// their restart time.
    recovery_pending: BTreeMap<StationId, SimTime>,
    /// Fault-injection accounting for the report.
    chaos: ChaosReport,
    /// Run-scope event sink (fault instants, recovery/partition windows).
    /// Disabled unless [`Emulator::enable_tracing`] armed it.
    trace: TraceSink,
    /// Host wall-clock time per stage of `run()`, armed with the trace.
    stages: HostStages,
    /// Run-scope flight recorder for the loss classes only the emulator
    /// sees: gap drops/bypasses, crashed-station losses, hairpin detours.
    flight: FlightRecorder,
    /// The virtual-time metrics sampler, armed by
    /// [`Emulator::enable_metrics`].
    sampler: Option<MetricsSampler>,
    /// The region aggregation tier (one aggregator per region), built when
    /// `GnfConfig::region_size > 0`. Station reports are absorbed here and
    /// reach the Manager as per-region summaries on the flush timer.
    regions: BTreeMap<u64, RegionAggregator>,
    /// The gap states admission read since the last flush, which clears
    /// them.
    gap_cache: PathMap<(ClientId, StationId), GapState>,
}

/// Bound on retained fleet metrics samples.
const METRICS_SERIES_CAPACITY: usize = 1 << 14;

/// The virtual-time fleet sampler behind `--metrics-out`: snapshots the
/// fleet counters at every `k × metrics_interval` boundary the event clock
/// crosses. Sampling only reads emulator state and writes the series — it
/// schedules no events and flushes no batches, so the event sequence (and
/// the byte-compared [`RunReport`]) is identical with or without it.
struct MetricsSampler {
    series: MetricsSeries,
    /// The next unsampled boundary.
    next: SimTime,
    /// Totals at the previous boundary, for interval deltas.
    prev_packets: PacketStats,
    prev_flow: FlowCacheStats,
    prev_mega: MegaflowStats,
}

impl Emulator {
    /// Builds an emulator for a scenario (registers stations, schedules
    /// mobility, traffic, reports and policies) without running it yet.
    pub fn new(scenario: Scenario) -> Self {
        let config = scenario.config.clone();
        let manager = Manager::new(config.clone());
        let repository = ImageRepository::with_standard_images();
        let mut queue: EventQueue<EmuEvent> = EventQueue::new();
        let mut slots: Vec<StationSlot> = Vec::new();

        // Stations and their Agents. Emulated stations run the full
        // production data plane, megaflow (wildcard) caching included.
        for site in scenario.topology.sites() {
            let (mut agent, register) = Agent::new(
                AgentConfig {
                    agent: AgentId::new(site.station.raw()),
                    station: site.station,
                    host_class: site.host_class,
                },
                repository.clone(),
            );
            agent.set_megaflow_enabled(true);
            if config.delta_reports {
                agent.set_delta_reporting(config.report_keyframe_interval);
            }
            // Sites come in id order and ids are positions, so the slot
            // pushed here is the one at index `station`.
            slots.push(StationSlot {
                agent: Box::new(agent),
                batches: Vec::new(),
            });
            queue.schedule_at(
                SimTime::ZERO + site.control_latency,
                EmuEvent::ToManager {
                    station: site.station,
                    msg: register,
                },
            );
            // Stagger report timers slightly by station to avoid artificial
            // synchronisation. The stagger puts most first firings out of
            // order (they take the heap); every re-arm rides the timer lane.
            queue.schedule_timer(
                SimTime::ZERO
                    + config.agent_report_interval
                    + SimDuration::from_millis(site.station.raw() % 97),
                EmuEvent::ReportTimer {
                    station: site.station,
                },
            );
        }
        queue.schedule_at(
            SimTime::ZERO + config.hotspot_scan_interval,
            EmuEvent::ManagerTick,
        );

        // Region aggregation tier: group stations into regions of
        // `region_size` consecutive station ids, each with an aggregator
        // that absorbs the region's reports and flushes one summary per
        // report interval to the Manager.
        let mut regions: BTreeMap<u64, RegionAggregator> = BTreeMap::new();
        if config.region_size > 0 {
            for site in scenario.topology.sites() {
                let region = site.station.raw() / config.region_size as u64;
                regions
                    .entry(region)
                    .or_insert_with(|| {
                        RegionAggregator::new(
                            region,
                            config.hotspot_threshold,
                            config.agent_report_interval,
                            config.missed_reports_for_offline,
                        )
                    })
                    .register_station(site.station);
            }
            for &region in regions.keys() {
                // Flush after the stations' staggered report timers have
                // fired, staggered per region for the same reason.
                queue.schedule_at(
                    SimTime::ZERO
                        + config.agent_report_interval
                        + SimDuration::from_millis(200 + region % 89),
                    EmuEvent::RegionFlush { region },
                );
            }
        }

        // Initial client associations.
        for device in scenario.topology.clients() {
            if let Some(cell) = device.attached_cell {
                queue.schedule_at(
                    SimTime::ZERO + config.association_latency,
                    EmuEvent::Attach {
                        client: device.client,
                        cell,
                    },
                );
            }
        }

        // Operator policies.
        for (ix, policy) in scenario.policies.iter().enumerate() {
            queue.schedule_at(policy.at, EmuEvent::OperatorAttach { policy_index: ix });
        }

        // Mobility schedule.
        let until = SimTime::ZERO + scenario.duration;
        let mut rng = Rng::new(config.seed);
        let roam_events = match &scenario.mobility {
            Mobility::Static => Vec::new(),
            Mobility::Trace(trace) => trace.schedule(&scenario.topology, until, &mut rng),
            Mobility::RandomWalk(model) => model.schedule(&scenario.topology, until, &mut rng),
        };
        for event in &roam_events {
            queue.schedule_at(
                event.at,
                EmuEvent::Attach {
                    client: event.client,
                    cell: event.to_cell,
                },
            );
        }

        // Traffic: split each client's timeline into per-cell segments (from
        // the roam schedule) and pre-generate its packets per segment.
        let traffic_rng = Rng::new(config.seed ^ 0x7261_6666_6963); // "raffic"
        let mut traffic: Vec<(SimTime, StationId, ClientId, Packet)> = Vec::new();
        for workload in &scenario.workloads {
            let Ok(device) = scenario.topology.client(workload.client) else {
                continue;
            };
            let Some(initial_cell) = device.attached_cell else {
                continue;
            };
            let mut generator = TrafficGenerator::new(
                workload.profile,
                traffic_rng.derive(&format!("client-{}", workload.client.raw())),
            );
            // Build the (time, cell) timeline for this client.
            let mut timeline: Vec<(SimTime, CellId)> =
                vec![(SimTime::ZERO + config.association_latency, initial_cell)];
            for event in roam_events.iter().filter(|e| e.client == workload.client) {
                timeline.push((event.at, event.to_cell));
            }
            timeline.sort_by_key(|(t, _)| *t);

            for (ix, (start, cell)) in timeline.iter().enumerate() {
                let end = timeline
                    .get(ix + 1)
                    .map(|(t, _)| *t)
                    .unwrap_or(until)
                    .min(until);
                if *start >= end {
                    continue;
                }
                let Ok(site) = scenario.topology.site_for_cell(*cell) else {
                    continue;
                };
                for generated in generator.generate(device, site, *start, end) {
                    traffic.push((
                        generated.at,
                        site.station,
                        workload.client,
                        generated.packet,
                    ));
                }
            }
        }
        // Coalesce same-virtual-time packets destined to the same station
        // into one batch event each: the queue then costs one pop per batch.
        // The sort is stable, so same-(time, station) packets keep their
        // generation order; ordering across stations at one timestamp is by
        // station id, which is deterministic (and packets to different
        // stations are independent).
        //
        // The batches come out in time order, so they go to the queue's
        // sorted lane: the ~10^5 pre-generated traffic events never enter
        // the heap, which stays O(stations) deep for every other event.
        traffic.sort_by_key(|(at, station, _, _)| (*at, *station));
        let mut traffic = traffic.into_iter().peekable();
        queue.schedule_sorted(std::iter::from_fn(|| {
            let (at, station, client, packet) = traffic.next()?;
            let mut packets = vec![(client, packet)];
            while let Some((_, _, client, packet)) = traffic
                .next_if(|(next_at, next_station, _, _)| *next_at == at && *next_station == station)
            {
                packets.push((client, packet));
            }
            Some((at, EmuEvent::PacketBatch { station, packets }))
        }));

        Emulator {
            scenario,
            manager,
            slots,
            touched: Vec::new(),
            queue,
            deploy_latency_ms: Histogram::new(),
            packets: PacketStats::default(),
            tally: PacketStats::default(),
            handovers: 0,
            workloads: Vec::new(),
            workload_next: Vec::new(),
            fault_schedule: FaultSchedule::new(),
            dead: BTreeMap::new(),
            partitions: BTreeMap::new(),
            recovery_pending: BTreeMap::new(),
            chaos: ChaosReport::default(),
            trace: TraceSink::default(),
            stages: HostStages::default(),
            flight: FlightRecorder::default(),
            sampler: None,
            regions,
            gap_cache: PathMap::default(),
        }
    }

    /// Arms event tracing: the Manager, every Agent and the run loop get
    /// buffered sinks, and every scope gets a flight recorder sampling one
    /// in [`DEFAULT_FLIGHT_SAMPLE_RATE`] flows keyed by the scenario seed —
    /// the same flows on every station.
    /// It also arms the host stage table ([`Emulator::host_stages`]).
    /// Call before [`Emulator::run`]. Purely observational: the
    /// [`RunReport`] is byte-identical with tracing on or off.
    pub fn enable_tracing(&mut self) {
        let seed = self.scenario.config.seed;
        self.trace = TraceSink::buffered(TraceScope::Run, DEFAULT_TRACE_CAPACITY);
        self.stages = HostStages::armed();
        self.flight = FlightRecorder::armed(
            TraceScope::Run,
            seed,
            DEFAULT_FLIGHT_SAMPLE_RATE,
            DEFAULT_FLIGHT_CAPACITY,
        );
        self.manager.set_tracing(TraceSink::buffered(
            TraceScope::Manager,
            DEFAULT_TRACE_CAPACITY,
        ));
        for agent in self.agents_mut() {
            let scope = TraceScope::Station(agent.station().raw());
            agent.set_tracing(
                TraceSink::buffered(scope, DEFAULT_TRACE_CAPACITY),
                FlightRecorder::armed(
                    scope,
                    seed,
                    DEFAULT_FLIGHT_SAMPLE_RATE,
                    DEFAULT_FLIGHT_CAPACITY,
                ),
            );
        }
    }

    /// Arms the virtual-time metrics sampler: one fleet-wide
    /// [`MetricsSample`] per `GnfConfig::metrics_interval` of virtual time.
    /// Call before [`Emulator::run`]. Like tracing, purely observational.
    pub fn enable_metrics(&mut self) {
        let interval = self.scenario.config.metrics_interval;
        self.sampler = Some(MetricsSampler {
            series: MetricsSeries::new(interval, METRICS_SERIES_CAPACITY),
            next: SimTime::ZERO + interval,
            prev_packets: PacketStats::default(),
            prev_flow: FlowCacheStats::default(),
            prev_mega: MegaflowStats::default(),
        });
    }

    /// Drains every armed sink into one deterministically merged run log
    /// (sorted by `(timestamp, scope, seq)`). Call after [`Emulator::run`];
    /// empty when tracing was never enabled.
    pub fn trace_log(&mut self) -> TraceLog {
        let mut log = TraceLog::new();
        log.absorb(&mut self.trace);
        let dropped = self.flight.dropped();
        log.extend(self.flight.take_events(), dropped);
        log.absorb(self.manager.trace_mut());
        for agent in self.agents_mut() {
            log.absorb(agent.trace_mut());
            let dropped = agent.flight_mut().dropped();
            let events = agent.flight_mut().take_events();
            log.extend(events, dropped);
        }
        log.sort();
        log
    }

    /// Host wall-clock time per stage of [`Emulator::run`], if
    /// [`Emulator::enable_tracing`] armed it. Host time, not virtual time:
    /// it differs between runs and hosts, so it is kept out of the
    /// [`RunReport`] and the trace.
    pub fn host_stages(&self) -> Option<&StageTable> {
        self.stages.table()
    }

    /// The metrics series the sampler filled, if [`Emulator::enable_metrics`]
    /// armed it.
    pub fn metrics_series(&self) -> Option<&MetricsSeries> {
        self.sampler.as_ref().map(|s| &s.series)
    }

    /// Takes every pending fleet sample whose boundary the virtual clock has
    /// reached (`k × metrics_interval <= upto`), in boundary order. A sample
    /// reflects the state established by all strictly earlier events: the
    /// call sits between an event-queue pop and the event's processing.
    fn sample_metrics(&mut self, upto: SimTime) {
        let Some(sampler) = self.sampler.as_mut() else {
            return;
        };
        // Nothing due: no lap, so the time stays with the next stage.
        if sampler.next > upto {
            return;
        }
        while sampler.next <= upto {
            let at = sampler.next;
            sampler.next = at + sampler.series.interval();
            let mut flow = FlowCacheTelemetry::default();
            let mut mega = MegaflowTelemetry::default();
            let mut shard_occupancy = [0u64; VIRTUAL_SHARDS];
            for slot in &self.slots {
                let agent = &slot.agent;
                flow.merge(&agent.flow_cache_telemetry());
                mega.merge(&agent.megaflow_telemetry());
                agent.add_flow_cache_occupancy_by_virtual_shard(&mut shard_occupancy);
            }
            // Interval deltas (saturating: a crash wipes a station's counters
            // with the rest of its soft state, which can move fleet totals
            // backwards).
            let d = |cur: u64, prev: u64| cur.saturating_sub(prev);
            let p = &sampler.prev_packets;
            let generated = d(self.packets.generated, p.generated);
            let forwarded = d(self.packets.forwarded, p.forwarded);
            let dropped_by_nf = d(self.packets.dropped_by_nf, p.dropped_by_nf);
            let dropped_in_gap = d(self.packets.dropped_in_gap, p.dropped_in_gap);
            let bypassed_in_gap = d(self.packets.bypassed_in_gap, p.bypassed_in_gap);
            let dropped_station_down = d(self.packets.dropped_station_down, p.dropped_station_down);
            let flow_lookups = d(flow.stats.hits, sampler.prev_flow.hits)
                + d(flow.stats.misses, sampler.prev_flow.misses);
            let flow_hit_rate = if flow_lookups == 0 {
                0.0
            } else {
                d(flow.stats.hits, sampler.prev_flow.hits) as f64 / flow_lookups as f64
            };
            let mega_probes = d(mega.stats.hits, sampler.prev_mega.hits)
                + d(mega.stats.misses, sampler.prev_mega.misses);
            let megaflow_hit_rate = if mega_probes == 0 {
                0.0
            } else {
                d(mega.stats.hits, sampler.prev_mega.hits) as f64 / mega_probes as f64
            };
            let interval_ms = sampler.series.interval().as_millis_f64();
            sampler.series.push(MetricsSample {
                at,
                // Forwarded packets per virtual millisecond = kpps.
                kpps: forwarded as f64 / interval_ms,
                generated,
                forwarded,
                dropped_by_nf,
                dropped_in_gap,
                bypassed_in_gap,
                dropped_station_down,
                flow_hit_rate,
                megaflow_hit_rate,
                flow_entries: flow.entries as u64,
                megaflow_entries: mega.entries as u64,
                in_flight_migrations: self.manager.migrations_in_flight() as u64,
                dead_stations: self.dead.len() as u64,
                shard_occupancy,
            });
            sampler.prev_packets = self.packets;
            sampler.prev_flow = flow.stats;
            sampler.prev_mega = mega.stats;
        }
        self.stages.lap(Stage::MetricsSample);
    }

    /// Arms a fault schedule: each fault fires as a control event at its
    /// scheduled virtual time (flushing the admitted packets first, so the
    /// mutation point is deterministic). Call once, before [`Emulator::run`].
    pub fn set_fault_schedule(&mut self, schedule: FaultSchedule) {
        for (index, event) in schedule.events().iter().enumerate() {
            self.queue.schedule_at(event.at, EmuEvent::Fault { index });
        }
        self.fault_schedule = schedule;
    }

    /// Attaches a streaming [`Workload`] source: its batches are delivered
    /// through the station data plane exactly like the scenario's built-in
    /// per-client traffic, but pulled lazily — the emulator holds at most one
    /// pending batch per source, so trace or generator size never shows up
    /// in resident memory.
    ///
    /// Sources must yield batches in non-decreasing time order; batch times
    /// before the current virtual time are clamped forward (the queue's
    /// normal causality rule). Call before [`Emulator::run`].
    pub fn add_workload(&mut self, workload: Box<dyn Workload>) {
        let source = self.workloads.len();
        self.workloads.push(workload);
        self.workload_next.push(None);
        self.pump_workload(source);
    }

    /// Pulls the next batch from source `source` (if any) and schedules its
    /// delivery marker.
    fn pump_workload(&mut self, source: usize) {
        if let Some(batch) = self.workloads[source].next_batch() {
            let at = batch.at;
            self.workload_next[source] = Some(batch);
            self.queue
                .schedule_at(at, EmuEvent::WorkloadBatch { source });
        }
    }

    /// Does nothing: a flush runs on the emulator's thread. Survives only
    /// for `gnf_benchmark/src/e2e.rs`.
    #[doc(hidden)]
    pub fn set_workers(&mut self, _workers: usize) {}

    /// Does nothing: a flush runs on the emulator's thread. Survives only
    /// for `gnf_benchmark/src/e2e.rs`.
    #[doc(hidden)]
    pub fn set_migration_workers(&mut self, _workers: usize) {}

    /// All zeros: no flush carries commands. Survives only for
    /// `gnf_benchmark/src/{e2e,layers}.rs`.
    #[doc(hidden)]
    pub fn migration_pool_telemetry(&self) -> MigrationPoolTelemetry {
        MigrationPoolTelemetry::default()
    }

    /// Enables or disables the megaflow (wildcard) cache on every station's
    /// switch (enabled by default). Packet outcomes, NF statistics and port
    /// counters are equivalent either way — the megaflow equivalence
    /// property tests assert it — only the cache-level telemetry changes.
    pub fn set_megaflow_enabled(&mut self, enabled: bool) {
        for agent in self.agents_mut() {
            agent.set_megaflow_enabled(enabled);
        }
    }

    /// Runs the scenario to completion and returns the report.
    ///
    /// A packet event is gap-filtered into its station's slot when it pops;
    /// the admitted packets wait there until a flush runs the touched
    /// stations in station order. One rule keeps station work and
    /// control-plane mutation in per-event order: an event that is not a
    /// packet event flushes the admitted packets before it is handled.
    pub fn run(&mut self) -> RunReport {
        self.stages.begin_run();
        let deadline = SimTime::ZERO + self.scenario.duration;
        loop {
            let popped = self.queue.pop_until(deadline);
            self.stages.lap(Stage::QueuePop);
            let Some(scheduled) = popped else {
                break;
            };
            // Fleet samples fall due the moment the clock first reaches a
            // boundary — before the boundary's own events process.
            let (time, event) = (scheduled.time, scheduled.event);
            self.sample_metrics(time);
            let stage = event.handle_stage();
            // A packet cannot change convergence, so only a control event
            // checks for recoveries.
            let control = !matches!(
                event,
                EmuEvent::PacketBatch { .. } | EmuEvent::WorkloadBatch { .. }
            );
            if control {
                self.flush();
            }
            self.handle(event, time);
            if control {
                self.check_recoveries(time);
            }
            self.stages.lap(stage);
        }
        self.flush();
        self.queue.advance_to(deadline);
        self.sample_metrics(deadline);
        let report = self.build_report(deadline);
        self.stages.lap(Stage::Report);
        self.stages.end_run();
        report
    }

    /// The Manager (for dashboards and white-box assertions after a run).
    pub fn manager(&self) -> &Manager {
        &self.manager
    }

    /// The Agent on a station.
    pub fn agent(&self, station: StationId) -> Option<&Agent> {
        self.slots
            .get(station.raw() as usize)
            .map(|slot| &*slot.agent)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    // ------------------------------------------------------------------

    /// A station's slot: `None` for an id the topology does not have.
    fn slot(&mut self, station: StationId) -> Option<&mut StationSlot> {
        self.slots.get_mut(station.raw() as usize)
    }

    /// The Agent on a station, mutably.
    fn agent_mut(&mut self, station: StationId) -> Option<&mut Agent> {
        self.slot(station).map(|slot| &mut *slot.agent)
    }

    /// Every Agent, in station order.
    fn agents(&self) -> impl Iterator<Item = &Agent> {
        self.slots.iter().map(|slot| &*slot.agent)
    }

    /// Every Agent, mutably, in station order.
    fn agents_mut(&mut self) -> impl Iterator<Item = &mut Agent> {
        self.slots.iter_mut().map(|slot| &mut *slot.agent)
    }

    /// Holds an admitted batch in its station's slot for the next flush,
    /// recording the station in `touched` when its slot was empty. A batch
    /// for an id the topology does not have is dropped.
    fn hold_batch(&mut self, station: StationId, time: SimTime, batch: PacketBatch) {
        let Some(slot) = self.slots.get_mut(station.raw() as usize) else {
            return;
        };
        if slot.batches.is_empty() {
            self.touched.push(station);
        }
        slot.batches.push((time, batch));
    }

    fn control_latency(&self, station: StationId) -> SimDuration {
        self.scenario
            .topology
            .site(station)
            .map(|s| s.control_latency)
            .unwrap_or(self.scenario.config.control_link_latency)
    }

    fn dispatch_manager_actions(&mut self, actions: Vec<ManagerAction>, now: SimTime) {
        for action in actions {
            let ManagerAction::Send { station, message } = action;
            let latency = self.control_latency(station);
            self.queue.schedule_at(
                now + latency,
                EmuEvent::ToAgent {
                    station,
                    msg: message,
                },
            );
        }
    }

    fn dispatch_agent_messages(
        &mut self,
        station: StationId,
        messages: Vec<AgentToManager>,
        now: SimTime,
        extra_delay: SimDuration,
    ) {
        let latency = self.control_latency(station);
        for msg in messages {
            self.queue.schedule_at(
                now + latency + extra_delay,
                EmuEvent::ToManager { station, msg },
            );
        }
    }

    /// True when the control link to `station` is currently unusable (the
    /// station is down or its link is partitioned).
    fn link_broken(&self, station: StationId) -> bool {
        self.dead.contains_key(&station) || self.partitions.contains_key(&station)
    }

    /// Consumes a control message caught by a broken link: dropped when the
    /// station is dead or the partition drops, re-enqueued at the heal time
    /// when the partition delays. (The heal event was enqueued before any
    /// delayed message, so at the heal instant the partition is gone before
    /// the message re-delivers.)
    fn chaos_absorb(&mut self, station: StationId, event: EmuEvent) {
        match self.partitions.get(&station).copied() {
            Some((heal, PartitionMode::Delay)) if !self.dead.contains_key(&station) => {
                self.chaos.messages_delayed += 1;
                self.queue.schedule_at(heal, event);
            }
            _ => self.chaos.messages_dropped += 1,
        }
    }

    fn handle(&mut self, event: EmuEvent, now: SimTime) {
        match event {
            EmuEvent::ToManager { station, msg } => {
                if self.link_broken(station) {
                    self.chaos_absorb(station, EmuEvent::ToManager { station, msg });
                    return;
                }
                let actions = self.manager.handle_agent_msg(station, msg, now);
                self.dispatch_manager_actions(actions, now);
            }
            EmuEvent::ToAgent { station, msg } => {
                if self.link_broken(station) {
                    self.chaos_absorb(station, EmuEvent::ToAgent { station, msg });
                    return;
                }
                let Some(agent) = self.agent_mut(station) else {
                    return;
                };
                let replies = agent.handle_manager_msg(msg, now);
                let extra_delay = self.scan_agent_replies(&replies);
                self.dispatch_agent_messages(station, replies, now, extra_delay);
            }
            EmuEvent::Attach { client, cell } => {
                // A roam naming a client or a cell the topology does not
                // have changes nothing: no handover, no disassociation.
                let topology = &self.scenario.topology;
                let (Ok(device), Ok(site)) =
                    (topology.client(client), topology.site_for_cell(cell))
                else {
                    return;
                };
                let (old_cell, mac, ip, new_station) =
                    (device.attached_cell, device.mac, device.ip, site.station);
                if old_cell == Some(cell) && self.manager.client(client).is_some() {
                    return;
                }
                if old_cell.is_some() && old_cell != Some(cell) {
                    self.handovers += 1;
                }
                // Cannot fail: both ids resolved above.
                let _ = self.scenario.topology.attach_client(client, cell);
                // Disassociate from the old station. A dead station already
                // lost its client table with the crash; skip it.
                if let Some(old) = old_cell.filter(|c| *c != cell) {
                    if let Ok(old_site) = self.scenario.topology.site_for_cell(old) {
                        let station = old_site.station;
                        if !self.dead.contains_key(&station) {
                            if let Some(agent) = self.agent_mut(station) {
                                let msgs = agent.client_disassociated(client);
                                self.dispatch_agent_messages(station, msgs, now, SimDuration::ZERO);
                            }
                        }
                    }
                }
                // Associate with the new one. A dead station cannot serve the
                // association now; the restart path re-associates every client
                // still parked on its cells.
                if !self.dead.contains_key(&new_station) {
                    if let Some(agent) = self.agent_mut(new_station) {
                        let msgs = agent.client_associated(client, mac, ip);
                        let assoc = self.scenario.config.association_latency;
                        self.dispatch_agent_messages(new_station, msgs, now, assoc);
                    }
                }
            }
            EmuEvent::PacketBatch { station, packets } => {
                self.admit_packets(now, station, packets);
            }
            EmuEvent::WorkloadBatch { source } => {
                if let Some(batch) = self.workload_next[source].take() {
                    self.admit_packets(now, batch.station, batch.packets);
                }
                self.stages.lap(Stage::GapFilter);
                // Only now pull the source's next batch: one outstanding
                // batch per source, ever.
                self.pump_workload(source);
            }
            EmuEvent::ReportTimer { station } => {
                // A dead station cannot report; the timer keeps ticking so
                // reporting resumes after the restart.
                if !self.dead.contains_key(&station) {
                    if let Some(agent) = self.agent_mut(station) {
                        let report = agent.make_report(now);
                        // Region tier: the report is absorbed by the
                        // station's (co-located) region aggregator and
                        // reaches the Manager as part of the region's next
                        // summary instead of travelling itself. Without
                        // regions there is no aggregator, and it travels.
                        let region_size = self.scenario.config.region_size.max(1) as u64;
                        match (self.regions.get_mut(&(station.raw() / region_size)), report) {
                            (Some(aggregator), AgentToManager::Report(full)) => {
                                aggregator.ingest_report(*full, now);
                            }
                            (Some(aggregator), AgentToManager::ReportDelta(delta)) => {
                                // Rejections heal at the next keyframe,
                                // exactly as on the direct path.
                                let _ = aggregator.ingest_delta(&delta, now);
                            }
                            (_, report) => {
                                self.dispatch_agent_messages(
                                    station,
                                    vec![report],
                                    now,
                                    SimDuration::ZERO,
                                );
                            }
                        }
                    }
                }
                self.queue.schedule_timer(
                    now + self.scenario.config.agent_report_interval,
                    EmuEvent::ReportTimer { station },
                );
            }
            EmuEvent::RegionFlush { region } => {
                if let Some(aggregator) = self.regions.get(&region) {
                    let summary = aggregator.summary(now);
                    self.manager.ingest_region_summary(summary, now);
                }
                self.queue.schedule_at(
                    now + self.scenario.config.agent_report_interval,
                    EmuEvent::RegionFlush { region },
                );
            }
            EmuEvent::ManagerTick => {
                let actions = self.manager.tick(now);
                self.dispatch_manager_actions(actions, now);
                self.queue.schedule_at(
                    now + self.scenario.config.hotspot_scan_interval,
                    EmuEvent::ManagerTick,
                );
            }
            EmuEvent::OperatorAttach { policy_index } => {
                let policy = self.scenario.policies[policy_index].clone();
                match self
                    .manager
                    .attach_chain(policy.client, policy.specs, policy.selector, now)
                {
                    Ok((_, actions)) => self.dispatch_manager_actions(actions, now),
                    Err(_) => {
                        // The client has not associated yet: retry shortly.
                        self.queue.schedule_at(
                            now + SimDuration::from_millis(500),
                            EmuEvent::OperatorAttach { policy_index },
                        );
                    }
                }
            }
            EmuEvent::Fault { index } => {
                let fault = self.fault_schedule.events()[index];
                self.inject_fault(fault.kind, now);
            }
            EmuEvent::StationRestart { station } => self.restart_station(station, now),
            EmuEvent::PartitionHeal { station } => {
                // Only clear the partition this heal belongs to: a newer,
                // longer partition on the same station outlives older heals.
                if let Some((heal, _)) = self.partitions.get(&station) {
                    if *heal <= now {
                        self.partitions.remove(&station);
                    }
                }
            }
        }
    }

    /// Executes one fault from the schedule.
    fn inject_fault(&mut self, kind: FaultKind, now: SimTime) {
        if self.agent(kind.station()).is_none() {
            return;
        }
        self.chaos.faults_injected += 1;
        match kind {
            FaultKind::StationCrash { station, down_for } => {
                if self.dead.contains_key(&station) {
                    return;
                }
                self.chaos.crashes += 1;
                self.trace.emit(
                    now,
                    TraceKind::Fault {
                        station: station.raw(),
                        kind: "crash",
                        detail: down_for.as_millis_f64() as u64,
                    },
                );
                // The chains go, and their ready times with them.
                if let Some(agent) = self.agent_mut(station) {
                    agent.crash();
                }
                self.dead.insert(station, now);
                // A recovery interrupted by a second crash starts over.
                self.recovery_pending.remove(&station);
                self.queue
                    .schedule_at(now + down_for, EmuEvent::StationRestart { station });
            }
            FaultKind::LinkPartition {
                station,
                duration,
                mode,
            } => {
                self.chaos.partitions += 1;
                // The span is emitted at injection but timestamped at the
                // heal: `at` is the window close, `since` the open.
                self.trace.emit(
                    now + duration,
                    TraceKind::PartitionWindow {
                        station: station.raw(),
                        mode: match mode {
                            PartitionMode::Drop => "drop",
                            PartitionMode::Delay => "delay",
                        },
                        since: now,
                    },
                );
                self.partitions.insert(station, (now + duration, mode));
                self.queue
                    .schedule_at(now + duration, EmuEvent::PartitionHeal { station });
            }
            FaultKind::SteeringChurn { station, rules } => {
                if self.dead.contains_key(&station) {
                    return;
                }
                self.chaos.churn_storms += 1;
                self.trace.emit(
                    now,
                    TraceKind::Fault {
                        station: station.raw(),
                        kind: "steering-churn",
                        detail: rules,
                    },
                );
                if let Some(agent) = self.agent_mut(station) {
                    agent.chaos_steering_churn(rules);
                }
            }
            FaultKind::CacheInvalidation { station, floods } => {
                if self.dead.contains_key(&station) {
                    return;
                }
                self.chaos.invalidation_floods += 1;
                self.trace.emit(
                    now,
                    TraceKind::Fault {
                        station: station.raw(),
                        kind: "cache-invalidation",
                        detail: floods,
                    },
                );
                if let Some(agent) = self.agent_mut(station) {
                    agent.chaos_invalidate_caches(floods);
                }
            }
        }
    }

    /// Brings a crashed station back: it re-registers with its bumped
    /// generation (the Manager resets the station's attachments on the
    /// re-registration) and re-associates every client still parked on its
    /// cells, which drives chain redeployment.
    fn restart_station(&mut self, station: StationId, now: SimTime) {
        if self.dead.remove(&station).is_none() {
            return;
        }
        // Only a station with an Agent can crash, so this always finds one.
        let Some(register) = self.agent(station).map(Agent::rejoin) else {
            return;
        };
        self.chaos.restarts += 1;
        self.trace.emit(
            now,
            TraceKind::Fault {
                station: station.raw(),
                kind: "restart",
                detail: 0,
            },
        );
        self.recovery_pending.insert(station, now);
        self.dispatch_agent_messages(station, vec![register], now, SimDuration::ZERO);
        // Re-associate the clients whose cells this station serves (their
        // radios never moved; only the station-side soft state was lost).
        let parked: Vec<_> = self
            .scenario
            .topology
            .clients()
            .iter()
            .filter_map(|device| {
                let cell = device.attached_cell?;
                let site = self.scenario.topology.site_for_cell(cell).ok()?;
                (site.station == station).then_some((device.client, device.mac, device.ip))
            })
            .collect();
        let assoc = self.scenario.config.association_latency;
        for (client, mac, ip) in parked {
            if let Some(agent) = self.agent_mut(station) {
                let msgs = agent.client_associated(client, mac, ip);
                self.dispatch_agent_messages(station, msgs, now, assoc);
            }
        }
    }

    /// Records recovery times: a restarted station has reconverged when every
    /// chain owed to it (client parked on its cells, attachment on record) is
    /// active on it again and actually deployed on its Agent.
    fn check_recoveries(&mut self, now: SimTime) {
        if self.recovery_pending.is_empty() {
            return;
        }
        let recovered: Vec<(StationId, SimTime)> = self
            .recovery_pending
            .iter()
            .filter(|(station, _)| self.station_converged(**station))
            .map(|(station, since)| (*station, *since))
            .collect();
        for (station, since) in recovered {
            self.recovery_pending.remove(&station);
            self.chaos
                .recovery_ms
                .record(now.duration_since(since).as_millis_f64());
            self.trace.emit(
                now,
                TraceKind::RecoveryWindow {
                    station: station.raw(),
                    since,
                },
            );
        }
    }

    /// Where `client`'s traffic arriving at `station` stands against
    /// policy, from the Manager's by-client index (the ids of the client's
    /// own chains, never the fleet's) and the ready times of those chains
    /// on the station's Agent. With several chains on the station the
    /// earliest `ready_at` opens the gate.
    fn gap_state(&self, client: ClientId, station: StationId) -> GapState {
        let chains = self.manager.chains_of(client);
        let ready = self.agent(station).and_then(|agent| {
            chains
                .iter()
                .filter_map(|&chain| agent.chain(chain)?.ready_at)
                .min()
        });
        match (!chains.is_empty(), ready) {
            (false, _) => GapState::NoPolicy,
            (true, Some(at)) => GapState::ReadyAt(at),
            (true, None) => match self.precopy_hairpin(client, station) {
                Some(source) => GapState::Hairpin(source),
                None => GapState::NeverReady,
            },
        }
    }

    /// The station whose chain keeps serving `client` while its pre-copy
    /// migration to `station` is in flight, if any. Only pre-copy records
    /// hairpin — the classic monolithic path freezes the source at
    /// checkpoint time, so replaying traffic through it would lose state.
    fn precopy_hairpin(&self, client: ClientId, station: StationId) -> Option<StationId> {
        let record = self
            .manager
            .migrations_in_flight_of(client)
            .find(|m| m.to == station && m.precopy)?;
        let source = record.from;
        if source == station || self.dead.contains_key(&source) {
            return None;
        }
        self.agent(source)?.chain(record.chain)?;
        Some(source)
    }

    fn station_converged(&self, station: StationId) -> bool {
        let Some(agent) = self.agent(station) else {
            return true;
        };
        for device in self.scenario.topology.clients().iter() {
            let Some(cell) = device.attached_cell else {
                continue;
            };
            let Ok(site) = self.scenario.topology.site_for_cell(cell) else {
                continue;
            };
            if site.station != station {
                continue;
            }
            for attachment in self.manager.attachments_of(device.client) {
                // Checking the Agent's deployed chains (not just the
                // Manager's bookkeeping) rejects the stale pre-crash
                // "active" state that persists until the re-registration
                // is processed.
                if attachment.station != Some(station)
                    || !attachment.active
                    || agent.chain(attachment.chain).is_none()
                {
                    return false;
                }
            }
        }
        true
    }

    /// Scans an Agent's replies to one control command: commands that take
    /// time on the station (deployments, checkpoints, staged restores, delta
    /// replays) report their own latency, and the reply is delayed by it.
    fn scan_agent_replies(&mut self, replies: &[AgentToManager]) -> SimDuration {
        let mut extra_delay = SimDuration::ZERO;
        for reply in replies {
            extra_delay = extra_delay.max(reply.station_latency().unwrap_or(SimDuration::ZERO));
            if let AgentToManager::ChainDeployed { latency, .. } = reply {
                self.deploy_latency_ms.record(latency.as_millis_f64());
            }
        }
        extra_delay
    }

    /// Runs the packets admitted since the last flush: the touched
    /// stations in station order, each station's batches in admission
    /// order. A station's batches read and write only its own Agent, and
    /// each batch's NF notifications go out right after it, stamped with
    /// the batch's time (the queue clamps delivery to the current virtual
    /// time when a later control event triggered this flush), so the
    /// dispatch order is fixed. The flush then folds the tally into the
    /// run's counters and forgets the gap states.
    fn flush(&mut self) {
        // Nothing admitted since the last flush (every admitted packet
        // counts as generated): nothing to run, fold or forget.
        if self.tally.generated == 0 {
            return;
        }
        self.touched.sort_unstable();
        for &station in &self.touched {
            let latency = self.control_latency(station);
            let Some(slot) = self.slots.get_mut(station.raw() as usize) else {
                continue;
            };
            for (time, batch) in slot.batches.drain(..) {
                // Every generated packet is client → network: it arrives on
                // the access port. The sink only tallies.
                let tally = &mut self.tally;
                slot.agent.process(
                    Direction::Ingress,
                    batch,
                    time,
                    &mut |result| match result {
                        PacketOutcome::Forwarded(_) => tally.forwarded += 1,
                        PacketOutcome::Dropped(_) => tally.dropped_by_nf += 1,
                        PacketOutcome::Replied(_) => tally.replied_by_nf += 1,
                    },
                );
                // NF events (blocked URLs, floods) flow to the Manager as
                // `dispatch_agent_messages` sends them, stamped with the
                // time of the batch that raised them.
                for msg in slot.agent.drain_nf_notifications(time) {
                    self.queue
                        .schedule_at(time + latency, EmuEvent::ToManager { station, msg });
                }
            }
        }
        self.touched.clear();

        let tally = std::mem::take(&mut self.tally);
        self.packets.generated += tally.generated;
        self.packets.forwarded += tally.forwarded;
        self.packets.dropped_by_nf += tally.dropped_by_nf;
        self.packets.replied_by_nf += tally.replied_by_nf;
        self.packets.dropped_in_gap += tally.dropped_in_gap;
        self.packets.bypassed_in_gap += tally.bypassed_in_gap;
        self.packets.dropped_station_down += tally.dropped_station_down;
        self.packets.hairpinned += tally.hairpinned;
        self.gap_cache.clear();
        self.stages.lap(Stage::StationJobs);
        debug_assert!(self.packets.is_conserved(), "{:?}", self.packets);
    }

    /// Gap-filters one packet event's batch into the station slots as it
    /// pops: packets to a dead station are lost, packets in the gap are
    /// dropped or bypassed, packets mid pre-copy detour to the source
    /// station, and the rest wait in their own station's slot for the next
    /// flush.
    fn admit_packets(
        &mut self,
        time: SimTime,
        station: StationId,
        packets: Vec<(ClientId, Packet)>,
    ) {
        self.tally.generated += packets.len() as u64;
        // Packets in flight to a crashed station are simply lost: its radio
        // and switch are down, so nothing classifies or forwards.
        if self.dead.contains_key(&station) {
            self.tally.dropped_station_down += packets.len() as u64;
            if self.flight.enabled() {
                for (_, packet) in &packets {
                    Self::record_flight(
                        &mut self.flight,
                        time,
                        station,
                        packet,
                        "station-down",
                        "lost",
                    );
                }
            }
            return;
        }
        if self.agent(station).is_none() {
            self.tally.dropped_in_gap += packets.len() as u64;
            return;
        }
        let mut batch = PacketBatch::with_capacity(packets.len());
        let mut hairpins: BTreeMap<StationId, PacketBatch> = BTreeMap::new();
        // Out of `self` for the walk, which reads `self` in `gap_state`.
        let mut gap_cache = std::mem::take(&mut self.gap_cache);
        for (client, packet) in packets {
            // Does policy say this client's traffic must traverse a chain
            // right now, and is that chain ready on this station? The index
            // lookup runs once per (client, station) between two flushes;
            // each packet then pays one compare.
            let state = match gap_cache.entry((client, station)) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(slot) => {
                    let started = self.stages.start();
                    let state = self.gap_state(client, station);
                    self.stages.stop(Stage::GapState, started);
                    *slot.insert(state)
                }
            };
            let in_gap = match state {
                GapState::NoPolicy | GapState::Hairpin(_) => false,
                GapState::ReadyAt(at) => time < at,
                GapState::NeverReady => true,
            };
            if in_gap {
                let (stage, verdict) = if self.scenario.config.bypass_during_migration {
                    self.tally.bypassed_in_gap += 1;
                    self.tally.forwarded += 1;
                    ("gap-bypass", "forwarded")
                } else {
                    self.tally.dropped_in_gap += 1;
                    ("gap-drop", "lost")
                };
                if self.flight.enabled() {
                    Self::record_flight(&mut self.flight, time, station, &packet, stage, verdict);
                }
                continue;
            }
            if let GapState::Hairpin(source) = state {
                self.tally.hairpinned += 1;
                if self.flight.enabled() {
                    Self::record_flight(
                        &mut self.flight,
                        time,
                        station,
                        &packet,
                        "hairpin",
                        "forwarded",
                    );
                }
                hairpins
                    .entry(source)
                    .or_insert_with(|| PacketBatch::with_capacity(4))
                    .push(packet);
                continue;
            }
            batch.push(packet);
        }
        self.gap_cache = gap_cache;
        if !batch.is_empty() {
            self.hold_batch(station, time, batch);
        }
        // Hairpinned packets join the source station's work at the same
        // timestamp, after the native batch.
        for (source, detour) in hairpins {
            self.hold_batch(source, time, detour);
        }
    }

    /// Records one loss-class flight sample for a packet, if its flow is in
    /// the deterministic sample set. An associated function so call sites
    /// can pass `&mut self.flight` while other fields of `self` stay
    /// borrowed.
    fn record_flight(
        flight: &mut FlightRecorder,
        at: SimTime,
        station: StationId,
        packet: &Packet,
        stage: &'static str,
        verdict: &'static str,
    ) {
        let Some(tuple) = packet.five_tuple() else {
            return;
        };
        let flow = tuple.shard_hash();
        if !flight.samples(flow) {
            return;
        }
        flight.record(
            at,
            FlowRecord {
                station: station.raw(),
                flow,
                tuple: tuple.to_string(),
                stage,
                verdict,
            },
        );
    }

    fn build_report(&self, ended_at: SimTime) -> RunReport {
        let migrations: Vec<MigrationSummary> = self
            .manager
            .migrations()
            .map(MigrationSummary::from_record)
            .collect();
        let migration = MigrationReport::from_summaries(&migrations);
        let mut downtime_ms = Histogram::new();
        for m in &migrations {
            if let Some(d) = m.downtime_ms {
                downtime_ms.record(d);
            }
        }
        let notifications = (
            self.manager
                .notifications()
                .total(NotificationSeverity::Info),
            self.manager
                .notifications()
                .total(NotificationSeverity::Warning),
            self.manager
                .notifications()
                .total(NotificationSeverity::Critical),
        );
        let mut flow_cache = gnf_telemetry::FlowCacheTelemetry::default();
        let mut megaflow = gnf_telemetry::MegaflowTelemetry::default();
        let mut batches = gnf_telemetry::BatchTelemetry::default();
        let mut chaos = self.chaos.clone();
        for agent in self.agents() {
            flow_cache.merge(&agent.flow_cache_telemetry());
            megaflow.merge(&agent.megaflow_telemetry());
            batches.merge(agent.batch_telemetry());
            chaos.stations.merge(&agent.chaos_telemetry());
        }
        RunReport {
            duration: self.scenario.duration,
            flow_cache,
            megaflow,
            batches,
            events_processed: self.queue.processed_total(),
            handovers: self.handovers,
            migrations,
            migration,
            downtime_ms,
            deploy_latency_ms: self.deploy_latency_ms.clone(),
            packets: self.packets,
            manager: self.manager.stats(),
            chaos,
            notifications,
            ended_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use gnf_edge::{Position, TrafficProfile};
    use gnf_nf::testing::sample_specs;
    use gnf_switch::TrafficSelector;
    use gnf_types::{ChainId, GnfConfig, HostClass};

    #[test]
    fn demo_roaming_scenario_migrates_the_chain() {
        let mut emulator = Emulator::new(Scenario::demo_roaming(GnfConfig::default()));
        let report = emulator.run();

        assert_eq!(report.handovers, 1, "the demo has exactly one handover");
        assert_eq!(report.migrations.len(), 1);
        assert!(report.all_migrations_completed());
        let migration = &report.migrations[0];
        assert_eq!(migration.from, 0);
        assert_eq!(migration.to, 1);
        // Warm-path migration on home routers: downtime well under two
        // seconds of virtual time.
        assert!(
            migration.downtime_ms.unwrap() < 15_000.0,
            "cold-pull migration stays within seconds"
        );
        assert!(migration.downtime_ms.unwrap() > 0.0);

        // The chain ended up on station 1 and is active.
        let attachment = emulator.manager().attachments().next().unwrap();
        assert_eq!(attachment.station.map(|s| s.raw()), Some(1));
        assert!(attachment.active);
        // The client generated traffic and most of it flowed.
        assert!(report.packets.generated > 50);
        assert!(report.packets.forwarded > 0);
        // Repeated packets of the same flows ride the switch fast path.
        assert!(
            report.flow_cache.stats.hits > 0,
            "flow cache served repeat traffic"
        );
        assert!(
            report.flow_cache.stats.hits + report.flow_cache.stats.misses
                >= report.packets.forwarded,
            "every switched packet consulted the cache"
        );
        // Determinism: a second run of the same scenario gives identical
        // headline numbers.
        let mut again = Emulator::new(Scenario::demo_roaming(GnfConfig::default()));
        let report2 = again.run();
        assert_eq!(report.packets, report2.packets);
        assert_eq!(report.events_processed, report2.events_processed);
        assert_eq!(
            report.migrations[0].downtime_ms,
            report2.migrations[0].downtime_ms
        );
    }

    #[test]
    fn policy_is_enforced_before_and_after_the_roam() {
        // The demo chain includes an HTTP filter blocking ads.example /
        // tracker.example; web browsing hits blocked.example occasionally —
        // but the sample firewall also blocks ports 22/23 only, so verify via
        // NF statistics that the chain processed traffic on both stations.
        let mut emulator = Emulator::new(Scenario::demo_roaming(GnfConfig::default()));
        let report = emulator.run();
        assert!(report.packets.forwarded > 0);
        // After the roam the chain on station 1 has seen packets.
        let agent = emulator.agent(gnf_types::StationId::new(1)).unwrap();
        let chain = agent.chains().next().expect("chain migrated to station 1");
        assert!(
            chain.chain.stats().packets_in > 0,
            "chain processed traffic after the roam"
        );
    }

    #[test]
    fn gap_packets_are_dropped_or_bypassed_according_to_config() {
        let drop_config = GnfConfig {
            bypass_during_migration: false,
            ..Default::default()
        };
        let report_drop = Emulator::new(Scenario::demo_roaming(drop_config)).run();

        let bypass_config = GnfConfig {
            bypass_during_migration: true,
            ..Default::default()
        };
        let report_bypass = Emulator::new(Scenario::demo_roaming(bypass_config)).run();

        // In drop mode nothing bypasses; in bypass mode nothing is gap-dropped.
        assert_eq!(report_drop.packets.bypassed_in_gap, 0);
        assert_eq!(report_bypass.packets.dropped_in_gap, 0);
        // The gap exists in both (policy attach happens at t=5s while the
        // client starts sending at t≈150ms, plus the migration window).
        assert!(report_drop.packets.dropped_in_gap > 0);
        assert!(report_bypass.packets.bypassed_in_gap > 0);
        // A gap-bypassed packet is forwarded: both runs conserve packets
        // under the one definition.
        assert!(report_drop.packets.is_conserved());
        assert!(report_bypass.packets.is_conserved());
    }

    #[test]
    fn static_multi_client_scenario_deploys_chains_without_migrations() {
        let mut builder = Scenario::builder(4, HostClass::EdgeServer);
        let clients = builder.add_clients(8, TrafficProfile::smartphone());
        let mut scenario_builder = builder.with_duration(gnf_types::SimDuration::from_secs(30));
        for client in &clients {
            scenario_builder = scenario_builder.attach_policy(
                *client,
                vec![sample_specs()[0].clone()],
                TrafficSelector::all(),
                SimTime::from_secs(2),
            );
        }
        let mut emulator = Emulator::new(scenario_builder.build());
        let report = emulator.run();
        assert_eq!(report.handovers, 0);
        assert!(report.migrations.is_empty());
        assert_eq!(
            emulator
                .manager()
                .attachments()
                .filter(|a| a.active)
                .count(),
            8
        );
        assert!(report.deploy_latency_ms.count() >= 8);
        assert!(report.packets.generated > 100);
        // Agents reported periodically, so the monitoring store saw them all.
        assert_eq!(emulator.manager().monitoring().online_count(), 4);
    }

    /// Attaches 2 560 one-packet flows spread over every client and emitted
    /// within ~3 ms of t = 3.5 s, clear of every report timer: a few flushes
    /// of thousands of packets on top of the scenario's own traffic.
    fn add_packet_burst(emulator: &mut Emulator) {
        use gnf_workload::{ArrivalModel, Population, SyntheticSpec, TrafficMix};

        let population = Population::from_topology(&emulator.scenario.topology);
        emulator.add_workload(Box::new(
            SyntheticSpec::new("burst", 1)
                .starting_at(SimTime::from_millis(3_500))
                .with_arrivals(ArrivalModel::Periodic {
                    flows_per_sec: 1_000_000.0,
                })
                .with_mix(TrafficMix::churn())
                .with_packet_budget(2_560)
                .build(population),
        ));
    }

    #[test]
    fn precopy_pipeline_cuts_switchover_downtime() {
        let config = GnfConfig {
            migration_precopy: true,
            ..Default::default()
        };
        let mut emulator = Emulator::new(Scenario::demo_roaming(config));
        let report = emulator.run();

        assert_eq!(report.handovers, 1);
        assert_eq!(report.migrations.len(), 1);
        assert!(report.all_migrations_completed());

        let record = emulator.manager().migrations().next().unwrap();
        assert!(record.precopy, "the run used the pre-copy pipeline");
        assert!(record.switchover_started_at.is_some());
        assert!(record.state_bytes > 0, "the baseline shipped NF state");
        // The service-affecting window is strictly inside the full
        // handover-to-restored interval: the baseline transfer ran while
        // the source was still serving.
        let switchover = record.switchover_downtime().unwrap();
        let downtime = record.downtime().unwrap();
        assert!(
            switchover < downtime,
            "switchover {switchover:?} must undercut full downtime {downtime:?}"
        );
    }

    /// The four gap outcomes, each read through the Manager's by-client
    /// index and the ready times of the station's chains, in a fleet where
    /// every other client is in another state.
    #[test]
    fn gap_state_is_read_per_client_from_the_manager_indexes() {
        use crate::chaos::{FaultKind, FaultSchedule};
        use gnf_edge::RoamTrace;

        let roam_at = SimTime::from_secs(20);
        // Clients 0–3 start on stations 0–3; stations 4 and 5 are roam
        // targets. Returns the emulator after `run_for` of virtual time.
        let run_for = |duration: SimDuration| {
            let config = GnfConfig {
                migration_precopy: true,
                ..Default::default()
            };
            let mut builder = Scenario::builder(6, HostClass::EdgeServer);
            let clients = builder.add_clients(4, TrafficProfile::smartphone());
            let one_nf = || vec![sample_specs()[0].clone()];
            let all = TrafficSelector::all();
            let scenario = builder
                .with_config(config)
                .with_duration(duration)
                // Client 0: no policy. Client 1: two chains, ready at
                // different times. Clients 2 and 3: one chain each, roaming.
                .attach_policy(clients[1], one_nf(), all, SimTime::from_secs(1))
                .attach_policy(clients[1], one_nf(), all, SimTime::from_secs(3))
                .attach_policy(clients[2], one_nf(), all, SimTime::from_secs(1))
                .attach_policy(clients[3], one_nf(), all, SimTime::from_secs(1))
                .with_mobility(Mobility::Trace(
                    RoamTrace::new()
                        .roam(roam_at, clients[2], CellId::new(4))
                        .roam(roam_at, clients[3], CellId::new(5)),
                ))
                .build();
            let mut emulator = Emulator::new(scenario);
            // Client 3's source dies right behind it, for longer than the run.
            let mut faults = FaultSchedule::new();
            faults.push(
                roam_at + SimDuration::from_millis(1),
                FaultKind::StationCrash {
                    station: StationId::new(3),
                    down_for: SimDuration::from_secs(600),
                },
            );
            emulator.set_fault_schedule(faults);
            emulator.run();
            (emulator, clients)
        };
        let gap = |emulator: &Emulator, client: ClientId, station: u64| {
            emulator.gap_state(client, StationId::new(station))
        };

        // Stop at the first instant both pre-copy migrations are in flight.
        let (emulator, clients) = (1..40)
            .map(|step| {
                run_for(roam_at.duration_since(SimTime::ZERO) + SimDuration::from_millis(50 * step))
            })
            .find(|(emulator, _)| emulator.manager().migrations_in_flight() == 2)
            .expect("both roams are mid-migration at some 50 ms step");

        // No attachment at all.
        assert_eq!(gap(&emulator, clients[0], 0), GapState::NoPolicy);

        // Two chains on one station: the earlier `ready` opens the gate.
        let chains = emulator.manager().chains_of(clients[1]);
        let attached: Vec<ChainId> = emulator
            .manager()
            .attachments_of(clients[1])
            .map(|a| a.chain)
            .collect();
        assert_eq!(chains, &attached[..], "the index lists the attachments");
        let ready: Vec<SimTime> = chains
            .iter()
            .map(|chain| {
                let deployed = emulator.slots[1].agent.chain(*chain).expect("deployed");
                deployed.ready_at.expect("serving")
            })
            .collect();
        assert_eq!(ready.len(), 2);
        assert!(ready[0] < ready[1], "the chains came up at different times");
        assert_eq!(gap(&emulator, clients[1], 1), GapState::ReadyAt(ready[0]));
        // The same client seen from a station that runs none of its chains.
        assert_eq!(gap(&emulator, clients[1], 0), GapState::NeverReady);

        // Mid pre-copy: the target hairpins to the still-serving source.
        let moving = emulator
            .manager()
            .migrations_in_flight_of(clients[2])
            .next()
            .expect("client 2 is mid-migration");
        assert!(moving.precopy);
        assert_eq!((moving.from.raw(), moving.to.raw()), (2, 4));
        assert_eq!(
            gap(&emulator, clients[2], 4),
            GapState::Hairpin(StationId::new(2))
        );

        // Same phase, dead source: nothing can serve, the client is in the gap.
        assert_eq!(
            emulator
                .manager()
                .migrations_in_flight_of(clients[3])
                .count(),
            1
        );
        assert!(emulator.dead.contains_key(&StationId::new(3)));
        assert!(
            emulator.slots[3].agent.chains().next().is_none(),
            "the crash cleared its chains and their ready times"
        );
        assert_eq!(gap(&emulator, clients[3], 5), GapState::NeverReady);
    }

    /// A crash clears the ready times with the Agent's chains — its clients
    /// fall into the gap — and the redeploy after the restart sets them
    /// again, later.
    #[test]
    fn a_crash_clears_the_ready_times_and_a_redeploy_restores_them() {
        use crate::chaos::{FaultKind, FaultSchedule};

        let crash_at = SimTime::from_secs(5);
        let run_until = |at: SimTime| {
            let mut builder = Scenario::builder(2, HostClass::EdgeServer);
            let clients = builder.add_clients(2, TrafficProfile::smartphone());
            let scenario = builder
                .with_duration(at.duration_since(SimTime::ZERO))
                .attach_policy(
                    clients[0],
                    vec![sample_specs()[0].clone()],
                    TrafficSelector::all(),
                    SimTime::from_secs(1),
                )
                .build();
            let mut emulator = Emulator::new(scenario);
            let mut faults = FaultSchedule::new();
            faults.push(
                crash_at,
                FaultKind::StationCrash {
                    station: StationId::new(0),
                    down_for: SimDuration::from_secs(2),
                },
            );
            emulator.set_fault_schedule(faults);
            emulator.run();
            (emulator, clients[0])
        };
        let ready_of = |emulator: &Emulator, client: ClientId| {
            let chain = emulator.manager().chains_of(client)[0];
            emulator.agent(StationId::new(0))?.chain(chain)?.ready_at
        };

        let (before, client) = run_until(crash_at - SimDuration::from_millis(1));
        let first = ready_of(&before, client).expect("deployed before the crash");
        assert_eq!(
            before.gap_state(client, StationId::new(0)),
            GapState::ReadyAt(first)
        );

        let (down, client) = run_until(crash_at + SimDuration::from_millis(1));
        assert_eq!(ready_of(&down, client), None);
        assert!(down.slots[0].agent.chains().next().is_none());
        assert_eq!(
            down.gap_state(client, StationId::new(0)),
            GapState::NeverReady
        );

        let (back, client) = run_until(SimTime::from_secs(20));
        let again = ready_of(&back, client).expect("redeployed after the restart");
        assert!(again > crash_at + SimDuration::from_secs(2), "{again:?}");
        assert_eq!(
            back.gap_state(client, StationId::new(0)),
            GapState::ReadyAt(again)
        );
    }

    /// Packet events for stations 5, 2 and 9 are admitted as they pop, and
    /// a packet of a client mid pre-copy from station 2 hairpins onto 2 as
    /// well. Station 2 is recorded once; each batch waits in its station's
    /// slot, station 2's native batch before its detour; and the flush runs
    /// every slot in station order, leaving every slot empty again.
    #[test]
    fn a_flush_takes_its_jobs_from_the_slots_in_station_order() {
        use gnf_edge::RoamTrace;

        let roam_at = SimTime::from_secs(20);
        // Client 2 starts on station 2 and roams to station 4, pre-copy on.
        let mid_migration = |duration: SimDuration| {
            let config = GnfConfig {
                migration_precopy: true,
                ..Default::default()
            };
            let mut builder = Scenario::builder(10, HostClass::EdgeServer);
            let clients = builder.add_clients(3, TrafficProfile::smartphone());
            let scenario = builder
                .with_config(config)
                .with_duration(duration)
                .attach_policy(
                    clients[2],
                    vec![sample_specs()[0].clone()],
                    TrafficSelector::all(),
                    SimTime::from_secs(1),
                )
                .with_mobility(Mobility::Trace(RoamTrace::new().roam(
                    roam_at,
                    clients[2],
                    CellId::new(4),
                )))
                .build();
            let mut emulator = Emulator::new(scenario);
            emulator.run();
            (emulator, clients[2])
        };
        let (mut emulator, roaming) = (1..40)
            .map(|step| {
                mid_migration(
                    roam_at.duration_since(SimTime::ZERO) + SimDuration::from_millis(50 * step),
                )
            })
            .find(|(emulator, roaming)| {
                emulator.gap_state(*roaming, StationId::new(4))
                    == GapState::Hairpin(StationId::new(2))
            })
            .expect("the roam is mid pre-copy at some 50 ms step");

        let station = StationId::new;
        let packet = |port: u16| {
            gnf_packet::builder::udp_packet(
                gnf_types::MacAddr::derived(0x01, 77),
                gnf_types::MacAddr::derived(0xA0, 0),
                std::net::Ipv4Addr::new(172, 16, 0, 77),
                std::net::Ipv4Addr::new(203, 0, 113, 10),
                port,
                53,
                b"slot",
            )
        };
        // A client no policy names: its packets pass the gap filter.
        let plain = ClientId::new(1_000);
        let now = emulator.now();
        let before = emulator.packets;
        for (ix, (at, client)) in [(5, plain), (2, plain), (9, plain), (4, roaming)]
            .into_iter()
            .enumerate()
        {
            emulator.admit_packets(now, station(at), vec![(client, packet(40_000 + ix as u16))]);
        }
        assert_eq!(emulator.touched, vec![station(5), station(2), station(9)]);
        assert_eq!(emulator.tally.generated, 4);
        assert_eq!(emulator.tally.hairpinned, 1);
        assert_eq!(emulator.packets, before, "admission folds nothing");
        let held: Vec<(usize, Vec<usize>)> = emulator
            .slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| !slot.batches.is_empty())
            .map(|(ix, slot)| (ix, slot.batches.iter().map(|(_, b)| b.len()).collect()))
            .collect();
        assert_eq!(held, vec![(2, vec![1, 1]), (5, vec![1]), (9, vec![1])]);
        // The detour is the roaming client's packet, after the native one.
        let detour = emulator.slots[2].batches[1].1.iter().next();
        assert_eq!(
            detour.and_then(|p| p.five_tuple()).map(|t| t.src_port),
            Some(40_003)
        );

        // The flush sorts the touched stations, runs the four packets
        // through the Agents, folds the tally and empties every slot.
        emulator.flush();
        assert!(emulator.touched.is_empty());
        assert!(emulator.slots.iter().all(|slot| slot.batches.is_empty()));
        assert!(emulator.gap_cache.is_empty());
        assert_eq!(emulator.tally, PacketStats::default());
        let ran = |p: &PacketStats| p.forwarded + p.dropped_by_nf + p.replied_by_nf;
        assert_eq!(
            ran(&emulator.packets) - ran(&before),
            4,
            "{:?}",
            emulator.packets
        );
        assert_eq!(emulator.packets.hairpinned - before.hairpinned, 1);
    }

    #[test]
    fn streaming_workload_drives_the_data_plane_deterministically() {
        use gnf_workload::{ArrivalModel, Population, SyntheticSpec, TrafficMix};

        let build = || {
            let mut builder = Scenario::builder(2, HostClass::EdgeServer);
            let clients = builder.add_clients(4, TrafficProfile::Idle);
            let mut sb = builder.with_duration(gnf_types::SimDuration::from_secs(20));
            for client in &clients {
                sb = sb.attach_policy(
                    *client,
                    vec![sample_specs()[0].clone()],
                    TrafficSelector::all(),
                    SimTime::from_secs(1),
                );
            }
            let scenario = sb.build();
            let population = Population::from_topology(&scenario.topology);
            let mut emulator = Emulator::new(scenario);
            emulator.add_workload(Box::new(
                SyntheticSpec::new("churn", 7)
                    .starting_at(SimTime::from_secs(3))
                    .with_arrivals(ArrivalModel::Poisson {
                        flows_per_sec: 2_000.0,
                    })
                    .with_mix(TrafficMix::churn())
                    .with_packet_budget(5_000)
                    .build(population),
            ));
            emulator
        };

        let report = build().run();
        // Idle clients generate nothing themselves: every packet in the run
        // came through the streaming source, and all of it fit the horizon.
        assert_eq!(report.packets.generated, 5_000);
        assert!(report.packets.forwarded > 1_000, "{:?}", report.packets);
        assert!(
            report.flow_cache.stats.hits + report.flow_cache.stats.misses > 0,
            "workload traffic traversed the switch pipeline"
        );
        // Same workload + scenario is byte-identical on a second run (debug
        // builds salt every map, so an iteration-order leak shows here).
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&build().run()).unwrap(),
            "workload runs must merge deterministically"
        );
    }

    #[test]
    fn workloads_compose_with_builtin_traffic_and_each_other() {
        use gnf_workload::{Population, SyntheticSpec, TrafficMix};

        let mut builder = Scenario::builder(2, HostClass::EdgeServer);
        builder.add_client_at(Position::new(1.0, 1.0), TrafficProfile::smartphone());
        let scenario = builder
            .with_duration(gnf_types::SimDuration::from_secs(15))
            .build();
        let population = Population::from_topology(&scenario.topology);

        let mut baseline = Emulator::new(scenario.clone());
        let builtin_only = baseline.run().packets.generated;
        assert!(builtin_only > 0, "the smartphone profile generates traffic");

        let mut emulator = Emulator::new(scenario);
        for (label, seed) in [("web", 1u64), ("attack", 2u64)] {
            let mix = if label == "web" {
                TrafficMix::web()
            } else {
                TrafficMix::attack()
            };
            emulator.add_workload(Box::new(
                SyntheticSpec::new(label, seed)
                    .starting_at(SimTime::from_secs(2))
                    .with_mix(mix)
                    .with_packet_gap(gnf_types::SimDuration::from_millis(2))
                    .with_packet_budget(1_000)
                    .build(population.clone()),
            ));
        }
        let report = emulator.run();
        assert_eq!(
            report.packets.generated,
            builtin_only + 2_000,
            "built-in traffic and both sources all flowed"
        );
    }

    #[test]
    fn crashed_station_rejoins_and_reconverges() {
        use crate::chaos::{FaultKind, FaultSchedule};

        let build = || {
            let mut builder = Scenario::builder(4, HostClass::EdgeServer);
            let clients = builder.add_clients(8, TrafficProfile::smartphone());
            let mut sb = builder.with_duration(gnf_types::SimDuration::from_secs(40));
            for client in &clients {
                sb = sb.attach_policy(
                    *client,
                    vec![sample_specs()[0].clone()],
                    TrafficSelector::all(),
                    SimTime::from_secs(2),
                );
            }
            let mut schedule = FaultSchedule::new();
            schedule.push(
                SimTime::from_secs(10),
                FaultKind::StationCrash {
                    station: gnf_types::StationId::new(0),
                    down_for: gnf_types::SimDuration::from_secs(5),
                },
            );
            schedule.push(
                SimTime::from_secs(20),
                FaultKind::CacheInvalidation {
                    station: gnf_types::StationId::new(1),
                    floods: 2,
                },
            );
            schedule.push(
                SimTime::from_secs(18),
                FaultKind::LinkPartition {
                    station: gnf_types::StationId::new(2),
                    duration: gnf_types::SimDuration::from_secs(6),
                    mode: crate::chaos::PartitionMode::Drop,
                },
            );
            let mut emulator = Emulator::new(sb.build());
            emulator.set_fault_schedule(schedule);
            emulator
        };

        let mut emulator = build();
        let report = emulator.run();
        assert_eq!(report.chaos.faults_injected, 3);
        assert_eq!(report.chaos.crashes, 1);
        assert_eq!(report.chaos.restarts, 1);
        assert_eq!(report.chaos.partitions, 1);
        assert_eq!(report.chaos.invalidation_floods, 1);
        assert!(report.chaos.fully_recovered(), "{:?}", report.chaos);
        assert_eq!(report.chaos.stations.crashes, 1);
        assert_eq!(report.chaos.stations.cache_invalidations, 2);
        // The crashed station's generation bumped exactly once.
        assert_eq!(
            emulator
                .agent(gnf_types::StationId::new(0))
                .unwrap()
                .generation(),
            1
        );
        // In-flight traffic to the dead station is a distinct loss class.
        assert!(report.packets.dropped_station_down > 0);
        // The partitioned station's periodic reports were lost on the link.
        assert!(report.chaos.messages_dropped > 0);
        // Every chain is back up and active after the storm.
        assert_eq!(
            emulator
                .manager()
                .attachments()
                .filter(|a| a.active)
                .count(),
            8
        );

        // The fault storm replays byte-for-byte.
        let again = build().run();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&again).unwrap(),
            "chaos runs must stay deterministic"
        );
    }

    /// Roam + crash scenario shared by the observability tests: six
    /// stateful clients roam at t=25 s (after station 0 crashed at t=10 s
    /// and rejoined), so one run produces migration spans, fault instants
    /// and a crash→reconvergence recovery window in the same trace.
    fn observability_scenario() -> Scenario {
        use gnf_edge::RoamTrace;

        let config = GnfConfig {
            migration_precopy: true,
            ..Default::default()
        };
        let mut builder = Scenario::builder(4, HostClass::EdgeServer);
        let clients = builder.add_clients(6, TrafficProfile::smartphone());
        let mut sb = builder
            .with_config(config)
            .with_duration(gnf_types::SimDuration::from_secs(40));
        for client in &clients {
            sb = sb.attach_policy(
                *client,
                vec![sample_specs()[0].clone()],
                TrafficSelector::all(),
                SimTime::from_secs(1),
            );
        }
        let mut trace = RoamTrace::new();
        for (ix, client) in clients.iter().enumerate() {
            trace = trace.roam(
                SimTime::from_secs(25),
                *client,
                gnf_types::CellId::new(((ix + 1) % 4) as u64),
            );
        }
        sb.with_mobility(crate::scenario::Mobility::Trace(trace))
            .build()
    }

    fn observability_fault_schedule() -> crate::chaos::FaultSchedule {
        use crate::chaos::FaultKind;

        let mut schedule = crate::chaos::FaultSchedule::new();
        schedule.push(
            SimTime::from_secs(10),
            FaultKind::StationCrash {
                station: gnf_types::StationId::new(0),
                down_for: gnf_types::SimDuration::from_secs(5),
            },
        );
        schedule
    }

    #[test]
    fn tracing_and_metrics_never_leak_into_the_report_and_replay_byte_identically() {
        // Baseline: the same run with observability off.
        let mut plain = Emulator::new(observability_scenario());
        plain.set_fault_schedule(observability_fault_schedule());
        add_packet_burst(&mut plain);
        let plain_bytes = serde_json::to_string(&plain.run()).unwrap();

        // Armed headline run.
        let run_armed = || {
            let mut emulator = Emulator::new(observability_scenario());
            emulator.set_fault_schedule(observability_fault_schedule());
            add_packet_burst(&mut emulator);
            emulator.enable_tracing();
            emulator.enable_metrics();
            let report = emulator.run();
            let log = emulator.trace_log();
            let metrics = emulator.metrics_series().unwrap().to_csv();
            (
                serde_json::to_string(&report).unwrap(),
                log.to_chrome_json(),
                log.to_csv(),
                metrics,
            )
        };
        let (report_bytes, trace_json, trace_csv, metrics_csv) = run_armed();

        // The observers are read-only: the report is byte-identical to the
        // untraced baseline.
        assert_eq!(
            plain_bytes, report_bytes,
            "tracing + metrics must not change the RunReport"
        );
        assert!(trace_json.contains("traceEvents"));
        assert!(metrics_csv.lines().count() > 1, "sampler produced rows");

        // A second run reproduces all three artifacts byte-for-byte.
        let (r, j, c, m) = run_armed();
        assert_eq!(report_bytes, r, "report");
        assert_eq!(trace_json, j, "trace JSON");
        assert_eq!(trace_csv, c, "trace CSV");
        assert_eq!(metrics_csv, m, "metrics");
    }

    #[test]
    fn chaos_trace_carries_migration_fault_and_recovery_events() {
        let mut emulator = Emulator::new(observability_scenario());
        emulator.set_fault_schedule(observability_fault_schedule());
        emulator.enable_tracing();
        emulator.enable_metrics();
        let report = emulator.run();
        assert!(report.all_migrations_completed());
        assert!(report.chaos.fully_recovered());

        let log = emulator.trace_log();
        assert!(!log.is_empty());
        assert!(
            log.count_category("migration") >= 6,
            "six roams must leave migration spans, got {}",
            log.count_category("migration")
        );
        assert!(
            log.count_category("chaos") >= 1,
            "the crash must leave a fault instant"
        );
        assert!(
            log.count_category("recovery") >= 1,
            "the rejoin must close a recovery window"
        );
        assert!(
            log.count_category("batch") >= 1,
            "data-plane batches must leave flush events"
        );

        // The sampler walked the run in interval steps: timestamps strictly
        // increase and the forwarded counter never runs backwards past a
        // crash (deltas are saturating, so kpps stays finite and >= 0).
        let series = emulator.metrics_series().unwrap();
        let samples: Vec<_> = series.samples().collect();
        assert!(samples.len() > 10, "40 s run yields many samples");
        for pair in samples.windows(2) {
            assert!(pair[0].at < pair[1].at);
        }
        assert!(samples.iter().all(|s| s.kpps >= 0.0));
        assert!(samples.iter().any(|s| s.forwarded > 0));
    }

    #[test]
    fn disabled_sinks_cost_nothing_and_emit_nothing() {
        let mut emulator = Emulator::new(observability_scenario());
        let report = emulator.run();
        assert!(report.packets.forwarded > 0);
        let log = emulator.trace_log();
        assert_eq!(log.len(), 0, "disabled sinks must record nothing");
        assert_eq!(log.dropped(), 0);
        assert!(emulator.metrics_series().is_none());
    }

    /// Two stations, one client on cell 0, and a roam trace that names
    /// `client` and `cell` at t = 5 s.
    fn run_with_roam(client: ClientId, cell: CellId) -> (Emulator, RunReport, ClientId) {
        use gnf_edge::RoamTrace;

        let mut builder = Scenario::builder(2, HostClass::EdgeServer);
        let clients = builder.add_clients(1, TrafficProfile::smartphone());
        let scenario = builder
            .with_duration(SimDuration::from_secs(10))
            .with_mobility(Mobility::Trace(RoamTrace::new().roam(
                SimTime::from_secs(5),
                client,
                cell,
            )))
            .build();
        let mut emulator = Emulator::new(scenario);
        let report = emulator.run();
        (emulator, report, clients[0])
    }

    #[test]
    fn a_roam_naming_an_unknown_client_changes_nothing() {
        let (emulator, report, client) = run_with_roam(ClientId::new(99), CellId::new(1));
        assert_eq!(report.handovers, 0);
        let station = emulator.agent(StationId::new(0)).expect("station 0 exists");
        assert_eq!(station.connected_clients(), vec![client]);
    }

    #[test]
    fn a_roam_to_a_cell_without_a_site_changes_nothing() {
        let (emulator, report, client) = run_with_roam(ClientId::new(0), CellId::new(42));
        assert_eq!(client, ClientId::new(0));
        assert_eq!(report.handovers, 0, "the radio never left cell 0");
        let station = emulator.agent(StationId::new(0)).expect("station 0 exists");
        assert_eq!(
            station.connected_clients(),
            vec![client],
            "station 0 still serves the client the topology keeps on its cell"
        );
        let device = emulator.scenario.topology.client(client).expect("client 0");
        assert_eq!(device.attached_cell, Some(CellId::new(0)));
    }

    #[test]
    fn clients_without_policies_flow_unimpeded() {
        let mut builder = Scenario::builder(2, HostClass::HomeRouter);
        builder.add_client_at(Position::new(1.0, 1.0), TrafficProfile::smartphone());
        let mut emulator = Emulator::new(
            builder
                .with_duration(gnf_types::SimDuration::from_secs(20))
                .build(),
        );
        let report = emulator.run();
        assert_eq!(report.packets.dropped_in_gap, 0);
        assert_eq!(report.packets.dropped_by_nf, 0);
        assert_eq!(report.packets.generated, report.packets.forwarded);
    }

    /// The observability scenario with delta reporting switched on.
    fn delta_scenario() -> Scenario {
        let mut scenario = observability_scenario();
        scenario.config.delta_reports = true;
        scenario.config.report_keyframe_interval = 4;
        scenario
    }

    #[test]
    fn delta_reports_preserve_the_run_report_byte_for_byte() {
        // Full-report baseline, crash fault included.
        let mut full = Emulator::new(observability_scenario());
        full.set_fault_schedule(observability_fault_schedule());
        add_packet_burst(&mut full);
        let full_bytes = serde_json::to_string(&full.run()).unwrap();
        let full_stats = full.manager().control_plane_stats();
        assert!(full_stats.full_reports > 0);
        assert_eq!(full_stats.deltas_applied, 0);

        // Same scenario over the delta transport: one frame per report
        // interval either way, so the RunReport must not change at all.
        let mut delta = Emulator::new(delta_scenario());
        delta.set_fault_schedule(observability_fault_schedule());
        add_packet_burst(&mut delta);
        let delta_bytes = serde_json::to_string(&delta.run()).unwrap();
        assert_eq!(
            full_bytes, delta_bytes,
            "delta transport changed the RunReport"
        );
        let stats = delta.manager().control_plane_stats();
        assert_eq!(stats.full_reports, 0, "delta mode sends no full reports");
        assert!(stats.delta_keyframes > 0, "keyframes open each generation");
        assert!(stats.deltas_applied > 0, "steady state rides delta frames");
        assert!(
            stats.delta_forced_resyncs >= 1,
            "the crashed station must force a keyframe resync"
        );
    }

    #[test]
    fn region_mode_rolls_reports_into_summaries_for_the_manager() {
        let mut scenario = observability_scenario();
        scenario.config.region_size = 2; // 4 stations -> 2 regions
        scenario.config.delta_reports = true;
        let mut emulator = Emulator::new(scenario);
        emulator.set_fault_schedule(observability_fault_schedule());
        let report = emulator.run();
        assert!(report.all_migrations_completed());

        let manager = emulator.manager();
        let stats = manager.control_plane_stats();
        assert!(stats.region_summaries > 0, "summaries reached the Manager");
        // Reports were absorbed by the tier, not ingested directly.
        assert_eq!(stats.full_reports, 0);
        assert_eq!(stats.deltas_applied, 0);
        let summaries: Vec<_> = manager.region_summaries().collect();
        assert_eq!(summaries.len(), 2, "one summary per region");
        for summary in summaries {
            assert_eq!(summary.stations, 2);
            assert!(summary.reports_ingested > 0, "stations fed the aggregator");
            assert!(summary.connected_clients > 0 || summary.running_nfs > 0);
        }
    }

    /// `fleet_steady`'s shape at a tenth of its size: 200 stations with one
    /// smartphone client each behind the demo firewall, delta reports on.
    fn fleet_scenario() -> Scenario {
        let config = GnfConfig::default().with_seed(7).with_delta_reports(true);
        let mut builder = Scenario::builder(200, HostClass::EdgeServer).with_config(config);
        let clients = builder.add_clients(200, TrafficProfile::smartphone());
        let mut sb = builder.with_duration(SimDuration::from_secs(20));
        for client in clients {
            sb = sb.attach_policy(
                client,
                vec![sample_specs()[0].clone()],
                TrafficSelector::all(),
                SimTime::from_secs(1),
            );
        }
        sb.build()
    }

    /// The host stage table rides `enable_tracing`, stays out of the
    /// report, counts what ran and tiles `run()`. Run it with
    /// `--nocapture` (in release for representative figures) to print the
    /// fleet's table.
    #[test]
    fn the_host_stage_table_tiles_a_fleet_run_and_stays_out_of_the_report() {
        let mut plain = Emulator::new(fleet_scenario());
        let report = plain.run();
        assert!(plain.host_stages().is_none(), "off unless tracing is armed");

        let mut traced = Emulator::new(fleet_scenario());
        traced.enable_tracing();
        let traced_report = traced.run();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&traced_report).unwrap()
        );
        let table = traced.host_stages().expect("tracing armed the table");
        println!("{}", table.to_csv());
        // One lap per pop, the last (empty) one included.
        assert_eq!(
            table.row(Stage::QueuePop).count,
            report.events_processed + 1
        );
        assert_eq!(table.row(Stage::Run).count, 1);
        assert_eq!(table.row(Stage::Report).count, 1);
        // Every event is timed once: a packet event's admission under the
        // gap filter, a control event under its handle row.
        let handled: u64 = Stage::ALL
            .iter()
            .filter(|stage| stage.name().starts_with("handle."))
            .map(|stage| table.row(*stage).count)
            .sum();
        let packet_events = table.row(Stage::GapFilter).count;
        assert!(packet_events > 0);
        assert_eq!(packet_events + handled, report.events_processed);
        // One flush at most per control event, plus the final one.
        let flushes = table.row(Stage::StationJobs).count;
        assert!(
            flushes > 0 && flushes <= handled + 1,
            "{flushes} vs {handled}"
        );
        // Every station reports every interval from 2 s on.
        assert!(table.row(Stage::HandleReportTimer).count >= 200 * 9);
        assert!(table.row(Stage::GapState).count > 0);
        assert!(table.row(Stage::GapState).ns <= table.row(Stage::GapFilter).ns);
        assert!(table.closes(0.10), "{}", table.to_csv());
    }
}
