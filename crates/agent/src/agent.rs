//! The Agent state machine.

use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_container::{ContainerRuntime, ImageRepository, NfvRuntime};
use gnf_nf::{
    ChainBypass, Direction, NfChain, NfContext, NfSpec, NfStateDelta, NfStateSnapshot, Verdict,
};
use gnf_packet::{FieldMask, Packet, PacketBatch};
use gnf_switch::{
    BypassOutcome, Classified, Forwarding, MegaflowInstall, MegaflowState, PortId, SoftwareSwitch,
    SteeringRule, TrafficSelector, DEFAULT_MEGAFLOW_CAPACITY,
};
use gnf_telemetry::{
    BatchTelemetry, ChaosTelemetry, DeltaEncoder, FlightRecorder, FlowRecord, SectionHints,
    StationReport, TraceKind, TraceSink,
};
use gnf_types::{
    AgentId, ChainId, ClientId, GnfError, GnfResult, HostClass, MacAddr, PathMap, ResourceUsage,
    SimDuration, SimTime, StationId,
};
use std::borrow::Cow;
use std::net::Ipv4Addr;

/// Static configuration of one Agent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AgentConfig {
    /// The Agent's identity.
    pub agent: AgentId,
    /// The station it manages.
    pub station: StationId,
    /// Hardware class of the station.
    pub host_class: HostClass,
}

/// A chain deployed on this station.
pub struct DeployedChain {
    /// The chain identifier assigned by the Manager.
    pub chain_id: ChainId,
    /// The client whose traffic the chain serves.
    pub client: ClientId,
    /// The client's MAC address (used to key the steering rule).
    pub client_mac: MacAddr,
    /// The NF specs the chain was built from.
    pub specs: Vec<NfSpec>,
    /// The executable chain.
    pub chain: NfChain,
    /// Container handles backing each NF, in chain order.
    pub containers: Vec<u64>,
    /// The traffic subset diverted through the chain.
    pub selector: TrafficSelector,
    /// End-to-end latency of deploying the chain on this station.
    pub deploy_latency: SimDuration,
    /// True while the chain is a pre-copy staging target: containers run and
    /// the baseline state is imported, but no steering rule exists, so the
    /// chain never sees traffic until activated.
    pub staged: bool,
    /// When the chain serves (or starts serving) traffic: the command's time
    /// plus its latency, set by a serving deploy and by activation. `None`
    /// while the chain is staged.
    pub ready_at: Option<SimTime>,
    /// Baseline snapshot retained by the *source* after a pre-copy checkpoint,
    /// used to compute the dirty delta at switchover.
    pub precopy_baseline: Option<Vec<NfStateSnapshot>>,
}

/// What happened to a packet handed to the station's data plane.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketOutcome {
    /// The packet continues towards the network (upstream) or the client
    /// (downstream), possibly rewritten by the chain.
    Forwarded(Packet),
    /// The packet was dropped by an NF (reason attached; borrowed for the
    /// fixed policy reasons so the drop path stays allocation-free).
    Dropped(Cow<'static, str>),
    /// The packet was consumed and these replies go back towards its source.
    Replied(Vec<Packet>),
}

/// The chain report a slow-path megaflow seed seals with, gated on the
/// packet's verdict:
///
/// * forwarded → the chain's [`ChainBypass::Forward`] report, when it
///   certifies one;
/// * silently dropped → the chain's [`ChainBypass::Drop`] report, when it
///   certifies one;
/// * anything else (a reply, a report variant disagreeing with the verdict
///   — which would mean an NF broke the purity contract) → `None`: the
///   entry seals decision-only and matching packets keep traversing the
///   chain.
fn seal_report(
    chain: &NfChain,
    direction: Direction,
    verdict: &Verdict,
) -> Option<(FieldMask, BypassOutcome)> {
    // A reply never seals a bypass, so its report is not even built.
    if matches!(verdict, Verdict::Reply(_)) {
        return None;
    }
    match (verdict, chain.wildcard_report(direction)?) {
        (Verdict::Forward(_), ChainBypass::Forward { mask, tokens }) => {
            Some((mask, BypassOutcome::Forward(tokens)))
        }
        (
            Verdict::Drop(_),
            ChainBypass::Drop {
                mask,
                tokens,
                reason,
            },
        ) => Some((mask, BypassOutcome::Drop { tokens, reason })),
        _ => None,
    }
}

/// The GNF Agent.
pub struct Agent {
    config: AgentConfig,
    runtime: ContainerRuntime,
    switch: SoftwareSwitch,
    repository: ImageRepository,
    chains: PathMap<ChainId, DeployedChain>,
    clients: PathMap<ClientId, (MacAddr, Ipv4Addr)>,
    reports_sent: u64,
    commands_handled: u64,
    batch_sizes: BatchTelemetry,
    /// Soft-state generation: bumped on every crash so post-restart traffic
    /// can never be served from a pre-crash cache entry.
    generation: u64,
    /// Fault-injection counters reported through the periodic station report.
    chaos: ChaosTelemetry,
    /// Data-plane event sink (batch flushes, megaflow seals/evictions).
    /// Disabled by default: one branch on the hot path, nothing recorded.
    trace: TraceSink,
    /// Seeded flow-sampled flight recorder. Disabled by default.
    flight: FlightRecorder,
    /// Scratch report buffer, filled in place every interval so periodic
    /// reporting reuses one allocation (and its vectors' capacity) instead
    /// of constructing a fresh boxed report per interval.
    scratch: Box<StationReport>,
    /// Delta-report encoder (None = classic full reports).
    delta: Option<DeltaEncoder>,
    /// Dirty bits piggybacked on the mutation paths: which report sections
    /// may differ from the delta stream's current keyframe. Conservative
    /// hints only — the encoder still compares hinted sections, and clears
    /// the bits when a keyframe resynchronises the stream.
    report_hints: SectionHints,
}

impl Agent {
    /// Creates an Agent and returns it together with the `Register` message it
    /// must send to the Manager.
    pub fn new(config: AgentConfig, repository: ImageRepository) -> (Self, AgentToManager) {
        let runtime = ContainerRuntime::new(config.host_class);
        let register = AgentToManager::Register {
            agent: config.agent,
            station: config.station,
            host_class: config.host_class,
            capacity: runtime.capacity(),
        };
        let scratch = Box::new(StationReport {
            station: config.station,
            agent: config.agent,
            produced_at: SimTime::ZERO,
            host_class: config.host_class,
            capacity: runtime.capacity(),
            usage: ResourceUsage::IDLE,
            connected_clients: Vec::new(),
            running_nfs: 0,
            cached_images: 0,
            flow_cache: Default::default(),
            megaflow: Default::default(),
            batches: BatchTelemetry::default(),
            chaos: ChaosTelemetry::default(),
        });
        (
            Agent {
                config,
                runtime,
                switch: SoftwareSwitch::new(),
                repository,
                chains: PathMap::default(),
                clients: PathMap::default(),
                reports_sent: 0,
                commands_handled: 0,
                batch_sizes: BatchTelemetry::default(),
                generation: 0,
                chaos: ChaosTelemetry::default(),
                trace: TraceSink::default(),
                flight: FlightRecorder::default(),
                scratch,
                delta: None,
                report_hints: SectionHints::all(),
            },
            register,
        )
    }

    /// Switches periodic reporting to the delta wire format: keyframes every
    /// `keyframe_interval` deltas, cumulative per-section deltas in between,
    /// and a forced keyframe after every crash or rejoin. The reconstructed
    /// reports are byte-identical to full-report mode.
    pub fn set_delta_reporting(&mut self, keyframe_interval: u64) {
        self.delta = Some(DeltaEncoder::new(keyframe_interval));
        self.report_hints = SectionHints::all();
    }

    /// True when periodic reports use the delta wire format.
    pub fn delta_reporting(&self) -> bool {
        self.delta.is_some()
    }

    /// Arms (or disarms) the data-plane observability sinks: `trace`
    /// receives batch-flush and megaflow seal/eviction events, `flight` the
    /// seeded flow-sampled lifecycle records. Both default to disabled —
    /// a single branch on the hot path, no allocation, no buffering.
    pub fn set_tracing(&mut self, trace: TraceSink, flight: FlightRecorder) {
        self.trace = trace;
        self.flight = flight;
    }

    /// Mutable access to the event sink, for the harness to drain.
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Mutable access to the flight recorder, for the harness to drain.
    pub fn flight_mut(&mut self) -> &mut FlightRecorder {
        &mut self.flight
    }

    /// The Agent's station.
    pub fn station(&self) -> StationId {
        self.config.station
    }

    /// The station's host class.
    pub fn host_class(&self) -> HostClass {
        self.config.host_class
    }

    /// The chains currently deployed on this station.
    pub fn chains(&self) -> impl Iterator<Item = &DeployedChain> {
        self.chains.values()
    }

    /// A deployed chain by id.
    pub fn chain(&self, chain: ChainId) -> Option<&DeployedChain> {
        self.chains.get(&chain)
    }

    /// Number of running NF containers.
    pub fn running_nfs(&self) -> usize {
        self.runtime.running_count()
    }

    /// Clients currently associated with this station.
    pub fn connected_clients(&self) -> Vec<ClientId> {
        let mut v: Vec<ClientId> = self.clients.keys().copied().collect();
        v.sort();
        v
    }

    /// Read access to the software switch (counters, steering table).
    pub fn switch(&self) -> &SoftwareSwitch {
        &self.switch
    }

    /// Enables or disables the switch's megaflow (wildcard) cache layer.
    ///
    /// Disabled by default: enabling it changes how lookups distribute
    /// between the exact-match and wildcard cache levels (outcomes, NF
    /// statistics and port counters stay equivalent — the megaflow
    /// property tests assert exactly that). The emulator enables it on
    /// every station it builds.
    pub fn set_megaflow_enabled(&mut self, enabled: bool) {
        self.switch.set_megaflow_capacity(if enabled {
            DEFAULT_MEGAFLOW_CAPACITY
        } else {
            0
        });
        self.report_hints.traffic = true;
    }

    /// True when the megaflow (wildcard) cache layer is enabled.
    pub fn megaflow_enabled(&self) -> bool {
        self.switch.megaflow_enabled()
    }

    /// Read access to the container runtime.
    pub fn runtime(&self) -> &ContainerRuntime {
        &self.runtime
    }

    /// Total commands handled from the Manager.
    pub fn commands_handled(&self) -> u64 {
        self.commands_handled
    }

    /// The station's current soft-state generation (bumped per crash).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// This station's fault-injection counters, with the current soft-state
    /// generation stamped in.
    pub fn chaos_telemetry(&self) -> ChaosTelemetry {
        ChaosTelemetry {
            generation: self.generation,
            ..self.chaos
        }
    }

    /// Crashes the station: every piece of soft state is lost — deployed
    /// chains and their NF conntrack, running containers, associated
    /// clients, the flow cache, the megaflow cache and the learned MAC
    /// table. The soft-state generation is bumped so no pre-crash cache
    /// entry can ever serve post-restart traffic. Cumulative counters
    /// (reports sent, batch telemetry, switch statistics) survive: they
    /// describe the run, not the crashed process.
    pub fn crash(&mut self) {
        let mut chain_ids: Vec<ChainId> = self.chains.keys().copied().collect();
        chain_ids.sort();
        for chain in chain_ids {
            let _ = self.remove_chain(chain);
        }
        self.clients.clear();
        self.switch.flush_flow_cache();
        self.switch.clear_mac_table();
        self.switch.invalidate_caches();
        self.generation += 1;
        self.chaos.crashes += 1;
        // The manager's held keyframe describes pre-crash state: the next
        // report must open a new generation (chaos-safe forced resync).
        self.report_hints = SectionHints::all();
        if let Some(encoder) = &mut self.delta {
            encoder.force_resync();
        }
    }

    /// Restarts a crashed station: returns the `Register` message the reborn
    /// Agent sends, exactly as a fresh [`Agent::new`] would. The Manager
    /// treats a re-registration as a reboot and resets its view of every
    /// attachment the station carried.
    pub fn rejoin(&self) -> AgentToManager {
        AgentToManager::Register {
            agent: self.config.agent,
            station: self.config.station,
            host_class: self.config.host_class,
            capacity: self.runtime.capacity(),
        }
    }

    /// Applies a steering-rule churn storm: installs and immediately removes
    /// `rules` synthetic rules. Each install/remove pair bumps the steering
    /// generation, forcing memoized flow decisions to revalidate — the
    /// stress a flapping control plane puts on the data plane's caches.
    pub fn chaos_steering_churn(&mut self, rules: u64) {
        for i in 0..rules {
            let mac = MacAddr::derived(0xC4, i as u32);
            let chain = ChainId::new(u64::MAX - i);
            self.switch.steering_mut().install(SteeringRule {
                client: ClientId::new(u64::MAX - i),
                client_mac: mac,
                selector: TrafficSelector::all(),
                chain,
            });
            self.switch.steering_mut().remove_chain(mac, chain);
        }
        self.chaos.steering_churn_rules += rules;
        self.report_hints.chaos = true;
        self.report_hints.traffic = true;
    }

    /// Applies a cache-invalidation flood: bumps the switch's topology
    /// generation `floods` times, lazily invalidating every memoized flow
    /// decision and wildcard entry.
    pub fn chaos_invalidate_caches(&mut self, floods: u64) {
        for _ in 0..floods {
            self.switch.invalidate_caches();
        }
        self.chaos.cache_invalidations += floods;
        self.report_hints.chaos = true;
        self.report_hints.traffic = true;
    }

    /// Handles a client associating with this station's cell.
    pub fn client_associated(
        &mut self,
        client: ClientId,
        mac: MacAddr,
        ip: Ipv4Addr,
    ) -> Vec<AgentToManager> {
        self.clients.insert(client, (mac, ip));
        self.report_hints.clients = true;
        vec![AgentToManager::ClientConnected { client, mac, ip }]
    }

    /// Handles a client leaving this station's cell.
    pub fn client_disassociated(&mut self, client: ClientId) -> Vec<AgentToManager> {
        if self.clients.remove(&client).is_none() {
            return Vec::new();
        }
        self.report_hints.clients = true;
        vec![AgentToManager::ClientDisconnected { client }]
    }

    /// Handles a command from the Manager, returning the messages to send
    /// back.
    pub fn handle_manager_msg(&mut self, msg: ManagerToAgent, now: SimTime) -> Vec<AgentToManager> {
        self.commands_handled += 1;
        let migration = msg.migration();
        let (chain, result) = match msg {
            ManagerToAgent::RegisterAck { .. } => return self.drain_nf_notifications(now),
            ManagerToAgent::Ping => (None, Ok(AgentToManager::Pong)),
            ManagerToAgent::DeployChain {
                chain,
                client,
                client_mac,
                specs,
                selector,
                restore_state,
                migration,
            } => (
                Some(chain),
                self.deploy_chain(
                    chain,
                    client,
                    client_mac,
                    &specs,
                    selector,
                    restore_state,
                    false,
                    now,
                )
                .map(|(latency, images_cached)| AgentToManager::ChainDeployed {
                    chain,
                    client,
                    latency,
                    images_cached,
                    migration,
                }),
            ),
            ManagerToAgent::RemoveChain {
                chain,
                client,
                migration,
            } => (
                Some(chain),
                self.remove_chain(chain)
                    .map(|()| AgentToManager::ChainRemoved {
                        chain,
                        client,
                        migration,
                    }),
            ),
            ManagerToAgent::CheckpointChain {
                chain,
                client,
                migration,
                retain_baseline,
            } => (
                Some(chain),
                self.checkpoint_chain(chain, retain_baseline)
                    .map(|(state, checkpoint_latency)| AgentToManager::ChainState {
                        chain,
                        client,
                        migration,
                        state,
                        checkpoint_latency,
                    }),
            ),
            ManagerToAgent::PrepareChain {
                chain,
                client,
                client_mac,
                specs,
                selector,
                precopy_state,
                migration,
            } => (
                Some(chain),
                self.deploy_chain(
                    chain,
                    client,
                    client_mac,
                    &specs,
                    selector,
                    Some(precopy_state),
                    true,
                    now,
                )
                .map(|(latency, images_cached)| AgentToManager::ChainPrepared {
                    chain,
                    client,
                    migration,
                    latency,
                    images_cached,
                }),
            ),
            ManagerToAgent::DeltaChain {
                chain,
                client,
                migration,
            } => (
                Some(chain),
                self.delta_chain(chain).map(|(deltas, checkpoint_latency)| {
                    AgentToManager::ChainDelta {
                        chain,
                        client,
                        migration,
                        deltas,
                        checkpoint_latency,
                    }
                }),
            ),
            ManagerToAgent::ActivateChain {
                chain,
                client,
                migration,
                deltas,
            } => (
                Some(chain),
                self.activate_chain(chain, deltas, now).map(|latency| {
                    AgentToManager::ChainDeployed {
                        chain,
                        client,
                        latency,
                        // Activation never pulls images: the staged deploy did.
                        images_cached: true,
                        migration: Some(migration),
                    }
                }),
            ),
        };
        // Every command answers with its own reply, or with a failure naming
        // the chain and the migration the command belonged to.
        let reply = result.unwrap_or_else(|error| AgentToManager::CommandFailed {
            chain,
            error,
            migration,
        });
        std::iter::once(reply)
            .chain(self.drain_nf_notifications(now))
            .collect()
    }

    /// Builds the periodic station report ("reporting periodically the state
    /// of the device"): a full `Report`, or a `ReportDelta` frame when delta
    /// reporting is enabled. Either way the station state is assembled into
    /// the persistent scratch buffer, not a fresh allocation per interval.
    pub fn make_report(&mut self, now: SimTime) -> AgentToManager {
        self.reports_sent += 1;
        self.fill_scratch_report(now);
        match &mut self.delta {
            None => AgentToManager::Report(self.scratch.clone()),
            Some(encoder) => {
                let frame = encoder.encode_with_hints(&self.scratch, self.report_hints);
                if frame.is_keyframe() {
                    // The keyframe snapshot now equals the current state:
                    // every section is clean until the next mutation.
                    self.report_hints = SectionHints::none();
                }
                AgentToManager::ReportDelta(Box::new(frame))
            }
        }
    }

    /// Refreshes the scratch report in place with the station's current
    /// state, reusing the buffer's vector capacity across intervals.
    fn fill_scratch_report(&mut self, now: SimTime) {
        let capacity = self.runtime.capacity();
        let used = self.runtime.used();
        let counters = self.switch.aggregate_counters(|_| true);
        let report = &mut *self.scratch;
        report.station = self.config.station;
        report.agent = self.config.agent;
        report.produced_at = now;
        report.host_class = self.config.host_class;
        report.capacity = capacity;
        report.usage = ResourceUsage {
            cpu_fraction: (used.cpu_millicores as f64 / capacity.cpu_millicores.max(1) as f64)
                .min(1.0),
            memory_mb: used.memory_mb,
            disk_mb: used.disk_mb,
            rx_bps: counters.rx_bytes as f64 * 8.0 / now.as_secs_f64().max(1e-9),
            tx_bps: counters.tx_bytes as f64 * 8.0 / now.as_secs_f64().max(1e-9),
        };
        report.connected_clients.clear();
        report
            .connected_clients
            .extend(self.clients.keys().copied());
        report.connected_clients.sort();
        report.running_nfs = self.runtime.running_count();
        // The cache only ever receives images of this Agent's own
        // catalogue, so its size is the number of catalogue images cached.
        report.cached_images = self.runtime.cached_image_count();
        report.flow_cache = gnf_telemetry::FlowCacheTelemetry {
            stats: self.switch.flow_cache_stats(),
            entries: self.switch.flow_cache_len(),
        };
        report.megaflow = gnf_telemetry::MegaflowTelemetry {
            stats: self.switch.megaflow_stats(),
            entries: self.switch.megaflow_len(),
            masks: self.switch.megaflow_mask_count(),
        };
        report.batches = self.batch_sizes.clone();
        report.chaos = ChaosTelemetry {
            generation: self.generation,
            ..self.chaos
        };
    }

    /// Data-plane fast-path counters of this station's switch.
    pub fn flow_cache_telemetry(&self) -> gnf_telemetry::FlowCacheTelemetry {
        gnf_telemetry::FlowCacheTelemetry {
            stats: self.switch.flow_cache_stats(),
            entries: self.switch.flow_cache_len(),
        }
    }

    /// Megaflow (wildcard) cache counters of this station's switch.
    pub fn megaflow_telemetry(&self) -> gnf_telemetry::MegaflowTelemetry {
        gnf_telemetry::MegaflowTelemetry {
            stats: self.switch.megaflow_stats(),
            entries: self.switch.megaflow_len(),
            masks: self.switch.megaflow_mask_count(),
        }
    }

    /// Adds this station's exact-match cache occupancy, partitioned over
    /// `occupancy.len()` fixed virtual flow-hash shards, into `occupancy`: a
    /// fleet sampler sums every station into one caller-owned array.
    pub fn add_flow_cache_occupancy_by_virtual_shard(&self, occupancy: &mut [u64]) {
        self.switch
            .add_flow_cache_occupancy_by_virtual_shard(occupancy);
    }

    /// Batch-size distribution of the data-plane work this station processed.
    pub fn batch_telemetry(&self) -> &BatchTelemetry {
        &self.batch_sizes
    }

    /// The station's one data-plane entry point: runs `batch`, received at
    /// `now`, through the pipeline (see the [crate docs](crate)) on the
    /// calling thread and hands each packet's [`PacketOutcome`] to `sink`.
    ///
    /// * `direction` names the port the batch arrives on:
    ///   [`Direction::Ingress`] is the client-access port (client → network),
    ///   [`Direction::Egress`] the uplink (network → client). Which way a
    ///   steered packet traverses its chain is the steering rule's call, not
    ///   this argument's.
    /// * `sink` is called exactly once per packet, in packet order; an empty
    ///   batch calls it never.
    ///
    /// A lone packet is `PacketBatch::from(packet)`: per-packet calls and
    /// one batch at the same timestamp are observably equivalent (outcomes,
    /// counters, NF state, flight records).
    pub fn process(
        &mut self,
        direction: Direction,
        batch: PacketBatch,
        now: SimTime,
        sink: &mut impl FnMut(PacketOutcome),
    ) {
        self.report_hints.traffic = true;
        if batch.is_empty() {
            return;
        }
        self.batch_sizes.record(batch.len() as u64);
        let in_port = match direction {
            Direction::Ingress => self.switch.client_port(),
            Direction::Egress => self.switch.uplink_port(),
        };
        Spine {
            switch: &mut self.switch,
            chains: &mut self.chains,
            trace: &mut self.trace,
            flight: &mut self.flight,
            station: self.config.station.raw(),
            in_port,
            now,
        }
        .run(batch, sink)
    }

    /// Drains pending NF events into `NfNotification` messages for the
    /// Manager, in `ChainId` order (each chain's events in NF order), so the
    /// Manager's notification log does not depend on the chain table's
    /// per-process hash order.
    pub fn drain_nf_notifications(&mut self, _now: SimTime) -> Vec<AgentToManager> {
        let mut out = Vec::new();
        for deployed in self.chains.values_mut() {
            for (nf_name, event) in deployed.chain.drain_events() {
                out.push(AgentToManager::NfNotification {
                    chain: deployed.chain_id,
                    client: deployed.client,
                    nf_name,
                    event,
                });
            }
        }
        // Stable, and sorting what was collected (not the chain ids up
        // front) keeps the idle drain allocation-free.
        out.sort_by_key(|message| match message {
            AgentToManager::NfNotification { chain, .. } => Some(*chain),
            _ => None,
        });
        out
    }

    /// Instantiates a chain: pulls images, creates a container per NF, wires
    /// the veth pairs into the switch, instantiates the NFs and restores
    /// `state` (migrated state, or a pre-copy baseline). A serving deploy
    /// then installs the steering rule; a `staged` one installs **none** —
    /// the chain never sees traffic until [`Agent::activate_chain`] switches
    /// it over. Re-staging an already-staged chain is idempotent (the
    /// baseline is replaced wholesale), so a retried `PrepareChain` after a
    /// lost reply converges; anything else over an existing chain is
    /// `already_exists`. A serving deploy at `now` is ready at `now` plus the
    /// latency. Returns (latency, all-images-cached).
    #[allow(clippy::too_many_arguments)]
    fn deploy_chain(
        &mut self,
        chain_id: ChainId,
        client: ClientId,
        client_mac: MacAddr,
        specs: &[NfSpec],
        selector: TrafficSelector,
        state: Option<Vec<NfStateSnapshot>>,
        staged: bool,
        now: SimTime,
    ) -> GnfResult<(SimDuration, bool)> {
        self.report_hints.nfs = true;
        self.report_hints.traffic = true;
        // Restoring state costs time proportional to its size (the transfer
        // is serialised). The containers are already running after
        // `deploy()`, so the restore is charged through the cost model.
        let restore_latency = state.as_ref().map_or(SimDuration::ZERO, |state| {
            let bytes = state.iter().map(|s| s.approximate_size_bytes()).sum();
            self.runtime.cost_model().restore_time(bytes)
        });
        if let Some(existing) = self.chains.get_mut(&chain_id) {
            return match state {
                Some(baseline) if staged && existing.staged => {
                    existing.chain.replace_state(baseline);
                    Ok((restore_latency, true))
                }
                _ => Err(GnfError::already_exists("chain", chain_id)),
            };
        }
        let mut total_latency = restore_latency;
        let mut all_cached = true;
        let mut containers = Vec::with_capacity(specs.len());
        let mut chain = NfChain::new(&format!("chain-{}", chain_id.raw()));
        for spec in specs {
            let image = self.repository.by_name(spec.image_name())?;
            let deployed = self
                .runtime
                .deploy(&spec.name, image, spec.container_footprint())?;
            total_latency += deployed.total_duration;
            all_cached &= deployed.image_was_cached;
            self.switch.connect_container(deployed.handle, &spec.name);
            containers.push(deployed.handle);
            chain.push(spec.instantiate());
        }
        if let Some(state) = state {
            chain.replace_state(state);
        }
        if !staged {
            self.switch.steering_mut().install(SteeringRule {
                client,
                client_mac,
                selector,
                chain: chain_id,
            });
        }
        self.chains.insert(
            chain_id,
            DeployedChain {
                chain_id,
                client,
                client_mac,
                specs: specs.to_vec(),
                chain,
                containers,
                selector,
                deploy_latency: total_latency,
                staged,
                ready_at: (!staged).then_some(now + total_latency),
                precopy_baseline: None,
            },
        );
        Ok((total_latency, all_cached))
    }

    /// Tears a chain down: removes steering, stops and removes its containers
    /// and drops the NF instances.
    fn remove_chain(&mut self, chain_id: ChainId) -> GnfResult<()> {
        self.report_hints.nfs = true;
        self.report_hints.traffic = true;
        let deployed = self
            .chains
            .remove(&chain_id)
            .ok_or_else(|| GnfError::not_found("chain", chain_id))?;
        // Remove the steering rule first so no packet is steered into a chain
        // that is being torn down.
        self.switch
            .steering_mut()
            .remove_chain(deployed.client_mac, chain_id);
        for handle in deployed.containers {
            self.switch.disconnect_container(handle);
            // Stop might fail if never started; ignore state errors, always remove.
            let _ = self.runtime.stop(handle);
            let _ = self.runtime.remove(handle);
        }
        Ok(())
    }

    /// Time to checkpoint `bytes` of state out of a chain, spread evenly over
    /// its containers.
    fn checkpoint_latency(
        runtime: &mut ContainerRuntime,
        containers: &[u64],
        bytes: usize,
    ) -> GnfResult<SimDuration> {
        let mut latency = SimDuration::ZERO;
        for handle in containers {
            latency += runtime.checkpoint(*handle, bytes / containers.len().max(1))?;
        }
        Ok(latency)
    }

    /// Checkpoints a chain's NF state for migration. Returns the state and the
    /// time the checkpoint took on this station. With `retain` (pre-copy) a
    /// copy stays behind as the baseline a later [`Agent::delta_chain`] diffs
    /// against. The chain keeps serving traffic throughout — nothing is torn
    /// down or paused.
    fn checkpoint_chain(
        &mut self,
        chain_id: ChainId,
        retain: bool,
    ) -> GnfResult<(Vec<NfStateSnapshot>, SimDuration)> {
        let deployed = self
            .chains
            .get_mut(&chain_id)
            .ok_or_else(|| GnfError::not_found("chain", chain_id))?;
        let state = deployed.chain.export_state();
        let state_bytes: usize = state.iter().map(|s| s.approximate_size_bytes()).sum();
        let latency =
            Self::checkpoint_latency(&mut self.runtime, &deployed.containers, state_bytes)?;
        if retain {
            deployed.precopy_baseline = Some(state.clone());
        }
        Ok((state, latency))
    }

    /// Diffs the chain's current state against the baseline retained by
    /// [`Agent::checkpoint_chain`], returning only the dirty delta. The
    /// baseline stays retained, so a retried `DeltaChain` after a lost reply
    /// is idempotent.
    fn delta_chain(&mut self, chain_id: ChainId) -> GnfResult<(Vec<NfStateDelta>, SimDuration)> {
        let deployed = self
            .chains
            .get(&chain_id)
            .ok_or_else(|| GnfError::not_found("chain", chain_id))?;
        let baseline = deployed
            .precopy_baseline
            .as_ref()
            .ok_or_else(|| GnfError::not_found("precopy baseline for chain", chain_id))?;
        let current = deployed.chain.export_state();
        if baseline.len() != current.len() {
            return Err(GnfError::invalid_state(format!(
                "precopy baseline of {} NFs for the {} NFs of chain {chain_id}",
                baseline.len(),
                current.len()
            )));
        }
        let deltas: Vec<NfStateDelta> = baseline
            .iter()
            .zip(&current)
            .map(|(base, cur)| NfStateDelta::diff(base, cur))
            .collect();
        // Checkpointing the delta costs time proportional to the *dirty*
        // bytes, not the full table — that is the whole point of pre-copy.
        let delta_bytes: usize = deltas.iter().map(|d| d.approximate_size_bytes()).sum();
        let latency =
            Self::checkpoint_latency(&mut self.runtime, &deployed.containers, delta_bytes)?;
        Ok((deltas, latency))
    }

    /// Switches a staged chain over: replays the dirty deltas onto the
    /// pre-copied baseline and installs the steering rule. Only after this
    /// does the chain see traffic; the service-affecting window is therefore
    /// the delta replay, whose cost scales with churn rather than table size.
    /// The chain is ready at `now` plus that replay.
    fn activate_chain(
        &mut self,
        chain_id: ChainId,
        deltas: Vec<NfStateDelta>,
        now: SimTime,
    ) -> GnfResult<SimDuration> {
        self.report_hints.nfs = true;
        self.report_hints.traffic = true;
        let deployed = self
            .chains
            .get_mut(&chain_id)
            .ok_or_else(|| GnfError::not_found("chain", chain_id))?;
        if !deployed.staged {
            // A duplicate activation (retry after a lost reply): the chain is
            // already serving. Report already-exists so the Manager's
            // reconciliation counts it as a late success.
            return Err(GnfError::already_exists("chain", chain_id));
        }
        let delta_bytes: usize = deltas.iter().map(|d| d.approximate_size_bytes()).sum();
        deployed.chain.apply_state_deltas(&deltas)?;
        let latency = self.runtime.cost_model().restore_time(delta_bytes);
        deployed.staged = false;
        deployed.ready_at = Some(now + latency);
        let (client, client_mac, selector) =
            (deployed.client, deployed.client_mac, deployed.selector);
        self.switch.steering_mut().install(SteeringRule {
            client,
            client_mac,
            selector,
            chain: chain_id,
        });
        Ok(latency)
    }
}

/// The data plane of one batch: everything of the Agent the batch touches,
/// plus the batch's ingress port and virtual timestamp.
struct Spine<'a> {
    switch: &'a mut SoftwareSwitch,
    chains: &'a mut PathMap<ChainId, DeployedChain>,
    trace: &'a mut TraceSink,
    flight: &'a mut FlightRecorder,
    station: u64,
    in_port: PortId,
    now: SimTime,
}

impl Spine<'_> {
    /// The station's one data-plane pipeline: begin the batch, then for each
    /// packet classify → execute → seal → settle, then emit the
    /// `BatchFlush`.
    ///
    /// A packet is sealed and settled before the next is classified, so an
    /// entry sealed from packet N already serves packet N + 1 of the same
    /// flush (mid-batch sealing), and outcome and flight-record order is
    /// packet order.
    fn run(&mut self, batch: PacketBatch, sink: &mut impl FnMut(PacketOutcome)) {
        let (in_port, now) = (self.in_port, self.now);
        let batch_len = batch.len() as u64;
        let mut cursor = match self.switch.begin_batch(batch.as_slice(), in_port, now) {
            Ok(cursor) => cursor,
            Err(e) => {
                let reason: Cow<'static, str> = e.to_string().into();
                for _ in batch {
                    sink(PacketOutcome::Dropped(reason.clone()));
                }
                return;
            }
        };
        for packet in batch {
            let Classified { decision, megaflow } = self.switch.classify(&mut cursor, &packet);
            // Flight probe: sampling is a seeded hash check; the tuple
            // string is only rendered for sampled flows.
            let probe: Option<(u64, String)> = if self.flight.enabled() {
                packet.five_tuple().and_then(|t| {
                    let flow = t.shard_hash();
                    self.flight.samples(flow).then(|| (flow, t.to_string()))
                })
            } else {
                None
            };
            let stage = match (&decision.steering, &megaflow) {
                (None, _) => "unsteered",
                (_, MegaflowState::Bypass(_)) => "megaflow-bypass",
                (_, MegaflowState::DropBypass { .. }) => "megaflow-drop",
                (_, MegaflowState::Seed(_)) => "slow-path",
                (_, MegaflowState::None) => "exact",
            };
            let verdict = match decision.steering {
                Some((rule, upstream)) => {
                    let direction = if upstream {
                        Direction::Ingress
                    } else {
                        Direction::Egress
                    };
                    let bytes = packet.len() as u64;
                    match (megaflow, self.chains.get_mut(&rule.chain)) {
                        // A wildcard entry certified the chain bypass for
                        // this packet's flow: forward unchanged, replay NF
                        // statistics.
                        (MegaflowState::Bypass(tokens), deployed) => {
                            if let Some(deployed) = deployed {
                                deployed.chain.credit_bypass(direction, &tokens, 1, bytes);
                            }
                            Verdict::Forward(packet)
                        }
                        // A wildcard entry certified the chain *drops* this
                        // packet's flow: retire it before the chain runs,
                        // replaying statistics and the exact reason.
                        (MegaflowState::DropBypass { tokens, reason }, deployed) => {
                            if let Some(deployed) = deployed {
                                deployed
                                    .chain
                                    .credit_bypass_drop(direction, &tokens, 1, bytes);
                            }
                            Verdict::Drop(reason)
                        }
                        // The steering rule names a chain that is not
                        // deployed (mid reconfiguration): the packet goes
                        // on untouched and a seed is discarded.
                        (_, None) => Verdict::Forward(packet),
                        (megaflow, Some(deployed)) => {
                            let ctx = NfContext::for_client(now, deployed.client);
                            let verdict = deployed.chain.process(packet, direction, &ctx);
                            // Seal the slow-path seed into a wildcard entry:
                            // a certified forward or drop bypass when the
                            // chain vouches for this packet's processing,
                            // the switch decision alone otherwise.
                            if let MegaflowState::Seed(seed) = megaflow {
                                let report = seal_report(&deployed.chain, direction, &verdict);
                                let install = self.switch.install_megaflow(seed, report);
                                self.trace_install(install);
                            }
                            verdict
                        }
                    }
                }
                None => Verdict::Forward(packet),
            };
            self.settle(&decision.forwarding, stage, probe, verdict, sink);
        }
        self.trace
            .emit(now, TraceKind::BatchFlush { packets: batch_len });
    }

    /// Emits the trace events one megaflow install implies: the seal, and an
    /// eviction event when the capacity bound displaced entries to make
    /// room.
    #[inline]
    fn trace_install(&mut self, install: MegaflowInstall) {
        if !self.trace.enabled() || !install.installed {
            return;
        }
        let now = self.now;
        self.trace.emit(
            now,
            TraceKind::MegaflowSeal {
                outcome: install.outcome,
                occupancy: install.occupancy,
            },
        );
        if install.evicted > 0 {
            self.trace.emit(
                now,
                TraceKind::MegaflowEvict {
                    evicted: install.evicted,
                    occupancy: install.occupancy,
                },
            );
        }
    }

    /// Settles one packet's verdict into its outcome, handed to `sink`: the
    /// TX counters of wherever it (or its replies) went, and its flight
    /// record when its flow is sampled (`probe`: the flow hash and rendered
    /// five-tuple).
    #[inline]
    fn settle(
        &mut self,
        forwarding: &Forwarding,
        stage: &'static str,
        probe: Option<(u64, String)>,
        verdict: Verdict,
        sink: &mut impl FnMut(PacketOutcome),
    ) {
        let (outcome, label) = match verdict {
            Verdict::Forward(p) => {
                match forwarding {
                    Forwarding::Unicast(port) => self.switch.record_tx(*port, p.len()),
                    Forwarding::Flood(ports) => {
                        for port in ports.iter() {
                            self.switch.record_tx(*port, p.len());
                        }
                    }
                }
                (PacketOutcome::Forwarded(p), "forwarded")
            }
            Verdict::Drop(reason) => (PacketOutcome::Dropped(reason), "dropped"),
            Verdict::Reply(replies) => {
                for reply in &replies {
                    self.switch.record_tx(self.in_port, reply.len());
                }
                (PacketOutcome::Replied(replies), "replied")
            }
        };
        sink(outcome);
        if let Some((flow, tuple)) = probe {
            self.flight.record(
                self.now,
                FlowRecord {
                    station: self.station,
                    flow,
                    tuple,
                    stage,
                    verdict: label,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_nf::testing::sample_specs;
    use gnf_packet::builder;
    use gnf_types::MigrationId;

    fn agent() -> (Agent, AgentToManager) {
        Agent::new(
            AgentConfig {
                agent: AgentId::new(1),
                station: StationId::new(1),
                host_class: HostClass::EdgeServer,
            },
            ImageRepository::with_standard_images(),
        )
    }

    /// Runs `packets`, arriving in `direction`, as one batch and collects
    /// what the sink receives.
    fn collect_outcomes(
        agent: &mut Agent,
        direction: Direction,
        packets: impl Into<PacketBatch>,
        now: SimTime,
    ) -> Vec<PacketOutcome> {
        let mut outcomes = Vec::new();
        agent.process(direction, packets.into(), now, &mut |o| outcomes.push(o));
        outcomes
    }

    /// One client packet: a batch of one, arriving on the access port.
    fn upstream(agent: &mut Agent, packet: Packet, now: SimTime) -> PacketOutcome {
        match <[PacketOutcome; 1]>::try_from(collect_outcomes(
            agent,
            Direction::Ingress,
            packet,
            now,
        )) {
            Ok([outcome]) => outcome,
            Err(outcomes) => panic!("one packet, {} outcomes", outcomes.len()),
        }
    }

    fn client_mac() -> MacAddr {
        MacAddr::derived(1, 0)
    }
    fn client_ip() -> Ipv4Addr {
        Ipv4Addr::new(172, 16, 0, 2)
    }

    fn deploy_msg(chain: u64, specs: Vec<NfSpec>) -> ManagerToAgent {
        ManagerToAgent::DeployChain {
            chain: ChainId::new(chain),
            client: ClientId::new(0),
            client_mac: client_mac(),
            specs,
            selector: TrafficSelector::all(),
            restore_state: None,
            migration: None,
        }
    }

    #[test]
    fn registration_announces_capacity() {
        let (agent, register) = agent();
        match register {
            AgentToManager::Register {
                station, capacity, ..
            } => {
                assert_eq!(station, StationId::new(1));
                assert_eq!(capacity, HostClass::EdgeServer.capacity());
            }
            other => panic!("unexpected register message {other:?}"),
        }
        assert_eq!(agent.running_nfs(), 0);
    }

    #[test]
    fn client_association_notifies_the_manager() {
        let (mut agent, _) = agent();
        let msgs = agent.client_associated(ClientId::new(0), client_mac(), client_ip());
        assert_eq!(msgs.len(), 1);
        assert_eq!(agent.connected_clients(), vec![ClientId::new(0)]);
        let msgs = agent.client_disassociated(ClientId::new(0));
        assert_eq!(msgs.len(), 1);
        assert!(agent.connected_clients().is_empty());
        // Disassociating an unknown client is silent.
        assert!(agent.client_disassociated(ClientId::new(9)).is_empty());
    }

    #[test]
    fn deploy_chain_starts_containers_and_installs_steering() {
        let (mut agent, _) = agent();
        agent.client_associated(ClientId::new(0), client_mac(), client_ip());
        let specs = vec![sample_specs()[0].clone(), sample_specs()[1].clone()];
        let replies = agent.handle_manager_msg(deploy_msg(1, specs), SimTime::from_secs(1));
        match &replies[0] {
            AgentToManager::ChainDeployed {
                chain,
                latency,
                images_cached,
                ..
            } => {
                assert_eq!(*chain, ChainId::new(1));
                assert!(!images_cached, "first deployment pulls images");
                assert!(latency.as_millis() > 0);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        assert_eq!(agent.running_nfs(), 2);
        assert_eq!(agent.switch().steering().len(), 1);
        // Two veth pairs per NF plus access+uplink.
        assert_eq!(agent.switch().ports().len(), 2 + 2 * 2);
        // A second deployment of the same chain id fails.
        let replies = agent.handle_manager_msg(
            deploy_msg(1, vec![sample_specs()[0].clone()]),
            SimTime::from_secs(2),
        );
        assert!(matches!(replies[0], AgentToManager::CommandFailed { .. }));
    }

    #[test]
    fn steered_traffic_is_processed_by_the_chain() {
        let (mut agent, _) = agent();
        agent.client_associated(ClientId::new(0), client_mac(), client_ip());
        // Firewall blocking ssh + HTTP filter blocking ads.example.
        let specs = vec![sample_specs()[0].clone(), sample_specs()[1].clone()];
        agent.handle_manager_msg(deploy_msg(1, specs), SimTime::from_secs(1));

        let now = SimTime::from_secs(2);
        // Allowed web traffic is forwarded.
        let ok = builder::http_get(
            client_mac(),
            MacAddr::derived(0xA0, 1),
            client_ip(),
            Ipv4Addr::new(203, 0, 113, 10),
            40_000,
            "www.gla.ac.uk",
            "/",
        );
        assert!(matches!(
            upstream(&mut agent, ok, now),
            PacketOutcome::Forwarded(_)
        ));
        // SSH is dropped by the firewall.
        let ssh = builder::tcp_syn(
            client_mac(),
            MacAddr::derived(0xA0, 1),
            client_ip(),
            Ipv4Addr::new(203, 0, 113, 10),
            40_001,
            22,
        );
        assert!(matches!(
            upstream(&mut agent, ssh, now),
            PacketOutcome::Dropped(_)
        ));
        // A blocked URL gets a 403 reply.
        let blocked = builder::http_get(
            client_mac(),
            MacAddr::derived(0xA0, 1),
            client_ip(),
            Ipv4Addr::new(203, 0, 113, 11),
            40_002,
            "ads.example",
            "/banner",
        );
        match upstream(&mut agent, blocked, now) {
            PacketOutcome::Replied(replies) => assert_eq!(replies.len(), 1),
            other => panic!("expected a reply, got {other:?}"),
        }
        // The blocked request produced a notification for the Manager.
        let notifications = agent.drain_nf_notifications(now);
        assert_eq!(notifications.len(), 1);
        assert!(matches!(
            notifications[0],
            AgentToManager::NfNotification { .. }
        ));
    }

    /// The chain table is a `PathMap` whose iteration order differs from
    /// one Agent to the next (each map is salted in debug builds, where
    /// this test runs); what reaches the Manager
    /// must not. With two chains the unsorted drain is in id order by
    /// chance half the time, so 32 fresh Agents all agreeing by chance has
    /// probability 2^-32.
    #[test]
    fn notifications_drain_in_chain_id_order_on_every_agent() {
        let server = MacAddr::derived(0xA0, 1);
        let dst = Ipv4Addr::new(203, 0, 113, 11);
        let now = SimTime::from_secs(2);
        for _ in 0..32 {
            let (mut agent, _) = agent();
            // Two clients, each behind its own HTTP filter; the chain ids
            // are spread so neither insertion nor numeric order is the
            // hash order.
            let mut batch = Vec::new();
            for (client, chain) in [(0u32, 9u64), (1, 4)] {
                let mac = MacAddr::derived(1, client);
                let ip = Ipv4Addr::new(172, 16, 0, 2 + client as u8);
                agent.client_associated(ClientId::new(client as u64), mac, ip);
                agent.handle_manager_msg(
                    ManagerToAgent::DeployChain {
                        chain: ChainId::new(chain),
                        client: ClientId::new(client as u64),
                        client_mac: mac,
                        specs: vec![sample_specs()[1].clone()],
                        selector: TrafficSelector::all(),
                        restore_state: None,
                        migration: None,
                    },
                    SimTime::from_secs(1),
                );
                // Two blocked requests per chain: per-chain event order
                // must survive the sort.
                for path in ["/first", "/second"] {
                    batch.push(builder::http_get(
                        mac,
                        server,
                        ip,
                        dst,
                        40_000 + client as u16,
                        "ads.example",
                        path,
                    ));
                }
            }
            collect_outcomes(&mut agent, Direction::Ingress, batch, now);
            let drained: Vec<(u64, bool)> = agent
                .drain_nf_notifications(now)
                .into_iter()
                .map(|message| match message {
                    AgentToManager::NfNotification { chain, event, .. } => {
                        (chain.raw(), event.message.contains("/first"))
                    }
                    other => panic!("expected a notification, got {other:?}"),
                })
                .collect();
            assert_eq!(
                drained,
                [(4, true), (4, false), (9, true), (9, false)],
                "ChainId order, each chain's events in the order it raised them"
            );
        }
    }

    #[test]
    fn batched_processing_matches_per_packet_processing() {
        let make_agent = || {
            let (mut agent, _) = agent();
            agent.client_associated(ClientId::new(0), client_mac(), client_ip());
            let specs = vec![sample_specs()[0].clone(), sample_specs()[1].clone()];
            agent.handle_manager_msg(deploy_msg(1, specs), SimTime::from_secs(1));
            agent
        };
        let now = SimTime::from_secs(2);
        let server = MacAddr::derived(0xA0, 1);
        let dst = Ipv4Addr::new(203, 0, 113, 10);
        let packets = vec![
            builder::http_get(
                client_mac(),
                server,
                client_ip(),
                dst,
                40_000,
                "ok.example",
                "/",
            ),
            builder::http_get(
                client_mac(),
                server,
                client_ip(),
                dst,
                40_000,
                "ok.example",
                "/a",
            ),
            builder::tcp_syn(client_mac(), server, client_ip(), dst, 40_001, 22), // fw drop
            builder::http_get(
                client_mac(),
                server,
                client_ip(),
                Ipv4Addr::new(203, 0, 113, 11),
                40_002,
                "ads.example",
                "/x",
            ), // 403 reply
            builder::http_get(
                client_mac(),
                server,
                client_ip(),
                dst,
                40_000,
                "ok.example",
                "/b",
            ),
        ];

        let mut per_packet = make_agent();
        let expected: Vec<PacketOutcome> = packets
            .iter()
            .map(|p| upstream(&mut per_packet, p.clone(), now))
            .collect();

        let mut batched = make_agent();
        let outcomes = collect_outcomes(&mut batched, Direction::Ingress, packets, now);
        assert_eq!(outcomes, expected, "outcomes aligned with the batch");

        // Switch counters, flow-cache statistics and NF statistics agree.
        assert_eq!(
            batched.flow_cache_telemetry(),
            per_packet.flow_cache_telemetry()
        );
        for (a, b) in batched.chains().zip(per_packet.chains()) {
            assert_eq!(a.chain.stats(), b.chain.stats());
            assert_eq!(a.chain.per_nf_stats(), b.chain.per_nf_stats());
        }
        for (a, b) in batched
            .switch()
            .ports()
            .iter()
            .zip(per_packet.switch().ports())
        {
            assert_eq!(a.counters, b.counters, "port {} counters", a.name);
        }
        // Both agents saw 5 packets of data-plane work; the batched one in
        // one batch, the per-packet one in five singleton batches.
        assert_eq!(batched.batch_telemetry().packets, 5);
        assert_eq!(batched.batch_telemetry().batches, 1);
        assert_eq!(batched.batch_telemetry().max_batch, 5);
        assert_eq!(per_packet.batch_telemetry().batches, 5);
        // And both produce the same notifications for the Manager.
        assert_eq!(
            batched.drain_nf_notifications(now).len(),
            per_packet.drain_nf_notifications(now).len()
        );
    }

    #[test]
    fn megaflow_bypass_is_equivalent_to_full_processing() {
        use gnf_nf::firewall::{CidrV4, FirewallConfig, FirewallRule, RuleAction};
        use gnf_nf::{NfConfig, NfSpec};

        // A conntrack-off firewall (pure, bypassable) whose rules never
        // match the generated traffic: CIDR + port-range rules only.
        let untracked_fw_spec = || {
            NfSpec::new(
                "fw",
                NfConfig::Firewall(FirewallConfig {
                    rules: vec![
                        FirewallRule::block_dst(
                            "cidr",
                            CidrV4::new(Ipv4Addr::new(192, 168, 0, 0), 16),
                        ),
                        FirewallRule {
                            protocol: gnf_nf::firewall::ProtocolMatch::Tcp,
                            dst_port: gnf_nf::firewall::PortMatch::Range(1, 1023),
                            action: RuleAction::Drop,
                            ..FirewallRule::any("low-ports", RuleAction::Drop)
                        },
                    ],
                    default_action: RuleAction::Accept,
                    track_connections: false,
                    conntrack_idle_timeout_secs: 60,
                }),
            )
        };
        let make_agent = |megaflow: bool| {
            let (mut agent, _) = agent();
            agent.set_megaflow_enabled(megaflow);
            agent.client_associated(ClientId::new(0), client_mac(), client_ip());
            agent.handle_manager_msg(
                deploy_msg(1, vec![untracked_fw_spec()]),
                SimTime::from_secs(1),
            );
            agent
        };
        // New-flow churn: every packet opens a brand-new flow, plus one
        // blocked flow (privileged port) mixed in — then a 40-packet scan of
        // the denied port (fresh source port each), the workload wildcard
        // drop entries exist for.
        let server = MacAddr::derived(0xA0, 1);
        let dst = Ipv4Addr::new(203, 0, 113, 10);
        let packets: Vec<gnf_packet::Packet> = (0..90u16)
            .map(|i| {
                let dst_port = if i % 10 == 9 || i >= 50 { 22 } else { 8080 };
                builder::tcp_syn(client_mac(), server, client_ip(), dst, 40_000 + i, dst_port)
            })
            .collect();
        let now = SimTime::from_secs(2);

        let mut off = make_agent(false);
        let expected: Vec<PacketOutcome> = packets
            .iter()
            .map(|p| upstream(&mut off, p.clone(), now))
            .collect();

        let mut on = make_agent(true);
        let outcomes: Vec<PacketOutcome> = packets
            .iter()
            .map(|p| upstream(&mut on, p.clone(), now))
            .collect();

        assert_eq!(outcomes, expected, "outcomes identical with megaflow on");
        assert!(outcomes[50..]
            .iter()
            .all(|o| matches!(o, PacketOutcome::Dropped(_))));
        for (a, b) in on.chains().zip(off.chains()) {
            assert_eq!(
                a.chain.stats(),
                b.chain.stats(),
                "chain stats replayed exactly"
            );
            assert_eq!(a.chain.per_nf_stats(), b.chain.per_nf_stats());
            assert_eq!(a.chain.export_state(), b.chain.export_state());
        }
        for (a, b) in on.switch().ports().iter().zip(off.switch().ports()) {
            assert_eq!(a.counters, b.counters, "port {} counters", a.name);
        }
        // The wildcard layer actually served the churn: the accepted high
        // ports ride a forward-bypass entry and the dropped privileged
        // port rides a certified *drop* entry.
        let stats = on.megaflow_telemetry();
        assert!(
            stats.stats.hits > 40,
            "churn rides the wildcard entries: {stats:?}"
        );
        assert_eq!(stats.stats.drop_installs, 1, "one dropped pattern");
        assert_eq!(
            stats.stats.drop_hits, 44,
            "every denied packet after the first — four in the churn, the \
             whole scan — is retired at the switch: {stats:?}"
        );
        assert_eq!(off.megaflow_telemetry(), Default::default());

        // And the batched path produces the same outcomes, NF stats — and,
        // thanks to mid-batch sealing, the same cache telemetry — as the
        // per-packet megaflow path.
        let mut on_batched = make_agent(true);
        let batched = collect_outcomes(&mut on_batched, Direction::Ingress, packets, now);
        assert_eq!(batched, expected);
        for (a, b) in on_batched.chains().zip(on.chains()) {
            assert_eq!(a.chain.stats(), b.chain.stats());
            assert_eq!(a.chain.per_nf_stats(), b.chain.per_nf_stats());
        }
        assert_eq!(
            on_batched.megaflow_telemetry(),
            on.megaflow_telemetry(),
            "mid-batch sealing makes batched cache telemetry match per-packet"
        );
        assert_eq!(on_batched.flow_cache_telemetry(), on.flow_cache_telemetry());
    }

    /// One mixed batch that visits every pipeline stage, driven through the
    /// two ways a caller can reach the pipeline: N per-packet calls and one
    /// batch. Both must agree on outcomes, port counters, NF stats/state and
    /// flight records; the batch emits one `BatchFlush` at its end.
    #[test]
    fn every_stage_settles_identically_per_packet_and_batched() {
        use gnf_nf::firewall::{
            FirewallConfig, FirewallRule, PortMatch, ProtocolMatch, RuleAction,
        };
        use gnf_nf::NfConfig;
        use gnf_telemetry::TraceScope;

        let server = MacAddr::derived(0xA0, 1);
        let dst = Ipv4Addr::new(203, 0, 113, 10);
        // Client 0 rides a pure (conntrack-off) firewall whose verdicts seal
        // into certified bypass entries, client 1 an opaque firewall + HTTP
        // filter chain (the reply), client 2 has a steering rule but no
        // chain; the stranger has neither.
        let macs: Vec<MacAddr> = (0..3).map(|c| MacAddr::derived(1, c)).collect();
        let ips: Vec<Ipv4Addr> = (0..3).map(|c| Ipv4Addr::new(172, 16, 0, 2 + c)).collect();
        let pure_fw = NfSpec::new(
            "fw",
            NfConfig::Firewall(FirewallConfig {
                rules: vec![FirewallRule {
                    protocol: ProtocolMatch::Tcp,
                    dst_port: PortMatch::Range(1, 1023),
                    action: RuleAction::Drop,
                    ..FirewallRule::any("privileged", RuleAction::Drop)
                }],
                default_action: RuleAction::Accept,
                track_connections: false,
                conntrack_idle_timeout_secs: 60,
            }),
        );
        let opaque = vec![sample_specs()[0].clone(), sample_specs()[1].clone()];
        let make_agent = || {
            let (mut agent, _) = agent();
            agent.set_megaflow_enabled(true);
            let scope = TraceScope::Station(1);
            agent.set_tracing(
                TraceSink::buffered(scope, 256),
                FlightRecorder::armed(scope, 7, 1, 256),
            );
            for (client, specs) in [vec![pure_fw.clone()], opaque.clone()]
                .into_iter()
                .enumerate()
            {
                agent.client_associated(ClientId::new(client as u64), macs[client], ips[client]);
                agent.handle_manager_msg(
                    ManagerToAgent::DeployChain {
                        chain: ChainId::new(client as u64 + 1),
                        client: ClientId::new(client as u64),
                        client_mac: macs[client],
                        specs,
                        selector: TrafficSelector::all(),
                        restore_state: None,
                        migration: None,
                    },
                    SimTime::from_secs(1),
                );
            }
            agent.switch.steering_mut().install(SteeringRule {
                client: ClientId::new(2),
                client_mac: macs[2],
                selector: TrafficSelector::all(),
                chain: ChainId::new(9),
            });
            agent
        };
        let syn = |client: usize, sport: u16, dport: u16| {
            builder::tcp_syn(macs[client], server, ips[client], dst, sport, dport)
        };
        let get = |sport: u16, host: &str| {
            builder::http_get(macs[1], server, ips[1], dst, sport, host, "/")
        };
        // (packet, the stage it is classified into, its verdict).
        let table: Vec<(Packet, &str, &str)> = vec![
            (
                builder::tcp_syn(
                    MacAddr::derived(7, 7),
                    server,
                    Ipv4Addr::new(10, 9, 9, 9),
                    dst,
                    5_000,
                    80,
                ),
                "unsteered",
                "forwarded",
            ),
            // A new pattern walks the chain and seals a forward bypass...
            (syn(0, 40_000, 8080), "slow-path", "forwarded"),
            // ...which the next new flow of the pattern rides,
            (syn(0, 40_001, 8080), "megaflow-bypass", "forwarded"),
            // while the first flow itself stays on the exact cache (two
            // back-to-back packets: still one record each on every leg).
            (syn(0, 40_000, 8080), "exact", "forwarded"),
            (syn(0, 40_000, 8080), "exact", "forwarded"),
            // A denied pattern seals a certified drop, then retires on it.
            (syn(0, 40_010, 22), "slow-path", "dropped"),
            (syn(0, 40_011, 22), "megaflow-drop", "dropped"),
            // Steering rule without a chain: forwarded unprocessed, the
            // seed is discarded.
            (syn(2, 40_020, 8080), "slow-path", "forwarded"),
            // The opaque chain answers a blocked URL itself; its pattern
            // seals decision-only, so the next request still walks it.
            (get(40_030, "ads.example"), "slow-path", "replied"),
            (get(40_031, "ok.example"), "exact", "forwarded"),
        ];
        let packets: Vec<Packet> = table.iter().map(|(p, _, _)| p.clone()).collect();
        let now = SimTime::from_secs(2);

        let mut per_packet = make_agent();
        let expected: Vec<PacketOutcome> = packets
            .iter()
            .map(|p| upstream(&mut per_packet, p.clone(), now))
            .collect();
        // One flight record per packet: the records *are* the table's
        // stage and verdict columns.
        let records = per_packet.flight_mut().take_events();
        let staged: Vec<(&str, &str)> = records
            .iter()
            .map(|e| match &e.kind {
                TraceKind::Flow(r) => (r.stage, r.verdict),
                other => panic!("flight recorder holds only flow records, got {other:?}"),
            })
            .collect();
        let columns: Vec<(&str, &str)> = table.iter().map(|(_, s, v)| (*s, *v)).collect();
        assert_eq!(staged, columns);
        assert!(matches!(expected[8], PacketOutcome::Replied(_)));
        let notifications = per_packet.drain_nf_notifications(now).len();
        assert_eq!(notifications, 1, "the blocked URL raised an alert");

        let mut batched = make_agent();
        let outcomes = collect_outcomes(&mut batched, Direction::Ingress, packets.clone(), now);
        assert_eq!(outcomes, expected);
        for id in [1, 2] {
            let (a, b) = (
                &batched.chain(ChainId::new(id)).expect("deployed").chain,
                &per_packet.chain(ChainId::new(id)).expect("deployed").chain,
            );
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.per_nf_stats(), b.per_nf_stats());
            assert_eq!(a.export_state(), b.export_state());
        }
        for (a, b) in batched
            .switch()
            .ports()
            .iter()
            .zip(per_packet.switch().ports())
        {
            assert_eq!(a.counters, b.counters, "port {} counters", a.name);
        }
        assert_eq!(
            batched.megaflow_telemetry(),
            per_packet.megaflow_telemetry()
        );
        assert_eq!(
            batched.flow_cache_telemetry(),
            per_packet.flow_cache_telemetry()
        );
        assert_eq!(batched.drain_nf_notifications(now).len(), notifications);
        assert_eq!(batched.flight_mut().take_events(), records);
        let events = batched.trace_mut().take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::MegaflowSeal { .. })));
        assert!(matches!(
            events.last().map(|e| &e.kind),
            Some(TraceKind::BatchFlush { packets: 10 })
        ));
    }

    /// The case run grouping used to cover: a burst of one brand-new flow in
    /// one batch. The first packet walks the certifying chain and seals its
    /// wildcard entry at once; every clone behind it is an exact-cache hit,
    /// and nothing differs from feeding the packets one call at a time.
    #[test]
    fn a_same_flow_burst_seals_after_its_first_packet() {
        use gnf_nf::firewall::{FirewallConfig, RuleAction};
        use gnf_nf::NfConfig;
        use gnf_telemetry::TraceScope;

        const BURST: usize = 6;
        let make_agent = || {
            let (mut agent, _) = agent();
            agent.set_megaflow_enabled(true);
            let scope = TraceScope::Station(1);
            agent.set_tracing(
                TraceSink::buffered(scope, 64),
                FlightRecorder::armed(scope, 7, 1, 64),
            );
            agent.client_associated(ClientId::new(0), client_mac(), client_ip());
            let pure_fw = NfSpec::new(
                "fw",
                NfConfig::Firewall(FirewallConfig {
                    rules: Vec::new(),
                    default_action: RuleAction::Accept,
                    track_connections: false,
                    conntrack_idle_timeout_secs: 60,
                }),
            );
            agent.handle_manager_msg(deploy_msg(1, vec![pure_fw]), SimTime::from_secs(1));
            agent
        };
        let burst = vec![
            builder::tcp_syn(
                client_mac(),
                MacAddr::derived(0xA0, 1),
                client_ip(),
                Ipv4Addr::new(203, 0, 113, 10),
                40_000,
                8080,
            );
            BURST
        ];
        let now = SimTime::from_secs(2);

        let mut batched = make_agent();
        let outcomes = collect_outcomes(&mut batched, Direction::Ingress, burst.clone(), now);
        let stages: Vec<&str> = batched
            .flight_mut()
            .take_events()
            .into_iter()
            .map(|e| match e.kind {
                TraceKind::Flow(r) => r.stage,
                other => panic!("flight recorder holds only flow records, got {other:?}"),
            })
            .collect();
        let mut expected_stages = vec!["exact"; BURST];
        expected_stages[0] = "slow-path";
        assert_eq!(stages, expected_stages);
        let events: Vec<TraceKind> = batched
            .trace_mut()
            .take_events()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        assert_eq!(
            events,
            [
                TraceKind::MegaflowSeal {
                    outcome: "forward",
                    occupancy: 1
                },
                TraceKind::BatchFlush {
                    packets: BURST as u64
                },
            ]
        );
        let flow = batched.flow_cache_telemetry().stats;
        assert_eq!((flow.misses, flow.hits), (1, BURST as u64 - 1));
        assert_eq!(batched.megaflow_telemetry().stats.installs, 1);

        let mut per_packet = make_agent();
        let expected: Vec<PacketOutcome> = burst
            .into_iter()
            .map(|p| upstream(&mut per_packet, p, now))
            .collect();
        assert_eq!(outcomes, expected);
        assert!(outcomes
            .iter()
            .all(|o| matches!(o, PacketOutcome::Forwarded(_))));
        let (a, b) = (
            &batched.chain(ChainId::new(1)).expect("deployed").chain,
            &per_packet.chain(ChainId::new(1)).expect("deployed").chain,
        );
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.per_nf_stats(), b.per_nf_stats());
        for (a, b) in batched
            .switch()
            .ports()
            .iter()
            .zip(per_packet.switch().ports())
        {
            assert_eq!(a.counters, b.counters, "port {} counters", a.name);
        }
        assert_eq!(
            batched.flow_cache_telemetry(),
            per_packet.flow_cache_telemetry()
        );
        assert_eq!(
            batched.megaflow_telemetry(),
            per_packet.megaflow_telemetry()
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (mut agent, _) = agent();
        for direction in [Direction::Ingress, Direction::Egress] {
            agent.process(
                direction,
                PacketBatch::new(),
                SimTime::from_secs(1),
                &mut |outcome| panic!("an empty batch sinks nothing, got {outcome:?}"),
            );
        }
        assert_eq!(agent.batch_telemetry().batches, 0);
    }

    #[test]
    fn unsteered_traffic_passes_straight_through() {
        let (mut agent, _) = agent();
        let now = SimTime::from_secs(1);
        let pkt = builder::tcp_syn(
            MacAddr::derived(9, 9),
            MacAddr::derived(0xA0, 1),
            Ipv4Addr::new(172, 16, 0, 99),
            Ipv4Addr::new(203, 0, 113, 10),
            40_000,
            443,
        );
        assert!(matches!(
            upstream(&mut agent, pkt, now),
            PacketOutcome::Forwarded(_)
        ));
    }

    /// The Egress leg: a server's reply enters on the uplink, walks the
    /// firewall → NAT chain in reverse and leaves on the access port with
    /// the client's private endpoint restored.
    #[test]
    fn a_reply_on_the_uplink_is_translated_back_to_the_client() {
        let (mut agent, _) = agent();
        agent.client_associated(ClientId::new(0), client_mac(), client_ip());
        let specs = vec![sample_specs()[0].clone(), sample_specs()[4].clone()];
        agent.handle_manager_msg(deploy_msg(1, specs), SimTime::from_secs(1));
        let public_ip = Ipv4Addr::new(198, 51, 100, 1);
        let (server_mac, server_ip) = (MacAddr::derived(0xA0, 1), Ipv4Addr::new(203, 0, 113, 10));
        let now = SimTime::from_secs(2);

        let get = builder::http_get(
            client_mac(),
            server_mac,
            client_ip(),
            server_ip,
            40_000,
            "www.gla.ac.uk",
            "/",
        );
        let PacketOutcome::Forwarded(sent) = upstream(&mut agent, get, now) else {
            panic!("the GET is forwarded");
        };
        let sent = sent.five_tuple().expect("a TCP frame");
        assert_eq!(sent.src_ip, public_ip, "masqueraded");

        let (access, uplink) = (agent.switch().client_port(), agent.switch().uplink_port());
        let counters = |agent: &Agent, port| agent.switch().port(port).expect("a port").counters;
        let (access_before, uplink_before) = (counters(&agent, access), counters(&agent, uplink));
        let reply = |public_port| {
            builder::tcp_data(
                server_mac,
                client_mac(),
                server_ip,
                public_ip,
                sent.dst_port,
                public_port,
                b"HTTP/1.1 200 OK\r\n\r\n",
            )
        };
        let answer = reply(sent.src_port);
        let answer_len = answer.len() as u64;
        let outcomes = collect_outcomes(&mut agent, Direction::Egress, answer, now);
        let [PacketOutcome::Forwarded(received)] = &outcomes[..] else {
            panic!("the reply is forwarded, got {outcomes:?}");
        };
        let received = received.five_tuple().expect("a TCP frame");
        assert_eq!(
            (received.src_ip, received.src_port),
            (server_ip, sent.dst_port)
        );
        assert_eq!((received.dst_ip, received.dst_port), (client_ip(), 40_000));
        let (access_after, uplink_after) = (counters(&agent, access), counters(&agent, uplink));
        assert_eq!(
            (
                uplink_after.rx_packets - uplink_before.rx_packets,
                uplink_after.rx_bytes - uplink_before.rx_bytes
            ),
            (1, answer_len),
            "received on the uplink"
        );
        assert_eq!(
            access_after.tx_packets - access_before.tx_packets,
            1,
            "sent out of the access port"
        );

        // No translation was made for this public port.
        let outcomes =
            collect_outcomes(&mut agent, Direction::Egress, reply(sent.src_port + 1), now);
        assert!(
            matches!(outcomes[..], [PacketOutcome::Dropped(_)]),
            "{outcomes:?}"
        );
    }

    /// A removed veth's port id is never handed out again: the chain
    /// deployed after a removal gets fresh ids, not a live chain's.
    #[test]
    fn switch_port_ids_stay_unique_across_chain_churn() {
        use gnf_switch::PortKind;

        let (mut agent, _) = agent();
        let firewall = || vec![sample_specs()[0].clone()];
        agent.handle_manager_msg(deploy_msg(1, firewall()), SimTime::from_secs(1));
        agent.handle_manager_msg(deploy_msg(2, firewall()), SimTime::from_secs(1));
        agent.handle_manager_msg(
            ManagerToAgent::RemoveChain {
                chain: ChainId::new(1),
                client: ClientId::new(0),
                migration: None,
            },
            SimTime::from_secs(2),
        );
        agent.handle_manager_msg(deploy_msg(3, firewall()), SimTime::from_secs(3));

        let ports = agent.switch().ports();
        let mut ids: Vec<PortId> = ports.iter().map(|p| p.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), ports.len(), "unique ids: {ports:?}");
        let container = agent.chain(ChainId::new(3)).expect("deployed").containers[0];
        let veths: Vec<_> = ports
            .iter()
            .filter(|p| {
                matches!(p.kind, PortKind::VethIngress { container: c }
                    | PortKind::VethEgress { container: c } if c == container)
            })
            .collect();
        assert_eq!(veths.len(), 2);
        for veth in veths {
            assert_eq!(agent.switch().port(veth.id).ok(), Some(veth));
        }
    }

    #[test]
    fn remove_chain_releases_everything() {
        let (mut agent, _) = agent();
        agent.client_associated(ClientId::new(0), client_mac(), client_ip());
        agent.handle_manager_msg(
            deploy_msg(1, vec![sample_specs()[0].clone()]),
            SimTime::from_secs(1),
        );
        assert_eq!(agent.running_nfs(), 1);
        let replies = agent.handle_manager_msg(
            ManagerToAgent::RemoveChain {
                chain: ChainId::new(1),
                client: ClientId::new(0),
                migration: None,
            },
            SimTime::from_secs(2),
        );
        assert!(matches!(replies[0], AgentToManager::ChainRemoved { .. }));
        assert_eq!(agent.running_nfs(), 0);
        assert_eq!(agent.switch().steering().len(), 0);
        assert_eq!(agent.switch().ports().len(), 2);
        // Removing again fails.
        let replies = agent.handle_manager_msg(
            ManagerToAgent::RemoveChain {
                chain: ChainId::new(1),
                client: ClientId::new(0),
                migration: None,
            },
            SimTime::from_secs(3),
        );
        assert!(matches!(replies[0], AgentToManager::CommandFailed { .. }));
    }

    #[test]
    fn crash_loses_all_soft_state_and_bumps_the_generation() {
        let (mut agent, _) = agent();
        agent.client_associated(ClientId::new(0), client_mac(), client_ip());
        agent.handle_manager_msg(
            deploy_msg(1, vec![sample_specs()[0].clone()]),
            SimTime::from_secs(1),
        );
        // Warm the data plane: a forwarded flow populates the flow cache and
        // the MAC table.
        let now = SimTime::from_secs(2);
        let flow = || {
            builder::tcp_syn(
                client_mac(),
                MacAddr::derived(0xA0, 1),
                client_ip(),
                Ipv4Addr::new(203, 0, 113, 10),
                41_000,
                443,
            )
        };
        upstream(&mut agent, flow(), now);
        upstream(&mut agent, flow(), now);
        assert!(agent.switch().flow_cache_len() > 0);
        assert!(agent.switch().mac_table_len() > 0);
        assert_eq!(agent.generation(), 0);

        agent.crash();
        assert_eq!(agent.generation(), 1);
        assert_eq!(agent.chaos_telemetry().crashes, 1);
        assert_eq!(agent.running_nfs(), 0);
        assert!(agent.connected_clients().is_empty());
        assert_eq!(agent.switch().flow_cache_len(), 0);
        assert_eq!(agent.switch().megaflow_len(), 0);
        assert_eq!(agent.switch().mac_table_len(), 0);
        assert_eq!(agent.switch().steering().len(), 0);

        // The reborn Agent re-registers exactly like a fresh one.
        let rejoin = agent.rejoin();
        assert!(matches!(rejoin, AgentToManager::Register { .. }));

        // Churn storms and invalidation floods are counted.
        agent.chaos_steering_churn(5);
        agent.chaos_invalidate_caches(3);
        let chaos = agent.chaos_telemetry();
        assert_eq!(chaos.steering_churn_rules, 5);
        assert_eq!(chaos.cache_invalidations, 3);
        assert_eq!(agent.switch().steering().len(), 0, "churn rules removed");
    }

    #[test]
    fn checkpoint_then_restore_preserves_nf_state() {
        // Source agent: deploy a firewall chain and let it track a connection.
        let (mut source, _) = agent();
        source.client_associated(ClientId::new(0), client_mac(), client_ip());
        source.handle_manager_msg(
            deploy_msg(1, vec![sample_specs()[0].clone()]),
            SimTime::from_secs(1),
        );
        let now = SimTime::from_secs(2);
        let flow = builder::tcp_syn(
            client_mac(),
            MacAddr::derived(0xA0, 1),
            client_ip(),
            Ipv4Addr::new(203, 0, 113, 10),
            41_000,
            443,
        );
        upstream(&mut source, flow, now);

        let replies = source.handle_manager_msg(
            ManagerToAgent::CheckpointChain {
                chain: ChainId::new(1),
                client: ClientId::new(0),
                migration: MigrationId::new(1),
                retain_baseline: false,
            },
            SimTime::from_secs(3),
        );
        let AgentToManager::ChainState {
            state,
            checkpoint_latency,
            ..
        } = &replies[0]
        else {
            panic!("expected chain state, got {:?}", replies[0]);
        };
        assert!(checkpoint_latency.as_millis() > 0);
        assert!(
            state.iter().any(|s| !s.is_empty()),
            "conntrack state present"
        );

        // Target agent: deploy the same chain with the migrated state.
        let (mut target, _) = agent();
        target.client_associated(ClientId::new(0), client_mac(), client_ip());
        let replies = target.handle_manager_msg(
            ManagerToAgent::DeployChain {
                chain: ChainId::new(1),
                client: ClientId::new(0),
                client_mac: client_mac(),
                specs: vec![sample_specs()[0].clone()],
                selector: TrafficSelector::all(),
                restore_state: Some(state.clone()),
                migration: Some(MigrationId::new(1)),
            },
            SimTime::from_secs(4),
        );
        assert!(matches!(replies[0], AgentToManager::ChainDeployed { .. }));
        let restored = target.chain(ChainId::new(1)).unwrap().chain.export_state();
        assert!(restored.iter().any(|s| !s.is_empty()));
    }

    #[test]
    fn staged_deploy_plus_empty_activation_equals_a_serving_restore() {
        let (chain, client) = (ChainId::new(1), ClientId::new(0));
        let migration = MigrationId::new(1);
        let flow = |sport| {
            builder::tcp_syn(
                client_mac(),
                MacAddr::derived(0xA0, 1),
                client_ip(),
                Ipv4Addr::new(203, 0, 113, 10),
                sport,
                443,
            )
        };
        // Source: the full sample chain, with state accumulated by traffic.
        let (mut source, _) = agent();
        source.client_associated(client, client_mac(), client_ip());
        source.handle_manager_msg(deploy_msg(1, sample_specs()), SimTime::from_secs(1));
        for sport in 41_000..41_020 {
            upstream(&mut source, flow(sport), SimTime::from_secs(2));
        }
        let state = source.chain(chain).unwrap().chain.export_state();
        assert!(state.iter().any(|s| !s.is_empty()));

        // Monolithic target: one serving deploy that restores the state.
        let (mut serving, _) = agent();
        serving.client_associated(client, client_mac(), client_ip());
        let replies = serving.handle_manager_msg(
            ManagerToAgent::DeployChain {
                chain,
                client,
                client_mac: client_mac(),
                specs: sample_specs(),
                selector: TrafficSelector::all(),
                restore_state: Some(state.clone()),
                migration: Some(migration),
            },
            SimTime::from_secs(3),
        );
        let AgentToManager::ChainDeployed {
            latency: serving_latency,
            images_cached: serving_cached,
            ..
        } = replies[0]
        else {
            panic!("expected a deploy confirmation, got {:?}", replies[0]);
        };
        let ready_at = serving.chain(chain).unwrap().ready_at;
        assert_eq!(ready_at, Some(SimTime::from_secs(3) + serving_latency));

        // Pre-copy target: the same instantiation staged, then activated
        // with nothing dirty.
        let (mut staged, _) = agent();
        staged.client_associated(client, client_mac(), client_ip());
        let replies = staged.handle_manager_msg(
            ManagerToAgent::PrepareChain {
                chain,
                client,
                client_mac: client_mac(),
                specs: sample_specs(),
                selector: TrafficSelector::all(),
                precopy_state: state.clone(),
                migration,
            },
            SimTime::from_secs(3),
        );
        let AgentToManager::ChainPrepared {
            latency: staged_latency,
            images_cached: staged_cached,
            ..
        } = replies[0]
        else {
            panic!("expected a staging confirmation, got {:?}", replies[0]);
        };
        assert_eq!(
            (staged_latency, staged_cached),
            (serving_latency, serving_cached)
        );
        assert!(staged.chain(chain).unwrap().staged);
        assert_eq!(
            staged.chain(chain).unwrap().ready_at,
            None,
            "staged: not ready"
        );
        assert!(staged.switch().steering().is_empty(), "staged: no steering");
        let replies = staged.handle_manager_msg(
            ManagerToAgent::ActivateChain {
                chain,
                client,
                migration,
                deltas: Vec::new(),
            },
            SimTime::from_secs(4),
        );
        let AgentToManager::ChainDeployed { latency, .. } = replies[0] else {
            panic!("expected an activation confirmation, got {:?}", replies[0]);
        };
        let ready_at = staged.chain(chain).unwrap().ready_at;
        assert_eq!(ready_at, Some(SimTime::from_secs(4) + latency));

        for agent in [&serving, &staged] {
            let deployed = agent.chain(chain).unwrap();
            assert!(!deployed.staged);
            assert_eq!(deployed.chain.export_state(), state);
            assert_eq!(deployed.containers.len(), sample_specs().len());
        }
        assert_eq!(
            staged.switch().steering().rules_for(client_mac()),
            serving.switch().steering().rules_for(client_mac())
        );
        // Both now serve the client identically.
        let now = SimTime::from_secs(5);
        assert_eq!(
            upstream(&mut staged, flow(41_000), now),
            upstream(&mut serving, flow(41_000), now)
        );
        assert_eq!(
            staged.chain(chain).unwrap().chain.export_state(),
            serving.chain(chain).unwrap().chain.export_state()
        );
    }

    #[test]
    fn reports_reflect_running_nfs_and_clients() {
        let (mut agent, _) = agent();
        agent.client_associated(ClientId::new(0), client_mac(), client_ip());
        agent.handle_manager_msg(
            deploy_msg(
                1,
                vec![sample_specs()[0].clone(), sample_specs()[2].clone()],
            ),
            SimTime::from_secs(1),
        );
        let report = agent.make_report(SimTime::from_secs(10));
        let AgentToManager::Report(report) = report else {
            panic!("expected a report");
        };
        assert_eq!(report.station, StationId::new(1));
        assert_eq!(report.running_nfs, 2);
        assert_eq!(report.connected_clients, vec![ClientId::new(0)]);
        assert!(report.usage.memory_mb > 0);
        assert_eq!(report.cached_images, 2);
    }

    /// A report's `cached_images` is the runtime's cache size. It equals
    /// the walk over the catalogue it replaced after a deploy, a removal
    /// (the images stay cached) and a crash (so does the cache).
    #[test]
    fn cached_images_equal_a_walk_over_the_catalogue() {
        let (mut agent, _) = agent();
        let walk = |agent: &Agent| {
            agent
                .repository
                .images()
                .iter()
                .filter(|image| agent.runtime.is_image_cached(image))
                .count()
        };
        let reported = |agent: &mut Agent, secs: u64| {
            let AgentToManager::Report(report) = agent.make_report(SimTime::from_secs(secs)) else {
                panic!("expected a report");
            };
            report.cached_images
        };
        assert_eq!((reported(&mut agent, 1), walk(&agent)), (0, 0));
        agent.client_associated(ClientId::new(0), client_mac(), client_ip());
        let specs = sample_specs();
        agent.handle_manager_msg(
            deploy_msg(1, vec![specs[0].clone(), specs[1].clone()]),
            SimTime::from_secs(2),
        );
        assert_eq!((reported(&mut agent, 3), walk(&agent)), (2, 2));
        agent.handle_manager_msg(
            ManagerToAgent::RemoveChain {
                chain: ChainId::new(1),
                client: ClientId::new(0),
                migration: None,
            },
            SimTime::from_secs(4),
        );
        assert_eq!((reported(&mut agent, 5), walk(&agent)), (2, 2));
        agent.handle_manager_msg(deploy_msg(2, vec![specs[2].clone()]), SimTime::from_secs(6));
        assert_eq!((reported(&mut agent, 7), walk(&agent)), (3, 3));
        agent.crash();
        assert_eq!((reported(&mut agent, 8), walk(&agent)), (3, 3));
    }

    #[test]
    fn ping_gets_pong() {
        let (mut agent, _) = agent();
        let replies = agent.handle_manager_msg(ManagerToAgent::Ping, SimTime::ZERO);
        assert_eq!(replies, vec![AgentToManager::Pong]);
        assert_eq!(agent.commands_handled(), 1);
    }

    /// Two identically-driven agents — one sending full reports, one delta
    /// frames — must describe the identical station state at every interval
    /// once the delta stream reaches a receiver's station view.
    #[test]
    fn delta_reports_reconstruct_byte_identically() {
        use gnf_telemetry::MonitoringStore;
        let (mut full, _) = agent();
        let (mut delta, _) = agent();
        delta.set_delta_reporting(2);
        assert!(delta.delta_reporting());
        let mut store = MonitoringStore::new(SimDuration::from_secs(2), 3);

        let drive = |a: &mut Agent, step: u64| {
            let now = SimTime::from_secs(step * 2);
            match step {
                1 => {
                    a.client_associated(ClientId::new(0), client_mac(), client_ip());
                }
                2 => {
                    a.handle_manager_msg(deploy_msg(1, sample_specs()), now);
                }
                3 => {
                    let pkt = builder::udp_packet(
                        client_mac(),
                        MacAddr::derived(0xA0, 0),
                        Ipv4Addr::new(172, 16, 0, 2),
                        Ipv4Addr::new(93, 184, 216, 34),
                        4444,
                        53,
                        b"x",
                    );
                    let _ = upstream(a, pkt, now);
                }
                5 => a.crash(),
                _ => {}
            }
        };

        for step in 0..8u64 {
            let now = SimTime::from_secs(step * 2 + 1);
            drive(&mut full, step);
            drive(&mut delta, step);
            let AgentToManager::Report(expected) = full.make_report(now) else {
                panic!("expected a full report");
            };
            let AgentToManager::ReportDelta(frame) = delta.make_report(now) else {
                panic!("expected a delta frame");
            };
            if step == 5 {
                // First frame after the crash: a forced keyframe.
                assert!(frame.is_keyframe());
                assert!(frame.forced);
            }
            store.ingest_delta(&frame, now).expect("in-order frame");
            let rebuilt = store.station(frame.station).unwrap().last_report.as_ref();
            assert_eq!(
                serde_json::to_string(rebuilt.unwrap()).unwrap(),
                serde_json::to_string(&*expected).unwrap(),
                "step {step}"
            );
        }
        assert!(store.stats().deltas_applied > 0);
        assert_eq!(store.stats().forced_resyncs, 1);
    }

    /// The scratch buffer must not leak state between intervals: a section
    /// that shrinks (clients leaving) shrinks in the next report too.
    #[test]
    fn scratch_report_does_not_leak_previous_intervals() {
        let (mut agent, _) = agent();
        agent.client_associated(ClientId::new(3), client_mac(), client_ip());
        agent.client_associated(ClientId::new(7), MacAddr::derived(1, 1), client_ip());
        let AgentToManager::Report(first) = agent.make_report(SimTime::from_secs(2)) else {
            panic!("expected a report");
        };
        assert_eq!(first.connected_clients.len(), 2);
        agent.client_disassociated(ClientId::new(3));
        agent.client_disassociated(ClientId::new(7));
        let AgentToManager::Report(second) = agent.make_report(SimTime::from_secs(4)) else {
            panic!("expected a report");
        };
        assert!(second.connected_clients.is_empty());
    }
}
