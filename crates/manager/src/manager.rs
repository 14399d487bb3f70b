//! The Manager state machine.

use crate::desired::DesiredState;
use crate::migration::{MigrationPhase, MigrationRecord};
use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_nf::{NfEventSeverity, NfSpec, NfStateDelta, NfStateSnapshot};
use gnf_switch::TrafficSelector;
use gnf_telemetry::{
    MonitoringStore, NotificationLog, NotificationSeverity, NotificationSource, RegionSummary,
    Registration, StationHealth, TraceKind, TraceSink,
};
use gnf_types::ids::IdAllocator;
use gnf_types::{
    ChainId, ClientId, GnfConfig, GnfError, GnfResult, MacAddr, MigrationId, NfInstanceId,
    SimDuration, SimTime, StationId,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// An output of the Manager: a message that must be delivered to the Agent of
/// a given station.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagerAction {
    /// Send `message` to the Agent on `station`.
    Send {
        /// Target station.
        station: StationId,
        /// The command to deliver.
        message: ManagerToAgent,
    },
}

impl ManagerAction {
    /// Convenience constructor.
    fn send(station: StationId, message: ManagerToAgent) -> Self {
        ManagerAction::Send { station, message }
    }
}

/// A client known to the Manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientRecord {
    /// The client.
    pub client: ClientId,
    /// Its MAC address.
    pub mac: MacAddr,
    /// Its IP address.
    pub ip: Ipv4Addr,
    /// The station it is currently associated with (None while roaming /
    /// disconnected).
    pub station: Option<StationId>,
}

/// A chain attachment: the association between a client's traffic subset and
/// a service chain, wherever that chain currently runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttachmentRecord {
    /// The chain id.
    pub chain: ChainId,
    /// The client whose traffic is steered.
    pub client: ClientId,
    /// Ordered NF specs of the chain.
    pub specs: Vec<NfSpec>,
    /// The traffic subset steered through the chain.
    pub selector: TrafficSelector,
    /// The station the chain currently runs on (None while not deployed).
    pub station: Option<StationId>,
    /// True once the chain is serving traffic.
    pub active: bool,
    /// Deployment latency reported by the Agent for the most recent
    /// deployment of this chain.
    pub last_deploy_latency: Option<SimDuration>,
    /// Whether the most recent deployment found every image cached.
    pub last_images_cached: Option<bool>,
    /// Optional activation window (the paper's "scheduled to be enabled only
    /// during specific time periods").
    pub window: Option<(SimTime, SimTime)>,
}

/// Aggregate counters the experiments and the UI read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManagerStats {
    /// Messages received from Agents.
    pub messages_received: u64,
    /// Messages sent to Agents.
    pub messages_sent: u64,
    /// Migrations started.
    pub migrations_started: u64,
    /// Migrations completed successfully.
    pub migrations_completed: u64,
    /// Migrations that failed.
    pub migrations_failed: u64,
    /// Migrations aborted because they missed their deadline.
    pub migrations_timed_out: u64,
    /// Retry attempts launched for timed-out/failed migrations.
    pub migration_retries: u64,
    /// Stations that re-registered after a crash (reboot reconciliations).
    pub station_rejoins: u64,
    /// Hotspot notifications raised.
    pub hotspot_alerts: u64,
}

/// Control-plane transport statistics: how station telemetry reached the
/// Manager. Kept out of [`ManagerStats`] on purpose — the `RunReport` must
/// stay byte-identical whether the fleet sends full reports, delta frames or
/// region summaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlPlaneStats {
    /// Full `StationReport`s ingested directly.
    pub full_reports: u64,
    /// Delta keyframes accepted (each opens a new generation).
    pub delta_keyframes: u64,
    /// Keyframes that were agent-forced resyncs (crash/rejoin recovery).
    pub delta_forced_resyncs: u64,
    /// Delta frames applied on top of a held keyframe.
    pub deltas_applied: u64,
    /// Reports, delta frames and registrations dropped: delta frames that
    /// are stale, reordered or malformed (each heals at the sender's next
    /// keyframe), and any report or `Register` naming a station other than
    /// its sender.
    pub reports_rejected: u64,
    /// Region summaries ingested from the aggregation tier.
    pub region_summaries: u64,
}

/// A scheduled retry of a timed-out/failed migration: re-examined when due,
/// and skipped if the fleet moved on in the meantime (client roamed again,
/// chain detached, or a late success landed).
#[derive(Debug, Clone, PartialEq)]
struct RetryPlan {
    chain: ChainId,
    client: ClientId,
    from: StationId,
    to: StationId,
    at: SimTime,
    attempt: u32,
}

/// What a source or target reply contributes to [`Manager::advance`].
enum MigrationReply {
    /// `ChainState`: the source's checkpoint (the baseline, under pre-copy).
    State(Vec<NfStateSnapshot>),
    /// `ChainPrepared`: the target staged the chain.
    Prepared,
    /// `ChainDelta`: what the source dirtied since the baseline.
    Delta(Vec<NfStateDelta>),
}

/// The GNF Manager.
pub struct Manager {
    config: GnfConfig,
    clients: BTreeMap<ClientId, ClientRecord>,
    /// Desired placement of every chain, plus the reconciliation indexes
    /// (by-client, by-station, window boundaries, dirty set).
    desired: DesiredState,
    migrations: BTreeMap<MigrationId, MigrationRecord>,
    /// The unfinished migrations, keyed for a by-client range scan: exactly
    /// the records with `!is_finished()`. `open_migration` enters a record
    /// and every later phase change goes through `set_phase`, which re-files
    /// it — so per-client lookups and the in-flight count never walk the
    /// migration history, and the index cannot drift from the records.
    in_flight: BTreeSet<(ClientId, MigrationId)>,
    /// In-flight migration deadlines ordered by expiry: the tick-time
    /// timeout scan pops only due entries instead of filtering the whole
    /// migration table. Entries are validated lazily against the live
    /// record (finished or superseded migrations just drop theirs).
    deadline_index: BTreeSet<(SimTime, MigrationId)>,
    /// The one per-station table: registration, liveness, delta stream and
    /// latest report of every station.
    monitoring: MonitoringStore,
    notifications: NotificationLog,
    chain_ids: IdAllocator,
    migration_ids: IdAllocator,
    last_hotspot_scan: SimTime,
    /// Backoff retries keyed by `(due, seq)` so the tick-time drain pops
    /// only due plans in deterministic order.
    pending_retries: BTreeMap<(SimTime, u64), RetryPlan>,
    retry_seq: u64,
    stats: ManagerStats,
    /// Reports and registrations dropped because they named a station other
    /// than their sender.
    misaddressed: u64,
    region_summaries_ingested: u64,
    /// Latest summary per region, from the aggregation tier.
    region_summaries: BTreeMap<u64, RegionSummary>,
    /// Migration-lifecycle event sink: one span per phase a migration
    /// passes through, one instant per terminal outcome. Disabled by
    /// default (a single branch per phase transition).
    trace: TraceSink,
    /// When each in-flight migration entered its current phase, for the
    /// phase spans. Only populated while tracing is enabled; terminal
    /// outcomes clear their entry.
    phase_entered: BTreeMap<MigrationId, SimTime>,
}

impl Manager {
    /// Creates a Manager with the given configuration.
    pub fn new(config: GnfConfig) -> Self {
        Manager {
            monitoring: MonitoringStore::new(
                config.agent_report_interval,
                config.missed_reports_for_offline,
            ),
            config,
            clients: BTreeMap::new(),
            desired: DesiredState::new(),
            migrations: BTreeMap::new(),
            in_flight: BTreeSet::new(),
            deadline_index: BTreeSet::new(),
            notifications: NotificationLog::default(),
            chain_ids: IdAllocator::new(),
            migration_ids: IdAllocator::new(),
            last_hotspot_scan: SimTime::ZERO,
            pending_retries: BTreeMap::new(),
            retry_seq: 0,
            stats: ManagerStats::default(),
            misaddressed: 0,
            region_summaries_ingested: 0,
            region_summaries: BTreeMap::new(),
            trace: TraceSink::default(),
            phase_entered: BTreeMap::new(),
        }
    }

    /// Arms (or disarms) the migration-lifecycle event sink. Disabled by
    /// default: one branch per phase transition, nothing recorded.
    pub fn set_tracing(&mut self, trace: TraceSink) {
        self.trace = trace;
    }

    /// Mutable access to the event sink, for the harness to drain.
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Stable span label of a migration phase. The pre-copy plan renders as
    /// `PreCopy → Prepare → Delta → Activate`, the monolithic plan as
    /// `Checkpoint → Deploy`, both tailed by `RemoveOld`.
    fn phase_label(phase: MigrationPhase) -> &'static str {
        match phase {
            MigrationPhase::AwaitingState => "Checkpoint",
            MigrationPhase::AwaitingPreCopy => "PreCopy",
            MigrationPhase::Preparing => "Prepare",
            MigrationPhase::AwaitingDelta => "Delta",
            MigrationPhase::SwitchingOver => "Activate",
            MigrationPhase::Deploying => "Deploy",
            MigrationPhase::RemovingOld => "RemoveOld",
            MigrationPhase::Complete => "Complete",
            MigrationPhase::Failed => "Failed",
            MigrationPhase::TimedOut => "TimedOut",
        }
    }

    /// Emits the span of the phase `record` is about to leave (call *before*
    /// overwriting `record.phase`). An associated function over disjoint
    /// field borrows, because every call site holds `record` borrowed out of
    /// `self.migrations`.
    fn trace_phase_left(
        trace: &mut TraceSink,
        entered: &mut BTreeMap<MigrationId, SimTime>,
        record: &MigrationRecord,
        now: SimTime,
    ) {
        if !trace.enabled() {
            return;
        }
        let since = entered.insert(record.id, now).unwrap_or(record.started_at);
        trace.emit(
            now,
            TraceKind::MigrationPhase {
                migration: record.id.raw(),
                client: record.client.raw(),
                phase: Self::phase_label(record.phase),
                since,
            },
        );
    }

    /// Emits the terminal-outcome instant for a migration whose phase is
    /// already terminal, and drops its phase-clock entry.
    fn trace_outcome(
        trace: &mut TraceSink,
        entered: &mut BTreeMap<MigrationId, SimTime>,
        record: &MigrationRecord,
        now: SimTime,
    ) {
        entered.remove(&record.id);
        if !trace.enabled() {
            return;
        }
        let outcome = match record.phase {
            MigrationPhase::Complete => "complete",
            MigrationPhase::Failed => "failed",
            MigrationPhase::TimedOut => "timed-out",
            _ => return,
        };
        trace.emit(
            now,
            TraceKind::MigrationOutcome {
                migration: record.id.raw(),
                client: record.client.raw(),
                outcome,
                attempt: record.attempt as u64,
            },
        );
    }

    // ------------------------------------------------------------------
    // Operator API (what the UI calls)
    // ------------------------------------------------------------------

    /// Attaches a chain of NFs to (a subset of) a client's traffic. The chain
    /// is deployed on the station the client is currently associated with and
    /// follows the client on every subsequent roam.
    pub fn attach_chain(
        &mut self,
        client: ClientId,
        specs: Vec<NfSpec>,
        selector: TrafficSelector,
        now: SimTime,
    ) -> GnfResult<(ChainId, Vec<ManagerAction>)> {
        self.attach_chain_with_window(client, specs, selector, None, now)
    }

    /// Like [`Manager::attach_chain`], but only active inside the given
    /// virtual-time window; outside it the chain is removed from the station.
    pub fn attach_chain_with_window(
        &mut self,
        client: ClientId,
        specs: Vec<NfSpec>,
        selector: TrafficSelector,
        window: Option<(SimTime, SimTime)>,
        now: SimTime,
    ) -> GnfResult<(ChainId, Vec<ManagerAction>)> {
        if specs.is_empty() {
            return Err(GnfError::invalid_state("a chain needs at least one NF"));
        }
        let record = self
            .clients
            .get(&client)
            .ok_or_else(|| GnfError::not_found("client", client))?
            .clone();
        let chain: ChainId = self.chain_ids.next_id();
        let attachment = AttachmentRecord {
            chain,
            client,
            specs,
            selector,
            station: None,
            active: false,
            last_deploy_latency: None,
            last_images_cached: None,
            window,
        };
        let mut actions = Vec::new();
        let in_window = window
            .map(|(from, to)| now >= from && now < to)
            .unwrap_or(true);
        match record.station {
            Some(station) if in_window => actions.push(self.deploy_on(attachment, station, None)),
            _ => self.desired.insert(attachment),
        }
        self.stats.messages_sent += actions.len() as u64;
        Ok((chain, actions))
    }

    /// Detaches (removes) a chain from its client.
    pub fn detach_chain(&mut self, chain: ChainId, _now: SimTime) -> GnfResult<Vec<ManagerAction>> {
        let attachment = self
            .desired
            .get(chain)
            .ok_or_else(|| GnfError::not_found("chain", chain))?
            .clone();
        let mut actions = Vec::new();
        if let Some(station) = attachment.station {
            actions.push(ManagerAction::send(
                station,
                ManagerToAgent::RemoveChain {
                    chain,
                    client: attachment.client,
                    migration: None,
                },
            ));
        } else {
            self.desired.remove(chain);
        }
        self.stats.messages_sent += actions.len() as u64;
        Ok(actions)
    }

    // ------------------------------------------------------------------
    // Agent messages
    // ------------------------------------------------------------------

    /// Handles one message from the Agent on `from`, returning the commands to
    /// send out in response.
    pub fn handle_agent_msg(
        &mut self,
        from: StationId,
        msg: AgentToManager,
        now: SimTime,
    ) -> Vec<ManagerAction> {
        self.stats.messages_received += 1;
        let actions = match msg {
            AgentToManager::Register { station, .. } if station != from => {
                // A station registers only itself: re-registering another
                // would wipe that station's attachments as a rejoin.
                self.misaddressed += 1;
                Vec::new()
            }
            AgentToManager::Register {
                station,
                host_class,
                capacity,
                ..
            } => {
                let registration = Registration {
                    host_class,
                    capacity,
                    registered_at: now,
                };
                let rejoined = self.monitoring.register(station, registration);
                if rejoined {
                    // A re-registration is a reboot: every piece of soft
                    // state the station carried is gone, so forget what the
                    // Manager believed was deployed there. The chains are
                    // redeployed when their clients re-associate.
                    self.stats.station_rejoins += 1;
                    for chain in self.desired.chains_on_station(station) {
                        self.desired.update(chain, |attachment| {
                            attachment.station = None;
                            attachment.active = false;
                        });
                        // Windowed chains are repaired by the next tick's
                        // reconciliation; plain chains redeploy when their
                        // client re-associates.
                        self.desired.mark_dirty(chain);
                    }
                    self.notifications.raise(
                        now,
                        NotificationSeverity::Warning,
                        NotificationSource::Station { station },
                        "station-rejoined",
                        format!("station {station} ({host_class}) re-registered after a restart"),
                        None,
                    );
                } else {
                    self.notifications.raise(
                        now,
                        NotificationSeverity::Info,
                        NotificationSource::Station { station },
                        "station-registered",
                        format!("station {station} ({host_class}) registered"),
                        None,
                    );
                }
                vec![ManagerAction::send(
                    station,
                    ManagerToAgent::RegisterAck { station },
                )]
            }
            AgentToManager::ClientConnected { client, mac, ip } => {
                self.on_client_connected(from, client, mac, ip, now)
            }
            AgentToManager::ClientDisconnected { client } => {
                if let Some(record) = self.clients.get_mut(&client) {
                    if record.station == Some(from) {
                        record.station = None;
                    }
                }
                Vec::new()
            }
            AgentToManager::Report(report) if report.station == from => {
                self.monitoring.ingest(*report, now);
                Vec::new()
            }
            AgentToManager::ReportDelta(delta) if delta.station == from => {
                // Rejections (stale generation/sequence, unknown station)
                // are counted by the store and heal at the sender's next
                // keyframe — the protocol is one-way on purpose, so message
                // counts match full-report mode exactly.
                let _ = self.monitoring.ingest_delta(&delta, now);
                Vec::new()
            }
            AgentToManager::Report(_) | AgentToManager::ReportDelta(_) => {
                // A station reports only for itself.
                self.misaddressed += 1;
                Vec::new()
            }
            AgentToManager::ChainDeployed {
                chain,
                client,
                latency,
                images_cached,
                migration,
            } => {
                self.on_chain_deployed(from, chain, client, latency, images_cached, migration, now)
            }
            AgentToManager::ChainRemoved {
                chain, migration, ..
            } => self.on_chain_removed(chain, migration, now),
            AgentToManager::ChainState {
                migration, state, ..
            } => self.advance(migration, MigrationReply::State(state), now),
            AgentToManager::ChainPrepared { migration, .. } => {
                self.advance(migration, MigrationReply::Prepared, now)
            }
            AgentToManager::ChainDelta {
                migration, deltas, ..
            } => self.advance(migration, MigrationReply::Delta(deltas), now),
            AgentToManager::NfNotification {
                chain,
                client,
                nf_name,
                event,
            } => {
                let severity = match event.severity {
                    NfEventSeverity::Info => NotificationSeverity::Info,
                    NfEventSeverity::Warning => NotificationSeverity::Warning,
                    NfEventSeverity::Alert => NotificationSeverity::Critical,
                };
                self.notifications.raise(
                    now,
                    severity,
                    NotificationSource::NetworkFunction {
                        nf: NfInstanceId::new(chain.raw()),
                        station: from,
                    },
                    &event.category,
                    format!("{nf_name}: {}", event.message),
                    Some(client),
                );
                Vec::new()
            }
            AgentToManager::CommandFailed {
                chain,
                error,
                migration,
            } => self.on_command_failed(from, chain, error, migration, now),
            AgentToManager::Pong => Vec::new(),
        };
        self.stats.messages_sent += actions.len() as u64;
        actions
    }

    /// Periodic housekeeping: liveness refresh, hotspot detection and
    /// scheduled-window enforcement. Call at least every
    /// [`GnfConfig::hotspot_scan_interval`].
    pub fn tick(&mut self, now: SimTime) -> Vec<ManagerAction> {
        let mut actions = Vec::new();

        // Station liveness.
        for station in self.monitoring.refresh_liveness(now) {
            self.raise_offline(station, format!("station {station} stopped reporting"), now);
        }

        // Hotspot detection.
        if now.duration_since(self.last_hotspot_scan) >= self.config.hotspot_scan_interval {
            self.last_hotspot_scan = now;
            let hotspots = self.monitoring.hotspots(self.config.hotspot_threshold);
            self.raise_hotspots(&hotspots, now);
        }

        // Reconcile scheduled activation windows: pop the window boundaries
        // that are due (plus anything flagged dirty since the last tick) and
        // correct only those chains — desired placement for a windowed chain
        // is "on its client's station" inside the window, "nowhere" outside.
        for chain in self.desired.take_dirty(now) {
            // A concurrent detach/crash may have removed the attachment.
            let Some(attachment) = self.desired.get(chain).cloned() else {
                continue;
            };
            let Some((from, to)) = attachment.window else {
                // Plain chains are reconciled by client events (connect,
                // roam, rejoin-then-reconnect), not by the clock.
                continue;
            };
            let in_window = now >= from && now < to;
            if in_window && attachment.station.is_none() {
                // Time to enable the chain on the client's current station.
                if let Some(station) = self.clients.get(&attachment.client).and_then(|c| c.station)
                {
                    actions.push(self.deploy_on(attachment, station, None));
                }
            } else if !in_window && now >= from {
                if let Some(station) = attachment.station {
                    // Window closed: remove the chain but keep the attachment
                    // for the next window. Stays dirty — the removal is
                    // re-sent every tick until the Agent confirms it.
                    actions.push(ManagerAction::send(
                        station,
                        ManagerToAgent::RemoveChain {
                            chain,
                            client: attachment.client,
                            migration: None,
                        },
                    ));
                    self.desired.mark_dirty(chain);
                }
            }
        }

        // Migration deadlines: abort (and roll back) anything still waiting
        // for its checkpoint or deployment past the deadline, then schedule a
        // backoff retry while attempts remain. The deadline-ordered index
        // pops only due entries — O(overdue), not O(in-flight) — and each is
        // validated against the live record before acting.
        while let Some(&(at, id)) = self.deadline_index.iter().next() {
            if at > now {
                break;
            }
            self.deadline_index.remove(&(at, id));
            let Some(record) = self.migrations.get(&id) else {
                continue;
            };
            if record.deadline != Some(at)
                || record.is_finished()
                || record.phase == MigrationPhase::RemovingOld
            {
                continue;
            }
            // A pre-copy migration aborted once `PrepareChain` went out may
            // have left a staged (steering-less) chain on the target; a
            // not-found reply to its removal (the target never staged it) is
            // benign.
            let maybe_staged = record.precopy
                && matches!(
                    record.phase,
                    MigrationPhase::Preparing
                        | MigrationPhase::AwaitingDelta
                        | MigrationPhase::SwitchingOver
                );
            self.notifications.raise(
                now,
                NotificationSeverity::Warning,
                NotificationSource::Manager,
                "migration-timeout",
                format!(
                    "migration of {} from {} to {} missed its deadline (attempt {})",
                    record.chain, record.from, record.to, record.attempt
                ),
                Some(record.client),
            );
            self.stats.migrations_timed_out += 1;
            actions.extend(self.abort_migration(
                id,
                MigrationPhase::TimedOut,
                "migration deadline exceeded".into(),
                maybe_staged,
                now,
            ));
        }

        // Launch due retries — unless the fleet moved on while the plan
        // waited (client roamed again, chain detached, late success landed).
        // The `(due, seq)` key orders the drain by due time, then by the
        // order the plans were scheduled.
        let mut due: Vec<RetryPlan> = Vec::new();
        while let Some((&(at, seq), _)) = self.pending_retries.iter().next() {
            if at > now {
                break;
            }
            if let Some(plan) = self.pending_retries.remove(&(at, seq)) {
                due.push(plan);
            }
        }
        for plan in due {
            if self.clients.get(&plan.client).and_then(|c| c.station) != Some(plan.to) {
                continue;
            }
            let Some(attachment) = self.desired.get(plan.chain).cloned() else {
                continue;
            };
            if attachment.active && attachment.station == Some(plan.to) {
                continue;
            }
            self.stats.migration_retries += 1;
            match attachment.station {
                // The source chain is still serving (rolled back): run a
                // fresh checkpoint/deploy migration from wherever it is now.
                Some(current) if current != plan.to && attachment.active => {
                    actions.extend(self.start_migration_attempt(
                        plan.chain,
                        plan.client,
                        current,
                        plan.to,
                        now,
                        plan.attempt,
                    ));
                }
                // Nothing serving anywhere (source crashed, or the previous
                // deploy is wedged): redeploy the chain statelessly on the
                // target under a fresh deadline.
                _ => {
                    let record = self.open_migration(
                        plan.chain,
                        plan.client,
                        plan.from,
                        plan.to,
                        now,
                        plan.attempt,
                        false,
                    );
                    // Nothing to tear down on the old side: the deploy
                    // confirmation alone completes this record (the
                    // timestamp is bumped then).
                    record.completed_at = Some(now);
                    let id = record.id;
                    actions.push(self.deploy_on(attachment, plan.to, Some((id, Vec::new()))));
                }
            }
        }

        self.stats.messages_sent += actions.len() as u64;
        actions
    }

    /// Capped exponential retry backoff for the given (zero-based) attempt.
    fn retry_backoff(&self, attempt: u32) -> SimDuration {
        let factor = 1u64 << attempt.min(16);
        (self.config.migration_backoff_base * factor).min(self.config.migration_backoff_cap)
    }

    /// Schedules a retry plan in the due-time-ordered index.
    fn push_retry(&mut self, plan: RetryPlan) {
        let key = (plan.at, self.retry_seq);
        self.retry_seq += 1;
        self.pending_retries.insert(key, plan);
    }

    /// Ingests one summary from the region aggregation tier. Hotspots and
    /// newly-offline stations surface as notifications exactly as they would
    /// from direct per-station reports; the summary itself replaces the
    /// region's previous one.
    pub fn ingest_region_summary(&mut self, summary: RegionSummary, now: SimTime) {
        self.region_summaries_ingested += 1;
        // Alert on edges only: a station the region's previous summary
        // already listed offline raised its alert then.
        let previous = self.region_summaries.remove(&summary.region);
        for &station in &summary.offline {
            if previous
                .as_ref()
                .is_none_or(|prev| !prev.offline.contains(&station))
            {
                let region = summary.region;
                let message = format!("station {station} stopped reporting (region {region})");
                self.raise_offline(station, message, now);
            }
        }
        self.raise_hotspots(&summary.hotspots, now);
        self.region_summaries.insert(summary.region, summary);
    }

    /// One critical alert for a station that stopped reporting.
    fn raise_offline(&mut self, station: StationId, message: String, now: SimTime) {
        self.notifications.raise(
            now,
            NotificationSeverity::Critical,
            NotificationSource::Station { station },
            "station-offline",
            message,
            None,
        );
    }

    /// One warning per station over the hotspot threshold.
    fn raise_hotspots(&mut self, hotspots: &[(StationId, f64)], now: SimTime) {
        for &(station, utilisation) in hotspots {
            self.stats.hotspot_alerts += 1;
            self.notifications.raise(
                now,
                NotificationSeverity::Warning,
                NotificationSource::Manager,
                "hotspot",
                format!(
                    "station {station} at {:.0}% of capacity — consider upgrading",
                    utilisation * 100.0
                ),
                None,
            );
        }
    }

    // ------------------------------------------------------------------
    // Views (consumed by the UI and by experiments)
    // ------------------------------------------------------------------

    /// Registered stations, in station order, each with its registration.
    pub fn stations(&self) -> impl Iterator<Item = (&StationHealth, Registration)> {
        self.monitoring
            .stations()
            .filter_map(|view| Some((view, view.registration?)))
    }

    /// Known clients.
    pub fn clients(&self) -> impl Iterator<Item = &ClientRecord> {
        self.clients.values()
    }

    /// One client, by id.
    pub fn client(&self, client: ClientId) -> Option<&ClientRecord> {
        self.clients.get(&client)
    }

    /// Chain attachments.
    pub fn attachments(&self) -> impl Iterator<Item = &AttachmentRecord> {
        self.desired.iter()
    }

    /// The attachments following one client, in unspecified order — an
    /// index lookup, not a filter over [`Manager::attachments`].
    pub fn attachments_of(&self, client: ClientId) -> impl Iterator<Item = &AttachmentRecord> {
        self.desired.attachments_of(client)
    }

    /// The ids of the chains following one client, in unspecified order:
    /// the by-client index itself, without visiting the attachment records.
    pub fn chains_of(&self, client: ClientId) -> impl Iterator<Item = ChainId> + '_ {
        self.desired.chains_of(client)
    }

    /// One attachment.
    pub fn attachment(&self, chain: ChainId) -> Option<&AttachmentRecord> {
        self.desired.get(chain)
    }

    /// Migration history (including in-flight migrations).
    pub fn migrations(&self) -> impl Iterator<Item = &MigrationRecord> {
        self.migrations.values()
    }

    /// One client's unfinished migrations, in migration-id order — the
    /// records [`Manager::migrations`] yields for it with `!is_finished()`,
    /// found through the in-flight index.
    pub fn migrations_in_flight_of(
        &self,
        client: ClientId,
    ) -> impl Iterator<Item = &MigrationRecord> {
        self.in_flight
            .range((client, MigrationId::new(0))..=(client, MigrationId::new(u64::MAX)))
            .filter_map(|(_, id)| self.migrations.get(id))
    }

    /// How many migrations are unfinished, fleet-wide.
    pub fn migrations_in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// The notification log.
    pub fn notifications(&self) -> &NotificationLog {
        &self.notifications
    }

    /// The monitoring store.
    pub fn monitoring(&self) -> &MonitoringStore {
        &self.monitoring
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ManagerStats {
        self.stats
    }

    /// Control-plane transport statistics (full reports vs delta frames vs
    /// region summaries). Deliberately separate from [`ManagerStats`], so the
    /// `RunReport` stays byte-identical across transport modes.
    pub fn control_plane_stats(&self) -> ControlPlaneStats {
        let r = self.monitoring.stats();
        ControlPlaneStats {
            full_reports: r.full_reports,
            delta_keyframes: r.keyframes,
            delta_forced_resyncs: r.forced_resyncs,
            deltas_applied: r.deltas_applied,
            reports_rejected: r.deltas_rejected + self.misaddressed,
            region_summaries: self.region_summaries_ingested,
        }
    }

    /// Latest summary ingested for each region, in region order.
    pub fn region_summaries(&self) -> impl Iterator<Item = &RegionSummary> {
        self.region_summaries.values()
    }

    /// The configuration in effect.
    pub fn config(&self) -> &GnfConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Internal transitions
    // ------------------------------------------------------------------

    /// Builds the one chain-carrying command: instantiate `attachment`'s
    /// chain on `station`, restoring the state `migration` ships. `staged`
    /// selects the pre-copy `PrepareChain` (containers plus baseline, no
    /// steering) over a serving `DeployChain`. The attachment itself is not
    /// touched, so a make-before-break target deploy leaves it pointed at
    /// the serving source until the target confirms. (An associated function
    /// over the client table: `advance` calls it holding its record.)
    fn chain_command(
        clients: &BTreeMap<ClientId, ClientRecord>,
        attachment: &AttachmentRecord,
        station: StationId,
        migration: Option<(MigrationId, Vec<NfStateSnapshot>)>,
        staged: bool,
    ) -> ManagerAction {
        let (chain, client) = (attachment.chain, attachment.client);
        let client_mac = clients.get(&client).map(|c| c.mac).unwrap_or(MacAddr::ZERO);
        let (specs, selector) = (attachment.specs.clone(), attachment.selector);
        let message = match migration {
            Some((migration, precopy_state)) if staged => ManagerToAgent::PrepareChain {
                chain,
                client,
                client_mac,
                specs,
                selector,
                precopy_state,
                migration,
            },
            migration => {
                let (migration, restore_state) = migration.unzip();
                ManagerToAgent::DeployChain {
                    chain,
                    client,
                    client_mac,
                    specs,
                    selector,
                    restore_state,
                    migration,
                }
            }
        };
        ManagerAction::send(station, message)
    }

    /// Claims `attachment` for `station` (placed there, not yet active),
    /// stores it and returns the serving deploy command.
    fn deploy_on(
        &mut self,
        mut attachment: AttachmentRecord,
        station: StationId,
        migration: Option<(MigrationId, Vec<NfStateSnapshot>)>,
    ) -> ManagerAction {
        attachment.station = Some(station);
        attachment.active = false;
        let action = Self::chain_command(&self.clients, &attachment, station, migration, false);
        self.desired.insert(attachment);
        action
    }

    fn on_client_connected(
        &mut self,
        station: StationId,
        client: ClientId,
        mac: MacAddr,
        ip: Ipv4Addr,
        now: SimTime,
    ) -> Vec<ManagerAction> {
        self.clients.insert(
            client,
            ClientRecord {
                client,
                mac,
                ip,
                station: Some(station),
            },
        );
        let mut actions = Vec::new();

        // Every chain attached to this client must now run on `station` —
        // found through the by-client index, not a fleet scan, and handled
        // in chain order, so the commands' order is not the index's.
        let mut chains: Vec<ChainId> = self.desired.chains_of(client).collect();
        chains.sort_unstable();
        for chain in chains {
            // A chain collected above may have been detached by an earlier
            // iteration's actions; skip rather than panic.
            let Some(attachment) = self.desired.get(chain).cloned() else {
                continue;
            };
            // Respect scheduling windows.
            if let Some((from, to)) = attachment.window {
                if !(now >= from && now < to) {
                    continue;
                }
            }
            match attachment.station {
                // Already on the right station: nothing to do.
                Some(current) if current == station => {}
                // Running somewhere else: migrate ("function roaming").
                Some(old_station) => actions.extend(self.start_migration_attempt(
                    chain,
                    client,
                    old_station,
                    station,
                    now,
                    0,
                )),
                // Not deployed anywhere yet: plain deployment.
                None => actions.push(self.deploy_on(attachment, station, None)),
            }
        }
        actions
    }

    /// Opens a migration record under a fresh id and deadline. `with_state`
    /// selects a stateful plan (pre-copy when configured, else monolithic)
    /// over a stateless redeploy.
    #[allow(clippy::too_many_arguments)]
    fn open_migration(
        &mut self,
        chain: ChainId,
        client: ClientId,
        from: StationId,
        to: StationId,
        now: SimTime,
        attempt: u32,
        with_state: bool,
    ) -> &mut MigrationRecord {
        let id: MigrationId = self.migration_ids.next_id();
        let mut record = MigrationRecord::new(id, chain, client, from, to, now, with_state);
        record.attempt = attempt;
        if with_state && self.config.migration_precopy {
            record.precopy = true;
            record.phase = MigrationPhase::AwaitingPreCopy;
        }
        let deadline = now + self.config.migration_deadline;
        record.deadline = Some(deadline);
        self.deadline_index.insert((deadline, id));
        self.in_flight.insert((client, id));
        self.stats.migrations_started += 1;
        self.migrations.entry(id).or_insert(record)
    }

    fn start_migration_attempt(
        &mut self,
        chain: ChainId,
        client: ClientId,
        from: StationId,
        to: StationId,
        now: SimTime,
        attempt: u32,
    ) -> Vec<ManagerAction> {
        // A concurrent detach may have removed the attachment.
        let Some(attachment) = self.desired.get(chain).cloned() else {
            return Vec::new();
        };
        let with_state = self.config.make_before_break;
        let record = self.open_migration(chain, client, from, to, now, attempt, with_state);
        let (id, precopy) = (record.id, record.precopy);
        self.notifications.raise(
            now,
            NotificationSeverity::Info,
            NotificationSource::Manager,
            "migration-started",
            format!("migrating {chain} of {client} from {from} to {to}"),
            Some(client),
        );

        if with_state {
            // Make-before-break: fetch the state first, deploy on the target,
            // and only then tear down the source. Under pre-copy the source
            // also retains the exported baseline, so the later `DeltaChain`
            // can ship only what the still-serving chain dirtied since.
            vec![ManagerAction::send(
                from,
                ManagerToAgent::CheckpointChain {
                    chain,
                    client,
                    migration: id,
                    retain_baseline: precopy,
                },
            )]
        } else {
            // Break-before-make: remove the old instance immediately and
            // deploy a fresh (stateless) chain on the target in parallel.
            vec![
                ManagerAction::send(
                    from,
                    ManagerToAgent::RemoveChain {
                        chain,
                        client,
                        migration: Some(id),
                    },
                ),
                self.deploy_on(attachment, to, Some((id, Vec::new()))),
            ]
        }
    }

    /// The migration engine's one transition function: applies a source or
    /// target reply to the migration it names.
    ///
    /// | phase             | reply      | next phase      | command                      |
    /// |-------------------|------------|-----------------|------------------------------|
    /// | `AwaitingState`   | `State`    | `Deploying`     | `DeployChain(state)` → to    |
    /// | `AwaitingPreCopy` | `State`    | `Preparing`     | `PrepareChain(baseline)` → to|
    /// | `Preparing`       | `Prepared` | `AwaitingDelta` | `DeltaChain` → from          |
    /// | `AwaitingDelta`   | `Delta`    | `SwitchingOver` | `ActivateChain(deltas)` → to |
    ///
    /// Every other pair — a reply for an aborted, superseded, finished or
    /// unknown migration, or one the record's plan never asks for — is
    /// ignored with the record untouched, and the record is only mutated
    /// once the next command is certain to go out. The attachment is never
    /// touched here: the source chain keeps serving, so the attachment keeps
    /// pointing at it until the target's deploy confirmation flips it
    /// (`on_chain_deployed`). Claiming it earlier would mark the chain
    /// inactive — and mis-route concurrent steering decisions — for the whole
    /// transfer.
    fn advance(
        &mut self,
        migration: MigrationId,
        reply: MigrationReply,
        now: SimTime,
    ) -> Vec<ManagerAction> {
        let Some(record) = self.migrations.get_mut(&migration) else {
            return Vec::new();
        };
        let next = match (record.phase, &reply) {
            (MigrationPhase::AwaitingState, MigrationReply::State(_)) => MigrationPhase::Deploying,
            (MigrationPhase::AwaitingPreCopy, MigrationReply::State(_)) => {
                MigrationPhase::Preparing
            }
            (MigrationPhase::Preparing, MigrationReply::Prepared) => MigrationPhase::AwaitingDelta,
            (MigrationPhase::AwaitingDelta, MigrationReply::Delta(_)) => {
                MigrationPhase::SwitchingOver
            }
            _ => return Vec::new(),
        };
        let (chain, client) = (record.chain, record.client);
        let action = match reply {
            MigrationReply::State(state) => {
                // Detached mid-migration: there is nothing left to deploy.
                let Some(attachment) = self.desired.get(chain) else {
                    return Vec::new();
                };
                record.state_bytes = state.iter().map(|s| s.approximate_size_bytes()).sum();
                Self::chain_command(
                    &self.clients,
                    attachment,
                    record.to,
                    Some((migration, state)),
                    next == MigrationPhase::Preparing,
                )
            }
            MigrationReply::Prepared => {
                // The staged target is ready: the switchover window opens
                // now, with the request for the source's dirty delta.
                record.switchover_started_at = Some(now);
                ManagerAction::send(
                    record.from,
                    ManagerToAgent::DeltaChain {
                        chain,
                        client,
                        migration,
                    },
                )
            }
            MigrationReply::Delta(deltas) => {
                record.delta_bytes = deltas.iter().map(|d| d.approximate_size_bytes()).sum();
                ManagerAction::send(
                    record.to,
                    ManagerToAgent::ActivateChain {
                        chain,
                        client,
                        migration,
                        deltas,
                    },
                )
            }
        };
        Self::trace_phase_left(&mut self.trace, &mut self.phase_entered, record, now);
        Self::set_phase(&mut self.in_flight, record, next);
        vec![action]
    }

    /// The one way a record changes phase after `open_migration`: files it
    /// in or out of the in-flight index as the new phase demands. (An
    /// associated function: callers hold the record borrowed.)
    fn set_phase(
        in_flight: &mut BTreeSet<(ClientId, MigrationId)>,
        record: &mut MigrationRecord,
        phase: MigrationPhase,
    ) {
        record.phase = phase;
        if record.is_finished() {
            in_flight.remove(&(record.client, record.id));
        } else {
            in_flight.insert((record.client, record.id));
        }
    }

    /// Marks migration `id` complete at `now`.
    fn complete_migration(&mut self, id: MigrationId, now: SimTime) {
        let Some(record) = self.migrations.get_mut(&id) else {
            return;
        };
        Self::trace_phase_left(&mut self.trace, &mut self.phase_entered, record, now);
        Self::set_phase(&mut self.in_flight, record, MigrationPhase::Complete);
        record.completed_at = Some(now);
        Self::trace_outcome(&mut self.trace, &mut self.phase_entered, record, now);
        self.stats.migrations_completed += 1;
    }

    /// Aborts in-flight migration `id` into the terminal `phase` (`TimedOut`
    /// or `Failed`) and schedules a backoff retry while attempts remain.
    /// Rolls back first: under make-before-break the source chain never
    /// stopped serving, so the attachment points back at it; a stateless
    /// redeploy has no source to fall back to — the retry simply deploys
    /// again. With `remove_staged` (the caller knows whether the target may
    /// hold a staged chain) the returned command tears that chain down, so an
    /// `already_exists` reconciliation on a later retry can never activate a
    /// stale baseline; it carries the migration id so `on_chain_removed`
    /// treats it as abort cleanup, not a detach.
    fn abort_migration(
        &mut self,
        id: MigrationId,
        phase: MigrationPhase,
        failure: String,
        remove_staged: bool,
        now: SimTime,
    ) -> Option<ManagerAction> {
        let record = self.migrations.get_mut(&id)?;
        Self::trace_phase_left(&mut self.trace, &mut self.phase_entered, record, now);
        Self::set_phase(&mut self.in_flight, record, phase);
        record.failure = Some(failure);
        Self::trace_outcome(&mut self.trace, &mut self.phase_entered, record, now);
        let (chain, client, from, to) = (record.chain, record.client, record.from, record.to);
        let (attempt, with_state) = (record.attempt, record.with_state);
        if with_state {
            self.desired.update(chain, |attachment| {
                if attachment.station == Some(to) {
                    attachment.station = Some(from);
                    attachment.active = true;
                }
            });
        }
        if attempt < self.config.migration_max_retries {
            self.push_retry(RetryPlan {
                chain,
                client,
                from,
                to,
                at: now + self.retry_backoff(attempt),
                attempt: attempt + 1,
            });
        }
        remove_staged.then(|| {
            ManagerAction::send(
                to,
                ManagerToAgent::RemoveChain {
                    chain,
                    client,
                    migration: Some(id),
                },
            )
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn on_chain_deployed(
        &mut self,
        from: StationId,
        chain: ChainId,
        client: ClientId,
        latency: SimDuration,
        images_cached: bool,
        migration: Option<MigrationId>,
        now: SimTime,
    ) -> Vec<ManagerAction> {
        self.desired.update(chain, |attachment| {
            attachment.station = Some(from);
            attachment.active = true;
            attachment.last_deploy_latency = Some(latency);
            attachment.last_images_cached = Some(images_cached);
        });
        self.notifications.raise(
            now,
            NotificationSeverity::Info,
            NotificationSource::Station { station: from },
            "chain-deployed",
            format!("{chain} for {client} active on {from} after {latency}"),
            Some(client),
        );
        // Any deploy confirmation for this chain supersedes pending retries.
        self.pending_retries.retain(|_, plan| plan.chain != chain);
        let mut actions = Vec::new();
        if let Some(record) = migration.and_then(|id| self.migrations.get_mut(&id)) {
            record.service_restored_at = Some(now);
            // `TimedOut` is a late success: the deploy confirmation
            // outran its abort, so resurrect the migration — the
            // attachment already points at the target again (above).
            if matches!(
                record.phase,
                MigrationPhase::Deploying
                    | MigrationPhase::AwaitingState
                    // Pre-copy phases: SwitchingOver is the normal
                    // activation confirmation; Preparing/AwaitingDelta
                    // cover an `already_exists` reconciliation where the
                    // target already serves the chain (a prior attempt's
                    // activation outran its lost reply).
                    | MigrationPhase::Preparing
                    | MigrationPhase::AwaitingDelta
                    | MigrationPhase::SwitchingOver
                    | MigrationPhase::TimedOut
            ) {
                if record.with_state || record.completed_at.is_none() {
                    Self::trace_phase_left(&mut self.trace, &mut self.phase_entered, record, now);
                    // (Back in flight when this resurrects a `TimedOut`.)
                    Self::set_phase(&mut self.in_flight, record, MigrationPhase::RemovingOld);
                    // A stateful move tears the source down only now; a
                    // break-before-make removal went out with the deploy
                    // and is still outstanding (`on_chain_removed`
                    // completes the record).
                    if record.with_state {
                        actions.push(ManagerAction::send(
                            record.from,
                            ManagerToAgent::RemoveChain {
                                chain,
                                client,
                                migration: Some(record.id),
                            },
                        ));
                    }
                } else {
                    // Stateless deploy whose old side is already gone (its
                    // removal was confirmed first, or a retry redeploy had
                    // nothing to remove): the confirmation completes it.
                    let id = record.id;
                    self.complete_migration(id, now);
                }
            }
        }
        actions
    }

    fn on_chain_removed(
        &mut self,
        chain: ChainId,
        migration: Option<MigrationId>,
        now: SimTime,
    ) -> Vec<ManagerAction> {
        match migration {
            Some(id) => {
                if let Some(record) = self.migrations.get_mut(&id) {
                    // A removal confirmation for an aborted migration must
                    // not mark it complete, nor a duplicate complete it twice.
                    if record.is_finished() {
                        return Vec::new();
                    }
                    record.completed_at = Some(now);
                    if record.service_restored_at.is_some() {
                        self.notifications.raise(
                            now,
                            NotificationSeverity::Info,
                            NotificationSource::Manager,
                            "migration-complete",
                            format!(
                                "{chain} migrated {} -> {} in {}",
                                record.from,
                                record.to,
                                record.total_duration().unwrap_or(SimDuration::ZERO)
                            ),
                            Some(record.client),
                        );
                        self.complete_migration(id, now);
                    }
                    // else: break-before-make with the deploy still pending;
                    // on_chain_deployed completes it.
                }
            }
            None => {
                // A plain detach (or a scheduling window closing).
                if let Some(attachment) = self.desired.get(chain) {
                    if attachment.window.is_some() {
                        self.desired.update(chain, |attachment| {
                            attachment.station = None;
                            attachment.active = false;
                        });
                    } else {
                        self.desired.remove(chain);
                    }
                }
            }
        }
        Vec::new()
    }

    fn on_command_failed(
        &mut self,
        from: StationId,
        chain: Option<ChainId>,
        error: GnfError,
        migration: Option<MigrationId>,
        now: SimTime,
    ) -> Vec<ManagerAction> {
        // Reconcile failures that are really stale-view successes before
        // treating anything as an error:
        //
        // * a duplicate-deploy rejection means an earlier deploy of this
        //   chain (a retry racing its original) already landed — the
        //   migration succeeded, not failed;
        // * a not-found removal during teardown means the old instance is
        //   already gone (e.g. the source station crashed and lost it) —
        //   the teardown's goal is met.
        if let (Some(chain_id), Some(id)) = (chain, migration) {
            if let Some(record) = self.migrations.get(&id) {
                if error.category() == "already_exists" {
                    let client = record.client;
                    return self.on_chain_deployed(
                        from,
                        chain_id,
                        client,
                        SimDuration::ZERO,
                        true,
                        Some(id),
                        now,
                    );
                }
                if error.category() == "not_found" && record.phase == MigrationPhase::RemovingOld {
                    self.complete_migration(id, now);
                    return Vec::new();
                }
            }
        }
        self.notifications.raise(
            now,
            NotificationSeverity::Critical,
            NotificationSource::Station { station: from },
            "command-failed",
            format!("command failed on {from}: {error}"),
            None,
        );
        let in_flight = migration
            .and_then(|id| self.migrations.get(&id))
            .filter(|record| !record.is_finished());
        let Some(record) = in_flight else {
            return Vec::new();
        };
        // A source-side failure after the target confirmed its staging
        // (pre-copy) leaves a staged chain behind there.
        let staged = record.precopy
            && from == record.from
            && matches!(
                record.phase,
                MigrationPhase::AwaitingDelta | MigrationPhase::SwitchingOver
            );
        self.stats.migrations_failed += 1;
        let id = record.id;
        self.abort_migration(id, MigrationPhase::Failed, error.to_string(), staged, now)
            .into_iter()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_nf::testing::sample_specs;
    use gnf_nf::StateTable;
    use gnf_telemetry::Notification;
    use gnf_types::HostClass;

    fn register(manager: &mut Manager, station: u64, now: SimTime) {
        manager.handle_agent_msg(
            StationId::new(station),
            AgentToManager::Register {
                agent: gnf_types::AgentId::new(station),
                station: StationId::new(station),
                host_class: HostClass::HomeRouter,
                capacity: HostClass::HomeRouter.capacity(),
            },
            now,
        );
    }

    fn connect_client(
        manager: &mut Manager,
        station: u64,
        client: u64,
        now: SimTime,
    ) -> Vec<ManagerAction> {
        manager.handle_agent_msg(
            StationId::new(station),
            AgentToManager::ClientConnected {
                client: ClientId::new(client),
                mac: MacAddr::derived(1, client as u32),
                ip: Ipv4Addr::new(172, 16, 0, client as u8),
            },
            now,
        )
    }

    fn manager() -> Manager {
        Manager::new(GnfConfig::default())
    }

    fn firewall_spec() -> Vec<NfSpec> {
        vec![sample_specs()[0].clone()]
    }

    #[test]
    fn registration_is_acknowledged_and_tracked() {
        let mut m = manager();
        let actions = m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::Register {
                agent: gnf_types::AgentId::new(0),
                station: StationId::new(0),
                host_class: HostClass::EdgeServer,
                capacity: HostClass::EdgeServer.capacity(),
            },
            SimTime::ZERO,
        );
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            ManagerAction::Send {
                message: ManagerToAgent::RegisterAck { .. },
                ..
            }
        ));
        assert_eq!(m.stations().count(), 1);
        assert_eq!(m.notifications().len(), 1);
    }

    #[test]
    fn attach_chain_requires_a_known_client() {
        let mut m = manager();
        let err = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert_eq!(err.category(), "not_found");
        // Empty chains are rejected too.
        register(&mut m, 0, SimTime::ZERO);
        connect_client(&mut m, 0, 0, SimTime::ZERO);
        assert!(m
            .attach_chain(
                ClientId::new(0),
                vec![],
                TrafficSelector::all(),
                SimTime::ZERO
            )
            .is_err());
    }

    #[test]
    fn attach_chain_deploys_on_the_clients_station() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        connect_client(&mut m, 0, 0, SimTime::from_secs(1));
        let (chain, actions) = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::from_secs(2),
            )
            .unwrap();
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            ManagerAction::Send { station, message } => {
                assert_eq!(*station, StationId::new(0));
                assert!(matches!(message, ManagerToAgent::DeployChain { .. }));
            }
        }
        // The agent confirms.
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(300),
                images_cached: false,
                migration: None,
            },
            SimTime::from_secs(3),
        );
        let attachment = m.attachment(chain).unwrap();
        assert!(attachment.active);
        assert_eq!(attachment.station, Some(StationId::new(0)));
        assert_eq!(
            attachment.last_deploy_latency,
            Some(SimDuration::from_millis(300))
        );
    }

    /// Drives a full make-before-break migration through the Manager and
    /// returns it for inspection.
    fn run_migration(m: &mut Manager) -> MigrationRecord {
        register(m, 0, SimTime::ZERO);
        register(m, 1, SimTime::ZERO);
        connect_client(m, 0, 0, SimTime::from_secs(1));
        let (chain, _) = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::from_secs(2),
            )
            .unwrap();
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(200),
                images_cached: false,
                migration: None,
            },
            SimTime::from_secs(3),
        );

        // The client roams to station 1.
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ClientDisconnected {
                client: ClientId::new(0),
            },
            SimTime::from_secs(10),
        );
        let actions = connect_client(m, 1, 0, SimTime::from_secs(10));
        // Make-before-break: first ask the old station for the state.
        assert_eq!(actions.len(), 1);
        let ManagerAction::Send { station, message } = &actions[0];
        assert_eq!(*station, StationId::new(0));
        let ManagerToAgent::CheckpointChain { migration, .. } = message else {
            panic!("expected a checkpoint command, got {message:?}");
        };
        let migration = *migration;

        // Old station returns the state.
        let actions = m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainState {
                chain,
                client: ClientId::new(0),
                migration,
                state: vec![NfStateSnapshot::Firewall {
                    established: StateTable::default(),
                }],
                checkpoint_latency: SimDuration::from_millis(30),
            },
            SimTime::from_millis(10_200),
        );
        assert_eq!(actions.len(), 1);
        let ManagerAction::Send { station, message } = &actions[0];
        assert_eq!(*station, StationId::new(1));
        assert!(matches!(
            message,
            ManagerToAgent::DeployChain {
                restore_state: Some(_),
                ..
            }
        ));

        // New station confirms deployment → old chain is removed.
        let actions = m.handle_agent_msg(
            StationId::new(1),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(250),
                images_cached: false,
                migration: Some(migration),
            },
            SimTime::from_millis(10_600),
        );
        assert_eq!(actions.len(), 1);
        let ManagerAction::Send { station, message } = &actions[0];
        assert_eq!(*station, StationId::new(0));
        assert!(matches!(message, ManagerToAgent::RemoveChain { .. }));

        // Old station confirms removal.
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainRemoved {
                chain,
                client: ClientId::new(0),
                migration: Some(migration),
            },
            SimTime::from_millis(10_700),
        );
        m.migrations().next().unwrap().clone()
    }

    #[test]
    fn roaming_triggers_a_complete_migration() {
        let mut m = manager();
        let record = run_migration(&mut m);
        assert_eq!(record.phase, MigrationPhase::Complete);
        assert_eq!(record.from, StationId::new(0));
        assert_eq!(record.to, StationId::new(1));
        // Handover at t=10 s, service restored at t=10.6 s.
        assert_eq!(record.downtime().unwrap(), SimDuration::from_millis(600));
        assert_eq!(
            record.total_duration().unwrap(),
            SimDuration::from_millis(700)
        );
        assert_eq!(m.stats().migrations_started, 1);
        assert_eq!(m.stats().migrations_completed, 1);
        // The attachment now lives on station 1.
        let attachment = m.attachments().next().unwrap();
        assert_eq!(attachment.station, Some(StationId::new(1)));
        assert!(attachment.active);
    }

    #[test]
    fn break_before_make_removes_then_deploys() {
        let config = GnfConfig {
            make_before_break: false,
            ..Default::default()
        };
        let mut m = Manager::new(config);
        register(&mut m, 0, SimTime::ZERO);
        register(&mut m, 1, SimTime::ZERO);
        connect_client(&mut m, 0, 0, SimTime::from_secs(1));
        let (chain, _) = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::from_secs(2),
            )
            .unwrap();
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(200),
                images_cached: true,
                migration: None,
            },
            SimTime::from_secs(3),
        );
        let actions = connect_client(&mut m, 1, 0, SimTime::from_secs(10));
        // Both the removal and the fresh deployment go out immediately.
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            actions[0],
            ManagerAction::Send {
                message: ManagerToAgent::RemoveChain { .. },
                ..
            }
        ));
        assert!(matches!(
            actions[1],
            ManagerAction::Send {
                message: ManagerToAgent::DeployChain {
                    restore_state: Some(ref s),
                    ..
                },
                ..
            } if s.is_empty()
        ));
    }

    #[test]
    fn detach_removes_the_chain_from_its_station() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        connect_client(&mut m, 0, 0, SimTime::from_secs(1));
        let (chain, _) = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::from_secs(2),
            )
            .unwrap();
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(100),
                images_cached: true,
                migration: None,
            },
            SimTime::from_secs(3),
        );
        let actions = m.detach_chain(chain, SimTime::from_secs(4)).unwrap();
        assert_eq!(actions.len(), 1);
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainRemoved {
                chain,
                client: ClientId::new(0),
                migration: None,
            },
            SimTime::from_secs(5),
        );
        assert!(m.attachment(chain).is_none());
        assert!(m.detach_chain(chain, SimTime::from_secs(6)).is_err());
    }

    #[test]
    fn nf_notifications_are_logged_with_severity() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::NfNotification {
                chain: ChainId::new(0),
                client: ClientId::new(0),
                nf_name: "ids-0".into(),
                event: gnf_nf::NfEvent::alert("syn-flood", "flood from 10.0.0.9"),
            },
            SimTime::from_secs(5),
        );
        let critical = m.notifications().at_least(NotificationSeverity::Critical);
        assert_eq!(critical.len(), 1);
        assert!(critical[0].message.contains("ids-0"));
    }

    #[test]
    fn hotspot_detection_raises_warnings_via_tick() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        // A report showing 95% CPU.
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::Report(Box::new(gnf_telemetry::StationReport {
                station: StationId::new(0),
                agent: gnf_types::AgentId::new(0),
                produced_at: SimTime::from_secs(4),
                host_class: HostClass::HomeRouter,
                capacity: HostClass::HomeRouter.capacity(),
                usage: gnf_types::ResourceUsage {
                    cpu_fraction: 0.95,
                    memory_mb: 10,
                    disk_mb: 5,
                    rx_bps: 0.0,
                    tx_bps: 0.0,
                },
                connected_clients: vec![],
                running_nfs: 5,
                cached_images: 1,
                flow_cache: Default::default(),
                megaflow: Default::default(),
                batches: Default::default(),
                chaos: Default::default(),
            })),
            SimTime::from_secs(4),
        );
        m.tick(SimTime::from_secs(10));
        assert_eq!(m.stats().hotspot_alerts, 1);
        assert!(m.notifications().entries().any(|n| n.category == "hotspot"));
    }

    #[test]
    fn station_silence_raises_offline_notification_once() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::Report(Box::new(gnf_telemetry::StationReport {
                station: StationId::new(0),
                agent: gnf_types::AgentId::new(0),
                produced_at: SimTime::from_secs(2),
                host_class: HostClass::HomeRouter,
                capacity: HostClass::HomeRouter.capacity(),
                usage: gnf_types::ResourceUsage::IDLE,
                connected_clients: vec![],
                running_nfs: 0,
                cached_images: 0,
                flow_cache: Default::default(),
                megaflow: Default::default(),
                batches: Default::default(),
                chaos: Default::default(),
            })),
            SimTime::from_secs(2),
        );
        m.tick(SimTime::from_secs(60));
        m.tick(SimTime::from_secs(120));
        let offline: Vec<&Notification> = m
            .notifications()
            .entries()
            .filter(|n| n.category == "station-offline")
            .collect();
        assert_eq!(offline.len(), 1, "one notification per transition");
    }

    fn idle_report(station: u64, at: SimTime) -> Box<gnf_telemetry::StationReport> {
        Box::new(gnf_telemetry::StationReport {
            station: StationId::new(station),
            agent: gnf_types::AgentId::new(station),
            produced_at: at,
            host_class: HostClass::HomeRouter,
            capacity: HostClass::HomeRouter.capacity(),
            usage: gnf_types::ResourceUsage::IDLE,
            connected_clients: vec![],
            running_nfs: 0,
            cached_images: 0,
            flow_cache: Default::default(),
            megaflow: Default::default(),
            batches: Default::default(),
            chaos: Default::default(),
        })
    }

    /// The monitoring store is a hashed table; the offline notifications
    /// still come out one per station, in station order, whatever order the
    /// stations registered and reported in.
    #[test]
    fn offline_notifications_follow_station_order_not_registration_order() {
        let mut m = manager();
        let stations = [7, 3, 11, 0, 5, 14, 9, 1, 12, 6];
        for station in stations {
            register(&mut m, station, SimTime::ZERO);
            m.handle_agent_msg(
                StationId::new(station),
                AgentToManager::Report(idle_report(station, SimTime::from_secs(2))),
                SimTime::from_secs(2),
            );
        }
        m.tick(SimTime::from_secs(60));
        let offline: Vec<StationId> = m
            .notifications()
            .entries()
            .filter(|n| n.category == "station-offline")
            .map(|n| match n.source {
                NotificationSource::Station { station } => station,
                ref other => panic!("offline raised by {other:?}"),
            })
            .collect();
        let mut sorted = stations.map(StationId::new).to_vec();
        sorted.sort();
        assert_eq!(offline, sorted);
    }

    /// A station id is a key, not a position: a full report and a delta
    /// keyframe naming `StationId(u64::MAX)` each add one entry to their
    /// table and size nothing after it.
    #[test]
    fn reports_from_the_last_station_id_add_one_entry_each() {
        let mut m = manager();
        let last = u64::MAX;
        m.handle_agent_msg(
            StationId::new(last),
            AgentToManager::Report(idle_report(last, SimTime::from_secs(1))),
            SimTime::from_secs(1),
        );
        assert_eq!(m.monitoring().len(), 1);
        let keyframe = gnf_telemetry::ReportDelta::keyframe(
            &idle_report(last, SimTime::from_secs(2)),
            1,
            false,
        );
        m.handle_agent_msg(
            StationId::new(last),
            AgentToManager::ReportDelta(Box::new(keyframe)),
            SimTime::from_secs(2),
        );
        assert_eq!(m.control_plane_stats().delta_keyframes, 1);
        assert_eq!(m.monitoring().len(), 1);
        let health = m.monitoring().station(StationId::new(last)).unwrap();
        assert_eq!(health.reports_received, 2);
    }

    /// A station reports only for itself: a full report or a delta frame
    /// from station 1 that names station 2 is dropped and counted, and
    /// neither station's view changes.
    #[test]
    fn a_report_naming_another_station_is_dropped_and_counted() {
        let mut m = manager();
        register(&mut m, 1, SimTime::ZERO);
        register(&mut m, 2, SimTime::ZERO);
        let at = SimTime::from_secs(2);
        m.handle_agent_msg(
            StationId::new(2),
            AgentToManager::Report(idle_report(2, at)),
            at,
        );
        let views = |m: &Manager| {
            [1, 2].map(|s| format!("{:?}", m.monitoring().station(StationId::new(s))))
        };
        let before = views(&m);
        let at = SimTime::from_secs(4);
        m.handle_agent_msg(
            StationId::new(1),
            AgentToManager::Report(idle_report(2, at)),
            at,
        );
        let keyframe = gnf_telemetry::ReportDelta::keyframe(&idle_report(2, at), 1, false);
        m.handle_agent_msg(
            StationId::new(1),
            AgentToManager::ReportDelta(Box::new(keyframe)),
            at,
        );
        assert_eq!(views(&m), before);
        let stats = m.control_plane_stats();
        assert_eq!(stats.reports_rejected, 2);
        assert_eq!((stats.full_reports, stats.delta_keyframes), (1, 0));
    }

    /// A station registers only itself: a `Register` from station 1 that
    /// names station 2 is dropped and counted, so station 2's attachment
    /// survives and no rejoin is recorded.
    #[test]
    fn a_register_naming_another_station_is_dropped_and_counted() {
        let mut m = manager();
        register(&mut m, 1, SimTime::ZERO);
        register(&mut m, 2, SimTime::ZERO);
        connect_client(&mut m, 2, 0, SimTime::from_secs(1));
        let (chain, _) = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::from_secs(2),
            )
            .unwrap();
        m.handle_agent_msg(
            StationId::new(2),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(100),
                images_cached: true,
                migration: None,
            },
            SimTime::from_secs(3),
        );
        let actions = m.handle_agent_msg(
            StationId::new(1),
            AgentToManager::Register {
                agent: gnf_types::AgentId::new(1),
                station: StationId::new(2),
                host_class: HostClass::HomeRouter,
                capacity: HostClass::HomeRouter.capacity(),
            },
            SimTime::from_secs(20),
        );
        assert!(actions.is_empty(), "{actions:?}");
        let attachment = m.attachment(chain).unwrap();
        assert_eq!(attachment.station, Some(StationId::new(2)));
        assert!(attachment.active);
        assert_eq!(m.stats().station_rejoins, 0);
        assert_eq!(m.control_plane_stats().reports_rejected, 1);
    }

    #[test]
    fn scheduled_windows_enable_and_disable_chains() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        connect_client(&mut m, 0, 0, SimTime::from_secs(1));
        let window = Some((SimTime::from_secs(100), SimTime::from_secs(200)));
        let (chain, actions) = m
            .attach_chain_with_window(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                window,
                SimTime::from_secs(2),
            )
            .unwrap();
        // Outside the window: nothing deployed yet.
        assert!(actions.is_empty());
        assert!(m.tick(SimTime::from_secs(50)).is_empty());

        // Window opens.
        let actions = m.tick(SimTime::from_secs(100));
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            ManagerAction::Send {
                message: ManagerToAgent::DeployChain { .. },
                ..
            }
        ));
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(100),
                images_cached: true,
                migration: None,
            },
            SimTime::from_secs(101),
        );

        // Window closes.
        let actions = m.tick(SimTime::from_secs(210));
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            ManagerAction::Send {
                message: ManagerToAgent::RemoveChain { .. },
                ..
            }
        ));
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainRemoved {
                chain,
                client: ClientId::new(0),
                migration: None,
            },
            SimTime::from_secs(211),
        );
        // The attachment survives for the next window.
        let attachment = m.attachment(chain).unwrap();
        assert_eq!(attachment.station, None);
        assert!(!attachment.active);
    }

    #[test]
    fn failed_commands_mark_migrations_failed() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        register(&mut m, 1, SimTime::ZERO);
        connect_client(&mut m, 0, 0, SimTime::from_secs(1));
        let (chain, _) = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::from_secs(2),
            )
            .unwrap();
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(100),
                images_cached: true,
                migration: None,
            },
            SimTime::from_secs(3),
        );
        let actions = connect_client(&mut m, 1, 0, SimTime::from_secs(10));
        let ManagerAction::Send { message, .. } = &actions[0];
        let ManagerToAgent::CheckpointChain { migration, .. } = message else {
            panic!()
        };
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::CommandFailed {
                chain: Some(chain),
                error: GnfError::internal("checkpoint failed"),
                migration: Some(*migration),
            },
            SimTime::from_secs(11),
        );
        assert_eq!(m.stats().migrations_failed, 1);
        assert_eq!(m.migrations().next().unwrap().phase, MigrationPhase::Failed);
    }

    #[test]
    fn timed_out_migrations_roll_back_and_retry_with_backoff() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        register(&mut m, 1, SimTime::ZERO);
        connect_client(&mut m, 0, 0, SimTime::from_secs(1));
        let (chain, _) = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::from_secs(2),
            )
            .unwrap();
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(200),
                images_cached: false,
                migration: None,
            },
            SimTime::from_secs(3),
        );
        // The client roams; the checkpoint command to station 0 is lost.
        connect_client(&mut m, 1, 0, SimTime::from_secs(10));
        assert_eq!(m.stats().migrations_started, 1);

        // Deadline (10 s + 20 s default) passes: the migration is aborted,
        // the attachment still points at the serving source, and a backoff
        // retry is scheduled.
        m.tick(SimTime::from_secs(30));
        assert_eq!(m.stats().migrations_timed_out, 1);
        assert_eq!(
            m.migrations().next().unwrap().phase,
            MigrationPhase::TimedOut
        );
        let attachment = m.attachment(chain).unwrap();
        assert_eq!(attachment.station, Some(StationId::new(0)));
        assert!(attachment.active, "source keeps serving after the abort");

        // The retry (base backoff 500 ms) launches a fresh migration.
        let actions = m.tick(SimTime::from_secs(31));
        assert_eq!(m.stats().migration_retries, 1);
        assert_eq!(m.stats().migrations_started, 2);
        assert_eq!(actions.len(), 1);
        let ManagerAction::Send { station, message } = &actions[0];
        assert_eq!(*station, StationId::new(0));
        let ManagerToAgent::CheckpointChain { migration, .. } = message else {
            panic!("expected a retry checkpoint, got {message:?}");
        };
        let retry_id = *migration;

        // This time the checkpoint succeeds and the migration completes.
        let actions = m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainState {
                chain,
                client: ClientId::new(0),
                migration: retry_id,
                state: vec![],
                checkpoint_latency: SimDuration::from_millis(20),
            },
            SimTime::from_secs(32),
        );
        assert_eq!(actions.len(), 1);
        m.handle_agent_msg(
            StationId::new(1),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(250),
                images_cached: true,
                migration: Some(retry_id),
            },
            SimTime::from_secs(33),
        );
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainRemoved {
                chain,
                client: ClientId::new(0),
                migration: Some(retry_id),
            },
            SimTime::from_secs(34),
        );
        let retry = m.migrations().find(|r| r.id == retry_id).unwrap();
        assert_eq!(retry.phase, MigrationPhase::Complete);
        assert_eq!(retry.attempt, 1);
        assert_eq!(m.stats().migrations_completed, 1);
        let attachment = m.attachment(chain).unwrap();
        assert_eq!(attachment.station, Some(StationId::new(1)));
        assert!(attachment.active);
    }

    #[test]
    fn station_reregistration_resets_its_attachments() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        connect_client(&mut m, 0, 0, SimTime::from_secs(1));
        let (chain, _) = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::from_secs(2),
            )
            .unwrap();
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(100),
                images_cached: true,
                migration: None,
            },
            SimTime::from_secs(3),
        );
        assert!(m.attachment(chain).unwrap().active);

        // The station crashes and re-registers: its soft state is gone, so
        // the Manager must forget what it believed was deployed there.
        register(&mut m, 0, SimTime::from_secs(20));
        assert_eq!(m.stats().station_rejoins, 1);
        let attachment = m.attachment(chain).unwrap();
        assert_eq!(attachment.station, None);
        assert!(!attachment.active);

        // The client re-associating triggers a plain redeploy.
        let actions = connect_client(&mut m, 0, 0, SimTime::from_secs(21));
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            ManagerAction::Send {
                message: ManagerToAgent::DeployChain { .. },
                ..
            }
        ));
    }

    #[test]
    fn duplicate_deploy_failure_on_a_migration_counts_as_success() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        register(&mut m, 1, SimTime::ZERO);
        connect_client(&mut m, 0, 0, SimTime::from_secs(1));
        let (chain, _) = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::from_secs(2),
            )
            .unwrap();
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(100),
                images_cached: true,
                migration: None,
            },
            SimTime::from_secs(3),
        );
        let actions = connect_client(&mut m, 1, 0, SimTime::from_secs(10));
        let ManagerAction::Send { message, .. } = &actions[0];
        let ManagerToAgent::CheckpointChain { migration, .. } = message else {
            panic!()
        };
        let id = *migration;
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainState {
                chain,
                client: ClientId::new(0),
                migration: id,
                state: vec![],
                checkpoint_latency: SimDuration::from_millis(10),
            },
            SimTime::from_secs(11),
        );
        // The target rejects the deploy as a duplicate (an earlier attempt
        // already landed): the Manager treats it as a late success and moves
        // on to removing the source instance.
        let actions = m.handle_agent_msg(
            StationId::new(1),
            AgentToManager::CommandFailed {
                chain: Some(chain),
                error: GnfError::already_exists("chain", chain),
                migration: Some(id),
            },
            SimTime::from_secs(12),
        );
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            ManagerAction::Send {
                station,
                message: ManagerToAgent::RemoveChain { .. },
            } if station == StationId::new(0)
        ));
        assert_eq!(m.stats().migrations_failed, 0);
        assert_eq!(
            m.migrations().next().unwrap().phase,
            MigrationPhase::RemovingOld
        );
        let attachment = m.attachment(chain).unwrap();
        assert_eq!(attachment.station, Some(StationId::new(1)));
        assert!(attachment.active);
    }

    #[test]
    fn message_counters_track_control_plane_load() {
        let mut m = manager();
        register(&mut m, 0, SimTime::ZERO);
        connect_client(&mut m, 0, 0, SimTime::from_secs(1));
        let stats = m.stats();
        assert_eq!(stats.messages_received, 2);
        assert!(stats.messages_sent >= 1);
    }

    /// Sets up a make-before-break Manager with a chain serving client 0 on
    /// station 0 and the client roamed to station 1, returning (chain,
    /// migration id, whether the checkpoint retains a baseline) with the
    /// migration stopped waiting for the source's state.
    fn start_stateful_migration(m: &mut Manager) -> (ChainId, MigrationId, bool) {
        register(m, 0, SimTime::ZERO);
        register(m, 1, SimTime::ZERO);
        connect_client(m, 0, 0, SimTime::from_secs(1));
        let (chain, _) = m
            .attach_chain(
                ClientId::new(0),
                firewall_spec(),
                TrafficSelector::all(),
                SimTime::from_secs(2),
            )
            .unwrap();
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(200),
                images_cached: false,
                migration: None,
            },
            SimTime::from_secs(3),
        );
        let actions = connect_client(m, 1, 0, SimTime::from_secs(10));
        assert_eq!(actions.len(), 1);
        let ManagerAction::Send { station, message } = &actions[0];
        assert_eq!(*station, StationId::new(0));
        let ManagerToAgent::CheckpointChain {
            migration,
            retain_baseline,
            ..
        } = message
        else {
            panic!("expected a checkpoint command, got {message:?}");
        };
        (chain, *migration, *retain_baseline)
    }

    /// [`start_stateful_migration`] on a pre-copy Manager: the pipeline is
    /// stopped in `AwaitingPreCopy`.
    fn start_precopy_migration(m: &mut Manager) -> (ChainId, MigrationId) {
        let (chain, migration, retain_baseline) = start_stateful_migration(m);
        assert!(retain_baseline, "pre-copy must retain the baseline");
        (chain, migration)
    }

    #[test]
    fn precopy_migration_runs_the_full_pipeline() {
        let mut m = Manager::new(GnfConfig::default().with_migration_precopy(true));
        let (chain, migration) = start_precopy_migration(&mut m);
        let record = m.migrations().find(|r| r.id == migration).unwrap();
        assert!(record.precopy);
        assert_eq!(record.phase, MigrationPhase::AwaitingPreCopy);
        // The attachment keeps pointing at the serving source all the way to
        // switchover.
        let attachment = m.attachment(chain).unwrap();
        assert_eq!(attachment.station, Some(StationId::new(0)));
        assert!(attachment.active);

        // Source ships the baseline → the Manager stages it on the target.
        let baseline = vec![NfStateSnapshot::Firewall {
            established: StateTable::default(),
        }];
        let actions = m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainState {
                chain,
                client: ClientId::new(0),
                migration,
                state: baseline,
                checkpoint_latency: SimDuration::from_millis(30),
            },
            SimTime::from_millis(10_100),
        );
        assert_eq!(actions.len(), 1);
        let ManagerAction::Send { station, message } = &actions[0];
        assert_eq!(*station, StationId::new(1));
        assert!(matches!(message, ManagerToAgent::PrepareChain { .. }));
        assert_eq!(
            m.migrations().find(|r| r.id == migration).unwrap().phase,
            MigrationPhase::Preparing
        );

        // Target confirms the staging → switchover opens: delta requested.
        let actions = m.handle_agent_msg(
            StationId::new(1),
            AgentToManager::ChainPrepared {
                chain,
                client: ClientId::new(0),
                migration,
                latency: SimDuration::from_millis(400),
                images_cached: false,
            },
            SimTime::from_millis(10_600),
        );
        assert_eq!(actions.len(), 1);
        let ManagerAction::Send { station, message } = &actions[0];
        assert_eq!(*station, StationId::new(0));
        assert!(matches!(message, ManagerToAgent::DeltaChain { .. }));
        let record = m.migrations().find(|r| r.id == migration).unwrap();
        assert_eq!(record.phase, MigrationPhase::AwaitingDelta);
        assert_eq!(
            record.switchover_started_at,
            Some(SimTime::from_millis(10_600))
        );
        // Still serving from the source.
        assert_eq!(
            m.attachment(chain).unwrap().station,
            Some(StationId::new(0))
        );

        // Source ships the dirty delta → activation on the target.
        let actions = m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainDelta {
                chain,
                client: ClientId::new(0),
                migration,
                deltas: vec![NfStateDelta::Unchanged],
                checkpoint_latency: SimDuration::from_millis(1),
            },
            SimTime::from_millis(10_650),
        );
        assert_eq!(actions.len(), 1);
        let ManagerAction::Send { station, message } = &actions[0];
        assert_eq!(*station, StationId::new(1));
        assert!(matches!(message, ManagerToAgent::ActivateChain { .. }));

        // Target activates (reports ChainDeployed) → old side torn down.
        let actions = m.handle_agent_msg(
            StationId::new(1),
            AgentToManager::ChainDeployed {
                chain,
                client: ClientId::new(0),
                latency: SimDuration::from_millis(5),
                images_cached: true,
                migration: Some(migration),
            },
            SimTime::from_millis(10_700),
        );
        assert_eq!(actions.len(), 1);
        let ManagerAction::Send { station, message } = &actions[0];
        assert_eq!(*station, StationId::new(0));
        assert!(matches!(message, ManagerToAgent::RemoveChain { .. }));
        let attachment = m.attachment(chain).unwrap();
        assert_eq!(attachment.station, Some(StationId::new(1)));
        assert!(attachment.active);

        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainRemoved {
                chain,
                client: ClientId::new(0),
                migration: Some(migration),
            },
            SimTime::from_millis(10_900),
        );
        let record = m.migrations().find(|r| r.id == migration).unwrap();
        assert_eq!(record.phase, MigrationPhase::Complete);
        // Switchover downtime counts only the delta window (10.6s → 10.7s),
        // not the whole migration (10s → 10.7s).
        assert_eq!(
            record.switchover_downtime().unwrap(),
            SimDuration::from_millis(100)
        );
        assert_eq!(record.downtime().unwrap(), SimDuration::from_millis(700));
    }

    #[test]
    fn timed_out_precopy_migration_cleans_up_the_staged_target() {
        let mut m = Manager::new(GnfConfig::default().with_migration_precopy(true));
        let (chain, migration) = start_precopy_migration(&mut m);
        // Baseline arrives, staging starts... and then nothing: the
        // PrepareChain reply is lost.
        m.handle_agent_msg(
            StationId::new(0),
            AgentToManager::ChainState {
                chain,
                client: ClientId::new(0),
                migration,
                state: vec![NfStateSnapshot::Firewall {
                    established: StateTable::default(),
                }],
                checkpoint_latency: SimDuration::from_millis(30),
            },
            SimTime::from_millis(10_100),
        );

        // Past the deadline the abort must (a) keep the source serving and
        // (b) tear the possibly-staged chain off the target so no stale
        // baseline survives to the retry.
        let deadline = SimTime::from_secs(10) + GnfConfig::default().migration_deadline;
        let actions = m.tick(deadline + SimDuration::from_secs(1));
        let cleanup = actions
            .iter()
            .filter(|a| {
                let ManagerAction::Send { station, message } = a;
                *station == StationId::new(1)
                    && matches!(
                        message,
                        ManagerToAgent::RemoveChain {
                            migration: Some(id),
                            ..
                        } if *id == migration
                    )
            })
            .count();
        assert_eq!(cleanup, 1);
        let record = m.migrations().find(|r| r.id == migration).unwrap();
        assert_eq!(record.phase, MigrationPhase::TimedOut);
        let attachment = m.attachment(chain).unwrap();
        assert_eq!(attachment.station, Some(StationId::new(0)));
        assert!(attachment.active);
        // The cleanup's confirmation must not resurrect the aborted record.
        m.handle_agent_msg(
            StationId::new(1),
            AgentToManager::ChainRemoved {
                chain,
                client: ClientId::new(0),
                migration: Some(migration),
            },
            deadline + SimDuration::from_secs(2),
        );
        assert_eq!(
            m.migrations().find(|r| r.id == migration).unwrap().phase,
            MigrationPhase::TimedOut
        );
    }

    /// A reply of every kind `advance` understands, addressed to `migration`.
    fn replies_for(chain: ChainId, migration: MigrationId) -> [AgentToManager; 3] {
        let client = ClientId::new(0);
        [
            AgentToManager::ChainState {
                chain,
                client,
                migration,
                state: vec![NfStateSnapshot::Firewall {
                    established: StateTable::default(),
                }],
                checkpoint_latency: SimDuration::from_millis(30),
            },
            AgentToManager::ChainPrepared {
                chain,
                client,
                migration,
                latency: SimDuration::from_millis(400),
                images_cached: false,
            },
            AgentToManager::ChainDelta {
                chain,
                client,
                migration,
                deltas: vec![NfStateDelta::Unchanged],
                checkpoint_latency: SimDuration::from_millis(1),
            },
        ]
    }

    /// A copy of the record, to compare field for field (`gnf-manager` has no
    /// JSON dependency; the derived `PartialEq` covers every field).
    fn record_of(m: &Manager, migration: MigrationId) -> MigrationRecord {
        m.migrations().find(|r| r.id == migration).unwrap().clone()
    }

    #[test]
    fn only_the_four_table_pairs_advance_a_migration() {
        use MigrationPhase::*;
        const PHASES: [MigrationPhase; 10] = [
            AwaitingState,
            AwaitingPreCopy,
            Preparing,
            AwaitingDelta,
            SwitchingOver,
            Deploying,
            RemovingOld,
            Complete,
            Failed,
            TimedOut,
        ];
        let (source, target) = (StationId::new(0), StationId::new(1));
        let now = SimTime::from_millis(10_500);
        for precopy in [false, true] {
            for phase in PHASES {
                for kind in 0..3 {
                    let mut m = Manager::new(GnfConfig::default().with_migration_precopy(true));
                    let (chain, migration) = start_precopy_migration(&mut m);
                    let record = m.migrations.get_mut(&migration).unwrap();
                    record.phase = phase;
                    // The table is keyed on the phase alone: a wrong-mode
                    // pair (say a delta for a monolithic record) can only
                    // arrive in a phase that ignores it.
                    record.precopy = precopy;
                    let before = record_of(&m, migration);
                    let reply = replies_for(chain, migration)[kind].clone();
                    let actions = m.handle_agent_msg(source, reply, now);
                    let after = m.migrations().find(|r| r.id == migration).unwrap();
                    let expected = match (phase, kind) {
                        (AwaitingState, 0) => Some((Deploying, target)),
                        (AwaitingPreCopy, 0) => Some((Preparing, target)),
                        (Preparing, 1) => Some((AwaitingDelta, source)),
                        (AwaitingDelta, 2) => Some((SwitchingOver, target)),
                        _ => None,
                    };
                    let Some((next, to)) = expected else {
                        assert!(actions.is_empty(), "{phase:?} × reply {kind}: {actions:?}");
                        assert_eq!(record_of(&m, migration), before, "{phase:?} × reply {kind}");
                        continue;
                    };
                    assert_eq!(after.phase, next);
                    assert_eq!(actions.len(), 1, "{phase:?} × reply {kind}");
                    let ManagerAction::Send { station, message } = &actions[0];
                    assert_eq!(*station, to);
                    assert_eq!(message.migration(), Some(migration));
                    let command_fits = match next {
                        Deploying => matches!(
                            message,
                            ManagerToAgent::DeployChain {
                                restore_state: Some(state),
                                ..
                            } if state.len() == 1
                        ),
                        Preparing => matches!(
                            message,
                            ManagerToAgent::PrepareChain { precopy_state, .. }
                                if precopy_state.len() == 1
                        ),
                        AwaitingDelta => matches!(message, ManagerToAgent::DeltaChain { .. }),
                        _ => matches!(
                            message,
                            ManagerToAgent::ActivateChain { deltas, .. } if deltas.len() == 1
                        ),
                    };
                    assert!(command_fits, "{phase:?} × reply {kind}: {message:?}");
                    assert_eq!(
                        after.switchover_started_at,
                        (next == AwaitingDelta).then_some(now)
                    );
                }
            }
        }

        // A reply naming a migration the Manager never opened is ignored.
        let mut m = Manager::new(GnfConfig::default().with_migration_precopy(true));
        let (chain, migration) = start_precopy_migration(&mut m);
        let before = record_of(&m, migration);
        for reply in replies_for(chain, MigrationId::new(99)) {
            assert!(m.handle_agent_msg(source, reply, now).is_empty());
        }
        assert_eq!(record_of(&m, migration), before);
        assert_eq!(m.migrations().count(), 1);
    }

    #[test]
    fn late_state_for_a_detached_chain_leaves_the_record_untouched() {
        for precopy in [false, true] {
            let mut m = Manager::new(GnfConfig::default().with_migration_precopy(precopy));
            let (chain, migration, retain_baseline) = start_stateful_migration(&mut m);
            assert_eq!(retain_baseline, precopy);
            // The operator detaches the chain while the checkpoint is out.
            let actions = m.detach_chain(chain, SimTime::from_millis(10_050)).unwrap();
            assert_eq!(actions.len(), 1);
            m.handle_agent_msg(
                StationId::new(0),
                AgentToManager::ChainRemoved {
                    chain,
                    client: ClientId::new(0),
                    migration: None,
                },
                SimTime::from_millis(10_080),
            );
            assert!(m.attachment(chain).is_none());

            // The checkpoint lands after all: there is nothing left to
            // deploy, so the record must not claim a command went out.
            let before = record_of(&m, migration);
            let state = replies_for(chain, migration)[0].clone();
            let actions =
                m.handle_agent_msg(StationId::new(0), state, SimTime::from_millis(10_100));
            assert!(actions.is_empty());
            assert_eq!(record_of(&m, migration), before);

            // The deadline sweep times the orphan out; its retry finds no
            // attachment and launches nothing.
            let deadline = SimTime::from_secs(10) + m.config().migration_deadline;
            assert!(m.tick(deadline + SimDuration::from_secs(1)).is_empty());
            let record = m.migrations().find(|r| r.id == migration).unwrap();
            assert_eq!(record.phase, MigrationPhase::TimedOut);
            assert!(m
                .tick(deadline + m.config().migration_backoff_cap * 2)
                .is_empty());
            assert_eq!(m.stats().migration_retries, 0);
            assert_eq!(m.migrations().count(), 1);
        }
    }
}
