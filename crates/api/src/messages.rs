//! The typed messages exchanged between the GNF Manager and its Agents.
//!
//! The paper describes the Manager as "providing a set of APIs to control the
//! state of NFs' containers across all stations and keeping a connection with
//! all the Agents in the network"; Agents notify it of client
//! (dis)connections, report device state periodically and relay NF
//! notifications. These enums are that API, in both directions.

use gnf_nf::{NfEvent, NfSpec, NfStateDelta, NfStateSnapshot};
use gnf_switch::TrafficSelector;
use gnf_telemetry::{ReportDelta, StationReport};
use gnf_types::{
    AgentId, ChainId, ClientId, GnfError, HostClass, MacAddr, MigrationId, ResourceSpec,
    SimDuration, StationId,
};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Commands the Manager sends to an Agent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ManagerToAgent {
    /// Acknowledge the Agent's registration.
    RegisterAck {
        /// The station id the Manager assigned/confirmed.
        station: StationId,
    },
    /// Deploy a service chain for a client's traffic.
    DeployChain {
        /// Chain identifier allocated by the Manager.
        chain: ChainId,
        /// The client whose traffic is steered through the chain.
        client: ClientId,
        /// The client's MAC address (what steering matches on).
        client_mac: MacAddr,
        /// Ordered NF specs making up the chain.
        specs: Vec<NfSpec>,
        /// Which subset of the client's traffic to divert.
        selector: TrafficSelector,
        /// NF state to restore into the chain (present when this deployment
        /// is the target side of a migration).
        restore_state: Option<Vec<NfStateSnapshot>>,
        /// The migration this deployment belongs to, if any.
        migration: Option<MigrationId>,
    },
    /// Tear down a client's chain.
    RemoveChain {
        /// The chain to remove.
        chain: ChainId,
        /// The client it belonged to.
        client: ClientId,
        /// The migration this removal belongs to, if any.
        migration: Option<MigrationId>,
    },
    /// Checkpoint the chain's NF state and send it back (source side of a
    /// migration). The source keeps serving traffic throughout.
    CheckpointChain {
        /// The chain to checkpoint.
        chain: ChainId,
        /// The client it belongs to.
        client: ClientId,
        /// The migration the checkpoint belongs to.
        migration: MigrationId,
        /// Pre-copy: also retain the exported state as the baseline a later
        /// [`ManagerToAgent::DeltaChain`] diffs against.
        retain_baseline: bool,
    },
    /// Pre-copy, target side: deploy the chain's containers and
    /// import the shipped baseline, but install **no steering** — the chain
    /// is staged, not serving, until [`ManagerToAgent::ActivateChain`].
    PrepareChain {
        /// Chain identifier allocated by the Manager.
        chain: ChainId,
        /// The client whose traffic will be steered through the chain.
        client: ClientId,
        /// The client's MAC address (what steering will match on).
        client_mac: MacAddr,
        /// Ordered NF specs making up the chain.
        specs: Vec<NfSpec>,
        /// Which subset of the client's traffic to divert once activated.
        selector: TrafficSelector,
        /// The pre-copied baseline state, in chain order.
        precopy_state: Vec<NfStateSnapshot>,
        /// The migration this staging belongs to.
        migration: MigrationId,
    },
    /// Pre-copy, source side: diff the chain's current state against the
    /// baseline retained by a [`ManagerToAgent::CheckpointChain`] with
    /// `retain_baseline` and send back only the dirty delta.
    DeltaChain {
        /// The chain to diff.
        chain: ChainId,
        /// The client it belongs to.
        client: ClientId,
        /// The migration the delta belongs to.
        migration: MigrationId,
    },
    /// Pre-copy, target side: replay the delta onto the staged
    /// baseline and install steering — the switchover proper.
    ActivateChain {
        /// The staged chain to activate.
        chain: ChainId,
        /// The client it serves.
        client: ClientId,
        /// The migration being switched over.
        migration: MigrationId,
        /// Per-NF dirty deltas in chain order.
        deltas: Vec<NfStateDelta>,
    },
    /// Liveness probe.
    Ping,
}

/// Messages an Agent sends to the Manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AgentToManager {
    /// First message after the Agent starts: announce the station.
    Register {
        /// The Agent's identifier.
        agent: AgentId,
        /// The station the Agent runs on.
        station: StationId,
        /// Hardware class of the station.
        host_class: HostClass,
        /// Total capacity of the station.
        capacity: ResourceSpec,
    },
    /// A client associated with this station's cell.
    ClientConnected {
        /// The client.
        client: ClientId,
        /// Its MAC address.
        mac: MacAddr,
        /// The address it was assigned.
        ip: Ipv4Addr,
    },
    /// A client left this station's cell.
    ClientDisconnected {
        /// The client.
        client: ClientId,
    },
    /// Periodic station state report (boxed: the report dwarfs every other
    /// message, and boxing keeps the enum small for the common variants).
    Report(Box<StationReport>),
    /// Delta-encoded periodic report: a keyframe or a cumulative delta
    /// against the current keyframe (see `gnf_telemetry::delta`). Replaces
    /// `Report` when delta reporting is enabled; the receiver reconstructs
    /// the identical full report through a `ReportReassembler`.
    ReportDelta(Box<ReportDelta>),
    /// A chain finished deploying.
    ChainDeployed {
        /// The chain.
        chain: ChainId,
        /// The client it serves.
        client: ClientId,
        /// End-to-end deployment latency on the station.
        latency: SimDuration,
        /// True when every image was already cached locally.
        images_cached: bool,
        /// The migration this deployment completed, if any.
        migration: Option<MigrationId>,
    },
    /// A chain was removed.
    ChainRemoved {
        /// The chain.
        chain: ChainId,
        /// The client it served.
        client: ClientId,
        /// The migration this removal belonged to, if any.
        migration: Option<MigrationId>,
    },
    /// The requested checkpoint of a chain's NF state (reply to
    /// [`ManagerToAgent::CheckpointChain`]; under `retain_baseline` the source
    /// kept a copy for the later delta).
    ChainState {
        /// The chain.
        chain: ChainId,
        /// The client it serves.
        client: ClientId,
        /// The migration the state belongs to.
        migration: MigrationId,
        /// Per-NF state snapshots in chain order.
        state: Vec<NfStateSnapshot>,
        /// How long the checkpoint took on the station.
        checkpoint_latency: SimDuration,
    },
    /// A staged chain finished deploying on the migration target (reply to
    /// [`ManagerToAgent::PrepareChain`]). The chain is not serving yet.
    ChainPrepared {
        /// The chain.
        chain: ChainId,
        /// The client it will serve.
        client: ClientId,
        /// The migration the staging belongs to.
        migration: MigrationId,
        /// End-to-end staging latency on the station (container deploys plus
        /// baseline restore).
        latency: SimDuration,
        /// True when every image was already cached locally.
        images_cached: bool,
    },
    /// The dirty delta between a chain's current state and its retained
    /// pre-copy baseline (reply to [`ManagerToAgent::DeltaChain`]).
    ChainDelta {
        /// The chain.
        chain: ChainId,
        /// The client it serves.
        client: ClientId,
        /// The migration the delta belongs to.
        migration: MigrationId,
        /// Per-NF dirty deltas in chain order.
        deltas: Vec<NfStateDelta>,
        /// How long the delta checkpoint took on the station.
        checkpoint_latency: SimDuration,
    },
    /// An NF relayed an event (intrusion attempt, blocked URL, ...).
    NfNotification {
        /// The chain containing the NF.
        chain: ChainId,
        /// The client the NF serves.
        client: ClientId,
        /// Name of the NF instance that raised the event.
        nf_name: String,
        /// The event itself.
        event: NfEvent,
    },
    /// A command failed on the Agent.
    CommandFailed {
        /// Which chain the failure concerns, if any.
        chain: Option<ChainId>,
        /// The error.
        error: GnfError,
        /// The migration affected, if any.
        migration: Option<MigrationId>,
    },
    /// Reply to a ping.
    Pong,
}

impl ManagerToAgent {
    /// The migration this command belongs to; `None` for commands outside
    /// the migration lifecycle (plain deploys and removals included).
    pub fn migration(&self) -> Option<MigrationId> {
        match self {
            ManagerToAgent::DeployChain { migration, .. }
            | ManagerToAgent::RemoveChain { migration, .. } => *migration,
            ManagerToAgent::CheckpointChain { migration, .. }
            | ManagerToAgent::PrepareChain { migration, .. }
            | ManagerToAgent::DeltaChain { migration, .. }
            | ManagerToAgent::ActivateChain { migration, .. } => Some(*migration),
            ManagerToAgent::RegisterAck { .. } | ManagerToAgent::Ping => None,
        }
    }
}

impl AgentToManager {
    /// How long the command this message answers kept the station busy
    /// (deployments, checkpoints, staged restores, delta replays): the reply
    /// leaves the station that much later. `None` for messages that report
    /// no station-side work.
    pub fn station_latency(&self) -> Option<SimDuration> {
        match self {
            AgentToManager::ChainDeployed { latency, .. }
            | AgentToManager::ChainPrepared { latency, .. } => Some(*latency),
            AgentToManager::ChainState {
                checkpoint_latency, ..
            }
            | AgentToManager::ChainDelta {
                checkpoint_latency, ..
            } => Some(*checkpoint_latency),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_nf::testing::sample_specs;
    use gnf_types::SimTime;

    #[test]
    fn messages_roundtrip_through_json() {
        let deploy = ManagerToAgent::DeployChain {
            chain: ChainId::new(1),
            client: ClientId::new(2),
            client_mac: MacAddr::derived(1, 2),
            specs: sample_specs(),
            selector: TrafficSelector::all(),
            restore_state: Some(vec![NfStateSnapshot::Stateless]),
            migration: Some(MigrationId::new(5)),
        };
        let json = serde_json::to_string(&deploy).unwrap();
        let back: ManagerToAgent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, deploy);

        let register = AgentToManager::Register {
            agent: AgentId::new(1),
            station: StationId::new(1),
            host_class: HostClass::HomeRouter,
            capacity: HostClass::HomeRouter.capacity(),
        };
        let json = serde_json::to_string(&register).unwrap();
        let back: AgentToManager = serde_json::from_str(&json).unwrap();
        assert_eq!(back, register);
    }

    #[test]
    fn accessors_know_the_migration_and_latency_of_every_variant() {
        let (chain, client) = (ChainId::new(1), ClientId::new(1));
        let migration = MigrationId::new(1);
        let deploy = |migration| ManagerToAgent::DeployChain {
            chain,
            client,
            client_mac: MacAddr::derived(1, 1),
            specs: sample_specs(),
            selector: TrafficSelector::all(),
            restore_state: None,
            migration,
        };
        let m2a = [
            (
                ManagerToAgent::RegisterAck {
                    station: StationId::new(1),
                },
                None,
            ),
            (deploy(None), None),
            (deploy(Some(migration)), Some(migration)),
            (
                ManagerToAgent::RemoveChain {
                    chain,
                    client,
                    migration: None,
                },
                None,
            ),
            (
                ManagerToAgent::RemoveChain {
                    chain,
                    client,
                    migration: Some(migration),
                },
                Some(migration),
            ),
            (
                ManagerToAgent::CheckpointChain {
                    chain,
                    client,
                    migration,
                    retain_baseline: false,
                },
                Some(migration),
            ),
            (
                ManagerToAgent::CheckpointChain {
                    chain,
                    client,
                    migration,
                    retain_baseline: true,
                },
                Some(migration),
            ),
            (
                ManagerToAgent::PrepareChain {
                    chain,
                    client,
                    client_mac: MacAddr::derived(1, 1),
                    specs: sample_specs(),
                    selector: TrafficSelector::all(),
                    precopy_state: vec![NfStateSnapshot::Stateless],
                    migration,
                },
                Some(migration),
            ),
            (
                ManagerToAgent::DeltaChain {
                    chain,
                    client,
                    migration,
                },
                Some(migration),
            ),
            (
                ManagerToAgent::ActivateChain {
                    chain,
                    client,
                    migration,
                    deltas: vec![NfStateDelta::Unchanged],
                },
                Some(migration),
            ),
            (ManagerToAgent::Ping, None),
        ];
        for (msg, expected) in m2a {
            assert_eq!(msg.migration(), expected, "{msg:?}");
        }

        let ms = SimDuration::from_millis;
        let a2m = [
            (AgentToManager::ClientDisconnected { client }, None),
            (
                AgentToManager::ChainDeployed {
                    chain,
                    client,
                    latency: ms(250),
                    images_cached: false,
                    migration: None,
                },
                Some(ms(250)),
            ),
            (
                AgentToManager::ChainRemoved {
                    chain,
                    client,
                    migration: None,
                },
                None,
            ),
            (
                AgentToManager::ChainState {
                    chain,
                    client,
                    migration,
                    state: vec![NfStateSnapshot::Stateless],
                    checkpoint_latency: ms(3),
                },
                Some(ms(3)),
            ),
            (
                AgentToManager::ChainPrepared {
                    chain,
                    client,
                    migration,
                    latency: ms(40),
                    images_cached: true,
                },
                Some(ms(40)),
            ),
            (
                AgentToManager::ChainDelta {
                    chain,
                    client,
                    migration,
                    deltas: vec![NfStateDelta::Unchanged],
                    checkpoint_latency: ms(1),
                },
                Some(ms(1)),
            ),
            (AgentToManager::Pong, None),
            (
                AgentToManager::CommandFailed {
                    chain: None,
                    error: GnfError::internal("x"),
                    migration: None,
                },
                None,
            ),
            (
                AgentToManager::ReportDelta(Box::new(ReportDelta {
                    station: StationId::new(1),
                    agent: AgentId::new(1),
                    produced_at: SimTime::from_secs(1),
                    generation: 1,
                    seq: 1,
                    forced: false,
                    identity: None,
                    usage: None,
                    clients: None,
                    nfs: None,
                    flow_cache: None,
                    megaflow: None,
                    batches: None,
                    chaos: None,
                })),
                None,
            ),
        ];
        for (msg, expected) in a2m {
            assert_eq!(msg.station_latency(), expected, "{msg:?}");
        }
    }

    #[test]
    fn report_delta_roundtrips_through_json() {
        let frame = ReportDelta {
            station: StationId::new(9),
            agent: AgentId::new(9),
            produced_at: SimTime::from_secs(4),
            generation: 3,
            seq: 2,
            forced: false,
            identity: None,
            usage: None,
            clients: Some(vec![ClientId::new(1), ClientId::new(2)]),
            nfs: None,
            flow_cache: None,
            megaflow: None,
            batches: None,
            chaos: None,
        };
        let msg = AgentToManager::ReportDelta(Box::new(frame));
        let json = serde_json::to_string(&msg).unwrap();
        assert!(
            !json.contains("null"),
            "absent sections are omitted: {json}"
        );
        let back: AgentToManager = serde_json::from_str(&json).unwrap();
        assert_eq!(msg, back);
    }

    #[test]
    fn precopy_messages_roundtrip_through_json() {
        let prepare = ManagerToAgent::PrepareChain {
            chain: ChainId::new(3),
            client: ClientId::new(4),
            client_mac: MacAddr::derived(3, 4),
            specs: sample_specs(),
            selector: TrafficSelector::all(),
            precopy_state: vec![NfStateSnapshot::Stateless],
            migration: MigrationId::new(9),
        };
        let json = serde_json::to_string(&prepare).unwrap();
        let back: ManagerToAgent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, prepare);

        let delta = AgentToManager::ChainDelta {
            chain: ChainId::new(3),
            client: ClientId::new(4),
            migration: MigrationId::new(9),
            deltas: vec![NfStateDelta::Unchanged],
            checkpoint_latency: SimDuration::from_millis(2),
        };
        let json = serde_json::to_string(&delta).unwrap();
        let back: AgentToManager = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
    }
}
