//! Hostile-sequence properties for the two halves of the migration engine:
//! whatever order, multiplicity or subset of an otherwise valid exchange
//! reaches the Manager's transition function or an Agent's chain lifecycle,
//! the answer is a typed reply or a no-op — never a panic, a migration
//! completed twice, a chain serving where nothing confirmed a deploy, a
//! staged chain that owns steering, or an in-flight index that disagrees
//! with the migration records.

use gnf_agent::{Agent, AgentConfig};
use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_container::ImageRepository;
use gnf_manager::{Manager, ManagerAction, MigrationPhase};
use gnf_nf::testing::sample_specs;
use gnf_nf::{Direction, NfSpec, NfStateDelta, NfStateSnapshot};
use gnf_packet::{builder, PacketBatch};
use gnf_switch::TrafficSelector;
use gnf_types::{
    AgentId, ChainId, ClientId, GnfConfig, HostClass, MacAddr, MigrationId, SimDuration, SimTime,
    StationId,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, VecDeque};
use std::net::Ipv4Addr;

const CLIENT: ClientId = ClientId::new(0);

fn client_mac() -> MacAddr {
    MacAddr::derived(1, 0)
}

fn client_ip() -> Ipv4Addr {
    Ipv4Addr::new(172, 16, 0, 2)
}

fn specs() -> Vec<NfSpec> {
    sample_specs()[..2].to_vec()
}

fn agent(station: u64) -> (Agent, AgentToManager) {
    Agent::new(
        AgentConfig {
            agent: AgentId::new(station),
            station: StationId::new(station),
            host_class: HostClass::EdgeServer,
        },
        ImageRepository::with_standard_images(),
    )
}

fn syn(sport: u16) -> gnf_packet::Packet {
    builder::tcp_syn(
        client_mac(),
        MacAddr::derived(0xA0, 1),
        client_ip(),
        Ipv4Addr::new(203, 0, 113, 10),
        sport,
        443,
    )
}

// ---------------------------------------------------------------------------
// Manager half: duplicated / reordered / dropped replies.
// ---------------------------------------------------------------------------

/// Everything one valid roam delivers to the Manager, recorded from two real
/// Agents: `setup` ends with the `ClientConnected` that starts the migration
/// (the operator's `attach_chain` call sits after `attach_after` messages),
/// `replies` is what the Agents answer from there on, in valid order.
struct Roam {
    config: GnfConfig,
    setup: Vec<(StationId, AgentToManager)>,
    attach_after: usize,
    replies: Vec<(StationId, AgentToManager)>,
}

fn attach(manager: &mut Manager, now: SimTime) -> (ChainId, Vec<ManagerAction>) {
    manager
        .attach_chain(CLIENT, specs(), TrafficSelector::all(), now)
        .expect("client is known")
}

/// A Manager wired to two real Agents, logging every message it receives.
struct Recorder {
    manager: Manager,
    agents: Vec<Agent>,
    log: Vec<(StationId, AgentToManager)>,
    now: SimTime,
}

impl Recorder {
    /// Delivers `inbox` to the Manager and `commands` to the Agents, then
    /// keeps relaying whatever either side answers until both fall silent.
    fn pump(&mut self, inbox: Vec<AgentToManager>, from: u64, commands: Vec<ManagerAction>) {
        let mut inbox: VecDeque<_> = inbox
            .into_iter()
            .map(|msg| (StationId::new(from), msg))
            .collect();
        let mut commands: VecDeque<_> = commands.into();
        loop {
            self.now += SimDuration::from_millis(10);
            if let Some(ManagerAction::Send { station, message }) = commands.pop_front() {
                let agent = &mut self.agents[station.raw() as usize];
                let replies = agent.handle_manager_msg(message, self.now);
                inbox.extend(replies.into_iter().map(|reply| (station, reply)));
            } else if let Some((station, msg)) = inbox.pop_front() {
                self.log.push((station, msg.clone()));
                commands.extend(self.manager.handle_agent_msg(station, msg, self.now));
            } else {
                return;
            }
        }
    }
}

/// Runs one client's roam from station 0 to station 1 to completion against
/// real Agents and logs every message the Manager received.
fn record_roam(config: GnfConfig) -> Roam {
    let (agents, registers): (Vec<Agent>, Vec<AgentToManager>) = (0..2).map(agent).unzip();
    let mut r = Recorder {
        manager: Manager::new(config.clone()),
        agents,
        log: Vec::new(),
        now: SimTime::from_secs(1),
    };
    for (station, register) in registers.into_iter().enumerate() {
        r.pump(vec![register], station as u64, Vec::new());
    }
    let connected = r.agents[0].client_associated(CLIENT, client_mac(), client_ip());
    r.pump(connected, 0, Vec::new());
    let attach_after = r.log.len();
    let (chain, commands) = attach(&mut r.manager, r.now);
    r.pump(Vec::new(), 0, commands);
    for sport in 41_000..41_010 {
        r.agents[0].process(
            Direction::Ingress,
            PacketBatch::from(syn(sport)),
            r.now,
            &mut |_| {},
        );
    }

    // The client roams: station 0 loses it, station 1 gains it.
    let left = r.agents[0].client_disassociated(CLIENT);
    r.pump(left, 0, Vec::new());
    let connected = r.agents[1].client_associated(CLIENT, client_mac(), client_ip());
    let setup_len = r.log.len() + connected.len();
    r.pump(connected, 1, Vec::new());

    assert_eq!(r.manager.stats().migrations_completed, 1, "a valid roam");
    let attachment = r.manager.attachment(chain).expect("still attached");
    assert_eq!(attachment.station, Some(StationId::new(1)));
    let replies = r.log.split_off(setup_len);
    Roam {
        config,
        setup: r.log,
        attach_after,
        replies,
    }
}

/// The Manager's in-flight index answers exactly what a scan of the migration
/// history answers — per client in id order, and as a fleet-wide count —
/// wherever open / advance / abort / complete / resurrect left the records.
fn check_in_flight_index(manager: &Manager) -> Result<(), TestCaseError> {
    for client in [CLIENT, ClientId::new(1)] {
        let indexed: Vec<MigrationId> = manager
            .migrations_in_flight_of(client)
            .map(|m| m.id)
            .collect();
        let scanned: Vec<MigrationId> = manager
            .migrations()
            .filter(|m| m.client == client && !m.is_finished())
            .map(|m| m.id)
            .collect();
        prop_assert_eq!(indexed, scanned);
    }
    prop_assert_eq!(
        manager.migrations_in_flight(),
        manager.migrations().filter(|m| !m.is_finished()).count()
    );
    Ok(())
}

/// Replays the roam's set-up into a fresh Manager, then delivers `picks` —
/// arbitrary indices into the valid replies (so any reply may be dropped,
/// repeated or reordered), the index one past the end standing for "the
/// deadline passes and the Manager ticks" — checking the invariants after
/// every step.
fn replay_hostile(roam: &Roam, picks: &[usize]) -> Result<(), TestCaseError> {
    let mut manager = Manager::new(roam.config.clone());
    let mut now = SimTime::from_secs(1);
    let mut chain = None;
    // Stations that confirmed a deploy of the chain.
    let mut confirmed: BTreeSet<StationId> = BTreeSet::new();
    let setup = roam.setup.iter().map(Some).enumerate();
    let hostile = picks.iter().map(|&pick| roam.replies.get(pick));
    for (ix, delivery) in setup.chain(hostile.map(|d| (usize::MAX, d))) {
        if ix == roam.attach_after {
            chain = Some(attach(&mut manager, now).0);
        }
        let Some((station, msg)) = delivery else {
            now += roam.config.migration_deadline + SimDuration::from_secs(1);
            manager.tick(now);
            check_in_flight_index(&manager)?;
            continue;
        };
        now += SimDuration::from_millis(10);
        if matches!(msg, AgentToManager::ChainDeployed { .. }) {
            confirmed.insert(*station);
        }
        manager.handle_agent_msg(*station, msg.clone(), now);
        check_in_flight_index(&manager)?;

        let stats = manager.stats();
        prop_assert!(stats.migrations_completed <= stats.migrations_started);
        let complete = manager
            .migrations()
            .filter(|m| m.phase == MigrationPhase::Complete)
            .count() as u64;
        prop_assert!(
            stats.migrations_completed == complete,
            "{} completions for {complete} complete records",
            stats.migrations_completed
        );
        let attachment = chain.and_then(|chain| manager.attachment(chain));
        if let Some(attachment) = attachment.filter(|a| a.active) {
            let station = attachment.station.expect("active implies placed");
            prop_assert!(
                confirmed.contains(&station),
                "active on {station}, which never confirmed a deploy"
            );
        }
    }
    Ok(())
}

fn roams() -> [Roam; 3] {
    let monolithic = GnfConfig::default();
    let precopy = GnfConfig::default().with_migration_precopy(true);
    let break_before_make = GnfConfig {
        make_before_break: false,
        ..GnfConfig::default()
    };
    [monolithic, precopy, break_before_make].map(record_roam)
}

#[test]
fn recorded_roams_have_the_expected_shape() {
    let counts = roams().map(|roam| roam.replies.len());
    // Monolithic: state, deployed, removed. Pre-copy adds prepared + delta.
    // Break-before-make: removed + deployed.
    assert_eq!(counts, [3, 5, 2]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn manager_survives_duplicated_reordered_and_dropped_replies(
        picks in proptest::collection::vec(0usize..6, 0..24),
    ) {
        for roam in roams() {
            // Clamp into this mode's alphabet; its length is the tick.
            let picks: Vec<usize> = picks.iter().map(|p| p % (roam.replies.len() + 1)).collect();
            replay_hostile(&roam, &picks)?;
        }
    }
}

// ---------------------------------------------------------------------------
// Agent half: any order of the migration commands.
// ---------------------------------------------------------------------------

/// What the Agent may answer to a migration command: its success reply or a
/// typed `not_found` / `already_exists` failure naming the chain.
fn assert_typed(command: &ManagerToAgent, replies: &[AgentToManager]) -> Result<(), TestCaseError> {
    prop_assert!(replies.len() == 1, "{command:?} → {replies:?}");
    let fits = match (&replies[0], command) {
        (
            AgentToManager::CommandFailed {
                chain,
                error,
                migration,
            },
            _,
        ) => {
            chain.is_some()
                && *migration == command.migration()
                && matches!(error.category(), "not_found" | "already_exists")
        }
        (AgentToManager::ChainState { .. }, ManagerToAgent::CheckpointChain { .. })
        | (AgentToManager::ChainPrepared { .. }, ManagerToAgent::PrepareChain { .. })
        | (AgentToManager::ChainDelta { .. }, ManagerToAgent::DeltaChain { .. })
        | (AgentToManager::ChainDeployed { .. }, ManagerToAgent::ActivateChain { .. })
        | (AgentToManager::ChainRemoved { .. }, ManagerToAgent::RemoveChain { .. }) => true,
        _ => false,
    };
    prop_assert!(fits, "{command:?} → {replies:?}");
    Ok(())
}

/// An activation carrying deltas for some of the chain's NFs but not all —
/// neither none (nothing was diffed) nor one each — is refused whole: zipping
/// it would patch the head of the chain, leave the tail on the baseline and
/// still confirm the deploy.
#[test]
fn an_activation_with_a_delta_count_that_fits_no_chain_is_refused_untouched() {
    let chain = ChainId::new(1);
    let migration = MigrationId::new(1);
    let mut source = agent(0).0;
    source.client_associated(CLIENT, client_mac(), client_ip());
    let deploy = |precopy_state: Option<Vec<NfStateSnapshot>>| match precopy_state {
        None => ManagerToAgent::DeployChain {
            chain,
            client: CLIENT,
            client_mac: client_mac(),
            specs: specs(),
            selector: TrafficSelector::all(),
            restore_state: None,
            migration: None,
        },
        Some(precopy_state) => ManagerToAgent::PrepareChain {
            chain,
            client: CLIENT,
            client_mac: client_mac(),
            specs: specs(),
            selector: TrafficSelector::all(),
            precopy_state,
            migration,
        },
    };
    source.handle_manager_msg(deploy(None), SimTime::from_secs(1));
    for sport in 41_000..41_010 {
        source.process(
            Direction::Ingress,
            PacketBatch::from(syn(sport)),
            SimTime::from_secs(2),
            &mut |_| {},
        );
    }
    let export = |agent: &Agent| agent.chain(chain).expect("deployed").chain.export_state();
    let baseline = export(&source);
    for sport in 41_010..41_015 {
        source.process(
            Direction::Ingress,
            PacketBatch::from(syn(sport)),
            SimTime::from_secs(3),
            &mut |_| {},
        );
    }
    let current = export(&source);
    let deltas: Vec<NfStateDelta> = baseline
        .iter()
        .zip(&current)
        .map(|(base, cur)| NfStateDelta::diff(base, cur))
        .collect();
    assert_eq!(deltas.len(), 2);
    assert!(matches!(deltas[0], NfStateDelta::Firewall { .. }));

    let mut target = agent(1).0;
    let prepared = target.handle_manager_msg(deploy(Some(baseline.clone())), SimTime::from_secs(4));
    assert!(matches!(prepared[0], AgentToManager::ChainPrepared { .. }));
    let activate = |deltas: Vec<NfStateDelta>| ManagerToAgent::ActivateChain {
        chain,
        client: CLIENT,
        migration,
        deltas,
    };
    let too_many = [deltas.clone(), deltas.clone()].concat();
    for misfit in [deltas[..1].to_vec(), too_many] {
        let replies = target.handle_manager_msg(activate(misfit), SimTime::from_secs(5));
        let [AgentToManager::CommandFailed {
            chain: failed,
            error,
            migration: failed_migration,
        }] = &replies[..]
        else {
            panic!("expected one typed failure, got {replies:?}");
        };
        assert_eq!((*failed, *failed_migration), (Some(chain), Some(migration)));
        assert_eq!(error.category(), "invalid_state");
        // Not even the NFs the short list did cover were touched.
        assert!(target.chain(chain).expect("still staged").staged);
        assert_eq!(export(&target), baseline);
        assert!(target.switch().steering().is_empty());
    }

    // The activation the migration engine does send still goes through.
    let replies = target.handle_manager_msg(activate(deltas), SimTime::from_secs(6));
    assert!(matches!(replies[0], AgentToManager::ChainDeployed { .. }));
    assert!(!target.chain(chain).expect("serving").staged);
    assert_eq!(export(&target), current);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn agents_answer_any_command_order_with_typed_replies(
        ops in proptest::collection::vec((any::<bool>(), 0u8..6), 0..32),
    ) {
        let chain = ChainId::new(1);
        let migration = MigrationId::new(1);
        // A source serving the chain (with conntrack state) and an empty target.
        let mut pair = [agent(0).0, agent(1).0];
        pair[0].client_associated(CLIENT, client_mac(), client_ip());
        let deployed = pair[0].handle_manager_msg(
            ManagerToAgent::DeployChain {
                chain,
                client: CLIENT,
                client_mac: client_mac(),
                specs: specs(),
                selector: TrafficSelector::all(),
                restore_state: None,
                migration: None,
            },
            SimTime::from_secs(1),
        );
        prop_assert!(matches!(deployed[0], AgentToManager::ChainDeployed { .. }));
        for sport in 41_000..41_010 {
            pair[0].process(Direction::Ingress, PacketBatch::from(syn(sport)), SimTime::from_secs(2), &mut |_| {});
        }
        let baseline: Vec<NfStateSnapshot> = pair[0].chain(chain).expect("deployed").chain.export_state();

        let mut now = SimTime::from_secs(3);
        for (on_target, op) in ops {
            let command = match op {
                0 | 1 => ManagerToAgent::CheckpointChain {
                    chain,
                    client: CLIENT,
                    migration,
                    retain_baseline: op == 1,
                },
                2 => ManagerToAgent::PrepareChain {
                    chain,
                    client: CLIENT,
                    client_mac: client_mac(),
                    specs: specs(),
                    selector: TrafficSelector::all(),
                    precopy_state: baseline.clone(),
                    migration,
                },
                3 => ManagerToAgent::DeltaChain { chain, client: CLIENT, migration },
                4 => ManagerToAgent::ActivateChain {
                    chain,
                    client: CLIENT,
                    migration,
                    deltas: vec![NfStateDelta::Unchanged; specs().len()],
                },
                _ => ManagerToAgent::RemoveChain { chain, client: CLIENT, migration: Some(migration) },
            };
            now += SimDuration::from_millis(10);
            let replies = pair[on_target as usize].handle_manager_msg(command.clone(), now);
            assert_typed(&command, &replies)?;
            for agent in &pair {
                let rules = agent.switch().steering().rules_for(client_mac());
                match agent.chain(chain) {
                    Some(deployed) => prop_assert!(
                        rules.iter().any(|rule| rule.chain == chain) != deployed.staged,
                        "steering must exist exactly while the chain serves"
                    ),
                    None => prop_assert!(rules.is_empty(), "steering outlived its chain"),
                }
            }
        }
    }
}
