//! Recovery invariants under deterministic fault injection: the chaos
//! schedule replays byte-for-byte across the execution matrix, no stale
//! cache entry survives a crash/restart generation bump, and a migration
//! retry storm neither loses nor double-applies NF chains.

use gnf_agent::{Agent, AgentConfig};
use gnf_api::messages::AgentToManager;
use gnf_container::ImageRepository;
use gnf_core::emulator::PACKET_BREAK_EVEN;
use gnf_core::{ChaosSpec, Emulator, FaultKind, FaultSchedule, Mobility, PartitionMode, Scenario};
use gnf_edge::{Position, RoamTrace, TrafficProfile};
use gnf_manager::{Manager, ManagerAction};
use gnf_nf::testing::sample_specs;
use gnf_nf::Direction;
use gnf_packet::PacketBatch;
use gnf_switch::TrafficSelector;
use gnf_types::{
    AgentId, CellId, ClientId, GnfConfig, HostClass, MacAddr, SimDuration, SimTime, StationId,
};
use gnf_workload::{ArrivalModel, Population, SyntheticSpec, TrafficMix};
use std::net::Ipv4Addr;

/// A fleet scenario with a roamer whose mid-storm handover the partition
/// below turns into a timed-out, retried migration.
fn storm_scenario(seed: u64) -> Scenario {
    let config = GnfConfig {
        seed,
        migration_deadline: SimDuration::from_secs(4),
        migration_max_retries: 4,
        migration_backoff_base: SimDuration::from_millis(500),
        migration_backoff_cap: SimDuration::from_secs(2),
        hotspot_scan_interval: SimDuration::from_secs(1),
        ..GnfConfig::default()
    };
    let mut builder = Scenario::builder(4, HostClass::EdgeServer).with_config(config);
    let clients = builder.add_clients(6, TrafficProfile::smartphone());
    let roamer = builder.add_client_at(Position::new(1.0, 1.0), TrafficProfile::smartphone());
    let mut sb = builder
        .with_duration(SimDuration::from_secs(50))
        .with_mobility(Mobility::Trace(RoamTrace::new().roam(
            SimTime::from_secs(30),
            roamer,
            CellId::new(2),
        )));
    for client in clients.iter().chain(std::iter::once(&roamer)) {
        sb = sb.attach_policy(
            *client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(2),
        );
    }
    sb.build()
}

fn storm_schedule(seed: u64) -> FaultSchedule {
    let stations: Vec<StationId> = (0..4).map(StationId::new).collect();
    let spec = ChaosSpec {
        crashes: 1,
        crash_down_for: (SimDuration::from_secs(3), SimDuration::from_secs(4)),
        partitions: 1,
        partition_duration: (SimDuration::from_secs(2), SimDuration::from_secs(4)),
        churn_storms: 1,
        churn_rules: (8, 32),
        invalidation_floods: 1,
        flood_size: (1, 3),
        window: (SimTime::from_secs(10), SimTime::from_secs(19)),
    };
    let mut schedule = FaultSchedule::generate(seed, &spec, &stations);
    schedule.push(
        SimTime::from_secs(26),
        FaultKind::StationCrash {
            station: StationId::new(3),
            down_for: SimDuration::from_secs(8),
        },
    );
    schedule.push(
        SimTime::from_secs(29),
        FaultKind::LinkPartition {
            station: StationId::new(0),
            duration: SimDuration::from_secs(7),
            mode: PartitionMode::Drop,
        },
    );
    schedule
}

#[test]
fn fault_storm_reports_are_identical_across_the_execution_matrix() {
    let seed = 11;
    let run = |workers: usize| {
        let scenario = storm_scenario(seed);
        let population = Population::from_topology(&scenario.topology);
        let mut emulator = Emulator::new(scenario);
        emulator.set_workers(workers);
        emulator.set_fault_schedule(storm_schedule(seed));
        // A burst of one-packet flows within ~3 ms of t = 3.5 s, clear of
        // every report timer: one flush reaches the break-even, so the
        // threaded cells really fan out.
        emulator.add_workload(Box::new(
            SyntheticSpec::new("burst", 1)
                .starting_at(SimTime::from_millis(3_500))
                .with_arrivals(ArrivalModel::Periodic {
                    flows_per_sec: 1_000_000.0,
                })
                .with_mix(TrafficMix::churn())
                .with_packet_budget(PACKET_BREAK_EVEN + 512)
                .build(population),
        ));
        let report = emulator.run();
        let fan_outs = emulator.fan_out_telemetry();
        assert_eq!(
            fan_outs.packet_flushes > 0,
            workers > 1,
            "{workers}: {fan_outs:?}"
        );
        report
    };

    let baseline = run(1);
    assert!(baseline.chaos.crashes >= 1, "{:?}", baseline.chaos);
    assert!(
        baseline.chaos.fully_recovered(),
        "every crashed station must reconverge: {:?}",
        baseline.chaos
    );
    assert!(baseline.chaos.faults_injected >= baseline.chaos.crashes);
    assert!(baseline.packets.dropped_station_down > 0);

    let bytes = serde_json::to_string(&baseline).expect("report serializes");
    for workers in [2usize, 4] {
        let other = run(workers);
        assert_eq!(
            bytes,
            serde_json::to_string(&other).expect("report serializes"),
            "chaos RunReport must be byte-identical at workers={workers}"
        );
    }
}

#[test]
fn no_stale_cache_entry_survives_a_restart_generation_bump() {
    let station = StationId::new(0);
    let client = ClientId::new(0);
    let mut manager = Manager::new(GnfConfig::default());
    let (mut agent, register) = Agent::new(
        AgentConfig {
            agent: AgentId::new(0),
            station,
            host_class: HostClass::EdgeServer,
        },
        ImageRepository::with_standard_images(),
    );
    let mut now = SimTime::from_secs(1);
    let deliver = |manager: &mut Manager, agent: &mut Agent, msg: AgentToManager, now| {
        let mut inbox = vec![msg];
        while let Some(msg) = inbox.pop() {
            for action in manager.handle_agent_msg(station, msg, now) {
                let ManagerAction::Send { message, .. } = action;
                inbox.extend(agent.handle_manager_msg(message, now));
            }
        }
    };
    deliver(&mut manager, &mut agent, register, now);
    for msg in agent.client_associated(client, MacAddr::derived(1, 0), Ipv4Addr::new(172, 16, 0, 2))
    {
        deliver(&mut manager, &mut agent, msg, now);
    }
    let (_, actions) = manager
        .attach_chain(
            client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            now,
        )
        .unwrap();
    for action in actions {
        let ManagerAction::Send { message, .. } = action;
        for reply in agent.handle_manager_msg(message, now) {
            deliver(&mut manager, &mut agent, reply, now);
        }
    }

    // Warm the flow cache: same flow twice, the second packet must hit.
    let packet = || {
        gnf_packet::builder::tcp_syn(
            MacAddr::derived(1, 0),
            MacAddr::derived(0xA0, 0),
            Ipv4Addr::new(172, 16, 0, 2),
            Ipv4Addr::new(203, 0, 113, 9),
            41_000,
            443,
        )
    };
    agent.process(
        Direction::Ingress,
        PacketBatch::from(packet()),
        now,
        &mut |_| {},
    );
    agent.process(
        Direction::Ingress,
        PacketBatch::from(packet()),
        now,
        &mut |_| {},
    );
    let warm = agent.flow_cache_telemetry().stats;
    assert!(warm.hits >= 1, "repeat flow must ride the cache: {warm:?}");

    // Crash: the generation bumps and every soft structure empties.
    agent.crash();
    assert_eq!(agent.generation(), 1);
    assert_eq!(agent.running_nfs(), 0);
    assert_eq!(agent.chaos_telemetry().crashes, 1);

    // Rejoin and redeploy through the Manager (re-registration resets the
    // station's attachments; the re-association drives the redeploy).
    now += SimDuration::from_secs(5);
    let register = agent.rejoin();
    deliver(&mut manager, &mut agent, register, now);
    for msg in agent.client_associated(client, MacAddr::derived(1, 0), Ipv4Addr::new(172, 16, 0, 2))
    {
        deliver(&mut manager, &mut agent, msg, now);
    }
    assert_eq!(agent.running_nfs(), 1, "the chain redeployed after rejoin");
    assert_eq!(manager.stats().station_rejoins, 1);

    // The same flow again: it MUST miss — a post-restart hit would mean a
    // pre-crash cache entry served traffic across the generation bump.
    let before = agent.flow_cache_telemetry().stats;
    agent.process(
        Direction::Ingress,
        PacketBatch::from(packet()),
        now,
        &mut |_| {},
    );
    let after = agent.flow_cache_telemetry().stats;
    assert_eq!(
        after.hits, before.hits,
        "no stale flow-cache hit after the restart generation bump"
    );
    assert_eq!(after.misses, before.misses + 1);
}

#[test]
fn source_crash_during_precopy_rolls_back_and_never_serves_staged_state() {
    // A pre-copy migration whose source station dies mid-transfer: the
    // roamer leaves station 0 at t=20s, the pre-copy pipeline starts, and at
    // t=20.25s — with the baseline/delta exchange still in flight — station 0
    // crashes for 8 s. The first attempt must time out and roll back; the
    // backoff retry (finding nothing serving anywhere) must redeploy on the
    // target; and no half-imported staged chain may ever end up serving
    // traffic.
    let config = GnfConfig {
        seed: 17,
        migration_precopy: true,
        migration_deadline: SimDuration::from_secs(3),
        migration_max_retries: 4,
        migration_backoff_base: SimDuration::from_millis(500),
        migration_backoff_cap: SimDuration::from_secs(2),
        hotspot_scan_interval: SimDuration::from_secs(1),
        ..GnfConfig::default()
    };
    let mut builder = Scenario::builder(4, HostClass::EdgeServer).with_config(config);
    let clients = builder.add_clients(4, TrafficProfile::smartphone());
    let roamer = clients[0]; // starts on station 0
    let mut sb = builder
        .with_duration(SimDuration::from_secs(45))
        .with_mobility(Mobility::Trace(RoamTrace::new().roam(
            SimTime::from_secs(20),
            roamer,
            CellId::new(1),
        )));
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
        SimTime::from_secs(20) + SimDuration::from_millis(250),
        FaultKind::StationCrash {
            station: StationId::new(0),
            down_for: SimDuration::from_secs(8),
        },
    );
    let mut emulator = Emulator::new(sb.build());
    emulator.set_fault_schedule(schedule);
    let report = emulator.run();

    // The first attempt ran the pre-copy pipeline and died with the source.
    assert!(
        report.manager.migrations_timed_out >= 1,
        "the source crash must push the migration past its deadline: {:?}",
        report.manager
    );
    let rolled_back = report
        .migrations
        .iter()
        .filter(|m| m.precopy && m.outcome == "timed-out")
        .count();
    assert!(
        rolled_back >= 1,
        "a pre-copy attempt must be rolled back: {:?}",
        report.migrations
    );

    // The retry completed: the roamer's chain serves on the target.
    let completed = report
        .migrations
        .iter()
        .filter(|m| m.client == roamer.raw() && m.outcome == "complete")
        .count();
    assert!(
        completed >= 1,
        "the backoff retry must complete the move: {:?}",
        report.migrations
    );
    let attachment = emulator
        .manager()
        .attachments()
        .find(|a| a.client == roamer)
        .expect("attachment survives the crash");
    assert!(attachment.active, "the roamer's chain serves traffic");
    assert_eq!(
        attachment.station,
        Some(StationId::new(1)),
        "the retry lands the chain on the roam target"
    );

    // Exactly one live instance — the staged target copy from the aborted
    // attempt was torn down, not promoted.
    let instances = (0..4)
        .filter(|ix| {
            emulator
                .agent(StationId::new(*ix))
                .is_some_and(|agent| agent.chain(attachment.chain).is_some())
        })
        .count();
    assert_eq!(instances, 1, "the chain must exist on exactly one station");

    // No half-imported state anywhere: a staged chain either activated
    // (staged flag cleared, steering installed) or was removed with its
    // migration. Nothing may sit in the staged limbo at the end of the run.
    for ix in 0..4 {
        if let Some(agent) = emulator.agent(StationId::new(ix)) {
            for chain in agent.chains() {
                assert!(
                    !chain.staged,
                    "station {ix}: staged chain {:?} survived the rollback",
                    chain.chain_id
                );
            }
        }
    }
}

#[test]
fn migration_retry_storm_never_loses_or_double_applies_chains() {
    // Four co-located clients mass-roam from cell 0 to cell 2 while station
    // 0's control link drops everything: every checkpoint dies, every
    // migration times out and rolls back, and the backoff retries only land
    // after the heal.
    let config = GnfConfig {
        seed: 3,
        migration_deadline: SimDuration::from_secs(3),
        migration_max_retries: 4,
        migration_backoff_base: SimDuration::from_millis(500),
        migration_backoff_cap: SimDuration::from_secs(2),
        hotspot_scan_interval: SimDuration::from_secs(1),
        ..GnfConfig::default()
    };
    let mut builder = Scenario::builder(3, HostClass::EdgeServer).with_config(config);
    let movers: Vec<ClientId> = (0..4)
        .map(|ix| {
            builder.add_client_at(
                Position::new(1.0 + ix as f64, 1.0),
                TrafficProfile::smartphone(),
            )
        })
        .collect();
    let mut trace = RoamTrace::new();
    for mover in &movers {
        trace = trace.roam(SimTime::from_secs(20), *mover, CellId::new(2));
    }
    let mut sb = builder
        .with_duration(SimDuration::from_secs(45))
        .with_mobility(Mobility::Trace(trace));
    for mover in &movers {
        sb = sb.attach_policy(
            *mover,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(2),
        );
    }
    let mut schedule = FaultSchedule::new();
    schedule.push(
        SimTime::from_secs(19),
        FaultKind::LinkPartition {
            station: StationId::new(0),
            duration: SimDuration::from_secs(8),
            mode: PartitionMode::Drop,
        },
    );
    let mut emulator = Emulator::new(sb.build());
    emulator.set_fault_schedule(schedule);
    let report = emulator.run();

    assert!(
        report.manager.migrations_timed_out >= 1,
        "the partition must push migrations past their deadline: {:?}",
        report.manager
    );
    assert!(
        report.manager.migration_retries >= 1,
        "timed-out migrations must be retried: {:?}",
        report.manager
    );
    let retried_ok = report
        .migrations
        .iter()
        .filter(|m| m.outcome == "complete" && m.attempt > 0)
        .count();
    assert!(retried_ok >= 1, "at least one retry must complete");

    // No chain lost: every mover's attachment ends active on station 2.
    for mover in &movers {
        let attachment = emulator
            .manager()
            .attachments()
            .find(|a| a.client == *mover)
            .expect("attachment survives the storm");
        assert!(attachment.active, "chain for {mover:?} serves traffic");
        assert_eq!(attachment.station, Some(StationId::new(2)));

        // No chain double-applied: exactly one agent runs it.
        let instances = (0..3)
            .filter(|ix| {
                emulator
                    .agent(StationId::new(*ix))
                    .is_some_and(|agent| agent.chain(attachment.chain).is_some())
            })
            .count();
        assert_eq!(
            instances, 1,
            "chain {:?} must exist on exactly one station",
            attachment.chain
        );
    }
}
