//! Integration tests driving the Manager and Agents together through the real
//! control-plane API (messages crossing the `gnf-api` codec), without the
//! emulator in between — the "distributed system on a workbench" view.

use gnf_agent::{Agent, AgentConfig};
use gnf_api::codec;
use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_container::ImageRepository;
use gnf_manager::{Manager, ManagerAction};
use gnf_nf::testing::sample_specs;
use gnf_nf::Direction;
use gnf_packet::PacketBatch;
use gnf_switch::TrafficSelector;
use gnf_types::{AgentId, ChainId, ClientId, GnfConfig, HostClass, MacAddr, SimTime, StationId};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// A tiny harness that shuttles messages between one Manager and N Agents,
/// round-tripping every message through the wire codec so the protocol is the
/// one actually exercised.
struct Bench {
    manager: Manager,
    agents: BTreeMap<StationId, Agent>,
    now: SimTime,
}

impl Bench {
    fn new(stations: u64) -> Self {
        let mut bench = Bench {
            manager: Manager::new(GnfConfig::default()),
            agents: BTreeMap::new(),
            now: SimTime::ZERO,
        };
        for ix in 0..stations {
            let station = StationId::new(ix);
            let (agent, register) = Agent::new(
                AgentConfig {
                    agent: AgentId::new(ix),
                    station,
                    host_class: HostClass::EdgeServer,
                },
                ImageRepository::with_standard_images(),
            );
            bench.agents.insert(station, agent);
            bench.deliver_to_manager(station, register);
        }
        bench
    }

    fn advance(&mut self, secs: u64) {
        self.now += gnf_types::SimDuration::from_secs(secs);
    }

    /// Encodes, decodes and delivers an Agent message, then recursively
    /// delivers whatever the Manager sends back.
    fn deliver_to_manager(&mut self, station: StationId, msg: AgentToManager) {
        let bytes = codec::encode_to_vec(&msg).expect("encodable");
        let mut buf = bytes::BytesMut::from(&bytes[..]);
        let decoded: AgentToManager = codec::decode(&mut buf).unwrap().unwrap();
        let actions = self.manager.handle_agent_msg(station, decoded, self.now);
        self.dispatch(actions);
    }

    fn dispatch(&mut self, actions: Vec<ManagerAction>) {
        for action in actions {
            let ManagerAction::Send { station, message } = action;
            let bytes = codec::encode_to_vec(&message).expect("encodable");
            let mut buf = bytes::BytesMut::from(&bytes[..]);
            let decoded: ManagerToAgent = codec::decode(&mut buf).unwrap().unwrap();
            let replies = {
                let agent = self.agents.get_mut(&station).expect("agent exists");
                agent.handle_manager_msg(decoded, self.now)
            };
            for reply in replies {
                self.deliver_to_manager(station, reply);
            }
        }
    }

    fn connect_client(&mut self, station: u64, client: u64) {
        let station = StationId::new(station);
        let msgs = {
            let agent = self.agents.get_mut(&station).unwrap();
            agent.client_associated(
                ClientId::new(client),
                MacAddr::derived(1, client as u32),
                Ipv4Addr::new(172, 16, 0, client as u8 + 2),
            )
        };
        for msg in msgs {
            self.deliver_to_manager(station, msg);
        }
    }

    fn roam_client(&mut self, from: u64, to: u64, client: u64) {
        let from = StationId::new(from);
        let msgs = {
            let agent = self.agents.get_mut(&from).unwrap();
            agent.client_disassociated(ClientId::new(client))
        };
        for msg in msgs {
            self.deliver_to_manager(from, msg);
        }
        self.connect_client(to, client);
    }

    fn report_all(&mut self) {
        let stations: Vec<StationId> = self.agents.keys().copied().collect();
        for station in stations {
            let report = self.agents.get_mut(&station).unwrap().make_report(self.now);
            self.deliver_to_manager(station, report);
        }
    }
}

#[test]
fn registration_attachment_and_reporting_end_to_end() {
    let mut bench = Bench::new(3);
    assert_eq!(bench.manager.stations().count(), 3);

    bench.advance(1);
    bench.connect_client(0, 0);
    bench.connect_client(1, 1);

    // Attach a full chain to client 0 — the Manager deploys it on station 0
    // and the Agent's confirmation flows back synchronously.
    bench.advance(1);
    let (chain, actions) = bench
        .manager
        .attach_chain(
            ClientId::new(0),
            sample_specs(),
            TrafficSelector::all(),
            bench.now,
        )
        .unwrap();
    bench.dispatch(actions);

    let attachment = bench.manager.attachment(chain).unwrap();
    assert!(attachment.active);
    assert_eq!(attachment.station, Some(StationId::new(0)));
    assert!(attachment.last_deploy_latency.unwrap().as_millis() > 0);

    let agent0 = bench.agents.get(&StationId::new(0)).unwrap();
    assert_eq!(agent0.running_nfs(), sample_specs().len());
    assert_eq!(agent0.switch().steering().len(), 1);

    // Periodic reports populate the monitoring store.
    bench.advance(2);
    bench.report_all();
    assert_eq!(bench.manager.monitoring().online_count(), 3);
    assert_eq!(
        bench.manager.monitoring().running_nfs(),
        sample_specs().len()
    );
}

#[test]
fn roaming_migrates_chains_and_preserves_nf_state_end_to_end() {
    let mut bench = Bench::new(2);
    bench.advance(1);
    bench.connect_client(0, 0);

    bench.advance(1);
    let (chain, actions) = bench
        .manager
        .attach_chain(
            ClientId::new(0),
            vec![sample_specs()[0].clone()], // stateful firewall
            TrafficSelector::all(),
            bench.now,
        )
        .unwrap();
    bench.dispatch(actions);

    // Let the firewall on station 0 track a connection, so there is real NF
    // state to migrate.
    {
        let agent0 = bench.agents.get_mut(&StationId::new(0)).unwrap();
        let flow = gnf_packet::builder::tcp_syn(
            MacAddr::derived(1, 0),
            MacAddr::derived(0xA0, 0),
            Ipv4Addr::new(172, 16, 0, 2),
            Ipv4Addr::new(203, 0, 113, 9),
            41_000,
            443,
        );
        agent0.process(
            Direction::Ingress,
            PacketBatch::from(flow),
            bench.now,
            &mut |_| {},
        );
    }

    // The client roams: the whole checkpoint → deploy → remove pipeline runs
    // synchronously through the harness.
    bench.advance(10);
    bench.roam_client(0, 1, 0);

    let migration = bench.manager.migrations().next().expect("one migration");
    assert!(migration.is_finished());
    assert!(
        migration.state_bytes > 0,
        "firewall conntrack state travelled"
    );
    assert_eq!(migration.from, StationId::new(0));
    assert_eq!(migration.to, StationId::new(1));

    // The chain is gone from station 0 and alive (with state) on station 1.
    assert_eq!(bench.agents[&StationId::new(0)].running_nfs(), 0);
    let agent1 = bench.agents.get(&StationId::new(1)).unwrap();
    assert_eq!(agent1.running_nfs(), 1);
    let deployed = agent1
        .chain(chain)
        .expect("chain present on the new station");
    assert!(deployed.chain.export_state().iter().any(|s| !s.is_empty()));

    // And the manager's view agrees.
    let attachment = bench.manager.attachment(chain).unwrap();
    assert_eq!(attachment.station, Some(StationId::new(1)));
    assert!(attachment.active);
}

#[test]
fn repeated_roaming_keeps_exactly_one_chain_instance() {
    let mut bench = Bench::new(3);
    bench.advance(1);
    bench.connect_client(0, 0);
    bench.advance(1);
    let (chain, actions) = bench
        .manager
        .attach_chain(
            ClientId::new(0),
            vec![sample_specs()[1].clone()],
            TrafficSelector::http_only(),
            bench.now,
        )
        .unwrap();
    bench.dispatch(actions);

    // Bounce the client across stations 0 → 1 → 2 → 0.
    for (from, to) in [(0, 1), (1, 2), (2, 0)] {
        bench.advance(30);
        bench.roam_client(from, to, 0);
    }

    assert_eq!(bench.manager.stats().migrations_started, 3);
    assert_eq!(bench.manager.stats().migrations_completed, 3);
    // Exactly one station hosts the chain at the end.
    let hosting: Vec<u64> = bench
        .agents
        .iter()
        .filter(|(_, agent)| agent.chain(chain).is_some())
        .map(|(station, _)| station.raw())
        .collect();
    assert_eq!(hosting, vec![0]);
    // Every intermediate station released its containers.
    assert_eq!(bench.agents[&StationId::new(1)].running_nfs(), 0);
    assert_eq!(bench.agents[&StationId::new(2)].running_nfs(), 0);
}

#[test]
fn nf_alerts_reach_the_manager_notification_log() {
    let mut bench = Bench::new(1);
    bench.advance(1);
    bench.connect_client(0, 0);
    bench.advance(1);
    let (_, actions) = bench
        .manager
        .attach_chain(
            ClientId::new(0),
            vec![sample_specs()[1].clone()], // HTTP filter blocking ads/tracker
            TrafficSelector::all(),
            bench.now,
        )
        .unwrap();
    bench.dispatch(actions);

    // The client requests a blocked URL.
    let notifications = {
        let agent = bench.agents.get_mut(&StationId::new(0)).unwrap();
        let blocked = gnf_packet::builder::http_get(
            MacAddr::derived(1, 0),
            MacAddr::derived(0xA0, 0),
            Ipv4Addr::new(172, 16, 0, 2),
            Ipv4Addr::new(203, 0, 113, 9),
            41_001,
            "ads.example",
            "/banner",
        );
        agent.process(
            Direction::Ingress,
            PacketBatch::from(blocked),
            bench.now,
            &mut |_| {},
        );
        agent.drain_nf_notifications(bench.now)
    };
    assert_eq!(notifications.len(), 1);
    for msg in notifications {
        bench.deliver_to_manager(StationId::new(0), msg);
    }
    assert!(bench
        .manager
        .notifications()
        .entries()
        .any(|n| n.category == "blocked-url"));
}

#[test]
fn detach_tears_down_the_remote_chain() {
    let mut bench = Bench::new(1);
    bench.advance(1);
    bench.connect_client(0, 0);
    bench.advance(1);
    let (chain, actions) = bench
        .manager
        .attach_chain(
            ClientId::new(0),
            vec![sample_specs()[0].clone(), sample_specs()[3].clone()],
            TrafficSelector::all(),
            bench.now,
        )
        .unwrap();
    bench.dispatch(actions);
    assert_eq!(bench.agents[&StationId::new(0)].running_nfs(), 2);

    bench.advance(5);
    let actions = bench.manager.detach_chain(chain, bench.now).unwrap();
    bench.dispatch(actions);
    assert_eq!(bench.agents[&StationId::new(0)].running_nfs(), 0);
    assert!(bench.manager.attachment(chain).is_none());
    assert_eq!(
        bench.agents[&StationId::new(0)].switch().steering().len(),
        0,
        "steering rules removed with the chain"
    );
    let _ = ChainId::new(0);
}
