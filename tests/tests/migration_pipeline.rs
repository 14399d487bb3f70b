//! Conformance suite for the pre-copy live-migration pipeline: the
//! baseline + dirty-delta restore path must be indistinguishable from a
//! monolithic checkpoint for every NF kind, no packet may be lost or
//! double-counted across a switchover, concurrent migrations of disjoint
//! clients must commute, and a hundred-roam storm must replay its
//! `RunReport` byte for byte.

use gnf_core::{Emulator, Mobility, RunReport, Scenario};
use gnf_edge::{RoamTrace, TrafficProfile};
use gnf_nf::testing::sample_specs;
use gnf_nf::{instantiate_chain, Direction, NfContext, NfStateDelta, NfStateSnapshot};
use gnf_packet::{builder, Packet};
use gnf_sim::Rng;
use gnf_switch::TrafficSelector;
use gnf_types::{
    CellId, ChainId, ClientId, GnfConfig, HostClass, MacAddr, SimDuration, SimTime, StationId,
};
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------------
// (a) Pre-copy + delta restore is state-identical to a monolithic
//     checkpoint, for every NF kind, under random traffic.
// ---------------------------------------------------------------------------

/// One random packet from a deterministic stream: varied protocols, ports,
/// sources and hosts so every NF in the chain accumulates non-trivial state.
fn random_packet(rng: &mut Rng, client_mac: MacAddr, gw_mac: MacAddr) -> Packet {
    let client_ip = Ipv4Addr::new(10, 0, 0, 2 + rng.next_below(6) as u8);
    let server = Ipv4Addr::new(198, 51, 100, 1 + rng.next_below(9) as u8);
    let sport = 40_000 + rng.next_below(500) as u16;
    match rng.next_below(6) {
        0 => builder::tcp_syn(client_mac, gw_mac, client_ip, server, sport, 80),
        1 => builder::http_get(
            client_mac,
            gw_mac,
            client_ip,
            server,
            sport,
            ["www.gla.ac.uk", "svc.edge.example", "cdn.example"][rng.next_below(3) as usize],
            ["/", "/img/logo.png", "/api/v1"][rng.next_below(3) as usize],
        ),
        2 => builder::dns_query(
            client_mac,
            gw_mac,
            client_ip,
            Ipv4Addr::new(8, 8, 8, 8),
            5353 + rng.next_below(8) as u16,
            rng.next_below(u16::MAX as u64) as u16,
            ["svc.edge.example", "www.gla.ac.uk"][rng.next_below(2) as usize],
        ),
        3 => builder::udp_packet(
            client_mac,
            gw_mac,
            client_ip,
            server,
            41_000 + rng.next_below(64) as u16,
            5004,
            &[0u8; 120],
        ),
        4 => builder::tcp_data(
            client_mac, gw_mac, client_ip, server, sport, 443, b"tls-ish",
        ),
        _ => builder::icmp_echo_request(
            client_mac,
            gw_mac,
            client_ip,
            server,
            rng.next_below(100) as u16,
            1,
        ),
    }
}

#[test]
fn precopy_delta_restore_matches_monolithic_checkpoint_for_every_nf() {
    let specs = sample_specs();
    let mut source = instantiate_chain("all-nfs", &specs);
    let (client_mac, gw_mac) = gnf_nf::testing::sample_macs();
    let mut rng = Rng::new(42);

    // Phase 1 — the source serves while the baseline is being pre-copied.
    let mut now = SimTime::from_secs(1);
    for _ in 0..300 {
        let pkt = random_packet(&mut rng, client_mac, gw_mac);
        let _ = source.process(pkt, Direction::Ingress, &NfContext::at(now));
        now += SimDuration::from_millis(17);
    }
    let baseline = source.export_state();
    assert_eq!(baseline.len(), specs.len(), "one snapshot per NF");
    assert!(
        baseline.iter().any(|s| !s.is_empty()),
        "phase-1 traffic must build up real state"
    );

    // Phase 2 — the source keeps serving, dirtying the shipped baseline.
    for _ in 0..300 {
        let pkt = random_packet(&mut rng, client_mac, gw_mac);
        let _ = source.process(pkt, Direction::Ingress, &NfContext::at(now));
        now += SimDuration::from_millis(17);
    }
    let monolithic = source.export_state();
    assert_ne!(
        baseline, monolithic,
        "phase-2 traffic must dirty the baseline, or the delta path is vacuous"
    );

    // The monolithic restore path: full checkpoint into a fresh chain.
    let mut classic = instantiate_chain("all-nfs", &specs);
    classic.import_state(monolithic.clone());
    assert_eq!(classic.export_state(), monolithic);

    // The pre-copy restore path: baseline import, then the dirty delta.
    let deltas: Vec<NfStateDelta> = baseline
        .iter()
        .zip(monolithic.iter())
        .map(|(base, current)| NfStateDelta::diff(base, current))
        .collect();
    assert!(
        deltas.iter().any(|d| !matches!(d, NfStateDelta::Unchanged)),
        "at least one NF must ship a non-trivial delta"
    );
    let mut precopied = instantiate_chain("all-nfs", &specs);
    precopied.replace_state(baseline.clone());
    precopied
        .apply_state_deltas(&deltas)
        .expect("one delta per NF");
    assert_eq!(
        precopied.export_state(),
        monolithic,
        "baseline + dirty delta must reproduce the monolithic checkpoint byte-for-byte"
    );

    // And the stateful NFs individually, so one Stateless kind can never
    // mask a divergence in another.
    for ((snapshot, spec), restored) in monolithic
        .iter()
        .zip(specs.iter())
        .zip(precopied.export_state())
    {
        assert_eq!(
            *snapshot, restored,
            "NF {:?} diverged across the pre-copy restore",
            spec.name
        );
        let _ = matches!(snapshot, NfStateSnapshot::Stateless);
    }
}

// ---------------------------------------------------------------------------
// Shared storm scenario: a fleet of stateful clients that all roam at once
// with the pre-copy pipeline enabled.
// ---------------------------------------------------------------------------

const STORM_STATIONS: usize = 6;

fn storm_scenario(seed: u64, clients: usize) -> Scenario {
    let config = GnfConfig {
        seed,
        migration_precopy: true,
        ..GnfConfig::default()
    };
    let mut builder = Scenario::builder(STORM_STATIONS, HostClass::EdgeServer).with_config(config);
    let ids = builder.add_clients(clients, TrafficProfile::smartphone());
    let mut sb = builder.with_duration(SimDuration::from_secs(35));
    for client in &ids {
        sb = sb.attach_policy(
            *client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    let mut trace = RoamTrace::new();
    for (ix, client) in ids.iter().enumerate() {
        let target = ((ix % STORM_STATIONS) + 1) % STORM_STATIONS;
        trace = trace.roam(SimTime::from_secs(18), *client, CellId::new(target as u64));
    }
    sb.with_mobility(Mobility::Trace(trace)).build()
}

fn run_storm(seed: u64, clients: usize) -> RunReport {
    Emulator::new(storm_scenario(seed, clients)).run()
}

// ---------------------------------------------------------------------------
// (b) No packet is lost or double-counted across the switchover.
// ---------------------------------------------------------------------------

#[test]
fn switchover_neither_loses_nor_double_counts_packets() {
    let report = run_storm(5, 12);
    assert!(report.all_migrations_completed());
    assert_eq!(report.migration.precopied, report.migration.total);
    assert!(
        report.migration.deltas_replayed >= 1,
        "the storm must replay at least one dirty delta: {:?}",
        report.migration
    );

    // Conservation: every generated packet lands in exactly one terminal
    // class.
    let p = &report.packets;
    assert!(
        p.is_conserved(),
        "packet conservation across the switchover: {p:?}"
    );
    assert!(p.forwarded > 0, "the storm must carry traffic");

    // The make-before-break path was actually exercised: packets arriving
    // at the target mid-pre-copy detoured through the still-serving source
    // (and each also appears exactly once in a terminal class above).
    assert!(
        p.hairpinned >= 1,
        "pre-copy hairpin must carry mid-migration traffic: {p:?}"
    );
    assert!(p.hairpinned <= p.generated);
}

// ---------------------------------------------------------------------------
// (c) Concurrent migrations of disjoint clients commute.
// ---------------------------------------------------------------------------

/// The final, externally observable outcome for one client: where its chain
/// ended up, whether it serves traffic, and the exact NF state it holds.
fn client_outcome(
    emulator: &Emulator,
    client: ClientId,
) -> (StationId, bool, ChainId, Vec<NfStateSnapshot>) {
    let attachment = emulator
        .manager()
        .attachments()
        .find(|a| a.client == client)
        .expect("attachment survives the roam");
    let station = attachment.station.expect("chain is placed");
    let state = emulator
        .agent(station)
        .expect("serving station is alive")
        .chain(attachment.chain)
        .expect("serving station runs the chain")
        .chain
        .export_state();
    (station, attachment.active, attachment.chain, state)
}

#[test]
fn disjoint_client_migrations_commute() {
    // Clients 0..4 start on stations 0..4 (one per station). Client 0 roams
    // 0→1 and client 2 roams 2→3 at the same instant: disjoint sources,
    // disjoint targets. The order the roams are listed in must not matter.
    let scenario_with = |order: &[(usize, u64)]| {
        let config = GnfConfig {
            seed: 9,
            migration_precopy: true,
            ..GnfConfig::default()
        };
        let mut builder = Scenario::builder(4, HostClass::EdgeServer).with_config(config);
        let ids = builder.add_clients(4, TrafficProfile::smartphone());
        let mut sb = builder.with_duration(SimDuration::from_secs(35));
        for client in &ids {
            sb = sb.attach_policy(
                *client,
                vec![sample_specs()[0].clone()],
                TrafficSelector::all(),
                SimTime::from_secs(1),
            );
        }
        let mut trace = RoamTrace::new();
        for (ix, cell) in order {
            trace = trace.roam(SimTime::from_secs(18), ids[*ix], CellId::new(*cell));
        }
        (sb.with_mobility(Mobility::Trace(trace)).build(), ids)
    };

    let run = |order: &[(usize, u64)]| {
        let (scenario, ids) = scenario_with(order);
        let mut emulator = Emulator::new(scenario);
        let report = emulator.run();
        (emulator, report, ids)
    };

    let (emu_ab, report_ab, ids) = run(&[(0, 1), (2, 3)]);
    let (emu_ba, report_ba, ids_ba) = run(&[(2, 3), (0, 1)]);
    assert_eq!(ids, ids_ba, "client identity does not depend on roam order");

    assert_eq!(report_ab.handovers, 2);
    assert_eq!(report_ba.handovers, 2);
    assert!(report_ab.all_migrations_completed());
    assert!(report_ba.all_migrations_completed());

    // Per-client outcomes are identical whichever migration was admitted
    // first: same placement, same liveness, same chain, same NF state.
    for client in &ids {
        assert_eq!(
            client_outcome(&emu_ab, *client),
            client_outcome(&emu_ba, *client),
            "outcome for {client:?} must not depend on roam listing order"
        );
    }

    // The data plane agrees: both runs moved exactly the same traffic.
    assert_eq!(report_ab.packets, report_ba.packets);

    // Migration records match as a set (MigrationId allocation order is the
    // one thing that legitimately differs).
    let key = |r: &RunReport| {
        let mut set: Vec<_> = r
            .migrations
            .iter()
            .map(|m| {
                (
                    m.client,
                    m.from,
                    m.to,
                    m.completed,
                    m.precopy,
                    m.delta_bytes,
                )
            })
            .collect();
        set.sort();
        set
    };
    assert_eq!(key(&report_ab), key(&report_ba));
}

// ---------------------------------------------------------------------------
// (d) A hundred-roam storm replays byte for byte (a second run in the same
// debug process salts every map anew).
// ---------------------------------------------------------------------------

#[test]
fn a_hundred_roam_storm_replays_byte_for_byte() {
    let baseline = run_storm(7, 100);
    assert_eq!(baseline.handovers, 100);
    assert!(baseline.all_migrations_completed());
    assert_eq!(baseline.migration.precopied, baseline.migration.total);
    assert_eq!(
        serde_json::to_string(&baseline).expect("report serializes"),
        serde_json::to_string(&run_storm(7, 100)).expect("report serializes"),
        "RunReport must be byte-identical on a second run"
    );
}
