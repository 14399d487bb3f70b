//! Experiment E7 — "providers can transparently attach and remove NFs to the
//! clients without adversely impacting the flow of traffic": attach and
//! detach a chain in the middle of an active flow and account for every
//! packet.

use gnf_agent::{Agent, AgentConfig, PacketOutcome};
use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_bench::section;
use gnf_container::ImageRepository;
use gnf_nf::testing::sample_specs;
use gnf_nf::Direction;
use gnf_packet::{builder, PacketBatch};
use gnf_switch::TrafficSelector;
use gnf_telemetry::{
    FlightRecorder, MetricsSeries, TraceLog, TraceScope, TraceSink, DEFAULT_FLIGHT_CAPACITY,
    DEFAULT_TRACE_CAPACITY,
};
use gnf_types::{AgentId, ChainId, ClientId, HostClass, MacAddr, SimDuration, SimTime, StationId};
use std::net::Ipv4Addr;

fn main() {
    println!("E7 — transparent attach/remove of NFs on live traffic");
    let seed = gnf_bench::seed_arg(); // single deterministic flow; printed for uniform provenance
    let obs = gnf_bench::observability_args();
    let (mut agent, _) = Agent::new(
        AgentConfig {
            agent: AgentId::new(0),
            station: StationId::new(0),
            host_class: HostClass::EdgeServer,
        },
        ImageRepository::with_standard_images(),
    );
    if obs.trace_out.is_some() {
        // Sample rate 1: with a single deterministic flow the flight
        // recorder must capture it, whatever the seed.
        agent.set_tracing(
            TraceSink::buffered(TraceScope::Station(0), DEFAULT_TRACE_CAPACITY),
            FlightRecorder::armed(TraceScope::Station(0), seed, 1, DEFAULT_FLIGHT_CAPACITY),
        );
    }
    let client = ClientId::new(0);
    let client_mac = MacAddr::derived(1, 0);
    let client_ip = Ipv4Addr::new(172, 16, 0, 2);
    agent.client_associated(client, client_mac, client_ip);

    // A long-lived flow of 3000 packets; the chain is attached after packet
    // 1000 and removed after packet 2000.
    let total = 3_000u32;
    let attach_at = 1_000u32;
    let detach_at = 2_000u32;
    let mut forwarded = 0u32;
    let mut dropped = 0u32;
    let mut replied = 0u32;
    let mut steering_generation_changes = 0u64;
    let mut last_generation = agent.switch().steering().generation();
    let mut chain_stats_packets = 0u64;

    for seq in 0..total {
        let now = SimTime::ZERO + SimDuration::from_millis(u64::from(seq) * 10);
        if seq == attach_at {
            let replies = agent.handle_manager_msg(
                ManagerToAgent::DeployChain {
                    chain: ChainId::new(0),
                    client,
                    client_mac,
                    specs: vec![sample_specs()[0].clone()],
                    selector: TrafficSelector::all(),
                    restore_state: None,
                    migration: None,
                },
                now,
            );
            assert!(
                matches!(replies[0], AgentToManager::ChainDeployed { .. }),
                "attach must succeed, got {:?}",
                replies[0]
            );
            println!(
                "t={:>6.1}s packet #{seq}: chain attached (chain-deployed)",
                now.as_secs_f64()
            );
        }
        if seq == detach_at {
            chain_stats_packets = agent
                .chain(ChainId::new(0))
                .expect("the chain is attached until now")
                .chain
                .stats()
                .packets_in;
            let replies = agent.handle_manager_msg(
                ManagerToAgent::RemoveChain {
                    chain: ChainId::new(0),
                    client,
                    migration: None,
                },
                now,
            );
            assert!(
                matches!(replies[0], AgentToManager::ChainRemoved { .. }),
                "detach must succeed, got {:?}",
                replies[0]
            );
            println!(
                "t={:>6.1}s packet #{seq}: chain removed (chain-removed)",
                now.as_secs_f64()
            );
        }
        let generation = agent.switch().steering().generation();
        if generation != last_generation {
            steering_generation_changes += 1;
            last_generation = generation;
        }
        let packet = builder::tcp_data(
            client_mac,
            MacAddr::derived(0xA0, 0),
            client_ip,
            Ipv4Addr::new(203, 0, 113, 9),
            41_000,
            443,
            &[0u8; 200],
        );
        agent.process(
            Direction::Ingress,
            PacketBatch::from(packet),
            now,
            &mut |outcome| match outcome {
                PacketOutcome::Forwarded(_) => forwarded += 1,
                PacketOutcome::Dropped(_) => dropped += 1,
                PacketOutcome::Replied(_) => replied += 1,
            },
        );
    }

    section("packet accounting across attach / detach");
    println!("total packets:        {total}");
    println!("forwarded:            {forwarded}");
    println!("dropped:              {dropped}");
    println!("replied:              {replied}");
    println!("steering rule updates: {steering_generation_changes} (each is a single atomic table change)");
    println!(
        "packets that traversed the chain while attached: {chain_stats_packets} (expected {})",
        detach_at - attach_at
    );
    assert_eq!(
        forwarded, total,
        "no packet of the flow may be lost by attach/detach"
    );
    assert_eq!(
        chain_stats_packets,
        u64::from(detach_at - attach_at),
        "every packet sent while the chain was attached must traverse it"
    );
    println!("\nresult: attach/remove did not drop a single in-flight packet (make-before-break steering)");

    // This harness drives one Agent directly (no emulator): the trace
    // artifact carries the station-scope events (a flight record and a
    // flush instant per packet of the single flow, plus any megaflow
    // seals) and the metrics CSV is header-only.
    if obs.any() {
        let mut log = TraceLog::new();
        log.absorb(agent.trace_mut());
        let dropped = agent.flight_mut().dropped();
        log.extend(agent.flight_mut().take_events(), dropped);
        log.sort();
        obs.write_log(&log);
        obs.write_series(&MetricsSeries::new(SimDuration::from_millis(100), 1));
    }
}
