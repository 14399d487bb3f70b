//! Service chaining on an edge station without any emulation: build the
//! full chain the paper motivates (firewall → HTTP filter → rate limiter →
//! NAT) on one Agent and watch it act on real packets, including the
//! transparent 403 answer for a blocked URL and the notification the NF
//! relays towards the Manager.
//!
//! ```text
//! cargo run -p gnf-examples --bin edge_firewall_chain
//! ```

use gnf_agent::{Agent, AgentConfig, PacketOutcome};
use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_container::ImageRepository;
use gnf_nf::firewall::{FirewallConfig, FirewallRule};
use gnf_nf::http_filter::HttpFilterConfig;
use gnf_nf::rate_limiter::RateLimiterConfig;
use gnf_nf::{Direction, NfConfig, NfSpec};
use gnf_packet::{builder, PacketBatch};
use gnf_switch::TrafficSelector;
use gnf_types::{AgentId, ChainId, ClientId, HostClass, MacAddr, SimTime, StationId};
use std::net::Ipv4Addr;

fn main() {
    // One edge-server station with its Agent.
    let (mut agent, _register) = Agent::new(
        AgentConfig {
            agent: AgentId::new(0),
            station: StationId::new(0),
            host_class: HostClass::EdgeServer,
        },
        ImageRepository::with_standard_images(),
    );

    // A client associates with the cell.
    let client = ClientId::new(0);
    let client_mac = MacAddr::derived(1, 0);
    let client_ip = Ipv4Addr::new(172, 16, 0, 2);
    agent.client_associated(client, client_mac, client_ip);

    // The Manager tells the Agent to deploy a 4-NF chain for this client.
    let specs = vec![
        NfSpec::new(
            "firewall",
            NfConfig::Firewall(FirewallConfig::with_rules(vec![
                FirewallRule::block_tcp_dst_port("no-ssh", 22),
            ])),
        ),
        NfSpec::new(
            "http-filter",
            NfConfig::HttpFilter(HttpFilterConfig::block_hosts(&["ads.example"])),
        ),
        NfSpec::new(
            "rate-limiter",
            NfConfig::RateLimiter(RateLimiterConfig::per_client(2_000_000.0, 256_000.0)),
        ),
        NfSpec::new(
            "nat",
            NfConfig::Nat {
                public_ip: Ipv4Addr::new(198, 51, 100, 1),
            },
        ),
    ];
    let replies = agent.handle_manager_msg(
        ManagerToAgent::DeployChain {
            chain: ChainId::new(0),
            client,
            client_mac,
            specs,
            selector: TrafficSelector::all(),
            restore_state: None,
            migration: None,
        },
        SimTime::from_secs(1),
    );
    match replies.first() {
        Some(AgentToManager::ChainDeployed { latency, .. }) => {
            println!("deploy reply: chain deployed after {latency}\n")
        }
        other => panic!("the chain must deploy, got {other:?}"),
    }

    let gateway = MacAddr::derived(0xA0, 0);
    let server = Ipv4Addr::new(203, 0, 113, 10);
    let now = SimTime::from_secs(2);

    let cases = vec![
        (
            "allowed HTTP request",
            builder::http_get(
                client_mac,
                gateway,
                client_ip,
                server,
                40_000,
                "www.gla.ac.uk",
                "/",
            ),
        ),
        (
            "blocked ad URL",
            builder::http_get(
                client_mac,
                gateway,
                client_ip,
                server,
                40_001,
                "ads.example",
                "/banner.js",
            ),
        ),
        (
            "SSH attempt",
            builder::tcp_syn(client_mac, gateway, client_ip, server, 40_002, 22),
        ),
        (
            "DNS lookup",
            builder::dns_query(
                client_mac,
                gateway,
                client_ip,
                Ipv4Addr::new(8, 8, 8, 8),
                5353,
                7,
                "svc.edge.example",
            ),
        ),
    ];

    // Each packet arrives from the client on the access port, alone.
    for (label, packet) in cases {
        agent.process(
            Direction::Ingress,
            PacketBatch::from(packet),
            now,
            &mut |outcome| match outcome {
                PacketOutcome::Forwarded(p) => {
                    println!("{label:>20}: forwarded  ({})", p.summary());
                }
                PacketOutcome::Dropped(reason) => println!("{label:>20}: dropped    ({reason})"),
                PacketOutcome::Replied(replies) => {
                    println!(
                        "{label:>20}: answered at the edge ({})",
                        replies[0].summary()
                    );
                }
            },
        );
    }

    println!("\nNF notifications relayed to the Manager:");
    for msg in agent.drain_nf_notifications(now) {
        if let AgentToManager::NfNotification { nf_name, event, .. } = msg {
            println!("  {nf_name} [{}]: {}", event.category, event.message);
        }
    }

    println!("\nper-NF statistics:");
    for deployed in agent.chains() {
        for (name, kind, stats) in deployed.chain.per_nf_stats() {
            println!(
                "  {name:<14} ({kind}): in={} forwarded={} dropped={} replied={}",
                stats.packets_in,
                stats.packets_forwarded,
                stats.packets_dropped,
                stats.packets_replied
            );
        }
    }
}
