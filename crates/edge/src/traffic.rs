//! Client traffic generation.
//!
//! The demo's clients are smartphones browsing the web, resolving names and
//! streaming; the UI shows their live traffic. This module turns those
//! behaviours into seeded packet workloads: each client has a
//! [`TrafficProfile`] and a [`TrafficGenerator`] that produces the time of the
//! next packet and the packet itself (a real `gnf-packet` frame).

use crate::topology::{ClientDevice, StationSite};
use gnf_packet::{builder, Packet};
use gnf_sim::{Rng, Zipf};
use gnf_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// The application mix a client generates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficProfile {
    /// Web browsing: DNS lookups followed by HTTP requests, Zipf-popular
    /// hosts, think times between page loads.
    WebBrowsing {
        /// Mean think time between requests.
        mean_think_time: SimDuration,
    },
    /// A constant-bit-rate stream (e.g. video or VoIP): fixed packet size and
    /// interval.
    ConstantBitRate {
        /// Packets per second.
        packets_per_sec: f64,
        /// Payload size in bytes.
        payload_bytes: usize,
    },
    /// DNS-heavy IoT-style chatter.
    DnsHeavy {
        /// Mean interval between queries.
        mean_interval: SimDuration,
    },
    /// Silent client (control-plane only).
    Idle,
}

impl TrafficProfile {
    /// A typical smartphone browsing profile.
    pub fn smartphone() -> Self {
        TrafficProfile::WebBrowsing {
            mean_think_time: SimDuration::from_millis(800),
        }
    }
}

/// A single generated packet plus the virtual time it enters the network.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedPacket {
    /// When the packet arrives at the client's station.
    pub at: SimTime,
    /// The packet itself (upstream, from the client).
    pub packet: Packet,
}

/// The set of destination hosts web traffic is spread over (Zipf popularity).
const WEB_HOSTS: [&str; 8] = [
    "www.gla.ac.uk",
    "video.example",
    "news.example",
    "social.example",
    "cdn.example",
    "blocked.example",
    "mail.example",
    "svc.edge.example",
];

/// The path of page `ix` (`/page/1` ..= `/page/50`) a browsing client
/// requests, formatted once per process.
fn page_path(ix: u64) -> &'static str {
    static PATHS: OnceLock<Vec<String>> = OnceLock::new();
    let paths = PATHS.get_or_init(|| (1..=50).map(|ix| format!("/page/{ix}")).collect());
    &paths[ix as usize - 1]
}

/// Generates a client's upstream workload.
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    profile: TrafficProfile,
    rng: Rng,
    /// The popularity of `WEB_HOSTS` in this profile's events: Zipf with
    /// exponent 1.1 for browsing, 1.0 for DNS chatter.
    hosts: Zipf,
    /// The payload every constant-bit-rate packet carries.
    cbr_payload: Vec<u8>,
    next_src_port: u16,
    dns_id: u16,
    /// Persistent (keep-alive) HTTP connection per host rank: consecutive
    /// requests to the same host reuse the ephemeral port, like a real
    /// browser reusing a TCP connection — and like real traffic, repeated
    /// packets of these flows ride the switch's flow-cache fast path.
    http_ports: [Option<u16>; WEB_HOSTS.len()],
}

impl TrafficGenerator {
    /// Creates a generator for a client with the given profile and seed
    /// stream.
    pub fn new(profile: TrafficProfile, rng: Rng) -> Self {
        let (hosts, cbr_payload) = match profile {
            TrafficProfile::WebBrowsing { .. } => (Zipf::new(WEB_HOSTS.len(), 1.1), Vec::new()),
            TrafficProfile::DnsHeavy { .. } => (Zipf::new(WEB_HOSTS.len(), 1.0), Vec::new()),
            TrafficProfile::ConstantBitRate { payload_bytes, .. } => {
                (Zipf::new(0, 1.0), vec![0xAB; payload_bytes])
            }
            TrafficProfile::Idle => (Zipf::new(0, 1.0), Vec::new()),
        };
        TrafficGenerator {
            profile,
            rng,
            hosts,
            cbr_payload,
            next_src_port: 40_000,
            dns_id: 1,
            http_ports: [None; WEB_HOSTS.len()],
        }
    }

    /// Generates the client's packet arrivals in `(from, until]`, given the
    /// station currently serving it (for gateway addressing).
    pub fn generate(
        &mut self,
        client: &ClientDevice,
        site: &StationSite,
        from: SimTime,
        until: SimTime,
    ) -> Vec<GeneratedPacket> {
        let mut out = Vec::new();
        let mut now = from;
        loop {
            let (delay, packet) = match self.profile {
                TrafficProfile::Idle => break,
                TrafficProfile::WebBrowsing { mean_think_time } => {
                    let delay = self.rng.exponential_duration(mean_think_time);
                    let packet = self.next_web_packet(client, site);
                    (delay, packet)
                }
                TrafficProfile::ConstantBitRate {
                    packets_per_sec, ..
                } => {
                    let delay = SimDuration::from_secs_f64(1.0 / packets_per_sec.max(0.001));
                    let packet = self.cbr_packet(client, site);
                    (delay, packet)
                }
                TrafficProfile::DnsHeavy { mean_interval } => {
                    let delay = self.rng.exponential_duration(mean_interval);
                    let packet = self.dns_packet(client, site);
                    (delay, packet)
                }
            };
            now += delay.max(SimDuration::from_micros(1));
            if now > until {
                break;
            }
            out.push(GeneratedPacket { at: now, packet });
        }
        out
    }

    fn alloc_port(&mut self) -> u16 {
        let port = self.next_src_port;
        self.next_src_port = if port == u16::MAX { 40_000 } else { port + 1 };
        port
    }

    fn server_ip_for(&mut self, host_rank: usize) -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, (host_rank as u8) + 10)
    }

    fn next_web_packet(&mut self, client: &ClientDevice, site: &StationSite) -> Packet {
        let rank = self.hosts.sample(&mut self.rng);
        let host = WEB_HOSTS[rank];
        // One third of web events are the DNS lookup, the rest the HTTP GET.
        if self.rng.chance(0.33) {
            self.dns_id = self.dns_id.wrapping_add(1);
            builder::dns_query(
                client.mac,
                site.gateway_mac,
                client.ip,
                Ipv4Addr::new(8, 8, 8, 8),
                self.alloc_port(),
                self.dns_id,
                host,
            )
        } else {
            let server = self.server_ip_for(rank);
            let path_ix = self.rng.range_inclusive(1, 50);
            let port = match self.http_ports[rank] {
                Some(port) => port,
                None => {
                    let port = self.alloc_port();
                    self.http_ports[rank] = Some(port);
                    port
                }
            };
            builder::http_get(
                client.mac,
                site.gateway_mac,
                client.ip,
                server,
                port,
                host,
                page_path(path_ix),
            )
        }
    }

    fn cbr_packet(&self, client: &ClientDevice, site: &StationSite) -> Packet {
        builder::udp_packet(
            client.mac,
            site.gateway_mac,
            client.ip,
            Ipv4Addr::new(203, 0, 113, 200),
            5_004,
            5_004,
            &self.cbr_payload,
        )
    }

    fn dns_packet(&mut self, client: &ClientDevice, site: &StationSite) -> Packet {
        self.dns_id = self.dns_id.wrapping_add(1);
        let rank = self.hosts.sample(&mut self.rng);
        builder::dns_query(
            client.mac,
            site.gateway_mac,
            client.ip,
            Ipv4Addr::new(8, 8, 8, 8),
            self.alloc_port(),
            self.dns_id,
            WEB_HOSTS[rank],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{EdgeTopology, Position};
    use gnf_types::HostClass;

    fn fixtures() -> (EdgeTopology, ClientDevice, StationSite) {
        let mut topo = EdgeTopology::grid(1, HostClass::HomeRouter, 100.0);
        let client = topo.add_client(Position::new(1.0, 1.0), true);
        let device = topo.client(client).unwrap().clone();
        let site = topo.sites()[0].clone();
        (topo, device, site)
    }

    #[test]
    fn web_browsing_generates_dns_and_http() {
        let (_t, device, site) = fixtures();
        let mut generator = TrafficGenerator::new(TrafficProfile::smartphone(), Rng::new(11));
        let packets = generator.generate(&device, &site, SimTime::ZERO, SimTime::from_secs(60));
        assert!(
            packets.len() > 20,
            "a minute of browsing produces many packets"
        );
        assert!(packets.windows(2).all(|w| w[0].at <= w[1].at));
        let dns = packets.iter().filter(|p| p.packet.dns().is_some()).count();
        let http = packets
            .iter()
            .filter(|p| p.packet.http_request().is_some())
            .count();
        assert!(dns > 0, "expected DNS lookups");
        assert!(http > 0, "expected HTTP requests");
        // All packets originate from the client.
        assert!(packets.iter().all(|p| p.packet.src_mac() == device.mac));
    }

    #[test]
    fn cbr_traffic_is_evenly_spaced() {
        let (_t, device, site) = fixtures();
        let mut generator = TrafficGenerator::new(
            TrafficProfile::ConstantBitRate {
                packets_per_sec: 10.0,
                payload_bytes: 160,
            },
            Rng::new(3),
        );
        let packets = generator.generate(&device, &site, SimTime::ZERO, SimTime::from_secs(5));
        assert_eq!(packets.len(), 50);
        let gap = packets[1].at - packets[0].at;
        assert_eq!(gap, SimDuration::from_millis(100));
        assert!(packets.iter().all(|p| p.packet.udp().is_some()));
    }

    #[test]
    fn idle_profile_generates_nothing_and_seeds_are_reproducible() {
        let (_t, device, site) = fixtures();
        let mut idle = TrafficGenerator::new(TrafficProfile::Idle, Rng::new(1));
        assert!(idle
            .generate(&device, &site, SimTime::ZERO, SimTime::from_secs(60))
            .is_empty());

        let mut a = TrafficGenerator::new(TrafficProfile::smartphone(), Rng::new(42));
        let mut b = TrafficGenerator::new(TrafficProfile::smartphone(), Rng::new(42));
        let pa = a.generate(&device, &site, SimTime::ZERO, SimTime::from_secs(10));
        let pb = b.generate(&device, &site, SimTime::ZERO, SimTime::from_secs(10));
        assert_eq!(pa, pb);
    }

    #[test]
    fn dns_heavy_profile_is_all_dns() {
        let (_t, device, site) = fixtures();
        let mut generator = TrafficGenerator::new(
            TrafficProfile::DnsHeavy {
                mean_interval: SimDuration::from_millis(500),
            },
            Rng::new(9),
        );
        let packets = generator.generate(&device, &site, SimTime::ZERO, SimTime::from_secs(30));
        assert!(!packets.is_empty());
        assert!(packets.iter().all(|p| p.packet.dns().is_some()));
    }
}
