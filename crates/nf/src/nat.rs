//! A source-NAT (masquerading) NF.
//!
//! On the client's upstream traffic the NAT rewrites the source address to a
//! configured public address and allocates an ephemeral source port per flow;
//! on downstream traffic it reverses the translation. The translation table is
//! part of the migratable state so established flows survive a roam.
//!
//! The rewrite, in both directions, is [`Packet::into_rewritten_endpoints`]:
//! the addresses and ports patched copy-on-write — in the frame itself when
//! the packet owns its whole buffer alone, as a built frame does, in one
//! copy otherwise (a replayed frame is a slice of a shared read block) —
//! and both checksums updated incrementally. Every other byte
//! survives — IPv4 and TCP options, the payload, padding beyond the IP total
//! length, and a UDP datagram sent without a checksum stays without one.

use crate::nf::{apply_delta_via_export, Direction, NetworkFunction, NfContext, NfStats, Verdict};
use crate::spec::NfKind;
use crate::state::{NfStateDelta, NfStateSnapshot, StateTable};
use gnf_packet::{FiveTuple, IpProtocol, Packet};
use gnf_types::PathMap;
use std::net::Ipv4Addr;

/// The first ephemeral port the NAT allocates.
pub const NAT_PORT_BASE: u16 = 40_000;

/// The source-NAT NF.
pub struct Nat {
    name: String,
    public_ip: Ipv4Addr,
    /// Original (client-side) tuple → allocated public port.
    forward: PathMap<FiveTuple, u16>,
    /// Allocated public port → original tuple.
    reverse: PathMap<u16, FiveTuple>,
    next_port: u16,
    translated_packets: u64,
    stats: NfStats,
}

impl Nat {
    /// Creates a NAT masquerading behind `public_ip`.
    pub fn new(name: &str, public_ip: Ipv4Addr) -> Self {
        Nat {
            name: name.to_string(),
            public_ip,
            forward: PathMap::default(),
            reverse: PathMap::default(),
            next_port: NAT_PORT_BASE,
            translated_packets: 0,
            stats: NfStats::default(),
        }
    }

    /// The public address used for translated flows.
    pub fn public_ip(&self) -> Ipv4Addr {
        self.public_ip
    }

    /// Total packets whose headers were rewritten.
    pub fn translated_packets(&self) -> u64 {
        self.translated_packets
    }

    fn allocate_port(&mut self, original: FiveTuple) -> u16 {
        if let Some(port) = self.forward.get(&original) {
            return *port;
        }
        // Skip ports that are still in use (wrap around the ephemeral range).
        let mut candidate = self.next_port;
        loop {
            if !self.reverse.contains_key(&candidate) {
                break;
            }
            candidate = if candidate == u16::MAX {
                NAT_PORT_BASE
            } else {
                candidate + 1
            };
        }
        self.next_port = if candidate == u16::MAX {
            NAT_PORT_BASE
        } else {
            candidate + 1
        };
        self.forward.insert(original, candidate);
        self.reverse.insert(candidate, original);
        candidate
    }

    /// Forwards `packet` rewritten to the `(address, port)` endpoints
    /// `src` → `dst`, counting the translation.
    fn translate(&mut self, packet: Packet, src: (Ipv4Addr, u16), dst: (Ipv4Addr, u16)) -> Verdict {
        match packet.into_rewritten_endpoints(src.0, dst.0, src.1, dst.1) {
            Ok(rewritten) => {
                self.translated_packets += 1;
                Verdict::Forward(rewritten)
            }
            Err(packet) => Verdict::Forward(packet),
        }
    }
}

impl NetworkFunction for Nat {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> NfKind {
        NfKind::Nat
    }

    fn process(&mut self, packet: Packet, direction: Direction, _ctx: &NfContext) -> Verdict {
        self.stats.record_in(packet.len());
        let Some(tuple) = packet.five_tuple() else {
            let verdict = Verdict::Forward(packet);
            self.stats.record_verdict(&verdict);
            return verdict;
        };
        // Only TCP/UDP flows are translated; ICMP and others pass through.
        if !matches!(tuple.protocol, IpProtocol::Tcp | IpProtocol::Udp) {
            let verdict = Verdict::Forward(packet);
            self.stats.record_verdict(&verdict);
            return verdict;
        }

        let verdict = match direction {
            Direction::Ingress => {
                let public_port = self.allocate_port(tuple);
                self.translate(
                    packet,
                    (self.public_ip, public_port),
                    (tuple.dst_ip, tuple.dst_port),
                )
            }
            Direction::Egress => {
                // Downstream: the packet is addressed to (public_ip, public_port).
                if tuple.dst_ip == self.public_ip {
                    if let Some(original) = self.reverse.get(&tuple.dst_port).copied() {
                        self.translate(
                            packet,
                            (tuple.src_ip, tuple.src_port),
                            (original.src_ip, original.src_port),
                        )
                    } else {
                        Verdict::Drop(
                            format!("no NAT translation for public port {}", tuple.dst_port).into(),
                        )
                    }
                } else {
                    Verdict::Forward(packet)
                }
            }
        };
        self.stats.record_verdict(&verdict);
        verdict
    }

    fn stats(&self) -> NfStats {
        self.stats
    }

    fn export_state(&self) -> NfStateSnapshot {
        NfStateSnapshot::Nat {
            mappings: StateTable(self.forward.clone()),
            next_port: self.next_port,
        }
    }

    fn import_state(&mut self, state: NfStateSnapshot) {
        if let NfStateSnapshot::Nat {
            mappings,
            next_port,
        } = state
        {
            mappings.merge_into(&mut self.forward);
            // `reverse` is rebuilt as the inverse of `forward`. A port that
            // corrupt input hands to several tuples belongs to the largest,
            // whatever order the table holds them in.
            self.reverse.clear();
            for (tuple, port) in &self.forward {
                let owner = self.reverse.entry(*port).or_insert(*tuple);
                *owner = (*owner).max(*tuple);
            }
            self.next_port = next_port;
        }
    }

    fn replace_state(&mut self, state: NfStateSnapshot) {
        if matches!(state, NfStateSnapshot::Nat { .. }) {
            self.forward.clear();
            self.reverse.clear();
        }
        self.import_state(state);
    }

    fn apply_delta(&mut self, delta: &NfStateDelta) {
        let NfStateDelta::Nat {
            upserts,
            removals,
            next_port,
        } = delta
        else {
            return apply_delta_via_export(self, delta);
        };
        // `reverse` stays the inverse of `forward`: a port's reverse entry
        // goes with the mapping that owned it, unless another tuple's upsert
        // took the port over in the meantime.
        for tuple in removals {
            if let Some(port) = self.forward.remove(tuple) {
                if self.reverse.get(&port) == Some(tuple) {
                    self.reverse.remove(&port);
                }
            }
        }
        for (tuple, port) in upserts {
            if let Some(old) = self.forward.insert(*tuple, *port) {
                if old != *port && self.reverse.get(&old) == Some(tuple) {
                    self.reverse.remove(&old);
                }
            }
            self.reverse.insert(*port, *tuple);
        }
        self.next_port = *next_port;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use gnf_packet::ethernet::{EtherType, EthernetHeader};
    use gnf_packet::ipv4::Ipv4Header;
    use gnf_packet::{builder, TcpFlags, TcpHeader};
    use gnf_types::{MacAddr, SimTime};

    fn public_ip() -> Ipv4Addr {
        Ipv4Addr::new(198, 51, 100, 1)
    }
    fn client_ip() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 2)
    }
    fn server_ip() -> Ipv4Addr {
        Ipv4Addr::new(203, 0, 113, 10)
    }
    fn ctx() -> NfContext {
        NfContext::at(SimTime::from_secs(1))
    }

    fn upstream_tcp(src_port: u16, payload: &[u8]) -> Packet {
        builder::tcp_data(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            server_ip(),
            src_port,
            80,
            payload,
        )
    }

    #[test]
    fn upstream_traffic_is_masqueraded() {
        let mut nat = Nat::new("nat", public_ip());
        let verdict = nat.process(upstream_tcp(50_000, b"hello"), Direction::Ingress, &ctx());
        let Verdict::Forward(out) = verdict else {
            panic!("expected forward")
        };
        let ip = out.ipv4().unwrap();
        assert_eq!(ip.src, public_ip());
        assert_eq!(ip.dst, server_ip());
        let tcp = out.tcp().unwrap();
        assert_eq!(tcp.src_port, NAT_PORT_BASE);
        assert_eq!(tcp.dst_port, 80);
        // Payload survives the rewrite.
        assert_eq!(out.tcp_payload().unwrap(), b"hello");
        assert_eq!(nat.forward.len(), 1);
    }

    #[test]
    fn downstream_traffic_is_restored_to_the_client() {
        let mut nat = Nat::new("nat", public_ip());
        nat.process(upstream_tcp(50_000, b"req"), Direction::Ingress, &ctx());

        // The server replies to the public endpoint.
        let reply = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            server_ip(),
            public_ip(),
            80,
            NAT_PORT_BASE,
            b"resp",
        );
        let verdict = nat.process(reply, Direction::Egress, &ctx());
        let Verdict::Forward(out) = verdict else {
            panic!("expected forward")
        };
        assert_eq!(out.ipv4().unwrap().dst, client_ip());
        assert_eq!(out.tcp().unwrap().dst_port, 50_000);
        assert_eq!(out.tcp_payload().unwrap(), b"resp");
    }

    #[test]
    fn each_flow_gets_a_distinct_public_port() {
        let mut nat = Nat::new("nat", public_ip());
        let a = nat
            .process(upstream_tcp(50_000, b""), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        let b = nat
            .process(upstream_tcp(50_001, b""), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_ne!(a.tcp().unwrap().src_port, b.tcp().unwrap().src_port);
        assert_eq!(nat.forward.len(), 2);
        // Re-sending on the first flow reuses its port.
        let again = nat
            .process(upstream_tcp(50_000, b""), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(again.tcp().unwrap().src_port, a.tcp().unwrap().src_port);
        assert_eq!(nat.forward.len(), 2);
    }

    #[test]
    fn unknown_downstream_ports_are_dropped() {
        let mut nat = Nat::new("nat", public_ip());
        let stray = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            server_ip(),
            public_ip(),
            80,
            45_555,
            b"stray",
        );
        assert!(nat.process(stray, Direction::Egress, &ctx()).is_drop());
    }

    #[test]
    fn udp_flows_are_translated_too() {
        let mut nat = Nat::new("nat", public_ip());
        let dns = builder::dns_query(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            Ipv4Addr::new(8, 8, 8, 8),
            5353,
            7,
            "example.com",
        );
        let out = nat
            .process(dns, Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(out.ipv4().unwrap().src, public_ip());
        assert_eq!(out.udp().unwrap().src_port, NAT_PORT_BASE);
        // The DNS payload still parses after the rewrite.
        assert_eq!(
            out.dns().unwrap().first_question_name(),
            Some("example.com")
        );
    }

    /// The client's upstream frame around a ready-made transport segment,
    /// with the IPv4 options and trailing bytes the builders never emit.
    fn upstream_frame(
        protocol: IpProtocol,
        ip_options: &[u8],
        segment: &[u8],
        trailer: &[u8],
    ) -> Packet {
        let mut frame = BytesMut::new();
        EthernetHeader {
            dst: MacAddr::derived(2, 1),
            src: MacAddr::derived(1, 1),
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut frame);
        let mut ip = Ipv4Header::new(client_ip(), server_ip(), protocol, segment.len());
        ip.options = ip_options.to_vec();
        ip.emit(&mut frame, segment.len());
        frame.extend_from_slice(segment);
        frame.extend_from_slice(trailer);
        Packet::parse(frame.freeze()).unwrap()
    }

    /// Masquerades `packet` and checks what every translation must hold:
    /// the endpoints changed, the frame kept its length, and the transport
    /// checksum (when there is one) verifies from scratch.
    fn masquerade(packet: &Packet) -> Packet {
        let mut nat = Nat::new("nat", public_ip());
        let out = nat
            .process(packet.clone(), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(nat.translated_packets(), 1);
        let tuple = out.five_tuple().unwrap();
        assert_eq!((tuple.src_ip, tuple.src_port), (public_ip(), NAT_PORT_BASE));
        assert_eq!(out.len(), packet.len());
        let ip = out.ipv4().unwrap();
        let segment = &out.bytes()[14 + ip.header_len()..14 + usize::from(ip.total_length)];
        let sent_without_checksum = ip.protocol == IpProtocol::Udp && segment[6..8] == [0, 0];
        if !sent_without_checksum {
            let mut checksum = ip.pseudo_header_checksum(segment.len());
            checksum.add_bytes(segment);
            assert_eq!(checksum.finish(), 0, "transport checksum must verify");
        }
        out
    }

    fn tcp_segment(options: &[u8], payload: &[u8]) -> BytesMut {
        let mut tcp = TcpHeader::new(50_000, 80, TcpFlags::SYN);
        tcp.options = options.to_vec();
        let mut segment = BytesMut::new();
        tcp.emit(&mut segment, client_ip(), server_ip(), payload);
        segment
    }

    #[test]
    fn ipv4_and_tcp_options_survive_the_rewrite() {
        // Regression: the rebuild emitted `options: Vec::new()`.
        let record_route = [0x07, 0x07, 0x04, 0, 0, 0, 0, 0x00];
        let mss = [0x02, 0x04, 0x05, 0xb4];
        let packet = upstream_frame(
            IpProtocol::Tcp,
            &record_route,
            &tcp_segment(&mss, b"data"),
            &[],
        );
        let out = masquerade(&packet);
        assert_eq!(out.ipv4().unwrap().options, record_route);
        assert_eq!(out.tcp().unwrap().options, mss);
        assert_eq!(out.tcp_payload().unwrap(), b"data");
    }

    #[test]
    fn bytes_beyond_the_ip_total_length_survive_the_rewrite() {
        // Regression: the rebuild dropped Ethernet padding (a bare SYN is 54
        // bytes; the wire minimum is 60).
        let padding = [0u8, 0, 0, 0, 0xde, 0xad];
        let packet = upstream_frame(IpProtocol::Tcp, &[], &tcp_segment(&[], b""), &padding);
        let out = masquerade(&packet);
        assert_eq!(out.len(), 60);
        assert_eq!(out.bytes()[54..], padding);
        assert_eq!(out.tcp_payload().unwrap(), b"");
    }

    #[test]
    fn a_udp_datagram_sent_without_a_checksum_stays_without_one() {
        // Regression: the rebuild computed a checksum the sender opted out of.
        let mut segment = vec![0xd4, 0x31, 0x00, 0x35, 0x00, 0x0c, 0x00, 0x00];
        segment.extend_from_slice(b"abcd");
        let packet = upstream_frame(IpProtocol::Udp, &[], &segment, &[]);
        let out = masquerade(&packet);
        assert_eq!(out.bytes()[34 + 6..34 + 8], [0, 0]);
        assert_eq!(out.udp_payload().unwrap(), b"abcd");
    }

    #[test]
    fn icmp_and_non_ip_traffic_pass_through_unchanged() {
        let mut nat = Nat::new("nat", public_ip());
        let ping = builder::icmp_echo_request(
            MacAddr::derived(1, 1),
            MacAddr::derived(2, 1),
            client_ip(),
            server_ip(),
            1,
            1,
        );
        let out = nat
            .process(ping.clone(), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(out, ping);
        let arp = builder::arp_request(MacAddr::derived(1, 1), client_ip(), server_ip());
        assert!(nat.process(arp, Direction::Ingress, &ctx()).is_forward());
        assert_eq!(nat.translated_packets(), 0);
    }

    #[test]
    fn translation_table_migrates() {
        let mut nat1 = Nat::new("nat", public_ip());
        nat1.process(upstream_tcp(50_000, b"x"), Direction::Ingress, &ctx());
        let snapshot = nat1.export_state();

        let mut nat2 = Nat::new("nat", public_ip());
        nat2.import_state(snapshot);
        // The reply arrives at the *new* station and is still translated back.
        let reply = builder::tcp_data(
            MacAddr::derived(2, 1),
            MacAddr::derived(1, 1),
            server_ip(),
            public_ip(),
            80,
            NAT_PORT_BASE,
            b"resp",
        );
        let out = nat2
            .process(reply, Direction::Egress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(out.ipv4().unwrap().dst, client_ip());
        // And new flows on the target continue the port sequence.
        let fresh = nat2
            .process(upstream_tcp(50_009, b""), Direction::Ingress, &ctx())
            .into_forwarded()
            .unwrap();
        assert_eq!(fresh.tcp().unwrap().src_port, NAT_PORT_BASE + 1);
    }

    #[test]
    fn a_delta_keeps_the_reverse_map_the_inverse_of_the_forward_map() {
        // Egress translation reads `reverse`, which no export shows: after a
        // delta that drops a mapping, adds one, moves one to another port and
        // swaps the ports of two, it must be what `replace_state` would build.
        let tuple = |sport: u16| upstream_tcp(sport, b"").five_tuple().unwrap();
        let base = NfStateSnapshot::Nat {
            mappings: (0..5)
                .map(|i| (tuple(50_000 + i), NAT_PORT_BASE + i))
                .collect(),
            next_port: NAT_PORT_BASE + 5,
        };
        let current = NfStateSnapshot::Nat {
            mappings: [
                (tuple(50_003), NAT_PORT_BASE + 2), // swapped with 50_002
                (tuple(50_002), NAT_PORT_BASE + 3),
                (tuple(50_004), NAT_PORT_BASE + 4), // kept
                (tuple(50_001), NAT_PORT_BASE + 7), // moved
                (tuple(50_009), NAT_PORT_BASE + 8), // added; 50_000 is dropped
            ]
            .into_iter()
            .collect(),
            next_port: NAT_PORT_BASE + 9,
        };
        let delta = NfStateDelta::diff(&base, &current);
        assert!(matches!(delta, NfStateDelta::Nat { .. }));

        let mut patched = Nat::new("nat", public_ip());
        patched.replace_state(base);
        patched.apply_delta(&delta);
        let mut rebuilt = Nat::new("nat", public_ip());
        rebuilt.replace_state(current.clone());
        assert_eq!(patched.export_state(), current);
        assert_eq!(patched.forward, rebuilt.forward);
        assert_eq!(patched.reverse, rebuilt.reverse);
    }
}
