//! Convenience constructors for complete, well-formed frames.
//!
//! Traffic generators, tests and benchmarks build frames through these
//! functions so that checksums, lengths and layer offsets are always
//! consistent. Each function returns a fully parsed [`Packet`].
//!
//! A frame is written once. Its length is known before the first byte: the
//! Ethernet, IPv4 and transport headers go to their fixed offsets, the
//! payload (a DNS question, an HTTP request) straight behind them, and both
//! checksums are filled in place. The frame is written on the stack and
//! copied into its own `Bytes` — its one heap request — unless it is longer
//! than a full-size Ethernet frame. The layered encoders (`EthernetHeader`,
//! `Ipv4Header`, `TcpHeader` and `UdpHeader::emit`, `DnsMessage::emit`,
//! `HttpRequest::to_bytes`) stay for their other callers and are the oracle
//! every builder is held to byte for byte (`tests/builder_oracle.rs`).

use crate::arp::ArpPacket;
use crate::checksum::{internet_checksum, transport_checksum};
use crate::dns::{self, DnsMessage, DNS_PORT};
use crate::ethernet::{EtherType, ETHERNET_HEADER_LEN};
use crate::http::{self, HttpResponse, HTTP_PORT};
use crate::icmp::IcmpMessage;
use crate::ipv4::{IpProtocol, IPV4_HEADER_LEN};
use crate::packet::Packet;
use crate::tcp::{TcpFlags, TCP_HEADER_LEN};
use crate::udp::UDP_HEADER_LEN;
use bytes::{Bytes, BytesMut};
use gnf_types::MacAddr;
use std::net::Ipv4Addr;

/// Frames up to this length are written on the stack; a longer one is
/// written into a heap buffer first, a second heap request.
const STACK_FRAME: usize = 1_536;

/// Where the transport segment starts in an Ethernet + IPv4 frame.
const SEGMENT_AT: usize = ETHERNET_HEADER_LEN + IPV4_HEADER_LEN;

/// Builds an Ethernet + IPv4 + TCP frame carrying `payload`.
#[allow(clippy::too_many_arguments)]
pub fn tcp_packet(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    flags: TcpFlags,
    payload: &[u8],
) -> Packet {
    tcp_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        flags,
        payload.len(),
        |out| out.copy_from_slice(payload),
    )
}

/// Builds a TCP data segment with the `ACK|PSH` flags set (a typical in-flow
/// data packet).
pub fn tcp_data(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Packet {
    tcp_packet(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        data_flags(payload.len()),
        payload,
    )
}

/// Builds a TCP SYN (connection-opening) segment.
pub fn tcp_syn(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
) -> Packet {
    tcp_packet(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        TcpFlags::SYN,
        b"",
    )
}

/// Builds an Ethernet + IPv4 + UDP frame carrying `payload`.
#[allow(clippy::too_many_arguments)]
pub fn udp_packet(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Packet {
    udp_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        payload.len(),
        |out| out.copy_from_slice(payload),
    )
}

/// Builds an ICMP echo request frame.
pub fn icmp_echo_request(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    identifier: u16,
    sequence: u16,
) -> Packet {
    let msg = IcmpMessage::echo_request(identifier, sequence, vec![0x47; 32]);
    let mut l4 = BytesMut::with_capacity(msg.len());
    msg.emit(&mut l4);
    ipv4_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        IpProtocol::Icmp,
        l4.len(),
        |segment| segment.copy_from_slice(&l4),
    )
}

/// Builds a broadcast ARP who-has request.
pub fn arp_request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Packet {
    let arp = ArpPacket::request(sender_mac, sender_ip, target_ip);
    arp_frame(sender_mac, MacAddr::BROADCAST, &arp)
}

/// Builds a unicast ARP reply answering `request`.
pub fn arp_reply(request: &ArpPacket, responder_mac: MacAddr) -> Packet {
    let arp = ArpPacket::reply_to(request, responder_mac);
    arp_frame(responder_mac, request.sender_mac, &arp)
}

/// Builds a DNS A-record query carried over UDP to port 53.
#[allow(clippy::too_many_arguments)]
pub fn dns_query(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    id: u16,
    name: &str,
) -> Packet {
    udp_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        DNS_PORT,
        dns::query_len(name),
        |out| dns::write_query(out, id, name),
    )
}

/// Builds a DNS response frame for the given query packet contents.
#[allow(clippy::too_many_arguments)]
pub fn dns_response(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    dst_port: u16,
    query: &DnsMessage,
    addresses: &[Ipv4Addr],
    ttl: u32,
) -> Packet {
    let msg = DnsMessage::response_to(query, addresses, ttl);
    udp_packet(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        DNS_PORT,
        dst_port,
        &msg.to_bytes(),
    )
}

/// Builds an HTTP GET request frame to port 80.
#[allow(clippy::too_many_arguments)]
pub fn http_get(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    host: &str,
    path: &str,
) -> Packet {
    let pieces = http::get_request_pieces(host, path);
    let len = pieces.iter().map(|piece| piece.len()).sum();
    tcp_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        src_port,
        HTTP_PORT,
        data_flags(len),
        len,
        |mut out| {
            for piece in pieces {
                let (head, rest) = out.split_at_mut(piece.len());
                head.copy_from_slice(piece);
                out = rest;
            }
        },
    )
}

/// Builds an HTTP response frame from port 80 back to the client.
#[allow(clippy::too_many_arguments)]
pub fn http_response(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    dst_port: u16,
    response: &HttpResponse,
) -> Packet {
    tcp_data(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        HTTP_PORT,
        dst_port,
        &response.to_bytes(),
    )
}

/// The flags of a data segment: `ACK`, plus `PSH` when it carries data.
fn data_flags(payload_len: usize) -> TcpFlags {
    TcpFlags {
        ack: true,
        psh: payload_len > 0,
        ..TcpFlags::default()
    }
}

/// Builds an Ethernet + IPv4 + TCP frame (sequence number 1, no options)
/// whose `payload_len`-byte payload `write_payload` fills.
#[allow(clippy::too_many_arguments)]
fn tcp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    flags: TcpFlags,
    payload_len: usize,
    write_payload: impl FnOnce(&mut [u8]),
) -> Packet {
    ipv4_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        IpProtocol::Tcp,
        TCP_HEADER_LEN + payload_len,
        |segment| {
            let (header, payload) = segment.split_at_mut(TCP_HEADER_LEN);
            header[0..2].copy_from_slice(&src_port.to_be_bytes());
            header[2..4].copy_from_slice(&dst_port.to_be_bytes());
            header[4..8].copy_from_slice(&1u32.to_be_bytes()); // sequence
            header[8..12].fill(0); // acknowledgement
            header[12] = ((TCP_HEADER_LEN / 4) as u8) << 4;
            header[13] = flags.to_byte();
            header[14..16].copy_from_slice(&u16::MAX.to_be_bytes()); // window
            header[16..20].fill(0); // checksum (below), urgent pointer
            write_payload(payload);
            let checksum = transport_checksum(src_ip, dst_ip, IpProtocol::Tcp.value(), segment);
            segment[16..18].copy_from_slice(&checksum.to_be_bytes());
        },
    )
}

/// Builds an Ethernet + IPv4 + UDP frame whose `payload_len`-byte payload
/// `write_payload` fills.
#[allow(clippy::too_many_arguments)]
fn udp_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    write_payload: impl FnOnce(&mut [u8]),
) -> Packet {
    let segment_len = UDP_HEADER_LEN + payload_len;
    ipv4_frame(
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
        IpProtocol::Udp,
        segment_len,
        |segment| {
            let (header, payload) = segment.split_at_mut(UDP_HEADER_LEN);
            header[0..2].copy_from_slice(&src_port.to_be_bytes());
            header[2..4].copy_from_slice(&dst_port.to_be_bytes());
            header[4..6].copy_from_slice(&(segment_len as u16).to_be_bytes());
            header[6..8].fill(0); // checksum, below
            write_payload(payload);
            let checksum = transport_checksum(src_ip, dst_ip, IpProtocol::Udp.value(), segment);
            segment[6..8].copy_from_slice(&checksum.to_be_bytes());
        },
    )
}

/// Builds an Ethernet + IPv4 frame (no options, don't-fragment, TTL 64)
/// around a `segment_len`-byte transport segment that `write_segment` fills,
/// checksum included.
fn ipv4_frame(
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    protocol: IpProtocol,
    segment_len: usize,
    write_segment: impl FnOnce(&mut [u8]),
) -> Packet {
    one_write(SEGMENT_AT + segment_len, |frame| {
        let (headers, segment) = frame.split_at_mut(SEGMENT_AT);
        let (ethernet, ip) = headers.split_at_mut(ETHERNET_HEADER_LEN);
        write_ethernet(ethernet, src_mac, dst_mac, EtherType::Ipv4);
        ip[0] = 0x45; // version 4, five-word header
        ip[1] = 0; // DSCP / ECN
        ip[2..4].copy_from_slice(&((IPV4_HEADER_LEN + segment_len) as u16).to_be_bytes());
        ip[4..6].fill(0); // identification
        ip[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // don't fragment
        ip[8] = 64; // TTL
        ip[9] = protocol.value();
        ip[10..12].fill(0); // checksum, below
        ip[12..16].copy_from_slice(&src_ip.octets());
        ip[16..20].copy_from_slice(&dst_ip.octets());
        let checksum = internet_checksum(ip);
        ip[10..12].copy_from_slice(&checksum.to_be_bytes());
        write_segment(segment);
    })
}

/// Builds an Ethernet frame carrying `arp`.
fn arp_frame(src_mac: MacAddr, dst_mac: MacAddr, arp: &ArpPacket) -> Packet {
    let mut payload = BytesMut::with_capacity(28);
    arp.emit(&mut payload);
    one_write(ETHERNET_HEADER_LEN + payload.len(), |frame| {
        let (ethernet, body) = frame.split_at_mut(ETHERNET_HEADER_LEN);
        write_ethernet(ethernet, src_mac, dst_mac, EtherType::Arp);
        body.copy_from_slice(&payload);
    })
}

fn write_ethernet(out: &mut [u8], src_mac: MacAddr, dst_mac: MacAddr, ethertype: EtherType) {
    out[0..6].copy_from_slice(&dst_mac.octets());
    out[6..12].copy_from_slice(&src_mac.octets());
    out[12..14].copy_from_slice(&ethertype.value().to_be_bytes());
}

/// Lets `write` fill a `len`-byte frame, copies it into the frame's `Bytes`
/// and parses it.
fn one_write(len: usize, write: impl FnOnce(&mut [u8])) -> Packet {
    let bytes = if len <= STACK_FRAME {
        let mut frame = [0u8; STACK_FRAME];
        write(&mut frame[..len]);
        Bytes::copy_from_slice(&frame[..len])
    } else {
        let mut frame = vec![0u8; len];
        write(&mut frame);
        Bytes::from(frame)
    };
    Packet::parse(bytes).expect("builder produced an unparseable frame")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn macs() -> (MacAddr, MacAddr) {
        (MacAddr::derived(1, 1), MacAddr::derived(2, 1))
    }
    fn ips() -> (Ipv4Addr, Ipv4Addr) {
        (Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(203, 0, 113, 5))
    }

    #[test]
    fn every_builder_produces_parseable_frames() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        let packets = vec![
            tcp_syn(cm, gm, ci, si, 40000, 443),
            tcp_data(cm, gm, ci, si, 40000, 443, b"data"),
            udp_packet(cm, gm, ci, si, 5000, 5001, b"payload"),
            icmp_echo_request(cm, gm, ci, si, 1, 1),
            arp_request(cm, ci, si),
            dns_query(cm, gm, ci, si, 4242, 7, "edge.example"),
            http_get(cm, gm, ci, si, 40001, "www.example", "/"),
        ];
        for pkt in packets {
            // Re-parsing the raw bytes must give back an identical packet.
            let reparsed = Packet::parse(pkt.bytes().clone()).unwrap();
            assert_eq!(&reparsed, &pkt);
        }
    }

    #[test]
    fn dns_response_builder_answers_the_query() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        let query_pkt = dns_query(cm, gm, ci, si, 4242, 7, "service.example");
        let query = query_pkt.dns().unwrap();
        let addrs = [Ipv4Addr::new(10, 10, 0, 1)];
        let resp_pkt = dns_response(gm, cm, si, ci, 4242, &query, &addrs, 60);
        let resp = resp_pkt.dns().unwrap();
        assert!(resp.is_response);
        assert_eq!(resp.id, 7);
        assert_eq!(resp.a_records(), addrs.to_vec());
    }

    #[test]
    fn http_response_builder_is_parseable() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        let resp = HttpResponse::forbidden();
        let pkt = http_response(gm, cm, si, ci, 40001, &resp);
        let tcp = pkt.tcp().unwrap();
        assert_eq!(tcp.src_port, HTTP_PORT);
        let parsed = HttpResponse::parse(pkt.tcp_payload().unwrap()).unwrap();
        assert_eq!(parsed.status, 403);
    }

    #[test]
    fn arp_reply_targets_the_requester() {
        let (cm, gm) = macs();
        let (ci, si) = ips();
        let req_pkt = arp_request(cm, ci, si);
        let req = req_pkt.arp().unwrap();
        let reply_pkt = arp_reply(req, gm);
        assert_eq!(reply_pkt.dst_mac(), cm);
        let reply = reply_pkt.arp().unwrap();
        assert_eq!(reply.sender_mac, gm);
        assert_eq!(reply.target_ip, ci);
    }
}
