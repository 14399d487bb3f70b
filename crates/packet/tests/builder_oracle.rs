//! The one-write frame builders against the layered encoders they replaced.
//!
//! Each builder writes its frame once, headers at fixed offsets and
//! checksums in place. The layered encoders — `EthernetHeader::emit`,
//! `Ipv4Header::emit`, `TcpHeader::emit`, `UdpHeader::emit`,
//! `DnsMessage::emit` and `HttpRequest::to_bytes`, each layer copied into the
//! next — are the specification: every frame must equal theirs byte for
//! byte, on random addresses, ports and flags, payloads on both sides of the
//! stack buffer, and DNS names that exercise every name rule.

use bytes::BytesMut;
use gnf_packet::builder;
use gnf_packet::{
    DnsMessage, EtherType, EthernetHeader, HttpRequest, HttpResponse, IcmpMessage, IpProtocol,
    Ipv4Header, TcpFlags, TcpHeader, UdpHeader,
};
use gnf_types::MacAddr;
use proptest::prelude::*;
use std::net::Ipv4Addr;

/// Who a frame is from and to, at layers 2 and 3.
#[derive(Debug, Clone, Copy)]
struct Ends {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
}

fn arb_ends() -> impl Strategy<Value = Ends> {
    (
        any::<[u8; 6]>(),
        any::<[u8; 6]>(),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(src_mac, dst_mac, src_ip, dst_ip)| Ends {
            src_mac: MacAddr::new(src_mac),
            dst_mac: MacAddr::new(dst_mac),
            src_ip: Ipv4Addr::from(src_ip),
            dst_ip: Ipv4Addr::from(dst_ip),
        })
}

/// A name built from labels that are short, empty or longer than the
/// 63-byte label limit, in mixed case, with zero, one or two trailing dots.
fn arb_dns_name() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec("[a-zA-Z0-9-]{0,8}|[a-zA-Z]{60,70}", 1..5),
        "(|\\.|\\.\\.)",
    )
        .prop_map(|(labels, dots)| labels.join(".") + &dots)
}

fn layered_frame(ends: Ends, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
    let mut frame = BytesMut::new();
    EthernetHeader {
        dst: ends.dst_mac,
        src: ends.src_mac,
        ethertype,
    }
    .emit(&mut frame);
    frame.extend_from_slice(payload);
    frame.to_vec()
}

fn layered_ipv4(ends: Ends, protocol: IpProtocol, l4: &[u8]) -> Vec<u8> {
    let mut ip = BytesMut::new();
    Ipv4Header::new(ends.src_ip, ends.dst_ip, protocol, l4.len()).emit(&mut ip, l4.len());
    ip.extend_from_slice(l4);
    layered_frame(ends, EtherType::Ipv4, &ip)
}

fn layered_tcp(
    ends: Ends,
    src_port: u16,
    dst_port: u16,
    flags: TcpFlags,
    payload: &[u8],
) -> Vec<u8> {
    let mut tcp = TcpHeader::new(src_port, dst_port, flags);
    tcp.seq = 1;
    let mut l4 = BytesMut::new();
    tcp.emit(&mut l4, ends.src_ip, ends.dst_ip, payload);
    layered_ipv4(ends, IpProtocol::Tcp, &l4)
}

fn layered_udp(ends: Ends, src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
    let mut l4 = BytesMut::new();
    UdpHeader::new(src_port, dst_port, payload.len()).emit(
        &mut l4,
        ends.src_ip,
        ends.dst_ip,
        payload,
    );
    layered_ipv4(ends, IpProtocol::Udp, &l4)
}

fn data_flags(payload: &[u8]) -> TcpFlags {
    TcpFlags {
        ack: true,
        psh: !payload.is_empty(),
        ..TcpFlags::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tcp_builders_equal_the_layered_encoders(
        ends in arb_ends(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        flags in any::<u8>().prop_map(TcpFlags::from_byte),
        payload in proptest::collection::vec(any::<u8>(), 0..4_001),
    ) {
        let Ends { src_mac, dst_mac, src_ip, dst_ip } = ends;
        let packet = builder::tcp_packet(
            src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, flags, &payload,
        );
        prop_assert_eq!(
            packet.bytes().as_ref(),
            &layered_tcp(ends, src_port, dst_port, flags, &payload)[..]
        );
        let data = builder::tcp_data(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, &payload);
        prop_assert_eq!(
            data.bytes().as_ref(),
            &layered_tcp(ends, src_port, dst_port, data_flags(&payload), &payload)[..]
        );
        let syn = builder::tcp_syn(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port);
        prop_assert_eq!(
            syn.bytes().as_ref(),
            &layered_tcp(ends, src_port, dst_port, TcpFlags::SYN, b"")[..]
        );
    }

    #[test]
    fn udp_builder_equals_the_layered_encoders(
        ends in arb_ends(),
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..4_001),
    ) {
        let Ends { src_mac, dst_mac, src_ip, dst_ip } = ends;
        let packet = builder::udp_packet(src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, &payload);
        prop_assert_eq!(
            packet.bytes().as_ref(),
            &layered_udp(ends, src_port, dst_port, &payload)[..]
        );
    }

    #[test]
    fn dns_query_equals_the_layered_encoders(
        ends in arb_ends(),
        src_port in any::<u16>(),
        id in any::<u16>(),
        name in arb_dns_name(),
    ) {
        let Ends { src_mac, dst_mac, src_ip, dst_ip } = ends;
        let packet = builder::dns_query(src_mac, dst_mac, src_ip, dst_ip, src_port, id, &name);
        let message = DnsMessage::query(id, &name).to_bytes();
        prop_assert_eq!(
            packet.bytes().as_ref(),
            &layered_udp(ends, src_port, 53, &message)[..]
        );
    }

    #[test]
    fn http_get_equals_the_layered_encoders(
        ends in arb_ends(),
        src_port in any::<u16>(),
        host in "[a-zA-Z0-9.-]{0,24}",
        path in "/[a-zA-Z0-9/_.?=%-]{0,1600}",
    ) {
        let Ends { src_mac, dst_mac, src_ip, dst_ip } = ends;
        let packet = builder::http_get(src_mac, dst_mac, src_ip, dst_ip, src_port, &host, &path);
        let request = HttpRequest::get(&host, &path).to_bytes();
        prop_assert_eq!(
            packet.bytes().as_ref(),
            &layered_tcp(ends, src_port, 80, data_flags(&request), &request)[..]
        );
    }
}

fn ends() -> Ends {
    Ends {
        src_mac: MacAddr::derived(1, 1),
        dst_mac: MacAddr::derived(2, 1),
        src_ip: Ipv4Addr::new(10, 0, 0, 2),
        dst_ip: Ipv4Addr::new(203, 0, 113, 5),
    }
}

#[test]
fn frames_on_both_sides_of_the_stack_buffer_equal_the_layered_encoders() {
    // The stack buffer holds 1 536 bytes: a TCP payload of 1 482 or a UDP
    // payload of 1 494 fills it exactly.
    let Ends {
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
    } = ends();
    for len in (1_470..1_510).chain([0, 1, 3_999, 4_000]) {
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        let tcp = builder::tcp_data(src_mac, dst_mac, src_ip, dst_ip, 40_000, 443, &payload);
        assert_eq!(
            tcp.bytes().as_ref(),
            &layered_tcp(ends(), 40_000, 443, data_flags(&payload), &payload)[..],
            "tcp, {len}-byte payload"
        );
        let udp = builder::udp_packet(src_mac, dst_mac, src_ip, dst_ip, 5_004, 5_004, &payload);
        assert_eq!(
            udp.bytes().as_ref(),
            &layered_udp(ends(), 5_004, 5_004, &payload)[..],
            "udp, {len}-byte payload"
        );
    }
}

#[test]
fn dns_names_follow_the_wire_rules() {
    let Ends {
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
    } = ends();
    let long = "A".repeat(70);
    let cut = "a".repeat(63);
    let cases: [(&str, Vec<u8>); 6] = [
        // Lower-cased, trailing dot stripped.
        ("WWW.Gla.ac.UK.", b"\x03www\x03gla\x02ac\x02uk\x00".to_vec()),
        // Every trailing dot stripped.
        ("edge.example..", b"\x04edge\x07example\x00".to_vec()),
        // An empty label inside a name is a zero-length label.
        ("a..b", b"\x01a\x00\x01b\x00".to_vec()),
        // The root, spelled either way.
        ("", b"\x00".to_vec()),
        (".", b"\x00".to_vec()),
        // A label longer than 63 bytes is cut at 63.
        (
            &format!("{long}.x"),
            [&[63u8][..], cut.as_bytes(), b"\x01x\x00"].concat(),
        ),
    ];
    for (name, wire_name) in cases {
        let packet = builder::dns_query(src_mac, dst_mac, src_ip, dst_ip, 4_242, 0xbeef, name);
        let header = [0xbe, 0xef, 0x01, 0x00, 0, 1, 0, 0, 0, 0, 0, 0];
        let expected = [&header[..], &wire_name, &[0, 1, 0, 1]].concat();
        assert_eq!(packet.udp_payload().unwrap(), &expected[..], "{name:?}");
        assert_eq!(
            DnsMessage::query(0xbeef, name).to_bytes(),
            expected,
            "{name:?}: the oracle agrees"
        );
    }
}

#[test]
fn the_other_builders_equal_the_layered_encoders() {
    let e = ends();
    let Ends {
        src_mac,
        dst_mac,
        src_ip,
        dst_ip,
    } = e;

    let mut icmp = BytesMut::new();
    IcmpMessage::echo_request(9, 4, vec![0x47; 32]).emit(&mut icmp);
    assert_eq!(
        builder::icmp_echo_request(src_mac, dst_mac, src_ip, dst_ip, 9, 4)
            .bytes()
            .as_ref(),
        &layered_ipv4(e, IpProtocol::Icmp, &icmp)[..]
    );

    let request = builder::arp_request(src_mac, src_ip, dst_ip);
    let mut arp = BytesMut::new();
    request.arp().unwrap().emit(&mut arp);
    let broadcast = Ends {
        dst_mac: MacAddr::BROADCAST,
        ..e
    };
    assert_eq!(
        request.bytes().as_ref(),
        &layered_frame(broadcast, EtherType::Arp, &arp)[..]
    );
    let reply = builder::arp_reply(request.arp().unwrap(), dst_mac);
    let mut arp = BytesMut::new();
    reply.arp().unwrap().emit(&mut arp);
    let back = Ends {
        src_mac: dst_mac,
        dst_mac: src_mac,
        ..e
    };
    assert_eq!(
        reply.bytes().as_ref(),
        &layered_frame(back, EtherType::Arp, &arp)[..]
    );

    let response = HttpResponse::forbidden();
    let back = Ends {
        src_mac: dst_mac,
        dst_mac: src_mac,
        src_ip: dst_ip,
        dst_ip: src_ip,
    };
    let body = response.to_bytes();
    assert_eq!(
        builder::http_response(dst_mac, src_mac, dst_ip, src_ip, 40_001, &response)
            .bytes()
            .as_ref(),
        &layered_tcp(back, 80, 40_001, data_flags(&body), &body)[..]
    );
}
