//! Property-based tests for the packet layer: every frame produced by the
//! builders must survive a parse → re-parse cycle, checksums must verify, and
//! random byte strings must never cause a panic.

use bytes::BytesMut;
use gnf_packet::builder;
use gnf_packet::checksum;
use gnf_packet::{
    DnsMessage, HttpMethod, HttpRequest, HttpRequestView, IpProtocol, Ipv4Header, Packet, TcpFlags,
    UdpHeader,
};
use gnf_types::{GnfError, MacAddr};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    (any::<u8>(), any::<u32>()).prop_map(|(ns, ix)| MacAddr::derived(ns, ix))
}

fn arb_flags() -> impl Strategy<Value = TcpFlags> {
    any::<u8>().prop_map(TcpFlags::from_byte)
}

fn arb_dns_name() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,12}", 1..5).prop_map(|labels| labels.join("."))
}

/// A 16-bit word that is all-zeros or all-ones half of the time — the words
/// on which one's-complement arithmetic has two spellings of zero.
fn arb_corner_word() -> impl Strategy<Value = u16> {
    (any::<u16>(), 0u8..4).prop_map(|(word, pick)| match pick {
        0 => 0x0000,
        1 => 0xffff,
        _ => word,
    })
}

fn arb_corner_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    (arb_corner_word(), arb_corner_word())
        .prop_map(|(hi, lo)| Ipv4Addr::from(u32::from(hi) << 16 | u32::from(lo)))
}

/// The HTTP request parser as it was before the borrowed view existed —
/// split the head off, copy it, allocate every field, and reject with the
/// messages the view was first written with. Kept as the specification
/// [`HttpRequestView::parse`] is held to, byte for byte and error for error.
fn reference_http_parse(data: &[u8]) -> Result<HttpRequest, GnfError> {
    let malformed = |reason: String| GnfError::malformed_packet("http", reason);
    let separator = data
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| malformed("incomplete header block".into()))?;
    let head = std::str::from_utf8(&data[..separator])
        .map_err(|_| malformed("non-UTF8 header block".into()))?
        .to_string();
    let mut lines = head.split("\r\n");
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let token = parts
        .next()
        .ok_or_else(|| malformed("missing method".into()))?;
    let method =
        HttpMethod::parse(token).ok_or_else(|| malformed(format!("unknown method {token:?}")))?;
    let path = parts
        .next()
        .ok_or_else(|| malformed("missing request target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| malformed("missing version".into()))?
        .to_string();
    if !version.starts_with("HTTP/") {
        return Err(malformed(format!("bad version {version:?}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(HttpRequest {
        method,
        path,
        version,
        headers,
        body: data[separator + 4..].to_vec(),
    })
}

/// The address translator's rewrite as it was before the in-place patch:
/// parse every header, emit every header again, recompute both checksums
/// over the whole frame. Kept as the specification
/// [`Packet::into_rewritten_endpoints`] is held to on the frames both
/// handle alike (no IPv4 options, no padding, a checksum present).
fn reference_rebuild(
    packet: &Packet,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
) -> Option<Packet> {
    let mut l4 = BytesMut::new();
    match packet.ipv4()?.protocol {
        IpProtocol::Tcp => {
            let mut tcp = packet.tcp()?.clone();
            tcp.src_port = src_port;
            tcp.dst_port = dst_port;
            tcp.emit(&mut l4, src, dst, packet.tcp_payload()?);
        }
        IpProtocol::Udp => {
            let payload = packet.udp_payload()?;
            UdpHeader::new(src_port, dst_port, payload.len()).emit(&mut l4, src, dst, payload);
        }
        _ => return None,
    }
    let ip = Ipv4Header {
        src,
        dst,
        options: Vec::new(),
        ..packet.ipv4()?.clone()
    };
    let mut frame = BytesMut::with_capacity(14 + 20 + l4.len());
    packet.ethernet().emit(&mut frame);
    ip.emit(&mut frame, l4.len());
    frame.extend_from_slice(&l4);
    Packet::parse(frame.freeze()).ok()
}

/// True when the IPv4 header checksum and the transport checksum of a
/// TCP/UDP frame (no IPv4 options) both verify.
fn checksums_verify(packet: &Packet) -> bool {
    let ip = packet.ipv4().unwrap();
    let segment = &packet.bytes()[34..14 + usize::from(ip.total_length)];
    let mut transport = ip.pseudo_header_checksum(segment.len());
    transport.add_bytes(segment);
    checksum::verify(&packet.bytes()[14..34]) && transport.finish() == 0
}

proptest! {
    // Differential tests against the two reference implementations above:
    // cheap per case, and the corners are rare, so run more cases.
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn http_view_agrees_with_the_owned_reference_parser(
        method in "(GET|HEAD|POST|PUT|DELETE|CONNECT|OPTIONS|BREW|get)",
        // Request-line padding: every ASCII `White_Space` byte but the
        // line-ending `\r` and `\n`, which the mutations bring in.
        spaces in ("[ \t\x0B\x0C]{0,1}", "[ \t\x0B\x0C]{1,2}", "[ \t\x0B\x0C]{1,2}", "[ \t\x0B\x0C]{0,2}"),
        path in "/[a-zA-Z0-9/_.?=-]{0,24}",
        version in "(HTTP/1\\.1|HTTP/1\\.0|HTTP/|SPDY/3|http/1\\.1)",
        // Half the names spell `host` in some case, so a head often has
        // duplicate and differently-cased `Host` headers, some empty.
        headers in proptest::collection::vec(
            (
                "([A-Za-z][A-Za-z-]{0,9}|[Hh][Oo][Ss][Tt])",
                "[ \t\x0B\x0C]{0,2}",
                "[a-zA-Z0-9.:/ -]{0,16}",
                "[ \t\x0B\x0C]{0,2}",
            ),
            0..5,
        ),
        // One case in three puts a multi-byte character (two of them
        // Unicode `White_Space`) in the path or a header value: a valid
        // UTF-8 head that is not ASCII.
        unicode in 0u8..6,
        wide in 0usize..4,
        body in proptest::collection::vec(any::<u8>(), 0..40),
        mutation in 0u8..9,
        position in any::<usize>(),
        bit in 0u8..8,
    ) {
        let (lead, gap1, gap2, trail) = spaces;
        let wide = ["\u{e9}", "\u{a0}", "\u{2003}", "/\u{fc}"][wide];
        let mut path = path;
        let mut headers = headers;
        match (unicode, headers.first_mut()) {
            (0, _) | (1, None) => path.push_str(wide),
            (1, Some((_, _, value, _))) => value.push_str(wide),
            _ => {}
        }
        let mut bytes = format!("{lead}{method}{gap1}{path}{gap2}{version}{trail}\r\n").into_bytes();
        for (name, pad, value, trail) in &headers {
            bytes.extend_from_slice(format!("{name}:{pad}{value}{trail}\r\n").as_bytes());
        }
        let head_len = bytes.len();
        bytes.extend_from_slice(b"\r\n");
        bytes.extend_from_slice(&body);

        // Hostile variants of the well-formed request.
        let at = position % bytes.len();
        match mutation {
            0 | 1 => {}
            2 => bytes.truncate(at),
            3 => bytes[at] ^= 1 << bit,
            4 => bytes.insert(position % head_len, 0xff),
            5 => {
                // A header line without a colon.
                if let Some(colon) = bytes[..head_len].iter().rposition(|b| *b == b':') {
                    bytes[colon] = b' ';
                }
            }
            6 => {
                // A bare `\n` where a `\r\n` was.
                let cr = bytes.iter().position(|b| *b == b'\r').unwrap();
                bytes.remove(cr);
            }
            7 => {
                // No blank line between head and body.
                bytes.drain(head_len..head_len + 2);
            }
            _ => {
                bytes.remove(at);
            }
        }

        let reference = reference_http_parse(&bytes);
        let view = HttpRequestView::parse(&bytes);
        prop_assert_eq!(view.as_ref().err(), reference.as_ref().err());
        prop_assert_eq!(HttpRequest::parse(&bytes), reference.clone());
        if let (Ok(view), Ok(owned)) = (view, reference) {
            prop_assert_eq!(view.to_owned(), owned.clone());
            prop_assert_eq!(view.host(), owned.host());
            prop_assert_eq!(view.url(), owned.url());
            for (name, _) in &owned.headers {
                prop_assert_eq!(view.header(&name.to_ascii_uppercase()), owned.header(name));
            }
            prop_assert_eq!(view.header("x-absent"), None);
        }
    }

    #[test]
    fn rewritten_endpoints_equal_a_full_rebuild(
        udp in any::<bool>(),
        flags in arb_flags(),
        payload in proptest::collection::vec(any::<u8>(), 0..1501),
        force in 0u8..3,
        src_ip in arb_corner_ipv4(),
        dst_ip in arb_corner_ipv4(),
        src_port in arb_corner_word(),
        dst_port in arb_corner_word(),
        new_src_ip in arb_corner_ipv4(),
        new_dst_ip in arb_corner_ipv4(),
        new_src_port in arb_corner_word(),
        new_dst_port in arb_corner_word(),
    ) {
        let (a, b) = (MacAddr::derived(1, 1), MacAddr::derived(2, 2));
        let build = |src_ip, dst_ip, src_port, dst_port, payload: &[u8]| {
            if udp {
                builder::udp_packet(a, b, src_ip, dst_ip, src_port, dst_port, payload)
            } else {
                builder::tcp_packet(a, b, src_ip, dst_ip, src_port, dst_port, flags, payload)
            }
        };
        // One case in three each: steer the transport checksum of the
        // original, or of the rewritten frame, onto the value that computes
        // to zero and is sent as 0xffff. With the first payload word zero
        // the checksum is `c`; writing `c` there makes the sum all-ones.
        let mut payload = payload;
        if force > 0 && payload.len() >= 2 {
            payload[..2].fill(0);
            let probe = if force == 1 {
                build(src_ip, dst_ip, src_port, dst_port, &payload)
            } else {
                build(new_src_ip, new_dst_ip, new_src_port, new_dst_port, &payload)
            };
            let at = if udp { 34 + 6 } else { 34 + 16 };
            payload[..2].copy_from_slice(&probe.bytes()[at..at + 2]);
        }
        let original = build(src_ip, dst_ip, src_port, dst_port, &payload);
        if force == 1 && payload.len() >= 2 {
            let at = if udp { 34 + 6 } else { 34 + 16 };
            prop_assert_eq!(&original.bytes()[at..at + 2], &[0xff, 0xff]);
        }

        let rebuilt =
            reference_rebuild(&original, new_src_ip, new_dst_ip, new_src_port, new_dst_port)
                .unwrap();
        // The frame's only owner is patched in place; with a clone holding
        // the frame, the rewrite patches a copy and the clone keeps its
        // bytes. A typed view built before the rewrite is not served after.
        let mut outputs = Vec::new();
        for shared in [false, true] {
            let input = Packet::from_vec(original.bytes().to_vec()).unwrap();
            prop_assert_eq!(input.ipv4().unwrap().src, src_ip);
            let frame = input.bytes().as_ptr();
            let held = shared.then(|| input.clone());
            let patched = input
                .into_rewritten_endpoints(new_src_ip, new_dst_ip, new_src_port, new_dst_port)
                .unwrap();
            prop_assert_eq!(patched.bytes(), rebuilt.bytes());
            prop_assert_eq!(patched.bytes().as_ptr() == frame, !shared);
            if let Some(held) = held {
                prop_assert_eq!(held.bytes(), original.bytes());
            }
            let ip = patched.ipv4().unwrap();
            prop_assert_eq!((ip.src, ip.dst), (new_src_ip, new_dst_ip));
            outputs.push(patched);
        }
        let patched = outputs.pop().unwrap();
        prop_assert!(checksums_verify(&patched));
        let tuple = patched.five_tuple().unwrap();
        prop_assert_eq!(
            (tuple.src_ip, tuple.dst_ip, tuple.src_port, tuple.dst_port),
            (new_src_ip, new_dst_ip, new_src_port, new_dst_port)
        );

        let restored = patched
            .clone()
            .into_rewritten_endpoints(src_ip, dst_ip, src_port, dst_port)
            .unwrap();
        prop_assert_eq!(restored.bytes(), original.bytes());

        // A datagram sent without a checksum gets the same patch and still
        // carries none.
        if udp {
            let mut bare = original.bytes().to_vec();
            bare[40..42].fill(0);
            let bare = Packet::from_vec(bare)
                .unwrap()
                .into_rewritten_endpoints(new_src_ip, new_dst_ip, new_src_port, new_dst_port)
                .unwrap();
            prop_assert_eq!(&bare.bytes()[40..42], &[0, 0]);
            prop_assert_eq!(&bare.bytes()[..40], &patched.bytes()[..40]);
            prop_assert_eq!(&bare.bytes()[42..], &patched.bytes()[42..]);
        }

        // Neither ICMP nor ARP carries endpoints to rewrite: either comes
        // back as it went in, owned alone or shared.
        let others = [
            builder::icmp_echo_request(a, b, src_ip, dst_ip, src_port, dst_port),
            builder::arp_request(a, src_ip, dst_ip),
        ];
        for other in others {
            for shared in [false, true] {
                let input = Packet::from_vec(other.bytes().to_vec()).unwrap();
                let held = shared.then(|| input.clone());
                let back = input
                    .into_rewritten_endpoints(new_src_ip, new_dst_ip, new_src_port, new_dst_port)
                    .unwrap_err();
                prop_assert_eq!(back.bytes(), other.bytes());
                if let Some(held) = held {
                    prop_assert_eq!(held.bytes(), other.bytes());
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn tcp_frames_roundtrip(
        src_mac in arb_mac(),
        dst_mac in arb_mac(),
        src_ip in arb_ipv4(),
        dst_ip in arb_ipv4(),
        src_port in 1u16..,
        dst_port in 1u16..,
        flags in arb_flags(),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let pkt = builder::tcp_packet(
            src_mac, dst_mac, src_ip, dst_ip, src_port, dst_port, flags, &payload,
        );
        let reparsed = Packet::parse(pkt.bytes().clone()).unwrap();
        prop_assert_eq!(&reparsed, &pkt);
        let tcp = reparsed.tcp().unwrap();
        prop_assert_eq!(tcp.src_port, src_port);
        prop_assert_eq!(tcp.dst_port, dst_port);
        prop_assert_eq!(tcp.flags, flags);
        prop_assert_eq!(reparsed.tcp_payload().unwrap(), &payload[..]);
        let ft = reparsed.five_tuple().unwrap();
        prop_assert_eq!(ft.src_ip, src_ip);
        prop_assert_eq!(ft.dst_ip, dst_ip);
        // The canonical flow key must be direction-agnostic.
        prop_assert_eq!(ft.canonical(), ft.reversed().canonical());
    }

    #[test]
    fn udp_frames_roundtrip(
        src_ip in arb_ipv4(),
        dst_ip in arb_ipv4(),
        src_port in 1u16..,
        dst_port in 1u16..,
        payload in proptest::collection::vec(any::<u8>(), 0..900),
    ) {
        let pkt = builder::udp_packet(
            MacAddr::derived(1, 1), MacAddr::derived(2, 2),
            src_ip, dst_ip, src_port, dst_port, &payload,
        );
        let reparsed = Packet::parse(pkt.bytes().clone()).unwrap();
        prop_assert_eq!(reparsed.udp_payload().unwrap(), &payload[..]);
        prop_assert_eq!(reparsed.udp().unwrap().payload_len(), payload.len());
    }

    #[test]
    fn dns_messages_roundtrip(
        id in any::<u16>(),
        name in arb_dns_name(),
        addrs in proptest::collection::vec(arb_ipv4(), 0..8),
        ttl in 0u32..86_400,
    ) {
        let query = DnsMessage::query(id, &name);
        let parsed_query = DnsMessage::parse(&query.to_bytes()).unwrap();
        prop_assert_eq!(&parsed_query, &query);

        let response = DnsMessage::response_to(&query, &addrs, ttl);
        let parsed_response = DnsMessage::parse(&response.to_bytes()).unwrap();
        prop_assert_eq!(parsed_response.a_records(), addrs);
        prop_assert_eq!(parsed_response.id, id);
    }

    #[test]
    fn http_requests_roundtrip(
        host in "[a-z]{1,10}(\\.[a-z]{2,6}){1,2}",
        path in "/[a-zA-Z0-9/_.-]{0,40}",
    ) {
        let req = HttpRequest::get(&host, &path);
        let parsed = HttpRequest::parse(&req.to_bytes()).unwrap();
        prop_assert_eq!(parsed.host(), Some(host.as_str()));
        prop_assert_eq!(&parsed.path, &path);
    }

    #[test]
    fn random_bytes_never_panic_the_parser(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Must return Ok or Err, never panic.
        let _ = Packet::from_vec(bytes.clone());
        let _ = DnsMessage::parse(&bytes);
        let _ = HttpRequest::parse(&bytes);
    }

    #[test]
    fn icmp_echo_frames_roundtrip(
        identifier in any::<u16>(),
        sequence in any::<u16>(),
        src_ip in arb_ipv4(),
        dst_ip in arb_ipv4(),
    ) {
        let pkt = builder::icmp_echo_request(
            MacAddr::derived(1, 1), MacAddr::derived(2, 2),
            src_ip, dst_ip, identifier, sequence,
        );
        let icmp = pkt.icmp().unwrap();
        prop_assert_eq!(icmp.identifier, identifier);
        prop_assert_eq!(icmp.sequence, sequence);
    }
}
