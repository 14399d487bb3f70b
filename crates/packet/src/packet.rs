//! The high-level [`Packet`] type passed between clients, the software switch
//! and the network functions.
//!
//! A `Packet` owns the raw frame bytes plus a parsed view of the layers the
//! framework understands (Ethernet, ARP or IPv4, TCP/UDP/ICMP). Parsing is
//! split into two stages so the per-flow fast path stays cheap:
//!
//! * **Fast header scan** — performed once in [`Packet::parse`]. It fully
//!   *validates* the frame (same accept/reject decisions as the historical
//!   eager parser: Ethernet length, IPv4 version/IHL/checksum/total-length,
//!   TCP data offset, UDP length, ICMP checksum) and extracts the
//!   [`FiveTuple`] plus the transport payload offsets into a small `Copy`
//!   [`FlowMeta`] — no heap allocation beyond the frame itself.
//! * **Full layer parse** — building the [`NetworkLayer`] tree (header
//!   structs, option bytes, ICMP payload vectors) is deferred behind a
//!   `OnceLock` and only happens when an NF actually asks for a typed header
//!   via [`Packet::network`]/[`Packet::ipv4`]/[`Packet::tcp`]/etc. Packets
//!   that ride the switch's flow-cache fast path, and NFs that only need the
//!   five-tuple or raw payload bytes (firewall conntrack, rate limiter, IDS
//!   signature scan, DNS/HTTP payload parsing), never pay for it.
//!
//! ARP frames and unknown EtherTypes are resolved eagerly (they are rare
//! control traffic and their "parse" is trivial), so the lazy stage can never
//! fail: every frame that leaves `Packet::parse` successfully has already
//! been validated to the same depth the eager parser enforced.

use crate::arp::ArpPacket;
use crate::checksum::incremental_update;
use crate::dns::{DnsMessage, DNS_PORT};
use crate::ethernet::{EtherType, EthernetHeader, ETHERNET_HEADER_LEN};
use crate::flow::FiveTuple;
use crate::http::{looks_like_http_request, HttpRequest, HttpRequestView, HTTP_PORT};
use crate::icmp::{IcmpMessage, ICMP_HEADER_LEN};
use crate::ipv4::{IpProtocol, Ipv4Header, IPV4_HEADER_LEN};
use crate::tcp::{TcpFlags, TcpHeader, TCP_HEADER_LEN};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use bytes::Bytes;
use gnf_types::{GnfError, GnfResult, MacAddr};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;
use std::sync::OnceLock;

/// The parsed network layer of a frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetworkLayer {
    /// An ARP packet.
    Arp(ArpPacket),
    /// An IPv4 packet with its transport layer.
    Ipv4 {
        /// The IPv4 header.
        header: Ipv4Header,
        /// The transport layer carried inside.
        transport: TransportLayer,
    },
    /// Any other EtherType; payload left opaque.
    Other,
}

/// The parsed transport layer of an IPv4 packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TransportLayer {
    /// TCP segment: header plus the offset of its payload within the frame.
    Tcp {
        /// Parsed TCP header.
        header: TcpHeader,
        /// Offset of the TCP payload from the start of the frame.
        payload_offset: usize,
    },
    /// UDP datagram: header plus the offset of its payload within the frame.
    Udp {
        /// Parsed UDP header.
        header: UdpHeader,
        /// Offset of the UDP payload from the start of the frame.
        payload_offset: usize,
    },
    /// ICMP message (fully parsed, including payload).
    Icmp(IcmpMessage),
    /// Unknown IP protocol; payload left opaque.
    Other,
}

/// Flow metadata extracted by the fast header scan: everything the switch's
/// flow cache and the payload-oriented NFs need, with no heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowMeta {
    /// The transport five-tuple (ports are 0 for ICMP).
    pub tuple: FiveTuple,
    /// Offset of the transport header from the start of the frame.
    l4_offset: usize,
    /// Offset of the transport payload from the start of the frame.
    payload_offset: usize,
    /// End of the transport payload (frame offset, padding excluded).
    payload_end: usize,
}

/// What the fast header scan concluded about the layers behind Ethernet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeaderScan {
    /// ARP / unknown EtherType / IPv4 with an unknown transport: validated,
    /// but carries no transport flow.
    NonFlow,
    /// IPv4 carrying TCP, UDP or ICMP.
    Flow(FlowMeta),
}

/// A validated Ethernet frame flowing through the GNF data plane.
///
/// The lazily built layer view is boxed: packets move by value between the
/// switch, the chain and every NF (and through `Verdict`s), so keeping the
/// struct small — frame handle, Ethernet header, fast-scan metadata and one
/// pointer — makes each hop a sub-cacheline copy instead of dragging the
/// full parsed header tree along.
pub struct Packet {
    bytes: Bytes,
    ethernet: EthernetHeader,
    scan: HeaderScan,
    network: OnceLock<Box<NetworkLayer>>,
}

impl Packet {
    /// Parses a raw Ethernet frame.
    ///
    /// Runs the fast header scan: the frame is fully validated (malformed
    /// frames are rejected here, never later), but typed layer structs are
    /// only built on first access.
    pub fn parse(bytes: Bytes) -> GnfResult<Self> {
        let (ethernet, eth_len) = EthernetHeader::parse(&bytes)?;
        let network = OnceLock::new();
        let scan = match ethernet.ethertype {
            EtherType::Arp => {
                // ARP is rare control traffic: parse eagerly so the lazy
                // stage is infallible.
                let (arp, _) = ArpPacket::parse(&bytes[eth_len..])?;
                let _ = network.set(Box::new(NetworkLayer::Arp(arp)));
                HeaderScan::NonFlow
            }
            EtherType::Ipv4 => Self::scan_ipv4(&bytes, eth_len)?,
            _ => {
                let _ = network.set(Box::new(NetworkLayer::Other));
                HeaderScan::NonFlow
            }
        };
        Ok(Packet {
            bytes,
            ethernet,
            scan,
            network,
        })
    }

    /// Validates the IPv4 and transport headers and extracts the flow
    /// metadata, enforcing exactly the checks the typed parsers enforce.
    fn scan_ipv4(bytes: &[u8], eth_len: usize) -> GnfResult<HeaderScan> {
        let data = &bytes[eth_len..];
        if data.len() < IPV4_HEADER_LEN {
            return Err(GnfError::malformed_packet(
                "ipv4",
                format!("header too short: {} bytes", data.len()),
            ));
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(GnfError::malformed_packet(
                "ipv4",
                format!("unexpected version {version}"),
            ));
        }
        let ihl = (data[0] & 0x0f) as usize * 4;
        if ihl < IPV4_HEADER_LEN || data.len() < ihl {
            return Err(GnfError::malformed_packet(
                "ipv4",
                format!("invalid IHL {ihl} for {}-byte buffer", data.len()),
            ));
        }
        if crate::checksum::internet_checksum(&data[..ihl]) != 0 {
            return Err(GnfError::malformed_packet(
                "ipv4",
                "header checksum mismatch",
            ));
        }
        let total_length = u16::from_be_bytes([data[2], data[3]]);
        if (total_length as usize) < ihl {
            return Err(GnfError::malformed_packet(
                "ipv4",
                format!("total length {total_length} shorter than header {ihl}"),
            ));
        }
        let src = std::net::Ipv4Addr::new(data[12], data[13], data[14], data[15]);
        let dst = std::net::Ipv4Addr::new(data[16], data[17], data[18], data[19]);
        let protocol = IpProtocol::from(data[9]);

        let l4_offset = eth_len + ihl;
        // Respect the IPv4 total length: anything beyond it is padding.
        let ip_end = (eth_len + total_length as usize).min(bytes.len());
        let l4 = &bytes[l4_offset..ip_end];
        let meta = match protocol {
            IpProtocol::Tcp => {
                if l4.len() < TCP_HEADER_LEN {
                    return Err(GnfError::malformed_packet(
                        "tcp",
                        format!("header too short: {} bytes", l4.len()),
                    ));
                }
                let data_offset = ((l4[12] >> 4) as usize) * 4;
                if data_offset < TCP_HEADER_LEN || l4.len() < data_offset {
                    return Err(GnfError::malformed_packet(
                        "tcp",
                        format!("invalid data offset {data_offset}"),
                    ));
                }
                FlowMeta {
                    tuple: FiveTuple::new(
                        src,
                        dst,
                        protocol,
                        u16::from_be_bytes([l4[0], l4[1]]),
                        u16::from_be_bytes([l4[2], l4[3]]),
                    ),
                    l4_offset,
                    payload_offset: l4_offset + data_offset,
                    payload_end: ip_end,
                }
            }
            IpProtocol::Udp => {
                if l4.len() < UDP_HEADER_LEN {
                    return Err(GnfError::malformed_packet(
                        "udp",
                        format!("header too short: {} bytes", l4.len()),
                    ));
                }
                let length = u16::from_be_bytes([l4[4], l4[5]]) as usize;
                if length < UDP_HEADER_LEN {
                    return Err(GnfError::malformed_packet(
                        "udp",
                        format!("length field {length} below header size"),
                    ));
                }
                let payload_offset = l4_offset + UDP_HEADER_LEN;
                FlowMeta {
                    tuple: FiveTuple::new(
                        src,
                        dst,
                        protocol,
                        u16::from_be_bytes([l4[0], l4[1]]),
                        u16::from_be_bytes([l4[2], l4[3]]),
                    ),
                    l4_offset,
                    payload_offset,
                    // The historical parser bounded the UDP payload by the
                    // length field and the frame end (not the IP end).
                    payload_end: (payload_offset + (length - UDP_HEADER_LEN)).min(bytes.len()),
                }
            }
            IpProtocol::Icmp => {
                if l4.len() < ICMP_HEADER_LEN {
                    return Err(GnfError::malformed_packet(
                        "icmp",
                        format!("message too short: {} bytes", l4.len()),
                    ));
                }
                if crate::checksum::internet_checksum(l4) != 0 {
                    return Err(GnfError::malformed_packet("icmp", "checksum mismatch"));
                }
                FlowMeta {
                    tuple: FiveTuple::new(src, dst, protocol, 0, 0),
                    l4_offset,
                    payload_offset: l4_offset + ICMP_HEADER_LEN,
                    payload_end: ip_end,
                }
            }
            IpProtocol::Other(_) => return Ok(HeaderScan::NonFlow),
        };
        Ok(HeaderScan::Flow(meta))
    }

    /// Builds the full typed layer view. Only reachable for IPv4 frames (ARP
    /// and unknown EtherTypes are resolved eagerly in [`Packet::parse`]), and
    /// infallible because the fast scan already validated every check the
    /// typed parsers perform.
    fn build_network(&self) -> NetworkLayer {
        debug_assert_eq!(self.ethernet.ethertype, EtherType::Ipv4);
        let eth_len = ETHERNET_HEADER_LEN;
        // The `Err` arms below are unreachable while `scan_ipv4` enforces
        // every check the typed parsers enforce; the debug assertions turn
        // any future drift between the two into a test failure instead of a
        // silent downgrade to `Other` (which would make `five_tuple()`
        // return `Some` while `tcp()`/`udp()`/`ipv4()` return `None`).
        let parsed = Ipv4Header::parse(&self.bytes[eth_len..]);
        debug_assert!(
            parsed.is_ok(),
            "fast scan accepted an IPv4 header the typed parser rejects"
        );
        let Ok((ip, ip_len)) = parsed else {
            return NetworkLayer::Other;
        };
        let l4_offset = eth_len + ip_len;
        let ip_end = (eth_len + ip.total_length as usize).min(self.bytes.len());
        let l4 = &self.bytes[l4_offset..ip_end];
        let transport = match ip.protocol {
            IpProtocol::Tcp => match TcpHeader::parse(l4) {
                Ok((header, consumed)) => TransportLayer::Tcp {
                    header,
                    payload_offset: l4_offset + consumed,
                },
                Err(e) => {
                    debug_assert!(
                        false,
                        "fast scan accepted a TCP header the typed parser rejects: {e}"
                    );
                    TransportLayer::Other
                }
            },
            IpProtocol::Udp => match UdpHeader::parse(l4) {
                Ok((header, consumed)) => TransportLayer::Udp {
                    header,
                    payload_offset: l4_offset + consumed,
                },
                Err(e) => {
                    debug_assert!(
                        false,
                        "fast scan accepted a UDP header the typed parser rejects: {e}"
                    );
                    TransportLayer::Other
                }
            },
            IpProtocol::Icmp => match IcmpMessage::parse(l4) {
                Ok((msg, _)) => TransportLayer::Icmp(msg),
                Err(e) => {
                    debug_assert!(
                        false,
                        "fast scan accepted an ICMP message the typed parser rejects: {e}"
                    );
                    TransportLayer::Other
                }
            },
            IpProtocol::Other(_) => TransportLayer::Other,
        };
        NetworkLayer::Ipv4 {
            header: ip,
            transport,
        }
    }

    /// Parses a frame from a byte vector.
    pub fn from_vec(bytes: Vec<u8>) -> GnfResult<Self> {
        Self::parse(Bytes::from(bytes))
    }

    /// The raw frame bytes.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the frame is empty (never the case for parsed packets).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The Ethernet header.
    pub fn ethernet(&self) -> &EthernetHeader {
        &self.ethernet
    }

    /// Source MAC address.
    pub fn src_mac(&self) -> MacAddr {
        self.ethernet.src
    }

    /// Destination MAC address.
    pub fn dst_mac(&self) -> MacAddr {
        self.ethernet.dst
    }

    /// The flow metadata from the fast header scan, when the frame carries a
    /// TCP/UDP/ICMP flow. Never triggers the full layer parse.
    pub fn flow_meta(&self) -> Option<&FlowMeta> {
        match &self.scan {
            HeaderScan::Flow(meta) => Some(meta),
            HeaderScan::NonFlow => None,
        }
    }

    /// The fully parsed network layer (built lazily on first access).
    pub fn network(&self) -> &NetworkLayer {
        self.network.get_or_init(|| Box::new(self.build_network()))
    }

    /// The ARP packet, if this frame carries one.
    pub fn arp(&self) -> Option<&ArpPacket> {
        match self.network() {
            NetworkLayer::Arp(arp) => Some(arp),
            _ => None,
        }
    }

    /// The IPv4 header, if this is an IPv4 frame.
    pub fn ipv4(&self) -> Option<&Ipv4Header> {
        match self.network() {
            NetworkLayer::Ipv4 { header, .. } => Some(header),
            _ => None,
        }
    }

    /// The TCP header, if this is a TCP frame.
    pub fn tcp(&self) -> Option<&TcpHeader> {
        match self.network() {
            NetworkLayer::Ipv4 {
                transport: TransportLayer::Tcp { header, .. },
                ..
            } => Some(header),
            _ => None,
        }
    }

    /// The UDP header, if this is a UDP frame.
    pub fn udp(&self) -> Option<&UdpHeader> {
        match self.network() {
            NetworkLayer::Ipv4 {
                transport: TransportLayer::Udp { header, .. },
                ..
            } => Some(header),
            _ => None,
        }
    }

    /// The ICMP message, if this is an ICMP frame.
    pub fn icmp(&self) -> Option<&IcmpMessage> {
        match self.network() {
            NetworkLayer::Ipv4 {
                transport: TransportLayer::Icmp(msg),
                ..
            } => Some(msg),
            _ => None,
        }
    }

    /// The TCP flags, if this is a TCP frame. Served from the fast header
    /// scan (the flags byte is read straight out of the frame) — never
    /// triggers the full layer parse. Used by NFs that inspect handshake
    /// state (IDS SYN-flood detection) on the batch fast path.
    pub fn tcp_flags(&self) -> Option<TcpFlags> {
        match &self.scan {
            HeaderScan::Flow(meta) if meta.tuple.protocol == IpProtocol::Tcp => {
                Some(TcpFlags::from_byte(self.bytes[meta.l4_offset + 13]))
            }
            _ => None,
        }
    }

    /// The TCP payload bytes, if any. Served from the fast header scan —
    /// never triggers the full layer parse.
    pub fn tcp_payload(&self) -> Option<&[u8]> {
        match &self.scan {
            HeaderScan::Flow(meta) if meta.tuple.protocol == IpProtocol::Tcp => {
                Some(&self.bytes[meta.payload_offset..meta.payload_end.max(meta.payload_offset)])
            }
            _ => None,
        }
    }

    /// The UDP payload bytes, if any. Served from the fast header scan —
    /// never triggers the full layer parse.
    pub fn udp_payload(&self) -> Option<&[u8]> {
        match &self.scan {
            HeaderScan::Flow(meta) if meta.tuple.protocol == IpProtocol::Udp => {
                Some(&self.bytes[meta.payload_offset..meta.payload_end.max(meta.payload_offset)])
            }
            _ => None,
        }
    }

    /// The five-tuple of this packet, if it is TCP, UDP or ICMP over IPv4.
    /// Served from the fast header scan — never triggers the full layer
    /// parse; this is the lookup key of the switch's flow cache.
    pub fn five_tuple(&self) -> Option<FiveTuple> {
        self.flow_meta().map(|meta| meta.tuple)
    }

    /// RSS-style shard hash of the frame: [`FiveTuple::shard_hash`] for
    /// transport flows, and a symmetric MAC-pair hash for non-IP frames
    /// (ARP, unknown EtherTypes) — both directions of an exchange land on
    /// the same shard either way, and the value is stable across runs and
    /// platforms (FNV-1a, no `RandomState`).
    pub fn shard_hash(&self) -> u64 {
        if let Some(tuple) = self.five_tuple() {
            return tuple.shard_hash();
        }
        // Order the MAC pair so request and reply hash identically.
        let (a, b) = {
            let src = self.src_mac();
            let dst = self.dst_mac();
            if src.octets() <= dst.octets() {
                (src, dst)
            } else {
                (dst, src)
            }
        };
        let hash = crate::flow::fnv1a(crate::flow::FNV_OFFSET, &a.octets());
        crate::flow::mix(crate::flow::fnv1a(hash, &b.octets()))
    }

    /// Attempts to parse the payload as a DNS message (UDP port 53 on either
    /// side). Works on the fast-scan offsets, so a DNS miss costs nothing.
    pub fn dns(&self) -> Option<DnsMessage> {
        let tuple = self.flow_meta()?.tuple;
        if tuple.protocol != IpProtocol::Udp
            || (tuple.src_port != DNS_PORT && tuple.dst_port != DNS_PORT)
        {
            return None;
        }
        DnsMessage::parse(self.udp_payload()?).ok()
    }

    /// Attempts to parse the payload as an HTTP request (TCP port 80 on the
    /// destination side, payload starting with a known method token) and
    /// returns a view borrowing this packet's frame — no copy, no
    /// allocation. Works on the fast-scan offsets, so a non-HTTP packet
    /// costs one comparison.
    pub fn http_request_view(&self) -> Option<HttpRequestView<'_>> {
        let tuple = self.flow_meta()?.tuple;
        if tuple.protocol != IpProtocol::Tcp || tuple.dst_port != HTTP_PORT {
            return None;
        }
        let payload = self.tcp_payload()?;
        if !looks_like_http_request(payload) {
            return None;
        }
        HttpRequestView::parse(payload).ok()
    }

    /// [`Packet::http_request_view`], copied into an owned request.
    pub fn http_request(&self) -> Option<HttpRequest> {
        self.http_request_view().map(|view| view.to_owned())
    }

    /// This TCP or UDP packet with its IPv4 addresses and transport ports
    /// replaced — what an address translator emits. Every other byte of the
    /// frame (IPv4 options, TCP options, payload, bytes beyond the IP total
    /// length) is preserved. Anything but TCP/UDP over IPv4 comes back
    /// untouched as `Err`.
    ///
    /// The frame is patched copy-on-write ([`Bytes::patch`]): in place when
    /// this packet owns its whole buffer alone, in one fresh copy of the
    /// frame when a clone shares it (the clone keeps the old bytes) or it is
    /// a slice of a wider buffer, such as a replay's read block. The twelve endpoint bytes are
    /// written at the fast-scan offsets, and the IPv4 header and transport
    /// checksums are updated incrementally
    /// ([`checksum::incremental_update`]) instead of re-summing the
    /// payload. A UDP datagram sent without a checksum (0) stays without
    /// one; a checksum that updates to 0 is transmitted as `0xffff`, as
    /// [`checksum::transport_checksum`] does. The patched bytes are
    /// re-validated by the fast header scan, and a typed layer view built
    /// before the rewrite is dropped, to be rebuilt from the new bytes on
    /// demand. Should the scan reject them, the patched bytes are restored
    /// and the packet comes back as `Err`.
    ///
    /// [`checksum::incremental_update`]: crate::checksum::incremental_update
    /// [`checksum::transport_checksum`]: crate::checksum::transport_checksum
    pub fn into_rewritten_endpoints(
        mut self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
    ) -> Result<Packet, Packet> {
        let Some(meta) = self.flow_meta().copied() else {
            return Err(self);
        };
        let l4 = meta.l4_offset;
        // RFC 768: a UDP checksum of 0 means "none was computed".
        let (l4_checksum, optional) = match meta.tuple.protocol {
            IpProtocol::Tcp => (l4 + 16, false),
            IpProtocol::Udp => (l4 + 6, true),
            _ => return Err(self),
        };
        let addresses = ETHERNET_HEADER_LEN + 12;
        let ip_checksum = ETHERNET_HEADER_LEN + 10;
        // The six 16-bit words that change: four of addresses, two of ports.
        let offsets = [
            addresses,
            addresses + 2,
            addresses + 4,
            addresses + 6,
            l4,
            l4 + 2,
        ];
        let (src, dst) = (u32::from(src), u32::from(dst));
        let new = [
            (src >> 16) as u16,
            src as u16,
            (dst >> 16) as u16,
            dst as u16,
            src_port,
            dst_port,
        ];
        let word = |frame: &[u8], at: usize| u16::from_be_bytes([frame[at], frame[at + 1]]);
        let put = |frame: &mut [u8], at: usize, word: u16| {
            frame[at..at + 2].copy_from_slice(&word.to_be_bytes());
        };
        // Keeps the words it overwrote, for the undo below.
        let undo = self.bytes.patch(|frame| {
            let before = [word(frame, ip_checksum), word(frame, l4_checksum)];
            let mut old = [0u16; 6];
            for ((at, old), new) in offsets.into_iter().zip(&mut old).zip(new) {
                *old = word(frame, at);
                put(frame, at, new);
            }
            // The IPv4 header checksum covers the addresses; the transport
            // checksum covers them too (pseudo-header) and the ports.
            put(
                frame,
                ip_checksum,
                incremental_update(before[0], &old[..4], &new[..4]),
            );
            if !(optional && before[1] == 0) {
                let updated = match incremental_update(before[1], &old, &new) {
                    0 => 0xffff,
                    updated => updated,
                };
                put(frame, l4_checksum, updated);
            }
            (old, before)
        });
        match Self::scan_ipv4(&self.bytes, ETHERNET_HEADER_LEN) {
            Ok(scan) => {
                self.scan = scan;
                self.network = OnceLock::new();
                Ok(self)
            }
            Err(_) => {
                // Unreachable while the incremental update is exact (the
                // scan only re-checks the IPv4 header checksum), but an
                // `Err` packet is the packet that came in.
                let (old, before) = undo;
                self.bytes.patch(|frame| {
                    for (at, old) in offsets.into_iter().zip(old) {
                        put(frame, at, old);
                    }
                    put(frame, ip_checksum, before[0]);
                    put(frame, l4_checksum, before[1]);
                });
                Err(self)
            }
        }
    }

    /// A one-line human-readable summary used in logs and the UI event feed.
    pub fn summary(&self) -> String {
        match self.network() {
            NetworkLayer::Arp(arp) => format!(
                "ARP {:?} {} -> {}",
                arp.operation, arp.sender_ip, arp.target_ip
            ),
            NetworkLayer::Ipv4 { header, transport } => match transport {
                TransportLayer::Tcp { header: tcp, .. } => format!(
                    "TCP {}:{} -> {}:{} [{}] {}B",
                    header.src,
                    tcp.src_port,
                    header.dst,
                    tcp.dst_port,
                    tcp.flags,
                    self.len()
                ),
                TransportLayer::Udp { header: udp, .. } => format!(
                    "UDP {}:{} -> {}:{} {}B",
                    header.src,
                    udp.src_port,
                    header.dst,
                    udp.dst_port,
                    self.len()
                ),
                TransportLayer::Icmp(icmp) => {
                    format!("ICMP {:?} {} -> {}", icmp.kind, header.src, header.dst)
                }
                TransportLayer::Other => format!(
                    "IPv4 proto {} {} -> {}",
                    header.protocol.value(),
                    header.src,
                    header.dst
                ),
            },
            NetworkLayer::Other => format!(
                "L2 {} -> {} ethertype {:#06x}",
                self.ethernet.src,
                self.ethernet.dst,
                self.ethernet.ethertype.value()
            ),
        }
    }
}

impl Clone for Packet {
    fn clone(&self) -> Self {
        Packet {
            bytes: self.bytes.clone(),
            ethernet: self.ethernet,
            scan: self.scan,
            // The memoized layer view transfers to the clone when already
            // built; otherwise the clone re-parses lazily on demand.
            network: self.network.clone(),
        }
    }
}

impl PartialEq for Packet {
    fn eq(&self, other: &Self) -> bool {
        // Parsing is a pure function of the frame bytes, so byte equality is
        // packet equality — whether or not either side has materialized its
        // lazy layer view.
        self.bytes == other.bytes
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("ethernet", &self.ethernet)
            .field("scan", &self.scan)
            .field("network", &self.network.get())
            .field("len", &self.bytes.len())
            .finish()
    }
}

impl Serialize for Packet {
    fn to_value(&self) -> serde::Value {
        // The frame bytes are the canonical representation; the parsed view
        // is derived state.
        self.bytes.to_value()
    }
}

impl Deserialize for Packet {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let bytes = Bytes::from_value(value)?;
        Packet::parse(bytes).map_err(|e| serde::Error::custom(format!("invalid packet: {e}")))
    }
}

impl TryFrom<Vec<u8>> for Packet {
    type Error = GnfError;
    fn try_from(bytes: Vec<u8>) -> Result<Self, Self::Error> {
        Packet::from_vec(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder;
    use std::net::Ipv4Addr;

    fn client_mac() -> MacAddr {
        MacAddr::derived(1, 1)
    }
    fn gw_mac() -> MacAddr {
        MacAddr::derived(2, 1)
    }

    #[test]
    fn tcp_packet_accessors() {
        let pkt = builder::tcp_data(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            40000,
            80,
            b"hello",
        );
        assert_eq!(pkt.src_mac(), client_mac());
        assert_eq!(pkt.dst_mac(), gw_mac());
        assert!(pkt.ipv4().is_some());
        assert!(pkt.tcp().is_some());
        assert!(pkt.udp().is_none());
        assert_eq!(pkt.tcp_payload().unwrap(), b"hello");
        let ft = pkt.five_tuple().unwrap();
        assert_eq!(ft.dst_port, 80);
        assert_eq!(ft.protocol, IpProtocol::Tcp);
        assert!(pkt.summary().contains("TCP"));
    }

    #[test]
    fn shard_hash_uses_the_tuple_for_flows_and_macs_otherwise() {
        let pkt = builder::tcp_data(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            40000,
            80,
            b"hello",
        );
        assert_eq!(pkt.shard_hash(), pkt.five_tuple().unwrap().shard_hash());
        // The reply direction of the same flow lands on the same shard.
        let reply = builder::tcp_data(
            gw_mac(),
            client_mac(),
            Ipv4Addr::new(93, 184, 216, 34),
            Ipv4Addr::new(10, 0, 0, 2),
            80,
            40000,
            b"world",
        );
        assert_eq!(pkt.shard_hash(), reply.shard_hash());

        // Non-IP frames fall back to a symmetric MAC-pair hash.
        let arp = builder::arp_request(
            client_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        assert!(arp.five_tuple().is_none());
        let arp_again = builder::arp_request(
            client_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        assert_eq!(arp.shard_hash(), arp_again.shard_hash());
    }

    #[test]
    fn flow_accessors_do_not_materialize_the_layer_view() {
        let pkt = builder::tcp_data(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            40000,
            80,
            b"payload-bytes",
        );
        // Five-tuple, payload and HTTP/DNS probing ride the fast scan.
        assert!(pkt.five_tuple().is_some());
        assert_eq!(pkt.tcp_payload().unwrap(), b"payload-bytes");
        assert!(pkt.http_request().is_none());
        assert!(pkt.dns().is_none());
        assert!(
            pkt.network.get().is_none(),
            "fast-path accessors must not build the full layer view"
        );
        // A typed-header accessor materializes it.
        assert!(pkt.tcp().is_some());
        assert!(pkt.network.get().is_some());
    }

    #[test]
    fn lazy_and_eager_views_agree() {
        for pkt in [
            builder::tcp_data(
                client_mac(),
                gw_mac(),
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(93, 184, 216, 34),
                40000,
                443,
                b"data",
            ),
            builder::udp_packet(
                client_mac(),
                gw_mac(),
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(8, 8, 8, 8),
                5353,
                53,
                b"q",
            ),
            builder::icmp_echo_request(
                client_mac(),
                gw_mac(),
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(1, 1, 1, 1),
                7,
                1,
            ),
        ] {
            let meta_tuple = pkt.five_tuple().unwrap();
            // Force the full parse and recompute the tuple from the typed view.
            let NetworkLayer::Ipv4 { header, transport } = pkt.network() else {
                panic!("expected IPv4");
            };
            let (src_port, dst_port) = match transport {
                TransportLayer::Tcp { header, .. } => (header.src_port, header.dst_port),
                TransportLayer::Udp { header, .. } => (header.src_port, header.dst_port),
                TransportLayer::Icmp(_) => (0, 0),
                TransportLayer::Other => panic!("expected a transport"),
            };
            assert_eq!(
                meta_tuple,
                FiveTuple::new(header.src, header.dst, header.protocol, src_port, dst_port)
            );
        }
    }

    #[test]
    fn tcp_flags_served_from_the_fast_scan() {
        let pkt = builder::tcp_syn(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            40000,
            443,
        );
        let flags = pkt.tcp_flags().expect("TCP frame has flags");
        assert!(flags.syn && !flags.ack);
        assert!(
            pkt.network.get().is_none(),
            "tcp_flags must not build the full layer view"
        );
        // The fast accessor agrees with the typed header.
        assert_eq!(flags, pkt.tcp().unwrap().flags);
        // Non-TCP frames have no flags.
        let udp = builder::udp_packet(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(8, 8, 8, 8),
            4000,
            53,
            b"x",
        );
        assert!(udp.tcp_flags().is_none());
    }

    #[test]
    fn dns_packet_is_detected() {
        let pkt = builder::dns_query(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(8, 8, 8, 8),
            4444,
            0x1234,
            "example.com",
        );
        let dns = pkt.dns().expect("should parse DNS");
        assert_eq!(dns.first_question_name(), Some("example.com"));
        assert!(!dns.is_response);
        assert!(pkt.http_request().is_none());
    }

    #[test]
    fn http_request_is_detected() {
        let pkt = builder::http_get(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            40001,
            "blocked.example",
            "/index.html",
        );
        let req = pkt.http_request().expect("should parse HTTP");
        assert_eq!(req.host(), Some("blocked.example"));
        assert_eq!(req.path, "/index.html");
        // A non-port-80 TCP packet is not treated as HTTP.
        let other = builder::tcp_data(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            40001,
            8080,
            b"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        assert!(other.http_request().is_none());
    }

    #[test]
    fn rewritten_endpoints_patch_the_frame_and_keep_checksums_valid() {
        let pkt = builder::tcp_data(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            40000,
            80,
            b"odd",
        );
        let public = Ipv4Addr::new(198, 51, 100, 1);
        // `pkt` holds the frame too, so the rewrite works on a copy.
        let out = pkt
            .clone()
            .into_rewritten_endpoints(public, Ipv4Addr::new(93, 184, 216, 34), 40_001, 80)
            .unwrap();
        assert_ne!(out.bytes().as_ptr(), pkt.bytes().as_ptr());
        assert_eq!(
            out.five_tuple().unwrap(),
            FiveTuple::new(
                public,
                Ipv4Addr::new(93, 184, 216, 34),
                IpProtocol::Tcp,
                40_001,
                80
            )
        );
        assert_eq!(out.tcp_payload().unwrap(), b"odd");
        assert_eq!(out.tcp().unwrap().flags, pkt.tcp().unwrap().flags);
        assert_eq!(out.len(), pkt.len());
        // The incrementally updated TCP checksum is the one a sender would
        // compute from scratch over the rewritten segment.
        let mut segment = out.bytes()[34..].to_vec();
        let stored = u16::from_be_bytes([segment[16], segment[17]]);
        segment[16..18].fill(0);
        assert_eq!(
            stored,
            crate::checksum::transport_checksum(public, out.ipv4().unwrap().dst, 6, &segment)
        );
        // Rewriting back restores the original frame bit for bit, in place:
        // `out` is its frame's only owner.
        let frame = out.bytes().as_ptr();
        let back = out
            .into_rewritten_endpoints(
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(93, 184, 216, 34),
                40000,
                80,
            )
            .unwrap();
        assert_eq!(back.bytes(), pkt.bytes());
        assert_eq!(back.bytes().as_ptr(), frame);

        // Only TCP and UDP carry endpoints to rewrite; anything else comes
        // back as it went in.
        let ping = builder::icmp_echo_request(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(1, 1, 1, 1),
            7,
            1,
        );
        let arp = builder::arp_request(
            client_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        for packet in [ping, arp] {
            let original = packet.bytes().to_vec();
            let back = packet
                .into_rewritten_endpoints(public, public, 1, 2)
                .unwrap_err();
            assert_eq!(back.bytes(), &original);
        }
    }

    #[test]
    fn arp_packet_accessors() {
        let pkt = builder::arp_request(
            client_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        assert!(pkt.arp().is_some());
        assert!(pkt.ipv4().is_none());
        assert!(pkt.five_tuple().is_none());
        assert_eq!(pkt.dst_mac(), MacAddr::BROADCAST);
        assert!(pkt.summary().contains("ARP"));
    }

    #[test]
    fn icmp_packet_accessors() {
        let pkt = builder::icmp_echo_request(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(1, 1, 1, 1),
            7,
            1,
        );
        assert!(pkt.icmp().is_some());
        let ft = pkt.five_tuple().unwrap();
        assert_eq!(ft.src_port, 0);
        assert_eq!(ft.protocol, IpProtocol::Icmp);
    }

    #[test]
    fn garbage_frames_are_rejected() {
        assert!(Packet::from_vec(vec![0u8; 5]).is_err());
        // Valid Ethernet header claiming IPv4 but with a garbage IP header.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MacAddr::BROADCAST.octets());
        bytes.extend_from_slice(&client_mac().octets());
        bytes.extend_from_slice(&0x0800u16.to_be_bytes());
        bytes.extend_from_slice(&[0xff; 20]);
        assert!(Packet::from_vec(bytes).is_err());
    }

    #[test]
    fn truncated_transport_headers_are_rejected_at_parse_time() {
        // A valid IPv4 header claiming TCP but with no room for the TCP
        // header: the fast scan must reject it exactly like the eager parser.
        let ok = builder::tcp_data(
            client_mac(),
            gw_mac(),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            40000,
            80,
            b"x",
        );
        let mut bytes = ok.bytes().to_vec();
        bytes.truncate(14 + 20 + 10); // Ethernet + IPv4, half a TCP header
                                      // Fix up the IPv4 total length and checksum for the truncated frame.
        let total = (bytes.len() - 14) as u16;
        bytes[16..18].copy_from_slice(&total.to_be_bytes());
        bytes[24] = 0;
        bytes[25] = 0;
        let checksum = crate::checksum::internet_checksum(&bytes[14..34]);
        bytes[24..26].copy_from_slice(&checksum.to_be_bytes());
        assert!(Packet::from_vec(bytes).is_err());
    }

    #[test]
    fn unknown_ethertype_is_kept_opaque() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&gw_mac().octets());
        bytes.extend_from_slice(&client_mac().octets());
        bytes.extend_from_slice(&0x88ccu16.to_be_bytes()); // LLDP
        bytes.extend_from_slice(&[0u8; 30]);
        let pkt = Packet::from_vec(bytes).unwrap();
        assert_eq!(pkt.network(), &NetworkLayer::Other);
        assert!(pkt.five_tuple().is_none());
        assert!(pkt.summary().contains("L2"));
    }
}
