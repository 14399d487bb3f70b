//! IPv4 header parsing and construction (RFC 791), including header checksum
//! computation, TTL handling and DSCP — the fields the GNF NFs (firewall,
//! rate limiter, NAT) match on or rewrite.

use crate::checksum::{internet_checksum, Checksum};
use bytes::{BufMut, BytesMut};
use gnf_types::{GnfError, GnfResult};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Minimum IPv4 header length (no options).
pub const IPV4_HEADER_LEN: usize = 20;

/// Transport protocols the framework understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol number.
    Other(u8),
}

impl IpProtocol {
    /// Numeric protocol number.
    pub fn value(&self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => *v,
        }
    }
}

impl From<u8> for IpProtocol {
    fn from(value: u8) -> Self {
        match value {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

/// A parsed IPv4 header (options are preserved as raw bytes).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ipv4Header {
    /// Differentiated services code point (6 bits) + ECN (2 bits).
    pub dscp_ecn: u8,
    /// Identification field.
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units.
    pub fragment_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Raw option bytes (empty for the common 20-byte header).
    pub options: Vec<u8>,
    /// Total length field (header + payload) as carried on the wire.
    pub total_length: u16,
}

impl Ipv4Header {
    /// Creates a minimal header for a payload of `payload_len` bytes.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload_len: usize) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            identification: 0,
            dont_fragment: true,
            more_fragments: false,
            fragment_offset: 0,
            ttl: 64,
            protocol,
            src,
            dst,
            options: Vec::new(),
            total_length: (IPV4_HEADER_LEN + payload_len) as u16,
        }
    }

    /// Header length in bytes, including options (always a multiple of 4).
    pub fn header_len(&self) -> usize {
        IPV4_HEADER_LEN + self.options.len()
    }

    /// Payload length according to the total-length field.
    pub fn payload_len(&self) -> usize {
        (self.total_length as usize).saturating_sub(self.header_len())
    }

    /// Parses an IPv4 header from the beginning of `data`, verifying version,
    /// IHL and the header checksum. Returns the header and bytes consumed.
    pub fn parse(data: &[u8]) -> GnfResult<(Self, usize)> {
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
        if internet_checksum(&data[..ihl]) != 0 {
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
        let flags_frag = u16::from_be_bytes([data[6], data[7]]);
        Ok((
            Ipv4Header {
                dscp_ecn: data[1],
                identification: u16::from_be_bytes([data[4], data[5]]),
                dont_fragment: flags_frag & 0x4000 != 0,
                more_fragments: flags_frag & 0x2000 != 0,
                fragment_offset: flags_frag & 0x1fff,
                ttl: data[8],
                protocol: IpProtocol::from(data[9]),
                src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
                dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
                options: data[IPV4_HEADER_LEN..ihl].to_vec(),
                total_length,
            },
            ihl,
        ))
    }

    /// Appends the wire representation (with a freshly computed checksum) to
    /// `buf`. `payload_len` overrides the stored total length so the header
    /// always agrees with the payload actually emitted after it.
    pub fn emit(&self, buf: &mut BytesMut, payload_len: usize) {
        let ihl = self.header_len();
        debug_assert_eq!(ihl % 4, 0, "IPv4 options must pad to 32-bit words");
        let total_length = (ihl + payload_len) as u16;

        let start = buf.len();
        buf.put_u8((4 << 4) | ((ihl / 4) as u8));
        buf.put_u8(self.dscp_ecn);
        buf.put_u16(total_length);
        buf.put_u16(self.identification);
        let mut flags_frag = self.fragment_offset & 0x1fff;
        if self.dont_fragment {
            flags_frag |= 0x4000;
        }
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        buf.put_u16(flags_frag);
        buf.put_u8(self.ttl);
        buf.put_u8(self.protocol.value());
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        buf.put_slice(&self.options);

        let checksum = internet_checksum(&buf[start..start + ihl]);
        buf[start + 10..start + 12].copy_from_slice(&checksum.to_be_bytes());
    }

    /// Starts a transport-checksum accumulator seeded with this header's
    /// pseudo-header fields.
    pub fn pseudo_header_checksum(&self, transport_len: usize) -> Checksum {
        let mut cs = Checksum::new();
        cs.add_u32(u32::from(self.src));
        cs.add_u32(u32::from(self.dst));
        cs.add_u16(u16::from(self.protocol.value()));
        cs.add_u16(transport_len as u16);
        cs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload_len: usize) -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            IpProtocol::Tcp,
            payload_len,
        )
    }

    #[test]
    fn emit_parse_roundtrip() {
        let hdr = sample(40);
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf, 40);
        assert_eq!(buf.len(), IPV4_HEADER_LEN);
        let (parsed, consumed) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(consumed, IPV4_HEADER_LEN);
        assert_eq!(parsed.src, hdr.src);
        assert_eq!(parsed.dst, hdr.dst);
        assert_eq!(parsed.protocol, IpProtocol::Tcp);
        assert_eq!(parsed.total_length, 60);
        assert_eq!(parsed.payload_len(), 40);
        assert!(parsed.dont_fragment);
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let hdr = sample(0);
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf, 0);
        buf[8] ^= 0x01; // flip a TTL bit without fixing the checksum
        assert!(Ipv4Header::parse(&buf).is_err());
    }

    #[test]
    fn short_and_wrong_version_headers_are_rejected() {
        assert!(Ipv4Header::parse(&[0u8; 10]).is_err());
        let hdr = sample(0);
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf, 0);
        buf[0] = 0x65; // version 6
        assert!(Ipv4Header::parse(&buf).is_err());
    }

    #[test]
    fn invalid_ihl_is_rejected() {
        let hdr = sample(0);
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf, 0);
        buf[0] = 0x4f; // IHL = 60 bytes, but buffer is only 20
        assert!(Ipv4Header::parse(&buf).is_err());
    }

    #[test]
    fn options_extend_header_length() {
        let mut hdr = sample(8);
        hdr.options = vec![0x01, 0x01, 0x01, 0x01]; // four NOPs
        let mut buf = BytesMut::new();
        hdr.emit(&mut buf, 8);
        assert_eq!(buf.len(), 24);
        let (parsed, consumed) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(consumed, 24);
        assert_eq!(parsed.options, hdr.options);
        assert_eq!(parsed.header_len(), 24);
    }

    #[test]
    fn protocol_mapping() {
        assert_eq!(IpProtocol::from(6), IpProtocol::Tcp);
        assert_eq!(IpProtocol::from(17), IpProtocol::Udp);
        assert_eq!(IpProtocol::from(1), IpProtocol::Icmp);
        assert_eq!(IpProtocol::from(89), IpProtocol::Other(89));
        assert_eq!(IpProtocol::Udp.value(), 17);
    }
}
