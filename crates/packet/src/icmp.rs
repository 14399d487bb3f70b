//! ICMP echo messages (RFC 792) — the edge model uses ping round trips to
//! measure per-client latency through an NF chain, and the firewall can match
//! on ICMP.

use crate::checksum::internet_checksum;
use bytes::{BufMut, BytesMut};
use gnf_types::{GnfError, GnfResult};
use serde::{Deserialize, Serialize};

/// ICMP header length for echo messages.
pub const ICMP_HEADER_LEN: usize = 8;

/// ICMP message kinds the framework understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IcmpKind {
    /// Echo request (type 8, code 0).
    EchoRequest,
    /// Echo reply (type 0, code 0).
    EchoReply,
    /// Destination unreachable (type 3), with the code preserved.
    DestinationUnreachable(u8),
    /// Time exceeded (type 11), with the code preserved.
    TimeExceeded(u8),
    /// Anything else as raw (type, code).
    Other(u8, u8),
}

impl IcmpKind {
    /// Returns the wire (type, code) pair.
    pub fn type_code(&self) -> (u8, u8) {
        match self {
            IcmpKind::EchoRequest => (8, 0),
            IcmpKind::EchoReply => (0, 0),
            IcmpKind::DestinationUnreachable(code) => (3, *code),
            IcmpKind::TimeExceeded(code) => (11, *code),
            IcmpKind::Other(t, c) => (*t, *c),
        }
    }

    /// Maps a wire (type, code) pair to a kind.
    pub fn from_type_code(ty: u8, code: u8) -> Self {
        match (ty, code) {
            (8, 0) => IcmpKind::EchoRequest,
            (0, 0) => IcmpKind::EchoReply,
            (3, c) => IcmpKind::DestinationUnreachable(c),
            (11, c) => IcmpKind::TimeExceeded(c),
            (t, c) => IcmpKind::Other(t, c),
        }
    }
}

/// A parsed ICMP message (echo-style: identifier + sequence + payload).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IcmpMessage {
    /// Message kind.
    pub kind: IcmpKind,
    /// Echo identifier (or rest-of-header for non-echo messages).
    pub identifier: u16,
    /// Echo sequence number.
    pub sequence: u16,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

impl IcmpMessage {
    /// Builds an echo request.
    pub fn echo_request(identifier: u16, sequence: u16, payload: Vec<u8>) -> Self {
        IcmpMessage {
            kind: IcmpKind::EchoRequest,
            identifier,
            sequence,
            payload,
        }
    }

    /// Parses an ICMP message, verifying its checksum.
    pub fn parse(data: &[u8]) -> GnfResult<(Self, usize)> {
        if data.len() < ICMP_HEADER_LEN {
            return Err(GnfError::malformed_packet(
                "icmp",
                format!("message too short: {} bytes", data.len()),
            ));
        }
        if internet_checksum(data) != 0 {
            return Err(GnfError::malformed_packet("icmp", "checksum mismatch"));
        }
        Ok((
            IcmpMessage {
                kind: IcmpKind::from_type_code(data[0], data[1]),
                identifier: u16::from_be_bytes([data[4], data[5]]),
                sequence: u16::from_be_bytes([data[6], data[7]]),
                payload: data[ICMP_HEADER_LEN..].to_vec(),
            },
            data.len(),
        ))
    }

    /// Appends the wire representation (with checksum) to `buf`.
    pub fn emit(&self, buf: &mut BytesMut) {
        let start = buf.len();
        let (ty, code) = self.kind.type_code();
        buf.put_u8(ty);
        buf.put_u8(code);
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(self.identifier);
        buf.put_u16(self.sequence);
        buf.put_slice(&self.payload);
        let checksum = internet_checksum(&buf[start..]);
        buf[start + 2..start + 4].copy_from_slice(&checksum.to_be_bytes());
    }

    /// Total serialised length.
    pub fn len(&self) -> usize {
        ICMP_HEADER_LEN + self.payload.len()
    }

    /// True when the payload is empty (header-only message).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let req = IcmpMessage::echo_request(0x1234, 7, vec![1, 2, 3, 4]);
        let mut buf = BytesMut::new();
        req.emit(&mut buf);
        assert_eq!(buf.len(), req.len());
        let (parsed, consumed) = IcmpMessage::parse(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(parsed, req);
    }

    #[test]
    fn corrupted_checksum_is_rejected() {
        let req = IcmpMessage::echo_request(1, 1, vec![0xaa; 16]);
        let mut buf = BytesMut::new();
        req.emit(&mut buf);
        buf[9] ^= 0xff;
        assert!(IcmpMessage::parse(&buf).is_err());
    }

    #[test]
    fn short_messages_are_rejected() {
        assert!(IcmpMessage::parse(&[0u8; 4]).is_err());
    }

    #[test]
    fn kind_mapping_preserves_codes() {
        assert_eq!(
            IcmpKind::from_type_code(3, 1),
            IcmpKind::DestinationUnreachable(1)
        );
        assert_eq!(IcmpKind::from_type_code(11, 0), IcmpKind::TimeExceeded(0));
        assert_eq!(IcmpKind::from_type_code(5, 2), IcmpKind::Other(5, 2));
        assert_eq!(IcmpKind::DestinationUnreachable(3).type_code(), (3, 3));
    }
}
