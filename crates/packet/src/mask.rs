//! Wildcard field masks over the transport five-tuple.
//!
//! The megaflow (wildcard) flow cache in `gnf-switch` memoizes decisions per
//! *pattern* of header fields instead of per exact flow. For such an entry to
//! be correct, its mask must cover **every five-tuple field whose value
//! influenced the decision** — if a lookup short-circuited before reading a
//! field, that field may stay wildcarded, because any packet agreeing on the
//! fields that *were* read follows the same evaluation path.
//!
//! This module provides the two pieces that make accumulating such masks
//! mechanical rather than error-prone:
//!
//! * [`FieldMask`] — a bit set over the five five-tuple fields, with
//!   [`FieldMask::project`] producing the canonical masked tuple used as a
//!   wildcard cache key;
//! * [`MaskedTuple`] — a read guard over a [`FiveTuple`] whose accessors
//!   record each field as it is consulted. Lookup code (steering selectors,
//!   firewall rules) reads fields only through the guard, so the accumulated
//!   mask is exactly the set of fields the executed path depended on.

use crate::flow::FiveTuple;
use crate::ipv4::IpProtocol;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// A set of five-tuple fields, used as the wildcard mask of a megaflow
/// cache entry: masked (set) fields are matched exactly, unmasked fields
/// match any value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FieldMask(u8);

impl FieldMask {
    /// The empty mask: every field wildcarded.
    pub const EMPTY: FieldMask = FieldMask(0);
    /// The source IPv4 address.
    pub const SRC_IP: FieldMask = FieldMask(1 << 0);
    /// The destination IPv4 address.
    pub const DST_IP: FieldMask = FieldMask(1 << 1);
    /// The transport protocol.
    pub const PROTOCOL: FieldMask = FieldMask(1 << 2);
    /// The source port.
    pub const SRC_PORT: FieldMask = FieldMask(1 << 3);
    /// The destination port.
    pub const DST_PORT: FieldMask = FieldMask(1 << 4);
    /// Every field exact — equivalent to an exact-match entry.
    pub const ALL: FieldMask = FieldMask(0b1_1111);

    /// Adds the fields of `other` to this mask.
    pub fn insert(&mut self, other: FieldMask) {
        self.0 |= other.0;
    }

    /// The union of two masks.
    #[must_use]
    pub fn union(self, other: FieldMask) -> FieldMask {
        FieldMask(self.0 | other.0)
    }

    /// True when every field of `other` is also in this mask.
    pub fn contains(&self, other: FieldMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// True when no field is masked (the entry would match any tuple).
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Projects a tuple onto this mask: masked fields keep their value,
    /// wildcarded fields are squashed to a fixed sentinel. Two tuples that
    /// agree on every masked field project to the same value, so the
    /// projection is usable as a hash key *within one mask's table*.
    pub fn project(&self, tuple: &FiveTuple) -> FiveTuple {
        FiveTuple {
            src_ip: if self.contains(Self::SRC_IP) {
                tuple.src_ip
            } else {
                Ipv4Addr::UNSPECIFIED
            },
            dst_ip: if self.contains(Self::DST_IP) {
                tuple.dst_ip
            } else {
                Ipv4Addr::UNSPECIFIED
            },
            protocol: if self.contains(Self::PROTOCOL) {
                tuple.protocol
            } else {
                IpProtocol::Other(0)
            },
            src_port: if self.contains(Self::SRC_PORT) {
                tuple.src_port
            } else {
                0
            },
            dst_port: if self.contains(Self::DST_PORT) {
                tuple.dst_port
            } else {
                0
            },
        }
    }
}

impl fmt::Display for FieldMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (bit, name) in [
            (Self::SRC_IP, "src_ip"),
            (Self::DST_IP, "dst_ip"),
            (Self::PROTOCOL, "proto"),
            (Self::SRC_PORT, "src_port"),
            (Self::DST_PORT, "dst_port"),
        ] {
            if self.contains(bit) {
                if !first {
                    f.write_str("+")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("any")?;
        }
        Ok(())
    }
}

/// A five-tuple read guard that records every field consulted into a
/// [`FieldMask`].
///
/// Match code that reads the tuple exclusively through this guard gets the
/// wildcard-correctness property for free: exactly the fields whose values
/// the executed path depended on end up in the mask, and fields skipped by
/// short-circuit evaluation stay wildcarded.
pub struct MaskedTuple<'a> {
    tuple: &'a FiveTuple,
    mask: &'a mut FieldMask,
}

impl<'a> MaskedTuple<'a> {
    /// Wraps a tuple, accumulating consulted fields into `mask`.
    pub fn new(tuple: &'a FiveTuple, mask: &'a mut FieldMask) -> Self {
        MaskedTuple { tuple, mask }
    }

    /// Reads the source IPv4 address, recording the consultation.
    pub fn src_ip(&mut self) -> Ipv4Addr {
        self.mask.insert(FieldMask::SRC_IP);
        self.tuple.src_ip
    }

    /// Reads the destination IPv4 address, recording the consultation.
    pub fn dst_ip(&mut self) -> Ipv4Addr {
        self.mask.insert(FieldMask::DST_IP);
        self.tuple.dst_ip
    }

    /// Reads the transport protocol, recording the consultation.
    pub fn protocol(&mut self) -> IpProtocol {
        self.mask.insert(FieldMask::PROTOCOL);
        self.tuple.protocol
    }

    /// Reads the source port, recording the consultation.
    pub fn src_port(&mut self) -> u16 {
        self.mask.insert(FieldMask::SRC_PORT);
        self.tuple.src_port
    }

    /// Reads the destination port, recording the consultation.
    pub fn dst_port(&mut self) -> u16 {
        self.mask.insert(FieldMask::DST_PORT);
        self.tuple.dst_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple::new(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(203, 0, 113, 9),
            IpProtocol::Tcp,
            40_000,
            443,
        )
    }

    #[test]
    fn masked_reads_accumulate_exactly_the_consulted_fields() {
        let t = tuple();
        let mut mask = FieldMask::EMPTY;
        let mut lens = MaskedTuple::new(&t, &mut mask);
        assert_eq!(lens.protocol(), IpProtocol::Tcp);
        assert_eq!(lens.dst_port(), 443);
        assert!(mask.contains(FieldMask::PROTOCOL));
        assert!(mask.contains(FieldMask::DST_PORT));
        assert!(!mask.contains(FieldMask::SRC_PORT));
        assert!(!mask.contains(FieldMask::SRC_IP));
        assert_eq!(mask, FieldMask::PROTOCOL.union(FieldMask::DST_PORT));
    }

    #[test]
    fn projection_squashes_wildcarded_fields() {
        let t = tuple();
        let mask = FieldMask::PROTOCOL.union(FieldMask::DST_PORT);
        let projected = mask.project(&t);
        assert_eq!(projected.protocol, IpProtocol::Tcp);
        assert_eq!(projected.dst_port, 443);
        assert_eq!(projected.src_ip, Ipv4Addr::UNSPECIFIED);
        assert_eq!(projected.dst_ip, Ipv4Addr::UNSPECIFIED);
        assert_eq!(projected.src_port, 0);

        // Two tuples that agree on the masked fields project identically...
        let other = FiveTuple::new(
            Ipv4Addr::new(10, 0, 0, 99),
            Ipv4Addr::new(8, 8, 8, 8),
            IpProtocol::Tcp,
            51_000,
            443,
        );
        assert_eq!(mask.project(&other), projected);
        // ...and ones that differ on a masked field do not.
        let different = FiveTuple::new(t.src_ip, t.dst_ip, IpProtocol::Tcp, t.src_port, 80);
        assert_ne!(mask.project(&different), projected);
    }

    #[test]
    fn full_projection_is_the_identity() {
        let t = tuple();
        assert_eq!(FieldMask::ALL.project(&t), t);
        assert_eq!(FieldMask::ALL.0.count_ones(), 5);
        assert!(FieldMask::EMPTY.is_empty());
        assert!(!FieldMask::ALL.is_empty());
    }

    #[test]
    fn union_and_contains() {
        let mut mask = FieldMask::EMPTY;
        mask.insert(FieldMask::SRC_IP);
        let combined = mask.union(FieldMask::DST_PORT);
        assert!(combined.contains(FieldMask::SRC_IP));
        assert!(combined.contains(FieldMask::DST_PORT));
        assert!(!combined.contains(FieldMask::PROTOCOL));
        assert!(FieldMask::ALL.contains(combined));
    }

    #[test]
    fn display_names_the_masked_fields() {
        assert_eq!(FieldMask::EMPTY.to_string(), "any");
        let mask = FieldMask::PROTOCOL.union(FieldMask::DST_PORT);
        assert_eq!(mask.to_string(), "proto+dst_port");
        assert_eq!(
            FieldMask::ALL.to_string(),
            "src_ip+dst_ip+proto+src_port+dst_port"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let mask = FieldMask::SRC_IP.union(FieldMask::PROTOCOL);
        let value = mask.to_value();
        let back = FieldMask::from_value(&value).unwrap();
        assert_eq!(back, mask);
    }
}
