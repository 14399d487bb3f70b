//! Transport-level flow identification.
//!
//! The switch's steering rules, the firewall's connection tracking, the NAT
//! and the rate limiter all key their state on the classic five-tuple.

use crate::ipv4::IpProtocol;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::Ipv4Addr;

/// The classic five-tuple identifying a transport flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Transport protocol.
    pub protocol: IpProtocol,
    /// Source port (0 for protocols without ports, e.g. ICMP).
    pub src_port: u16,
    /// Destination port (0 for protocols without ports).
    pub dst_port: u16,
}

/// Two words for the hasher — the addresses, then protocol and ports (the
/// fields that vary fastest in the low bits) — where the derived impl made
/// about eight writes. Table hashing only: [`FiveTuple::shard_hash`] is a
/// separate, pinned function.
impl Hash for FiveTuple {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state
            .write_u64(u64::from(u32::from(self.src_ip)) << 32 | u64::from(u32::from(self.dst_ip)));
        state.write_u64(
            u64::from(self.protocol.value()) << 32
                | u64::from(self.src_port) << 16
                | u64::from(self.dst_port),
        );
    }
}

impl FiveTuple {
    /// Creates a five-tuple.
    pub fn new(
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        protocol: IpProtocol,
        src_port: u16,
        dst_port: u16,
    ) -> Self {
        FiveTuple {
            src_ip,
            dst_ip,
            protocol,
            src_port,
            dst_port,
        }
    }

    /// The tuple of the reverse direction (responses of the same flow).
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            protocol: self.protocol,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }

    /// A direction-agnostic key: both directions of a flow map to the same
    /// canonical tuple (the lexicographically smaller endpoint first).
    pub fn canonical(&self) -> FiveTuple {
        let forward = (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port);
        if forward {
            *self
        } else {
            self.reversed()
        }
    }

    /// RSS-style shard hash of the flow: direction-symmetric (both
    /// directions of a flow hash identically, because the hash runs over
    /// the [`canonical`] tuple) and stable across runs and platforms (FNV-1a
    /// over the tuple's fixed-layout bytes plus a 64-bit avalanche
    /// finalizer — no per-process `RandomState`). Shard a flow with
    /// `shard_hash() % shard_count`: the finalizer is what makes the low
    /// bits usable for that modulo — bare FNV-1a degenerates when source
    /// and destination ports vary in step (sequential ephemeral ports
    /// against a small port pool, the classic hot-station pattern).
    ///
    /// [`canonical`]: FiveTuple::canonical
    pub fn shard_hash(&self) -> u64 {
        let c = self.canonical();
        let mut hash = fnv1a(FNV_OFFSET, &c.src_ip.octets());
        hash = fnv1a(hash, &c.dst_ip.octets());
        hash = fnv1a(hash, &[c.protocol.value()]);
        hash = fnv1a(hash, &c.src_port.to_be_bytes());
        mix(fnv1a(hash, &c.dst_port.to_be_bytes()))
    }
}

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a 64-bit running hash.
pub(crate) fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// 64-bit avalanche finalizer (MurmurHash3's `fmix64`): every input bit
/// affects every output bit, so `% shard_count` on the result distributes
/// well even for byte-wise-correlated inputs.
pub(crate) fn mix(mut hash: u64) -> u64 {
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^= hash >> 33;
    hash
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({:?})",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple::new(
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            IpProtocol::Tcp,
            49152,
            80,
        )
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let t = tuple();
        let r = t.reversed();
        assert_eq!(r.src_ip, t.dst_ip);
        assert_eq!(r.dst_port, t.src_port);
        assert_eq!(r.reversed(), t);
    }

    #[test]
    fn canonical_is_direction_agnostic() {
        let t = tuple();
        assert_eq!(t.canonical(), t.reversed().canonical());
        let other = FiveTuple::new(
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(93, 184, 216, 34),
            IpProtocol::Tcp,
            49152,
            80,
        );
        assert_ne!(t.canonical(), other.canonical());
    }

    #[test]
    fn display_contains_endpoints() {
        let text = tuple().to_string();
        assert!(text.contains("10.0.0.2:49152"));
        assert!(text.contains("93.184.216.34:80"));
    }

    #[test]
    fn shard_hash_is_direction_symmetric() {
        let t = tuple();
        assert_eq!(t.shard_hash(), t.reversed().shard_hash());
        // A different flow (different source port) hashes elsewhere with
        // overwhelming probability.
        let other = FiveTuple::new(t.src_ip, t.dst_ip, t.protocol, 49_153, 80);
        assert_ne!(t.shard_hash(), other.shard_hash());
    }

    #[test]
    fn shard_hash_is_stable_across_runs_and_platforms() {
        // The hash is a pure function of the tuple bytes (FNV-1a over the
        // fixed byte layout, no RandomState): these pinned values must never
        // change, or shard assignment would differ between runs, builds or
        // platforms.
        assert_eq!(tuple().shard_hash(), 0x067e_0872_d524_ee09);
        let pinned = FiveTuple::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProtocol::Udp,
            1000,
            2000,
        );
        assert_eq!(pinned.shard_hash(), 0x9b07_6423_f3ae_9dee);
        // Canonicalisation happens before hashing: swapping endpoints is a
        // no-op on the value.
        assert_eq!(pinned.shard_hash(), pinned.reversed().shard_hash());
    }

    #[test]
    fn shard_hash_distribution_is_near_uniform() {
        // Synthetic flow population: 4096 distinct client flows spread over
        // 8 shards must land within ±30% of the uniform share per shard.
        const SHARDS: usize = 8;
        let mut buckets = [0usize; SHARDS];
        let mut flows = 0usize;
        for client in 0..64u8 {
            for port in 0..64u16 {
                let t = FiveTuple::new(
                    Ipv4Addr::new(10, 0, 1, client),
                    Ipv4Addr::new(203, 0, 113, 9),
                    IpProtocol::Tcp,
                    40_000 + port,
                    443,
                );
                buckets[(t.shard_hash() % SHARDS as u64) as usize] += 1;
                flows += 1;
            }
        }
        // The degenerate case the finalizer exists for: source and
        // destination ports varying in step (sequential ephemeral ports
        // against a small destination pool) must still spread — bare
        // FNV-1a puts every one of these on a single shard.
        let mut correlated = [false; 4];
        for n in 0..24u16 {
            let t = FiveTuple::new(
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(203, 0, 113, 9),
                IpProtocol::Tcp,
                40_000 + n,
                100 + n % 12,
            );
            correlated[(t.shard_hash() % 4) as usize] = true;
        }
        assert!(
            correlated.iter().filter(|hit| **hit).count() > 1,
            "correlated ports must not collapse onto one shard"
        );

        let expect = flows / SHARDS;
        for (shard, &count) in buckets.iter().enumerate() {
            assert!(
                count > expect * 7 / 10 && count < expect * 13 / 10,
                "shard {shard} holds {count} of {flows} flows (expected ~{expect})"
            );
        }
    }
}
