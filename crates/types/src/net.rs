//! Link-layer addressing shared by the packet library, the software switch and
//! the edge model.
//!
//! IPv4 addresses use [`std::net::Ipv4Addr`] directly; only the MAC address
//! needs a dedicated type (with parsing, formatting and the broadcast /
//! multicast / locally-administered predicates the switch relies on).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

/// Hit/miss/eviction counters of a data-plane flow cache. Produced by the
/// switch's exact-match fast path and carried through station telemetry into
/// run reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the slow path.
    pub misses: u64,
    /// Entries discarded to honor the capacity bound.
    pub evictions: u64,
    /// Entries discarded because the state they were derived from changed.
    pub invalidations: u64,
}

impl FlowCacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds another counter block into this one. Destructured field by field
    /// so a newly added counter cannot be silently dropped from aggregates.
    pub fn merge(&mut self, other: &FlowCacheStats) {
        let FlowCacheStats {
            hits,
            misses,
            evictions,
            invalidations,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.evictions += evictions;
        self.invalidations += invalidations;
    }
}

/// Counters of the switch's megaflow (wildcard) cache: the second-level
/// cache probed on exact-match misses, where one masked entry covers every
/// new flow that matches the same wildcard pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MegaflowStats {
    /// Exact-miss lookups served by a wildcard entry.
    pub hits: u64,
    /// Exact-miss lookups that fell through to the full slow path.
    pub misses: u64,
    /// Wildcard entries installed (one per distinct masked pattern).
    pub installs: u64,
    /// Entries discarded to honor the capacity bound.
    pub evictions: u64,
    /// Entries discarded because the state they were derived from changed.
    pub invalidations: u64,
    /// Subset of `hits` served by a certified *drop* entry: the packet was
    /// retired before the NF chain ran, its drop replayed from the entry.
    pub drop_hits: u64,
    /// Subset of `installs` that carried a certified drop outcome.
    pub drop_installs: u64,
}

impl MegaflowStats {
    /// Fraction of exact-miss lookups served by a wildcard entry (0 when
    /// idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds another counter block into this one. Destructured field by field
    /// so a newly added counter cannot be silently dropped from aggregates.
    pub fn merge(&mut self, other: &MegaflowStats) {
        let MegaflowStats {
            hits,
            misses,
            installs,
            evictions,
            invalidations,
            drop_hits,
            drop_installs,
        } = other;
        self.hits += hits;
        self.misses += misses;
        self.installs += installs;
        self.evictions += evictions;
        self.invalidations += invalidations;
        self.drop_hits += drop_hits;
        self.drop_installs += drop_installs;
    }
}

/// A 48-bit IEEE 802 MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MacAddr(pub [u8; 6]);

/// One word for the hasher (the derived impl fed a length prefix and six
/// bytes): the octets as a big-endian integer, the low octets — where
/// [`MacAddr::derived`] puts its index — in the low bits.
impl Hash for MacAddr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c, d, e, f] = self.0;
        state.write_u64(u64::from_be_bytes([0, 0, a, b, c, d, e, f]));
    }
}

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as a "not yet known" placeholder (e.g. in ARP
    /// requests).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Constructs an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        Self(octets)
    }

    /// Returns the six octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// Deterministically derives a locally-administered unicast MAC address
    /// from a small namespace tag and an index.
    ///
    /// The emulator uses this to give every client, veth endpoint and switch
    /// port a unique, reproducible address: `02:<ns>:xx:xx:xx:xx`.
    pub const fn derived(namespace: u8, index: u32) -> Self {
        let ix = index.to_be_bytes();
        // 0x02 = locally administered, unicast.
        MacAddr([0x02, namespace, ix[0], ix[1], ix[2], ix[3]])
    }

    /// True for the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True if the group bit (least-significant bit of the first octet) is set,
    /// i.e. the address is multicast (broadcast included).
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// True for unicast (non-group) addresses.
    pub fn is_unicast(&self) -> bool {
        !self.is_multicast()
    }

    /// True if the locally-administered bit is set.
    pub fn is_locally_administered(&self) -> bool {
        self.0[0] & 0x02 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

/// Error returned when parsing a textual MAC address fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacParseError {
    input: String,
}

impl fmt::Display for MacParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address: {:?}", self.input)
    }
}

impl std::error::Error for MacParseError {}

impl FromStr for MacAddr {
    type Err = MacParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || MacParseError {
            input: s.to_string(),
        };
        let mut octets = [0u8; 6];
        let mut count = 0;
        for part in s.split([':', '-']) {
            if count >= 6 || part.len() != 2 {
                return Err(err());
            }
            octets[count] = u8::from_str_radix(part, 16).map_err(|_| err())?;
            count += 1;
        }
        if count != 6 {
            return Err(err());
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_parse_roundtrip() {
        let mac = MacAddr::new([0x02, 0xab, 0x00, 0x01, 0x02, 0x03]);
        let text = mac.to_string();
        assert_eq!(text, "02:ab:00:01:02:03");
        assert_eq!(text.parse::<MacAddr>().unwrap(), mac);
    }

    #[test]
    fn parse_accepts_dash_separator() {
        let mac: MacAddr = "aa-bb-cc-dd-ee-ff".parse().unwrap();
        assert_eq!(mac, MacAddr::new([0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff]));
    }

    #[test]
    fn parse_rejects_malformed_addresses() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("aa:bb:cc:dd:ee".parse::<MacAddr>().is_err());
        assert!("aa:bb:cc:dd:ee:ff:00".parse::<MacAddr>().is_err());
        assert!("zz:bb:cc:dd:ee:ff".parse::<MacAddr>().is_err());
        assert!("aabb:cc:dd:ee:ff".parse::<MacAddr>().is_err());
    }

    #[test]
    fn broadcast_and_multicast_predicates() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::BROADCAST.is_unicast());

        let multicast = MacAddr::new([0x01, 0x00, 0x5e, 0x00, 0x00, 0x01]);
        assert!(multicast.is_multicast());
        assert!(!multicast.is_broadcast());

        let unicast = MacAddr::derived(1, 7);
        assert!(unicast.is_unicast());
        assert!(unicast.is_locally_administered());
    }

    #[test]
    fn derived_addresses_are_unique_per_index_and_namespace() {
        let a = MacAddr::derived(1, 1);
        let b = MacAddr::derived(1, 2);
        let c = MacAddr::derived(2, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn megaflow_stats_hit_rate_and_merge() {
        assert_eq!(MegaflowStats::default().hit_rate(), 0.0);
        let stats = MegaflowStats {
            hits: 3,
            misses: 1,
            installs: 2,
            evictions: 1,
            invalidations: 1,
            drop_hits: 2,
            drop_installs: 1,
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        let mut merged = MegaflowStats::default();
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.hits, 6);
        assert_eq!(merged.installs, 4);
        assert_eq!(merged.drop_hits, 4);
        assert_eq!(merged.drop_installs, 2);
        let json = serde_json::to_string(&stats).unwrap();
        let back: MegaflowStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn serde_roundtrip() {
        let mac = MacAddr::derived(3, 99);
        let json = serde_json::to_string(&mac).unwrap();
        let back: MacAddr = serde_json::from_str(&json).unwrap();
        assert_eq!(back, mac);
    }
}
