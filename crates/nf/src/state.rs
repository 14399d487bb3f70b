//! Serializable snapshots of NF dynamic state, used when a function roams
//! with its client: the old instance exports its state, the state travels to
//! the target station inside the migration protocol, and the new instance
//! imports it before steering is switched over.

use gnf_packet::FiveTuple;
use gnf_types::{PathMap, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::hash::Hash;
use std::net::Ipv4Addr;
use std::ops::Deref;

/// A keyed NF table as a snapshot carries it: a copy of the NF's own
/// [`PathMap`]. Exporting is one clone of the map (one allocation, no
/// rehash, no sort), and importing into an NF whose table is empty moves the
/// map in.
///
/// Equality is map equality. The one canonical order is applied only where
/// bytes are produced: `Serialize` writes the `[key, value]` entries sorted
/// by key, so equal tables serialize to equal bytes whatever their insertion
/// history or the map's hasher salt. `Deserialize` inserts the entries in
/// turn, so of a repeated key the last entry wins. Reads go to the map.
#[derive(Debug, Clone)]
pub struct StateTable<K, V>(pub(crate) PathMap<K, V>);

impl<K, V> Deref for StateTable<K, V> {
    type Target = PathMap<K, V>;

    fn deref(&self) -> &PathMap<K, V> {
        &self.0
    }
}

impl<K: Eq + Hash, V> StateTable<K, V> {
    /// Moves the entries into an NF's own `table`: the whole map when
    /// `table` is empty, else one insert each (the snapshot's value wins).
    pub(crate) fn merge_into(self, table: &mut PathMap<K, V>) {
        if table.is_empty() {
            *table = self.0;
        } else {
            table.extend(self.0);
        }
    }
}

impl<K, V> Default for StateTable<K, V> {
    fn default() -> Self {
        StateTable(PathMap::default())
    }
}

impl<K: Eq + Hash, V: PartialEq> PartialEq for StateTable<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl<K: Eq + Hash, V> FromIterator<(K, V)> for StateTable<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        StateTable(entries.into_iter().collect())
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for StateTable<K, V> {
    fn to_value(&self) -> serde::Value {
        let mut entries: Vec<(&K, &V)> = self.0.iter().collect();
        entries.sort_unstable_by_key(|(key, _)| *key);
        entries.to_value()
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for StateTable<K, V> {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        PathMap::from_value(value).map(StateTable)
    }
}

/// Snapshot of one NF instance's dynamic state.
///
/// Configuration is *not* part of the snapshot — the target Agent recreates
/// the NF from its [`crate::spec::NfSpec`] and then layers this state on top.
///
/// **A keyed table serializes by key.** The firewall, NAT and rate limiter
/// ship their tables as [`StateTable`]s and the IDS its `BTreeMap`, so equal
/// state serializes to equal bytes, and [`NfStateDelta::diff`] finds what
/// changed by probing one table with the keys of the other.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NfStateSnapshot {
    /// The NF carries no dynamic state worth migrating.
    Stateless,
    /// Firewall connection-tracking table: established flows and the virtual
    /// time they were last seen.
    Firewall {
        /// Established (allowed) flows → last seen.
        established: StateTable<FiveTuple, SimTime>,
    },
    /// Rate limiter bucket levels per flow key.
    RateLimiter {
        /// Remaining tokens per canonical flow.
        buckets: StateTable<FiveTuple, f64>,
        /// Nanosecond timestamp of the last refill.
        last_refill_nanos: u64,
    },
    /// NAT translation table.
    Nat {
        /// Forward mappings: original five-tuple → translated source port.
        mappings: StateTable<FiveTuple, u16>,
        /// Next ephemeral port to allocate.
        next_port: u16,
    },
    /// DNS load-balancer scheduling state.
    DnsLoadBalancer {
        /// Index of the next backend for round-robin.
        next_backend: usize,
        /// Outstanding per-backend assignment counts: one entry per
        /// configured backend, by address. The key sequence is configuration,
        /// so two exports of one NF are compared position by position.
        assignments: Vec<(Ipv4Addr, u64)>,
    },
    /// Cached HTTP responses (URL → serialized response bytes).
    HttpCache {
        /// Cached entries in LRU order (least recent first). The order *is*
        /// state, so a changed cache always ships in full.
        entries: Vec<(String, Vec<u8>)>,
    },
    /// IDS per-source counters.
    Ids {
        /// SYN counts per source address in the current window (a `BTreeMap`:
        /// by address).
        syn_counts: BTreeMap<Ipv4Addr, u64>,
        /// Window start, nanoseconds of virtual time.
        window_start_nanos: u64,
    },
}

impl NfStateSnapshot {
    /// Approximate serialized size in bytes, used by the migration cost model
    /// (transferring more NF state takes longer).
    pub fn approximate_size_bytes(&self) -> usize {
        match self {
            NfStateSnapshot::Stateless => 0,
            NfStateSnapshot::Firewall { established } => established.len() * 24,
            NfStateSnapshot::RateLimiter { buckets, .. } => buckets.len() * 28 + 8,
            NfStateSnapshot::Nat { mappings, .. } => mappings.len() * 22 + 2,
            NfStateSnapshot::DnsLoadBalancer { assignments, .. } => assignments.len() * 12 + 8,
            NfStateSnapshot::HttpCache { entries } => entries
                .iter()
                .map(|(url, body)| url.len() + body.len())
                .sum(),
            NfStateSnapshot::Ids { syn_counts, .. } => syn_counts.len() * 12 + 8,
        }
    }

    /// True when there is nothing to transfer.
    pub fn is_empty(&self) -> bool {
        self.approximate_size_bytes() == 0
    }
}

/// Incremental difference between two [`NfStateSnapshot`]s of the same NF,
/// used by pre-copy migration: the source ships a full baseline ahead of
/// switchover, keeps serving, and at cutover ships only this delta — so the
/// data that crosses the wire during the service-affecting window scales with
/// churn, not with table size.
///
/// The contract is `delta.apply(&base) == current` whenever
/// `delta == NfStateDelta::diff(&base, &current)`, so baseline plus delta
/// serializes byte-for-byte like a fresh monolithic checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NfStateDelta {
    /// The state did not change since the baseline.
    Unchanged,
    /// Conntrack churn: new/refreshed flows and flows pruned by the idle
    /// timeout.
    Firewall {
        /// Flows added or whose last-seen timestamp advanced.
        upserts: Vec<(FiveTuple, u64)>,
        /// Flows present in the baseline but since pruned.
        removals: Vec<FiveTuple>,
    },
    /// Token-bucket churn plus the refill clock.
    RateLimiter {
        /// Buckets added or whose level changed.
        upserts: Vec<(FiveTuple, f64)>,
        /// Buckets dropped since the baseline.
        removals: Vec<FiveTuple>,
        /// Current refill timestamp (always shipped: it advances with time).
        last_refill_nanos: u64,
    },
    /// Translation-table churn plus the port allocator cursor.
    Nat {
        /// Mappings added since the baseline.
        upserts: Vec<(FiveTuple, u16)>,
        /// Mappings removed since the baseline.
        removals: Vec<FiveTuple>,
        /// Current ephemeral-port cursor.
        next_port: u16,
    },
    /// Scheduling-state churn. The assignment key sequence is the backend
    /// list, which is configuration and therefore identical on both sides;
    /// only changed counts travel.
    DnsLoadBalancer {
        /// Index of the next round-robin backend.
        next_backend: usize,
        /// Backends whose assignment count changed.
        upserts: Vec<(Ipv4Addr, u64)>,
    },
    /// Per-source counter churn plus the window clock.
    Ids {
        /// Sources added or whose SYN count changed.
        upserts: Vec<(Ipv4Addr, u64)>,
        /// Sources cleared since the baseline (window reset).
        removals: Vec<Ipv4Addr>,
        /// Current window start.
        window_start_nanos: u64,
    },
    /// Fallback for order-sensitive state (the LRU-ordered HTTP cache) and
    /// for variant mismatches: ship the full current snapshot.
    Full(NfStateSnapshot),
}

impl NfStateDelta {
    /// Computes the delta that turns `base` into `current`.
    ///
    /// For a keyed table, one pass over `current` probes `base`: an entry
    /// `base` lacks or holds under another value is an upsert. Keys of `base`
    /// that `current` lacks are the removals; that second pass runs only when
    /// fewer of `current`'s keys were found in `base` than `base` holds. Both
    /// lists come out in key order, and nothing is built that is as large as
    /// a table. When neither the table nor the scalar state beside it moved,
    /// the answer is [`NfStateDelta::Unchanged`].
    ///
    /// A pair of different variants, or two DNS backend lists that differ,
    /// has no well-defined churn: the answer is [`NfStateDelta::Full`], which
    /// is always correct. So is any change to the HTTP cache, whose order is
    /// state.
    pub fn diff(base: &NfStateSnapshot, current: &NfStateSnapshot) -> Self {
        use NfStateSnapshot as S;
        match (base, current) {
            (S::Firewall { established: b }, S::Firewall { established: c }) => churn(b, c, false)
                .map_or(NfStateDelta::Unchanged, |Churn { upserts, removals }| {
                    NfStateDelta::Firewall {
                        upserts: upserts
                            .into_iter()
                            .map(|(tuple, seen)| (tuple, seen.as_nanos()))
                            .collect(),
                        removals,
                    }
                }),
            (
                S::RateLimiter {
                    buckets: b,
                    last_refill_nanos: was,
                },
                S::RateLimiter {
                    buckets: c,
                    last_refill_nanos,
                },
            ) => churn(b, c, was != last_refill_nanos).map_or(
                NfStateDelta::Unchanged,
                |Churn { upserts, removals }| NfStateDelta::RateLimiter {
                    upserts,
                    removals,
                    last_refill_nanos: *last_refill_nanos,
                },
            ),
            (
                S::Nat {
                    mappings: b,
                    next_port: was,
                },
                S::Nat {
                    mappings: c,
                    next_port,
                },
            ) => churn(b, c, was != next_port).map_or(
                NfStateDelta::Unchanged,
                |Churn { upserts, removals }| NfStateDelta::Nat {
                    upserts,
                    removals,
                    next_port: *next_port,
                },
            ),
            (
                S::Ids {
                    syn_counts: b,
                    window_start_nanos: was,
                },
                S::Ids {
                    syn_counts: c,
                    window_start_nanos,
                },
            ) => churn(b, c, was != window_start_nanos).map_or(
                NfStateDelta::Unchanged,
                |Churn { upserts, removals }| NfStateDelta::Ids {
                    upserts,
                    removals,
                    window_start_nanos: *window_start_nanos,
                },
            ),
            (
                S::DnsLoadBalancer {
                    next_backend: was,
                    assignments: b,
                },
                S::DnsLoadBalancer {
                    next_backend,
                    assignments: c,
                },
            ) if b.len() == c.len() && b.iter().zip(c).all(|(b, c)| b.0 == c.0) => {
                // The key sequence is the configured backend list on both
                // sides, so the counts compare position by position.
                let upserts: Vec<(Ipv4Addr, u64)> = b
                    .iter()
                    .zip(c)
                    .filter(|(b, c)| b.1 != c.1)
                    .map(|(_, c)| *c)
                    .collect();
                if upserts.is_empty() && was == next_backend {
                    NfStateDelta::Unchanged
                } else {
                    NfStateDelta::DnsLoadBalancer {
                        next_backend: *next_backend,
                        upserts,
                    }
                }
            }
            _ if base == current => NfStateDelta::Unchanged,
            _ => NfStateDelta::Full(current.clone()),
        }
    }

    /// Applies this delta to `base`, reproducing the snapshot it was diffed
    /// against. This is the snapshot-level specification of
    /// [`crate::NetworkFunction::apply_delta`], which patches an NF's own
    /// tables instead of a copy of them.
    ///
    /// A delta from the wire is taken as a list of edits, not trusted to be
    /// a `diff` result: a copy of `base` with the removals taken out first,
    /// then the upserts put in in turn, so a repeated key's last upsert wins.
    /// A delta of another variant than `base` is ignored.
    pub fn apply(&self, base: &NfStateSnapshot) -> NfStateSnapshot {
        use NfStateSnapshot as S;
        match (self, base) {
            (NfStateDelta::Unchanged, _) => base.clone(),
            (NfStateDelta::Full(full), _) => full.clone(),
            (NfStateDelta::Firewall { upserts, removals }, S::Firewall { established }) => {
                S::Firewall {
                    established: edited(
                        established,
                        removals,
                        upserts
                            .iter()
                            .map(|(tuple, nanos)| (*tuple, SimTime::from_nanos(*nanos))),
                    ),
                }
            }
            (
                NfStateDelta::RateLimiter {
                    upserts,
                    removals,
                    last_refill_nanos,
                },
                S::RateLimiter { buckets, .. },
            ) => S::RateLimiter {
                buckets: edited(buckets, removals, upserts.iter().copied()),
                last_refill_nanos: *last_refill_nanos,
            },
            (
                NfStateDelta::Nat {
                    upserts,
                    removals,
                    next_port,
                },
                S::Nat { mappings, .. },
            ) => S::Nat {
                mappings: edited(mappings, removals, upserts.iter().copied()),
                next_port: *next_port,
            },
            (
                NfStateDelta::DnsLoadBalancer {
                    next_backend,
                    upserts,
                },
                S::DnsLoadBalancer { assignments, .. },
            ) => {
                let mut assignments = assignments.clone();
                for (backend, count) in upserts {
                    if let Some(slot) = assignments.iter_mut().find(|(k, _)| k == backend) {
                        slot.1 = *count;
                    }
                }
                S::DnsLoadBalancer {
                    next_backend: *next_backend,
                    assignments,
                }
            }
            (
                NfStateDelta::Ids {
                    upserts,
                    removals,
                    window_start_nanos,
                },
                S::Ids { syn_counts, .. },
            ) => S::Ids {
                syn_counts: edited(syn_counts, removals, upserts.iter().copied()),
                window_start_nanos: *window_start_nanos,
            },
            // Variant mismatch: the delta cannot be interpreted against this
            // baseline; keep the baseline rather than invent state.
            _ => base.clone(),
        }
    }

    /// Approximate serialized size in bytes — the quantity that crosses the
    /// wire during the switchover window, priced by the migration cost model.
    pub fn approximate_size_bytes(&self) -> usize {
        match self {
            NfStateDelta::Unchanged => 0,
            NfStateDelta::Firewall { upserts, removals } => {
                upserts.len() * 24 + removals.len() * 16
            }
            NfStateDelta::RateLimiter {
                upserts, removals, ..
            } => upserts.len() * 28 + removals.len() * 16 + 8,
            NfStateDelta::Nat {
                upserts, removals, ..
            } => upserts.len() * 22 + removals.len() * 16 + 2,
            NfStateDelta::DnsLoadBalancer { upserts, .. } => upserts.len() * 12 + 8,
            NfStateDelta::Ids {
                upserts, removals, ..
            } => upserts.len() * 12 + removals.len() * 4 + 8,
            NfStateDelta::Full(full) => full.approximate_size_bytes(),
        }
    }
}

/// A keyed table as `diff` and `apply` see it: every [`StateTable`] and the
/// IDS's `BTreeMap`.
trait Table<K, V>: Clone {
    fn len(&self) -> usize;
    fn get(&self, key: &K) -> Option<&V>;
    /// The entries, in no particular order.
    fn entries<'a>(&'a self) -> impl Iterator<Item = (&'a K, &'a V)>
    where
        K: 'a,
        V: 'a;
    fn insert(&mut self, key: K, value: V);
    fn remove(&mut self, key: &K);
}

impl<K: Eq + Hash + Clone, V: Clone> Table<K, V> for StateTable<K, V> {
    fn len(&self) -> usize {
        self.0.len()
    }
    fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }
    fn entries<'a>(&'a self) -> impl Iterator<Item = (&'a K, &'a V)>
    where
        K: 'a,
        V: 'a,
    {
        self.0.iter()
    }
    fn insert(&mut self, key: K, value: V) {
        self.0.insert(key, value);
    }
    fn remove(&mut self, key: &K) {
        self.0.remove(key);
    }
}

impl<K: Ord + Clone, V: Clone> Table<K, V> for BTreeMap<K, V> {
    fn len(&self) -> usize {
        BTreeMap::len(self)
    }
    fn get(&self, key: &K) -> Option<&V> {
        BTreeMap::get(self, key)
    }
    fn entries<'a>(&'a self) -> impl Iterator<Item = (&'a K, &'a V)>
    where
        K: 'a,
        V: 'a,
    {
        self.iter()
    }
    fn insert(&mut self, key: K, value: V) {
        BTreeMap::insert(self, key, value);
    }
    fn remove(&mut self, key: &K) {
        BTreeMap::remove(self, key);
    }
}

/// What changed between two tables, both lists in key order.
struct Churn<K, V> {
    /// The entries `base` lacks or holds under another value.
    upserts: Vec<(K, V)>,
    /// The keys only `base` holds.
    removals: Vec<K>,
}

/// What changed between `base` and `current`, by probes: `None` when no
/// entry changed and the scalar state beside the table did not move
/// (`moved`).
fn churn<K: Ord + Copy, V: PartialEq + Copy>(
    base: &impl Table<K, V>,
    current: &impl Table<K, V>,
    moved: bool,
) -> Option<Churn<K, V>> {
    let (mut upserts, mut new) = (Vec::new(), 0);
    for (key, value) in current.entries() {
        match base.get(key) {
            Some(old) if old == value => {}
            old => {
                new += usize::from(old.is_none());
                upserts.push((*key, *value));
            }
        }
    }
    // The pass above met every key of `base` that `current` still holds:
    // when that is all of them, nothing was removed.
    let mut removals: Vec<K> = if current.len() - new == base.len() {
        Vec::new()
    } else {
        base.entries()
            .map(|(key, _)| *key)
            .filter(|key| current.get(key).is_none())
            .collect()
    };
    if upserts.is_empty() && removals.is_empty() && !moved {
        return None;
    }
    upserts.sort_unstable_by_key(|(key, _)| *key);
    removals.sort_unstable();
    Some(Churn { upserts, removals })
}

/// A copy of `base` with `removals` taken out, then `upserts` put in in
/// turn: the table an NF holds after the same edits.
fn edited<K, V, T: Table<K, V>>(
    base: &T,
    removals: &[K],
    upserts: impl Iterator<Item = (K, V)>,
) -> T {
    let mut table = base.clone();
    for key in removals {
        table.remove(key);
    }
    for (key, value) in upserts {
        table.insert(key, value);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_packet::IpProtocol;

    fn at(nanos: u64) -> SimTime {
        SimTime::from_nanos(nanos)
    }

    fn tuple(i: u8) -> FiveTuple {
        FiveTuple::new(
            Ipv4Addr::new(10, 0, 0, i),
            Ipv4Addr::new(192, 0, 2, 1),
            IpProtocol::Tcp,
            1000 + u16::from(i),
            80,
        )
    }

    #[test]
    fn stateless_is_empty() {
        assert!(NfStateSnapshot::Stateless.is_empty());
        assert_eq!(NfStateSnapshot::Stateless.approximate_size_bytes(), 0);
    }

    #[test]
    fn sizes_scale_with_content() {
        let small = NfStateSnapshot::Firewall {
            established: [(tuple(1), at(0))].into_iter().collect(),
        };
        let large = NfStateSnapshot::Firewall {
            established: (0..100).map(|i| (tuple(i), at(0))).collect(),
        };
        assert!(large.approximate_size_bytes() > small.approximate_size_bytes() * 50);
        assert!(!small.is_empty());

        let cache = NfStateSnapshot::HttpCache {
            entries: vec![("example.com/".into(), vec![0u8; 4096])],
        };
        assert!(cache.approximate_size_bytes() > 4000);
    }

    #[test]
    fn snapshots_serialize_roundtrip() {
        let snapshots = vec![
            NfStateSnapshot::Stateless,
            NfStateSnapshot::Firewall {
                established: [(tuple(1), at(42)), (tuple(2), at(7))]
                    .into_iter()
                    .collect(),
            },
            NfStateSnapshot::RateLimiter {
                buckets: [(tuple(2), 3.5)].into_iter().collect(),
                last_refill_nanos: 99,
            },
            NfStateSnapshot::Nat {
                mappings: [(tuple(3), 40_001)].into_iter().collect(),
                next_port: 40_002,
            },
            NfStateSnapshot::DnsLoadBalancer {
                next_backend: 1,
                assignments: vec![(Ipv4Addr::new(10, 1, 0, 1), 17)],
            },
            NfStateSnapshot::HttpCache {
                entries: vec![("a/b".into(), b"body".to_vec())],
            },
            NfStateSnapshot::Ids {
                syn_counts: [(Ipv4Addr::new(10, 0, 0, 9), 120u64)].into_iter().collect(),
                window_start_nanos: 5,
            },
        ];
        for s in snapshots {
            let json = serde_json::to_string(&s).unwrap();
            let back: NfStateSnapshot = serde_json::from_str(&json).unwrap();
            assert_eq!(back, s);
        }
    }

    #[test]
    fn diff_of_identical_snapshots_is_unchanged() {
        let snap = NfStateSnapshot::Firewall {
            established: [(tuple(1), at(42))].into_iter().collect(),
        };
        let delta = NfStateDelta::diff(&snap, &snap.clone());
        assert_eq!(delta, NfStateDelta::Unchanged);
        assert_eq!(delta.approximate_size_bytes(), 0);
        assert_eq!(delta.apply(&snap), snap);
    }

    #[test]
    fn delta_round_trips_map_style_churn() {
        // Firewall: one entry refreshed, one pruned, one added.
        let base = NfStateSnapshot::Firewall {
            established: [(tuple(1), at(10)), (tuple(2), at(20))]
                .into_iter()
                .collect(),
        };
        let current = NfStateSnapshot::Firewall {
            established: [(tuple(3), at(15)), (tuple(1), at(30))]
                .into_iter()
                .collect(),
        };
        let delta = NfStateDelta::diff(&base, &current);
        assert_eq!(delta.apply(&base), current);
        match &delta {
            NfStateDelta::Firewall { upserts, removals } => {
                assert_eq!(upserts, &vec![(tuple(1), 30), (tuple(3), 15)]);
                assert_eq!(removals, &vec![tuple(2)]);
            }
            other => panic!("expected a firewall delta, got {other:?}"),
        }

        let base = NfStateSnapshot::Nat {
            mappings: [(tuple(1), 40_000), (tuple(2), 40_001)]
                .into_iter()
                .collect(),
            next_port: 40_002,
        };
        let current = NfStateSnapshot::Nat {
            mappings: [(tuple(2), 40_001), (tuple(4), 40_002)]
                .into_iter()
                .collect(),
            next_port: 40_003,
        };
        assert_eq!(NfStateDelta::diff(&base, &current).apply(&base), current);

        let base = NfStateSnapshot::RateLimiter {
            buckets: [(tuple(1), 100.0)].into_iter().collect(),
            last_refill_nanos: 5,
        };
        let current = NfStateSnapshot::RateLimiter {
            buckets: [(tuple(1), 40.0), (tuple(2), 90.0)].into_iter().collect(),
            last_refill_nanos: 9,
        };
        assert_eq!(NfStateDelta::diff(&base, &current).apply(&base), current);

        let base = NfStateSnapshot::Ids {
            syn_counts: [(Ipv4Addr::new(10, 0, 0, 1), 3u64)].into_iter().collect(),
            window_start_nanos: 0,
        };
        let current = NfStateSnapshot::Ids {
            syn_counts: [(Ipv4Addr::new(10, 0, 0, 2), 7u64)].into_iter().collect(),
            window_start_nanos: 100,
        };
        assert_eq!(NfStateDelta::diff(&base, &current).apply(&base), current);
    }

    #[test]
    fn dns_delta_ships_only_changed_counts() {
        let backend = |i: u8| Ipv4Addr::new(10, 1, 0, i);
        let base = NfStateSnapshot::DnsLoadBalancer {
            next_backend: 0,
            assignments: vec![(backend(1), 4), (backend(2), 4)],
        };
        let current = NfStateSnapshot::DnsLoadBalancer {
            next_backend: 1,
            assignments: vec![(backend(1), 9), (backend(2), 4)],
        };
        let delta = NfStateDelta::diff(&base, &current);
        match &delta {
            NfStateDelta::DnsLoadBalancer { upserts, .. } => {
                assert_eq!(upserts, &vec![(backend(1), 9)]);
            }
            other => panic!("expected a dns delta, got {other:?}"),
        }
        assert_eq!(delta.apply(&base), current);
    }

    #[test]
    fn order_sensitive_and_mismatched_states_fall_back_to_full() {
        let base = NfStateSnapshot::HttpCache {
            entries: vec![("a".into(), b"1".to_vec()), ("b".into(), b"2".to_vec())],
        };
        // Same entries, different LRU order: must ship in full to preserve
        // eviction behaviour on the target.
        let current = NfStateSnapshot::HttpCache {
            entries: vec![("b".into(), b"2".to_vec()), ("a".into(), b"1".to_vec())],
        };
        let delta = NfStateDelta::diff(&base, &current);
        assert!(matches!(delta, NfStateDelta::Full(_)));
        assert_eq!(delta.apply(&base), current);

        let mismatched = NfStateDelta::diff(
            &NfStateSnapshot::Stateless,
            &NfStateSnapshot::Firewall {
                established: [(tuple(1), at(1))].into_iter().collect(),
            },
        );
        assert!(matches!(mismatched, NfStateDelta::Full(_)));
    }

    #[test]
    fn deltas_serialize_roundtrip() {
        let base = NfStateSnapshot::Firewall {
            established: [(tuple(1), at(10))].into_iter().collect(),
        };
        let current = NfStateSnapshot::Firewall {
            established: [(tuple(2), at(12))].into_iter().collect(),
        };
        let delta = NfStateDelta::diff(&base, &current);
        let json = serde_json::to_string(&delta).unwrap();
        let back: NfStateDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
        assert!(delta.approximate_size_bytes() > 0);
    }
}
