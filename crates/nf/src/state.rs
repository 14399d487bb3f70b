//! Serializable snapshots of NF dynamic state, used when a function roams
//! with its client: the old instance exports its state, the state travels to
//! the target station inside the migration protocol, and the new instance
//! imports it before steering is switched over.

use gnf_packet::FiveTuple;
use gnf_types::PathBuildHasher;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::hash::Hash;
use std::net::Ipv4Addr;

/// Snapshot of one NF instance's dynamic state.
///
/// Configuration is *not* part of the snapshot — the target Agent recreates
/// the NF from its [`crate::spec::NfSpec`] and then layers this state on top.
///
/// **Canonical order.** Every NF exports each table in one documented
/// order, strictly increasing because its keys are unique — so equal state
/// exports equal bytes, and [`NfStateDelta::diff`] can find what changed
/// between two exports in one merge walk. A snapshot that breaks its order
/// (hand-built, hostile) is still a valid thing to import; `diff` answers it
/// with [`NfStateDelta::Full`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NfStateSnapshot {
    /// The NF carries no dynamic state worth migrating.
    Stateless,
    /// Firewall connection-tracking table: established flows and the virtual
    /// time (nanoseconds) they were last seen.
    Firewall {
        /// Established (allowed) flows, by `(last seen, tuple)`.
        established: Vec<(FiveTuple, u64)>,
    },
    /// Rate limiter bucket levels per flow key.
    RateLimiter {
        /// Remaining tokens per canonical flow, by tuple.
        buckets: Vec<(FiveTuple, f64)>,
        /// Nanosecond timestamp of the last refill.
        last_refill_nanos: u64,
    },
    /// NAT translation table.
    Nat {
        /// Forward mappings: original five-tuple → translated source port,
        /// by `(port, tuple)` — by port, since a NAT hands each port out once.
        mappings: Vec<(FiveTuple, u16)>,
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
/// `delta == NfStateDelta::diff(&base, &current)`; `apply` reproduces each
/// NF's canonical export ordering so the result compares byte-for-byte with a
/// fresh monolithic checkpoint.
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
    /// One merge walk over the two exports in their canonical order (see
    /// [`NfStateSnapshot`]): the cost is one pass over both tables plus a
    /// sort of what changed, and nothing is built that is as large as a
    /// table. Pairs only in `current` are the upserts, keys only in `base`
    /// that no upsert replaces are the removals, both in key order.
    ///
    /// A side that is not strictly increasing in its canonical order — which
    /// no NF exports, but a hand-built or hostile snapshot may be — or whose
    /// changed entries repeat a key has no well-defined churn: the answer is
    /// [`NfStateDelta::Full`], which is always correct. So is a pair of
    /// different variants. (What one pass cannot see: a key listed twice in
    /// a value-first order with one of its two entries unchanged. That is no
    /// NF's table — importing it keeps one of the two — and its delta says
    /// so: the changed entry's value.)
    pub fn diff(base: &NfStateSnapshot, current: &NfStateSnapshot) -> Self {
        if base == current {
            return NfStateDelta::Unchanged;
        }
        let churned = match (base, current) {
            (
                NfStateSnapshot::Firewall { established: b },
                NfStateSnapshot::Firewall { established: c },
            ) => churn(b, c, by_value_then_key)
                .map(|Churn { upserts, removals }| NfStateDelta::Firewall { upserts, removals }),
            (
                NfStateSnapshot::RateLimiter { buckets: b, .. },
                NfStateSnapshot::RateLimiter {
                    buckets: c,
                    last_refill_nanos,
                },
            ) => churn(b, c, by_key).map(|Churn { upserts, removals }| NfStateDelta::RateLimiter {
                upserts,
                removals,
                last_refill_nanos: *last_refill_nanos,
            }),
            (
                NfStateSnapshot::Nat { mappings: b, .. },
                NfStateSnapshot::Nat {
                    mappings: c,
                    next_port,
                },
            ) => churn(b, c, by_value_then_key).map(|Churn { upserts, removals }| {
                NfStateDelta::Nat {
                    upserts,
                    removals,
                    next_port: *next_port,
                }
            }),
            (
                NfStateSnapshot::DnsLoadBalancer { assignments: b, .. },
                NfStateSnapshot::DnsLoadBalancer {
                    next_backend,
                    assignments: c,
                },
            ) => {
                // The key sequence is the configured backend list on both
                // sides; a differing sequence means the baseline is not
                // comparable.
                let comparable = b.len() == c.len() && b.iter().zip(c).all(|(b, c)| b.0 == c.0);
                comparable.then(|| NfStateDelta::DnsLoadBalancer {
                    next_backend: *next_backend,
                    upserts: b
                        .iter()
                        .zip(c)
                        .filter(|(b, c)| b.1 != c.1)
                        .map(|(_, c)| *c)
                        .collect(),
                })
            }
            (
                NfStateSnapshot::Ids { syn_counts: b, .. },
                NfStateSnapshot::Ids {
                    syn_counts: c,
                    window_start_nanos,
                },
            ) => {
                // The one table exported as a map: the same walk over its
                // entries, which a `BTreeMap` yields by key.
                let pairs = |counts: &BTreeMap<Ipv4Addr, u64>| -> Vec<(Ipv4Addr, u64)> {
                    counts
                        .iter()
                        .map(|(source, count)| (*source, *count))
                        .collect()
                };
                churn(&pairs(b), &pairs(c), by_key).map(|Churn { upserts, removals }| {
                    NfStateDelta::Ids {
                        upserts,
                        removals,
                        window_start_nanos: *window_start_nanos,
                    }
                })
            }
            _ => None,
        };
        churned.unwrap_or_else(|| NfStateDelta::Full(current.clone()))
    }

    /// Applies this delta to `base`, reproducing the snapshot it was diffed
    /// against — including each NF's canonical export ordering, given a
    /// `base` in that order (as every export is). This is the snapshot-level
    /// specification of [`crate::NetworkFunction::apply_delta`], which
    /// patches an NF's own tables instead of a copy of them.
    ///
    /// A delta from the wire is taken as a list of edits, not trusted to be
    /// a `diff` result: removals first, then upserts in turn, so a repeated
    /// key's last upsert wins. A delta of another variant than `base` is
    /// ignored.
    pub fn apply(&self, base: &NfStateSnapshot) -> NfStateSnapshot {
        match (self, base) {
            (NfStateDelta::Unchanged, _) => base.clone(),
            (NfStateDelta::Full(full), _) => full.clone(),
            (
                NfStateDelta::Firewall { upserts, removals },
                NfStateSnapshot::Firewall { established },
            ) => NfStateSnapshot::Firewall {
                established: patched(established, upserts, removals, by_value_then_key),
            },
            (
                NfStateDelta::RateLimiter {
                    upserts,
                    removals,
                    last_refill_nanos,
                },
                NfStateSnapshot::RateLimiter { buckets, .. },
            ) => NfStateSnapshot::RateLimiter {
                buckets: patched(buckets, upserts, removals, by_key),
                last_refill_nanos: *last_refill_nanos,
            },
            (
                NfStateDelta::Nat {
                    upserts,
                    removals,
                    next_port,
                },
                NfStateSnapshot::Nat { mappings, .. },
            ) => NfStateSnapshot::Nat {
                mappings: patched(mappings, upserts, removals, by_value_then_key),
                next_port: *next_port,
            },
            (
                NfStateDelta::DnsLoadBalancer {
                    next_backend,
                    upserts,
                },
                NfStateSnapshot::DnsLoadBalancer { assignments, .. },
            ) => {
                let mut assignments = assignments.clone();
                for (backend, count) in upserts {
                    if let Some(slot) = assignments.iter_mut().find(|(k, _)| k == backend) {
                        slot.1 = *count;
                    }
                }
                NfStateSnapshot::DnsLoadBalancer {
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
                NfStateSnapshot::Ids { syn_counts, .. },
            ) => {
                // The snapshot's own table type: patched as the NF patches it.
                let mut syn_counts = syn_counts.clone();
                for key in removals {
                    syn_counts.remove(key);
                }
                for (key, count) in upserts {
                    syn_counts.insert(*key, *count);
                }
                NfStateSnapshot::Ids {
                    syn_counts,
                    window_start_nanos: *window_start_nanos,
                }
            }
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

/// The canonical order of a table exported by its second field first — the
/// firewall's `(last seen, tuple)`, the NAT's `(port, tuple)`.
pub(crate) fn by_value_then_key<K: Ord, V: Ord>(a: &(K, V), b: &(K, V)) -> Ordering {
    (&a.1, &a.0).cmp(&(&b.1, &b.0))
}

/// The canonical order of a table exported by key — the rate limiter's
/// buckets, the IDS's counters.
pub(crate) fn by_key<K: Ord, V>(a: &(K, V), b: &(K, V)) -> Ordering {
    a.0.cmp(&b.0)
}

/// What changed between two tables, both lists in key order.
struct Churn<K, V> {
    /// The pairs only `current` holds.
    upserts: Vec<(K, V)>,
    /// The keys only `base` holds.
    removals: Vec<K>,
}

/// What changed between two tables given in the same canonical `order`, by
/// one merge walk. `None` when a side is not strictly increasing under
/// `order` or a key repeats among the changed entries.
fn churn<K: Ord + Copy, V: PartialEq + Copy>(
    base: &[(K, V)],
    current: &[(K, V)],
    order: impl Fn(&(K, V), &(K, V)) -> Ordering,
) -> Option<Churn<K, V>> {
    let ascending = |a: &(K, V), b: &(K, V)| order(a, b) == Ordering::Less;
    if !base.is_sorted_by(ascending) || !current.is_sorted_by(ascending) {
        return None;
    }
    let (mut only_base, mut upserts) = (Vec::new(), Vec::new());
    let (mut b, mut c) = (0, 0);
    while let (Some(old), Some(new)) = (base.get(b), current.get(c)) {
        // Most entries of a serving chain are on both sides: equality first.
        if old == new {
            (b, c) = (b + 1, c + 1);
            continue;
        }
        let place = order(old, new);
        if place != Ordering::Greater {
            only_base.push(*old);
            b += 1;
        }
        // `Equal` without being equal: the order looks at the key alone and
        // the value moved — the old entry goes and the new one comes.
        if place != Ordering::Less {
            upserts.push(*new);
            c += 1;
        }
    }
    only_base.extend_from_slice(&base[b..]);
    upserts.extend_from_slice(&current[c..]);

    upserts.sort_unstable_by_key(|(key, _)| *key);
    let mut removals: Vec<K> = only_base.iter().map(|(key, _)| *key).collect();
    removals.sort_unstable();
    let distinct = upserts.is_sorted_by(|a, b| a.0 < b.0) && removals.is_sorted_by(|a, b| a < b);
    // A base entry whose key an upsert carries was replaced, not removed.
    removals.retain(|key| upserts.binary_search_by(|(k, _)| k.cmp(key)).is_err());
    distinct.then_some(Churn { upserts, removals })
}

/// `base` (in canonical `order`) with `removals` taken out and `upserts` put
/// in, in canonical order: the table an NF holds after the same edits.
fn patched<K: Ord + Hash + Copy, V: Copy>(
    base: &[(K, V)],
    upserts: &[(K, V)],
    removals: &[K],
    order: impl Fn(&(K, V), &(K, V)) -> Ordering,
) -> Vec<(K, V)> {
    // The last upsert of a key wins, as inserting them in turn would.
    let mut added = upserts.to_vec();
    added.sort_by_key(|(key, _)| *key);
    added.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            *kept = *later;
        }
        same
    });
    // Every key whose base entry goes: removed, or replaced by an upsert.
    let gone: HashSet<K, PathBuildHasher> = removals
        .iter()
        .copied()
        .chain(added.iter().map(|(key, _)| *key))
        .collect();
    added.sort_unstable_by(&order);

    let mut out = Vec::with_capacity(base.len() + added.len());
    let mut next = 0;
    for entry in base {
        if gone.contains(&entry.0) {
            continue;
        }
        while let Some(before) = added
            .get(next)
            .filter(|a| order(a, entry) == Ordering::Less)
        {
            out.push(*before);
            next += 1;
        }
        out.push(*entry);
    }
    out.extend_from_slice(&added[next..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gnf_packet::IpProtocol;

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
            established: vec![(tuple(1), 0)],
        };
        let large = NfStateSnapshot::Firewall {
            established: (0..100).map(|i| (tuple(i), 0)).collect(),
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
                established: vec![(tuple(1), 42)],
            },
            NfStateSnapshot::RateLimiter {
                buckets: vec![(tuple(2), 3.5)],
                last_refill_nanos: 99,
            },
            NfStateSnapshot::Nat {
                mappings: vec![(tuple(3), 40_001)],
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
            established: vec![(tuple(1), 42)],
        };
        let delta = NfStateDelta::diff(&snap, &snap);
        assert_eq!(delta, NfStateDelta::Unchanged);
        assert_eq!(delta.approximate_size_bytes(), 0);
        assert_eq!(delta.apply(&snap), snap);
    }

    #[test]
    fn delta_round_trips_map_style_churn() {
        // Firewall: one entry refreshed, one pruned, one added. The canonical
        // export order is by (last-seen, tuple).
        let base = NfStateSnapshot::Firewall {
            established: vec![(tuple(1), 10), (tuple(2), 20)],
        };
        let current = NfStateSnapshot::Firewall {
            established: vec![(tuple(3), 15), (tuple(1), 30)],
        };
        let delta = NfStateDelta::diff(&base, &current);
        assert_eq!(delta.apply(&base), current);
        match &delta {
            NfStateDelta::Firewall { upserts, removals } => {
                assert_eq!(upserts.len(), 2);
                assert_eq!(removals, &vec![tuple(2)]);
            }
            other => panic!("expected a firewall delta, got {other:?}"),
        }

        let base = NfStateSnapshot::Nat {
            mappings: vec![(tuple(1), 40_000), (tuple(2), 40_001)],
            next_port: 40_002,
        };
        let current = NfStateSnapshot::Nat {
            mappings: vec![(tuple(2), 40_001), (tuple(4), 40_002)],
            next_port: 40_003,
        };
        assert_eq!(NfStateDelta::diff(&base, &current).apply(&base), current);

        let base = NfStateSnapshot::RateLimiter {
            buckets: vec![(tuple(1), 100.0)],
            last_refill_nanos: 5,
        };
        let current = NfStateSnapshot::RateLimiter {
            buckets: vec![(tuple(1), 40.0), (tuple(2), 90.0)],
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
                established: vec![(tuple(1), 1)],
            },
        );
        assert!(matches!(mismatched, NfStateDelta::Full(_)));
    }

    #[test]
    fn deltas_serialize_roundtrip() {
        let base = NfStateSnapshot::Firewall {
            established: vec![(tuple(1), 10)],
        };
        let current = NfStateSnapshot::Firewall {
            established: vec![(tuple(2), 12)],
        };
        let delta = NfStateDelta::diff(&base, &current);
        let json = serde_json::to_string(&delta).unwrap();
        let back: NfStateDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(back, delta);
        assert!(delta.approximate_size_bytes() > 0);
    }
}
