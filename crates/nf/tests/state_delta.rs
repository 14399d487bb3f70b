//! The pre-copy delta, checked differentially for every NF whose delta lists
//! upserts and removals (firewall, NAT, rate limiter, IDS, DNS load
//! balancer):
//!
//! * `NfStateDelta::diff` — probes of one table with the keys of the other —
//!   equals, field for field, the reference that builds a `BTreeMap` of each
//!   side (kept here as the oracle), so the delta's `approximate_size_bytes`,
//!   and with it every virtual-time checkpoint and restore latency, is what
//!   it was;
//! * `delta.apply(&base) == current`;
//! * `NetworkFunction::apply_delta` — each NF patching its own tables —
//!   leaves the NF exporting exactly `current`, as the trait's default body
//!   (export → `apply` → `replace_state`) does;
//! * a keyed table serializes by key: two NFs that reach one table through
//!   different histories serialize to the same bytes, in the debug build too,
//!   where every map hashes with its own salt;
//! * a wire list that repeats a key decodes to what inserting its entries in
//!   turn builds; an import moves a table into an empty NF and merges it into
//!   a non-empty one, and a NAT port that corrupt input hands to two tuples
//!   belongs to the larger, in any order;
//! * on conntrack tables of 100 to 50 000 flows at 1 % churn, the delta
//!   serializes to under a fifth of the full export, and a staged chain
//!   patched forward and back exports `current`, then `base`;
//! * only two variants, or two DNS backend lists, that differ get
//!   `Full(current)`, and no delta bytes off the wire can make `apply` or
//!   `apply_delta` panic.
//!
//! State comes from generated traffic (refreshes, new flows, idle expiry,
//! window resets) and, because a NAT and a rate limiter never drop an entry
//! on their own, from generated tables with removals too.

use gnf_nf::dns_lb::{DnsLoadBalancer, LbStrategy};
use gnf_nf::firewall::{Firewall, FirewallConfig};
use gnf_nf::ids::{Ids, IdsConfig};
use gnf_nf::nat::Nat;
use gnf_nf::rate_limiter::{LimiterScope, RateLimiter, RateLimiterConfig};
use gnf_nf::testing::sample_specs;
use gnf_nf::{
    instantiate_chain, Direction, NetworkFunction, NfContext, NfKind, NfStateDelta,
    NfStateSnapshot, NfStats, StateTable, Verdict,
};
use gnf_packet::{builder, FiveTuple, IpProtocol, Packet};
use gnf_types::{MacAddr, SimDuration, SimTime};
use proptest::prelude::*;
use serde::Serialize;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

// ---------------------------------------------------------------------------
// The oracle: the `BTreeMap` diff.
// ---------------------------------------------------------------------------

fn reference_churn<K: Ord + Copy, V: PartialEq + Copy>(
    base: impl Iterator<Item = (K, V)>,
    current: impl Iterator<Item = (K, V)>,
) -> (Vec<(K, V)>, Vec<K>) {
    let before: BTreeMap<K, V> = base.collect();
    let after: BTreeMap<K, V> = current.collect();
    let upserts = after
        .iter()
        .filter(|(k, v)| before.get(*k) != Some(v))
        .map(|(k, v)| (*k, *v))
        .collect();
    let removals = before
        .keys()
        .filter(|k| !after.contains_key(*k))
        .copied()
        .collect();
    (upserts, removals)
}

/// A table's entries, by value.
fn pairs<K: Copy + Eq + std::hash::Hash, V: Copy>(
    table: &StateTable<K, V>,
) -> impl Iterator<Item = (K, V)> + '_ {
    table.iter().map(|(k, v)| (*k, *v))
}

fn reference_diff(base: &NfStateSnapshot, current: &NfStateSnapshot) -> NfStateDelta {
    use NfStateSnapshot as S;
    if base == current {
        return NfStateDelta::Unchanged;
    }
    match (base, current) {
        (S::Firewall { established: b }, S::Firewall { established: c }) => {
            let nanos = |(tuple, seen): (FiveTuple, SimTime)| (tuple, seen.as_nanos());
            let (upserts, removals) = reference_churn(pairs(b).map(nanos), pairs(c).map(nanos));
            NfStateDelta::Firewall { upserts, removals }
        }
        (
            S::RateLimiter { buckets: b, .. },
            S::RateLimiter {
                buckets: c,
                last_refill_nanos,
            },
        ) => {
            let (upserts, removals) = reference_churn(pairs(b), pairs(c));
            NfStateDelta::RateLimiter {
                upserts,
                removals,
                last_refill_nanos: *last_refill_nanos,
            }
        }
        (
            S::Nat { mappings: b, .. },
            S::Nat {
                mappings: c,
                next_port,
            },
        ) => {
            let (upserts, removals) = reference_churn(pairs(b), pairs(c));
            NfStateDelta::Nat {
                upserts,
                removals,
                next_port: *next_port,
            }
        }
        (
            S::DnsLoadBalancer { assignments: b, .. },
            S::DnsLoadBalancer {
                next_backend,
                assignments: c,
            },
        ) => {
            if b.len() != c.len() || b.iter().zip(c).any(|((kb, _), (kc, _))| kb != kc) {
                return NfStateDelta::Full(current.clone());
            }
            NfStateDelta::DnsLoadBalancer {
                next_backend: *next_backend,
                upserts: b
                    .iter()
                    .zip(c)
                    .filter(|((_, vb), (_, vc))| vb != vc)
                    .map(|(_, (k, v))| (*k, *v))
                    .collect(),
            }
        }
        (
            S::Ids { syn_counts: b, .. },
            S::Ids {
                syn_counts: c,
                window_start_nanos,
            },
        ) => {
            let pairs = |m: &BTreeMap<Ipv4Addr, u64>| m.clone().into_iter();
            let (upserts, removals) = reference_churn(pairs(b), pairs(c));
            NfStateDelta::Ids {
                upserts,
                removals,
                window_start_nanos: *window_start_nanos,
            }
        }
        _ => NfStateDelta::Full(current.clone()),
    }
}

// ---------------------------------------------------------------------------
// The default body of `apply_delta`, reached through a wrapper that
// overrides nothing optional but the state methods it forwards.
// ---------------------------------------------------------------------------

struct ViaDefault<N>(N);

impl<N: NetworkFunction> NetworkFunction for ViaDefault<N> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn kind(&self) -> NfKind {
        self.0.kind()
    }
    fn process(&mut self, packet: Packet, direction: Direction, ctx: &NfContext) -> Verdict {
        self.0.process(packet, direction, ctx)
    }
    fn stats(&self) -> NfStats {
        self.0.stats()
    }
    fn export_state(&self) -> NfStateSnapshot {
        self.0.export_state()
    }
    fn import_state(&mut self, state: NfStateSnapshot) {
        self.0.import_state(state);
    }
    fn replace_state(&mut self, state: NfStateSnapshot) {
        self.0.replace_state(state);
    }
}

// ---------------------------------------------------------------------------
// Fixtures.
// ---------------------------------------------------------------------------

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 7);

fn macs() -> (MacAddr, MacAddr) {
    (MacAddr::derived(1, 1), MacAddr::derived(2, 1))
}

fn tuple(i: u8) -> FiveTuple {
    FiveTuple::new(
        Ipv4Addr::new(10, 0, i % 3, i),
        SERVER_IP,
        IpProtocol::Tcp,
        40_000 + u16::from(i),
        443,
    )
}

fn source(i: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, i)
}

/// A SYN of flow `flow` from the one client.
fn syn(flow: u8) -> Packet {
    let (client, gateway) = macs();
    builder::tcp_syn(
        client,
        gateway,
        CLIENT_IP,
        SERVER_IP,
        40_000 + u16::from(flow),
        443,
    )
}

fn firewall() -> Firewall {
    // A short idle timeout, so generated gaps do expire flows.
    Firewall::new(
        "fw",
        FirewallConfig {
            conntrack_idle_timeout_secs: 2,
            ..FirewallConfig::default()
        },
    )
}

fn nat() -> Nat {
    Nat::new("nat", Ipv4Addr::new(198, 51, 100, 1))
}

fn rate_limiter() -> RateLimiter {
    RateLimiter::new(
        "rl",
        RateLimiterConfig {
            scope: LimiterScope::PerFlow,
            rate_bytes_per_sec: 50.0,
            burst_bytes: 400.0,
            ..RateLimiterConfig::default()
        },
    )
}

fn ids() -> Ids {
    Ids::new(
        "ids",
        IdsConfig {
            window_secs: 3,
            ..IdsConfig::default()
        },
    )
}

fn dns_lb() -> DnsLoadBalancer {
    DnsLoadBalancer::new(
        "lb",
        "svc.edge.example",
        (1..=4).map(|i| Ipv4Addr::new(10, 10, 0, i)).collect(),
        LbStrategy::RoundRobin,
        30,
    )
}

/// A delta no NF but `kind`'s neighbour could interpret.
fn foreign_delta(kind: NfKind) -> NfStateDelta {
    if kind == NfKind::Ids {
        NfStateDelta::Nat {
            upserts: vec![(tuple(1), 40_001)],
            removals: vec![tuple(2)],
            next_port: 40_002,
        }
    } else {
        NfStateDelta::Ids {
            upserts: vec![(source(1), 7)],
            removals: vec![source(2)],
            window_start_nanos: 5,
        }
    }
}

// ---------------------------------------------------------------------------
// The property.
// ---------------------------------------------------------------------------

/// `fresh()` restored from `base`.
fn restored<N: NetworkFunction>(fresh: &impl Fn() -> N, base: &NfStateSnapshot) -> N {
    let mut nf = fresh();
    nf.replace_state(base.clone());
    nf
}

/// Everything the module doc promises about one `(base, current)` pair of
/// exports of the NF `fresh` builds.
fn round_trips<N: NetworkFunction>(
    fresh: impl Fn() -> N,
    base: &NfStateSnapshot,
    current: &NfStateSnapshot,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&restored(&fresh, base).export_state(), base);

    let delta = NfStateDelta::diff(base, current);
    prop_assert_eq!(&delta, &reference_diff(base, current));
    prop_assert!(!matches!(delta, NfStateDelta::Full(_)), "{delta:?}");
    prop_assert_eq!(&delta.apply(base), current);

    let mut native = restored(&fresh, base);
    native.apply_delta(&delta);
    prop_assert_eq!(&native.export_state(), current);
    let mut by_default = ViaDefault(restored(&fresh, base));
    by_default.apply_delta(&delta);
    prop_assert_eq!(&by_default.export_state(), current);
    // Patched on the target or grown by traffic on the source: one table,
    // one byte string.
    let bytes = |state: &NfStateSnapshot| serde_json::to_vec(state).unwrap();
    prop_assert_eq!(bytes(&native.export_state()), bytes(current));
    prop_assert_eq!(bytes(&delta.apply(base)), bytes(current));

    // `Unchanged`, `Full` and a foreign delta mean what `apply` says.
    let mut nf = restored(&fresh, base);
    nf.apply_delta(&NfStateDelta::Unchanged);
    prop_assert_eq!(&nf.export_state(), base);
    let foreign = foreign_delta(nf.kind());
    prop_assert_eq!(&foreign.apply(base), base);
    nf.apply_delta(&foreign);
    prop_assert_eq!(&nf.export_state(), base);
    nf.apply_delta(&NfStateDelta::Full(current.clone()));
    prop_assert_eq!(&nf.export_state(), current);
    nf.apply_delta(&NfStateDelta::Full(NfStateSnapshot::Stateless));
    prop_assert_eq!(&nf.export_state(), current);
    Ok(())
}

/// One step of generated history: wait `gap_ms`, then either send the
/// packet of `flow` or (one step in eight) run the NF's expiry.
type Step = (u8, u16, u8);

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((0u8..24, 0u16..1500, 0u8..8), 0..40)
}

fn drive<N: NetworkFunction>(
    nf: &mut N,
    clock: &mut SimTime,
    steps: &[Step],
    packet: &impl Fn(u8) -> Packet,
    expire: &impl Fn(&mut N, SimTime),
) {
    for (flow, gap_ms, what) in steps {
        *clock += SimDuration::from_millis(u64::from(*gap_ms));
        if *what == 0 {
            expire(nf, *clock);
        } else {
            let _ = nf.process(packet(*flow), Direction::Ingress, &NfContext::at(*clock));
        }
    }
}

/// Traffic, a baseline export, more traffic, a second export: the pair a
/// pre-copy source diffs.
fn history_round_trips<N: NetworkFunction>(
    fresh: impl Fn() -> N,
    packet: impl Fn(u8) -> Packet,
    expire: impl Fn(&mut N, SimTime),
    (early, late): (&[Step], &[Step]),
) -> Result<(), TestCaseError> {
    let mut nf = fresh();
    let mut clock = SimTime::from_secs(1);
    drive(&mut nf, &mut clock, early, &packet, &expire);
    let base = nf.export_state();
    drive(&mut nf, &mut clock, late, &packet, &expire);
    round_trips(fresh, &base, &nf.export_state())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn firewall_history_round_trips(early in steps(), late in steps()) {
        let expire = |fw: &mut Firewall, now| {
            fw.expire_idle_connections(now);
        };
        history_round_trips(firewall, syn, expire, (&early, &late))?;
    }

    #[test]
    fn nat_history_round_trips(early in steps(), late in steps()) {
        history_round_trips(nat, syn, |_, _| {}, (&early, &late))?;
    }

    #[test]
    fn rate_limiter_history_round_trips(early in steps(), late in steps()) {
        history_round_trips(rate_limiter, syn, |_, _| {}, (&early, &late))?;
    }

    #[test]
    fn ids_history_round_trips(early in steps(), late in steps()) {
        // One SYN source per flow; the counting window resets on its own
        // once a generated gap carries the clock past it.
        let (client, gateway) = macs();
        let packet = |flow| builder::tcp_syn(client, gateway, source(flow), SERVER_IP, 40_000, 443);
        history_round_trips(ids, packet, |_, _| {}, (&early, &late))?;
    }

    #[test]
    fn dns_lb_history_round_trips(early in steps(), late in steps()) {
        let (client, gateway) = macs();
        let packet = |flow: u8| {
            let resolver = Ipv4Addr::new(8, 8, 8, 8);
            let port = 5_000 + u16::from(flow);
            builder::dns_query(client, gateway, CLIENT_IP, resolver, port, port, "svc.edge.example")
        };
        history_round_trips(dns_lb, packet, |_, _| {}, (&early, &late))?;
    }
}

/// Generated tables, base and current as `(key, value)` lists in key order:
/// per key a value on each side, either of which may be absent — so entries
/// are kept, changed, added and removed.
fn tables() -> impl Strategy<Value = [Vec<(u8, u16)>; 2]> {
    let entry = (0u8..48, 0u16..64, 0u16..64, 0u8..5);
    proptest::collection::vec(entry, 0..40).prop_map(|entries| {
        let fates: BTreeMap<u8, (u16, u16, u8)> = entries
            .into_iter()
            .map(|(key, old, new, fate)| (key, (old, new, fate)))
            .collect();
        let mut sides = [Vec::new(), Vec::new()];
        for (key, (old, new, fate)) in fates {
            if fate != 1 {
                sides[0].push((key, old));
            }
            match fate {
                0 => {}
                1 | 2 => sides[1].push((key, new)),
                _ => sides[1].push((key, old)),
            }
        }
        sides
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_tables_round_trip(tables in tables(), clocks in (0u16..9, 0u16..9)) {
        let [base, current] = tables;
        let clocks = [clocks.0, clocks.1];

        let snapshot = |side: &[(u8, u16)]| NfStateSnapshot::Firewall {
            established: side
                .iter()
                .map(|(k, v)| (tuple(*k), SimTime::from_nanos(u64::from(*v))))
                .collect(),
        };
        round_trips(firewall, &snapshot(&base), &snapshot(&current))?;

        // Ports repeat across keys here, which no NAT's own table does.
        let snapshot = |side: &[(u8, u16)], clock: u16| NfStateSnapshot::Nat {
            mappings: side.iter().map(|(k, v)| (tuple(*k), 40_000 + *v)).collect(),
            next_port: 40_100 + clock,
        };
        round_trips(nat, &snapshot(&base, clocks[0]), &snapshot(&current, clocks[1]))?;

        let snapshot = |side: &[(u8, u16)], clock: u16| NfStateSnapshot::RateLimiter {
            buckets: side.iter().map(|(k, v)| (tuple(*k), f64::from(*v) / 4.0)).collect(),
            last_refill_nanos: u64::from(clock),
        };
        round_trips(rate_limiter, &snapshot(&base, clocks[0]), &snapshot(&current, clocks[1]))?;

        let snapshot = |side: &[(u8, u16)], clock: u16| NfStateSnapshot::Ids {
            syn_counts: side.iter().map(|(k, v)| (source(*k), u64::from(*v))).collect(),
            window_start_nanos: u64::from(clock),
        };
        round_trips(ids, &snapshot(&base, clocks[0]), &snapshot(&current, clocks[1]))?;
    }
}

// ---------------------------------------------------------------------------
// The wire: a keyed table serializes by key, and decodes entry by entry.
// ---------------------------------------------------------------------------

/// The three table variants with their tables as plain lists, which is how
/// they looked on the wire when each NF sorted its own export: the same
/// externally tagged shape, each entry a `[key, value]` pair.
#[derive(Serialize)]
enum WireSnapshot {
    Firewall {
        established: Vec<(FiveTuple, u64)>,
    },
    RateLimiter {
        buckets: Vec<(FiveTuple, f64)>,
        last_refill_nanos: u64,
    },
    Nat {
        mappings: Vec<(FiveTuple, u16)>,
        next_port: u16,
    },
}

/// The NF kinds whose snapshot holds a `StateTable`.
const TABLE_KINDS: [NfKind; 3] = [NfKind::Firewall, NfKind::RateLimiter, NfKind::Nat];

impl WireSnapshot {
    /// `kind`'s variant over one `(key, value)` list, in the list's order.
    fn of(kind: NfKind, entries: &[(u8, u16)]) -> WireSnapshot {
        let keyed = || entries.iter().map(|(k, v)| (tuple(*k), *v));
        match kind {
            NfKind::Firewall => WireSnapshot::Firewall {
                established: keyed().map(|(k, v)| (k, u64::from(v))).collect(),
            },
            NfKind::RateLimiter => WireSnapshot::RateLimiter {
                buckets: keyed().map(|(k, v)| (k, f64::from(v) / 4.0)).collect(),
                last_refill_nanos: 3,
            },
            NfKind::Nat => WireSnapshot::Nat {
                mappings: keyed().map(|(k, v)| (k, 40_000 + v)).collect(),
                next_port: 40_100,
            },
            other => unreachable!("{other:?} keeps no StateTable"),
        }
    }

    fn decoded(&self) -> NfStateSnapshot {
        serde_json::from_slice(&serde_json::to_vec(self).unwrap()).expect("a wire snapshot")
    }
}

fn fresh_of(kind: NfKind) -> Box<dyn NetworkFunction> {
    match kind {
        NfKind::Firewall => Box::new(firewall()),
        NfKind::RateLimiter => Box::new(rate_limiter()),
        NfKind::Nat => Box::new(nat()),
        other => unreachable!("{other:?} keeps no StateTable"),
    }
}

/// Imports `entries` into `nf` one at a time, in order: into a non-empty
/// NF an import merges, the imported value winning.
fn import_in_turn(nf: &mut dyn NetworkFunction, kind: NfKind, entries: &[(u8, u16)]) {
    for entry in entries {
        nf.import_state(WireSnapshot::of(kind, std::slice::from_ref(entry)).decoded());
    }
}

/// A delta of `kind` that removes `keys` and sets the scalars as
/// `WireSnapshot::of` does.
fn removing(kind: NfKind, keys: &[u8]) -> NfStateDelta {
    let removals = keys.iter().map(|k| tuple(*k)).collect();
    match kind {
        NfKind::Firewall => NfStateDelta::Firewall {
            upserts: vec![],
            removals,
        },
        NfKind::RateLimiter => NfStateDelta::RateLimiter {
            upserts: vec![],
            removals,
            last_refill_nanos: 3,
        },
        _ => NfStateDelta::Nat {
            upserts: vec![],
            removals,
            next_port: 40_100,
        },
    }
}

/// Distinct keys below 48 (at least one) with a value each, in a generated
/// order.
fn distinct_entries() -> impl Strategy<Value = Vec<(u8, u16)>> {
    let entry = (0u8..48, 0u16..64, any::<u16>());
    proptest::collection::vec(entry, 1..24).prop_map(|drawn| {
        let mut ranked: BTreeMap<u8, (u16, u16)> = BTreeMap::new();
        for (key, value, rank) in drawn {
            ranked.entry(key).or_insert((rank, value));
        }
        let mut entries: Vec<(u16, u8, u16)> = ranked
            .into_iter()
            .map(|(key, (rank, value))| (rank, key, value))
            .collect();
        entries.sort_unstable();
        entries
            .into_iter()
            .map(|(_, key, value)| (key, value))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two NFs that reach one table through different histories — the
    /// entries imported in opposite orders, one NF also holding and losing
    /// others on the way — hold equal tables that serialize to identical
    /// bytes: the entries sorted by key.
    #[test]
    fn equal_tables_serialize_to_equal_bytes_sorted_by_key(
        entries in distinct_entries(),
        passing in proptest::collection::vec(48u8..96, 0..24),
    ) {
        let mut reversed = entries.clone();
        reversed.reverse();
        let mut by_key = entries.clone();
        by_key.sort_by_key(|(k, _)| tuple(*k));
        let held: Vec<(u8, u16)> = passing.iter().map(|k| (*k, 1)).collect();
        for kind in TABLE_KINDS {
            let mut one = fresh_of(kind);
            import_in_turn(&mut *one, kind, &entries);
            let mut other = fresh_of(kind);
            import_in_turn(&mut *other, kind, &held);
            import_in_turn(&mut *other, kind, &reversed);
            other.apply_delta(&removing(kind, &passing));

            let (one, other) = (one.export_state(), other.export_state());
            prop_assert_eq!(&one, &other);
            let text = serde_json::to_string(&one).unwrap();
            prop_assert_eq!(&text, &serde_json::to_string(&other).unwrap());
            prop_assert_eq!(&text, &serde_json::to_string(&WireSnapshot::of(kind, &by_key)).unwrap());
        }
    }

    /// A wire list that repeats keys decodes to what inserting its entries
    /// in turn builds: of a repeated key, the last entry wins.
    #[test]
    fn a_wire_list_with_a_repeated_key_decodes_to_its_entries_inserted_in_turn(
        entries in proptest::collection::vec((0u8..12, 0u16..64), 1..24),
    ) {
        for kind in TABLE_KINDS {
            let mut nf = fresh_of(kind);
            import_in_turn(&mut *nf, kind, &entries);
            prop_assert_eq!(WireSnapshot::of(kind, &entries).decoded(), nf.export_state());
        }
    }
}

#[test]
fn an_import_moves_into_an_empty_nf_and_merges_into_a_non_empty_one() {
    for kind in TABLE_KINDS {
        // Keys 1 and 2 are imported; the serving NF already holds 2 and 9.
        let imported = WireSnapshot::of(kind, &[(1, 10), (2, 20)]).decoded();
        let mut fresh = fresh_of(kind);
        fresh.import_state(imported.clone());
        assert_eq!(fresh.export_state(), imported);

        let mut serving = fresh_of(kind);
        serving.import_state(WireSnapshot::of(kind, &[(2, 5), (9, 90)]).decoded());
        serving.import_state(imported.clone());
        let merged = WireSnapshot::of(kind, &[(1, 10), (2, 20), (9, 90)]).decoded();
        assert_eq!(serving.export_state(), merged);

        // `replace_state` drops what the NF held first.
        serving.replace_state(imported.clone());
        assert_eq!(serving.export_state(), imported);
    }
}

#[test]
fn a_nat_port_held_by_two_tuples_belongs_to_the_larger_in_any_order() {
    // Corrupt input: two flows on one public port. The reply to that port
    // goes back to the larger tuple's client endpoint, whether the two
    // arrive in one table (moved in) or one at a time in either order (the
    // second merged).
    let (low, high) = (tuple(1), tuple(5));
    assert!(low < high);
    let public_ip = Ipv4Addr::new(198, 51, 100, 1);
    let reply = builder::tcp_data(
        macs().1,
        macs().0,
        SERVER_IP,
        public_ip,
        443,
        40_001,
        b"reply",
    );
    let orders = [
        [(low, 40_001), (high, 40_001)],
        [(high, 40_001), (low, 40_001)],
    ];
    for order in orders {
        let snapshot = |entries: &[(FiveTuple, u16)]| NfStateSnapshot::Nat {
            mappings: entries.iter().copied().collect(),
            next_port: 40_002,
        };
        let mut moved = nat();
        moved.import_state(snapshot(&order));
        let mut merged = nat();
        for entry in &order {
            merged.import_state(snapshot(std::slice::from_ref(entry)));
        }
        for mut nat in [moved, merged] {
            let verdict = nat.process(
                reply.clone(),
                Direction::Egress,
                &NfContext::at(SimTime::ZERO),
            );
            let forwarded = verdict.into_forwarded().expect("a translated reply");
            let restored = forwarded.five_tuple().unwrap();
            assert_eq!(
                (restored.dst_ip, restored.dst_port),
                (high.src_ip, high.src_port)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// A conntrack table at 1 % churn: what pre-copy ships at the switchover.
// ---------------------------------------------------------------------------

/// The tuple of established connection `ix`.
fn connection(ix: usize) -> FiveTuple {
    FiveTuple::new(
        Ipv4Addr::new(10, (ix >> 16) as u8, (ix >> 8) as u8, ix as u8),
        SERVER_IP,
        IpProtocol::Tcp,
        40_000 + (ix % 20_000) as u16,
        443,
    )
}

/// A firewall conntrack export with `flows` established connections.
fn conntrack(flows: usize) -> NfStateSnapshot {
    let established = (0..flows)
        .map(|ix| (connection(ix), SimTime::from_nanos(1_000 + ix as u64)))
        .collect();
    NfStateSnapshot::Firewall { established }
}

/// `base` with about 1 % of it dirtied, as a serving chain does during the
/// pre-copy transfer: every 100th flow refreshed, and one new flow per 100.
fn churned(base: &NfStateSnapshot) -> NfStateSnapshot {
    let NfStateSnapshot::Firewall { established } = base else {
        unreachable!("conntrack() builds firewall exports");
    };
    let flows = established.len();
    let refreshed = (0..flows)
        .step_by(100)
        .map(|ix| (connection(ix), SimTime::from_secs(9)));
    let fresh = (0..flows.max(100) / 100).map(|ix| {
        let tuple = FiveTuple::new(
            Ipv4Addr::new(172, 16, (ix >> 8) as u8, ix as u8),
            Ipv4Addr::new(198, 51, 100, 9),
            IpProtocol::Udp,
            50_000 + ix as u16,
            53,
        );
        (tuple, SimTime::from_nanos(9_000_000_000 + ix as u64))
    });
    let established = established
        .iter()
        .map(|(tuple, seen)| (*tuple, *seen))
        .chain(refreshed)
        .chain(fresh)
        .collect();
    NfStateSnapshot::Firewall { established }
}

/// Why switchover downtime stays flat as state grows: at 1 % churn the
/// delta applies to `current` and serializes to under a fifth of the full
/// export, on a small table and a large one.
#[test]
fn a_one_percent_churn_delta_is_under_a_fifth_of_the_full_export() {
    for flows in [100, 50_000] {
        let base = conntrack(flows);
        let current = churned(&base);
        let delta = NfStateDelta::diff(&base, &current);
        assert_eq!(delta.apply(&base), current, "{flows} flows");
        let full_bytes = serde_json::to_vec(&current).unwrap().len();
        let delta_bytes = serde_json::to_vec(&delta).unwrap().len();
        assert!(
            delta_bytes * 5 < full_bytes,
            "delta ({delta_bytes} B) must be well under the full export \
             ({full_bytes} B) at {flows} flows with 1 % churn"
        );
    }
}

/// The target side of the same switchover: a staged chain patched forward
/// to `current` and back exports each in turn.
#[test]
fn a_staged_chain_applies_the_delta_forward_and_back() {
    for flows in [100, 1_000, 10_000] {
        let base = conntrack(flows);
        let current = churned(&base);
        let mut staged = instantiate_chain("staged", &sample_specs()[..1]);
        staged.replace_state(vec![base.clone()]);
        let back = NfStateDelta::diff(&current, &base);
        staged
            .apply_state_deltas(&[NfStateDelta::diff(&base, &current)])
            .unwrap();
        assert_eq!(staged.export_state(), [current], "{flows} flows");
        staged.apply_state_deltas(&[back]).unwrap();
        assert_eq!(staged.export_state(), [base], "{flows} flows, and back");
    }
}

// ---------------------------------------------------------------------------
// What still ships in full, and hostile delta bytes.
// ---------------------------------------------------------------------------

/// `diff` cannot make sense of this pair; it must say so with the one
/// answer that is always right.
fn assert_falls_back_to_full(base: &NfStateSnapshot, current: &NfStateSnapshot) {
    let delta = NfStateDelta::diff(base, current);
    assert_eq!(delta, NfStateDelta::Full(current.clone()), "{base:?}");
    assert_eq!(&delta.apply(base), current);
}

#[test]
fn only_another_variant_or_another_backend_list_ships_in_full() {
    // The DNS load balancer's two exports are compared position by
    // position: another backend sequence is another configuration.
    let lb = |backends: &[u8]| NfStateSnapshot::DnsLoadBalancer {
        next_backend: 1,
        assignments: backends.iter().map(|b| (source(*b), 3)).collect(),
    };
    assert_falls_back_to_full(&lb(&[1, 2, 3]), &lb(&[1, 3, 2]));
    assert_falls_back_to_full(&lb(&[1, 2, 3]), &lb(&[1, 2]));
    // Every variant against every other.
    let mut variants: Vec<NfStateSnapshot> = TABLE_KINDS
        .iter()
        .map(|kind| WireSnapshot::of(*kind, &[(1, 10), (2, 20)]).decoded())
        .collect();
    variants.extend([
        lb(&[1, 2]),
        NfStateSnapshot::Stateless,
        NfStateSnapshot::HttpCache {
            entries: vec![("a".into(), b"1".to_vec())],
        },
        NfStateSnapshot::Ids {
            syn_counts: [(source(1), 3)].into_iter().collect(),
            window_start_nanos: 0,
        },
    ]);
    for a in &variants {
        for b in &variants {
            if a != b {
                assert_falls_back_to_full(a, b);
            }
        }
    }
}

/// One delta of every variant, as a real migration would carry.
fn sample_deltas() -> Vec<NfStateDelta> {
    vec![
        NfStateDelta::Unchanged,
        NfStateDelta::Firewall {
            upserts: vec![(tuple(1), 30), (tuple(3), 15)],
            removals: vec![tuple(2)],
        },
        NfStateDelta::RateLimiter {
            upserts: vec![(tuple(1), 40.5)],
            removals: vec![tuple(2)],
            last_refill_nanos: 9,
        },
        NfStateDelta::Nat {
            upserts: vec![(tuple(4), 40_002)],
            removals: vec![tuple(1)],
            next_port: 40_003,
        },
        NfStateDelta::DnsLoadBalancer {
            next_backend: 2,
            upserts: vec![(Ipv4Addr::new(10, 10, 0, 1), 9)],
        },
        NfStateDelta::Ids {
            upserts: vec![(source(2), 7)],
            removals: vec![source(1)],
            window_start_nanos: 100,
        },
        NfStateDelta::Full(NfStateSnapshot::Firewall {
            established: [(tuple(5), SimTime::from_nanos(50))].into_iter().collect(),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A delta whose bytes were damaged in flight either no longer parses
    /// (the message is dropped) or parses to *some* delta — which every NF
    /// and every baseline takes without panicking, and the NF and the
    /// snapshot-level `apply` still agree on what it means.
    #[test]
    fn damaged_delta_bytes_apply_or_are_ignored(
        which in 0usize..7,
        damage in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = serde_json::to_vec(&sample_deltas()[which]).unwrap();
        for (at, byte) in damage {
            let at = usize::from(at) % bytes.len();
            bytes[at] = byte;
        }
        let Ok(delta) = serde_json::from_slice::<NfStateDelta>(&bytes) else {
            return Ok(());
        };
        let seeded = |mut nf: Box<dyn NetworkFunction>| {
            for flow in 1..4 {
                let _ = nf.process(syn(flow), Direction::Ingress, &NfContext::at(SimTime::from_secs(1)));
            }
            nf
        };
        let nfs: Vec<Box<dyn NetworkFunction>> = vec![
            seeded(Box::new(firewall())),
            seeded(Box::new(nat())),
            seeded(Box::new(rate_limiter())),
            seeded(Box::new(ids())),
            seeded(Box::new(dns_lb())),
        ];
        for mut nf in nfs {
            let expected = delta.apply(&nf.export_state());
            nf.apply_delta(&delta);
            // (`apply` hands a `Full` back as it came, whatever NF it names;
            // an NF takes only its own kind's, through `replace_state`.)
            if !matches!(delta, NfStateDelta::Full(_)) {
                prop_assert_eq!(nf.export_state(), expected);
            }
        }
    }
}
