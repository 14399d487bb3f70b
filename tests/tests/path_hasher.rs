//! The packet path's one hasher (`gnf_types::PathHasher`) and the
//! hand-written `Hash` impls that feed it whole words.
//!
//! * values are pinned from the release start state, so they are stable
//!   across runs, builds and platforms (like `FiveTuple::shard_hash`'s);
//! * the hand-written impls agree with `Eq`;
//! * over the regular key families the workloads produce, both ends of the
//!   64-bit hash that hashbrown uses — the low bits (bucket index) and the
//!   top seven (control-byte tag) — are close to uniform;
//! * in debug builds two maps filled identically iterate in different
//!   orders, so an iteration order leaked into a report still shows up as a
//!   difference between two runs.

use gnf_packet::{FiveTuple, IpProtocol};
use gnf_switch::{FlowKey, PortId};
use gnf_types::{ChainId, ClientId, MacAddr, PathBuildHasher, PathMap, PATH_HASH_START};
use std::hash::{BuildHasher, Hash};
use std::net::Ipv4Addr;

/// The hash a release-build `PathMap` computes for `key`.
fn release_hash(key: &impl Hash) -> u64 {
    PathBuildHasher::with_start(PATH_HASH_START).hash_one(key)
}

fn tuple(src_port: u16, dst_port: u16) -> FiveTuple {
    FiveTuple::new(
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(203, 0, 113, 9),
        IpProtocol::Tcp,
        src_port,
        dst_port,
    )
}

#[test]
fn hash_values_are_stable_across_runs_and_platforms() {
    let mac = MacAddr::derived(1, 7);
    assert_eq!(release_hash(&mac), 0x3d28_f2a5_280a_2695);
    let flow = tuple(49_152, 80);
    assert_eq!(release_hash(&flow), 0x78e8_7dc5_e284_4fce);
    let key = FlowKey {
        in_port: PortId(0),
        src_mac: mac,
        dst_mac: MacAddr::derived(0xA0, 0),
        tuple: flow,
    };
    assert_eq!(release_hash(&key), 0x6026_49f6_b32b_9309);
    // Byte slices are read as little-endian words whatever the platform.
    assert_eq!(release_hash(&"/index.html"), 0x79e7_fd13_52a8_b9cf);
}

#[test]
fn hand_written_hash_agrees_with_eq() {
    let flow = tuple(49_152, 80);
    let same = FiveTuple::new(
        flow.src_ip,
        flow.dst_ip,
        flow.protocol,
        flow.src_port,
        flow.dst_port,
    );
    assert_eq!(flow, same);
    assert_eq!(release_hash(&flow), release_hash(&same));
    assert_ne!(flow, flow.reversed());
    assert_ne!(release_hash(&flow), release_hash(&flow.reversed()));
    // Every field reaches the hash.
    for other in [
        FiveTuple {
            src_ip: Ipv4Addr::new(10, 0, 0, 3),
            ..flow
        },
        FiveTuple {
            dst_ip: Ipv4Addr::new(203, 0, 113, 10),
            ..flow
        },
        FiveTuple {
            protocol: IpProtocol::Udp,
            ..flow
        },
        FiveTuple {
            src_port: 49_153,
            ..flow
        },
        FiveTuple {
            dst_port: 81,
            ..flow
        },
    ] {
        assert_ne!(release_hash(&flow), release_hash(&other), "{other}");
    }

    let mac = MacAddr::new([0x02, 0x01, 0, 0, 0, 7]);
    assert_eq!(mac, MacAddr::derived(1, 7));
    assert_eq!(release_hash(&mac), release_hash(&MacAddr::derived(1, 7)));
    for octet in 0..6 {
        let mut octets = mac.octets();
        octets[octet] ^= 0x10;
        assert_ne!(release_hash(&mac), release_hash(&MacAddr::new(octets)));
    }
}

/// Pearson's chi-squared statistic per degree of freedom of `hashes` binned
/// by `bin`: 1.0 in expectation for a uniform hash, tens to thousands when a
/// key family collapses onto few bins.
fn chi_squared_per_df(hashes: &[u64], bins: usize, bin: impl Fn(u64) -> usize) -> f64 {
    let mut counts = vec![0u64; bins];
    for &hash in hashes {
        counts[bin(hash)] += 1;
    }
    let expected = hashes.len() as f64 / bins as f64;
    let chi_squared: f64 = counts
        .iter()
        .map(|&count| (count as f64 - expected).powi(2) / expected)
        .sum();
    chi_squared / (bins - 1) as f64
}

#[test]
fn both_ends_of_the_hash_are_near_uniform_over_the_workloads_key_families() {
    let families: Vec<(&str, Vec<u64>)> = vec![
        (
            "sequential ephemeral source ports against one destination",
            (0..4096u16)
                .map(|n| release_hash(&tuple(40_000 + n, 443)))
                .collect(),
        ),
        (
            // The pattern `flow.rs` documents as degenerate for bare FNV-1a.
            "source and destination ports varying in step",
            (0..4096u16)
                .map(|n| release_hash(&tuple(40_000 + n, 100 + n % 12)))
                .collect(),
        ),
        (
            "derived MAC addresses",
            (0..2000u32)
                .map(|i| release_hash(&MacAddr::derived(1, i)))
                .collect(),
        ),
        (
            "sequential chain ids",
            (0..4096u64)
                .map(|i| release_hash(&ChainId::new(i)))
                .collect(),
        ),
        (
            "sequential client ids",
            (0..4096u64)
                .map(|i| release_hash(&ClientId::new(i)))
                .collect(),
        ),
    ];
    for (family, hashes) in &families {
        // Bucket index: the low 12 bits (a 4096-bucket table). Sampling
        // spread of the statistic over 4095 degrees of freedom is ±0.02.
        let low = chi_squared_per_df(hashes, 1 << 12, |h| (h & 0xfff) as usize);
        assert!(low < 1.15, "{family}: low 12 bits chi²/df = {low:.3}");
        // Control-byte tag: the top 7 bits. Spread over 127 df is ±0.13.
        let top = chi_squared_per_df(hashes, 1 << 7, |h| (h >> 57) as usize);
        assert!(top < 1.5, "{family}: top 7 bits chi²/df = {top:.3}");
    }
}

/// The PR 18 bug in miniature: emit a map's values in iteration order.
fn leaked_order(map: &PathMap<ChainId, u64>) -> Vec<u64> {
    map.values().copied().collect()
}

#[test]
fn identically_filled_maps_iterate_in_different_orders_in_debug_builds() {
    let filled = || -> PathMap<ChainId, u64> { (0..64).map(|i| (ChainId::new(i), i)).collect() };
    let (first, second) = (filled(), filled());
    assert_eq!(first, second);
    if cfg!(debug_assertions) {
        // 64 values agreeing by chance: 1 in 64!.
        assert_ne!(leaked_order(&first), leaked_order(&second));
    } else {
        // Release builds start every map's hasher from the one constant.
        assert_eq!(leaked_order(&first), leaked_order(&second));
    }
    // Sorting before emitting is what stays correct in both.
    let sorted = |map| {
        let mut values = leaked_order(map);
        values.sort_unstable();
        values
    };
    assert_eq!(sorted(&first), sorted(&second));
}
