//! Live-migration micro-benchmarks (experiment E6b support): what actually
//! crosses the wire inside the service-affecting window.
//!
//! * `state_transfer` — the host-CPU and byte cost of a monolithic firewall
//!   conntrack checkpoint vs the pre-copy path (diff against the shipped
//!   baseline, serialize only the dirty delta) at small and large table
//!   sizes with ~1% churn. The guardrail is structural: the delta must
//!   serialize to a small fraction of the full snapshot, which is why
//!   switchover downtime stays flat as state grows.
//!   Beside it, `apply_state_deltas` at 100 / 1 000 / 10 000 flows × ~1%
//!   churn: the target's switchover step patches the firewall's own table,
//!   so its throughput is counted in *changed* entries and must stay flat
//!   as the table grows — the cost follows the churn, not the table.
//! * `roam_burst` — a full 32-roam emulator storm, end to end.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gnf_core::{Emulator, Mobility, Scenario};
use gnf_edge::{RoamTrace, TrafficProfile};
use gnf_nf::testing::sample_specs;
use gnf_nf::{instantiate_chain, NfStateDelta, NfStateSnapshot};
use gnf_packet::{FiveTuple, IpProtocol};
use gnf_switch::TrafficSelector;
use gnf_types::{CellId, GnfConfig, HostClass, SimDuration, SimTime};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Duration;

/// The tuple of established connection `ix`.
fn flow(ix: usize) -> FiveTuple {
    FiveTuple::new(
        Ipv4Addr::new(10, (ix >> 16) as u8, (ix >> 8) as u8, ix as u8),
        Ipv4Addr::new(198, 51, 100, 7),
        IpProtocol::Tcp,
        40_000 + (ix % 20_000) as u16,
        443,
    )
}

/// A firewall conntrack snapshot with `flows` established connections.
fn conntrack(flows: usize, seen_base: u64) -> NfStateSnapshot {
    let established = (0..flows)
        .map(|ix| (flow(ix), SimTime::from_nanos(seen_base + ix as u64)))
        .collect();
    NfStateSnapshot::Firewall { established }
}

/// Dirties ~1% of `base`: refreshed timestamps on every 100th flow plus a
/// handful of new flows — the steady churn a serving chain sees during the
/// pre-copy transfer.
fn dirtied(base: &NfStateSnapshot) -> NfStateSnapshot {
    let NfStateSnapshot::Firewall { established } = base else {
        unreachable!("conntrack() builds firewall snapshots");
    };
    let refreshed = (0..established.len()).step_by(100).map(|ix| {
        let seen = established
            .get(&flow(ix))
            .expect("conntrack() holds every flow");
        (flow(ix), *seen + SimDuration::from_millis(1))
    });
    let fresh = (0..established.len().max(100) / 100).map(|ix| {
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

fn bench_state_transfer(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_transfer");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    for flows in [100usize, 50_000] {
        let base = conntrack(flows, 1_000);
        let current = dirtied(&base);

        // The structural guardrail behind flat switchover downtime: at ~1%
        // churn the delta must be a small fraction of the full checkpoint.
        let full_bytes = serde_json::to_vec(&current).unwrap().len();
        let delta = NfStateDelta::diff(&base, &current);
        let delta_bytes = serde_json::to_vec(&delta).unwrap().len();
        assert_eq!(delta.apply(&base), current, "delta contract");
        assert!(
            delta_bytes * 5 < full_bytes,
            "delta ({delta_bytes} B) must be well under the full snapshot \
             ({full_bytes} B) at {flows} flows with 1% churn"
        );

        group.throughput(Throughput::Elements(flows as u64));
        group.bench_with_input(
            BenchmarkId::new("monolithic_checkpoint", flows),
            &flows,
            |b, _| b.iter(|| black_box(serde_json::to_vec(black_box(&current)).unwrap().len())),
        );
        group.bench_with_input(BenchmarkId::new("precopy_delta", flows), &flows, |b, _| {
            b.iter(|| {
                let delta = NfStateDelta::diff(black_box(&base), black_box(&current));
                black_box(serde_json::to_vec(&delta).unwrap().len())
            })
        });
    }

    // The target side of the same switchover, O(churn): each iteration
    // patches the staged table forward to `current` and back to `base`.
    for flows in [100usize, 1_000, 10_000] {
        let base = conntrack(flows, 1_000);
        let current = dirtied(&base);
        let forward = [NfStateDelta::diff(&base, &current)];
        let back = [NfStateDelta::diff(&current, &base)];
        let mut staged = instantiate_chain("staged", &sample_specs()[..1]);
        staged.replace_state(vec![base.clone()]);
        staged.apply_state_deltas(&forward).unwrap();
        assert_eq!(staged.export_state()[0], current, "apply_delta contract");
        staged.apply_state_deltas(&back).unwrap();
        assert_eq!(staged.export_state()[0], base, "and back");

        let changed = |delta: &NfStateDelta| match delta {
            NfStateDelta::Firewall { upserts, removals } => upserts.len() + removals.len(),
            other => unreachable!("two conntrack tables diff to a firewall delta: {other:?}"),
        };
        group.throughput(Throughput::Elements(
            (changed(&forward[0]) + changed(&back[0])) as u64,
        ));
        group.bench_with_input(
            BenchmarkId::new("apply_state_deltas", flows),
            &flows,
            |b, _| {
                b.iter(|| {
                    staged.apply_state_deltas(black_box(&forward)).unwrap();
                    staged.apply_state_deltas(black_box(&back)).unwrap();
                })
            },
        );
    }
    group.finish();
}

/// The E6b storm at bench scale: 32 stateful clients roaming at once.
fn burst_scenario(seed: u64) -> Scenario {
    const STATIONS: usize = 6;
    let config = GnfConfig {
        seed,
        migration_precopy: true,
        ..GnfConfig::default()
    };
    let mut builder = Scenario::builder(STATIONS, HostClass::EdgeServer).with_config(config);
    let ids = builder.add_clients(32, TrafficProfile::smartphone());
    let mut sb = builder.with_duration(SimDuration::from_secs(30));
    for client in &ids {
        sb = sb.attach_policy(
            *client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    let mut trace = RoamTrace::new();
    for (ix, client) in ids.iter().enumerate() {
        let target = ((ix % STATIONS) + 1) % STATIONS;
        trace = trace.roam(SimTime::from_secs(16), *client, CellId::new(target as u64));
    }
    sb.with_mobility(Mobility::Trace(trace)).build()
}

fn bench_roam_burst(c: &mut Criterion) {
    let mut group = c.benchmark_group("roam_burst");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    group.throughput(Throughput::Elements(32));

    group.bench_function("storm", |b| {
        b.iter(|| black_box(Emulator::new(burst_scenario(7)).run().migration.completed))
    });
    group.finish();
}

criterion_group!(benches, bench_state_transfer, bench_roam_burst);
criterion_main!(benches);
