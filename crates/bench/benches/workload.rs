//! Workload criterion group: generator throughput and the full station
//! pipeline (parse → the Agent's classify → chain → settle) under each
//! synthetic traffic mix, with the per-mix flow-cache/megaflow hit-rate
//! breakdown printed next to the timing lines. This is the micro-scale
//! companion of `exp_e8_workloads` (which sweeps the same mixes through the
//! whole multi-station emulation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gnf_agent::Agent;
use gnf_bench::dataplane_fixture as fixture;
use gnf_packet::Packet;
use gnf_workload::{ArrivalModel, FlowSizeModel, Population, SyntheticSpec, TrafficMix, Workload};
use std::time::Duration;

/// The mixes the group sweeps, with the generator knobs that define them.
fn mixes() -> Vec<(&'static str, SyntheticSpec)> {
    let base = |label: &str| {
        SyntheticSpec::new(label, 0xE8)
            .with_arrivals(ArrivalModel::Poisson {
                flows_per_sec: 5_000.0,
            })
            .with_packet_gap(gnf_types::SimDuration::from_millis(2))
    };
    vec![
        (
            "heavy_tail_web",
            base("heavy_tail_web").with_flow_sizes(FlowSizeModel::Zipf {
                max_packets: 500,
                exponent: 1.2,
            }),
        ),
        (
            "attack",
            base("attack")
                .with_mix(TrafficMix::attack())
                .with_flow_sizes(FlowSizeModel::Zipf {
                    max_packets: 200,
                    exponent: 1.1,
                }),
        ),
        ("churn", base("churn").with_mix(TrafficMix::churn())),
    ]
}

fn population() -> Population {
    Population::synthetic(1, 4)
}

/// A single station steering every population client through its own
/// 100-rule conntrack-off firewall (the bench chain e4's guardrails walk),
/// megaflow enabled.
fn station() -> Agent {
    let population = population();
    let clients = population
        .endpoints()
        .iter()
        .map(|e| (e.client, e.mac, e.ip));
    fixture::station_agent(clients, &fixture::bench_chain(1, false), true)
}

/// Drains `budget` packets from a fresh generator of the given spec.
fn generate(spec: &SyntheticSpec, budget: u64) -> Vec<Packet> {
    let mut workload = spec.clone().with_packet_budget(budget).build(population());
    let mut out = Vec::with_capacity(budget as usize);
    while let Some(batch) = workload.next_batch() {
        out.extend(batch.packets.into_iter().map(|(_, p)| p));
    }
    out
}

fn bench_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for (name, spec) in mixes() {
        // Steady-state generator throughput: one long-lived workload built
        // outside the timing loop (its Zipf CDF table, population and RNG
        // derivation are one-time setup), each iteration pulling the next
        // 256 packets of the stream — flow bookkeeping, RNG draws and frame
        // building only.
        const GEN_CHUNK: u64 = 256;
        let mut generator = spec
            .clone()
            .with_packet_budget(u64::MAX / 2)
            .build(population());
        group.throughput(Throughput::Elements(GEN_CHUNK));
        group.bench_with_input(BenchmarkId::new("generate", name), &(), |b, _| {
            b.iter(|| {
                let mut drained = 0usize;
                while drained < GEN_CHUNK as usize {
                    match generator.next_batch() {
                        Some(batch) => drained += batch.len(),
                        None => break,
                    }
                }
                std::hint::black_box(drained)
            })
        });

        // Full station pipeline under the mix: cycle a generated slice of
        // the workload through parse → `Agent::process`
        // (classify exact/wildcard/slow → chain → seal → settle).
        let frames = generate(&spec, 8_192);
        let mut agent = station();
        let mut next = 0usize;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("pipeline", name), &(), |b, _| {
            b.iter(|| {
                let frame = &frames[next];
                next = (next + 1) % frames.len();
                std::hint::black_box(fixture::step(&mut agent, frame))
            })
        });
        let sw = agent.switch();
        let flow_cache = sw.flow_cache_stats();
        let megaflow = sw.megaflow_stats();
        println!(
            "workload/breakdown/{name}: flow cache {:.1}% ({} hits / {} misses), \
             megaflow {:.1}% ({} hits, {} entries, {} masks)",
            flow_cache.hit_rate() * 100.0,
            flow_cache.hits,
            flow_cache.misses,
            megaflow.hit_rate() * 100.0,
            megaflow.hits,
            sw.megaflow_len(),
            sw.megaflow_mask_count(),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_workload);
criterion_main!(benches);
