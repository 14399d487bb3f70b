//! Control-plane micro-benchmarks (experiment E5 support): the cost of the
//! Manager⇄Agent codec, of Manager report ingestion and of running a whole
//! demo scenario through the emulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gnf_api::codec;
use gnf_api::messages::AgentToManager;
use gnf_bench::{register_fleet, station_report};
use gnf_core::{Emulator, Scenario};
use gnf_manager::Manager;
use gnf_telemetry::{DeltaEncoder, ReportReassembler, StationReport};
use gnf_types::{GnfConfig, SimTime, StationId};
use std::hint::black_box;
use std::time::Duration;

/// A steady-state full report of `station` (the fixture exp_e5 measures).
fn sample_report(station: u64) -> AgentToManager {
    AgentToManager::Report(Box::new(station_report(
        station,
        0.30,
        SimTime::from_secs(10),
    )))
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("api_codec");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let msg = sample_report(3);
    let encoded = codec::encode_to_vec(&msg).unwrap();
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_report", |b| {
        b.iter(|| black_box(codec::encode_to_vec(black_box(&msg)).unwrap()))
    });
    group.bench_function("decode_report", |b| {
        b.iter(|| {
            let mut buf = bytes::BytesMut::from(&encoded[..]);
            let decoded: AgentToManager = codec::decode(&mut buf).unwrap().unwrap();
            black_box(decoded)
        })
    });
    group.finish();
}

fn bench_manager_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("manager_ingest_reports");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for stations in [10u64, 100, 500] {
        group.throughput(Throughput::Elements(stations));
        group.bench_with_input(
            BenchmarkId::from_parameter(stations),
            &stations,
            |b, &stations| {
                // Register the stations once, outside the measured loop.
                let mut manager = Manager::new(GnfConfig::default());
                register_fleet(&mut manager, stations);
                let mut now = 1u64;
                b.iter(|| {
                    now += 1;
                    for s in 0..stations {
                        let actions = manager.handle_agent_msg(
                            StationId::new(s),
                            sample_report(s),
                            SimTime::from_secs(now),
                        );
                        black_box(actions);
                    }
                    black_box(manager.tick(SimTime::from_secs(now)))
                })
            },
        );
    }
    group.finish();
}

/// Full vs delta report transport at fleet scale: encode/decode/apply one
/// steady-state reporting interval for 100 / 1k / 10k stations. The
/// bytes-on-the-wire guardrail (steady-state delta ≥ 5× smaller than full
/// reports) is asserted by `exp_e5_manager_scale`.
fn bench_control_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("control_plane");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);

    for stations in [100u64, 1_000, 10_000] {
        group.throughput(Throughput::Elements(stations));

        // Full path: every station ships (encode + decode) a full report.
        let full_msgs: Vec<AgentToManager> = (0..stations).map(sample_report).collect();
        group.bench_with_input(
            BenchmarkId::new("full_wire", stations),
            &stations,
            |b, _| {
                b.iter(|| {
                    for msg in &full_msgs {
                        let encoded = codec::encode_to_vec(msg).unwrap();
                        let mut buf = bytes::BytesMut::from(&encoded[..]);
                        let decoded: AgentToManager = codec::decode(&mut buf).unwrap().unwrap();
                        black_box(decoded);
                    }
                })
            },
        );

        // Delta path: every station diffs against its keyframe, ships the
        // frame, and the receiver reassembles the full report. Encoder and
        // reassembler state advance across iterations, so the stream is a
        // realistic keyframe-then-deltas cadence.
        group.bench_with_input(
            BenchmarkId::new("delta_wire", stations),
            &stations,
            |b, &stations| {
                let mut encoders: Vec<DeltaEncoder> =
                    (0..stations).map(|_| DeltaEncoder::new(16)).collect();
                let mut reports: Vec<StationReport> = (0..stations)
                    .map(|s| station_report(s, 0.30, SimTime::from_secs(10)))
                    .collect();
                let mut reassembler = ReportReassembler::new();
                let mut interval = 0u64;
                b.iter(|| {
                    interval += 1;
                    for s in 0..stations as usize {
                        reports[s].flow_cache.stats.hits += 1;
                        reports[s].produced_at = SimTime::from_secs(10 + interval);
                        let frame = encoders[s].encode(&reports[s]);
                        let msg = AgentToManager::ReportDelta(Box::new(frame));
                        let encoded = codec::encode_to_vec(&msg).unwrap();
                        let mut buf = bytes::BytesMut::from(&encoded[..]);
                        let decoded: AgentToManager = codec::decode(&mut buf).unwrap().unwrap();
                        if let AgentToManager::ReportDelta(frame) = decoded {
                            black_box(reassembler.apply(&frame).unwrap());
                        }
                    }
                })
            },
        );
    }
    group.finish();
}

fn bench_demo_scenario(c: &mut Criterion) {
    let mut group = c.benchmark_group("emulator");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    group.bench_function("demo_roaming_full_run", |b| {
        b.iter(|| {
            let mut emulator = Emulator::new(Scenario::demo_roaming(GnfConfig::default()));
            black_box(emulator.run())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_codec,
    bench_manager_ingest,
    bench_control_plane,
    bench_demo_scenario
);
criterion_main!(benches);
