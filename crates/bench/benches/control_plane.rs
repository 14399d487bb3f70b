//! Control-plane micro-benchmarks (experiment E5 support): the cost of the
//! Manager⇄Agent codec, of Manager report ingestion and of running a whole
//! demo scenario through the emulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gnf_api::codec;
use gnf_api::messages::AgentToManager;
use gnf_core::{Emulator, Scenario};
use gnf_manager::Manager;
use gnf_telemetry::{DeltaEncoder, ReportReassembler, StationReport};
use gnf_types::{AgentId, ClientId, GnfConfig, HostClass, ResourceUsage, SimTime, StationId};
use std::hint::black_box;
use std::time::Duration;

fn sample_report(station: u64) -> AgentToManager {
    // A station with live traffic history: populated cache counters and a
    // batch distribution — what a full report re-ships every interval
    // regardless of what changed.
    let flow_cache = gnf_telemetry::FlowCacheTelemetry {
        stats: gnf_types::FlowCacheStats {
            hits: 1_000_000 + station,
            misses: 40_000,
            evictions: 1_200,
            ..Default::default()
        },
        entries: 4_096,
    };
    let megaflow = gnf_telemetry::MegaflowTelemetry {
        stats: gnf_types::MegaflowStats {
            hits: 30_000,
            misses: 10_000,
            installs: 600,
            ..Default::default()
        },
        entries: 512,
        masks: 3,
    };
    let batches = gnf_telemetry::BatchTelemetry {
        batches: 80_000,
        packets: 1_070_000,
        max_batch: 210,
        size_buckets: [10, 20, 300, 4_000, 30_000, 40_000, 5_000, 600, 70],
    };
    AgentToManager::Report(Box::new(StationReport {
        station: StationId::new(station),
        agent: AgentId::new(station),
        produced_at: SimTime::from_secs(10),
        host_class: HostClass::EdgeServer,
        capacity: HostClass::EdgeServer.capacity(),
        usage: ResourceUsage {
            cpu_fraction: 0.35,
            memory_mb: 900,
            disk_mb: 4_000,
            rx_bps: 10e6,
            tx_bps: 2e6,
        },
        connected_clients: (0..20).map(ClientId::new).collect(),
        running_nfs: 24,
        cached_images: 7,
        flow_cache,
        megaflow,
        batches,
        chaos: Default::default(),
    }))
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
                for s in 0..stations {
                    manager.handle_agent_msg(
                        StationId::new(s),
                        AgentToManager::Register {
                            agent: AgentId::new(s),
                            station: StationId::new(s),
                            host_class: HostClass::EdgeServer,
                            capacity: HostClass::EdgeServer.capacity(),
                        },
                        SimTime::ZERO,
                    );
                }
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

/// The station report used on the delta path, with per-station identity and
/// a mutable counter section for steady-state churn.
fn station_report(station: u64) -> StationReport {
    match sample_report(station) {
        AgentToManager::Report(report) => *report,
        _ => unreachable!(),
    }
}

/// Full vs delta report transport at fleet scale: encode/decode/apply one
/// steady-state reporting interval for 100 / 1k / 10k stations, printing the
/// bytes-on-the-wire guardrail (steady-state delta frames must be at least
/// 5x smaller than full reports).
fn bench_control_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("control_plane");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);

    for stations in [100u64, 1_000, 10_000] {
        // Bytes guardrail, measured outside the timing loops: a steady-state
        // interval on each path. An idle station's delta carries no sections
        // at all; a lightly-active one re-ships only its flow-cache block.
        let mut encoder = DeltaEncoder::new(u64::MAX);
        let mut report = station_report(0);
        let _ = encoder.encode(&report); // keyframe
        report.produced_at = SimTime::from_secs(11);
        let idle_msg = AgentToManager::ReportDelta(Box::new(encoder.encode(&report)));
        report.flow_cache.stats.hits += 1;
        report.produced_at = SimTime::from_secs(12);
        let churn_msg = AgentToManager::ReportDelta(Box::new(encoder.encode(&report)));
        let full_bytes = codec::encode_to_vec(&sample_report(0)).unwrap().len();
        let idle_bytes = codec::encode_to_vec(&idle_msg).unwrap().len();
        let churn_bytes = codec::encode_to_vec(&churn_msg).unwrap().len();
        eprintln!(
            "control_plane bytes/station @ {stations}: full={full_bytes}B \
             idle-delta={idle_bytes}B ({:.1}x, guardrail >=5x) \
             churn-delta={churn_bytes}B ({:.1}x)",
            full_bytes as f64 / idle_bytes as f64,
            full_bytes as f64 / churn_bytes as f64,
        );

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
                let mut reports: Vec<StationReport> = (0..stations).map(station_report).collect();
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
