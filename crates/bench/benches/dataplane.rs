//! Data-plane micro-benchmarks (experiment E4): real wall-clock throughput of
//! packet parsing, the firewall rule engine, NF chains of increasing length,
//! the DNS load balancer and the software switch — the "high throughput, low
//! latency" side of the paper's lightweight-NF argument. The cache
//! guardrails (flow cache, megaflow, megaflow drop entries) are measured and
//! asserted by `exp_e4_dataplane`, through the real Agent.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gnf_bench::dataplane_fixture as fixture;
use gnf_nf::firewall::Firewall;
use gnf_nf::testing::sample_specs;
use gnf_nf::{instantiate_chain, Direction, NetworkFunction, NfContext};
use gnf_packet::{builder, Packet};
use gnf_switch::{SoftwareSwitch, SteeringRule, TrafficSelector};
use gnf_types::{ChainId, ClientId, MacAddr, SimTime};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::slice;
use std::time::Duration;

fn bench_packet_parsing(c: &mut Criterion) {
    let mut group = c.benchmark_group("packet_parse");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for size in [64usize, 512, 1400] {
        let pkt = fixture::established_flow_frame(size.saturating_sub(54));
        let bytes = pkt.bytes().clone();
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("tcp", size), &bytes, |b, bytes| {
            b.iter(|| Packet::parse(black_box(bytes.clone())).unwrap())
        });
    }
    let dns = builder::dns_query(
        MacAddr::derived(1, 1),
        MacAddr::derived(0xA0, 0),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(8, 8, 8, 8),
        5353,
        7,
        "www.gla.ac.uk",
    );
    group.bench_function("dns_query", |b| {
        b.iter(|| {
            let parsed = Packet::parse(black_box(dns.bytes().clone())).unwrap();
            black_box(parsed.dns())
        })
    });
    group.finish();
}

fn bench_firewall_rules(c: &mut Criterion) {
    let mut group = c.benchmark_group("firewall_rule_count");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let ctx = NfContext::at(SimTime::from_secs(1));
    for rules in [10usize, 100, 1_000, 10_000] {
        // Conntrack off: every packet walks the rule index (worst case).
        let mut fw = Firewall::new("bench-fw", fixture::exact_port_config(rules, false));
        let pkt = fixture::established_flow_frame(64);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(rules), &rules, |b, _| {
            b.iter(|| {
                let verdict = fw.process(black_box(pkt.clone()), Direction::Ingress, &ctx);
                black_box(verdict)
            })
        });
    }
    group.finish();
}

fn bench_chain_length(c: &mut Criterion) {
    let mut group = c.benchmark_group("chain_length");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let ctx = NfContext::at(SimTime::from_secs(1));
    let specs = sample_specs();
    for len in [1usize, 2, 4, 7] {
        let mut chain = instantiate_chain("bench-chain", &specs[..len.min(specs.len())]);
        let pkt = fixture::established_flow_frame(256);
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, _| {
            b.iter(|| {
                let verdict = chain.process(black_box(pkt.clone()), Direction::Ingress, &ctx);
                black_box(verdict)
            })
        });
    }
    group.finish();
}

fn bench_dns_lb_and_http_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("nf_specialised");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let ctx = NfContext::at(SimTime::from_secs(1));

    let mut lb = sample_specs()[2].instantiate();
    let dns = builder::dns_query(
        MacAddr::derived(1, 1),
        MacAddr::derived(0xA0, 0),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(8, 8, 8, 8),
        5353,
        7,
        "svc.edge.example",
    );
    group.bench_function("dns_lb_answer", |b| {
        b.iter(|| black_box(lb.process(black_box(dns.clone()), Direction::Ingress, &ctx)))
    });

    let mut filter = sample_specs()[1].instantiate();
    let http = builder::http_get(
        MacAddr::derived(1, 1),
        MacAddr::derived(0xA0, 0),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(203, 0, 113, 9),
        40_100,
        "ads.example",
        "/banner.js",
    );
    group.bench_function("http_filter_block", |b| {
        b.iter(|| black_box(filter.process(black_box(http.clone()), Direction::Ingress, &ctx)))
    });
    group.finish();
}

/// Switch classification alone — `begin_batch` + `classify` of one frame,
/// the layer the group is named for — with 256 steered clients installed.
fn bench_switch(c: &mut Criterion) {
    let mut group = c.benchmark_group("switch");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let mut sw = SoftwareSwitch::new();
    for i in 0..256u32 {
        sw.steering_mut().install(SteeringRule {
            client: ClientId::new(u64::from(i)),
            client_mac: MacAddr::derived(1, i),
            selector: TrafficSelector::all(),
            chain: ChainId::new(u64::from(i)),
        });
    }
    let pkt = builder::tcp_data(
        MacAddr::derived(1, 77),
        MacAddr::derived(0xA0, 0),
        Ipv4Addr::new(10, 0, 0, 77),
        Ipv4Addr::new(203, 0, 113, 9),
        40_000,
        80,
        b"data",
    );
    let port = sw.client_port();
    group.throughput(Throughput::Elements(1));
    group.bench_function("receive_steered_256_clients", |b| {
        b.iter(|| {
            let pkt = black_box(&pkt);
            let mut cursor = sw
                .begin_batch(slice::from_ref(pkt), port, fixture::NOW)
                .unwrap();
            black_box(sw.classify(&mut cursor, pkt))
        })
    });
    group.finish();
}

// ----------------------------------------------------------- trace_overhead

/// The observability overhead contract on the hot batch path: one
/// 256-packet upstream batch of established-flow traffic from 8 clients
/// interleaved (`dataplane_fixture::hot_station_*`, each client steered
/// through its own firewall+IDS chain) with the trace sink disabled vs
/// armed. `disabled` must sit within noise of
/// the untraced agent (the sink is an enum branch, no allocation), and
/// `enabled` — buffered spans plus the 1-in-16 flow flight recorder — must
/// stay within 10% of `disabled`.
fn bench_trace_overhead(c: &mut Criterion) {
    use gnf_packet::PacketBatch;
    use gnf_telemetry::{
        FlightRecorder, TraceScope, TraceSink, DEFAULT_FLIGHT_CAPACITY, DEFAULT_FLIGHT_SAMPLE_RATE,
        DEFAULT_TRACE_CAPACITY,
    };

    let mut group = c.benchmark_group("trace_overhead");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    let clients = 8u32;
    let frames = fixture::hot_station_frames(clients, 32);
    let now = SimTime::from_secs(2);
    for traced in [false, true] {
        let mut agent = fixture::hot_station_agent(clients);
        if traced {
            agent.set_tracing(
                TraceSink::buffered(TraceScope::Station(0), DEFAULT_TRACE_CAPACITY),
                FlightRecorder::armed(
                    TraceScope::Station(0),
                    7,
                    DEFAULT_FLIGHT_SAMPLE_RATE,
                    DEFAULT_FLIGHT_CAPACITY,
                ),
            );
        }
        let warm: PacketBatch = frames
            .iter()
            .map(|f| Packet::parse(f.bytes().clone()).unwrap())
            .collect();
        agent.process(Direction::Ingress, warm, now, &mut |_| {});
        group.throughput(Throughput::Elements(frames.len() as u64));
        let label = if traced { "enabled" } else { "disabled" };
        group.bench_with_input(BenchmarkId::new("tracing", label), &traced, |b, _| {
            b.iter(|| {
                let batch: PacketBatch = frames
                    .iter()
                    .map(|f| Packet::parse(f.bytes().clone()).unwrap())
                    .collect();
                agent.process(Direction::Ingress, black_box(batch), now, &mut |outcome| {
                    black_box(outcome);
                })
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_packet_parsing,
    bench_firewall_rules,
    bench_chain_length,
    bench_dns_lb_and_http_filter,
    bench_switch,
    bench_trace_overhead
);
criterion_main!(benches);
