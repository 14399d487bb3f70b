//! Data-plane micro-benchmarks (experiment E4): real wall-clock throughput of
//! packet parsing, the firewall rule engine, NF chains of increasing length,
//! the DNS load balancer and the software switch — the "high throughput, low
//! latency" side of the paper's lightweight-NF argument.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gnf_nf::firewall::{
    Firewall, FirewallConfig, FirewallRule, PortMatch, ProtocolMatch, RuleAction,
};
use gnf_nf::testing::sample_specs;
use gnf_nf::{instantiate_chain, Direction, NetworkFunction, NfContext};
use gnf_packet::{builder, Packet};
use gnf_switch::{SoftwareSwitch, SteeringRule, TrafficSelector};
use gnf_types::{ChainId, ClientId, MacAddr, SimTime};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Duration;

fn quick(c: &mut Criterion) -> &mut Criterion {
    c
}

fn sample_tcp(payload: usize) -> Packet {
    builder::tcp_data(
        MacAddr::derived(1, 1),
        MacAddr::derived(0xA0, 0),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(203, 0, 113, 9),
        40_000,
        443,
        &vec![0xAB; payload],
    )
}

fn bench_packet_parsing(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("packet_parse");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for size in [64usize, 512, 1400] {
        let pkt = sample_tcp(size.saturating_sub(54));
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

fn firewall_with_rules(rules: usize) -> Firewall {
    let mut list = Vec::with_capacity(rules);
    for i in 0..rules {
        list.push(FirewallRule {
            protocol: ProtocolMatch::Tcp,
            dst_port: PortMatch::Exact(10_000 + i as u16),
            action: RuleAction::Drop,
            ..FirewallRule::any(format!("rule-{i}"), RuleAction::Drop)
        });
    }
    // Disable conntrack so every packet walks the whole rule list (worst case).
    Firewall::new(
        "bench-fw",
        FirewallConfig {
            rules: list,
            default_action: RuleAction::Accept,
            track_connections: false,
            conntrack_idle_timeout_secs: 60,
        },
    )
}

fn bench_firewall_rules(c: &mut Criterion) {
    let mut group = quick(c).benchmark_group("firewall_rule_count");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let ctx = NfContext::at(SimTime::from_secs(1));
    for rules in [10usize, 100, 1_000, 10_000] {
        let mut fw = firewall_with_rules(rules);
        let pkt = sample_tcp(64);
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
    let mut group = quick(c).benchmark_group("chain_length");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let ctx = NfContext::at(SimTime::from_secs(1));
    let specs = sample_specs();
    for len in [1usize, 2, 4, 7] {
        let mut chain = instantiate_chain("bench-chain", &specs[..len.min(specs.len())]);
        let pkt = sample_tcp(256);
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
    let mut group = quick(c).benchmark_group("nf_specialised");
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

fn bench_switch(c: &mut Criterion) {
    use gnf_bench::dataplane_fixture as fixture;
    use gnf_nf::NfChain;

    let mut group = quick(c).benchmark_group("switch");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let mut sw = SoftwareSwitch::new();
    // 256 steered clients on the switch.
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
    // An empty chain: the step is parse + classification alone.
    let mut chain = NfChain::new("none");
    let ctx = NfContext::at(SimTime::from_secs(1));
    group.throughput(Throughput::Elements(1));
    group.bench_function("receive_steered_256_clients", |b| {
        b.iter(|| {
            black_box(fixture::pipeline_step(
                &mut sw,
                &mut chain,
                black_box(&pkt),
                &ctx,
            ))
        })
    });
    group.finish();
}

// --------------------------------------------------------------- flow cache

fn bench_flow_cache(c: &mut Criterion) {
    use gnf_bench::dataplane_fixture as fixture;

    let mut group = quick(c).benchmark_group("flow_cache");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let ctx = NfContext::at(SimTime::from_secs(1));

    for len in [0usize, 1, 3] {
        // Cached: every packet belongs to one established flow, so the
        // switch decision is a cache hit and (for chains) the firewall's
        // conntrack entry is warm.
        let (mut sw, mut chain) = fixture::station(len, true);
        let frame = fixture::established_flow_frame(10);
        fixture::pipeline_step(&mut sw, &mut chain, &frame, &ctx); // warm the caches
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("cached", len), &len, |b, _| {
            b.iter(|| {
                black_box(fixture::pipeline_step(
                    &mut sw,
                    &mut chain,
                    black_box(&frame),
                    &ctx,
                ))
            })
        });

        // Uncached: every packet is the first of a brand-new flow — the
        // historical per-packet pipeline. 8192 distinct flows cycle through
        // a 4096-entry cache, so every lookup misses and evicts, and the
        // firewall (conntrack off) evaluates its rule list per packet.
        let (mut sw, mut chain) = fixture::station(len, false);
        let frames = fixture::new_flow_frames(8192);
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("uncached", len), &len, |b, _| {
            b.iter(|| {
                let frame = &frames[next];
                next = (next + 1) % frames.len();
                black_box(fixture::pipeline_step(
                    &mut sw,
                    &mut chain,
                    black_box(frame),
                    &ctx,
                ))
            })
        });
    }
    group.finish();
}

// ---------------------------------------------------------------- megaflow

/// New-flow churn: every packet is the first of a brand-new flow, so the
/// exact-match hit rate is ≈ 0 and the historical fast path is useless. The
/// wildcard layer turns the whole workload into one masked entry (same
/// client, protocol, destination — only the ephemeral source port varies),
/// bypassing both the steering walk and the 100-rule firewall. This is the
/// ROADMAP's megaflow lever; keep `wildcard` ≥1.5× over `uncached`.
fn bench_megaflow(c: &mut Criterion) {
    use gnf_bench::dataplane_fixture as fixture;

    let mut group = quick(c).benchmark_group("megaflow");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let ctx = NfContext::at(SimTime::from_secs(1));

    for len in [0usize, 1] {
        // Baseline: the uncached slow path (the same station the
        // `flow_cache` group's `uncached` lines measure).
        let (mut sw, mut chain) = fixture::station(len, false);
        let frames = fixture::new_flow_frames(8192);
        let mut next = 0usize;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("uncached", len), &len, |b, _| {
            b.iter(|| {
                let frame = &frames[next];
                next = (next + 1) % frames.len();
                black_box(fixture::pipeline_step(
                    &mut sw,
                    &mut chain,
                    black_box(frame),
                    &ctx,
                ))
            })
        });

        // Wildcarded: identical workload, megaflow enabled. The first
        // iteration installs the masked entry; every subsequent new flow is
        // a wildcard hit that bypasses the (pure, conntrack-off) chain.
        let (mut sw, mut chain) = fixture::station_megaflow(len);
        let frames = fixture::new_flow_frames(8192);
        fixture::pipeline_step(&mut sw, &mut chain, &frames[0], &ctx); // seal the entry
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("wildcard", len), &len, |b, _| {
            b.iter(|| {
                let frame = &frames[next];
                next = (next + 1) % frames.len();
                black_box(fixture::pipeline_step(
                    &mut sw,
                    &mut chain,
                    black_box(frame),
                    &ctx,
                ))
            })
        });
    }
    group.finish();
}

// ----------------------------------------------------------- megaflow_drop

/// Dropped-flow churn: every packet is the first of a brand-new flow whose
/// destination port the 100-rule firewall *denies* on its last range rule,
/// so the chain-walking baseline pays the full first-match walk per packet
/// only to throw the packet away. With wildcarded drop entries the first
/// packet seals a certified drop and every subsequent new flow of the
/// pattern is retired at the switch, deny counters and drop reason replayed.
/// This is the ROADMAP's wildcarded-drop lever; keep `wildcard` ≥1.5× over
/// `uncached`.
fn bench_megaflow_drop(c: &mut Criterion) {
    use gnf_bench::dataplane_fixture as fixture;

    let mut group = quick(c).benchmark_group("megaflow_drop");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    let ctx = NfContext::at(SimTime::from_secs(1));

    // Chain 1 is the firewall alone; chain 3 adds the (opaque) rate limiter
    // and IDS behind it — the drop still seals because the packet never
    // reaches them.
    for len in [1usize, 3] {
        // Baseline: the uncached slow path walks the rules and drops.
        let (mut sw, mut chain) = fixture::station(len, false);
        let frames = fixture::blocked_flow_frames(8192);
        let mut next = 0usize;
        group.throughput(Throughput::Elements(1));
        group.bench_with_input(BenchmarkId::new("uncached", len), &len, |b, _| {
            b.iter(|| {
                let frame = &frames[next];
                next = (next + 1) % frames.len();
                black_box(fixture::pipeline_step(
                    &mut sw,
                    &mut chain,
                    black_box(frame),
                    &ctx,
                ))
            })
        });

        // Wildcarded: identical workload, megaflow enabled. The first
        // iteration seals the drop entry; every subsequent new flow is a
        // certified drop bypass that never touches the chain.
        let (mut sw, mut chain) = fixture::station_megaflow(len);
        let frames = fixture::blocked_flow_frames(8192);
        fixture::pipeline_step(&mut sw, &mut chain, &frames[0], &ctx); // seal the entry
        assert_eq!(
            sw.megaflow_stats().drop_installs,
            1,
            "the drop entry must have sealed"
        );
        let mut next = 0usize;
        group.bench_with_input(BenchmarkId::new("wildcard", len), &len, |b, _| {
            b.iter(|| {
                let frame = &frames[next];
                next = (next + 1) % frames.len();
                black_box(fixture::pipeline_step(
                    &mut sw,
                    &mut chain,
                    black_box(frame),
                    &ctx,
                ))
            })
        });
    }
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
    use gnf_bench::dataplane_fixture as fixture;
    use gnf_packet::PacketBatch;
    use gnf_telemetry::{
        FlightRecorder, TraceScope, TraceSink, DEFAULT_FLIGHT_CAPACITY, DEFAULT_FLIGHT_SAMPLE_RATE,
        DEFAULT_TRACE_CAPACITY,
    };

    let mut group = quick(c).benchmark_group("trace_overhead");
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
        agent.process_upstream_batch(warm, now);
        group.throughput(Throughput::Elements(frames.len() as u64));
        let label = if traced { "enabled" } else { "disabled" };
        group.bench_with_input(BenchmarkId::new("tracing", label), &traced, |b, _| {
            b.iter(|| {
                let batch: PacketBatch = frames
                    .iter()
                    .map(|f| Packet::parse(f.bytes().clone()).unwrap())
                    .collect();
                black_box(agent.process_upstream_batch(black_box(batch), now))
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
    bench_flow_cache,
    bench_megaflow,
    bench_megaflow_drop,
    bench_trace_overhead
);
criterion_main!(benches);
