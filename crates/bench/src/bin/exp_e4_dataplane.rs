//! Experiment E4 — data-plane throughput and added latency of the lightweight
//! NFs: packets per second through the firewall as the rule count grows,
//! through chains of increasing length, and per-NF behaviour on a realistic
//! traffic mix. Wall-clock measurement (this is real packet processing, not a
//! cost model).
//!
//! Its three cache sections time the production pipeline — a real `Agent`
//! stepped through `Agent::process`, a batch of one — and assert the cache
//! guardrails: the exact-match flow cache ≥ 2×, the megaflow layer ≥ 1.5×
//! and its drop entries ≥ 1.5× over the uncached path, on every chain of at
//! least one NF. The harness panics when a floor is missed.

use gnf_agent::Agent;
use gnf_bench::dataplane_fixture as fixture;
use gnf_bench::section;
use gnf_core::{Emulator, Scenario};
use gnf_edge::TrafficProfile;
use gnf_nf::firewall::Firewall;
use gnf_nf::testing::{sample_specs, sample_traffic};
use gnf_nf::{instantiate_chain, Direction, NetworkFunction, NfContext};
use gnf_packet::Packet;
use gnf_switch::TrafficSelector;
use gnf_types::{GnfConfig, HostClass, SimDuration, SimTime};
use std::net::Ipv4Addr;
use std::slice;
use std::time::Instant;

/// The multi-station scenario for the aggregate-throughput measurement: 8
/// stations, 4 CBR clients each, every client steered through a 3-NF chain
/// (firewall + rate limiter + IDS). The IDS signature scan over the 1000-byte
/// payloads gives each station real per-packet work.
fn station_scenario(seed: u64) -> Scenario {
    let config = GnfConfig {
        // Fewer control events → longer uninterrupted packet runs to batch.
        agent_report_interval: SimDuration::from_secs(10),
        seed,
        ..GnfConfig::default()
    };
    let mut builder = Scenario::builder(8, HostClass::EdgeServer).with_config(config);
    let clients = builder.add_clients(
        32,
        TrafficProfile::ConstantBitRate {
            packets_per_sec: 500.0,
            payload_bytes: 1000,
        },
    );
    let mut sb = builder.with_duration(SimDuration::from_secs(10));
    let specs = vec![
        sample_specs()[0].clone(), // firewall
        sample_specs()[3].clone(), // rate limiter
        sample_specs()[6].clone(), // IDS
    ];
    for client in &clients {
        sb = sb.attach_policy(
            *client,
            specs.clone(),
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    sb.build()
}

/// Times `iterations` calls of `f` five times over and keeps the fastest
/// run, the one the host disturbed least: (packets/s, µs/packet).
fn measure<F: FnMut()>(iterations: u64, mut f: F) -> (f64, f64) {
    let elapsed = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iterations {
                f();
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (
        iterations as f64 / elapsed,
        elapsed * 1e6 / iterations as f64,
    )
}

/// [`measure`] of `frames`, cycled, stepped one at a time through `agent`.
fn measure_frames(iterations: u64, agent: &mut Agent, frames: &[Packet]) -> (f64, f64) {
    let mut next = 0usize;
    measure(iterations, || {
        fixture::step(agent, &frames[next]);
        next = (next + 1) % frames.len();
    })
}

/// Names the bench chain of `len` NFs a block of cache rows measures.
fn chain_label(len: usize) {
    if len == 0 {
        println!("chain 0 (unsteered, not asserted):");
        return;
    }
    let names: Vec<&str> = fixture::bench_chain(len, false)
        .iter()
        .map(|spec| spec.kind().label())
        .collect();
    println!("chain {len} ({}):", names.join("+"));
}

/// Prints a block's speedup of the cached over the uncached path and
/// asserts its guardrail `floor`. Chain-0 blocks are printed but not
/// asserted: an unsteered packet has no chain for the cache to skip, so a
/// hit saves only the steering and MAC lookups.
fn speedup(group: &str, len: usize, floor: f64, uncached_us: f64, cached_us: f64) {
    let ratio = uncached_us / cached_us;
    println!("speedup:            {ratio:>10.2}x");
    if len > 0 {
        assert!(
            ratio >= floor,
            "{group} guardrail: {ratio:.2}x on chain {len} is below the {floor:.1}x floor"
        );
        println!("guardrail {group} >= {floor:.1}x: pass");
    }
}

fn main() {
    println!("E4 — data-plane throughput and per-packet latency (wall clock)");
    let seed = gnf_bench::seed_arg();
    let ctx = NfContext::at(SimTime::from_secs(1));
    let iterations = 200_000u64;

    section("firewall throughput vs rule count (64 B packets, worst case: no rule matches)");
    println!("{:>10} {:>16} {:>16}", "rules", "kpps", "us/packet");
    for rules in [0usize, 10, 100, 1_000, 5_000] {
        let mut fw = Firewall::new("fw", fixture::exact_port_config(rules, false));
        let pkt = fixture::established_flow_frame(10);
        let iters = if rules >= 1_000 {
            iterations / 10
        } else {
            iterations
        };
        let (pps, us) = measure(iters, || {
            let _ = fw.process(pkt.clone(), Direction::Ingress, &ctx);
        });
        println!("{:>10} {:>16.0} {:>16.3}", rules, pps / 1e3, us);
    }

    section("stateful fast path: same firewall with connection tracking enabled (5000 rules)");
    {
        let mut fw = Firewall::new("fw", fixture::exact_port_config(5_000, true));
        let pkt = fixture::established_flow_frame(10);
        // First packet walks the rules and establishes the flow.
        let _ = fw.process(pkt.clone(), Direction::Ingress, &ctx);
        let (pps, us) = measure(iterations, || {
            let _ = fw.process(pkt.clone(), Direction::Ingress, &ctx);
        });
        println!(
            "established-flow fast path: {:.0} kpps, {:.3} us/packet",
            pps / 1e3,
            us
        );
    }

    section("chain length vs throughput (256 B packets)");
    println!(
        "{:>10} {:>30} {:>12} {:>12}",
        "length", "NFs", "kpps", "us/packet"
    );
    let specs = sample_specs();
    for len in [1usize, 2, 4, 7] {
        let mut chain = instantiate_chain("chain", &specs[..len]);
        let names: Vec<&str> = specs[..len].iter().map(|s| s.kind().label()).collect();
        let pkt = fixture::established_flow_frame(200);
        let (pps, us) = measure(iterations / 2, || {
            let _ = chain.process(pkt.clone(), Direction::Ingress, &ctx);
        });
        println!(
            "{:>10} {:>30} {:>12.0} {:>12.3}",
            len,
            names.join("+"),
            pps / 1e3,
            us
        );
    }

    section("switch flow cache: full station pipeline, cache-hit vs first-packet path");
    let new_flows = fixture::new_flow_frames(8192);
    for len in [0usize, 1, 3] {
        chain_label(len);
        // Cached: every packet belongs to one established flow, so the
        // switch decision is an exact-match hit and (for chains) the
        // firewall's conntrack entry is warm.
        let mut agent = fixture::station(len, true, false);
        let frame = fixture::established_flow_frame(10);
        fixture::step(&mut agent, &frame); // warm the caches
        let (hit_pps, hit_us) = measure_frames(iterations, &mut agent, slice::from_ref(&frame));
        let hit_rate = agent.switch().flow_cache_stats().hit_rate();

        // Uncached: every packet is the first of a brand-new flow. 8192
        // distinct flows cycle through a 4096-entry cache, so every lookup
        // misses and evicts, and the firewall (conntrack off) evaluates its
        // rule list per packet.
        let mut agent = fixture::station(len, false, false);
        let (miss_pps, miss_us) = measure_frames(iterations, &mut agent, &new_flows);
        println!(
            "cache-hit path:     {:>10.0} kpps  {:>8.3} us/packet  (hit rate {:.1}%)",
            hit_pps / 1e3,
            hit_us,
            hit_rate * 100.0
        );
        println!(
            "first-packet path:  {:>10.0} kpps  {:>8.3} us/packet  (new flow per packet{})",
            miss_pps / 1e3,
            miss_us,
            if len > 0 { ", 100-rule walk" } else { "" }
        );
        speedup("flow_cache", len, 2.0, miss_us, hit_us);
    }

    section("megaflow wildcard cache: new-flow churn (exact-match hit rate ~ 0)");
    for len in [0usize, 1] {
        chain_label(len);
        // Every packet is the first of a brand-new flow (distinct source
        // ports), so the exact-match cache never hits — the workload the
        // wildcard layer exists for. Baseline: megaflow off, the uncached
        // slow path.
        let mut agent = fixture::station(len, false, false);
        let (slow_pps, slow_us) = measure_frames(iterations, &mut agent, &new_flows);
        let exact_hit_rate = agent.switch().flow_cache_stats().hit_rate();

        // Wildcarded: the identical workload with megaflow on. The first
        // packet seals the masked entry; every later new flow is a wildcard
        // hit that bypasses the (pure, conntrack-off) firewall.
        let mut agent = fixture::station(len, false, true);
        fixture::step(&mut agent, &new_flows[0]); // seal the entry
        let (wild_pps, wild_us) = measure_frames(iterations, &mut agent, &new_flows);
        let sw = agent.switch();
        println!(
            "uncached slow path: {:>10.0} kpps  {:>8.3} us/packet  (exact-match hit rate {:.1}%)",
            slow_pps / 1e3,
            slow_us,
            exact_hit_rate * 100.0
        );
        println!(
            "wildcard (megaflow): {:>9.0} kpps  {:>8.3} us/packet  (megaflow hit rate {:.1}%, {} entr{}, {} mask{})",
            wild_pps / 1e3,
            wild_us,
            sw.megaflow_stats().hit_rate() * 100.0,
            sw.megaflow_len(),
            if sw.megaflow_len() == 1 { "y" } else { "ies" },
            sw.megaflow_mask_count(),
            if sw.megaflow_mask_count() == 1 { "" } else { "s" },
        );
        speedup("megaflow", len, 1.5, slow_us, wild_us);
    }

    section("megaflow drop entries: denied new-flow churn (last range rule denies)");
    let blocked = fixture::blocked_flow_frames(8192);
    for len in [1usize, 3] {
        chain_label(len);
        // Baseline: megaflow off, so every new flow walks 59 range rules to
        // the deny.
        let mut agent = fixture::station(len, false, false);
        let (slow_pps, slow_us) = measure_frames(iterations, &mut agent, &blocked);

        // Wildcarded: the first packet seals a certified drop; every later
        // new flow of the pattern is retired at the switch, deny counters
        // replayed. It seals on chain 3 too: the rate limiter and the
        // (opaque) IDS behind the firewall never see the packet.
        let mut agent = fixture::station(len, false, true);
        fixture::step(&mut agent, &blocked[0]); // seal the entry
        assert_eq!(
            agent.switch().megaflow_stats().drop_installs,
            1,
            "the drop entry must have sealed"
        );
        let (wild_pps, wild_us) = measure_frames(iterations, &mut agent, &blocked);
        println!(
            "uncached slow path: {:>10.0} kpps  {:>8.3} us/packet  (new flow per packet, walk to the deny)",
            slow_pps / 1e3,
            slow_us
        );
        println!(
            "wildcard drop:      {:>10.0} kpps  {:>8.3} us/packet  (drop entry sealed, {} drop bypasses)",
            wild_pps / 1e3,
            wild_us,
            agent.switch().megaflow_stats().drop_hits
        );
        speedup("megaflow_drop", len, 1.5, slow_us, wild_us);
    }

    section("multi-station emulation: aggregate throughput");
    {
        println!("8 stations x 4 CBR clients, 3-NF chains, 10 s virtual, one thread");
        let obs = gnf_bench::observability_args();
        let mut emulator = Emulator::new(station_scenario(seed));
        obs.arm(&mut emulator);
        let start = Instant::now();
        let report = emulator.run();
        let elapsed = start.elapsed().as_secs_f64();
        let processed =
            report.packets.forwarded + report.packets.dropped_by_nf + report.packets.replied_by_nf;
        println!(
            "{:>8.1} ms wall, {:>8.0} kpps aggregate, {} packets ({} batches, mean size {:.1}, max {})",
            elapsed * 1e3,
            processed as f64 / elapsed / 1e3,
            processed,
            report.batches.batches,
            report.batches.mean_batch_size(),
            report.batches.max_batch,
        );
        println!(
            "flow cache {:.1}% / megaflow {:.1}% hit rate ({} wildcard hits, {} entries, {} masks)",
            report.flow_cache.hit_rate() * 100.0,
            report.megaflow.hit_rate() * 100.0,
            report.megaflow.stats.hits,
            report.megaflow.entries,
            report.megaflow.masks,
        );
        obs.write(&mut emulator);
    }

    section("per-NF behaviour on the demo's mixed client traffic");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "NF", "in", "forwarded", "dropped", "replied", "kpps"
    );
    for spec in &specs {
        let mut nf = spec.instantiate();
        let traffic = sample_traffic(Ipv4Addr::new(10, 0, 0, 2));
        let rounds = 20_000usize;
        let start = Instant::now();
        for i in 0..rounds {
            let pkt = traffic[i % traffic.len()].clone();
            let _ = nf.process(pkt, Direction::Ingress, &ctx);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let stats = nf.stats();
        println!(
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>12.0}",
            spec.kind().label(),
            stats.packets_in,
            stats.packets_forwarded,
            stats.packets_dropped,
            stats.packets_replied,
            rounds as f64 / elapsed / 1e3
        );
    }
}
