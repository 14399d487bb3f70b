//! Allocation guard for the NF hot path: the three per-packet costs PR 17
//! removed are asserted as exact heap-request counts, so they cannot creep
//! back unnoticed (`nf.chain_allocs_per_pkt` on `stateful_replay` went
//! 22 → 6 with them).
//!
//! * an unblocked GET through the HTTP filter allocates nothing — the
//!   request is read through a view borrowing the frame;
//! * a NAT translation of an established flow allocates a new frame only
//!   when it must: none when the packet owns its frame alone (the frame is
//!   patched in place), one copy when a clone still shares it or the frame
//!   is a slice of a replay's read block (`Bytes::patch` copies only the
//!   view's own range);
//! * draining notifications from five idle NFs allocates nothing — an NF
//!   is named only when it has events;
//! * a batch through the five-NF chain allocates what its packets do one at
//!   a time (nothing, on established flows) plus at most the verdict
//!   vector — `NfChain::process_batch` is
//!   the per-packet loop, with no per-stage bookkeeping of its own (the
//!   stage-at-a-time batch path it replaced took 9 allocations for one
//!   packet).
//!
//! The Agent's one data-plane entry point adds nothing of its own: a batch
//! of one or of five through `Agent::process` on a warm, steered
//! HTTP-filter chain makes no heap request. The caller builds the batch and
//! its sink receives each outcome; no outcome vector is built per batch.
//! And a whole `Emulator::run` — a 200-station fleet of
//! batches of one, a 16-client replay through pcap ingest and a NAT chain,
//! one roam wave — stays within a stated ceiling of heap requests per
//! generated packet. A fresh switch allocates no flow table until its
//! first insert (the counter also sums the bytes requested), so an idle
//! station costs no table.
//!
//! And the cost of a pre-copy switchover (PR 22): `NfStateDelta::diff` plus
//! `NfChain::apply_state_deltas` make the same number of heap requests on a
//! 500-entry and a 4 000-entry conntrack table when the same ten entries
//! changed — nothing table-sized is built on either side — and a chain whose
//! deltas are all `Unchanged` requests nothing. A conntrack export is one
//! heap request, the table's copy, at either size, and replacing a fresh
//! firewall's state with it requests nothing: the table moves in.
//!
//! The same counter guards trace ingest: a replay makes one heap request
//! per read block and its batch vectors, and none per frame — a frame is a
//! slice of the block it was read in — and `TraceReader::next_frame`, which
//! the replay pulls, agrees with `next_record` on every record and every
//! error, for pcap and pcapng alike (`crates/workload/tests/hostile_input.rs`
//! checks both against the record-at-a-time reader on cut and corrupt
//! traces).
//!
//! And the cost of generating a packet: `tcp_syn`, `udp_packet`,
//! `dns_query` and `http_get` write each frame once and make one heap
//! request, its `Bytes` (the layered encoders took 4 / 4 / 11 / 18), and a
//! minute of smartphone traffic from `TrafficGenerator::generate` costs that
//! frame plus the amortised growth of the output vector.
//!
//! And the Manager's report ingest: once a station's view is warm, a
//! steady-state delta frame through `Manager::handle_agent_msg` makes no
//! heap request — the view's report is overwritten in place, not rebuilt
//! from a clone of the keyframe.
//!
//! The counting allocator has the shape of `gnf_benchmark/src/alloc.rs`,
//! except that it counts per thread: the test harness runs the tests of
//! this file on parallel threads.

use bytes::Bytes;
use gnf_agent::{Agent, AgentConfig, PacketOutcome};
use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_container::ImageRepository;
use gnf_core::{Emulator, Mobility, Scenario};
use gnf_edge::{EdgeTopology, Position, RoamTrace, TrafficGenerator, TrafficProfile};
use gnf_manager::Manager;
use gnf_nf::firewall::{Firewall, FirewallConfig};
use gnf_nf::http_filter::{HttpFilter, HttpFilterConfig, UrlPattern};
use gnf_nf::ids::IdsConfig;
use gnf_nf::nat::Nat;
use gnf_nf::rate_limiter::RateLimiterConfig;
use gnf_nf::testing::sample_specs;
use gnf_nf::{
    instantiate_chain, Direction, NetworkFunction, NfConfig, NfContext, NfSpec, NfStateDelta,
    NfStateSnapshot,
};
use gnf_packet::{builder, Packet, PacketBatch};
use gnf_sim::Rng;
use gnf_switch::{
    FlowCache, FlowKey, SoftwareSwitch, TrafficSelector, DEFAULT_FLOW_CACHE_CAPACITY,
};
use gnf_telemetry::{BatchTelemetry, DeltaEncoder, FlowCacheTelemetry, StationReport};
use gnf_types::{
    AgentId, CellId, ChainId, ClientId, GnfConfig, GnfError, HostClass, MacAddr, ResourceUsage,
    SimDuration, SimTime, StationId,
};
use gnf_workload::{
    ArrivalModel, Population, SyntheticSpec, TraceFormat, TraceReader, TraceWorkload, TraceWriter,
    TrafficMix, Workload, TRACE_BLOCK_BYTES,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Cursor, Read};
use std::net::Ipv4Addr;
use std::rc::Rc;

thread_local! {
    // `const` initialisers and no destructors: reading these from inside
    // the allocator can neither allocate nor find them torn down.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

/// Counts one heap request of `bytes` bytes.
fn record(bytes: usize) {
    if COUNTING.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
        BYTES.set(BYTES.get() + bytes as u64);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: `ptr` came from this allocator, which only ever hands out
        // `System` blocks, and the caller vouches for `layout`/`new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through one of the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its value with the heap requests (`alloc`,
/// `alloc_zeroed`, `realloc`) this thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let ((value, requests), _) = counted_bytes(f);
    (value, requests)
}

/// [`counted`] plus the bytes those requests asked for (a `realloc` counts
/// its new size).
fn counted_bytes<T>(f: impl FnOnce() -> T) -> ((T, u64), u64) {
    let (requests, bytes) = (ALLOCATIONS.get(), BYTES.get());
    COUNTING.set(true);
    let value = f();
    COUNTING.set(false);
    ((value, ALLOCATIONS.get() - requests), BYTES.get() - bytes)
}

fn client_mac() -> MacAddr {
    MacAddr::derived(1, 0)
}

fn http_get(host: &str) -> Packet {
    http_get_from(41_001, host)
}

fn http_get_from(src_port: u16, host: &str) -> Packet {
    builder::http_get(
        client_mac(),
        MacAddr::derived(0xA0, 0),
        Ipv4Addr::new(172, 16, 0, 2),
        Ipv4Addr::new(203, 0, 113, 9),
        src_port,
        host,
        "/index.html",
    )
}

/// The benchmark's `stateful_replay` chain.
fn stateful_replay_specs() -> Vec<NfSpec> {
    vec![
        NfSpec::new("firewall", NfConfig::Firewall(FirewallConfig::default())),
        NfSpec::new(
            "http-filter",
            NfConfig::HttpFilter(HttpFilterConfig::block_hosts(&["ads.example"])),
        ),
        NfSpec::new(
            "rate-limiter",
            NfConfig::RateLimiter(RateLimiterConfig::per_client(1e12, 1e12)),
        ),
        NfSpec::new(
            "nat",
            NfConfig::Nat {
                public_ip: Ipv4Addr::new(198, 51, 100, 1),
            },
        ),
        NfSpec::new("ids", NfConfig::Ids(IdsConfig::default())),
    ]
}

fn ctx() -> NfContext {
    NfContext::for_client(SimTime::from_secs(1), ClientId::new(0))
}

#[test]
fn the_counter_counts() {
    let (boxed, allocations) = counted(|| std::hint::black_box(Box::new(7u64)));
    assert_eq!((*boxed, allocations), (7, 1));
}

/// A fresh switch holds no flow table: `FlowCache::with_capacity` is a
/// bound, not a reservation. Pre-sizing 1 024 slots per switch cost a
/// 2 000-station fleet of mostly idle stations 232 MB of peak RSS, against
/// 81 MB with tables that grow on demand. The table appears at the first
/// insert.
#[test]
fn a_fresh_switch_allocates_no_flow_table_until_its_first_insert() {
    let (_, requests) = counted(|| FlowCache::with_capacity(DEFAULT_FLOW_CACHE_CAPACITY));
    assert_eq!(requests, 0);
    // Bounded to the default or to a single flow, a switch costs the same
    // bytes: neither reserves a table.
    let ((mut switch, _), fresh) = counted_bytes(SoftwareSwitch::new);
    let (_, bounded_to_one) = counted_bytes(|| SoftwareSwitch::with_flow_cache_capacity(1));
    assert_eq!(fresh, bounded_to_one);
    assert_eq!(switch.flow_cache_len(), 0);

    // The first packet misses, walks the slow path and is memoized: that
    // insert allocates the table.
    let packet = http_get("example.com");
    let port = switch.client_port();
    let mut cursor = switch
        .begin_batch(std::slice::from_ref(&packet), port, SimTime::ZERO)
        .unwrap();
    let (_, first) = counted_bytes(|| switch.classify(&mut cursor, &packet));
    assert_eq!(switch.flow_cache_len(), 1);
    assert!(
        first >= std::mem::size_of::<FlowKey>() as u64,
        "the first insert allocates the table ({first} B)"
    );
}

#[test]
fn a_built_frame_is_one_heap_request() {
    let (client, gateway) = (client_mac(), MacAddr::derived(0xA0, 0));
    let (src, dst) = (Ipv4Addr::new(172, 16, 0, 2), Ipv4Addr::new(203, 0, 113, 9));
    let heap_requests = |build: &dyn Fn() -> Packet| counted(build).1;
    let requests = [
        (
            "tcp_syn",
            heap_requests(&|| builder::tcp_syn(client, gateway, src, dst, 41_001, 80)),
        ),
        (
            "udp_packet",
            heap_requests(&|| {
                builder::udp_packet(client, gateway, src, dst, 5_004, 5_004, &[0xAB; 160])
            }),
        ),
        (
            "dns_query",
            heap_requests(&|| {
                builder::dns_query(client, gateway, src, dst, 41_002, 7, "WWW.Gla.ac.UK.")
            }),
        ),
        (
            "http_get",
            heap_requests(&|| {
                builder::http_get(
                    client,
                    gateway,
                    src,
                    dst,
                    41_003,
                    "www.gla.ac.uk",
                    "/page/7",
                )
            }),
        ),
    ];
    assert_eq!(
        requests,
        [
            ("tcp_syn", 1),
            ("udp_packet", 1),
            ("dns_query", 1),
            ("http_get", 1)
        ]
    );
}

/// Heap requests per packet of `TrafficGenerator::generate` over a 60-s
/// smartphone run, as this test measures it: 89 for 82 packets, one frame
/// each plus the output vector's doublings (the layered builders made
/// 1 380).
const SMARTPHONE_HEAP_REQUESTS_PER_PACKET: f64 = 89.0 / 82.0;

#[test]
fn a_generated_packet_costs_its_frame() {
    let mut topology = EdgeTopology::grid(1, HostClass::HomeRouter, 100.0);
    let id = topology.add_client(Position::new(1.0, 1.0), true);
    let device = topology.client(id).expect("just added").clone();
    let site = topology.sites()[0].clone();
    let minute = |seed| {
        let mut generator = TrafficGenerator::new(TrafficProfile::smartphone(), Rng::new(seed));
        counted(|| generator.generate(&device, &site, SimTime::ZERO, SimTime::from_secs(60)))
    };
    // The first browsing minute of a process also formats its page paths.
    minute(1);
    let (packets, allocations) = minute(7);
    let per_packet = allocations as f64 / packets.len() as f64;
    println!("{allocations} heap requests for {} packets", packets.len());
    assert!(
        per_packet <= SMARTPHONE_HEAP_REQUESTS_PER_PACKET + 0.05,
        "{per_packet:.3} heap requests per generated packet"
    );
}

#[test]
fn an_unblocked_get_through_the_http_filter_allocates_nothing() {
    // Every pattern kind compares in place.
    let mut config = HttpFilterConfig::block_hosts(&["ads.example", "tracker.example"]);
    config.blocked.extend([
        UrlPattern::HostExact("tracker.example".into()),
        UrlPattern::UrlContains("Example.COM/ads".into()),
        UrlPattern::PathPrefix("/admin".into()),
    ]);
    let mut filter = HttpFilter::new("http-filter", config);
    let packet = http_get("WWW.Example.com");
    let (verdict, allocations) = counted(|| filter.process(packet, Direction::Ingress, &ctx()));
    assert!(verdict.is_forward());
    assert_eq!(filter.inspected_requests(), 1, "the request was parsed");
    assert_eq!(allocations, 0);

    // A blocked request does allocate (the event, the 403 reply): the
    // counter is live on this very path.
    let packet = http_get("cdn.ads.example");
    let (verdict, allocations) = counted(|| filter.process(packet, Direction::Ingress, &ctx()));
    assert!(verdict.is_reply());
    assert!(allocations > 0);
}

#[test]
fn a_nat_translation_allocates_exactly_the_new_frame() {
    let mut nat = Nat::new("nat", Ipv4Addr::new(198, 51, 100, 1));
    // The flow's first packet also fills the translation table.
    nat.process(http_get("example.com"), Direction::Ingress, &ctx());
    // A frame the packet alone owns is patched where it lies; one a clone
    // still holds is copied once, and the clone keeps the old bytes.
    for (shared, expected) in [(false, 0), (true, 1)] {
        let packet = http_get("example.com");
        let held = shared.then(|| packet.clone());
        let (verdict, allocations) = counted(|| nat.process(packet, Direction::Ingress, &ctx()));
        let translated = verdict.into_forwarded().unwrap();
        assert_eq!(
            translated.five_tuple().unwrap().src_ip,
            Ipv4Addr::new(198, 51, 100, 1)
        );
        if let Some(held) = held {
            assert_eq!(held, http_get("example.com"));
        }
        assert_eq!(allocations, expected, "shared: {shared}");
    }
    assert_eq!(nat.translated_packets(), 3);
}

/// One Agent with the test client associated and steered through a chain
/// deployed from `specs`.
fn station(specs: Vec<NfSpec>) -> Agent {
    let (mut agent, _register) = Agent::new(
        AgentConfig {
            agent: AgentId::new(0),
            station: StationId::new(0),
            host_class: HostClass::EdgeServer,
        },
        ImageRepository::with_standard_images(),
    );
    agent.client_associated(ClientId::new(0), client_mac(), Ipv4Addr::new(172, 16, 0, 2));
    let replies = agent.handle_manager_msg(
        ManagerToAgent::DeployChain {
            chain: ChainId::new(1),
            client: ClientId::new(0),
            client_mac: client_mac(),
            specs,
            selector: TrafficSelector::all(),
            restore_state: None,
            migration: None,
        },
        SimTime::from_secs(1),
    );
    assert!(matches!(replies[0], AgentToManager::ChainDeployed { .. }));
    agent
}

#[test]
fn the_agent_entry_point_allocates_nothing_on_a_warm_chain() {
    let mut agent = station(vec![NfSpec::new(
        "http-filter",
        NfConfig::HttpFilter(HttpFilterConfig::block_hosts(&["ads.example"])),
    )]);
    let now = SimTime::from_secs(2);
    let batch = |k: u16| -> PacketBatch {
        (0..k)
            .map(|i| http_get_from(41_001 + i, "example.com"))
            .collect()
    };
    // Warm-up learns the client's MAC and fills the flow cache, whose LRU
    // use queue takes a stamp per hit until it reaches its compaction bound
    // (four stamps per entry of capacity); from there its buffer stays put.
    // Five stamps per entry of capacity are past it.
    for _ in 0..DEFAULT_FLOW_CACHE_CAPACITY {
        agent.process(Direction::Ingress, batch(5), now, &mut |_| {});
    }
    for k in [1u16, 5] {
        for _ in 0..16 {
            let batch = batch(k);
            let mut forwarded = 0;
            let ((), allocations) = counted(|| {
                agent.process(Direction::Ingress, batch, now, &mut |outcome| {
                    forwarded += u16::from(matches!(outcome, PacketOutcome::Forwarded(_)));
                })
            });
            assert_eq!(forwarded, k);
            assert_eq!(allocations, 0, "a batch of {k}");
        }
    }
}

#[test]
fn draining_five_idle_nfs_allocates_nothing() {
    let mut agent = station(stateful_replay_specs());
    assert_eq!(agent.running_nfs(), 5);
    let now = SimTime::from_secs(1);

    // Traffic that raises no event leaves all five NFs idle.
    agent.process(
        Direction::Ingress,
        PacketBatch::from(http_get("example.com")),
        now,
        &mut |_| {},
    );
    let (notifications, allocations) = counted(|| agent.drain_nf_notifications(now));
    assert!(notifications.is_empty());
    assert_eq!(allocations, 0);

    // A blocked URL raises one: the drain is live, and names its NF.
    agent.process(
        Direction::Ingress,
        PacketBatch::from(http_get("ads.example")),
        now,
        &mut |_| {},
    );
    let notifications = agent.drain_nf_notifications(now);
    assert!(matches!(
        &notifications[..],
        [AgentToManager::NfNotification { nf_name, .. }] if nf_name == "http-filter"
    ));
}

#[test]
fn a_batch_through_the_chain_allocates_what_its_packets_do_plus_the_verdict_vector() {
    // One packet, and five packets of five different flows — the shape of
    // the replays' batches (4.6-4.7 mixed-flow packets per timestamp).
    for k in [1u16, 5] {
        // Fresh frames each time: a packet that owns its frame alone is
        // NAT-ed in place.
        let flows = || -> Vec<Packet> {
            (0..k)
                .map(|i| http_get_from(41_001 + i, "example.com"))
                .collect()
        };
        // Every flow's first packet fills conntrack, the limiter's bucket
        // and the translation table.
        let warmed = || {
            let mut chain = instantiate_chain("probe", &stateful_replay_specs());
            for packet in flows() {
                chain.process(packet, Direction::Ingress, &ctx());
            }
            chain
        };

        let mut scalar = warmed();
        let mut scalar_allocations = 0;
        for packet in flows() {
            let (verdict, allocations) =
                counted(|| scalar.process(packet, Direction::Ingress, &ctx()));
            assert!(verdict.is_forward());
            scalar_allocations += allocations;
        }
        assert_eq!(scalar_allocations, 0, "a packet through the chain");

        let mut batched = warmed();
        let batch = PacketBatch::from(flows());
        let (verdicts, allocations) =
            counted(|| batched.process_batch(batch, Direction::Ingress, &ctx()));
        assert_eq!(verdicts.len(), usize::from(k));
        assert!(verdicts.iter().all(|verdict| verdict.is_forward()));
        // At most the verdict vector on top (the standard library may
        // collect it into the batch's own buffer).
        assert!(
            (scalar_allocations..=scalar_allocations + 1).contains(&allocations),
            "k = {k}: {allocations} allocations for a batch whose packets \
             take {scalar_allocations} one at a time"
        );
    }
}

/// A conntrack table of `flows` established connections, and the same
/// table ten entries later: five flows refreshed, two pruned, three new.
/// A steady-state report of station 1 at `interval`: two clients, one of
/// them swapped every other interval, and every counter moving.
fn station_report(interval: u64) -> StationReport {
    let n = interval;
    StationReport {
        station: StationId::new(1),
        agent: AgentId::new(1),
        produced_at: SimTime::from_secs(2 * n),
        host_class: HostClass::EdgeServer,
        capacity: HostClass::EdgeServer.capacity(),
        usage: ResourceUsage {
            cpu_fraction: 0.2 + 0.01 * n as f64,
            memory_mb: 800 + n,
            disk_mb: 2_000,
            rx_bps: 5e6,
            tx_bps: 1e6,
        },
        connected_clients: vec![ClientId::new(10), ClientId::new(11 + n % 2)],
        running_nfs: 2,
        cached_images: 1,
        flow_cache: FlowCacheTelemetry {
            entries: 100 + n as usize,
            ..Default::default()
        },
        megaflow: Default::default(),
        batches: BatchTelemetry {
            batches: n,
            packets: 3 * n,
            ..Default::default()
        },
        chaos: Default::default(),
    }
}

#[test]
fn a_warm_delta_ingest_allocates_nothing() {
    let station = StationId::new(1);
    let mut manager = Manager::new(GnfConfig::default());
    manager.handle_agent_msg(
        station,
        AgentToManager::Register {
            agent: AgentId::new(1),
            station,
            host_class: HostClass::EdgeServer,
            capacity: HostClass::EdgeServer.capacity(),
        },
        SimTime::ZERO,
    );
    let mut encoder = DeltaEncoder::new(16);
    let frames: Vec<AgentToManager> = (0..16)
        .map(|n| AgentToManager::ReportDelta(Box::new(encoder.encode(&station_report(n)))))
        .collect();
    let mut frames = frames.into_iter();
    let keyframe = frames.next().unwrap();
    manager.handle_agent_msg(station, keyframe, SimTime::ZERO);
    let requests: Vec<u64> = frames
        .enumerate()
        .map(|(n, frame)| {
            let AgentToManager::ReportDelta(delta) = &frame else {
                unreachable!()
            };
            assert!(!delta.is_keyframe() && delta.sections_carried() > 0);
            let at = SimTime::from_secs(2 * (n as u64 + 1));
            counted(|| manager.handle_agent_msg(station, frame, at)).1
        })
        .collect();
    assert_eq!(requests, [0; 15], "heap requests per steady-state frame");
    let stats = manager.control_plane_stats();
    assert_eq!((stats.delta_keyframes, stats.deltas_applied), (1, 15));
    let view = manager.monitoring().station(station).unwrap();
    assert_eq!(view.last_report.as_ref(), Some(&station_report(15)));
}

fn conntrack_before_and_after(flows: u16) -> (NfStateSnapshot, NfStateSnapshot) {
    let tuple = |i: u16| {
        http_get_from(10_000 + i, "example.com")
            .five_tuple()
            .expect("a TCP frame")
    };
    let base: Vec<_> = (0..flows)
        .map(|i| (tuple(i), SimTime::from_nanos(1_000 + u64::from(i))))
        .collect();
    let mut current = base.clone();
    for (at, entry) in current
        .iter_mut()
        .step_by(usize::from(flows) / 5)
        .enumerate()
    {
        entry.1 = SimTime::from_nanos(1_000_000 + at as u64);
    }
    current.remove(usize::from(flows) / 2);
    current.remove(usize::from(flows) / 3);
    current.extend((0..3).map(|i| {
        (
            tuple(flows + i),
            SimTime::from_nanos(2_000_000 + u64::from(i)),
        )
    }));
    let snapshot = |established: Vec<_>| NfStateSnapshot::Firewall {
        established: established.into_iter().collect(),
    };
    (snapshot(base), snapshot(current))
}

#[test]
fn a_conntrack_export_is_one_copy_and_an_import_into_a_fresh_firewall_a_move() {
    // The source's export: one heap request, the table's copy, at 500 and
    // at 4 000 entries alike.
    let exported = |flows: u16| {
        let (table, _) = conntrack_before_and_after(flows);
        let mut source = Firewall::new("fw", FirewallConfig::default());
        source.replace_state(table.clone());
        let (export, allocations) = counted(|| source.export_state());
        assert_eq!(export, table);
        allocations
    };
    assert_eq!((exported(500), exported(4_000)), (1, 1));

    // The target's import: the table moves into the fresh firewall.
    let (table, _) = conntrack_before_and_after(4_000);
    let mut target = Firewall::new("fw", FirewallConfig::default());
    let shipped = table.clone();
    let ((), allocations) = counted(|| target.replace_state(shipped));
    assert_eq!(allocations, 0);
    assert_eq!(target.export_state(), table);
}

#[test]
fn a_switchover_allocates_for_what_changed_not_for_the_table() {
    // Source side `diff`, target side `apply_state_deltas`, on a table of
    // `flows` entries of which ten changed: the heap requests they make.
    let switchover = |flows: u16| {
        let (base, current) = conntrack_before_and_after(flows);
        let mut target = instantiate_chain("target", &stateful_replay_specs());
        target.replace_state(vec![base.clone()]);
        let ((), allocations) = counted(|| {
            let mut deltas = vec![NfStateDelta::Unchanged; 5];
            deltas[0] = NfStateDelta::diff(&base, &current);
            target.apply_state_deltas(&deltas).expect("one per NF");
        });
        assert_eq!(target.export_state()[0], current);
        allocations
    };
    assert_eq!(switchover(500), switchover(4_000));

    // And where nothing changed, nothing is requested at all.
    let mut idle = instantiate_chain("idle", &stateful_replay_specs());
    let unchanged = vec![NfStateDelta::Unchanged; 5];
    let (applied, allocations) = counted(|| idle.apply_state_deltas(&unchanged));
    assert_eq!((applied, allocations), (Ok(()), 0));
}

/// `frames` captured one per millisecond (so each replays as a batch of
/// one) in the given format.
fn capture(format: TraceFormat, frames: &[Packet]) -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new(), format).unwrap();
    for (i, frame) in frames.iter().enumerate() {
        writer
            .write_record(SimTime::from_millis(i as u64), frame.bytes().as_ref())
            .unwrap();
    }
    writer.into_inner().unwrap()
}

fn replay(trace: &[u8]) -> TraceWorkload<&[u8]> {
    TraceWorkload::new(
        "replay",
        trace,
        StationId::new(0),
        [(MacAddr::derived(0xA0, 0), StationId::new(0))].into(),
        [(client_mac(), ClientId::new(0))].into(),
    )
    .unwrap()
}

/// A trace source that counts the reads that returned bytes: with a source
/// that fills each read, one per block the reader makes.
struct CountedReads<'a> {
    trace: &'a [u8],
    reads: Rc<Cell<u64>>,
}

impl Read for CountedReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = self.trace.read(buf)?;
        self.reads.set(self.reads.get() + u64::from(read > 0));
        Ok(read)
    }
}

#[test]
fn a_replayed_frame_makes_no_heap_request_of_its_own() {
    // Enough frames for several read blocks.
    const FRAMES: u16 = 6_000;
    let frames: Vec<Packet> = (0..FRAMES)
        .map(|i| http_get_from(41_001 + i, "example.com"))
        .collect();
    for format in [TraceFormat::Pcap, TraceFormat::PcapNg] {
        let trace = capture(format, &frames);
        let reads = Rc::new(Cell::new(0));
        let source = CountedReads {
            trace: &trace,
            reads: Rc::clone(&reads),
        };
        let mut workload = TraceWorkload::new(
            "replay",
            source,
            StationId::new(0),
            [(MacAddr::derived(0xA0, 0), StationId::new(0))].into(),
            [(client_mac(), ClientId::new(0))].into(),
        )
        .unwrap();
        // The first pull also reads the capture's preamble (pcapng: its
        // interface table).
        assert_eq!(workload.next_batch().map(|batch| batch.len()), Some(1));
        let mut blocks = 0;
        for pull in 2..=FRAMES {
            let before = reads.get();
            let (batch, allocations) = counted(|| workload.next_batch());
            assert_eq!(batch.map(|batch| batch.len()), Some(1));
            // Every pull reads one frame ahead to find the batch boundary,
            // from the current block or from a new one.
            let read = reads.get() - before;
            blocks += read;
            assert_eq!(
                allocations,
                read + 1,
                "{format:?}, pull {pull}: the blocks read plus the batch vector"
            );
        }
        assert!(workload.next_batch().is_none());
        assert!(workload.read_error().is_none());
        let whole_blocks = (trace.len() / TRACE_BLOCK_BYTES) as u64;
        assert!(
            (whole_blocks.max(2)..=whole_blocks + 1).contains(&blocks),
            "{format:?}: {blocks} blocks after the first for {} bytes",
            trace.len()
        );
    }
}

#[test]
fn a_nat_translation_of_a_replayed_frame_is_one_copy() {
    let mut nat = Nat::new("nat", Ipv4Addr::new(198, 51, 100, 1));
    // The flow's first packet also fills the translation table.
    nat.process(http_get("example.com"), Direction::Ingress, &ctx());
    for format in [TraceFormat::Pcap, TraceFormat::PcapNg] {
        let frames = [http_get("example.com"), http_get("example.com")];
        let trace = capture(format, &frames);
        let mut workload = replay(&trace);
        let (_, packet) = workload.next_batch().unwrap().packets.remove(0);
        // The frame is a slice of the block its neighbour (the read-ahead)
        // shares: it is copied once, and the block is left as it was read.
        let (verdict, allocations) = counted(|| nat.process(packet, Direction::Ingress, &ctx()));
        let translated = verdict.into_forwarded().unwrap();
        assert_eq!(
            translated.five_tuple().unwrap().src_ip,
            Ipv4Addr::new(198, 51, 100, 1)
        );
        assert_eq!(allocations, 1, "{format:?}");
        let (_, neighbour) = workload.next_batch().unwrap().packets.remove(0);
        assert_eq!(neighbour, frames[1], "{format:?}");
    }
}

#[test]
fn a_patch_copies_only_a_view_that_shares_or_narrows_its_buffer() {
    let frame = http_get("example.com").bytes().to_vec();
    // The sole owner of a whole buffer patches it where it lies.
    let mut whole = Bytes::from(frame.clone());
    let at = whole.as_ptr();
    let ((), allocations) = counted(|| whole.patch(|bytes| bytes[0] ^= 0xff));
    assert_eq!((allocations, whole.as_ptr()), (0, at));
    // A slice of a block copies its own range and nothing more: one
    // request of its length plus the two reference counts.
    let block = Bytes::from(frame.clone());
    let mut slice = block.slice(14..34);
    let (((), allocations), bytes) = counted_bytes(|| slice.patch(|bytes| bytes[0] ^= 0xff));
    let with_counts = (2 * size_of::<usize>() + 20).next_multiple_of(align_of::<usize>());
    assert_eq!((allocations, bytes), (1, with_counts as u64));
    assert_eq!((slice[0], block[14]), (frame[14] ^ 0xff, frame[14]));
}

/// Drains a reader through `next`, returning the records read and the error
/// that ended the stream, if any.
fn drain<T>(mut next: impl FnMut() -> Result<Option<T>, GnfError>) -> (Vec<T>, Option<GnfError>) {
    let mut records = Vec::new();
    loop {
        match next() {
            Ok(Some(record)) => records.push(record),
            Ok(None) => return (records, None),
            Err(error) => return (records, Some(error)),
        }
    }
}

#[test]
fn next_frame_and_next_record_agree_on_records_and_errors_in_both_formats() {
    let frames: Vec<Packet> = (0..4u16)
        .map(|i| {
            http_get_from(
                41_001 + i,
                ["a.example", "longer.example"][usize::from(i % 2)],
            )
        })
        .collect();
    let pcap = capture(TraceFormat::Pcap, &frames);
    let pcapng = capture(TraceFormat::PcapNg, &frames);

    // A record header claiming a body above the snaplen.
    let mut over_snaplen = capture(TraceFormat::Pcap, &frames[..1]);
    over_snaplen.extend_from_slice(&[0u8; 8]);
    over_snaplen.extend_from_slice(&70_000u32.to_le_bytes());
    over_snaplen.extend_from_slice(&70_000u32.to_le_bytes());

    let traces: [(&str, &[u8], usize, bool); 6] = [
        ("pcap", &pcap, 4, false),
        ("pcapng", &pcapng, 4, false),
        (
            "pcap cut inside the last body",
            &pcap[..pcap.len() - 5],
            3,
            true,
        ),
        (
            "pcap cut at the last body",
            &pcap[..pcap.len() - frames[3].len()],
            3,
            true,
        ),
        (
            "pcapng cut inside the last block",
            &pcapng[..pcapng.len() - 9],
            3,
            true,
        ),
        ("pcap record above the snaplen", &over_snaplen, 1, true),
    ];
    for (name, trace, intact, fails) in traces {
        let mut reader = TraceReader::new(trace).unwrap();
        let (records, record_error) = drain(|| reader.next_record());
        let mut reader = TraceReader::new(trace).unwrap();
        let (read_frames, frame_error) = drain(|| reader.next_frame());

        assert_eq!(records.len(), intact, "{name}");
        assert_eq!(reader.records_read(), intact as u64, "{name}");
        assert_eq!(record_error.is_some(), fails, "{name}");
        assert_eq!(frame_error, record_error, "{name}: the same typed error");
        assert_eq!(read_frames.len(), records.len(), "{name}");
        for (i, (record, (at, frame))) in records.iter().zip(&read_frames).enumerate() {
            assert_eq!((record.at, &record.frame[..]), (*at, &frame[..]), "{name}");
            assert_eq!(*at, SimTime::from_millis(i as u64), "{name}");
            assert_eq!(frame, frames[i].bytes(), "{name}");
        }

        // The replay delivers exactly the intact records and keeps the
        // reader's error.
        let mut workload = replay(trace);
        let mut replayed = Vec::new();
        while let Some(batch) = workload.next_batch() {
            replayed.extend(
                batch
                    .packets
                    .into_iter()
                    .map(|(_, packet)| (batch.at, packet)),
            );
        }
        assert_eq!(workload.read_error(), record_error.as_ref(), "{name}");
        assert_eq!(workload.malformed_frames(), 0, "{name}");
        assert_eq!(replayed.len(), intact, "{name}");
        for ((at, packet), record) in replayed.iter().zip(&records) {
            assert_eq!(
                (*at, &packet.bytes()[..]),
                (record.at, &record.frame[..]),
                "{name}"
            );
        }
    }
}

#[test]
fn a_malformed_frame_is_counted_and_skipped_not_fatal() {
    let good = http_get("example.com");
    for format in [TraceFormat::Pcap, TraceFormat::PcapNg] {
        let mut writer = TraceWriter::new(Vec::new(), format).unwrap();
        writer
            .write_record(SimTime::from_millis(1), good.bytes().as_ref())
            .unwrap();
        // Too short for an Ethernet header.
        writer
            .write_record(SimTime::from_millis(2), &[0xde, 0xad, 0xbe, 0xef])
            .unwrap();
        writer
            .write_record(SimTime::from_millis(3), good.bytes().as_ref())
            .unwrap();
        let trace = writer.into_inner().unwrap();
        let mut workload = replay(&trace);
        let mut delivered = 0;
        while let Some(batch) = workload.next_batch() {
            delivered += batch.len();
        }
        assert_eq!(
            (delivered, workload.malformed_frames()),
            (2, 1),
            "{format:?}"
        );
        assert!(workload.read_error().is_none(), "{format:?}");
    }
}

/// `Emulator::run`, which runs on this thread alone, so this thread's
/// count is the whole run's: heap requests per generated packet.
fn run_allocations_per_packet(mut emulator: Emulator) -> f64 {
    let (report, allocations) = counted(|| emulator.run());
    assert!(report.packets.is_conserved(), "{:?}", report.packets);
    assert!(report.packets.generated > 0);
    allocations as f64 / report.packets.generated as f64
}

/// `fleet_steady` at its `--quick` size: 200 stations with one smartphone
/// client each behind the demo firewall for 20 s, delta reports on.
/// Packets arrive in batches of one.
fn fleet() -> Emulator {
    let config = GnfConfig::default().with_seed(7).with_delta_reports(true);
    let mut builder = Scenario::builder(200, HostClass::EdgeServer).with_config(config);
    let clients = builder.add_clients(200, TrafficProfile::smartphone());
    let mut builder = builder.with_duration(SimDuration::from_secs(20));
    for client in clients {
        builder = builder.attach_policy(
            client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    Emulator::new(builder.build())
}

/// The replays' shape: 16 idle clients on 4 stations behind the
/// `stateful_replay` chain (NAT included), fed a 4 000-packet web-mix
/// capture through pcap ingest once every chain is up. Its flows arrive at
/// the full-size replays' rate, so some batches hold several packets.
fn replay_of_sixteen_clients() -> Emulator {
    let mut builder =
        Scenario::builder(4, HostClass::EdgeServer).with_config(GnfConfig::default().with_seed(7));
    let clients = builder.add_clients(16, TrafficProfile::Idle);
    let mut builder = builder.with_duration(SimDuration::from_secs(60));
    for client in clients {
        builder = builder.attach_policy(
            client,
            stateful_replay_specs(),
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    let scenario = builder.build();
    let population = Population::from_topology(&scenario.topology);
    let (stations, clients) = (
        population.stations_by_gateway(),
        population.clients_by_mac(),
    );
    let mut source = SyntheticSpec::new("replay", 7)
        .starting_at(SimTime::from_secs(10))
        .with_packet_budget(4_000)
        .with_mix(TrafficMix::web())
        .with_arrivals(ArrivalModel::Poisson {
            flows_per_sec: 500.0,
        })
        .build(population);
    let mut writer = TraceWriter::pcap(Vec::new()).unwrap();
    while let Some(batch) = source.next_batch() {
        for (_, packet) in &batch.packets {
            writer
                .write_record(batch.at, packet.bytes().as_ref())
                .unwrap();
        }
    }
    let trace = Cursor::new(writer.into_inner().unwrap());
    let mut emulator = Emulator::new(scenario);
    emulator.add_workload(Box::new(
        TraceWorkload::new("replay", trace, StationId::new(0), stations, clients).unwrap(),
    ));
    emulator
}

/// One `roam_storm` wave: 16 DNS-heavy clients on 16 stations, pre-copy
/// on, every client moving one cell over at 12 s.
fn one_roam_wave() -> Emulator {
    let config = GnfConfig::default()
        .with_seed(7)
        .with_migration_precopy(true);
    let mut builder = Scenario::builder(16, HostClass::EdgeServer).with_config(config);
    let clients = builder.add_clients(
        16,
        TrafficProfile::DnsHeavy {
            mean_interval: SimDuration::from_millis(25),
        },
    );
    let mut trace = RoamTrace::new();
    for (ix, client) in clients.iter().enumerate() {
        trace = trace.roam(
            SimTime::from_secs(12),
            *client,
            CellId::new((ix as u64 + 1) % 16),
        );
    }
    let mut builder = builder
        .with_duration(SimDuration::from_secs(26))
        .with_mobility(Mobility::Trace(trace));
    for client in clients {
        builder = builder.attach_policy(
            client,
            vec![sample_specs()[0].clone()],
            TrafficSelector::all(),
            SimTime::from_secs(1),
        );
    }
    Emulator::new(builder.build())
}

/// Heap requests per generated packet of one `Emulator::run`, as this test
/// measures them (seed 7, debug build). Before the Agent handed each outcome
/// to a caller's sink it built one outcome vector per batch; the same runs
/// then read 33 865 / 5 017 = 6.750 (fleet), 21 073 / 4 000 = 5.268
/// (replay, 3 485 batches) and 39 375 / 16 660 = 2.363 (roam wave): one
/// request per batch more, ≈ 1 per packet where batches hold one packet.
/// Before the NAT patched a frame it alone owns in place, the replay read
/// 17 588 / 4 000 = 4.397: one frame copy per packet more. Before station
/// jobs lived in the slot table (a `BTreeMap` of fresh job vectors per
/// flush; the slots now hand their drained buffers back) and report timers
/// rode their own queue lane, the three read 29 051 / 5 017 = 5.790,
/// 13 588 / 4 000 = 3.397 and 23 310 / 16 660 = 1.399. Before an Agent
/// deployed an NF from the catalogue's own image instead of a clone of it
/// (a name, a layer list and its digests: 4 requests per NF), they read
/// 26 673 / 5 017 = 5.317, 13 500 / 4 000 = 3.375 and
/// 21 458 / 16 660 = 1.288. Before a conntrack table travelled as a copy of
/// the table (a sorted list built per export, the target's table grown
/// insert by insert), the roam wave read 21 343 / 16 660 = 1.281. Before
/// a flush ran its station jobs in place (it collected a work list and an
/// outcome list per flush with jobs) and a chain's ready time lived on the
/// chain, the three read 25 988 / 5 017 = 5.180, 13 182 / 4 000 = 3.296
/// and 21 256 / 16 660 = 1.276. Before a packet event was gap-filtered as
/// it popped and a migration command handled as it arrived (a pending list
/// per run, a reply list per flush with commands), they read
/// 23 034 / 5 017 = 4.591, 13 135 / 4 000 = 3.284 and
/// 20 690 / 16 660 = 1.242. Before a station's small tables (MAC table,
/// flood sets, steering rules, chain table, megaflow masks, the firewall's
/// port index, the Manager's chains per client) lived inline in their
/// owners, each a table allocated on its first insert, they read
/// 23 026 / 5 017 = 4.590, 13 124 / 4 000 = 3.281 and
/// 20 526 / 16 660 = 1.232; then, before a batch of one held its packet
/// inline (one vector per admitted batch), 21 226 / 5 017 = 4.231,
/// 13 052 / 4 000 = 3.263 and 20 334 / 16 660 = 1.221. Before a replayed
/// frame was a slice of its read block, the replay read 10 026 / 4 000 =
/// 2.506: one copy per frame at ingest, where there is now one per frame
/// the NAT translates (it copies its frame out of the shared block) plus
/// one per read block and the reader's staging buffer.
const FLEET_HEAP_REQUESTS_PER_PACKET: f64 = 16_149.0 / 5_017.0;
const REPLAY_HEAP_REQUESTS_PER_PACKET: f64 = 10_029.0 / 4_000.0;
const ROAM_WAVE_HEAP_REQUESTS_PER_PACKET: f64 = 3_674.0 / 16_660.0;

#[test]
fn a_run_allocates_per_packet_within_its_ceiling() {
    for (name, emulator, measured) in [
        ("fleet", fleet(), FLEET_HEAP_REQUESTS_PER_PACKET),
        (
            "replay",
            replay_of_sixteen_clients(),
            REPLAY_HEAP_REQUESTS_PER_PACKET,
        ),
        (
            "roam wave",
            one_roam_wave(),
            ROAM_WAVE_HEAP_REQUESTS_PER_PACKET,
        ),
    ] {
        let per_packet = run_allocations_per_packet(emulator);
        println!("{name}: {per_packet:.3} heap requests per generated packet");
        assert!(
            per_packet <= measured + 0.05,
            "{name}: {per_packet:.3} heap requests per generated packet, ceiling {measured:.3} + 0.05"
        );
    }
}
