//! Allocation guard for the NF hot path: the three per-packet costs PR 17
//! removed are asserted as exact heap-request counts, so they cannot creep
//! back unnoticed (`nf.chain_allocs_per_pkt` on `stateful_replay` went
//! 22 → 6 with them).
//!
//! * an unblocked GET through the HTTP filter allocates nothing — the
//!   request is read through a view borrowing the frame;
//! * a NAT translation of an established flow allocates exactly once — the
//!   rewritten frame;
//! * draining notifications from five idle NFs allocates nothing — an NF
//!   is named only when it has events;
//! * a batch through the five-NF chain allocates what its packets do one at
//!   a time plus at most the verdict vector — `NfChain::process_batch` is
//!   the per-packet loop, with no per-stage bookkeeping of its own (the
//!   stage-at-a-time batch path it replaced took 9 allocations for one
//!   packet).
//!
//! The counting allocator has the shape of `gnf_benchmark/src/alloc.rs`,
//! except that it counts per thread: the test harness runs the tests of
//! this file on parallel threads.

use gnf_agent::{Agent, AgentConfig};
use gnf_api::messages::{AgentToManager, ManagerToAgent};
use gnf_container::ImageRepository;
use gnf_nf::firewall::FirewallConfig;
use gnf_nf::http_filter::{HttpFilter, HttpFilterConfig};
use gnf_nf::ids::IdsConfig;
use gnf_nf::nat::Nat;
use gnf_nf::rate_limiter::RateLimiterConfig;
use gnf_nf::{instantiate_chain, Direction, NetworkFunction, NfConfig, NfContext, NfSpec};
use gnf_packet::{builder, Packet, PacketBatch};
use gnf_switch::TrafficSelector;
use gnf_types::{AgentId, ChainId, ClientId, HostClass, MacAddr, SimTime, StationId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    // `const` initialisers and no destructors: reading these from inside
    // the allocator can neither allocate nor find them torn down.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn record() {
    if COUNTING.get() {
        ALLOCATIONS.set(ALLOCATIONS.get() + 1);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
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
    let before = ALLOCATIONS.get();
    COUNTING.set(true);
    let value = f();
    COUNTING.set(false);
    (value, ALLOCATIONS.get() - before)
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

#[test]
fn an_unblocked_get_through_the_http_filter_allocates_nothing() {
    let mut filter = HttpFilter::new(
        "http-filter",
        HttpFilterConfig::block_hosts(&["ads.example", "tracker.example"]),
    );
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
    let packet = http_get("example.com");
    let (verdict, allocations) = counted(|| nat.process(packet, Direction::Ingress, &ctx()));
    let translated = verdict.into_forwarded().unwrap();
    assert_eq!(
        translated.five_tuple().unwrap().src_ip,
        Ipv4Addr::new(198, 51, 100, 1)
    );
    assert_eq!(nat.translated_packets(), 2);
    assert_eq!(allocations, 1);
}

#[test]
fn draining_five_idle_nfs_allocates_nothing() {
    let (mut agent, _register) = Agent::new(
        AgentConfig {
            agent: AgentId::new(0),
            station: StationId::new(0),
            host_class: HostClass::EdgeServer,
        },
        ImageRepository::with_standard_images(),
    );
    agent.client_associated(ClientId::new(0), client_mac(), Ipv4Addr::new(172, 16, 0, 2));
    let now = SimTime::from_secs(1);
    let replies = agent.handle_manager_msg(
        ManagerToAgent::DeployChain {
            chain: ChainId::new(1),
            client: ClientId::new(0),
            client_mac: client_mac(),
            specs: stateful_replay_specs(),
            selector: TrafficSelector::all(),
            restore_state: None,
            migration: None,
        },
        now,
    );
    assert!(matches!(replies[0], AgentToManager::ChainDeployed { .. }));
    assert_eq!(agent.running_nfs(), 5);

    // Traffic that raises no event leaves all five NFs idle.
    agent.process_upstream_packet(http_get("example.com"), now);
    let (notifications, allocations) = counted(|| agent.drain_nf_notifications(now));
    assert!(notifications.is_empty());
    assert_eq!(allocations, 0);

    // A blocked URL raises one: the drain is live, and names its NF.
    agent.process_upstream_packet(http_get("ads.example"), now);
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
        let flows: Vec<Packet> = (0..k)
            .map(|i| http_get_from(41_001 + i, "example.com"))
            .collect();
        // Every flow's first packet fills conntrack, the limiter's bucket
        // and the translation table.
        let warmed = || {
            let mut chain = instantiate_chain("probe", &stateful_replay_specs());
            for packet in &flows {
                chain.process(packet.clone(), Direction::Ingress, &ctx());
            }
            chain
        };

        let mut scalar = warmed();
        let mut scalar_allocations = 0;
        for packet in flows.clone() {
            let (verdict, allocations) =
                counted(|| scalar.process(packet, Direction::Ingress, &ctx()));
            assert!(verdict.is_forward());
            scalar_allocations += allocations;
        }
        assert_eq!(
            scalar_allocations,
            u64::from(k),
            "the NAT's new frame per packet"
        );

        let mut batched = warmed();
        let batch = PacketBatch::from(flows.clone());
        let (verdicts, allocations) =
            counted(|| batched.process_batch(batch, Direction::Ingress, &ctx()));
        assert_eq!(verdicts.len(), flows.len());
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
