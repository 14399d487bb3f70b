//! Footprint guard for a fleet station: what one station keeps on the heap
//! once a run is over, counted as live heap blocks.
//!
//! A fleet of small stations is memory-bound, not work-bound: the per-event
//! cost of `fleet_steady` is cold lookups of per-station state. So the state
//! a station keeps is guarded as a count:
//!
//! * cloning the image catalogue (once per Agent, in `Emulator::new`) makes
//!   no heap request — every Agent shares one catalogue;
//! * after a whole run, a 200-station `fleet_steady`-shaped emulator holds
//!   at most [`LIVE_BLOCKS_PER_STATION`] + 2 live heap blocks per station.
//!
//! The counting allocator has the shape of the one in `nf_hot_path_allocs.rs`
//! but also subtracts deallocations, so it reads what is still held, not
//! what was ever requested. It counts per thread (the test harness runs
//! tests on parallel threads) and the emulator runs on its caller's thread,
//! so every block it holds was allocated on the measuring thread.

use gnf_container::ImageRepository;
use gnf_core::{Emulator, Scenario};
use gnf_edge::TrafficProfile;
use gnf_nf::testing::sample_specs;
use gnf_switch::TrafficSelector;
use gnf_types::{GnfConfig, HostClass, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` initialisers and no destructors: reading these from inside
    // the allocator can neither allocate nor find them torn down.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct CountingAllocator;

/// Counts one heap request that leaves `blocks` more blocks and `bytes` more
/// bytes live (a `realloc` moves a block: one request, no new block).
fn record(blocks: i64, bytes: i64) {
    if COUNTING.get() {
        REQUESTS.set(REQUESTS.get() + 1);
        LIVE_BLOCKS.set(LIVE_BLOCKS.get() + blocks);
        LIVE_BYTES.set(LIVE_BYTES.get() + bytes);
    }
}

/// Counts one block given back.
fn release(bytes: usize) {
    if COUNTING.get() {
        LIVE_BLOCKS.set(LIVE_BLOCKS.get() - 1);
        LIVE_BYTES.set(LIVE_BYTES.get() - bytes as i64);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(0, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, which only ever hands out
        // `System` blocks, and the caller vouches for `layout`/`new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size());
        // SAFETY: `ptr` came from `System` through one of the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// What `f` left behind on this thread's heap.
#[derive(Debug, Clone, Copy)]
struct Counted {
    /// Heap requests (`alloc`, `alloc_zeroed`, `realloc`) made meanwhile.
    requests: u64,
    /// Blocks allocated and not freed, net of blocks freed.
    live_blocks: i64,
    /// Bytes likewise.
    live_bytes: i64,
}

/// Runs `f` and returns its value with what it left on this thread's heap.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counted) {
    let (requests, blocks, bytes) = (REQUESTS.get(), LIVE_BLOCKS.get(), LIVE_BYTES.get());
    COUNTING.set(true);
    let value = f();
    COUNTING.set(false);
    let counted = Counted {
        requests: REQUESTS.get() - requests,
        live_blocks: LIVE_BLOCKS.get() - blocks,
        live_bytes: LIVE_BYTES.get() - bytes,
    };
    (value, counted)
}

const STATIONS: usize = 200;

/// `fleet_steady` at its `--quick` size: 200 stations with one smartphone
/// client each behind the demo firewall for 20 s, delta reports on, seed 7.
fn fleet() -> Emulator {
    let config = GnfConfig::default().with_seed(7).with_delta_reports(true);
    let mut builder = Scenario::builder(STATIONS, HostClass::EdgeServer).with_config(config);
    let clients = builder.add_clients(STATIONS, TrafficProfile::smartphone());
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

#[test]
fn cloning_the_image_catalogue_makes_no_heap_request() {
    let repository = ImageRepository::with_standard_images();
    let (clone, counted) = counted(|| repository.clone());
    assert_eq!(counted.requests, 0, "{counted:?}");
    assert_eq!(clone.images(), repository.images());
}

/// Live heap blocks per station after a whole 200-station run, as this test
/// measures them (seed 7, debug build): everything the emulator holds — its
/// scenario, Manager, queue and every Agent — over the station count. It
/// reads 12 605 / 200 = 63.0 blocks (17.5 KB) per station. Before a chain's
/// ready time lived on the chain (each station with a chain kept a list of
/// them in its emulator slot), it read 12 805 / 200 = 64.0 blocks
/// (17.5 KB). Before the Manager
/// kept one view per station (no registration map, no utilisation ring, a
/// delta report overwritten in place), it read 13 039 / 200 = 65.2 blocks
/// (17.9 KB); before every Agent shared one image catalogue (37 blocks,
/// 1 544 B a copy) and the Manager kept its per-station tables in hashed
/// maps, 20 298 / 200 = 101.5 blocks (19.9 KB).
const LIVE_BLOCKS_PER_STATION: f64 = 12_605.0 / 200.0;

#[test]
fn a_fleet_station_holds_few_heap_blocks_after_a_run() {
    let (emulator, counted) = counted(|| {
        let mut emulator = fleet();
        let report = emulator.run();
        assert!(report.packets.generated > 0);
        emulator
    });
    let per_station = counted.live_blocks as f64 / STATIONS as f64;
    println!(
        "{} live blocks, {} live bytes: {per_station:.1} blocks and {:.0} B per station",
        counted.live_blocks,
        counted.live_bytes,
        counted.live_bytes as f64 / STATIONS as f64,
    );
    assert!(
        per_station <= LIVE_BLOCKS_PER_STATION + 2.0,
        "{per_station:.1} live heap blocks per station, ceiling {LIVE_BLOCKS_PER_STATION:.1} + 2"
    );
    drop(emulator);
}
