//! Steady-state allocation discipline for the engine hot loop, pinned by a
//! counting global allocator.
//!
//! The engine's per-BP work — intent scan, contention window, batched
//! receiver draws, protocol callbacks, SoA refresh, metrics — must not
//! touch the heap: every buffer it needs is either preallocated at build
//! time or lives in run-scoped scratch. The one sanctioned growth point is
//! the spread-series `Vec`, which doubles O(log BPs) times per run.
//!
//! The pin compares two runs of the same scenario that differ only in
//! duration: the allocation-count delta divided by the extra BPs bounds
//! the amortized per-BP allocation rate. A regression that puts even one
//! `Vec`/`Box`/`String` back on the per-BP path shows up as ~100 extra
//! counts and fails loudly.
//!
//! Set-up is pinned the same way: the build-allocation delta between two
//! network sizes bounds the allocations per station, one for an SSTSP
//! station (its `Box`; its receive queues and µTESLA buffer are inline).
//!
//! This file must stay a single-`#[test]` binary: the counter is global to
//! the process, so a concurrently running test would pollute the delta.

use sstsp::{Network, ProtocolKind, ScenarioConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// [`System`] with an allocation-event counter (dealloc is free: the pin
/// cares about allocation *pressure*, not leaks).
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Diagnostic arm switch: while set to 1, every allocation prints a
/// backtrace (self-disarming around the capture, which itself allocates).
/// Armed by running the test with `TRACE_ALLOCS=1` — the fastest way to
/// find whatever put the pin over budget.
static TRACE_ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        if TRACE_ALLOCS.swap(0, Relaxed) == 1 {
            eprintln!(
                "alloc({} bytes):\n{}",
                layout.size(),
                std::backtrace::Backtrace::force_capture()
            );
            TRACE_ALLOCS.store(1, Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation events during `Network::run` (build excluded) for an n-node
/// SSTSP scenario of `duration_s`.
fn run_allocs(n: u32, duration_s: f64) -> (u64, u64) {
    let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, n, duration_s, 2006);
    let bps = cfg.total_bps();
    let net = Network::build(&cfg);
    let before = ALLOC_CALLS.load(Relaxed);
    let r = std::hint::black_box(net.run());
    let during = ALLOC_CALLS.load(Relaxed) - before;
    // The result carries the spread series out; its allocations happened
    // inside the window and are the sanctioned O(log BPs) growth.
    drop(r);
    (during, bps)
}

/// Allocation events during `Network::build` of an n-node SSTSP scenario.
fn build_allocs(n: u32) -> u64 {
    let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, n, 10.0, 2006);
    let before = ALLOC_CALLS.load(Relaxed);
    let net = std::hint::black_box(Network::build(&cfg));
    let during = ALLOC_CALLS.load(Relaxed) - before;
    drop(net);
    during
}

#[test]
fn per_bp_heap_allocations_are_amortized_zero() {
    // Warm thread-local state (RNG stream tables, crypto memos) so the
    // measured runs see a steady process.
    run_allocs(100, 5.0);

    if std::env::var("TRACE_ALLOCS").is_ok() {
        let cfg = ScenarioConfig::new(ProtocolKind::Sstsp, 100, 10.0, 2006);
        let net = Network::build(&cfg);
        TRACE_ALLOCS.store(1, Relaxed);
        std::hint::black_box(net.run());
        TRACE_ALLOCS.store(0, Relaxed);
    }

    let (short_allocs, short_bps) = run_allocs(100, 10.0);
    let (long_allocs, long_bps) = run_allocs(100, 20.0);
    let extra_bps = long_bps - short_bps;
    assert!(
        extra_bps >= 100,
        "scenario shapes drifted: {extra_bps} extra BPs"
    );
    let delta = long_allocs.saturating_sub(short_allocs);

    // Doubling the BP count may only add the spread-series doublings
    // (plus the identical result-assembly tail, which cancels in the
    // delta). 16 events across 100 extra BPs = amortized 0.16 allocs/BP;
    // one real per-BP allocation would add >= 100.
    assert!(
        delta <= 16,
        "per-BP allocation regression: {extra_bps} extra BPs cost {delta} extra \
         allocation events ({short_allocs} at {short_bps} BPs -> {long_allocs} at {long_bps} BPs)"
    );

    // Set-up: 100 more stations may cost at most 100 more allocations, one
    // `Box` each; a heap buffer per station would add another 100.
    let (small, large) = (build_allocs(100), build_allocs(200));
    let extra_stations = 100;
    let build_delta = large.saturating_sub(small);
    assert!(
        build_delta <= extra_stations,
        "per-station build allocation regression: {extra_stations} extra SSTSP stations \
         cost {build_delta} extra allocation events ({small} at n = 100 -> {large} at n = 200)"
    );
}
