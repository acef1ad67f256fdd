//! The counting allocator's peak matches a known allocation. The only test
//! in its binary, so no other test thread allocates during the window.

use sstsp_perfbench::alloc::{peak_since, reset_peak, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn peak_matches_a_known_allocation() {
    const MIB: usize = 1 << 20;
    let base = reset_peak();
    let block = std::hint::black_box(vec![1u8; MIB]);
    drop(block);
    let small = std::hint::black_box(vec![0u64; 1024]);
    let peak = peak_since(base);
    drop(small);
    // The 1 MiB block sets the peak; the later 8 KiB allocation starts
    // after it was freed. Allow a little for the harness's own bookkeeping.
    assert!((MIB..MIB + 4096).contains(&peak), "peak {peak} bytes");

    // A fresh window forgets the old peak.
    let base = reset_peak();
    let kib = std::hint::black_box(vec![0u8; 1024]);
    assert!((1024..1024 + 4096).contains(&peak_since(base)));
    drop(kib);
}
