//! Assertions on the counting allocator's process-wide live and peak bytes.
//!
//! Those totals see every thread's allocations, so they only hold when
//! nothing else in the process allocates or frees during the measurement.
//! This binary therefore holds a single test: the harness's main thread
//! just waits for it, and no sibling test can free blocks while tracking
//! is on.

use nidc_obs::alloc::{reset, reset_peak, set_tracking, stats};

#[test]
fn process_wide_live_and_peak_bytes() {
    enabled_tracking_counts_alloc_and_dealloc();
    reset_peak_rebases_to_current_live();
}

fn enabled_tracking_counts_alloc_and_dealloc() {
    set_tracking(true);
    reset();
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(128));
    let mid = stats();
    drop(v);
    let end = stats();
    set_tracking(false);
    assert!(mid.allocs >= 1);
    assert!(mid.bytes_allocated >= 1024, "128 × 8 bytes expected");
    assert!(mid.live_bytes >= 1024);
    assert!(mid.peak_live_bytes >= mid.live_bytes);
    assert!(end.deallocs > mid.deallocs, "dropping v must count");
}

fn reset_peak_rebases_to_current_live() {
    set_tracking(true);
    reset();
    let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(4096));
    drop(v);
    let spiked = stats();
    assert!(spiked.peak_live_bytes >= 32 * 1024);
    reset_peak();
    let rebased = stats();
    set_tracking(false);
    assert!(rebased.peak_live_bytes < spiked.peak_live_bytes);
}
