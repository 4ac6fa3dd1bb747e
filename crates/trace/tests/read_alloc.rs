//! A trace header is untrusted input: reading a file that claims far more
//! records than it holds must fail on truncation without first reserving
//! memory for the claimed count.
//!
//! This file is its own test binary so its counting allocator sees only
//! this test's allocations.

use cmp_trace::{RecordedTrace, TraceError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, tracking live and peak heap bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: defers every call to `System`; only counts the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn huge_claimed_count_fails_truncated_without_reserving_it() {
    let mut file = b"ASCCTRC1".to_vec();
    file.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(file.len(), 16);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = RecordedTrace::read_from(&file[..]);
    let peak = PEAK.load(Ordering::Relaxed) - base;

    assert!(
        matches!(result, Err(TraceError::Truncated)),
        "want Truncated, got {result:?}"
    );
    assert!(
        peak < 1 << 20,
        "reading a 16-byte file peaked at {peak} bytes"
    );
}
