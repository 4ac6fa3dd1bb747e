//! Property tests for the `RecordedTrace` decoder, which reads untrusted
//! bytes. Every input — arbitrary bytes, bit flips and truncations of a
//! valid encoding, a count field of `u64::MAX` — must give a typed error
//! or a trace that re-encodes to the input byte for byte, and the decoder's
//! peak heap use must stay bounded by the input length.
//!
//! This file is its own test binary so its counting allocator sees only
//! these tests' allocations. The counters are per thread, so the test
//! harness's parallel threads do not see each other's allocations.

use cmp_cache::Addr;
use cmp_trace::{Access, RecordedTrace, TraceError};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, tracking this thread's live and peak heap bytes.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

// SAFETY: defers every call to `System`; only counts the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + layout.size() as isize);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) };
        let _ = LIVE.try_with(|live| live.set(live.get() - layout.size() as isize));
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Records the decoder reserves before the count is proven (mirrors the
/// decoder's own read-ahead reservation).
const RESERVE_RECORDS: usize = 1 << 12;

/// Bytes per encoded record: `u64` address, `u8` kind, `u16` stream id.
const RECORD_BYTES: usize = 11;

/// The most heap a decode of `len` input bytes may hold at once: the
/// up-front reservation plus a doubling buffer of the records the input can
/// hold, counted three times over for a reallocation's old and new blocks.
fn heap_bound(len: usize) -> isize {
    let records = RESERVE_RECORDS + 2 * (len / RECORD_BYTES + 1);
    (3 * records * std::mem::size_of::<Access>()) as isize
}

/// Decodes `bytes` and checks the decoder's contract on it: the error, if
/// the decode failed.
fn check(bytes: &[u8]) -> Option<TraceError> {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let result = RecordedTrace::read_from(bytes);
    let peak = PEAK.with(Cell::get) - base;
    prop_assert!(
        peak <= heap_bound(bytes.len()),
        "decoding {} bytes peaked at {peak} heap bytes",
        bytes.len()
    );
    match result {
        Ok(trace) => {
            let mut out = Vec::new();
            trace.write_to(&mut out).expect("writing to a Vec");
            prop_assert_eq!(&out[..], bytes, "a decoded trace re-encodes identically");
            None
        }
        Err(TraceError::Io(e)) => panic!("a byte slice gave an untyped i/o error: {e}"),
        Err(e) => Some(e),
    }
}

fn access() -> impl Strategy<Value = Access> {
    (0..u64::MAX, prop::bool::ANY, 0..=u16::MAX).prop_map(|(addr, store, stream)| {
        if store {
            Access::store(Addr::new(addr), stream)
        } else {
            Access::load(Addr::new(addr), stream)
        }
    })
}

/// The encoding of a random non-empty trace.
fn encoding() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(access(), 1..48).prop_map(|accesses| {
        let mut out = Vec::new();
        RecordedTrace::from_accesses(accesses)
            .write_to(&mut out)
            .expect("writing to a Vec");
        out
    })
}

proptest! {
    #[test]
    fn arbitrary_bytes(
        magic in prop::bool::ANY,
        tail in prop::collection::vec(0..=u8::MAX, 0..600),
    ) {
        // Half the inputs get past the magic, so the count and records
        // are fuzzed too.
        let mut bytes = if magic { b"ASCCTRC1".to_vec() } else { Vec::new() };
        bytes.extend_from_slice(&tail);
        check(&bytes);
    }

    #[test]
    fn bit_flips(
        bytes in encoding(),
        region in 0u8..3,
        flips in prop::collection::vec(0..usize::MAX, 1..4),
    ) {
        // Flips land anywhere, in the header, or in the count's low byte,
        // where a flip often shrinks the count below the records present.
        let mut bytes = bytes;
        let (first, bits) = match region {
            0 => (0, bytes.len() * 8),
            1 => (0, 16 * 8),
            _ => (8 * 8, 8),
        };
        for flip in flips {
            let bit = first + flip % bits;
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        check(&bytes);
    }

    #[test]
    fn every_truncation(bytes in encoding()) {
        prop_assert!(check(&bytes).is_none(), "the whole encoding decodes");
        for len in 0..bytes.len() {
            let err = check(&bytes[..len]);
            prop_assert!(
                matches!(err, Some(TraceError::Truncated)),
                "a {len}-byte prefix gave {err:?}"
            );
        }
    }

    #[test]
    fn count_of_u64_max(bytes in encoding()) {
        let mut bytes = bytes;
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = check(&bytes);
        prop_assert!(matches!(err, Some(TraceError::Truncated)), "got {err:?}");
    }
}
