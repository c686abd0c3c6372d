//! The trace codec's allocation budget. A counting global allocator
//! tallies every allocation made while the records of an SP.B trace (Crill
//! at 115 W, ARCS-Online, 200 timesteps: 5 151 records) are encoded one by
//! one as the `JsonlSink` writes them (`serde_json::to_string`), and while
//! their JSONL text is decoded by a `TraceReader`. The test fails above
//! [`MAX_ALLOCS_PER_ENCODE`] allocations per record encoded or
//! [`MAX_ALLOCS_PER_DECODE`] per record decoded.
//!
//! The allocator is global to the binary, so this file holds exactly one
//! test: no other test thread can allocate while it counts.

use arcs::prelude::*;
use arcs_kernels::{model, Class};
use arcs_trace::TraceReader;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The bounds the codec must stay under, per record: the measured 19.0
/// and 15.7, plus half an allocation, so that one allocation more per
/// record fails (a 10 % margin would let it through).
const MAX_ALLOCS_PER_ENCODE: f64 = 19.5;
const MAX_ALLOCS_PER_DECODE: f64 = 16.2;

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst) - before)
}

#[test]
fn the_trace_codec_allocates_a_bounded_number_of_times_per_record() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 200;
    let sink = Arc::new(VecSink::new());
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    Runner::new(&mut SimExecutor::new(m, 115.0))
        .workload(&wl)
        .tuner(&mut tuner)
        .trace(sink.clone())
        .run()
        .unwrap();
    let records = sink.drain();
    let n = records.len();

    let mut lines = Vec::with_capacity(n);
    let ((), encode) = counted(|| {
        for r in &records {
            lines.push(serde_json::to_string(r).unwrap());
        }
    });
    let text = lines.join("\n");
    let mut decoded = Vec::with_capacity(n);
    let ((), decode) = counted(|| {
        for r in TraceReader::new(text.as_bytes()) {
            decoded.push(r.unwrap());
        }
    });
    assert_eq!(decoded, records, "the codec round-trips the trace");

    let per_encode = encode as f64 / n as f64;
    let per_decode = decode as f64 / n as f64;
    eprintln!(
        "trace_allocations: {per_encode:.1} allocations per record encoded, {per_decode:.1} \
         per record decoded ({n} records)"
    );
    assert!(per_encode <= MAX_ALLOCS_PER_ENCODE, "{per_encode:.1} allocations per record encoded");
    assert!(per_decode <= MAX_ALLOCS_PER_DECODE, "{per_decode:.1} allocations per record decoded");
}
