//! The warm path's allocation budget: a sweep cell whose every operating
//! point is already in the memo must not allocate per invocation. A
//! counting global allocator tallies every allocation made while a
//! `SweepEngine` runs the sp.B/bt.B grid (3 caps × default, ARCS-Online
//! and ARCS-Offline: 18 cells) a second time, on the cache its first run
//! filled. The test fails above [`MAX_ALLOCS_PER_CELL`] allocations per
//! cell or [`MAX_ALLOCS_PER_INVOCATION`] per measured region invocation.
//!
//! The allocator is global to the binary, so this file holds exactly one
//! test: no other test thread can allocate while it counts.

use arcs::{SweepEngine, SweepGrid, SweepStrategy};
use arcs_kernels::{model, Class};
use arcs_powersim::Machine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The bounds a warm cell must stay under.
const MAX_ALLOCS_PER_CELL: f64 = 89.0;
const MAX_ALLOCS_PER_INVOCATION: f64 = 0.089;

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

#[test]
fn a_warm_cell_allocates_per_cell_not_per_invocation() {
    let grid = SweepGrid::new(Machine::crill())
        .workload(model::sp(Class::B))
        .workload(model::bt(Class::B))
        .caps(&[55.0, 85.0, 115.0])
        .strategies(&[SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline]);
    // One worker, so the count is of this thread's cells alone.
    let engine = SweepEngine::new(Machine::crill()).with_workers(1);
    let cold = engine.run(&grid);
    assert!(cold.cache.misses > 0, "the first run fills the cache");

    COUNTING.store(true, Ordering::SeqCst);
    let warm = engine.run(&grid);
    COUNTING.store(false, Ordering::SeqCst);

    assert_eq!(warm.cache.misses, 0, "the second run is all memo hits");
    assert_eq!(warm.cells.len(), 18);
    let invocations: u64 =
        warm.cells.iter().flat_map(|c| c.report.per_region.values()).map(|r| r.invocations).sum();
    let allocs = ALLOCS.load(Ordering::SeqCst) as f64;
    let per_cell = allocs / warm.cells.len() as f64;
    let per_invocation = allocs / invocations as f64;
    eprintln!(
        "warm_allocations: {per_cell:.1} allocations per cell, {per_invocation:.3} per \
         invocation ({invocations} invocations)"
    );
    assert!(per_cell <= MAX_ALLOCS_PER_CELL, "{per_cell:.1} allocations per warm cell");
    assert!(
        per_invocation <= MAX_ALLOCS_PER_INVOCATION,
        "{per_invocation:.3} allocations per warm invocation"
    );
}
