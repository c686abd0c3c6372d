//! The broker's allocation budget: serving a job must not re-allocate
//! what the broker already holds. A counting global allocator tallies
//! every allocation made while a seeded 1 000-job stream of the
//! benchmark's mix goes through `Broker::submit`/`step` with a `NullSink`
//! and no journal, and the test fails above [`MAX_ALLOCS_PER_JOB`].
//!
//! The mix is `arcs-serve-loadgen`'s and the `serve-inproc` benchmark's:
//! the five class-S kernels, 4 tenants, 4–12 timesteps, every 16th job
//! under a flaky-RAPL plan and every 97th job asking for a floor above
//! the whole budget (so admission rejects it). Each arrival is followed
//! by 0–2 steps, then the broker drains.
//!
//! The allocator is global to the binary, so this file holds exactly one
//! test: no other test thread can allocate while it counts.

use arcs::ResilienceOptions;
use arcs_powersim::{splitmix64, Fleet, Machine};
use arcs_serve::{Broker, BrokerConfig, JobSpec};
use arcs_trace::NullSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The bound the broker must stay under, per submitted job.
const MAX_ALLOCS_PER_JOB: f64 = 57.0;

const JOBS: usize = 1000;
const NODES: usize = 8;
const BUDGET_W: f64 = 800.0;
const TENANTS: u64 = 4;
const REJECT_EVERY: usize = 97;
const FAULT_EVERY: usize = 16;
const KERNELS: [&str; 5] = ["sp.S", "bt.S", "cg.S", "ep.S", "mg.S"];

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

/// A splitmix64 generator step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    splitmix64(*state)
}

/// The seeded arrival stream and the steps after each arrival.
fn stream(seed: u64) -> (Vec<JobSpec>, Vec<u8>) {
    let mut rng = seed;
    let specs = (0..JOBS)
        .map(|i| {
            let r = next(&mut rng);
            let tenant = format!("tenant{}", r % TENANTS);
            let kernel = KERNELS[(r >> 8) as usize % KERNELS.len()];
            let mut spec = JobSpec::new(tenant, kernel).timesteps(4 + ((r >> 16) % 9) as usize);
            if (i + 1) % REJECT_EVERY == 0 {
                spec = spec.floor_w(BUDGET_W * 2.0);
            }
            if (i + 1) % FAULT_EVERY == 0 {
                spec = spec.fault_seed(r >> 24);
            }
            spec
        })
        .collect();
    let mut rng = seed ^ 0xA5A5_A5A5_A5A5_A5A5;
    let steps = (0..JOBS).map(|_| (next(&mut rng) % 3) as u8).collect();
    (specs, steps)
}

#[test]
fn serving_a_job_allocates_at_most_sixty_times() {
    let (specs, steps) = stream(42);
    let mut cfg = BrokerConfig::new(BUDGET_W);
    cfg.quantum_timesteps = 4;
    let mut resilience = ResilienceOptions::standard();
    resilience.max_read_retries = 0;
    resilience.error_budget = Some(1);
    cfg.resilience = Some(resilience);
    let mut broker =
        Broker::new(Fleet::homogeneous(Machine::crill(), NODES), cfg, Arc::new(NullSink));

    COUNTING.store(true, Ordering::SeqCst);
    for (spec, &n) in specs.into_iter().zip(&steps) {
        broker.submit(spec);
        for _ in 0..n {
            broker.step();
        }
    }
    while broker.step() {}
    COUNTING.store(false, Ordering::SeqCst);

    let counters = broker.counters();
    assert_eq!(counters.submitted, JOBS as u64);
    assert_eq!(
        counters.rejected,
        (JOBS / REJECT_EVERY) as u64,
        "admission fired on the planted jobs"
    );
    assert_eq!(counters.completed + counters.rejected, JOBS as u64, "every job finished");
    let per_job = ALLOCS.load(Ordering::SeqCst) as f64 / JOBS as f64;
    eprintln!("serve_allocations: {per_job:.1} allocations per submitted job");
    assert!(
        per_job <= MAX_ALLOCS_PER_JOB,
        "{per_job:.1} allocations per submitted job, above {MAX_ALLOCS_PER_JOB}"
    );
}
