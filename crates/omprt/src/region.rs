//! Parallel regions and the runtime object.
//!
//! [`Runtime`] is the moral equivalent of an OpenMP runtime instance: it
//! owns the worker pool, the internal control variables (`num_threads`,
//! `schedule`) that ARCS mutates between region invocations, a registry
//! mapping region names (source locations in real OpenMP) to stable ids,
//! and the OMPT-like tool chain.

use crate::ompt::ToolRegistry;
use crate::pool::Pool;
use crate::schedule::{static_chunks_for_thread, Dispenser, Schedule};
use crate::stats::{RegionRecord, ThreadStats};
use parking_lot::{Mutex, RwLock};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Stable identifier for a parallel region (the analogue of an OMPT
/// `parallel_id`'s code pointer: one per static region, not per invocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(pub u32);

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

#[derive(Debug, Clone, Copy)]
struct Icv {
    nthreads: usize,
    schedule: Schedule,
}

/// An OpenMP-like shared-memory runtime with tunable execution knobs.
pub struct Runtime {
    pool: Pool,
    icv: Mutex<Icv>,
    names: RwLock<Vec<String>>,
    by_name: Mutex<HashMap<String, RegionId>>,
    tools: ToolRegistry,
}

impl Runtime {
    /// Create a runtime whose team can grow to `max_threads`.
    pub fn new(max_threads: usize) -> Self {
        let pool = Pool::new(max_threads);
        Runtime {
            icv: Mutex::new(Icv { nthreads: max_threads, schedule: Schedule::runtime_default() }),
            pool,
            names: RwLock::new(Vec::new()),
            by_name: Mutex::new(HashMap::new()),
            tools: ToolRegistry::new(),
        }
    }

    /// Maximum team size (`omp_get_max_threads` upper bound).
    pub fn max_threads(&self) -> usize {
        self.pool.max_threads()
    }

    /// `omp_set_num_threads`: team size for subsequent regions, clamped to
    /// `[1, max_threads]`.
    pub fn set_num_threads(&self, n: usize) {
        self.icv.lock().nthreads = n.clamp(1, self.pool.max_threads());
    }

    /// `omp_get_num_threads` for the next region.
    pub fn num_threads(&self) -> usize {
        self.icv.lock().nthreads
    }

    /// `omp_set_schedule`.
    pub fn set_schedule(&self, schedule: Schedule) {
        self.icv.lock().schedule = schedule;
    }

    pub fn schedule(&self) -> Schedule {
        self.icv.lock().schedule
    }

    /// The OMPT-like tool chain; attach observers here.
    pub fn tools(&self) -> &ToolRegistry {
        &self.tools
    }

    /// Intern a region name, returning its stable id. Repeated calls with
    /// the same name return the same id.
    pub fn register_region(&self, name: &str) -> RegionId {
        let mut map = self.by_name.lock();
        if let Some(&id) = map.get(name) {
            return id;
        }
        let mut names = self.names.write();
        let id = RegionId(u32::try_from(names.len()).expect("too many regions"));
        names.push(name.to_owned());
        map.insert(name.to_owned(), id);
        id
    }

    /// Name of a registered region (panics on unknown ids).
    pub fn region_name(&self, id: RegionId) -> String {
        self.names.read()[id.0 as usize].clone()
    }

    /// Work-share `range` across the current team, invoking `body` once per
    /// chunk (a contiguous sub-range). This is the preferred entry point for
    /// cache-aware kernels; [`Runtime::parallel_for`] wraps it per-iteration.
    pub fn parallel_for_chunks<F>(
        &self,
        region: RegionId,
        range: Range<usize>,
        body: F,
    ) -> RegionRecord
    where
        F: Fn(Range<usize>) + Sync,
    {
        // Fire the fork event *before* snapshotting the ICVs so an attached
        // tool (the ARCS policy) can reconfigure this very invocation.
        self.tools.emit_parallel_begin(region);
        let icv = *self.icv.lock();
        self.run_region(region, icv.nthreads, icv.schedule, range, body)
    }

    /// [`Runtime::parallel_for_chunks`] with an explicit configuration,
    /// bypassing the ICVs (used by tooling that must not disturb them).
    pub fn parallel_for_chunks_cfg<F>(
        &self,
        region: RegionId,
        nthreads: usize,
        schedule: Schedule,
        range: Range<usize>,
        body: F,
    ) -> RegionRecord
    where
        F: Fn(Range<usize>) + Sync,
    {
        self.tools.emit_parallel_begin(region);
        self.run_region(region, nthreads, schedule, range, body)
    }

    /// Shared implementation: executes the region with a resolved
    /// configuration. The fork event has already been emitted.
    fn run_region<F>(
        &self,
        region: RegionId,
        nthreads: usize,
        schedule: Schedule,
        range: Range<usize>,
        body: F,
    ) -> RegionRecord
    where
        F: Fn(Range<usize>) + Sync,
    {
        assert!(range.start <= range.end, "invalid iteration range");
        let len = range.end - range.start;
        let base = range.start;
        let nthreads = nthreads.clamp(1, self.pool.max_threads());

        let dispenser = if schedule.has_dispatch_cost() {
            Some(Dispenser::new(len, nthreads, schedule))
        } else {
            None
        };

        let start_ns: Vec<AtomicU64> = (0..nthreads).map(|_| AtomicU64::new(0)).collect();
        let finish_ns: Vec<AtomicU64> = (0..nthreads).map(|_| AtomicU64::new(0)).collect();
        let chunks: Vec<AtomicU32> = (0..nthreads).map(|_| AtomicU32::new(0)).collect();
        let iters: Vec<AtomicUsize> = (0..nthreads).map(|_| AtomicUsize::new(0)).collect();

        let t0 = Instant::now();
        self.pool.run(nthreads, |tid| {
            start_ns[tid].store(elapsed_ns(t0), Ordering::Relaxed);
            let mut my_chunks = 0u32;
            let mut my_iters = 0usize;
            match &dispenser {
                None => {
                    for ch in static_chunks_for_thread(len, nthreads, schedule.chunk, tid) {
                        my_chunks += 1;
                        my_iters += ch.len();
                        body(base + ch.start..base + ch.end);
                    }
                }
                Some(d) => {
                    while let Some(ch) = d.next_chunk() {
                        my_chunks += 1;
                        my_iters += ch.len();
                        body(base + ch.start..base + ch.end);
                    }
                }
            }
            chunks[tid].store(my_chunks, Ordering::Relaxed);
            iters[tid].store(my_iters, Ordering::Relaxed);
            finish_ns[tid].store(elapsed_ns(t0), Ordering::Relaxed);
        });
        let total = t0.elapsed();
        let total_ns = total.as_nanos() as u64;

        let per_thread = (0..nthreads)
            .map(|tid| {
                let s = start_ns[tid].load(Ordering::Relaxed);
                let f = finish_ns[tid].load(Ordering::Relaxed);
                ThreadStats {
                    busy: Duration::from_nanos(f.saturating_sub(s)),
                    barrier_wait: Duration::from_nanos(total_ns.saturating_sub(f)),
                    chunks: chunks[tid].load(Ordering::Relaxed),
                    iterations: iters[tid].load(Ordering::Relaxed),
                }
            })
            .collect();

        let record = RegionRecord {
            region,
            threads: nthreads,
            schedule,
            iterations: len,
            duration: total,
            per_thread,
        };
        self.tools.emit_parallel_end(region, &record);
        record
    }

    /// Work-share `range`, invoking `body(i)` once per iteration — the
    /// `#pragma omp parallel for` shape.
    pub fn parallel_for<F>(&self, region: RegionId, range: Range<usize>, body: F) -> RegionRecord
    where
        F: Fn(usize) + Sync,
    {
        self.parallel_for_chunks(region, range, |chunk| {
            for i in chunk {
                body(i);
            }
        })
    }

    /// A plain parallel region (`#pragma omp parallel`): `body(thread_num)`
    /// runs once on every team member, with the usual fork event, implicit
    /// barrier and measurement record (iterations = team size).
    pub fn parallel<F>(&self, region: RegionId, body: F) -> RegionRecord
    where
        F: Fn(usize) + Sync,
    {
        self.tools.emit_parallel_begin(region);
        let icv = *self.icv.lock();
        let n = icv.nthreads.clamp(1, self.pool.max_threads());
        // One iteration per thread under a static block partition maps
        // thread t to iteration t exactly.
        self.run_region(region, n, Schedule::static_block(), 0..n, |chunk| {
            for t in chunk {
                body(t);
            }
        })
    }

    /// Work-shared reduction: each thread folds its iterations with `fold`
    /// starting from `identity.clone()`; partial results are merged with
    /// `combine` in thread order.
    pub fn parallel_reduce<T, F, C>(
        &self,
        region: RegionId,
        range: Range<usize>,
        identity: T,
        fold: F,
        combine: C,
    ) -> (T, RegionRecord)
    where
        T: Send + Sync + Clone,
        F: Fn(T, usize) -> T + Sync,
        C: Fn(T, T) -> T + Sync,
    {
        let nthreads = self.num_threads().clamp(1, self.pool.max_threads());
        let partials: Mutex<Vec<Option<T>>> = Mutex::new(vec![None; nthreads]);
        let record = self.parallel_for_chunks(region, range, |chunk| {
            let mut acc = identity.clone();
            for i in chunk.clone() {
                acc = fold(acc, i);
            }
            // Merge this chunk into the owning thread's slot. Chunk ranges
            // are disjoint so contention on the mutex is brief.
            let mut slots = partials.lock();
            // Identify the slot by first-fit: chunk ownership is unknown at
            // this level for on-demand schedules, so reduce into slot 0..n
            // round-robin keyed by chunk start for determinism.
            let slot = chunk.start % nthreads;
            let merged = match slots[slot].take() {
                Some(prev) => combine(prev, acc),
                None => acc,
            };
            slots[slot] = Some(merged);
        });
        let mut out = identity;
        for p in partials.into_inner().into_iter().flatten() {
            out = combine(out, p);
        }
        (out, record)
    }
}

#[inline]
fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn rt(n: usize) -> Runtime {
        Runtime::new(n)
    }

    #[test]
    fn parallel_for_visits_every_iteration_once() {
        let rt = rt(4);
        let region = rt.register_region("touch");
        for sched in [
            Schedule::static_block(),
            Schedule::static_chunked(3),
            Schedule::dynamic(2),
            Schedule::guided(1),
        ] {
            rt.set_schedule(sched);
            let hits: Vec<AtomicUsize> = (0..103).map(|_| AtomicUsize::new(0)).collect();
            rt.parallel_for(region, 0..103, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "schedule {sched}");
        }
    }

    #[test]
    fn nonzero_range_start_is_respected() {
        let rt = rt(3);
        let region = rt.register_region("offset");
        let sum = AtomicUsize::new(0);
        rt.parallel_for(region, 10..20, |i| {
            assert!((10..20).contains(&i));
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), (10..20).sum());
    }

    #[test]
    fn record_reflects_team_and_iterations() {
        let rt = rt(4);
        let region = rt.register_region("rec");
        rt.set_num_threads(3);
        rt.set_schedule(Schedule::dynamic(5));
        let rec = rt.parallel_for(region, 0..100, |_| {});
        assert_eq!(rec.threads, 3);
        assert_eq!(rec.iterations, 100);
        assert_eq!(rec.schedule, Schedule::dynamic(5));
        assert_eq!(rec.per_thread.len(), 3);
        let total_iters: usize = rec.per_thread.iter().map(|t| t.iterations).sum();
        assert_eq!(total_iters, 100);
        assert_eq!(rec.total_chunks(), 20);
    }

    #[test]
    fn set_num_threads_clamps() {
        let rt = rt(4);
        rt.set_num_threads(0);
        assert_eq!(rt.num_threads(), 1);
        rt.set_num_threads(99);
        assert_eq!(rt.num_threads(), 4);
    }

    #[test]
    fn region_registry_is_stable() {
        let rt = rt(2);
        let a = rt.register_region("x_solve");
        let b = rt.register_region("y_solve");
        let a2 = rt.register_region("x_solve");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(rt.region_name(a), "x_solve");
    }

    #[test]
    fn metrics_count_regions_chunks_and_dispatches() {
        let rt = rt(4);
        let region = rt.register_region("counted");
        // Static block on 4 threads runs one chunk per thread; dynamic(10)
        // over 100 iterations hands out exactly 10.
        for (schedule, chunks) in [(Schedule::static_block(), 4), (Schedule::dynamic(10), 10)] {
            rt.set_schedule(schedule);
            let rec = rt.parallel_for(region, 0..100, |_| {});
            assert_eq!(rec.total_chunks(), chunks, "{schedule}");
            assert_eq!(rec.iterations, 100);
            assert_eq!(rec.per_thread.iter().map(|t| t.iterations).sum::<usize>(), 100);
        }
    }

    #[test]
    fn empty_range_is_fine() {
        let rt = rt(4);
        let region = rt.register_region("empty");
        let rec = rt.parallel_for(region, 5..5, |_| panic!("no iterations expected"));
        assert_eq!(rec.iterations, 0);
    }

    #[test]
    fn reduce_sums_correctly_across_schedules() {
        let rt = rt(4);
        let region = rt.register_region("reduce");
        for sched in [Schedule::static_block(), Schedule::dynamic(7), Schedule::guided(2)] {
            rt.set_schedule(sched);
            let (sum, _) = rt.parallel_reduce(region, 0..1000, 0usize, |a, i| a + i, |a, b| a + b);
            assert_eq!(sum, 499_500, "schedule {sched}");
        }
    }

    #[test]
    fn reduce_with_float_norm() {
        let rt = rt(4);
        let region = rt.register_region("norm");
        let data: Vec<f64> = (0..512).map(|i| i as f64).collect();
        let (ss, _) = rt.parallel_reduce(
            region,
            0..data.len(),
            0.0f64,
            |a, i| a + data[i] * data[i],
            |a, b| a + b,
        );
        let expect: f64 = data.iter().map(|x| x * x).sum();
        assert!((ss - expect).abs() < 1e-6);
    }

    #[test]
    fn chunk_bodies_receive_contiguous_ranges() {
        let rt = rt(4);
        let region = rt.register_region("chunks");
        rt.set_schedule(Schedule::static_chunked(8));
        let seen = Mutex::new(Vec::new());
        rt.parallel_for_chunks(region, 0..64, |c| {
            assert!(c.len() <= 8);
            seen.lock().push(c);
        });
        let mut all: Vec<usize> = seen.lock().iter().cloned().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn explicit_cfg_does_not_touch_icvs() {
        let rt = rt(4);
        let region = rt.register_region("cfg");
        rt.set_num_threads(4);
        rt.set_schedule(Schedule::static_block());
        let rec = rt.parallel_for_chunks_cfg(region, 2, Schedule::dynamic(1), 0..10, |_c| {});
        assert_eq!(rec.threads, 2);
        assert_eq!(rt.num_threads(), 4);
        assert_eq!(rt.schedule(), Schedule::static_block());
    }

    #[test]
    fn tool_can_reconfigure_current_invocation_at_fork() {
        // The ARCS hook: a tool calling set_num_threads/set_schedule inside
        // parallel_begin must affect the invocation being forked.
        use crate::ompt::Tool;
        use std::sync::Arc;

        struct Reconfigure(Arc<Runtime>);
        impl Tool for Reconfigure {
            fn parallel_begin(&self, _region: RegionId) {
                self.0.set_num_threads(2);
                self.0.set_schedule(Schedule::guided(4));
            }
        }

        let rt = Arc::new(Runtime::new(4));
        rt.set_num_threads(4);
        rt.set_schedule(Schedule::static_block());
        rt.tools().register(Arc::new(Reconfigure(rt.clone())));
        let region = rt.register_region("reconfigured");
        let rec = rt.parallel_for(region, 0..50, |_| {});
        assert_eq!(rec.threads, 2);
        assert_eq!(rec.schedule, Schedule::guided(4));
    }

    #[test]
    fn barrier_wait_is_consistent_with_duration() {
        let rt = rt(4);
        let region = rt.register_region("imbalanced");
        // Thread handling iteration 0 sleeps; others finish quickly.
        let rec = rt.parallel_for(region, 0..4, |i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        for t in &rec.per_thread {
            assert!(t.busy + t.barrier_wait <= rec.duration + Duration::from_millis(5));
        }
        assert!(rec.duration >= Duration::from_millis(20));
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_runs_body_once_per_team_member() {
        let rt = Runtime::new(4);
        let region = rt.register_region("parallel");
        rt.set_num_threads(3);
        let hits = [const { AtomicUsize::new(0) }; 4];
        let rec = rt.parallel(region, |t| {
            hits[t].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(rec.threads, 3);
        assert_eq!(rec.iterations, 3);
        assert_eq!(hits[0].load(Ordering::Relaxed), 1);
        assert_eq!(hits[1].load(Ordering::Relaxed), 1);
        assert_eq!(hits[2].load(Ordering::Relaxed), 1);
        assert_eq!(hits[3].load(Ordering::Relaxed), 0);
    }

    #[test]
    fn parallel_thread_ids_match_iteration_ids() {
        // Static block of n iterations on n threads: iteration t runs on
        // thread t, so `body(t)` sees the OpenMP thread-num semantics.
        let rt = Runtime::new(4);
        let region = rt.register_region("parallel/ids");
        let rec = rt.parallel(region, |_t| {});
        let per_thread: Vec<usize> = rec.per_thread.iter().map(|s| s.iterations).collect();
        assert_eq!(per_thread, vec![1; 4]);
    }
}
