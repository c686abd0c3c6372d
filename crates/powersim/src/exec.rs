//! Deterministic simulation of parallel-region execution.
//!
//! [`simulate_region`] reproduces, for one region invocation under one
//! configuration and power cap, what the live runtime would measure:
//! per-thread busy and barrier-wait times, total duration, chunk dispatch
//! counts — plus what only the simulated machine can report portably:
//! package energy and cache miss rates.
//!
//! The execution model:
//!
//! 1. the package power cap, and an optional DVFS limit, fix the core
//!    frequency (see [`Machine::team_frequency`]) — the cap reaches no
//!    other term, so caps that clamp to one frequency give one report;
//! 2. each iteration costs `cycles_per_iter × weight_i / (f × smt_eff)`
//!    compute time plus a frequency-independent memory-stall time from the
//!    cache model;
//! 3. chunks are produced by the *same* schedule arithmetic as the live
//!    runtime (`arcs-omprt::schedule`); static chunks go to their owning
//!    thread, on-demand chunks to the earliest-finishing thread (greedy
//!    list scheduling — exactly what a work queue does); a chunk's weight
//!    is a difference of the region's [`WeightTable`] prefix sums, which
//!    depend on no configuration and are built once per region.
//!    Fixed-chunk schedules skip the stream: uniform `static,c` adds one
//!    running sum of the equal full-chunk cost (each thread's sum is a
//!    prefix of it) plus the short trailing chunk to its owner; weighted
//!    `static,c` adds whole rounds of `c·threads` iterations lane by lane
//!    from one prefix slice per round, then the ragged remainder from
//!    thread 0; weighted `dynamic,c` prices each 256-chunk block's full
//!    chunks from one prefix slice, and only a short last chunk by its
//!    bounds;
//! 4. per-chunk dispatch costs: bookkeeping for static, an atomic
//!    grab (plus contention) for dynamic/guided;
//! 5. SMT siblings on one core progress at `eff(k)` and speed up as
//!    siblings finish (POWER8's `eff` peaks at SMT4); a DRAM bandwidth
//!    floor stretches every thread alike once L3 miss traffic exceeds
//!    the controllers, and an uncore-DVFS coupling inflates miss latency
//!    under deep caps;
//! 6. the region ends at a tree barrier after the slowest thread, plus
//!    any master-only `critical_s` section (measured as barrier time,
//!    untunable); energy integrates busy/idle core power over the region
//!    plus per-miss L3/DRAM energy.
//!
//! The on-demand dispatcher is a ring of the team sorted by
//! `(integer clock, thread)`, so its front is what a
//! `BinaryHeap<Reverse<(clock, thread)>>` would pop, and assignment and
//! every per-thread sum are bit-identical to a chunk-by-chunk walk;
//! `tests/reference_oracle.rs` holds the whole integrator to its first
//! version.

use crate::cache::{analyze, CacheReport};
use crate::machine::Machine;
use crate::workload::{RegionModel, WeightTable};
use arcs_omprt::schedule::{ChunkStream, Schedule, ScheduleKind};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The tunable configuration, in simulator form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SimConfig {
    pub threads: usize,
    pub schedule: Schedule,
}

/// Everything measured for one simulated region invocation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimReport {
    /// Wall-clock duration of the invocation, fork to join (seconds).
    pub time_s: f64,
    /// Package energy over the invocation (joules, both sockets).
    pub energy_j: f64,
    /// Effective core frequency under the cap (GHz).
    pub f_ghz: f64,
    pub cache: CacheReport,
    pub per_thread_busy_s: Vec<f64>,
    /// Barrier wait: gap between a thread finishing and the join.
    pub per_thread_wait_s: Vec<f64>,
    /// `Σ per_thread_busy_s`, cached at construction: the driver reads the
    /// totals on every invocation and a memoised report is read far more
    /// often than it is built. Required when read back, like every field:
    /// a defaulted total would read as zero busy time.
    pub busy_sum_s: f64,
    /// `Σ per_thread_wait_s`, cached at construction.
    pub wait_sum_s: f64,
    pub chunks_dispatched: u64,
    pub threads: usize,
}

impl SimReport {
    /// Total time threads spent in the end-of-region barrier — the paper's
    /// `OMP_BARRIER` metric.
    pub fn barrier_total_s(&self) -> f64 {
        self.wait_sum_s
    }

    /// Total busy (loop body) time — the `OpenMP_LOOP` metric.
    pub fn busy_total_s(&self) -> f64 {
        self.busy_sum_s
    }

    /// Load imbalance in [0, 1): `1 − mean(busy)/max(busy)`.
    pub fn imbalance(&self) -> f64 {
        let max = self.per_thread_busy_s.iter().cloned().fold(0.0, f64::max);
        if max <= 0.0 {
            return 0.0;
        }
        let mean = self.per_thread_busy_s.iter().sum::<f64>() / self.per_thread_busy_s.len() as f64;
        1.0 - mean / max
    }

    /// Re-price this invocation with one straggling thread (a fault-plan
    /// perturbation): wall time stretches by `factor`, the extra time
    /// lands on the slowest thread's busy column while everyone else
    /// accrues barrier wait, and energy grows by the stretched interval
    /// at one-busy-core power (the rest of the package idles at the
    /// barrier). `factor ≤ 1` is a no-op.
    pub fn with_straggler(&self, machine: &Machine, factor: f64) -> SimReport {
        if factor <= 1.0 || self.time_s <= 0.0 {
            return self.clone();
        }
        let dt = self.time_s * (factor - 1.0);
        let mut out = self.clone();
        out.time_s += dt;
        let slow = out
            .per_thread_busy_s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        for (t, b) in out.per_thread_busy_s.iter_mut().enumerate() {
            if t == slow {
                *b += dt;
            }
        }
        for (t, w) in out.per_thread_wait_s.iter_mut().enumerate() {
            if t != slow {
                *w += dt;
            }
        }
        let p_core = machine.power.c0 + machine.power.c1 * self.f_ghz.powi(3);
        let idle_w = machine.total_cores().saturating_sub(1) as f64 * machine.power.p_core_idle_w;
        let background_w =
            machine.sockets as f64 * (machine.power.p_uncore_w + machine.power.p_dram_background_w);
        out.energy_j += dt * (background_w + p_core + idle_w);
        out.busy_sum_s = out.per_thread_busy_s.iter().sum();
        out.wait_sum_s = out.per_thread_wait_s.iter().sum();
        out
    }

    pub fn avg_power_w(&self) -> f64 {
        if self.time_s > 0.0 {
            self.energy_j / self.time_s
        } else {
            0.0
        }
    }
}

/// Finish times of threads sharing one core under SMT, given each thread's
/// solo-speed work (ns). While `m` siblings are active each runs at
/// `eff(m)`; when one finishes the survivors speed up. Writes finish times
/// into `finishes` in the same order as `solo_ns`; `order` is sort
/// scratch, both reused across calls.
fn smt_overlap_finish_times_into(
    solo_ns: &[f64],
    smt: &crate::machine::SmtModel,
    order: &mut Vec<usize>,
    finishes: &mut Vec<f64>,
) {
    let k = solo_ns.len();
    finishes.clear();
    finishes.extend_from_slice(solo_ns);
    if k <= 1 {
        return;
    }
    // Sort by remaining work; retire the smallest first. `total_cmp`
    // keeps this panic-free even if a model ever produces a NaN cost.
    order.clear();
    order.extend(0..k);
    order.sort_by(|&a, &b| solo_ns[a].total_cmp(&solo_ns[b]));
    let mut clock = 0.0;
    let mut done_work = 0.0; // work each surviving thread has retired
    let mut active = k;
    for &idx in order.iter() {
        let rate = smt.efficiency(active);
        let dt = (solo_ns[idx] - done_work) / rate;
        clock += dt.max(0.0);
        done_work = solo_ns[idx];
        finishes[idx] = clock;
        active -= 1;
    }
}

/// Reusable working memory for [`simulate_region_with`]. One scratch per
/// executor (or per sweep worker) removes every transient allocation from
/// the region-evaluation hot path; buffers grow to the largest team seen
/// and are reused verbatim afterwards.
///
/// A scratch carries nothing that can change a result — simulating with a
/// fresh `SimScratch::default()` is bit-identical to simulating with a
/// warm one.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// The table [`simulate_region_with`] built last, kept while the next
    /// call prices the same `(profile, trip count)`.
    table: Option<Arc<WeightTable>>,
    busy_ns: Vec<f64>,
    /// The on-demand dispatcher's team as `(femtosecond clock, thread)`,
    /// kept sorted circularly from the dispatcher's head index.
    ring: Vec<(u64, usize)>,
    /// thread → flat core index during SMT grouping (entries consumed as
    /// groups are processed).
    core_idx: Vec<usize>,
    group_solo: Vec<f64>,
    group_members: Vec<usize>,
    group_order: Vec<usize>,
    group_finishes: Vec<f64>,
    core_busy_ns: Vec<f64>,
}

/// Simulate one invocation of `region` with `cfg` under a per-package power
/// cap of `cap_w` watts.
pub fn simulate_region(
    machine: &Machine,
    cap_w: f64,
    region: &RegionModel,
    cfg: SimConfig,
) -> SimReport {
    simulate_region_at_freq(machine, cap_w, region, cfg, None)
}

/// [`simulate_region`] with an additional per-region DVFS limit: the cores
/// run at `min(frequency_under_cap, freq_limit_ghz)`. This is the paper's
/// future-work extension ("we plan to include this \[DVFS\] policy") — for
/// memory-bound regions a lower frequency costs little time and saves
/// energy below the cap.
pub fn simulate_region_at_freq(
    machine: &Machine,
    cap_w: f64,
    region: &RegionModel,
    cfg: SimConfig,
    freq_limit_ghz: Option<f64>,
) -> SimReport {
    simulate_region_with(machine, cap_w, region, cfg, freq_limit_ghz, &mut SimScratch::default())
}

/// [`simulate_region_at_freq`] with caller-owned working memory. Builds
/// the region's [`WeightTable`] unless `scratch` still holds it from the
/// previous call; callers pricing many regions share tables through
/// [`crate::SharedSimCache::weight_table`] and call
/// [`simulate_region_with_table`] directly.
pub fn simulate_region_with(
    machine: &Machine,
    cap_w: f64,
    region: &RegionModel,
    cfg: SimConfig,
    freq_limit_ghz: Option<f64>,
    scratch: &mut SimScratch,
) -> SimReport {
    let table = match scratch.table.take() {
        Some(table) if table.matches(region) => table,
        _ => Arc::new(WeightTable::for_region(region)),
    };
    let report =
        simulate_region_with_table(machine, cap_w, region, &table, cfg, freq_limit_ghz, scratch);
    scratch.table = Some(table);
    report
}

/// The integrator: one invocation of `region`, whose weights are `table`,
/// under `cfg`. Allocates nothing but the returned report.
///
/// # Panics
/// If `table` was not built from `region`'s imbalance profile and trip
/// count.
pub fn simulate_region_with_table(
    machine: &Machine,
    cap_w: f64,
    region: &RegionModel,
    table: &WeightTable,
    cfg: SimConfig,
    freq_limit_ghz: Option<f64>,
    scratch: &mut SimScratch,
) -> SimReport {
    assert!(table.matches(region), "weight table built for another region than `{}`", region.name);
    let threads = cfg.threads.clamp(1, machine.hw_threads());
    let schedule = cfg.schedule;
    let n = region.iterations;

    // The cap and the DVFS limit reach the simulation through this one
    // frequency and nowhere else (the memo key relies on it).
    let f_ghz = machine.team_frequency(cap_w, threads, freq_limit_ghz);

    let cache = analyze(machine, &region.memory, n, threads, schedule);

    // Cost of iteration i at solo speed (SMT sharing applied later):
    //   weight_i × cycles / f  +  stall (f-independent).
    let prefix = table.prefix();
    let weight_sum = |a: usize, b: usize| -> f64 {
        match prefix {
            Some(prefix) => prefix[b] - prefix[a],
            None => (b - a) as f64,
        }
    };
    let cycle_ns_per_weight = region.cycles_per_iter / f_ghz; // ns per unit weight

    // Uncore DVFS: a capped package slows its L3/memory path along with
    // the cores, inflating miss latencies.
    let uncore_factor =
        1.0 + machine.caches.uncore_slowdown * (machine.f_base_ghz / f_ghz - 1.0).max(0.0);
    let stall_ns_per_iter =
        region.memory.accesses_per_iter * cache.stall_ns_per_access * uncore_factor;

    let fork_ns = machine.fork_base_ns + threads as f64 * machine.fork_per_thread_ns;
    scratch.busy_ns.clear();
    scratch.busy_ns.resize(threads, 0.0);
    let busy_ns = &mut scratch.busy_ns;
    let chunks_dispatched: u64;

    // Both arms store per-thread work at solo speed; SMT sharing is
    // applied after the match via sibling overlap (a sibling that finishes
    // early returns its core's resources to the survivor — this is what
    // lets 32 hyper-threads absorb part of the 102-iterations-on-32-threads
    // granularity imbalance on real hardware).
    if schedule.kind == ScheduleKind::Static {
        // A chunk of `len` iterations weighing `w`; `chunk_ns` prices one
        // by its bounds.
        let cost_ns = |w: f64, len: usize| -> f64 {
            machine.chunk_setup_ns + w * cycle_ns_per_weight + len as f64 * stall_ns_per_iter
        };
        let chunk_ns = |start: usize, end: usize| cost_ns(weight_sum(start, end), end - start);
        match (schedule.chunk, prefix) {
            (None, _) => {
                // Block partition, one chunk per thread, the first `rem`
                // threads one iteration longer (`static_chunks_for_thread`).
                let (base, rem) = (n / threads, n % threads);
                let mut start = 0usize;
                for (t, work) in busy_ns.iter_mut().enumerate() {
                    let end = start + base + usize::from(t < rem);
                    if end > start {
                        *work += chunk_ns(start, end);
                    }
                    start = end;
                }
                chunks_dispatched = threads.min(n) as u64;
            }
            (Some(c), None) => {
                // Uniform weights: every full chunk costs the same `x`, and
                // thread t adds `x` once per full chunk it owns, so its sum
                // is the k_t-th partial sum of one running sum — computed
                // once, in the same order, for the two values k_t takes.
                // The trailing short chunk goes to its owner last.
                let c = c.max(1);
                let (full, tail) = (n / c, n % c);
                let x = chunk_ns(0, c);
                let mut lo = 0.0;
                for _ in 0..full / threads {
                    lo += x;
                }
                let hi = lo + x;
                for (t, work) in busy_ns.iter_mut().enumerate() {
                    *work = if t < full % threads { hi } else { lo };
                }
                if tail > 0 {
                    busy_ns[full % threads] += chunk_ns(full * c, n);
                }
                chunks_dispatched = n.div_ceil(c) as u64;
            }
            (Some(c), Some(prefix)) => {
                // Round-robin ownership: chunk `idx` belongs to thread
                // `idx % threads`, so a round of `c·threads` iterations is
                // one full chunk per thread, edged by one prefix slice, and
                // is added lane by lane. Round by round, then the ragged
                // remainder from thread 0, still adds each thread's chunks
                // in increasing order with `cost_ns`'s expression, so every
                // per-thread sum is the one a thread-by-thread walk makes.
                let c = c.max(1);
                let round = c.saturating_mul(threads);
                let rounds = n / round;
                for r in 0..rounds {
                    let p = &prefix[r * round..=(r + 1) * round];
                    for (t, work) in busy_ns.iter_mut().enumerate() {
                        *work += cost_ns(p[(t + 1) * c] - p[t * c], c);
                    }
                }
                for (work, start) in busy_ns.iter_mut().zip((rounds * round..n).step_by(c)) {
                    *work += chunk_ns(start, (start + c).min(n));
                }
                chunks_dispatched = n.div_ceil(c) as u64;
            }
        }
    } else {
        // Greedy list scheduling: each chunk (in dispatch order) goes to
        // the thread that becomes free first — what the shared-counter
        // dispensers do in real time. The sizes come from the same
        // ChunkStream generator the live runtime dispenses from, for
        // every on-demand policy in the portfolio. Assignment runs on
        // solo-speed femtosecond clocks.
        let dispatch_ns =
            machine.dispatch_ns + machine.dispatch_contention_ns * (threads as f64).ln().max(0.0);
        // A chunk of `len` iterations weighing `w`, in femtoseconds;
        // `chunk_fp` prices one by its bounds.
        let cost_fp = |w: f64, len: usize| -> u64 {
            let cost = dispatch_ns + w * cycle_ns_per_weight + len as f64 * stall_ns_per_iter;
            (cost * 1e6) as u64
        };
        let chunk_fp = |start: usize, end: usize| cost_fp(weight_sum(start, end), end - start);
        if prefix.is_none() && schedule.kind == ScheduleKind::Dynamic && n > 0 {
            // `dynamic` on a uniform region: every chunk costs the same
            // but a cheaper trailing remainder, so with every pending
            // clock tied each round greedy dispatch IS round-robin and a
            // thread's clock is a closed-form multiple of the per-chunk
            // cost. u64 multiplication is exact repeated addition, so the
            // bits match the dispatcher below exactly.
            let c = schedule.min_chunk();
            let nchunks = n.div_ceil(c);
            let step_fp = chunk_fp(0, c.min(n));
            let last_fp = chunk_fp((nchunks - 1) * c, n);
            for (t, busy) in busy_ns.iter_mut().enumerate() {
                let k = (nchunks / threads + usize::from(t < nchunks % threads)) as u64;
                let mut clock_fp = k * step_fp;
                if k > 0 && (nchunks - 1) % threads == t {
                    clock_fp = clock_fp - step_fp + last_fp;
                }
                *busy = clock_fp as f64 * 1e-6;
            }
            chunks_dispatched = nchunks as u64;
        } else {
            // `ring` holds the team sorted by `(clock, thread)`, starting
            // at `head` and wrapping; `back` is its last key. Serving a
            // chunk pops the front and re-inserts it; the freed front slot
            // is, on a full ring, exactly the slot after the back. A chunk
            // rarely costs less than the spread of the clocks, so the
            // thread just served is almost always the new last finisher,
            // which takes that slot with no scan. Otherwise it is placed
            // scanning from the back, and `back` stays the last key;
            // shrinking chunks (`guided`) pay at worst the O(threads) an
            // argmin would. Thread ids make the keys unique, so the pop
            // order is the `(clock, thread)` minimum — lowest thread index
            // among tied clocks.
            let ring = &mut scratch.ring;
            ring.clear();
            ring.extend((0..threads).map(|t| (0u64, t)));
            let (mut head, mut back) = (0usize, ring[threads - 1]);
            // Costs are priced a block at a time (no dependency between
            // chunks) and then assigned (integers only), so neither loop
            // waits on the other's latency chain and no per-chunk buffer
            // outlives the block.
            let mut costs = [0u64; 256];
            let mut stream = ChunkStream::new(n, threads, schedule);
            // Weighted `dynamic` chunk j is `[j·c, (j+1)·c)` (`chunk_count`'s
            // arithmetic), so a block's full chunks are lanes over one
            // prefix slice, not a walk of the stream.
            let fixed = prefix
                .filter(|_| schedule.kind == ScheduleKind::Dynamic)
                .map(|prefix| (prefix, schedule.min_chunk()));
            let (mut start, mut nchunks) = (0usize, 0u64);
            loop {
                let mut filled = 0usize;
                match fixed {
                    Some((prefix, c)) => {
                        let first = nchunks as usize;
                        filled = (n.div_ceil(c) - first).min(costs.len());
                        if filled == 0 {
                            break;
                        }
                        // Chunks `first..first + full` are whole; a short
                        // last chunk (`c ∤ n`) is priced by its bounds.
                        let full = (n / c - first).min(filled);
                        let p = &prefix[first * c..=(first + full) * c];
                        for (j, slot) in costs[..full].iter_mut().enumerate() {
                            *slot = cost_fp(p[(j + 1) * c] - p[j * c], c);
                        }
                        if full < filled {
                            costs[full] = chunk_fp((first + full) * c, n);
                        }
                    }
                    None => {
                        for (slot, sz) in costs.iter_mut().zip(&mut stream) {
                            *slot = chunk_fp(start, start + sz);
                            start += sz;
                            filled += 1;
                        }
                    }
                }
                for &fp in &costs[..filled] {
                    let served = (ring[head].0 + fp, ring[head].1);
                    let mut pos = head;
                    head = if head + 1 == threads { 0 } else { head + 1 };
                    if served < back {
                        while pos != head {
                            let prev = if pos == 0 { threads - 1 } else { pos - 1 };
                            if ring[prev] < served {
                                break;
                            }
                            ring[pos] = ring[prev];
                            pos = prev;
                        }
                    } else {
                        back = served;
                    }
                    ring[pos] = served;
                }
                nchunks += filled as u64;
                if filled < costs.len() {
                    break;
                }
            }
            for &(clock_fp, t) in ring.iter() {
                busy_ns[t] = clock_fp as f64 * 1e-6;
            }
            chunks_dispatched = nchunks;
        }
    }

    // SMT sharing: siblings on one core progress at eff(k) and speed up as
    // each finishes. Both paths above stored solo-speed work. Threads are
    // bucketed by flat core index in thread order — the same disjoint
    // groups (and in-group order) the old (socket, core)-keyed map
    // produced, without hashing; singleton groups are left untouched
    // (overlap of one thread is the identity), so a team with every core
    // single-occupied skips the pass outright.
    if machine.max_smt_occupancy(threads) > 1 {
        scratch.core_idx.clear();
        scratch.core_idx.extend((0..threads).map(|t| {
            let p = machine.place(t, threads);
            p.socket * machine.cores_per_socket + p.core
        }));
        const GROUPED: usize = usize::MAX;
        for t in 0..threads {
            let core = scratch.core_idx[t];
            if core == GROUPED {
                continue;
            }
            scratch.group_members.clear();
            scratch.group_solo.clear();
            scratch.group_members.push(t);
            scratch.group_solo.push(busy_ns[t]);
            // Indexed loop: `core_idx[t2]` is overwritten in-flight to
            // mark grouped threads, which an iterator borrow would block.
            #[allow(clippy::needless_range_loop)]
            for t2 in (t + 1)..threads {
                if scratch.core_idx[t2] == core {
                    scratch.core_idx[t2] = GROUPED;
                    scratch.group_members.push(t2);
                    scratch.group_solo.push(busy_ns[t2]);
                }
            }
            if scratch.group_members.len() > 1 {
                smt_overlap_finish_times_into(
                    &scratch.group_solo,
                    &machine.smt,
                    &mut scratch.group_order,
                    &mut scratch.group_finishes,
                );
                for (&t2, &f) in scratch.group_members.iter().zip(&scratch.group_finishes) {
                    busy_ns[t2] = f;
                }
            }
        }
    }

    // DRAM bandwidth floor: if the region's L3 miss traffic exceeds what
    // the memory controllers sustain, every thread stretches uniformly
    // (they are all queueing on the same channels). This is what makes
    // low thread counts competitive for streaming regions: fewer threads
    // at the same (saturated) bandwidth lose nothing, and configurations
    // that *reduce traffic* win outright.
    let sockets_used = machine.active_core_summary(threads).1.max(1);
    let dram_bytes = n as f64
        * region.memory.accesses_per_iter
        * cache.l3_miss_rate
        * machine.caches.line_bytes as f64;
    let bw_floor_ns = dram_bytes / (machine.caches.dram_bw_gbs * sockets_used as f64); // GB/s ⇒ B/ns
    let max_busy_raw = busy_ns.iter().cloned().fold(0.0, f64::max);
    if bw_floor_ns > max_busy_raw && max_busy_raw > 0.0 {
        let stretch = bw_floor_ns / max_busy_raw;
        for b in busy_ns.iter_mut() {
            *b *= stretch;
        }
    }

    let max_busy_ns = busy_ns.iter().cloned().fold(0.0, f64::max);
    let barrier_ns = machine.barrier_ns * (threads as f64).log2().max(1.0);
    // Structural master-only section inside the region: the master stays
    // busy, everyone else waits (reported as barrier time below).
    let critical_ns = region.critical_s * 1e9;
    let parallel_ns = fork_ns + max_busy_ns + critical_ns + barrier_ns;
    let time_s = region.serial_s + parallel_ns * 1e-9;

    // --- Energy -----------------------------------------------------------
    // Core-level busy time: a core is busy while any of its threads is.
    let total_cores = machine.total_cores();
    let core_busy_ns = &mut scratch.core_busy_ns;
    core_busy_ns.clear();
    core_busy_ns.resize(total_cores, 0.0);
    for (t, &b) in busy_ns.iter().enumerate() {
        let p = machine.place(t, threads);
        let idx = p.socket * machine.cores_per_socket + p.core;
        core_busy_ns[idx] = core_busy_ns[idx].max(b);
    }
    let p_core = machine.power.c0 + machine.power.c1 * f_ghz.powi(3);
    let p_core_base = machine.power.c0 + machine.power.c1 * machine.f_base_ghz.powi(3);
    let region_ns = time_s * 1e9;
    let mut energy_j = 0.0;
    // Uncore and DRAM background: both packages, for the whole region
    // (DRAM power is outside the RAPL package cap the paper could set —
    // "we used maximum power for other components" — but counts toward
    // the node's energy, per the paper's future work).
    energy_j += machine.sockets as f64
        * (machine.power.p_uncore_w + machine.power.p_dram_background_w)
        * time_s;
    for &b in core_busy_ns.iter() {
        let busy_s = (b * 1e-9).min(time_s);
        energy_j +=
            busy_s * p_core + ((region_ns - b).max(0.0) * 1e-9) * machine.power.p_core_idle_w;
    }
    // Serial section: the master core runs at base frequency (single
    // active core rarely hits the cap).
    energy_j += region.serial_s * (p_core_base - machine.power.p_core_idle_w).max(0.0);
    // Critical section: master busy at the capped frequency (idle power for
    // the waiting cores is already covered by the region-duration term).
    energy_j += region.critical_s * (p_core - machine.power.p_core_idle_w).max(0.0);
    // Cache/DRAM traffic energy.
    let accesses = n as f64 * region.memory.accesses_per_iter;
    energy_j += accesses * cache.energy_nj_per_access * 1e-9;

    let per_thread_busy_s: Vec<f64> = busy_ns
        .iter()
        .enumerate()
        .map(|(t, &b)| (b + if t == 0 { critical_ns } else { 0.0 }) * 1e-9)
        .collect();
    let per_thread_wait_s: Vec<f64> = busy_ns
        .iter()
        .enumerate()
        .map(|(t, &b)| (max_busy_ns - b + if t == 0 { 0.0 } else { critical_ns }) * 1e-9)
        .collect();
    SimReport {
        time_s,
        energy_j,
        f_ghz,
        cache,
        busy_sum_s: per_thread_busy_s.iter().sum(),
        wait_sum_s: per_thread_wait_s.iter().sum(),
        per_thread_busy_s,
        per_thread_wait_s,
        chunks_dispatched,
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ImbalanceProfile, MemoryProfile, StrideClass};

    fn region(iters: usize, imbalance: ImbalanceProfile) -> RegionModel {
        RegionModel {
            name: "test".into(),
            iterations: iters,
            cycles_per_iter: 50_000.0,
            imbalance,
            memory: MemoryProfile {
                footprint_bytes: 64.0 * 1024.0 * 1024.0,
                accesses_per_iter: 2_000.0,
                stride: StrideClass::Medium,
                temporal_reuse: 0.4,
                hot_bytes_per_thread: 32768.0,
            },
            serial_s: 0.0,
            critical_s: 0.0,
        }
    }

    fn crill() -> Machine {
        Machine::crill()
    }

    fn cfg(threads: usize, schedule: Schedule) -> SimConfig {
        SimConfig { threads, schedule }
    }

    #[test]
    fn more_threads_are_faster_uncapped() {
        let m = crill();
        let r = region(1024, ImbalanceProfile::Uniform);
        let t1 = simulate_region(&m, 115.0, &r, cfg(1, Schedule::static_block())).time_s;
        let t8 = simulate_region(&m, 115.0, &r, cfg(8, Schedule::static_block())).time_s;
        let t16 = simulate_region(&m, 115.0, &r, cfg(16, Schedule::static_block())).time_s;
        assert!(t8 < t1 / 4.0, "t1={t1} t8={t8}");
        assert!(t16 < t8, "t8={t8} t16={t16}");
    }

    #[test]
    fn lower_caps_are_slower() {
        let m = crill();
        let r = region(1024, ImbalanceProfile::Uniform);
        let mut prev = f64::INFINITY;
        for cap in [55.0, 70.0, 85.0, 100.0, 115.0] {
            let t = simulate_region(&m, cap, &r, cfg(16, Schedule::static_block())).time_s;
            assert!(t <= prev, "time must not increase with cap: {t} at {cap}");
            prev = t;
        }
    }

    #[test]
    fn dynamic_balances_imbalanced_loops_better_than_static() {
        let m = crill();
        let r = region(4096, ImbalanceProfile::Linear { slope: 1.5 });
        let st = simulate_region(&m, 115.0, &r, cfg(16, Schedule::static_block()));
        let dy = simulate_region(&m, 115.0, &r, cfg(16, Schedule::dynamic(8)));
        assert!(
            dy.barrier_total_s() < st.barrier_total_s(),
            "dynamic barrier {} vs static {}",
            dy.barrier_total_s(),
            st.barrier_total_s()
        );
        assert!(dy.imbalance() < st.imbalance());
    }

    #[test]
    fn granularity_imbalance_on_coarse_loops() {
        // 100 iterations on 32 threads: 3 vs 4 iterations per thread.
        // SMT sibling overlap absorbs part of it but ~10–15% remains;
        // dropping to 16 threads (6.25 → 7 iterations) shrinks it.
        let m = crill();
        let r = region(100, ImbalanceProfile::Uniform);
        let st32 = simulate_region(&m, 115.0, &r, cfg(32, Schedule::static_block()));
        let st16 = simulate_region(&m, 115.0, &r, cfg(16, Schedule::static_block()));
        assert!(st32.imbalance() > 0.10, "static imbalance {}", st32.imbalance());
        assert!(
            st16.imbalance() < st32.imbalance(),
            "16t {} vs 32t {}",
            st16.imbalance(),
            st32.imbalance()
        );
    }

    #[test]
    fn energy_scales_with_active_cores() {
        let m = crill();
        let r = region(4096, ImbalanceProfile::Uniform);
        let e4 = simulate_region(&m, 115.0, &r, cfg(4, Schedule::static_block()));
        let e16 = simulate_region(&m, 115.0, &r, cfg(16, Schedule::static_block()));
        // 16 threads draw more power...
        assert!(e16.avg_power_w() > e4.avg_power_w());
        // ...but finish faster.
        assert!(e16.time_s < e4.time_s);
    }

    #[test]
    fn capped_runs_use_less_power() {
        let m = crill();
        let r = region(4096, ImbalanceProfile::Uniform);
        let hi = simulate_region(&m, 115.0, &r, cfg(16, Schedule::static_block()));
        let lo = simulate_region(&m, 55.0, &r, cfg(16, Schedule::static_block()));
        assert!(lo.avg_power_w() < hi.avg_power_w());
        assert!(lo.f_ghz < hi.f_ghz);
    }

    #[test]
    fn report_invariants_hold() {
        let m = crill();
        let r = region(1000, ImbalanceProfile::Random { cv: 0.3, seed: 1 });
        for sched in [
            Schedule::static_block(),
            Schedule::dynamic(4),
            Schedule::guided(2),
            Schedule::trapezoid(4),
            Schedule::factoring(2),
            Schedule::awf(2),
        ] {
            let rep = simulate_region(&m, 85.0, &r, cfg(12, sched));
            assert_eq!(rep.per_thread_busy_s.len(), 12);
            assert!(rep.time_s > 0.0);
            assert!(rep.energy_j > 0.0);
            // Every thread's busy time is within the region duration.
            for (b, w) in rep.per_thread_busy_s.iter().zip(&rep.per_thread_wait_s) {
                assert!(*b >= 0.0 && *w >= 0.0);
                assert!(b + w <= rep.time_s + 1e-9);
            }
            // All iterations dispatched.
            assert!(rep.chunks_dispatched > 0);
        }
    }

    #[test]
    fn deterministic_across_calls() {
        let m = crill();
        let r = region(2000, ImbalanceProfile::Random { cv: 0.5, seed: 9 });
        let a = simulate_region(&m, 70.0, &r, cfg(16, Schedule::guided(4)));
        let b = simulate_region(&m, 70.0, &r, cfg(16, Schedule::guided(4)));
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.energy_j, b.energy_j);
    }

    #[test]
    fn serial_fraction_adds_time_at_one_core() {
        let m = crill();
        let mut r = region(1024, ImbalanceProfile::Uniform);
        let base = simulate_region(&m, 115.0, &r, cfg(16, Schedule::static_block()));
        r.serial_s = 0.5;
        let with_serial = simulate_region(&m, 115.0, &r, cfg(16, Schedule::static_block()));
        assert!((with_serial.time_s - base.time_s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_clamps_to_hw_threads() {
        let m = crill();
        let r = region(1024, ImbalanceProfile::Uniform);
        let rep = simulate_region(&m, 115.0, &r, cfg(1000, Schedule::static_block()));
        assert_eq!(rep.threads, 32);
    }

    #[test]
    fn straggler_repricing_stretches_time_and_barrier() {
        let m = crill();
        let r = region(1024, ImbalanceProfile::Uniform);
        let base = simulate_region(&m, 85.0, &r, cfg(16, Schedule::static_block()));
        let slow = base.with_straggler(&m, 1.5);
        assert!((slow.time_s - base.time_s * 1.5).abs() < 1e-12);
        assert!(slow.energy_j > base.energy_j);
        // Exactly one thread got busier; the rest wait at the barrier.
        let busier = slow
            .per_thread_busy_s
            .iter()
            .zip(&base.per_thread_busy_s)
            .filter(|(s, b)| s > b)
            .count();
        assert_eq!(busier, 1);
        assert!(slow.barrier_total_s() > base.barrier_total_s());
        // No-op factors return the report unchanged.
        assert_eq!(base.with_straggler(&m, 1.0).time_s, base.time_s);
    }

    #[test]
    fn report_totals_round_trip_and_are_required() {
        let m = crill();
        let r = region(1000, ImbalanceProfile::Random { cv: 0.3, seed: 1 });
        let rep = simulate_region(&m, 85.0, &r, cfg(12, Schedule::dynamic(4)));
        assert!(rep.busy_total_s() > 0.0 && rep.barrier_total_s() > 0.0);
        let json = serde_json::to_string(&rep).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.busy_total_s().to_bits(), rep.busy_total_s().to_bits());
        assert_eq!(back.barrier_total_s().to_bits(), rep.barrier_total_s().to_bits());
        for key in ["busy_sum_s", "wait_sum_s"] {
            let at = json.find(&format!("\"{key}\":")).expect("the total is serialised");
            let end = at + json[at..].find(',').unwrap() + 1;
            let stripped = format!("{}{}", &json[..at], &json[end..]);
            assert!(serde_json::from_str::<SimReport>(&stripped).is_err(), "{key} may not default");
        }
    }

    #[test]
    fn smt_helps_compute_bound_code_sublinearly() {
        // For compute-bound regions SMT adds throughput (2 × 0.62 > 1);
        // for memory-hungry regions the cache-contention penalty can erase
        // it — which is exactly the paper's SP finding.
        let m = crill();
        let mut r = region(8192, ImbalanceProfile::Uniform);
        r.memory.accesses_per_iter = 10.0; // essentially no memory traffic
        let t16 = simulate_region(&m, 115.0, &r, cfg(16, Schedule::static_block())).time_s;
        let t32 = simulate_region(&m, 115.0, &r, cfg(32, Schedule::static_block())).time_s;
        assert!(t32 < t16, "t16={t16} t32={t32}");
        assert!(t32 > t16 * 0.55, "t16={t16} t32={t32}");
    }
}
