//! Loop scheduling policies and chunk arithmetic.
//!
//! This module implements the scheduling-policy portfolio as one policy
//! engine: every family is defined by the chunk-size stream it emits
//! ([`ChunkStream`]), and the live dispenser, the chunk-count accounting and
//! the power simulator all consume that single stream.
//!
//! The classic OpenMP 4.0 families the ARCS paper tunes:
//!
//! * **static** without a chunk: the iteration space is divided into at most
//!   one contiguous block per thread (block partition, sizes differing by at
//!   most one). With a chunk `c`: chunks of `c` iterations are assigned to
//!   threads round-robin in thread order.
//! * **dynamic**: chunks of `c` iterations (default 1) are handed to threads
//!   on demand from a shared counter.
//! * **guided**: each grab takes `max(c, ceil(remaining / nthreads))`
//!   iterations (default minimum chunk 1), so chunk sizes decrease
//!   exponentially towards the minimum.
//!
//! The self-scheduling families from the scheduling-selection survey
//! (Korndörfer et al.), which win on irregular loads:
//!
//! * **trapezoid** (TSS): chunk sizes decrease *linearly* from
//!   `ceil(N / 2T)` to the minimum chunk — cheaper per-grab arithmetic than
//!   guided and a gentler front chunk on front-loaded imbalance.
//! * **factoring** (FAC2): work is dispensed in rounds of `T` equal chunks;
//!   each round sizes its chunks at `ceil(remaining / 2T)`, halving the
//!   outstanding work per round.
//! * **awf** (adaptive weighted factoring): factoring whose per-round batch
//!   fraction adapts with round index — later rounds take a larger share of
//!   the remaining work (`(r+1)/(r+2)·remaining/T` per chunk), a
//!   deterministic stand-in for AWF-B's measured-weight adaptation that
//!   keeps the stream a pure function of `(N, T, chunk)` for memoisation.
//!
//! The same arithmetic is reused by the `arcs-powersim` simulator so that the
//! simulated machine dispatches *exactly* the chunk sequence the live runtime
//! would.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The scheduling policy family.
///
/// New variants are appended after `Guided`: the derived `Hash` feeds the
/// simulator's memo keys and serialized traces pin the variant names, so
/// declaration order is part of the stable surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScheduleKind {
    /// Compile-time block/round-robin assignment; zero dispatch cost.
    Static,
    /// On-demand chunk grab from a shared counter.
    Dynamic,
    /// On-demand grab with exponentially decreasing chunk sizes.
    Guided,
    /// Trapezoid self-scheduling: linearly decreasing chunk sizes.
    Trapezoid,
    /// Factoring (FAC2): rounds of `T` equal chunks, halving per round.
    Factoring,
    /// Adaptive weighted factoring: factoring with a round-adaptive fraction.
    AdaptiveWeightedFactoring,
}

impl ScheduleKind {
    /// The classic OpenMP families, in the order the paper's Table I lists
    /// them. This is the portfolio `ConfigSpace::crill()` searches.
    pub const CLASSIC: [ScheduleKind; 3] =
        [ScheduleKind::Dynamic, ScheduleKind::Static, ScheduleKind::Guided];

    /// The self-scheduling extensions from the survey portfolio.
    pub const SELF_SCHEDULING: [ScheduleKind; 3] =
        [ScheduleKind::Trapezoid, ScheduleKind::Factoring, ScheduleKind::AdaptiveWeightedFactoring];

    /// Every policy family: Table-I order first, then the self-scheduling
    /// extensions. Sweep bins derive their rows from this single listing.
    pub const ALL: [ScheduleKind; 6] = [
        ScheduleKind::Dynamic,
        ScheduleKind::Static,
        ScheduleKind::Guided,
        ScheduleKind::Trapezoid,
        ScheduleKind::Factoring,
        ScheduleKind::AdaptiveWeightedFactoring,
    ];

    /// Lower-case OpenMP spelling (`OMP_SCHEDULE` style).
    pub fn name(self) -> &'static str {
        match self {
            ScheduleKind::Static => "static",
            ScheduleKind::Dynamic => "dynamic",
            ScheduleKind::Guided => "guided",
            ScheduleKind::Trapezoid => "trapezoid",
            ScheduleKind::Factoring => "factoring",
            ScheduleKind::AdaptiveWeightedFactoring => "awf",
        }
    }

    /// Inverse of [`name`](Self::name), for CLI and trace-field parsing.
    pub fn from_name(name: &str) -> Option<ScheduleKind> {
        ScheduleKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for ScheduleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A complete schedule clause: policy plus optional chunk parameter.
///
/// `chunk == None` selects the runtime default for the policy: block
/// partition for `static`, `1` for `dynamic`, minimum `1` for `guided`.
/// This mirrors the paper's "default" chunk entry in the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schedule {
    pub kind: ScheduleKind,
    pub chunk: Option<usize>,
}

impl Schedule {
    pub const fn new(kind: ScheduleKind, chunk: Option<usize>) -> Self {
        Schedule { kind, chunk }
    }

    /// The OpenMP default schedule: `static` with the block partition.
    pub const fn runtime_default() -> Self {
        Schedule { kind: ScheduleKind::Static, chunk: None }
    }

    pub const fn static_block() -> Self {
        Schedule { kind: ScheduleKind::Static, chunk: None }
    }

    pub const fn static_chunked(chunk: usize) -> Self {
        Schedule { kind: ScheduleKind::Static, chunk: Some(chunk) }
    }

    pub const fn dynamic(chunk: usize) -> Self {
        Schedule { kind: ScheduleKind::Dynamic, chunk: Some(chunk) }
    }

    pub const fn guided(chunk: usize) -> Self {
        Schedule { kind: ScheduleKind::Guided, chunk: Some(chunk) }
    }

    pub const fn trapezoid(min_chunk: usize) -> Self {
        Schedule { kind: ScheduleKind::Trapezoid, chunk: Some(min_chunk) }
    }

    pub const fn factoring(min_chunk: usize) -> Self {
        Schedule { kind: ScheduleKind::Factoring, chunk: Some(min_chunk) }
    }

    pub const fn awf(min_chunk: usize) -> Self {
        Schedule { kind: ScheduleKind::AdaptiveWeightedFactoring, chunk: Some(min_chunk) }
    }

    /// Effective minimum chunk for on-demand policies.
    pub fn min_chunk(&self) -> usize {
        self.chunk.unwrap_or(1).max(1)
    }

    /// Does dispatching a chunk require shared-state synchronisation?
    ///
    /// `static` is computed locally per thread; `dynamic` and `guided` pay an
    /// atomic fetch per chunk. The power simulator charges the corresponding
    /// dispatch cost.
    pub fn has_dispatch_cost(&self) -> bool {
        !matches!(self.kind, ScheduleKind::Static)
    }

    /// One representative for every schedule that, on a loop of `len`
    /// iterations run by `nthreads` threads, yields the same
    /// [`ChunkStream`], the same [`chunk_count`] and the same dispatch
    /// class — so a simulation keyed by it prices each distinct chunk
    /// stream once. Idempotent.
    ///
    /// * `static` block stays as it is; `static,c` becomes
    ///   `static,min(max(c, 1), len)` (a chunk of `len` or more is one
    ///   chunk, owned by thread 0).
    /// * An on-demand kind keeps its kind at chunk [`min_chunk`]
    ///   (`default` and `0` both mean 1) …
    /// * … unless it is `dynamic`, or its minimum chunk `c` is at least
    ///   `⌈len / nthreads⌉`: then no grab exceeds `c` (guided's share,
    ///   trapezoid's first chunk and every factoring round are all at most
    ///   `⌈len / nthreads⌉`), so the stream is `dynamic,min(c, len)`'s.
    ///
    /// [`min_chunk`]: Self::min_chunk
    pub fn canonical(&self, len: usize, nthreads: usize) -> Schedule {
        assert!(nthreads > 0, "nthreads must be positive");
        match (self.kind, self.chunk) {
            (ScheduleKind::Static, None) => *self,
            (ScheduleKind::Static, Some(c)) => Schedule::static_chunked(c.clamp(1, len.max(1))),
            (kind, _) => {
                let c = self.min_chunk();
                if kind == ScheduleKind::Dynamic || c >= len.div_ceil(nthreads) {
                    Schedule::dynamic(c.min(len.max(1)))
                } else {
                    Schedule::new(kind, Some(c))
                }
            }
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.chunk {
            Some(c) => write!(f, "{},{}", self.kind, c),
            None => write!(f, "{},default", self.kind),
        }
    }
}

/// A half-open iteration sub-range `[start, end)` assigned as one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    pub start: usize,
    pub end: usize,
}

impl Chunk {
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Static assignment: for thread `tid` of `nthreads`, the list of chunks it
/// executes, in execution order. Pure function of the inputs.
pub fn static_chunks_for_thread(
    len: usize,
    nthreads: usize,
    chunk: Option<usize>,
    tid: usize,
) -> Vec<Chunk> {
    assert!(nthreads > 0, "nthreads must be positive");
    assert!(tid < nthreads, "thread id out of range");
    if len == 0 {
        return Vec::new();
    }
    match chunk {
        None => {
            // Block partition: the first `rem` threads get `base + 1`
            // iterations, matching `schedule(static)` in every mainstream
            // OpenMP runtime.
            let base = len / nthreads;
            let rem = len % nthreads;
            let (start, size) = if tid < rem {
                (tid * (base + 1), base + 1)
            } else {
                (rem * (base + 1) + (tid - rem) * base, base)
            };
            if size == 0 {
                Vec::new()
            } else {
                vec![Chunk { start, end: start + size }]
            }
        }
        Some(c) => {
            let c = c.max(1);
            // Round-robin chunks: thread t owns chunks t, t+nthreads, ...
            let mut out = Vec::new();
            let mut idx = tid;
            loop {
                let start = idx * c;
                if start >= len {
                    break;
                }
                let end = (start + c).min(len);
                out.push(Chunk { start, end });
                idx += nthreads;
            }
            out
        }
    }
}

/// Per-policy generator state inside a [`ChunkStream`].
#[derive(Debug, Clone)]
enum StreamState {
    /// `static` block partition: one chunk per thread, in thread order.
    StaticBlock {
        base: usize,
        rem: usize,
        tid: usize,
    },
    /// Fixed-size grabs: `static,c` (round-robin ownership does not change
    /// the start-order sizes) and `dynamic,c`.
    FixedSize,
    Guided,
    Trapezoid {
        next: usize,
        delta: usize,
    },
    Factoring {
        left: usize,
        size: usize,
    },
    Awf {
        left: usize,
        size: usize,
        round: usize,
    },
}

/// The policy engine: one iterator that emits, for *any* schedule, the
/// chunk sizes in dispatch (start) order. The stream is a pure function of
/// `(len, nthreads, schedule)` — it partitions `0..len` exactly and never
/// emits a zero-size chunk. The live [`Dispenser`], [`chunk_count`] and the
/// power simulator's greedy dispatcher all consume this one generator.
#[derive(Debug, Clone)]
pub struct ChunkStream {
    remaining: usize,
    nthreads: usize,
    min: usize,
    state: StreamState,
}

impl ChunkStream {
    pub fn new(len: usize, nthreads: usize, schedule: Schedule) -> Self {
        assert!(nthreads > 0, "nthreads must be positive");
        let min = schedule.min_chunk();
        let state = match schedule.kind {
            ScheduleKind::Static => match schedule.chunk {
                None => {
                    StreamState::StaticBlock { base: len / nthreads, rem: len % nthreads, tid: 0 }
                }
                Some(_) => StreamState::FixedSize,
            },
            ScheduleKind::Dynamic => StreamState::FixedSize,
            ScheduleKind::Guided => StreamState::Guided,
            ScheduleKind::Trapezoid => {
                // Classic TSS: first chunk ceil(N/2T), last chunk the
                // minimum, linear decrement sized so the ramp sums to ~N.
                let first = len.div_ceil(2 * nthreads).max(min);
                let count = (2 * len).div_ceil(first + min).max(1);
                let delta = if count > 1 { (first - min) / (count - 1) } else { 0 };
                StreamState::Trapezoid { next: first, delta }
            }
            ScheduleKind::Factoring => StreamState::Factoring { left: 0, size: 0 },
            ScheduleKind::AdaptiveWeightedFactoring => {
                StreamState::Awf { left: 0, size: 0, round: 0 }
            }
        };
        ChunkStream { remaining: len, nthreads, min, state }
    }
}

impl Iterator for ChunkStream {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.remaining == 0 {
            return None;
        }
        let take = match &mut self.state {
            StreamState::StaticBlock { base, rem, tid } => {
                // First `rem` threads get base+1. When base == 0 the
                // trailing threads own nothing, but then `remaining`
                // exhausts before this cursor reaches them.
                let sz = if *tid < *rem { *base + 1 } else { *base };
                *tid += 1;
                sz
            }
            StreamState::FixedSize => self.min.min(self.remaining),
            StreamState::Guided => {
                self.remaining.div_ceil(self.nthreads).max(self.min).min(self.remaining)
            }
            StreamState::Trapezoid { next, delta } => {
                let take = (*next).min(self.remaining);
                *next = next.saturating_sub(*delta).max(self.min);
                take
            }
            StreamState::Factoring { left, size } => {
                if *left == 0 {
                    *size = self.remaining.div_ceil(2 * self.nthreads).max(self.min);
                    *left = self.nthreads;
                }
                *left -= 1;
                (*size).min(self.remaining)
            }
            StreamState::Awf { left, size, round } => {
                if *left == 0 {
                    // Round r takes (r+1)/(r+2) of remaining/T per chunk:
                    // 1/2 (like FAC2), then 2/3, 3/4, … — u128 keeps the
                    // product exact for any practical N.
                    let r = *round as u128;
                    let num = self.remaining as u128 * (r + 1);
                    let den = self.nthreads as u128 * (r + 2);
                    *size = (num.div_ceil(den) as usize).max(self.min);
                    *left = self.nthreads;
                    *round += 1;
                }
                *left -= 1;
                (*size).min(self.remaining)
            }
        };
        self.remaining -= take;
        Some(take)
    }
}

/// The chunk-size sequence an on-demand schedule dispenses, in dispatch
/// order, independent of which thread grabs each chunk. Used by the
/// simulator.
pub fn on_demand_chunk_sizes(len: usize, nthreads: usize, schedule: Schedule) -> Vec<usize> {
    let mut out = Vec::new();
    on_demand_chunk_sizes_into(len, nthreads, schedule, &mut out);
    out
}

/// [`on_demand_chunk_sizes`] writing into a caller-owned buffer (cleared
/// first), so simulator hot loops can reuse one allocation across
/// invocations. A thin wrapper over [`ChunkStream`] — the simulator and the
/// live runtime consume the same generator.
pub fn on_demand_chunk_sizes_into(
    len: usize,
    nthreads: usize,
    schedule: Schedule,
    out: &mut Vec<usize>,
) {
    assert!(nthreads > 0);
    debug_assert!(len == 0 || schedule.has_dispatch_cost(), "static schedules are not on-demand");
    out.clear();
    out.extend(ChunkStream::new(len, nthreads, schedule));
}

/// Total number of chunks the schedule produces for a loop of `len`
/// iterations on `nthreads` threads. This is the number of dispatch events
/// (and, for on-demand policies, shared-counter operations) the loop incurs.
pub fn chunk_count(len: usize, nthreads: usize, schedule: Schedule) -> usize {
    if len == 0 {
        return 0;
    }
    match schedule.kind {
        ScheduleKind::Static => match schedule.chunk {
            None => nthreads.min(len),
            Some(c) => len.div_ceil(c.max(1)),
        },
        // Fixed-size grabs: every chunk is `min_chunk` but a trailing
        // remainder, so offline sweeps pricing `dynamic,1` on a
        // million-iteration loop do not walk the stream just to count it.
        ScheduleKind::Dynamic => len.div_ceil(schedule.min_chunk()),
        _ => ChunkStream::new(len, nthreads, schedule).count(),
    }
}

/// Thread-safe on-demand chunk dispenser used by the live runtime.
///
/// `dynamic` uses a single fetch-add. `guided` uses a CAS loop because the
/// grab size depends on the remaining count; this matches libgomp's
/// implementation strategy. The self-scheduling policies carry round state
/// no single CAS can update, so they serialise grabs through a mutex-guarded
/// [`ChunkStream`] cursor — the same stream the simulator prices.
pub struct Dispenser {
    next: AtomicUsize,
    len: usize,
    nthreads: usize,
    schedule: Schedule,
    stream: Option<Mutex<StreamCursor>>,
}

struct StreamCursor {
    stream: ChunkStream,
    pos: usize,
}

impl Dispenser {
    pub fn new(len: usize, nthreads: usize, schedule: Schedule) -> Self {
        debug_assert!(schedule.has_dispatch_cost());
        let nthreads = nthreads.max(1);
        let stream = match schedule.kind {
            ScheduleKind::Static | ScheduleKind::Dynamic | ScheduleKind::Guided => None,
            _ => Some(Mutex::new(StreamCursor {
                stream: ChunkStream::new(len, nthreads, schedule),
                pos: 0,
            })),
        };
        Dispenser { next: AtomicUsize::new(0), len, nthreads, schedule, stream }
    }

    /// Grab the next chunk, or `None` when the iteration space is exhausted.
    pub fn next_chunk(&self) -> Option<Chunk> {
        let min = self.schedule.min_chunk();
        match self.schedule.kind {
            ScheduleKind::Dynamic => {
                let start = self.next.fetch_add(min, Ordering::Relaxed);
                if start >= self.len {
                    None
                } else {
                    Some(Chunk { start, end: (start + min).min(self.len) })
                }
            }
            ScheduleKind::Guided => {
                let mut cur = self.next.load(Ordering::Relaxed);
                loop {
                    if cur >= self.len {
                        return None;
                    }
                    let remaining = self.len - cur;
                    let take = remaining.div_ceil(self.nthreads).max(min).min(remaining);
                    match self.next.compare_exchange_weak(
                        cur,
                        cur + take,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return Some(Chunk { start: cur, end: cur + take }),
                        Err(actual) => cur = actual,
                    }
                }
            }
            ScheduleKind::Static => unreachable!("static schedules use static_chunks_for_thread"),
            _ => {
                let mut cursor =
                    self.stream.as_ref().expect("stream cursor").lock().unwrap_or_else(
                        // A panic while holding the lock cannot leave the
                        // cursor mid-update: `next()` commits size and
                        // position together, so the poisoned state is valid.
                        |poisoned| poisoned.into_inner(),
                    );
                let take = cursor.stream.next()?;
                let start = cursor.pos;
                cursor.pos += take;
                Some(Chunk { start, end: start + take })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_static(len: usize, nthreads: usize, chunk: Option<usize>) -> Vec<usize> {
        let mut seen = Vec::new();
        for tid in 0..nthreads {
            for ch in static_chunks_for_thread(len, nthreads, chunk, tid) {
                seen.extend(ch.start..ch.end);
            }
        }
        seen.sort_unstable();
        seen
    }

    #[test]
    fn static_block_partitions_exactly() {
        for &(len, nt) in &[(0, 4), (1, 4), (7, 3), (100, 8), (8, 8), (5, 8), (33, 32)] {
            let seen = collect_static(len, nt, None);
            assert_eq!(seen, (0..len).collect::<Vec<_>>(), "len={len} nt={nt}");
        }
    }

    #[test]
    fn static_block_sizes_differ_by_at_most_one() {
        let sizes: Vec<usize> = (0..8)
            .map(|t| static_chunks_for_thread(100, 8, None, t).iter().map(Chunk::len).sum())
            .collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min <= 1, "{sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 100);
    }

    #[test]
    fn static_chunked_round_robin() {
        // len 10, chunk 3, 2 threads: chunks [0,3) [3,6) [6,9) [9,10)
        // thread 0 gets chunks 0 and 2; thread 1 gets chunks 1 and 3.
        let t0 = static_chunks_for_thread(10, 2, Some(3), 0);
        let t1 = static_chunks_for_thread(10, 2, Some(3), 1);
        assert_eq!(t0, vec![Chunk { start: 0, end: 3 }, Chunk { start: 6, end: 9 }]);
        assert_eq!(t1, vec![Chunk { start: 3, end: 6 }, Chunk { start: 9, end: 10 }]);
    }

    #[test]
    fn static_chunked_covers_exactly() {
        for &(len, nt, c) in &[(100, 8, 7), (10, 2, 3), (5, 8, 2), (64, 4, 64), (64, 4, 1)] {
            let seen = collect_static(len, nt, Some(c));
            assert_eq!(seen, (0..len).collect::<Vec<_>>(), "len={len} nt={nt} c={c}");
        }
    }

    #[test]
    fn dynamic_sizes_are_constant() {
        let sizes = on_demand_chunk_sizes(100, 4, Schedule::dynamic(8));
        assert_eq!(sizes.len(), 13);
        assert!(sizes[..12].iter().all(|&s| s == 8));
        assert_eq!(sizes[12], 4);
        assert_eq!(sizes.iter().sum::<usize>(), 100);
    }

    #[test]
    fn guided_sizes_decrease_to_minimum() {
        let sizes = on_demand_chunk_sizes(1000, 4, Schedule::guided(16));
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "guided sizes must be non-increasing: {sizes:?}");
        }
        // Every chunk except possibly the last respects the minimum.
        for &s in &sizes[..sizes.len() - 1] {
            assert!(s >= 16);
        }
        // First chunk is remaining/nthreads = 250.
        assert_eq!(sizes[0], 250);
    }

    #[test]
    fn guided_default_min_is_one() {
        let sizes = on_demand_chunk_sizes(10, 4, Schedule::new(ScheduleKind::Guided, None));
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert_eq!(sizes[0], 3); // ceil(10/4)
    }

    #[test]
    fn dispenser_dynamic_covers_exactly_once() {
        let d = Dispenser::new(101, 4, Schedule::dynamic(7));
        let mut seen = [false; 101];
        while let Some(ch) = d.next_chunk() {
            for (i, s) in seen.iter_mut().enumerate().take(ch.end).skip(ch.start) {
                assert!(!*s, "iteration {i} dispensed twice");
                *s = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn dispenser_guided_matches_sequence() {
        let sched = Schedule::guided(4);
        let d = Dispenser::new(500, 8, sched);
        let mut sizes = Vec::new();
        while let Some(ch) = d.next_chunk() {
            sizes.push(ch.len());
        }
        assert_eq!(sizes, on_demand_chunk_sizes(500, 8, sched));
    }

    #[test]
    fn dispenser_is_safe_under_contention() {
        use std::sync::Arc;
        let d = Arc::new(Dispenser::new(100_000, 8, Schedule::guided(1)));
        let counters: Vec<_> = (0..8)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let mut total = 0usize;
                    while let Some(ch) = d.next_chunk() {
                        total += ch.len();
                    }
                    total
                })
            })
            .collect();
        let total: usize = counters.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100_000);
    }

    #[test]
    fn chunk_count_matches_reality() {
        assert_eq!(chunk_count(100, 8, Schedule::static_block()), 8);
        assert_eq!(chunk_count(5, 8, Schedule::static_block()), 5);
        assert_eq!(chunk_count(100, 8, Schedule::static_chunked(7)), 15);
        assert_eq!(chunk_count(100, 4, Schedule::dynamic(8)), 13);
        assert_eq!(
            chunk_count(1000, 4, Schedule::guided(16)),
            on_demand_chunk_sizes(1000, 4, Schedule::guided(16)).len()
        );
        assert_eq!(chunk_count(0, 4, Schedule::dynamic(1)), 0);
    }

    #[test]
    fn canonical_names_one_schedule_per_stream() {
        // Defaults and 0 mean chunk 1; a chunk of n or more is one chunk.
        assert_eq!(
            Schedule::new(ScheduleKind::Guided, None).canonical(1000, 8),
            Schedule::guided(1)
        );
        assert_eq!(
            Schedule::new(ScheduleKind::Dynamic, Some(0)).canonical(10, 4),
            Schedule::dynamic(1)
        );
        assert_eq!(Schedule::static_chunked(64).canonical(50, 4), Schedule::static_chunked(50));
        assert_eq!(Schedule::static_block().canonical(50, 4), Schedule::static_block());
        // ⌈1000/8⌉ = 125: a minimum chunk of 125 caps every grab.
        assert_eq!(Schedule::guided(125).canonical(1000, 8), Schedule::dynamic(125));
        assert_eq!(Schedule::guided(124).canonical(1000, 8), Schedule::guided(124));
        assert_eq!(Schedule::trapezoid(2000).canonical(1000, 8), Schedule::dynamic(1000));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Schedule::guided(8).to_string(), "guided,8");
        assert_eq!(Schedule::runtime_default().to_string(), "static,default");
        assert_eq!(Schedule::trapezoid(4).to_string(), "trapezoid,4");
        assert_eq!(Schedule::factoring(2).to_string(), "factoring,2");
        assert_eq!(Schedule::awf(1).to_string(), "awf,1");
    }

    #[test]
    fn names_round_trip() {
        for kind in ScheduleKind::ALL {
            assert_eq!(ScheduleKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ScheduleKind::from_name("bogus"), None);
    }

    #[test]
    fn stream_matches_legacy_on_demand_arithmetic() {
        // The stream IS the legacy formulas for dynamic/guided.
        for &(len, nt) in &[(0, 4), (1, 1), (100, 4), (1000, 4), (997, 13)] {
            for sched in [Schedule::dynamic(8), Schedule::guided(16), Schedule::guided(1)] {
                let stream: Vec<usize> = ChunkStream::new(len, nt, sched).collect();
                assert_eq!(stream, on_demand_chunk_sizes(len, nt, sched), "{sched} {len}/{nt}");
            }
        }
    }

    #[test]
    fn stream_static_block_matches_per_thread_sizes() {
        for &(len, nt) in &[(0, 4), (5, 8), (100, 8), (33, 32), (7, 3)] {
            let stream: Vec<usize> = ChunkStream::new(len, nt, Schedule::static_block()).collect();
            let per_thread: Vec<usize> = (0..nt)
                .filter_map(|t| {
                    let chs = static_chunks_for_thread(len, nt, None, t);
                    chs.first().map(|c| c.len())
                })
                .collect();
            assert_eq!(stream, per_thread, "len={len} nt={nt}");
        }
    }

    #[test]
    fn trapezoid_decreases_linearly_and_partitions() {
        let sizes: Vec<usize> = ChunkStream::new(1000, 4, Schedule::trapezoid(8)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1000);
        // First chunk is ceil(N/2T) = 125; sizes never increase and step
        // down by a constant delta until the minimum.
        assert_eq!(sizes[0], 125);
        for w in sizes.windows(2) {
            assert!(w[0] >= w[1], "trapezoid sizes must be non-increasing: {sizes:?}");
        }
        let deltas: Vec<i64> = sizes.windows(2).map(|w| w[0] as i64 - w[1] as i64).collect();
        // All interior steps equal (the final remainder chunk may truncate).
        assert!(deltas[..deltas.len() - 1].windows(2).all(|d| d[0] == d[1]), "{deltas:?}");
    }

    #[test]
    fn factoring_halves_per_round() {
        let sizes: Vec<usize> = ChunkStream::new(1600, 4, Schedule::factoring(1)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 1600);
        // Round 0: ceil(1600/8) = 200 ×4; round 1: ceil(800/8) = 100 ×4 …
        assert_eq!(&sizes[..8], &[200, 200, 200, 200, 100, 100, 100, 100]);
    }

    #[test]
    fn awf_diverges_from_factoring_after_round_zero() {
        let fac: Vec<usize> = ChunkStream::new(1600, 4, Schedule::factoring(1)).collect();
        let awf: Vec<usize> = ChunkStream::new(1600, 4, Schedule::awf(1)).collect();
        assert_eq!(awf.iter().sum::<usize>(), 1600);
        // Same opening round (fraction 1/2), larger grabs afterwards.
        assert_eq!(&awf[..4], &fac[..4]);
        assert!(awf[4] > fac[4], "awf {awf:?} vs fac {fac:?}");
        assert!(awf.len() < fac.len());
    }

    #[test]
    fn self_scheduling_streams_partition_exactly() {
        for kind in ScheduleKind::SELF_SCHEDULING {
            for &(len, nt, min) in &[(0, 4, 1), (1, 1, 1), (97, 3, 2), (5000, 32, 16), (10, 8, 4)] {
                let sched = Schedule::new(kind, Some(min));
                let sizes: Vec<usize> = ChunkStream::new(len, nt, sched).collect();
                assert_eq!(sizes.iter().sum::<usize>(), len, "{sched} {len}/{nt}");
                assert!(sizes.iter().all(|&s| s > 0), "{sched} emitted a zero chunk");
                assert_eq!(chunk_count(len, nt, sched), sizes.len());
            }
        }
    }

    #[test]
    fn dispenser_self_scheduling_matches_stream() {
        for kind in ScheduleKind::SELF_SCHEDULING {
            let sched = Schedule::new(kind, Some(3));
            let d = Dispenser::new(700, 8, sched);
            let mut sizes = Vec::new();
            let mut next_expected = 0;
            while let Some(ch) = d.next_chunk() {
                assert_eq!(ch.start, next_expected);
                next_expected = ch.end;
                sizes.push(ch.len());
            }
            assert_eq!(next_expected, 700);
            let expected: Vec<usize> = ChunkStream::new(700, 8, sched).collect();
            assert_eq!(sizes, expected, "{sched}");
        }
    }

    #[test]
    fn dispenser_trapezoid_is_safe_under_contention() {
        use std::sync::Arc;
        let d = Arc::new(Dispenser::new(100_000, 8, Schedule::trapezoid(1)));
        let counters: Vec<_> = (0..8)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || {
                    let mut total = 0usize;
                    while let Some(ch) = d.next_chunk() {
                        total += ch.len();
                    }
                    total
                })
            })
            .collect();
        let total: usize = counters.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 100_000);
    }
}
