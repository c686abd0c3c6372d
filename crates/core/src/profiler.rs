//! TAU-style OMPT profiler.
//!
//! The paper's Fig. 9 analysis uses TAU to break each region's inclusive
//! time into `OpenMP_IMPLICIT_TASK` / `OpenMP_LOOP` / `OpenMP_BARRIER`.
//! [`OmptProfiler`] is the live-path equivalent: an OMPT tool that
//! aggregates exactly that breakdown from the per-thread records the runtime
//! emits at every join point. Attach it alongside (or without) ARCS:
//!
//! ```
//! use arcs::profiler::OmptProfiler;
//! use arcs_omprt::Runtime;
//! use std::sync::Arc;
//!
//! let rt = Runtime::new(2);
//! let profiler = OmptProfiler::attach(&rt);
//! let region = rt.register_region("hot");
//! rt.parallel_for(region, 0..128, |_| {});
//! let rows = profiler.report();
//! assert_eq!(rows[0].invocations, 1);
//! assert!(rows[0].implicit_task_s >= rows[0].loop_s);
//! ```

use arcs_omprt::{RegionId, RegionRecord, Runtime, Tool};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Aggregated OMPT event times for one region.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegionProfile {
    pub region: String,
    pub invocations: u64,
    /// Σ per-thread (busy + barrier) — the OMPT `OpenMP_IMPLICIT_TASK` sum.
    pub implicit_task_s: f64,
    /// Σ per-thread loop-body time — `OpenMP_LOOP`.
    pub loop_s: f64,
    /// Σ per-thread barrier wait — `OpenMP_BARRIER`.
    pub barrier_s: f64,
    /// Σ wall-clock region durations (per-call mean = this / invocations).
    pub wall_s: f64,
}

impl RegionProfile {
    /// Fraction of the inclusive time spent waiting at barriers — the
    /// paper's load-balance indicator.
    pub fn barrier_fraction(&self) -> f64 {
        if self.implicit_task_s > 0.0 {
            self.barrier_s / self.implicit_task_s
        } else {
            0.0
        }
    }

    pub fn mean_call_s(&self) -> f64 {
        if self.invocations > 0 {
            self.wall_s / self.invocations as f64
        } else {
            0.0
        }
    }
}

#[derive(Default)]
struct State {
    by_region: HashMap<RegionId, RegionProfile>,
}

/// The profiler tool. Create with [`OmptProfiler::attach`].
pub struct OmptProfiler {
    state: Mutex<State>,
}

struct Adapter {
    profiler: Arc<OmptProfiler>,
}

impl OmptProfiler {
    /// Attach a profiler to `rt`'s tool chain and return a handle for
    /// reading reports. The tool only sees region *ids*; names resolve at
    /// report time through the runtime handle the caller holds.
    pub fn attach(rt: &Runtime) -> Arc<OmptProfiler> {
        let profiler = Arc::new(OmptProfiler { state: Mutex::new(State::default()) });
        rt.tools().register(Arc::new(Adapter { profiler: Arc::clone(&profiler) }));
        profiler
    }

    fn record(&self, region: RegionId, rec: &RegionRecord) {
        let mut st = self.state.lock();
        let p = st.by_region.entry(region).or_default();
        p.invocations += 1;
        p.wall_s += rec.duration.as_secs_f64();
        for t in &rec.per_thread {
            let busy = t.busy.as_secs_f64();
            let wait = t.barrier_wait.as_secs_f64();
            p.loop_s += busy;
            p.barrier_s += wait;
            p.implicit_task_s += busy + wait;
        }
    }

    /// Profiles sorted by region name, so report output is deterministic
    /// across runs (inclusive times of a live run never repeat exactly).
    /// Region names are resolved through `rt`.
    pub fn report_named(&self, rt: &Runtime) -> Vec<RegionProfile> {
        let st = self.state.lock();
        let mut rows: Vec<RegionProfile> = st
            .by_region
            .iter()
            .map(|(id, p)| RegionProfile { region: rt.region_name(*id), ..p.clone() })
            .collect();
        rows.sort_by(|a, b| a.region.cmp(&b.region));
        rows
    }

    /// Profiles with numeric region labels (no runtime handle needed),
    /// sorted by label.
    pub fn report(&self) -> Vec<RegionProfile> {
        let st = self.state.lock();
        let mut rows: Vec<RegionProfile> = st
            .by_region
            .iter()
            .map(|(id, p)| RegionProfile { region: id.to_string(), ..p.clone() })
            .collect();
        rows.sort_by(|a, b| a.region.cmp(&b.region));
        rows
    }

    /// Drop all accumulated data (between experiment phases).
    pub fn reset(&self) {
        self.state.lock().by_region.clear();
    }
}

impl Tool for Adapter {
    fn parallel_end(&self, region: RegionId, record: &RegionRecord) {
        self.profiler.record(region, record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_omprt::Schedule;

    #[test]
    fn aggregates_event_breakdown() {
        let rt = Runtime::new(4);
        let profiler = OmptProfiler::attach(&rt);
        let fast = rt.register_region("fast");
        let slow = rt.register_region("slow");
        rt.set_schedule(Schedule::static_block());
        for _ in 0..5 {
            rt.parallel_for(fast, 0..64, |_| {});
            rt.parallel_for(slow, 0..64, |i| {
                if i < 16 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
            });
        }
        let rows = profiler.report_named(&rt);
        assert_eq!(rows.len(), 2);
        // Rows come back sorted by region name (deterministic output).
        assert_eq!(rows[0].region, "fast");
        assert_eq!(rows[1].region, "slow");
        // The imbalanced region dominates inclusive time and shows barrier
        // waits (threads without the slow block finish early).
        let slow = &rows[1];
        assert!(slow.implicit_task_s >= rows[0].implicit_task_s);
        assert_eq!(slow.invocations, 5);
        assert!(slow.barrier_s > 0.0);
        assert!(slow.barrier_fraction() > 0.0 && slow.barrier_fraction() < 1.0);
        for r in &rows {
            assert!(r.implicit_task_s + 1e-12 >= r.loop_s + r.barrier_s - 1e-9);
            assert!(r.mean_call_s() > 0.0);
        }
    }

    #[test]
    fn reset_clears_state() {
        let rt = Runtime::new(2);
        let profiler = OmptProfiler::attach(&rt);
        let region = rt.register_region("r");
        rt.parallel_for(region, 0..8, |_| {});
        assert_eq!(profiler.report().len(), 1);
        profiler.reset();
        assert!(profiler.report().is_empty());
    }

    #[test]
    fn coexists_with_live_arcs() {
        use crate::{ArcsLive, ConfigSpace, TunerOptions};
        use std::sync::Arc as StdArc;
        let rt = StdArc::new(Runtime::new(2));
        let profiler = OmptProfiler::attach(&rt);
        let space = ConfigSpace {
            threads: vec![crate::ThreadChoice::Count(1), crate::ThreadChoice::Default],
            schedules: vec![crate::ScheduleChoice::Default],
            chunks: vec![crate::ChunkChoice::Default],
            default_threads: 2,
            freqs_ghz: Vec::new(),
        };
        let _live = ArcsLive::attach(StdArc::clone(&rt), TunerOptions::online(space));
        let region = rt.register_region("both");
        for _ in 0..10 {
            rt.parallel_for(region, 0..32, |_| {});
        }
        let rows = profiler.report_named(&rt);
        assert_eq!(rows[0].invocations, 10);
    }
}
