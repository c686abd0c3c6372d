//! OMPT-like tool interface.
//!
//! The OpenMP Tools API (OMPT) lets a tool register callbacks that the
//! runtime invokes at well-defined execution points. ARCS's APEX layer
//! subscribes to `parallel_begin` / `parallel_end` to drive its timers and
//! to learn each region's identity. We reproduce the subset of the OMPT
//! draft the paper relies on:
//!
//! * `parallel_begin(region, team_size)` — fork point, on the master.
//! * `parallel_end(region, &RegionRecord)` — join point, on the master,
//!   carrying the full measurement record.
//! * `implicit_task(region, thread, stats)` — one per team member at the
//!   join, reporting that thread's loop/barrier split.
//!
//! Unlike real OMPT there is no separate sampling/state interface; the
//! record carries everything the paper's analysis figures need.

use crate::region::RegionId;
use crate::stats::{RegionRecord, ThreadStats};
use parking_lot::RwLock;
use std::sync::Arc;

/// A tool receiving runtime events. All methods default to no-ops so tools
/// implement only what they observe.
pub trait Tool: Send + Sync {
    /// Fork: a parallel region is about to execute. Fired *before* the
    /// runtime reads its internal control variables, so a tool that calls
    /// `set_num_threads` / `set_schedule` here reconfigures the very
    /// invocation being forked — the hook ARCS's policy relies on.
    fn parallel_begin(&self, _region: RegionId) {}

    /// Join: the region finished; `record` is the complete measurement.
    fn parallel_end(&self, _region: RegionId, _record: &RegionRecord) {}

    /// Per-thread report at the join point.
    fn implicit_task(&self, _region: RegionId, _thread: usize, _stats: &ThreadStats) {}
}

/// Registry of attached tools. Dispatch is synchronous in registration
/// order, mirroring OMPT's single-tool-chain model (we allow several).
#[derive(Default)]
pub struct ToolRegistry {
    tools: RwLock<Vec<Arc<dyn Tool>>>,
}

impl ToolRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a tool. Returns its registration index.
    pub fn register(&self, tool: Arc<dyn Tool>) -> usize {
        let mut tools = self.tools.write();
        tools.push(tool);
        tools.len() - 1
    }

    pub(crate) fn emit_parallel_begin(&self, region: RegionId) {
        for t in self.tools.read().iter() {
            t.parallel_begin(region);
        }
    }

    pub(crate) fn emit_parallel_end(&self, region: RegionId, record: &RegionRecord) {
        let tools = self.tools.read();
        for t in tools.iter() {
            for (tid, st) in record.per_thread.iter().enumerate() {
                t.implicit_task(region, tid, st);
            }
            t.parallel_end(region, record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Schedule;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[derive(Default)]
    struct Counter {
        begins: AtomicUsize,
        ends: AtomicUsize,
        tasks: AtomicUsize,
    }

    impl Tool for Counter {
        fn parallel_begin(&self, _r: RegionId) {
            self.begins.fetch_add(1, Ordering::Relaxed);
        }
        fn parallel_end(&self, _r: RegionId, _rec: &RegionRecord) {
            self.ends.fetch_add(1, Ordering::Relaxed);
        }
        fn implicit_task(&self, _r: RegionId, _t: usize, _s: &ThreadStats) {
            self.tasks.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn record(threads: usize) -> RegionRecord {
        RegionRecord {
            region: RegionId(3),
            threads,
            schedule: Schedule::runtime_default(),
            iterations: 10,
            duration: Duration::from_millis(1),
            per_thread: (0..threads)
                .map(|_| ThreadStats {
                    busy: Duration::ZERO,
                    barrier_wait: Duration::ZERO,
                    chunks: 0,
                    iterations: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn events_reach_all_tools() {
        let reg = ToolRegistry::new();
        let a = Arc::new(Counter::default());
        let b = Arc::new(Counter::default());
        reg.register(a.clone());
        reg.register(b.clone());
        reg.emit_parallel_begin(RegionId(3));
        reg.emit_parallel_end(RegionId(3), &record(4));
        for c in [&a, &b] {
            assert_eq!(c.begins.load(Ordering::Relaxed), 1);
            assert_eq!(c.ends.load(Ordering::Relaxed), 1);
            assert_eq!(c.tasks.load(Ordering::Relaxed), 4);
        }
    }
}
