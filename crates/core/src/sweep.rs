//! The sweep engine: declarative (workload × cap × strategy) grids run
//! concurrently over a shared memo cache.
//!
//! Every paper figure is some such grid — Fig. 4 is SP × 5 caps × 3
//! strategies, Fig. 8 adds a second machine, the extension suite adds a
//! selective-tuning strategy. Instead of hand-rolled nested loops per
//! figure, a [`SweepGrid`] names the axes and [`SweepEngine::run`]
//! expands, executes and collects the cells.
//!
//! Determinism: each cell runs on *fresh* executors (invocation counters
//! start at zero, noise is stateless), so a cell's [`AppRunReport`] is a
//! pure function of (machine, workload, cap, strategy, noise) — identical
//! whether cells run serially or on a worker pool, in any interleaving.
//! The only shared state is the [`SharedSimCache`], whose values are
//! deterministic and value-identical regardless of which cell computes
//! them. `with_workers(1)` gives the serial order for direct comparison.
//!
//! [`SweepStrategy`] is the one table of run recipes: each strategy is a
//! [`Runner`] chain in [`SweepEngine`]'s `run_cell`.

use crate::backend::{RunError, Runner};
use crate::config::{ConfigSpace, OmpConfig};
use crate::executor::SimExecutor;
use crate::report::AppRunReport;
use crate::tuner::{RegionTuner, TunerOptions};
use arcs_harmony::History;
use arcs_metrics::MetricsRegistry;
use arcs_powersim::{CacheSnapshot, Machine, SharedSimCache, WorkloadDescriptor};
use arcs_trace::{Objective, TraceSink};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// How one sweep cell tunes (or doesn't).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SweepStrategy {
    /// The paper's baseline configuration, untouched.
    Default,
    /// ARCS-Online (Nelder–Mead within the measured run).
    Online,
    /// ARCS-Offline (exhaustive training, then a measured replay).
    Offline,
    /// ARCS-Online with selective tuning: regions whose mean time falls
    /// below the threshold are pinned to default and pay no overheads.
    OnlineSelective { min_region_time_s: f64 },
}

impl SweepStrategy {
    pub fn label(&self) -> &'static str {
        match self {
            SweepStrategy::Default => "default",
            SweepStrategy::Online => "arcs-online",
            SweepStrategy::Offline => "arcs-offline",
            SweepStrategy::OnlineSelective { .. } => "arcs-online-selective",
        }
    }
}

/// A declarative sweep: the full cross product of the axes, on one
/// machine, optionally under measurement noise `(cv, seed)`.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    pub machine: Machine,
    pub workloads: Vec<WorkloadDescriptor>,
    pub caps_w: Vec<f64>,
    pub strategies: Vec<SweepStrategy>,
    /// Objectives to score each (workload, cap, strategy) cell by.
    /// Defaults to `[Time]` — the paper's axis; an empty vector is treated
    /// the same way.
    pub objectives: Vec<Objective>,
    pub noise: Option<(f64, u64)>,
}

impl SweepGrid {
    pub fn new(machine: Machine) -> Self {
        SweepGrid {
            machine,
            workloads: Vec::new(),
            caps_w: Vec::new(),
            strategies: Vec::new(),
            objectives: vec![Objective::Time],
            noise: None,
        }
    }

    pub fn workload(mut self, wl: WorkloadDescriptor) -> Self {
        self.workloads.push(wl);
        self
    }

    pub fn caps(mut self, caps_w: &[f64]) -> Self {
        self.caps_w.extend_from_slice(caps_w);
        self
    }

    pub fn strategies(mut self, strategies: &[SweepStrategy]) -> Self {
        self.strategies.extend_from_slice(strategies);
        self
    }

    /// Replace the objective axis (the default is `[Time]`). It is the
    /// innermost axis of the cell order, so a `[Time]` grid runs its cells
    /// in the order of a grid with no objective axis.
    pub fn objectives(mut self, objectives: &[Objective]) -> Self {
        self.objectives = objectives.to_vec();
        self
    }

    pub fn with_noise(mut self, cv: f64, seed: u64) -> Self {
        self.noise = Some((cv, seed));
        self
    }

    pub fn cell_count(&self) -> usize {
        self.workloads.len()
            * self.caps_w.len()
            * self.strategies.len()
            * self.objectives.len().max(1)
    }
}

/// One executed grid cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub workload: String,
    pub cap_w: f64,
    pub strategy: SweepStrategy,
    pub objective: Objective,
    pub report: AppRunReport,
    /// The exported training history (Offline cells only).
    pub history: Option<History<OmpConfig>>,
}

/// All cells of a sweep plus cache effectiveness over the run.
#[derive(Debug)]
pub struct SweepReport {
    /// Workload-major, then cap, then strategy — the declaration order.
    pub cells: Vec<CellResult>,
    /// Memo-cache activity: hits/misses accumulated by this sweep alone,
    /// occupancy and interner size as of its end.
    pub cache: CacheSnapshot,
    pub workers: usize,
}

impl SweepReport {
    /// The cell for (workload, cap, strategy-label), if present. With a
    /// multi-objective grid this returns the first match in declaration
    /// order; use [`SweepReport::cell_for`] to pin the objective.
    pub fn cell(&self, workload: &str, cap_w: f64, strategy: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.workload == workload && c.cap_w == cap_w && c.strategy.label() == strategy)
    }

    /// The cell for (workload, cap, strategy-label, objective), if present.
    pub fn cell_for(
        &self,
        workload: &str,
        cap_w: f64,
        strategy: &str,
        objective: Objective,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.workload == workload
                && c.cap_w == cap_w
                && c.strategy.label() == strategy
                && c.objective == objective
        })
    }
}

/// Runs sweep grids for one machine over one shared memo cache.
pub struct SweepEngine {
    machine: Machine,
    cache: Arc<SharedSimCache>,
    workers: usize,
    trace: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl SweepEngine {
    pub fn new(machine: Machine) -> Self {
        let cache = Arc::new(SharedSimCache::new(&machine.name));
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8);
        SweepEngine { machine, cache, workers, trace: None, metrics: None }
    }

    /// Fix the worker-pool size (1 = serial, for determinism checks).
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1);
        self.workers = workers;
        self
    }

    /// Trace every cell's execution into `sink`. Cells run concurrently,
    /// so events from different cells interleave; order within one cell is
    /// preserved by the sink's sequence numbers only relative to the other
    /// cells' records.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.cache.attach_trace(Arc::clone(&sink));
        self.trace = Some(sink);
        self
    }

    /// Aggregate every cell's counters into `registry`. Counters are
    /// lossless under concurrency, so totals are identical at any worker
    /// count (unlike a trace, there is no interleaving to worry about).
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.cache.attach_metrics(&registry);
        self.metrics = Some(registry);
        self
    }

    /// The cache shared by every cell this engine runs.
    pub fn cache(&self) -> &Arc<SharedSimCache> {
        &self.cache
    }

    /// Execute every cell of `grid` and collect the results in declaration
    /// order. Cells are distributed over the worker pool; see the module
    /// docs for why the outcome is identical at any worker count.
    ///
    /// # Panics
    /// Panics if a cell fails; [`SweepEngine::try_run`] returns the error.
    pub fn run(&self, grid: &SweepGrid) -> SweepReport {
        self.try_run(grid).unwrap_or_else(|e| panic!("a sweep cell failed: {e}"))
    }

    /// [`SweepEngine::run`], returning the first failing cell's error in
    /// declaration order (e.g. an Offline cell too short to finish its
    /// training sweeps).
    pub fn try_run(&self, grid: &SweepGrid) -> Result<SweepReport, RunError> {
        assert_eq!(
            grid.machine.name, self.machine.name,
            "one engine serves one machine model (its cache is machine-specific)"
        );
        // The objective axis is innermost so a default `[Time]` grid keeps
        // the historical (workload, cap, strategy) declaration order.
        let objectives: &[Objective] =
            if grid.objectives.is_empty() { &[Objective::Time] } else { &grid.objectives };
        let mut cells: Vec<(&WorkloadDescriptor, f64, SweepStrategy, Objective)> = Vec::new();
        for wl in &grid.workloads {
            for &cap in &grid.caps_w {
                for &strat in &grid.strategies {
                    for &objective in objectives {
                        cells.push((wl, cap, strat, objective));
                    }
                }
            }
        }

        let before = self.cache.stats();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<CellResult, RunError>>>> =
            cells.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.workers.min(cells.len()).max(1);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(wl, cap, strat, objective)) = cells.get(idx) else {
                        break;
                    };
                    let result = self.run_cell(wl, cap, strat, objective, grid.noise);
                    *slots[idx].lock() = Some(result);
                });
            }
        });
        let cells = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every cell ran"))
            .collect::<Result<_, _>>()?;
        Ok(SweepReport { cells, cache: self.cache.stats().delta_since(&before), workers })
    }

    fn executor(&self, cap_w: f64, noise: Option<(f64, u64)>) -> SimExecutor {
        let mut exec = SimExecutor::new(self.machine.clone(), cap_w)
            .with_shared_cache(Arc::clone(&self.cache));
        if let Some((cv, seed)) = noise {
            exec = exec.with_noise(cv, seed);
        }
        if let Some(sink) = &self.trace {
            exec = exec.with_trace(Arc::clone(sink));
        }
        if let Some(registry) = &self.metrics {
            exec = exec.with_metrics(Arc::clone(registry));
        }
        exec
    }

    /// The recipe of every strategy, scored by `objective` and reported
    /// under [`SweepStrategy::label`].
    fn run_cell(
        &self,
        wl: &WorkloadDescriptor,
        cap_w: f64,
        strategy: SweepStrategy,
        objective: Objective,
        noise: Option<(f64, u64)>,
    ) -> Result<CellResult, RunError> {
        let mut exec = self.executor(cap_w, noise);
        let space = ConfigSpace::for_machine(&self.machine);
        let label = strategy.label();
        let tuned = |exec: &mut SimExecutor, options| {
            Runner::new(exec).workload(wl).tuner(&mut RegionTuner::new(options)).label(label).run()
        };
        let online = TunerOptions::online(space.clone()).with_objective(objective);
        let (report, history) = match strategy {
            SweepStrategy::Default => {
                (Runner::new(&mut exec).workload(wl).objective(objective).label(label).run(), None)
            }
            SweepStrategy::Online => (tuned(&mut exec, online), None),
            SweepStrategy::OnlineSelective { min_region_time_s } => {
                (tuned(&mut exec, online.with_min_region_time(min_region_time_s)), None)
            }
            SweepStrategy::Offline => {
                // The paper trains and measures in separate executions, so
                // the history is trained on one executor and replayed on a
                // second. Its context is `workload.machine.capW`, with
                // `.objective` appended for anything but time.
                let suffix = match objective {
                    Objective::Time => String::new(),
                    other => format!(".{other}"),
                };
                let (name, machine, cap) = (&wl.name, &self.machine.name, exec.power_cap_w());
                let context = format!("{name}.{machine}.{cap}W{suffix}");
                let train = TunerOptions::offline_train(space.clone()).with_objective(objective);
                let history = Runner::new(&mut exec).workload(wl).train(train, &context);
                let history = history?;
                let replay = TunerOptions::offline_replay(space, history.clone());
                let replay = replay.with_objective(objective);
                (tuned(&mut self.executor(cap_w, noise), replay), Some(history))
            }
        };
        let report = report?;
        Ok(CellResult { workload: wl.name.clone(), cap_w, strategy, objective, report, history })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_kernels::{model, Class};

    fn grid(machine: Machine) -> SweepGrid {
        let mut wl = model::sp(Class::B);
        wl.timesteps = 8;
        SweepGrid::new(machine)
            .workload(wl)
            .caps(&[85.0, 115.0])
            .strategies(&[SweepStrategy::Default, SweepStrategy::Online])
    }

    #[test]
    fn cells_come_back_in_declaration_order() {
        let m = Machine::crill();
        let rep = SweepEngine::new(m.clone()).run(&grid(m));
        assert_eq!(rep.cells.len(), 4);
        let labels: Vec<_> = rep.cells.iter().map(|c| (c.cap_w, c.strategy.label())).collect();
        assert_eq!(
            labels,
            vec![
                (85.0, "default"),
                (85.0, "arcs-online"),
                (115.0, "default"),
                (115.0, "arcs-online"),
            ]
        );
        assert!(rep.cell("sp.B", 85.0, "default").is_some());
        assert!(rep.cell("sp.B", 85.0, "oracle").is_none());
    }

    #[test]
    fn an_offline_cell_too_short_to_train_is_an_error_not_a_worker_panic() {
        let m = Machine::crill();
        let mut wl = model::sp(Class::S);
        wl.timesteps = 3;
        let grid = SweepGrid::new(m.clone())
            .workload(wl)
            .caps(&[85.0])
            .strategies(&[SweepStrategy::Offline]);
        let err = SweepEngine::new(m).try_run(&grid).unwrap_err();
        assert!(
            matches!(err, RunError::Untrained { passes: 64, searching: 5 }),
            "unexpected error: {err:?}"
        );
    }

    #[test]
    fn engine_rejects_foreign_machine_grids() {
        let engine = SweepEngine::new(Machine::crill());
        let foreign = grid(Machine::minotaur());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&foreign)));
        assert!(err.is_err());
    }

    #[test]
    fn objective_axis_multiplies_cells_and_keeps_time_cells_first() {
        let m = Machine::crill();
        let g = grid(m.clone()).objectives(&[Objective::Time, Objective::Energy]);
        assert_eq!(g.cell_count(), 8);
        let rep = SweepEngine::new(m).with_workers(1).run(&g);
        assert_eq!(rep.cells.len(), 8);
        // Objective is the innermost axis: Time before Energy per cell.
        assert_eq!(rep.cells[0].objective, Objective::Time);
        assert_eq!(rep.cells[1].objective, Objective::Energy);
        let e = rep.cell_for("sp.B", 85.0, "arcs-online", Objective::Energy).unwrap();
        assert_eq!(e.report.objective, Objective::Energy);
        let t = rep.cell_for("sp.B", 85.0, "arcs-online", Objective::Time).unwrap();
        assert_eq!(t.report.objective, Objective::Time);
        // Both cells really ran (behavioural comparisons live in
        // tests/objectives.rs, where searches are given room to converge).
        assert!(e.report.energy_j > 0.0 && t.report.energy_j > 0.0);
    }

    #[test]
    fn default_cells_share_cache_work() {
        // Two workloads share regions with the default cell of the other
        // cap? No — but a Default cell re-invokes the same 5 configs every
        // timestep, and the Online cell at the same cap revisits many of
        // them. The sweep must report cross-cell hits.
        let m = Machine::crill();
        let engine = SweepEngine::new(m.clone());
        let rep = engine.run(&grid(m));
        assert!(rep.cache.hits > 0);
        assert!(rep.cache.misses > 0);
        assert!(rep.workers >= 1);
    }
}
