//! The three sweep workloads: `SweepEngine::run` over fixed grids.
//!
//! Untraced, a repetition is exactly what a figure regeneration does:
//! build an engine, run the grid. Traced, every cell is driven through
//! `Runner` directly over a [`TimedBackend`], mirroring the engine's own
//! cell recipe, and must reproduce the untraced cell's `time_s` and
//! `energy_j` bit for bit (the digests are compared).

use crate::bench::{Rep, Samples, Workload};
use crate::inputs;
use crate::probes;
use crate::spans::{SpanLog, TimedBackend};
use crate::stats::{geomean, Digest};
use arcs::backend::Runner;
use arcs::{
    AppRunReport, CellResult, ConfigSpace, RegionTuner, RunStatus, SimExecutor, SweepEngine,
    SweepGrid, SweepStrategy, TunerOptions,
};
use arcs_powersim::{Machine, SharedSimCache, WorkloadDescriptor};
use arcs_trace::Objective;
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Regular,
    Irregular,
    Warm,
}

pub struct Sweep {
    kind: Kind,
    seed: u64,
    grids: Vec<SweepGrid>,
    /// `Warm` only: the engine whose cache set-up filled.
    warm: Option<SweepEngine>,
}

fn engine() -> SweepEngine {
    // One worker: single-thread cost per cell is what the sweep metrics
    // bound; parallel efficiency is a per-layer number.
    SweepEngine::new(Machine::crill()).with_workers(1)
}

impl Sweep {
    /// Build the grids from `seed`; for `Warm`, also fill the cache.
    pub fn setup(kind: Kind, seed: u64) -> Sweep {
        let grids = match kind {
            Kind::Regular => vec![inputs::regular_grid(seed)],
            Kind::Irregular => vec![inputs::profiled_grid(seed), inputs::montecarlo_grid(seed)],
            Kind::Warm => vec![inputs::regular_grid(seed), inputs::profiled_grid(seed)],
        };
        let warm = (kind == Kind::Warm).then(|| {
            let e = engine();
            for g in &grids {
                e.run(g);
            }
            e
        });
        Sweep { kind, seed, grids, warm }
    }

    fn run_untraced(&self, cells: &mut Vec<CellResult>, cache: &mut CacheCounts) {
        let fresh;
        let engine = match &self.warm {
            Some(e) => e,
            None => {
                fresh = engine();
                &fresh
            }
        };
        for grid in &self.grids {
            let report = engine.run(grid);
            cache.add(&report.cache);
            cells.extend(report.cells);
        }
    }

    fn run_traced(
        &self,
        log: &mut SpanLog,
        cells: &mut Vec<CellResult>,
        cache: &mut CacheCounts,
        acc: &mut DriverCost,
    ) {
        let fresh;
        let shared = match &self.warm {
            Some(e) => e.cache(),
            None => {
                fresh = Arc::new(SharedSimCache::new(&Machine::crill().name));
                &fresh
            }
        };
        let before = shared.stats();
        for grid in &self.grids {
            // The engine's declaration order: workload, cap, strategy,
            // objective innermost.
            for wl in &grid.workloads {
                for &cap_w in &grid.caps_w {
                    for &strategy in &grid.strategies {
                        for &objective in &grid.objectives {
                            let idx = cells.len() as u64;
                            let report = traced_cell(
                                log, shared, grid, wl, cap_w, strategy, objective, idx, acc,
                            );
                            cells.push(CellResult {
                                workload: wl.name.clone(),
                                cap_w,
                                strategy,
                                objective,
                                report,
                                history: None,
                            });
                        }
                    }
                }
            }
        }
        cache.add(&shared.stats().delta_since(&before));
    }
}

#[derive(Default)]
struct CacheCounts {
    hits: u64,
    misses: u64,
    entries: usize,
}

impl CacheCounts {
    fn add(&mut self, snap: &arcs_powersim::CacheSnapshot) {
        self.hits += snap.hits;
        self.misses += snap.misses;
        self.entries = snap.entries;
    }
}

/// Driver (`Runner`) self time and region invocations, split by the kind
/// of run, plus search evaluations — what the traced cells add up.
#[derive(Default)]
struct DriverCost {
    default_self_ns: u64,
    default_calls: u64,
    online_self_ns: u64,
    online_calls: u64,
    evaluations: u64,
}

fn executor(
    log: &SpanLog,
    cache: &Arc<SharedSimCache>,
    grid: &SweepGrid,
    cap_w: f64,
) -> TimedBackend<SimExecutor> {
    let mut exec =
        SimExecutor::new(grid.machine.clone(), cap_w).with_shared_cache(Arc::clone(cache));
    if let Some((cv, seed)) = grid.noise {
        exec = exec.with_noise(cv, seed);
    }
    TimedBackend::new(exec, log)
}

/// One `Runner` call as a `core.runner.run` span with the backend's busy
/// time as its child. Returns the call's result, the driver's self time
/// and the region invocations it drove.
fn timed_run<T>(
    log: &mut SpanLog,
    backend: &mut TimedBackend<SimExecutor>,
    id: u64,
    call: impl FnOnce(&mut TimedBackend<SimExecutor>) -> T,
) -> (T, u64, u64) {
    let span = log.open("core.runner.run", id);
    let out = call(backend);
    let busy = backend.take();
    busy.into_child(log, "powersim.backend");
    let dur_ns = log.close(span);
    (out, dur_ns.saturating_sub(busy.busy_ns), busy.calls)
}

/// `SweepEngine::run_cell`, over timed backends. The four recipes are the
/// engine's: fresh executors on the shared cache (with the grid's noise,
/// had it any), the objective threaded through the tuner options.
#[allow(clippy::too_many_arguments)]
fn traced_cell(
    log: &mut SpanLog,
    cache: &Arc<SharedSimCache>,
    grid: &SweepGrid,
    wl: &WorkloadDescriptor,
    cap_w: f64,
    strategy: SweepStrategy,
    objective: Objective,
    idx: u64,
    acc: &mut DriverCost,
) -> AppRunReport {
    let cell = log.open("sweep.cell", idx);
    let space = ConfigSpace::for_machine(&grid.machine);
    let report = match strategy {
        SweepStrategy::Default => {
            let mut b = executor(log, cache, grid, cap_w);
            let (rep, self_ns, calls) = timed_run(log, &mut b, idx, |b| {
                Runner::new(b).workload(wl).objective(objective).run().expect("workload is set")
            });
            acc.default_self_ns += self_ns;
            acc.default_calls += calls;
            rep
        }
        SweepStrategy::Online => {
            let mut tuner = RegionTuner::new(TunerOptions::online(space).with_objective(objective));
            let mut b = executor(log, cache, grid, cap_w);
            let (rep, self_ns, calls) = timed_run(log, &mut b, idx, |b| {
                Runner::new(b).workload(wl).tuner(&mut tuner).run().expect("workload is set")
            });
            acc.online_self_ns += self_ns;
            acc.online_calls += calls;
            acc.evaluations +=
                wl.region_names().iter().map(|r| tuner.evaluations(r) as u64).sum::<u64>();
            rep
        }
        SweepStrategy::Offline => {
            let mut trainer = executor(log, cache, grid, cap_w);
            let options = TunerOptions::offline_train(space.clone()).with_objective(objective);
            let context = format!("{}.{}.{}W.{}", wl.name, grid.machine.name, cap_w, objective);
            let (history, _, _) = timed_run(log, &mut trainer, idx, |b| {
                Runner::new(b).workload(wl).train(options, &context).expect("offline-train options")
            });
            let mut tuner = RegionTuner::new(
                TunerOptions::offline_replay(space, history).with_objective(objective),
            );
            let mut replayer = executor(log, cache, grid, cap_w);
            let (rep, _, _) = timed_run(log, &mut replayer, idx, |b| {
                Runner::new(b).workload(wl).tuner(&mut tuner).run().expect("workload is set")
            });
            rep
        }
        SweepStrategy::OnlineSelective { .. } => {
            unreachable!("no benchmark grid uses selective tuning")
        }
    };
    log.close(cell);
    report
}

impl Workload for Sweep {
    fn rep(&mut self, log: Option<&mut SpanLog>) -> Rep {
        let mut cells = Vec::new();
        let mut cache = CacheCounts::default();
        let mut acc = DriverCost::default();
        let traced = log.is_some();
        let t0 = Instant::now();
        match log {
            Some(log) => self.run_traced(log, &mut cells, &mut cache, &mut acc),
            None => self.run_untraced(&mut cells, &mut cache),
        }
        let wall_s = t0.elapsed().as_secs_f64();

        let mut rep = Rep {
            wall_s,
            main_s: wall_s,
            items: cells.len() as u64,
            attempted: cells.len() as u64,
            ..Rep::default()
        };
        let mut digest = Digest::default();
        for c in &cells {
            digest.f64(c.report.time_s);
            digest.f64(c.report.energy_j);
            let r = &c.report;
            rep.check(
                r.time_s.is_finite()
                    && r.time_s > 0.0
                    && r.energy_j.is_finite()
                    && r.energy_j > 0.0
                    && r.status == RunStatus::Ok,
                || format!("cell {} {} W {}: bad report", c.workload, c.cap_w, c.strategy.label()),
            );
        }
        rep.digest = digest.finish();
        if self.kind == Kind::Warm {
            rep.check(cache.misses == 0, || format!("warm sweep missed {} times", cache.misses));
        }

        // Simulated outcomes: the paper's claims, as this grid sees them.
        let online: Vec<&CellResult> =
            cells.iter().filter(|c| c.strategy == SweepStrategy::Online).collect();
        let online_s: f64 = online.iter().map(|c| c.report.time_s).sum();
        let (mut time_ratios, mut energy_ratios) = (Vec::new(), Vec::new());
        for on in online.iter().filter(|c| c.objective == Objective::Time) {
            let base = cells.iter().find(|c| {
                c.strategy == SweepStrategy::Default
                    && c.objective == Objective::Time
                    && c.workload == on.workload
                    && c.cap_w == on.cap_w
            });
            if let Some(base) = base {
                time_ratios.push(on.report.time_s / base.report.time_s);
                energy_ratios.push(on.report.energy_j / base.report.energy_j);
            }
        }
        let overhead_s: f64 = online.iter().map(|c| c.report.total_overhead_s()).sum();
        rep.values.extend([
            ("sim_tuned_time_ratio", geomean(&time_ratios)),
            ("sim_tuned_energy_ratio", geomean(&energy_ratios)),
            ("sim_search_overhead_share", overhead_s / online_s),
            ("powersim.memo.hits", cache.hits as f64),
            ("powersim.memo.misses", cache.misses as f64),
            ("powersim.memo.entries", cache.entries as f64),
        ]);
        if traced {
            let us_per = |ns: u64, calls: u64| ns as f64 / 1e3 / calls.max(1) as f64;
            rep.values.extend([
                ("harmony.evaluations", acc.evaluations as f64),
                (
                    "core.runner.us_per_invocation.default",
                    us_per(acc.default_self_ns, acc.default_calls),
                ),
                (
                    "core.runner.us_per_invocation.online",
                    us_per(acc.online_self_ns, acc.online_calls),
                ),
            ]);
        }
        rep
    }

    fn probes(&mut self, out: &mut Samples) {
        probes::sim_stack(self.seed, out);
    }
}
