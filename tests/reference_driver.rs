//! The run driver against an independent model of itself.
//!
//! [`reference`] is `backend::drive` written out longhand, kept naive: no
//! step-position slots, no memo cache, no last-cell memory. It calls
//! [`simulate_region_at_freq`] on every invocation, reaches the tuner only
//! through its name-keyed `begin` / `end_measured`, and spells out the
//! §III-C charging, the package-meter read order, the executor's noise
//! ordinals and cap moves, and the portfolio ladder. The real driver
//! (slots, operating-point and canonical-schedule memo keys, each slot's
//! last cell, and the replay of settled invocations from their step
//! position) must produce the same [`AppRunReport`] to the last bit, for
//! every workload, strategy, cap path and objective drawn.
//!
//! The broker drives one executor and one tuner quantum after quantum, so
//! a case is a sequence of runs over one step: of one or two lengths, with
//! the cap handle moved between runs and inside them. What the real driver
//! keeps from run to run (step positions, settled decisions, priced cells,
//! noise ordinals, RAPL) is held to the longhand run by run.
//!
//! Fault plans are not modelled: their retry, stale-read, straggler and
//! spike paths would double the longhand, and `driver_golden` pins them.

use arcs::backend::{overhead_power_w, PricedCell, RegionRun};
use arcs::executor::NoiseModel;
use arcs::prelude::*;
use arcs::report::RegionSummary;
use arcs_harmony::History;
use arcs_kernels::model;
use arcs_omprt::{Schedule, ScheduleKind};
use arcs_powersim::{simulate_region_at_freq, MeasureError, PackageEnergy, Rapl, RegionModel};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

const WORKLOADS: [&str; 7] = ["sp.S", "bt.S", "cg.S", "ep.S", "mg.S", "mc.S", "lulesh.S"];

#[derive(Debug, Clone, Copy, PartialEq)]
enum Flavour {
    Default,
    Fixed,
    Adaptive,
    Online,
    OnlineSelective,
    OfflineReplay,
}

const FLAVOURS: [Flavour; 6] = [
    Flavour::Default,
    Flavour::Fixed,
    Flavour::Adaptive,
    Flavour::Online,
    Flavour::OnlineSelective,
    Flavour::OfflineReplay,
];

/// One run of a case.
#[derive(Debug, Clone)]
struct Run {
    timesteps: usize,
    /// The handle moves to this cap before the run starts.
    cap_before: Option<f64>,
    /// The handle moves to `.1` right before invocation `.0` of the run.
    cap_move: Option<(usize, f64)>,
}

/// One drawn sequence of runs on one executor (and tuner, when the
/// flavour has one).
#[derive(Debug, Clone)]
struct Case {
    workload: &'static str,
    runs: Vec<Run>,
    flavour: Flavour,
    objective: Objective,
    /// The requested cap; outside RAPL's range it is clamped.
    cap_w: f64,
    noise_seed: Option<u64>,
    /// Fixed and adaptive runs pin a region to one of these; a replayed
    /// history saves one of these or nothing for it.
    configs: Vec<OmpConfig>,
    min_region_time_s: f64,
}

impl Case {
    fn workload(&self) -> WorkloadDescriptor {
        model::by_spec(self.workload).expect("a known workload")
    }

    /// The configuration a fixed run pins `region` to, or a history saves
    /// for it (`None`: not saved).
    fn config_for(&self, region: &str) -> Option<OmpConfig> {
        self.configs.get(region.len() % (self.configs.len() + 1)).copied()
    }

    fn tuner(&self, m: &Machine, wl: &WorkloadDescriptor) -> Option<RegionTuner> {
        let space = ConfigSpace::for_machine(m);
        let options = match self.flavour {
            Flavour::Online => TunerOptions::online(space),
            Flavour::OnlineSelective => {
                TunerOptions::online(space).with_min_region_time(self.min_region_time_s)
            }
            Flavour::OfflineReplay => {
                let mut h = History::new("reference");
                for r in &wl.step {
                    if let Some(cfg) = self.config_for(&r.name) {
                        h.insert(r.name.clone(), cfg, 1.0, 252);
                    }
                }
                TunerOptions::offline_replay(space, h)
            }
            _ => return None,
        };
        Some(RegionTuner::new(options.with_objective(self.objective)))
    }
}

/// One run, then the same step run again and again: 1–4 runs of two
/// lengths, each with its own cap moves.
fn case() -> impl Strategy<Value = Case> {
    let run = (any::<bool>(), (0usize..3, 10.0f64..150.0), (0usize..3, 0usize..60, 10.0f64..150.0));
    (one_run(), 1usize..7, proptest::collection::vec(run, 0..4)).prop_map(
        |(mut case, other, runs)| {
            let lengths = [case.runs[0].timesteps, other];
            case.runs.extend(runs.into_iter().map(
                |(long, (before, before_w), (moves, at, to_w))| Run {
                    timesteps: lengths[usize::from(long)],
                    cap_before: (before == 0).then_some(before_w),
                    cap_move: (moves == 0).then_some((at, to_w)),
                },
            ));
            case
        },
    )
}

/// One run of one step.
fn one_run() -> impl Strategy<Value = Case> {
    let config = (0usize..6, 0usize..4, 0usize..4).prop_map(|(t, kind, chunk)| OmpConfig {
        threads: 1 << t,
        schedule: Schedule::new(
            [ScheduleKind::Static, ScheduleKind::Dynamic, ScheduleKind::Guided][kind % 3],
            [None, Some(1), Some(8), Some(64)][chunk],
        ),
    });
    let cap = prop_oneof![40.0f64..115.0, Just(10.0), Just(500.0)];
    (
        (0usize..7, 1usize..7, 0usize..6, any::<bool>()),
        (cap, 0usize..3, 0usize..60, 10.0f64..150.0),
        (0u64..3, proptest::collection::vec(config, 1..4), -6.0f64..-2.0),
    )
        .prop_map(
            |((w, timesteps, f, energy), (cap_w, moves, at, to_w), (noise, configs, e))| Case {
                workload: WORKLOADS[w],
                runs: vec![Run {
                    timesteps,
                    cap_before: None,
                    cap_move: (moves == 0).then_some((at, to_w)),
                }],
                flavour: FLAVOURS[f],
                objective: if energy { Objective::Energy } else { Objective::Time },
                cap_w,
                noise_seed: (noise > 0).then_some(noise),
                configs,
                min_region_time_s: 10f64.powf(e),
            },
        )
}

/// A region's place on the portfolio ladder, longhand: EWMA α = 0.5,
/// threshold 0.15, patience 3, configured schedule → trapezoid →
/// factoring → awf with the configured chunk as the minimum.
#[derive(Default)]
struct Rung {
    ewma: Option<f64>,
    over: u32,
    arm: usize,
    last: Option<Schedule>,
}

impl Rung {
    /// Move `schedule` to this rung; true when that changes what the
    /// region last ran with.
    fn apply(&mut self, schedule: &mut Schedule) -> bool {
        if self.arm > 0 {
            *schedule = Schedule::new(ScheduleKind::SELF_SCHEDULING[self.arm - 1], schedule.chunk);
        }
        let moved = self.last.is_some_and(|last| last != *schedule);
        self.last = Some(*schedule);
        moved
    }

    fn observe(&mut self, busy_s: f64, barrier_s: f64) {
        let denom = busy_s + barrier_s;
        let imbalance = if denom > 0.0 { barrier_s / denom } else { 0.0 };
        let ewma = self.ewma.map_or(imbalance, |prev| 0.5 * imbalance + 0.5 * prev);
        self.ewma = Some(ewma);
        self.over = if ewma > 0.15 { self.over + 1 } else { 0 };
        if self.over >= 3 && self.arm < ScheduleKind::SELF_SCHEDULING.len() {
            self.arm += 1;
            self.over = 0;
            self.ewma = None;
        }
    }
}

/// `case` run the long way.
fn reference(case: &Case) -> Vec<AppRunReport> {
    let mut wl = case.workload();
    let mut longhand = Longhand::new(case, &wl);
    let mut reports = Vec::new();
    for run in &case.runs {
        wl.timesteps = run.timesteps;
        if let Some(to_w) = run.cap_before {
            longhand.cap_w = longhand.rapl.set_package_cap(to_w);
        }
        reports.push(longhand.run(case, run, &wl));
    }
    reports
}

/// What outlives a run: the tuner, the machine's RAPL and cap, and each
/// region's noise ordinal. A fixed or adaptive run's ladder starts afresh
/// each run.
struct Longhand {
    m: Machine,
    tuner: Option<RegionTuner>,
    noise: Option<NoiseModel>,
    rapl: Rapl,
    cap_w: f64,
    ordinals: HashMap<String, u64>,
}

impl Longhand {
    fn new(case: &Case, wl: &WorkloadDescriptor) -> Self {
        let m = Machine::crill();
        let tuner = case.tuner(&m, wl);
        let mut rapl = Rapl::new(&m);
        let cap_w = rapl.set_package_cap(case.cap_w);
        let noise = case.noise_seed.map(|seed| NoiseModel::new(0.05, seed));
        Longhand { m, tuner, noise, rapl, cap_w, ordinals: HashMap::new() }
    }

    /// One run of `case`.
    fn run(&mut self, case: &Case, run: &Run, wl: &WorkloadDescriptor) -> AppRunReport {
        let Longhand { m, tuner, noise, rapl, cap_w, ordinals } = self;
        let noise = *noise;
        let mut meter = PackageEnergy::new();
        meter.sample(rapl);
        let mut rungs: HashMap<&str, Rung> = HashMap::new();
        let mut per_region: BTreeMap<String, RegionSummary> = BTreeMap::new();
        let (mut time_s, mut change_total_s, mut instr_total_s) = (0.0, 0.0, 0.0);
        let mut invocation = 0;
        for _ in 0..wl.timesteps {
            for region in &wl.step {
                let name = region.name.as_str();
                let (cfg, changed, tuned) = match tuner {
                    Some(tuner) => {
                        let d = tuner.begin(name);
                        (d.config, d.changed, d.tuned)
                    }
                    None => {
                        let omp = match case.flavour {
                            Flavour::Default => OmpConfig::default_for(m),
                            _ => case.config_for(name).unwrap_or(OmpConfig::default_for(m)),
                        };
                        let mut cfg = TunedConfig::from(omp);
                        let changed = case.flavour == Flavour::Adaptive
                            && rungs.entry(name).or_default().apply(&mut cfg.omp.schedule);
                        (cfg, changed, false)
                    }
                };
                // §III-C: moving the ICVs costs `config_change_s`, measuring a
                // tuned invocation `instrumentation_s`, both at overhead power
                // and metered around the charge.
                let change_s = if changed { m.config_change_s } else { 0.0 };
                let instr_s = if tuned { m.instrumentation_s } else { 0.0 };
                let overhead_s = change_s + instr_s;
                if overhead_s > 0.0 {
                    meter.sample(rapl);
                    rapl.advance(overhead_s, overhead_power_w(m));
                    meter.sample(rapl);
                }
                let e_pre = meter.sample(rapl);
                if let Some((_, to_w)) = run.cap_move.filter(|&(at, _)| at == invocation) {
                    *cap_w = rapl.set_package_cap(to_w);
                }
                invocation += 1;
                let rep =
                    simulate_region_at_freq(m, *cap_w, region, cfg.omp.as_sim(), cfg.freq_ghz);
                let ordinal = ordinals.entry(region.name.clone()).or_default();
                let observed_s = rep.time_s * noise.map_or(1.0, |n| n.factor(name, *ordinal));
                *ordinal += 1;
                rapl.advance(observed_s, rep.avg_power_w());
                let e_post = meter.sample(rapl);
                if let Some(tuner) = tuner.as_mut() {
                    tuner.end_measured(name, observed_s, e_post - e_pre);
                }
                meter.sample(rapl);
                time_s += observed_s + overhead_s;
                change_total_s += change_s;
                instr_total_s += instr_s;
                let s = per_region.entry(region.name.clone()).or_default();
                s.invocations += 1;
                s.total_time_s += observed_s;
                s.busy_s += rep.busy_total_s();
                s.barrier_s += rep.barrier_total_s();
                let k = s.invocations as f64;
                s.l1_miss_rate += (rep.cache.l1_miss_rate - s.l1_miss_rate) / k;
                s.l2_miss_rate += (rep.cache.l2_miss_rate - s.l2_miss_rate) / k;
                s.l3_miss_rate += (rep.cache.l3_miss_rate - s.l3_miss_rate) / k;
                s.final_config = Some(cfg.omp);
                if let Some(rung) = rungs.get_mut(name) {
                    rung.observe(rep.busy_total_s(), rep.barrier_total_s());
                }
            }
        }
        let stats = tuner.as_ref().map(RegionTuner::stats);
        AppRunReport {
            app: wl.name.clone(),
            machine: m.name.clone(),
            power_cap_w: *cap_w,
            strategy: match (case.flavour, &stats) {
                (_, Some(_)) => "arcs",
                (Flavour::Default, None) => "default",
                (Flavour::Fixed, None) => "fixed",
                (_, None) => "adaptive",
            }
            .into(),
            objective: case.objective,
            time_s,
            energy_j: meter.sample(rapl),
            config_change_overhead_s: change_total_s,
            instrumentation_overhead_s: instr_total_s,
            per_region,
            tuner: stats,
            status: RunStatus::Ok,
            faults: FaultRecovery {
                rejected: stats.map_or(0, |s| s.rejected),
                restarts: stats.map_or(0, |s| s.restarts),
                frozen_regions: stats.map_or(0, |s| s.frozen_regions),
                ..FaultRecovery::default()
            },
        }
    }
}

/// The simulator, with its cap handle moved right before one invocation
/// of a run — a broker reallocating mid-run, at a reproducible point.
struct Mover {
    exec: SimExecutor,
    handle: CapHandle,
    cap_move: Option<(usize, f64)>,
    /// Invocations of this run so far.
    calls: usize,
}

impl Backend for Mover {
    fn machine(&self) -> &Machine {
        self.exec.machine()
    }

    fn power_cap_w(&self) -> f64 {
        Backend::power_cap_w(&self.exec)
    }

    fn requested_power_cap_w(&self) -> f64 {
        self.exec.requested_power_cap_w()
    }

    fn begin_run(&mut self) {
        self.calls = 0;
        self.exec.begin_run();
    }

    fn charge_overhead(&mut self, dt_s: f64) {
        self.exec.charge_overhead(dt_s);
    }

    fn run_region(&mut self, region: &RegionModel, cfg: TunedConfig) -> RegionRun {
        if let Some((_, to_w)) = self.cap_move.filter(|&(at, _)| at == self.calls) {
            self.handle.set(to_w);
        }
        self.calls += 1;
        self.exec.run_region(region, cfg)
    }

    fn priced(&self) -> Option<PricedCell> {
        self.exec.priced()
    }

    /// The replay sees the handle move exactly where `run_region` would:
    /// it declines, and the driver's `run_region` applies the move.
    fn replay_region(&mut self, region: &RegionModel, cfg: TunedConfig, cell: &PricedCell) -> bool {
        if let Some((_, to_w)) = self.cap_move.filter(|&(at, _)| at == self.calls) {
            self.handle.set(to_w);
        }
        let replayed = self.exec.replay_region(region, cfg, cell);
        self.calls += usize::from(replayed);
        replayed
    }

    fn energy_j(&mut self) -> Result<f64, MeasureError> {
        self.exec.energy_j()
    }

    fn attach_cap_handle(&mut self, handle: CapHandle) {
        self.exec.attach_cap_handle(handle);
    }
}

/// `case` through `Runner` and the real driver, as the broker drives a
/// job: one executor watching one handle, one tuner, one step descriptor
/// whose length changes from run to run.
fn driven(case: &Case) -> Vec<AppRunReport> {
    let m = Machine::crill();
    let mut wl = case.workload();
    let mut tuner = case.tuner(&m, &wl);
    let handle = CapHandle::new(case.cap_w);
    let mut exec = SimExecutor::new(m.clone(), case.cap_w).with_cap_handle(handle.clone());
    if let Some(seed) = case.noise_seed {
        exec = exec.with_noise(0.05, seed);
    }
    let mut b = Mover { exec, handle: handle.clone(), cap_move: None, calls: 0 };
    let pinned = |name: &str| case.config_for(name).unwrap_or(OmpConfig::default_for(&m));
    let mut reports = Vec::new();
    for run in &case.runs {
        wl.timesteps = run.timesteps;
        if let Some(to_w) = run.cap_before {
            handle.set(to_w);
        }
        b.cap_move = run.cap_move;
        let runner = Runner::new(&mut b).workload(&wl).objective(case.objective);
        let runner = match (&mut tuner, case.flavour) {
            (Some(tuner), _) => runner.tuner(tuner),
            (None, Flavour::Default) => runner,
            (None, Flavour::Fixed) => runner.fixed(pinned, "fixed"),
            (None, _) => runner.adaptive(pinned, "adaptive"),
        };
        reports.push(runner.run().expect("an unfaulted run completes"));
    }
    reports
}

proptest! {
    /// The driver's fast paths change nothing a report shows: every
    /// run's fields equal the longhand's, compared by `Debug` so that
    /// `f64`s must agree bit for bit.
    #[test]
    fn the_driver_reports_what_the_longhand_reports(case in case()) {
        prop_assert_eq!(format!("{:?}", driven(&case)), format!("{:?}", reference(&case)), "{:?}", case);
    }
}
