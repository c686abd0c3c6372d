//! The sweep engine's contract: parallel execution changes nothing, the
//! shared memo cache works across cells, and the unified Backend driver
//! reproduces the §III-C overhead accounting exactly.

use arcs::{
    overhead_power_w, AppRunReport, ConfigSpace, NoiseModel, Objective, OmpConfig, RegionTuner,
    Runner, SimExecutor, SweepEngine, SweepGrid, SweepStrategy, TunerOptions,
};
use arcs_harmony::History;
use arcs_kernels::{model, Class};
use arcs_powersim::{Machine, WorkloadDescriptor};

fn paper_grid(machine: &Machine) -> SweepGrid {
    let mut wl = model::sp(Class::B);
    wl.timesteps = 6;
    SweepGrid::new(machine.clone())
        .workload(wl)
        .caps(&[55.0, 85.0, 115.0])
        .strategies(&[SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline])
        .with_noise(0.1, 9)
}

/// A parallel sweep must produce bit-identical AppRunReports to a serial
/// one, cell by cell — even under measurement noise, because the noise is
/// a stateless function of (seed, region, invocation) and every cell runs
/// on fresh executors.
#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let m = Machine::crill();
    let grid = paper_grid(&m);
    let serial = SweepEngine::new(m.clone()).with_workers(1).run(&grid);
    let parallel = SweepEngine::new(m.clone()).with_workers(8).run(&grid);

    assert_eq!(serial.cells.len(), 9);
    assert_eq!(serial.cells.len(), parallel.cells.len());
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.workload, p.workload);
        assert_eq!(s.cap_w, p.cap_w);
        assert_eq!(s.strategy.label(), p.strategy.label());
        assert_eq!(s.report, p.report, "{} @ {}W diverged", s.strategy.label(), s.cap_w);
        assert_eq!(s.history, p.history);
    }
    // Both sweeps resolve the same set of distinct (region, config) points,
    // so they miss (= compute) the same number of simulations.
    assert_eq!(serial.cache.misses, parallel.cache.misses);
}

/// Cells share the memo cache: the Default cell simulates the same five
/// (region, default-config) points every timestep, and the Online cell at
/// the same cap revisits many of the same search points.
#[test]
fn sweep_reports_cross_cell_cache_hits() {
    let m = Machine::crill();
    let report = SweepEngine::new(m.clone()).run(&paper_grid(&m));
    assert!(report.cache.hits > 0, "no cross-cell cache reuse: {:?}", report.cache);
    assert!(report.cache.misses > 0);
    assert_eq!(report.cache.lookups(), report.cache.hits + report.cache.misses);
    // Offline training sweeps the whole 252-point space (mostly misses),
    // but the Default/Online cells at each cap still re-find hundreds of
    // already-simulated points.
    assert!(
        report.cache.hits as f64 > 0.2 * report.cache.misses as f64,
        "cross-cell reuse collapsed: {:?}",
        report.cache
    );
}

/// sp.B and a small LULESH at `caps` under the paper's three strategies.
fn cross_cap_grid(machine: &Machine, caps: &[f64]) -> SweepGrid {
    let mut sp = model::sp(Class::B);
    sp.timesteps = 6;
    let mut lulesh = model::lulesh(20);
    lulesh.timesteps = 8;
    SweepGrid::new(machine.clone()).workload(sp).workload(lulesh).caps(caps).strategies(&[
        SweepStrategy::Default,
        SweepStrategy::Online,
        SweepStrategy::Offline,
    ])
}

/// The memo keys a cell by the operating point its team runs at, so cells
/// at caps that clamp a team to one frequency share its simulation: every
/// cell of a three-cap sweep is bit-equal to the same cell swept alone at
/// its cap on a fresh engine, yet the shared sweep simulates strictly
/// fewer cells than the three single-cap sweeps together — and as many
/// with one worker as with four.
#[test]
fn cells_at_caps_that_clamp_alike_share_simulations() {
    let m = Machine::crill();
    let caps = [55.0, 85.0, 115.0];
    let serial = SweepEngine::new(m.clone()).with_workers(1).run(&cross_cap_grid(&m, &caps));
    let parallel = SweepEngine::new(m.clone()).with_workers(4).run(&cross_cap_grid(&m, &caps));
    assert_eq!(serial.cache.misses, parallel.cache.misses);
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.report, p.report, "{} {} @ {}W", s.workload, s.strategy.label(), s.cap_w);
    }

    let mut alone_misses = 0;
    for cap in caps {
        let alone = SweepEngine::new(m.clone()).with_workers(1).run(&cross_cap_grid(&m, &[cap]));
        alone_misses += alone.cache.misses;
        for cell in &alone.cells {
            let label = cell.strategy.label();
            let shared = serial.cell(&cell.workload, cap, label).expect("the shared sweep has it");
            assert_eq!(shared.report, cell.report, "{} {label} @ {cap}W", cell.workload);
            assert_eq!(shared.history, cell.history, "{} {label} @ {cap}W", cell.workload);
        }
    }
    assert!(
        serial.cache.misses < alone_misses,
        "no cross-cap sharing: {} shared vs {alone_misses} alone",
        serial.cache.misses
    );
}

/// The unified Backend driver must charge §III-C overheads exactly as the
/// pre-refactor SimExecutor did on SP class B: every tuned invocation pays
/// the instrumentation cost, every configuration change pays ≈8 ms, and
/// overhead time is priced at near-idle package power.
#[test]
fn backend_overhead_accounting_matches_paper_model_on_sp_b() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 10;
    let cap = 85.0;

    let grid = SweepGrid::new(m.clone())
        .workload(wl.clone())
        .caps(&[cap])
        .strategies(&[SweepStrategy::Default, SweepStrategy::Online]);
    let sweep = SweepEngine::new(m.clone()).run(&grid);
    let (base, tuned) = (&sweep.cells[0].report, &sweep.cells[1].report);
    let stats = tuned.tuner.as_ref().expect("online run records tuner stats");

    // Instrumentation: exactly one charge per tuned invocation.
    assert_eq!(stats.invocations, (wl.timesteps * wl.step.len()) as u64);
    let expected_instr = stats.invocations as f64 * m.instrumentation_s;
    assert!(
        (tuned.instrumentation_overhead_s - expected_instr).abs() < 1e-12,
        "instr overhead {} != invocations x instrumentation_s {}",
        tuned.instrumentation_overhead_s,
        expected_instr
    );

    // Config changes: exactly one ≈8 ms charge per ICV move.
    let expected_change = stats.config_changes as f64 * m.config_change_s;
    assert!(
        (tuned.config_change_overhead_s - expected_change).abs() < 1e-12,
        "change overhead {} != config_changes x config_change_s {}",
        tuned.config_change_overhead_s,
        expected_change
    );
    assert!(stats.config_changes > 0, "Nelder-Mead never moved the configuration");

    // Wall time includes both overheads on top of the region time.
    let region_time: f64 = tuned.per_region.values().map(|r| r.total_time_s).sum();
    let total = region_time + tuned.config_change_overhead_s + tuned.instrumentation_overhead_s;
    assert!((tuned.time_s - total).abs() < 1e-9);

    // Overhead energy is charged at near-idle power, far below the cap.
    assert!(overhead_power_w(&m) < cap);

    // A default run pays no overheads at all.
    assert_eq!(base.config_change_overhead_s, 0.0);
    assert_eq!(base.instrumentation_overhead_s, 0.0);
    assert!(base.tuner.is_none());
}

/// What `strategy` at `objective` does, written out as `Runner` chains on
/// fresh executors with private caches — the reference the engine's cells
/// are held to, independent of its recipes, shared cache and workers.
fn serial_run(
    m: &Machine,
    cap_w: f64,
    wl: &WorkloadDescriptor,
    strategy: SweepStrategy,
    objective: Objective,
) -> (AppRunReport, Option<History<OmpConfig>>) {
    let space = ConfigSpace::for_machine(m);
    let mut exec = SimExecutor::new(m.clone(), cap_w);
    let label = strategy.label();
    let online = TunerOptions::online(space.clone()).with_objective(objective);
    let tuner = match strategy {
        SweepStrategy::Default => {
            let rep = Runner::new(&mut exec).workload(wl).objective(objective).label(label).run();
            return (rep.unwrap(), None);
        }
        SweepStrategy::Online => online,
        SweepStrategy::OnlineSelective { min_region_time_s } => {
            online.with_min_region_time(min_region_time_s)
        }
        SweepStrategy::Offline => {
            // The history context, spelled out for the one cell swept here.
            let context = match objective {
                Objective::Time => "sp.B.crill.85W".to_string(),
                other => format!("sp.B.crill.85W.{other}"),
            };
            let train = TunerOptions::offline_train(space.clone()).with_objective(objective);
            let history = Runner::new(&mut exec).workload(wl).train(train, &context).unwrap();
            let replay = TunerOptions::offline_replay(space, history.clone());
            let mut tuner = RegionTuner::new(replay.with_objective(objective));
            let rep = Runner::new(&mut SimExecutor::new(m.clone(), cap_w))
                .workload(wl)
                .tuner(&mut tuner)
                .label(label)
                .run();
            return (rep.unwrap(), Some(history));
        }
    };
    let mut tuner = RegionTuner::new(tuner);
    let rep = Runner::new(&mut exec).workload(wl).tuner(&mut tuner).label(label).run();
    (rep.unwrap(), None)
}

/// Every cell of a sweep — each strategy, including a selective threshold
/// that pins three of SP's five regions, under the time and the energy
/// objective — equals its serial reference: the report and, for Offline,
/// the history with its context.
#[test]
fn sweep_cells_match_hand_rolled_serial_runs() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 6;
    let cap = 85.0;

    let grid = SweepGrid::new(m.clone())
        .workload(wl.clone())
        .caps(&[cap])
        .strategies(&[
            SweepStrategy::Default,
            SweepStrategy::Online,
            SweepStrategy::OnlineSelective { min_region_time_s: 0.15 },
            SweepStrategy::Offline,
        ])
        .objectives(&[Objective::Time, Objective::Energy]);
    let report = SweepEngine::new(m.clone()).run(&grid);

    assert_eq!(report.cells.len(), 8);
    for cell in &report.cells {
        let (rep, history) = serial_run(&m, cap, &wl, cell.strategy, cell.objective);
        let name = format!("{} by {}", cell.strategy.label(), cell.objective);
        assert_eq!(cell.report, rep, "{name}");
        assert_eq!(cell.history, history, "{name}");
    }
    let selective = report.cell("sp.B", cap, "arcs-online-selective").unwrap();
    assert_eq!(selective.report.tuner.unwrap().skipped_regions, 3, "the threshold must bite");
}

/// Noisy cells depend only on (seed, region, invocation): running the same
/// noisy executor grid twice in different orders yields the same reports.
#[test]
fn stateless_noise_gives_reproducible_noisy_cells() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 4;
    let run = || {
        let mut exec = SimExecutor::new(m.clone(), 85.0).with_noise(0.05, 42);
        Runner::new(&mut exec).workload(&wl).run().unwrap()
    };
    assert_eq!(run(), run());

    // And the noise model itself is a pure function.
    let n = NoiseModel { cv: 0.05, seed: 42 };
    assert_eq!(n.factor("sp/x_solve", 3), n.factor("sp/x_solve", 3));
    assert_ne!(n.factor("sp/x_solve", 3), n.factor("sp/x_solve", 4));
}
