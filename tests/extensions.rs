//! Integration tests for the beyond-the-paper extensions: DVFS, the suite
//! extremes (CG/EP/MG), measurement noise, and the profiler.

use arcs::dvfs::{tune_region, Objective};
use arcs::{
    AppRunReport, ConfigSpace, OmpConfig, RegionTuner, Runner, SimExecutor, SweepEngine, SweepGrid,
    SweepReport, SweepStrategy, TunerOptions, TuningMode,
};
use arcs_kernels::{model, Class};
use arcs_powersim::{Machine, WorkloadDescriptor};

/// `strategies` on `wl` at `cap_w`, one cell each, in that order.
fn sweep(
    m: &Machine,
    wl: WorkloadDescriptor,
    cap_w: f64,
    strategies: &[SweepStrategy],
) -> SweepReport {
    let grid = SweepGrid::new(m.clone()).workload(wl).caps(&[cap_w]).strategies(strategies);
    SweepEngine::new(m.clone()).run(&grid)
}

/// The default and ARCS-Offline reports of `wl` at `cap_w`, and the
/// trained history.
fn default_and_offline(
    m: &Machine,
    wl: WorkloadDescriptor,
    cap_w: f64,
) -> (AppRunReport, AppRunReport, arcs_harmony::History<OmpConfig>) {
    let strategies = [SweepStrategy::Default, SweepStrategy::Offline];
    let mut cells = sweep(m, wl, cap_w, &strategies).cells;
    let off = cells.pop().expect("an offline cell");
    let history = off.history.expect("offline cells carry their history");
    (cells.pop().expect("a default cell").report, off.report, history)
}

/// EP is the negative control: ARCS-Offline must cost less than 1% on an
/// application with zero tuning headroom.
#[test]
fn ep_no_harm() {
    let m = Machine::crill();
    let wl = model::ep(Class::B);
    let (base, off, history) = default_and_offline(&m, wl, 115.0);
    assert!(off.time_s / base.time_s < 1.01, "ratio {}", off.time_s / base.time_s);
    // And the chosen config is (essentially) the default.
    let cfg = history.get("ep/gaussian_pairs").unwrap().config;
    assert_eq!(cfg.schedule.kind, arcs_omprt::ScheduleKind::Static);
}

/// MG's multi-scale regions make naive per-invocation tuning catastrophic;
/// selective tuning must contain the damage to single digits.
#[test]
fn mg_selective_tuning_contains_the_multiscale_pathology() {
    let m = Machine::crill();
    let selective = SweepStrategy::OnlineSelective { min_region_time_s: 4.0 * m.config_change_s };
    let strategies = [SweepStrategy::Default, SweepStrategy::Online, selective];
    let sweep = sweep(&m, model::mg(Class::B), 115.0, &strategies);
    let [base, naive, selective] = &sweep.cells[..] else { unreachable!("one cell each") };
    let (base, naive, selective) = (&base.report, &naive.report, &selective.report);
    assert!(
        naive.time_s / base.time_s > 2.0,
        "naive should blow up: {}",
        naive.time_s / base.time_s
    );
    assert!(
        selective.time_s / base.time_s < 1.12,
        "selective must contain it: {}",
        selective.time_s / base.time_s
    );
    assert!(selective.tuner.unwrap().skipped_regions > 0);
}

/// The DVFS energy objective must dominate the plain ARCS choice on
/// energy while the time objective never clamps below the cap frequency.
#[test]
fn dvfs_energy_objective_buys_real_energy() {
    let m = Machine::crill();
    let wl = model::sp(Class::B);
    let space = ConfigSpace::with_dvfs(&m, 4);
    let region = wl.step.iter().find(|r| r.name.ends_with("x_solve")).unwrap();
    let t = tune_region(&m, 115.0, region, &space, Objective::Time, TuningMode::OfflineTrain);
    let e = tune_region(&m, 115.0, region, &space, Objective::Energy, TuningMode::OfflineTrain);
    assert!(e.report.energy_j < t.report.energy_j * 0.95, "energy objective must save ≥5%");
    assert!(t.config.freq_ghz.is_none(), "time objective must not clamp");
    assert!(e.config.freq_ghz.is_some(), "energy objective should clamp");
}

/// Under measurement noise, offline training remains effective: the
/// trained history replayed on the clean simulator keeps ≥80% of the
/// noise-free improvement, across seeds.
#[test]
fn noisy_training_keeps_most_of_the_gain() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 60;
    let (base, clean_off, _) = default_and_offline(&m, wl.clone(), 85.0);
    let clean_gain = 1.0 - clean_off.time_s / base.time_s;
    let space = ConfigSpace::for_machine(&m);
    for seed in [11u64, 77, 3021] {
        let h = Runner::new(&mut SimExecutor::new(m.clone(), 85.0).with_noise(0.15, seed))
            .workload(&wl)
            .train(TunerOptions::offline_train(space.clone()), "noisy")
            .unwrap();
        let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space.clone(), h));
        let mut exec = SimExecutor::new(m.clone(), 85.0);
        let rep = Runner::new(&mut exec).workload(&wl).tuner(&mut tuner).run().unwrap();
        let gain = 1.0 - rep.time_s / base.time_s;
        assert!(gain > 0.8 * clean_gain, "seed {seed}: noisy gain {gain} vs clean {clean_gain}");
    }
}

/// The simulated run report carries LULESH's Fig. 9 shape: EvalEOS
/// spends most of its time in the barrier, and the balanced kernels show
/// almost none.
#[test]
fn fig9_barrier_shares_from_the_simulated_report() {
    let m = Machine::crill();
    let mut wl = model::lulesh(45);
    wl.timesteps = 5;
    let rep = Runner::new(&mut SimExecutor::new(m, 115.0)).workload(&wl).run().unwrap();
    // Barrier ordering (from the report, which fig9 prints).
    let eos = &rep.per_region["lulesh/EvalEOSForElems"];
    let kin = &rep.per_region["lulesh/CalcKinematicsForElems"];
    let eos_frac = eos.barrier_s / (eos.busy_s + eos.barrier_s);
    let kin_frac = kin.barrier_s / (kin.busy_s + kin.barrier_s);
    assert!(eos_frac > 0.5, "EvalEOS barrier share {eos_frac}");
    assert!(kin_frac < 0.05, "Kinematics barrier share {kin_frac}");
}

/// Custom machines loaded from JSON behave like presets end to end.
#[test]
fn custom_machine_runs_end_to_end() {
    let mut json = Machine::crill().to_json();
    json = json.replace("\"l3_mib\": 20", "\"l3_mib\": 40");
    let m = Machine::from_json(&json).unwrap();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 15;
    let (base, off, _) = default_and_offline(&m, wl.clone(), 115.0);
    // A doubled L3 shrinks SP's cache headroom, but ARCS must still win.
    let ratio = off.time_s / base.time_s;
    assert!(ratio < 1.0, "ratio {ratio}");
    let mut crill = SimExecutor::new(Machine::crill(), 115.0);
    let crill_base = Runner::new(&mut crill).workload(&wl).run().unwrap();
    assert!(base.time_s < crill_base.time_s, "bigger L3 must help the default");
}

/// The default configuration encoded in every ConfigSpace matches the
/// paper's definition on both machines.
#[test]
fn default_configs_match_paper_definition() {
    for m in [Machine::crill(), Machine::minotaur()] {
        let space = ConfigSpace::for_machine(&m);
        let cfg = space.decode(&space.default_point()).omp;
        assert_eq!(cfg, OmpConfig::default_for(&m));
        assert_eq!(cfg.threads, m.hw_threads());
        assert_eq!(cfg.schedule, arcs_omprt::Schedule::static_block());
    }
}
