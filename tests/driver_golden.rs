//! The run driver's bytes, pinned across *commits*.
//!
//! Every other determinism gate in the tree compares two runs of the same
//! build, so a reordered event or one extra meter read would pass as long
//! as it reproduced. These cells hash (FNV-1a) the serialised `VecSink`
//! trace of one small run each and hold the hash equal to a constant
//! generated at commit `28d23f0` — the last commit with two driver loops
//! (`drive_fixed`/`drive_tuned`) — so the merged loop is shown, not
//! assumed, to emit what both of them did. Between them the cells cross
//! every arm of the loop: no decision, the adaptive ladder, a searching
//! tuner under a non-time objective, train → replay, the fault plan with
//! the resilience ladder on, and an external cap move.
//!
//! On mismatch the trace is written to `$TMPDIR/driver_golden.<cell>.jsonl`
//! — see `golden/mod.rs` for the pin and how to read a failure.
//!
//! A sink changes what the driver does (it builds events, the memo cache
//! narrates lookups), so the traced cells do not pin the untraced path
//! every sweep and broker quantum takes. The `untraced_*` cells do: each
//! hashes the serialised `AppRunReport`s of runs with no sink attached,
//! plus the hit/miss counts of every memo cache they used, against
//! constants generated at `7db6480` — the last commit whose driver found
//! a region's tables by hashing its name. On mismatch the stream is in
//! `$TMPDIR/driver_golden.<cell>.json`.

mod golden;

use arcs::prelude::*;
use arcs::LiveExecutor;
use arcs::TuningMode;
use arcs_harmony::{History, ProOptions};
use arcs_kernels::{model, Class};
use arcs_omprt::{Runtime, Schedule};
use arcs_powersim::{
    CapFault, ImbalanceProfile, MemoryProfile, RegionModel, StrideClass, WorkloadDescriptor,
};
use arcs_trace::to_jsonl;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn pin(cell: &str, trace: &str, expected: u64) {
    golden::pin("driver_golden", cell, trace, expected);
}

fn drained(sink: &VecSink) -> String {
    to_jsonl(&sink.drain()).expect("traces serialise")
}

fn sp(timesteps: usize) -> WorkloadDescriptor {
    let mut wl = model::sp(Class::B);
    wl.timesteps = timesteps;
    wl
}

/// A sink that moves `handle` to `to_w` when the `at`-th `RegionEnd`
/// passes through — a broker reallocating mid-run, at a reproducible
/// point of the run.
struct CapMover {
    inner: Arc<VecSink>,
    handle: CapHandle,
    at: usize,
    to_w: f64,
    ends: AtomicUsize,
}

impl CapMover {
    fn new(inner: &Arc<VecSink>, handle: &CapHandle, at: usize, to_w: f64) -> Arc<Self> {
        Arc::new(CapMover {
            inner: Arc::clone(inner),
            handle: handle.clone(),
            at,
            to_w,
            ends: AtomicUsize::new(0),
        })
    }
}

impl TraceSink for CapMover {
    fn record(&self, t_s: Option<f64>, event: TraceEvent) {
        if matches!(event, TraceEvent::RegionEnd { .. })
            && self.ends.fetch_add(1, Ordering::Relaxed) + 1 == self.at
        {
            self.handle.set(self.to_w);
        }
        self.inner.record(t_s, event);
    }
}

/// No decision at all, noise on, and a cap request RAPL clamps (500 W on
/// a 115 W part): the run-start `CapChange` carries both views.
#[test]
fn default_run() {
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(Machine::crill(), 500.0).with_noise(0.05, 9);
    Runner::new(&mut exec).workload(&sp(4)).trace(sink.clone()).run().unwrap();
    pin("default", &drained(&sink), 0x55ee_fb8e_6c49_f05a);
}

/// A fixed configuration with the adaptive ladder on, on the workload
/// whose static partition makes it fire: `ConfigSwitch` + change-cost
/// `OverheadCharged` before the invocation, `PolicySwitched` after it.
#[test]
fn fixed_adaptive_run_on_mc() {
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(Machine::crill(), 115.0);
    let cfg = OmpConfig { threads: 32, schedule: Schedule::static_block() };
    let rep = Runner::new(&mut exec)
        .workload(&model::mc(Class::B))
        .fixed(move |_| cfg, "static")
        .adaptive_schedule(true)
        .trace(sink.clone())
        .run()
        .unwrap();
    assert!(rep.config_change_overhead_s > 0.0, "the ladder must fire in this cell");
    pin("fixed_adaptive_mc", &drained(&sink), 0x48fa_2650_e721_be34);
}

/// A searching Nelder–Mead tuner scored by energy, under noise:
/// `SearchIteration` between `RegionBegin` and `RegionEnd`, both §III-C
/// overheads, `objective_value` in joules.
#[test]
fn nelder_mead_energy_run() {
    let m = Machine::crill();
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 80.0).with_noise(0.05, 3);
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    Runner::new(&mut exec)
        .workload(&sp(12))
        .tuner(&mut tuner)
        .objective(Objective::Energy)
        .trace(sink.clone())
        .run()
        .unwrap();
    pin("nelder_mead_energy", &drained(&sink), 0x6a67_c5e8_c475_ce44);
}

/// ARCS-Offline: every training pass and the measured replay on a second
/// executor, one trace.
#[test]
fn offline_train_then_replay() {
    let m = Machine::crill();
    let wl = sp(8);
    let space = ConfigSpace::for_machine(&m);
    let sink = Arc::new(VecSink::new());
    let history = Runner::new(&mut SimExecutor::new(m.clone(), 85.0))
        .workload(&wl)
        .trace(sink.clone())
        .train(TunerOptions::offline_train(space.clone()), "sp.B.crill.85W")
        .unwrap();
    let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space, history));
    Runner::new(&mut SimExecutor::new(m, 85.0))
        .workload(&wl)
        .tuner(&mut tuner)
        .label("arcs-offline")
        .trace(sink.clone())
        .run()
        .unwrap();
    pin("offline_train_replay", &drained(&sink), 0x14ea_92ba_9b90_7e20);
}

/// The paper-facing chaos cell: every meter-read attempt advances the
/// plan's read ordinal, so one read more or fewer anywhere in the loop
/// moves every later fault.
#[test]
fn flaky_rapl_with_the_standard_ladder() {
    let m = Machine::crill();
    let mut wl = model::lulesh(45);
    wl.timesteps = 20;
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 60.0);
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    let rep = Runner::new(&mut exec)
        .workload(&wl)
        .tuner(&mut tuner)
        .faults(FaultPlan::flaky_rapl(7))
        .resilience(ResilienceOptions::standard())
        .trace(sink.clone())
        .run()
        .unwrap();
    assert!(rep.faults.meter_retries > 0 && rep.faults.rejected > 0, "the plan must bite");
    pin("flaky_rapl_standard", &drained(&sink), 0xc92b_bb73_5782_f942);
}

/// The last rung: a hard outage spends the error budget, the run goes
/// `Degraded`, and `freeze_all` — the last thing the invocation that
/// exhausted the budget does — pins every region (`TunerDegraded`).
#[test]
fn outage_exhausts_the_budget_and_freezes() {
    let m = Machine::crill();
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 70.0);
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    let res = ResilienceOptions { error_budget: Some(4), ..ResilienceOptions::standard() };
    let rep = Runner::new(&mut exec)
        .workload(&sp(20))
        .tuner(&mut tuner)
        .faults(FaultPlan::rapl_outage(3))
        .resilience(res)
        .trace(sink.clone())
        .run()
        .unwrap();
    assert!(rep.status == RunStatus::Degraded && rep.faults.frozen_regions > 0);
    pin("outage_budget_freeze", &drained(&sink), 0xa1f9_ccf9_b53b_c98f);
}

/// A broker-style reallocation in the middle of a tuned run: the handle
/// moves after the 7th invocation and the 8th runs under the new cap.
#[test]
fn mid_run_cap_handle_set() {
    let m = Machine::crill();
    let vec = Arc::new(VecSink::new());
    let handle = CapHandle::new(100.0);
    let mut exec = SimExecutor::new(m.clone(), 85.0);
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    let rep = Runner::new(&mut exec)
        .workload(&sp(6))
        .tuner(&mut tuner)
        .cap(handle.clone())
        .trace(CapMover::new(&vec, &handle, 7, 20.0))
        .run()
        .unwrap();
    assert_eq!(rep.power_cap_w, m.power.tdp_w * 0.25, "20 W clamps to the RAPL floor");
    pin("mid_run_cap_set", &drained(&vec), 0x6367_29d5_7fb4_62ca);
}

// ---------------------------------------------------------------------
// Sim ≡ Live: one perturbed scenario on both backends.
// ---------------------------------------------------------------------

fn kernel(name: &str) -> RegionModel {
    RegionModel {
        name: name.into(),
        iterations: 32,
        cycles_per_iter: 20_000.0,
        imbalance: ImbalanceProfile::Uniform,
        memory: MemoryProfile {
            footprint_bytes: 1e6,
            accesses_per_iter: 10.0,
            stride: StrideClass::Medium,
            temporal_reuse: 0.5,
            hot_bytes_per_thread: 4096.0,
        },
        serial_s: 0.0,
        critical_s: 0.0,
    }
}

/// Replay two regions at different saved configurations (so the ICVs move
/// on every entry) under `flaky-rapl` with two scheduled cap faults, one
/// of them out of range, plus an external cap move after the 5th
/// invocation. A replaying tuner decides nothing from measurements, so
/// the event *kinds* are a function of the plan alone — on any backend.
fn perturbed_replay<B: Backend>(b: &mut B) -> Vec<TraceRecord> {
    let wl = WorkloadDescriptor {
        name: "twin".into(),
        step: vec![kernel("twin/a"), kernel("twin/b")],
        timesteps: 6,
    };
    let mut history = History::new("twin");
    history.insert("twin/a", OmpConfig { threads: 2, schedule: Schedule::dynamic(16) }, 0.1, 9);
    history.insert("twin/b", OmpConfig { threads: 4, schedule: Schedule::static_block() }, 0.1, 9);
    let mut tuner = RegionTuner::new(TunerOptions::offline_replay(ConfigSpace::crill(), history));
    let mut plan = FaultPlan::flaky_rapl(7);
    plan.cap_schedule = vec![
        CapFault { at_invocation: 3, cap_w: 45.0 },
        CapFault { at_invocation: 9, cap_w: 500.0 },
    ];
    let vec = Arc::new(VecSink::new());
    let handle = CapHandle::new(70.0);
    Runner::new(b)
        .workload(&wl)
        .tuner(&mut tuner)
        .faults(plan)
        .resilience(ResilienceOptions::standard())
        .cap(handle.clone())
        .trace(CapMover::new(&vec, &handle, 5, 10.0))
        .run()
        .unwrap();
    vec.drain()
}

/// The driver's events, in order, without the memo cache's (the live path
/// has no cache to narrate).
fn driver_kinds(records: &[TraceRecord]) -> Vec<&'static str> {
    records.iter().map(|r| r.event.kind()).filter(|k| !k.starts_with("Cache")).collect()
}

/// The whole trace was re-pinned when the memo began keying cells by
/// operating point: the cap moves between caps at which both teams run at
/// the same clamped frequency, so three `CacheMiss` records became
/// `CacheHit`s. The trace without cache records is pinned to what commit
/// `244df57`, the last keyed by raw cap, emitted — nothing else moved.
#[test]
fn perturbed_replay_on_the_simulator() {
    let records = perturbed_replay(&mut SimExecutor::new(Machine::crill(), 85.0));
    pin("perturbed_replay_sim", &to_jsonl(&records).unwrap(), 0xc321_bbb9_6ae6_340f);
    let driver: Vec<TraceRecord> =
        records.into_iter().filter(|r| !r.event.kind().starts_with("Cache")).collect();
    pin("perturbed_replay_sim_without_cache", &to_jsonl(&driver).unwrap(), 0x15f7_c6b9_d75d_36de);
}

/// The `LiveExecutor` twin: wall-clock values differ run to run, so only
/// the event kinds, in order, are held — to a pinned hash and to what the
/// simulator emits for the same scenario.
#[test]
fn perturbed_replay_on_live_threads_emits_the_same_kinds() {
    let rt = Arc::new(Runtime::new(4));
    let mut live = LiveExecutor::new(rt, Machine::crill(), 85.0).with_time_scale(1e-2);
    let live_kinds = driver_kinds(&perturbed_replay(&mut live));
    let sim = perturbed_replay(&mut SimExecutor::new(Machine::crill(), 85.0));
    assert_eq!(live_kinds, driver_kinds(&sim), "one plan must perturb both backends alike");
    pin("perturbed_replay_live_kinds", &live_kinds.join("\n"), 0x8fd9_ca3a_d2b7_729b);
}

// ---------------------------------------------------------------------
// Untraced runs: reports and memo-cache counters, no sink attached.
// ---------------------------------------------------------------------

/// One line per report (its JSON), then one `cache` line per memo cache
/// with the hits and misses it counted.
fn untraced(reports: &[&AppRunReport], caches: &[&SharedSimCache]) -> String {
    let mut out = String::new();
    for rep in reports {
        out += &serde_json::to_string(rep).expect("reports serialise");
        out.push('\n');
    }
    for cache in caches {
        let s = cache.stats();
        out += &format!("cache hits={} misses={}\n", s.hits, s.misses);
    }
    out
}

fn pin_untraced(cell: &str, reports: &[&AppRunReport], caches: &[&SharedSimCache], expected: u64) {
    golden::pin_as("driver_golden", cell, "json", &untraced(reports, caches), expected);
}

/// One tuned run of `wl` on a fresh executor at `cap_w`, no sink.
fn tuned(
    wl: &WorkloadDescriptor,
    cap_w: f64,
    options: TunerOptions,
) -> (AppRunReport, SimExecutor) {
    let mut exec = SimExecutor::new(Machine::crill(), cap_w).with_noise(0.05, 3);
    let rep = Runner::new(&mut exec).workload(wl).tuner(&mut RegionTuner::new(options)).run();
    (rep.unwrap(), exec)
}

fn online() -> TunerOptions {
    TunerOptions::online(ConfigSpace::for_machine(&Machine::crill()))
}

#[test]
fn untraced_default_run() {
    let mut exec = SimExecutor::new(Machine::crill(), 85.0).with_noise(0.05, 9);
    let rep = Runner::new(&mut exec).workload(&sp(20)).run().unwrap();
    pin_untraced("untraced_default", &[&rep], &[exec.shared_cache()], 0x9ee6_efb1_8cd7_d156);
}

#[test]
fn untraced_fixed_adaptive_run_on_mc() {
    let mut exec = SimExecutor::new(Machine::crill(), 115.0);
    let cfg = OmpConfig { threads: 32, schedule: Schedule::static_block() };
    let rep = Runner::new(&mut exec)
        .workload(&model::mc(Class::B))
        .fixed(move |_| cfg, "static")
        .adaptive_schedule(true)
        .run()
        .unwrap();
    pin_untraced(
        "untraced_fixed_adaptive_mc",
        &[&rep],
        &[exec.shared_cache()],
        0x1ecf_10f1_7490_dac6,
    );
}

#[test]
fn untraced_nelder_mead_by_time_and_by_energy() {
    let (time, exec_t) = tuned(&sp(40), 80.0, online());
    let (energy, exec_e) = tuned(&sp(40), 80.0, online().with_objective(Objective::Energy));
    let caches = [exec_t.shared_cache().as_ref(), exec_e.shared_cache().as_ref()];
    pin_untraced("untraced_nelder_mead", &[&time, &energy], &caches, 0xdb88_c73e_be92_7f07);
}

#[test]
fn untraced_pro_run() {
    let space = ConfigSpace::for_machine(&Machine::crill());
    let options = TunerOptions::new(space, TuningMode::OnlinePro(ProOptions::default()));
    let (rep, exec) = tuned(&sp(40), 80.0, options);
    pin_untraced("untraced_pro", &[&rep], &[exec.shared_cache()], 0x7d43_4530_7fae_5c1a);
}

#[test]
fn untraced_offline_train_then_replay() {
    let m = Machine::crill();
    let wl = sp(8);
    let space = ConfigSpace::for_machine(&m);
    let mut trainer = SimExecutor::new(m.clone(), 85.0);
    let history = Runner::new(&mut trainer)
        .workload(&wl)
        .train(TunerOptions::offline_train(space.clone()), "sp.B.crill.85W")
        .unwrap();
    let mut replayer = SimExecutor::new(m, 85.0);
    let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space, history.clone()));
    let rep = Runner::new(&mut replayer).workload(&wl).tuner(&mut tuner).run().unwrap();
    let caches = [trainer.shared_cache().as_ref(), replayer.shared_cache().as_ref()];
    let stream = history.to_json() + "\n" + &untraced(&[&rep], &caches);
    golden::pin_as(
        "driver_golden",
        "untraced_offline_train_replay",
        "json",
        &stream,
        0x731a_098f_0896_ee03,
    );
}

#[test]
fn untraced_selective_lulesh() {
    let mut wl = model::lulesh(45);
    wl.timesteps = 30;
    let (rep, exec) = tuned(&wl, 85.0, online().with_min_region_time(0.03));
    assert!(rep.tuner.unwrap().skipped_regions > 0, "the threshold must pin some regions");
    pin_untraced(
        "untraced_selective_lulesh",
        &[&rep],
        &[exec.shared_cache()],
        0x572c_d06a_610c_8d29,
    );
}

/// MG repeats one region name at every grid level's trip count.
#[test]
fn untraced_online_mg_repeats_region_names() {
    let (rep, exec) = tuned(&model::mg(Class::S), 70.0, online());
    pin_untraced("untraced_online_mg", &[&rep], &[exec.shared_cache()], 0x53ac_a66b_140c_8ca4);
}

#[test]
fn untraced_flaky_rapl_with_the_standard_ladder() {
    let m = Machine::crill();
    let mut wl = model::lulesh(45);
    wl.timesteps = 20;
    let mut exec = SimExecutor::new(m.clone(), 60.0);
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    let rep = Runner::new(&mut exec)
        .workload(&wl)
        .tuner(&mut tuner)
        .faults(FaultPlan::flaky_rapl(7))
        .resilience(ResilienceOptions::standard())
        .run()
        .unwrap();
    assert!(rep.faults.meter_retries > 0 && rep.faults.rejected > 0, "the plan must bite");
    pin_untraced(
        "untraced_flaky_rapl_standard",
        &[&rep],
        &[exec.shared_cache()],
        0x3f1a_36df_b246_7ddf,
    );
}

/// A broker job's life: one executor and one tuner carried across three
/// quanta, the cap handle moved and a fresh memo cache bound between them.
#[test]
fn untraced_quanta_reuse_one_executor_and_tuner() {
    let m = Machine::crill();
    let wl = sp(10);
    let handle = CapHandle::new(90.0);
    let mut exec = SimExecutor::new(m, 90.0).with_noise(0.05, 5).with_cap_handle(handle.clone());
    let mut tuner = RegionTuner::new(online());
    let mut reports = Vec::new();
    let mut caches = Vec::new();
    for cap_w in [90.0, 65.0, 110.0] {
        handle.set(cap_w);
        let cache = Arc::new(SharedSimCache::new("crill"));
        let rep = Runner::new(&mut exec)
            .workload(&wl)
            .tuner(&mut tuner)
            .shared_cache(Arc::clone(&cache))
            .run()
            .unwrap();
        reports.push(rep);
        caches.push(cache);
    }
    let reports: Vec<&AppRunReport> = reports.iter().collect();
    let caches: Vec<&SharedSimCache> = caches.iter().map(|c| c.as_ref()).collect();
    pin_untraced("untraced_quanta_reuse", &reports, &caches, 0x954a_804c_9447_1e65);
}
