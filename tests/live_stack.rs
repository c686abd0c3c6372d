//! Integration tests for the live (real-thread) stack: runtime → OMPT →
//! APEX → policy → Harmony, on real kernels.

use arcs::TuningMode;
use arcs::{ArcsLive, ChunkChoice, ConfigSpace, ScheduleChoice, ThreadChoice, TunerOptions};
use arcs_kernels::{BtSolver, Class, Lulesh, SpSolver};
use arcs_omprt::{Runtime, ScheduleKind};
use std::sync::Arc;

fn tiny_space(default_threads: usize) -> ConfigSpace {
    ConfigSpace {
        threads: vec![ThreadChoice::Count(1), ThreadChoice::Count(2), ThreadChoice::Default],
        schedules: vec![
            ScheduleChoice::Kind(ScheduleKind::Dynamic),
            ScheduleChoice::Kind(ScheduleKind::Static),
            ScheduleChoice::Kind(ScheduleKind::Guided),
            ScheduleChoice::Default,
        ],
        chunks: vec![ChunkChoice::Size(1), ChunkChoice::Size(32), ChunkChoice::Default],
        default_threads,
        freqs_ghz: Vec::new(),
    }
}

fn online_options(threads: usize) -> TunerOptions {
    TunerOptions::new(tiny_space(threads), TuningMode::Online)
}

/// BT keeps converging to the manufactured solution while ARCS retunes it
/// live — tuning must be numerically transparent.
#[test]
fn bt_numerics_unchanged_under_live_tuning() {
    // Reference: untuned run.
    let rt_ref = Arc::new(Runtime::new(2));
    let mut bt_ref = BtSolver::new(Arc::clone(&rt_ref), Class::S);
    bt_ref.run(5);
    let expected = bt_ref.error_rms();

    // Tuned run: different configurations every invocation, same numbers.
    let rt = Arc::new(Runtime::new(2));
    let live = ArcsLive::attach(Arc::clone(&rt), online_options(2));
    let mut bt = BtSolver::new(Arc::clone(&rt), Class::S);
    bt.run(5);
    assert!((bt.error_rms() - expected).abs() < 1e-13);
    assert!(live.stats().config_changes > 0, "tuning must actually happen");
}

#[test]
fn sp_numerics_unchanged_under_live_tuning() {
    let rt_ref = Arc::new(Runtime::new(2));
    let mut sp_ref = SpSolver::new(Arc::clone(&rt_ref), Class::S);
    sp_ref.run(5);
    let expected = sp_ref.error_rms();

    let rt = Arc::new(Runtime::new(2));
    let _live = ArcsLive::attach(Arc::clone(&rt), online_options(2));
    let mut sp = SpSolver::new(Arc::clone(&rt), Class::S);
    sp.run(5);
    assert!((sp.error_rms() - expected).abs() < 1e-13);
}

/// LULESH stays sane under live tuning and every one of its six regions
/// gets a tuning session.
#[test]
fn lulesh_tunes_all_regions_live() {
    let rt = Arc::new(Runtime::new(2));
    let live = ArcsLive::attach(Arc::clone(&rt), online_options(2));
    let mut l = Lulesh::new(Arc::clone(&rt), 6);
    l.run(15);
    assert!(l.is_sane());
    let configs = live.best_configs();
    for name in arcs_kernels::lulesh::REGION_NAMES {
        assert!(configs.contains_key(name), "missing session for {name}");
    }
    // APEX profiled every region.
    for name in arcs_kernels::lulesh::REGION_NAMES {
        let task = live.apex().task(name);
        let profile = live.apex().profile(task).expect("profile exists");
        assert!(profile.count >= 15, "{name}: {} samples", profile.count);
    }
}

/// Live ARCS converges on a synthetic loop and the converged configuration
/// persists (the policy applies converged values thereafter).
#[test]
fn live_convergence_pins_configuration() {
    let rt = Arc::new(Runtime::new(2));
    let live = ArcsLive::attach(Arc::clone(&rt), online_options(2));
    let region = rt.register_region("live/pin");
    for _ in 0..120 {
        rt.parallel_for(region, 0..256, |i| {
            std::hint::black_box(i * i);
        });
        if live.converged() {
            break;
        }
    }
    assert!(live.converged(), "live session failed to converge");
    let pinned = live.best_configs()["live/pin"];
    let changes_before = live.stats().config_changes;
    let rec = rt.parallel_for(region, 0..256, |_| {});
    assert_eq!(rec.threads, pinned.threads);
    assert_eq!(rec.schedule, pinned.schedule);
    // Converged configuration equals the applied one: no further changes.
    let rec2 = rt.parallel_for(region, 0..256, |_| {});
    assert_eq!(rec2.threads, pinned.threads);
    assert_eq!(live.stats().config_changes, changes_before);
}

/// The exported live history can drive an offline replay attachment.
#[test]
fn live_history_drives_replay() {
    let rt = Arc::new(Runtime::new(2));
    let live = ArcsLive::attach(Arc::clone(&rt), online_options(2));
    let region = rt.register_region("live/replayable");
    for _ in 0..60 {
        rt.parallel_for(region, 0..128, |_| {});
        if live.converged() {
            break;
        }
    }
    let history = live.export_history("live-ctx");
    let best = live.best_configs()["live/replayable"];

    let rt2 = Arc::new(Runtime::new(2));
    let _replay = ArcsLive::attach(
        Arc::clone(&rt2),
        TunerOptions::new(tiny_space(2), TuningMode::OfflineReplay(history)),
    );
    let region2 = rt2.register_region("live/replayable");
    let rec = rt2.parallel_for(region2, 0..128, |_| {});
    assert_eq!(rec.threads, best.threads);
    assert_eq!(rec.schedule, best.schedule);
}
