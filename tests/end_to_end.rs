//! Cross-crate integration tests: the full ARCS stack, both backends.

use arcs::{
    AppRunReport, ConfigSpace, OmpConfig, RegionTuner, Runner, SimExecutor, SweepEngine, SweepGrid,
    SweepReport, SweepStrategy, TunerOptions,
};
use arcs_harmony::History;
use arcs_kernels::{model, Class};
use arcs_powersim::{Machine, WorkloadDescriptor};

/// `strategies` on every workload of `wls` at every cap of `caps_w`.
fn sweep(
    m: &Machine,
    wls: &[WorkloadDescriptor],
    caps_w: &[f64],
    strategies: &[SweepStrategy],
) -> SweepReport {
    let grid = SweepGrid { workloads: wls.to_vec(), ..SweepGrid::new(m.clone()) };
    SweepEngine::new(m.clone()).run(&grid.caps(caps_w).strategies(strategies))
}

/// The report of the (workload, cap, strategy-label) cell.
fn cell<'a>(sweep: &'a SweepReport, wl: &str, cap_w: f64, label: &str) -> &'a AppRunReport {
    &sweep.cell(wl, cap_w, label).expect("the grid has the cell").report
}

/// ARCS-Offline training alone: the history a replay would load.
fn trained(m: &Machine, cap_w: f64, wl: &WorkloadDescriptor) -> History<OmpConfig> {
    let context = format!("{}.{}.{cap_w}W", wl.name, m.name);
    Runner::new(&mut SimExecutor::new(m.clone(), cap_w))
        .workload(wl)
        .train(TunerOptions::offline_train(ConfigSpace::for_machine(m)), &context)
        .unwrap()
}

/// ARCS-Offline on SP must land in the paper's improvement band at every
/// power level (Fig. 4: 26–40% time, energy up to ~40%).
#[test]
fn sp_offline_beats_default_at_every_power_level() {
    let m = Machine::crill();
    let caps = [55.0, 70.0, 85.0, 100.0, 115.0];
    let sweep =
        sweep(&m, &[model::sp(Class::B)], &caps, &[SweepStrategy::Default, SweepStrategy::Offline]);
    for cap in caps {
        let (base, off) =
            (cell(&sweep, "sp.B", cap, "default"), cell(&sweep, "sp.B", cap, "arcs-offline"));
        let t = off.time_s / base.time_s;
        let e = off.energy_j / base.energy_j;
        assert!((0.55..0.85).contains(&t), "time ratio {t} at {cap}W");
        assert!(e < 0.9, "energy ratio {e} at {cap}W");
    }
}

/// BT's gains are small (§V-B) and ARCS-Online can be *worse* than the
/// default — the overhead offsets the gains (Fig. 7).
#[test]
fn bt_gains_are_small_and_online_can_lose() {
    let m = Machine::crill();
    let sweep = sweep(
        &m,
        &[model::bt(Class::B)],
        &[85.0],
        &[SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline],
    );
    let base = cell(&sweep, "bt.B", 85.0, "default");
    let off_ratio = cell(&sweep, "bt.B", 85.0, "arcs-offline").time_s / base.time_s;
    assert!((0.85..1.0).contains(&off_ratio), "offline {off_ratio}");
    let on = cell(&sweep, "bt.B", 85.0, "arcs-online");
    assert!(on.time_s / base.time_s > 1.0, "online should lose on BT");
}

/// LULESH on Crill: tiny regions make ARCS-Online lose at every cap
/// (§V-C), while energy stays close to par.
#[test]
fn lulesh_online_loses_on_crill() {
    let m = Machine::crill();
    let caps = [55.0, 115.0];
    let sweep =
        sweep(&m, &[model::lulesh(45)], &caps, &[SweepStrategy::Default, SweepStrategy::Online]);
    for cap in caps {
        let base = cell(&sweep, "lulesh.45", cap, "default");
        let t = cell(&sweep, "lulesh.45", cap, "arcs-online").time_s / base.time_s;
        assert!(t > 1.0 && t < 1.15, "online ratio {t} at {cap}W");
    }
}

/// Cross-architecture (§V-A): SP improves by roughly the paper's 37% on
/// the POWER8 model; BT by much less.
#[test]
fn minotaur_sp_reproduces_the_37_percent_win() {
    let m = Machine::minotaur();
    let tdp = m.power.tdp_w;
    let sweep = sweep(
        &m,
        &[model::sp(Class::B), model::bt(Class::B)],
        &[tdp],
        &[SweepStrategy::Default, SweepStrategy::Offline],
    );
    let gain = |wl: &str| {
        1.0 - cell(&sweep, wl, tdp, "arcs-offline").time_s / cell(&sweep, wl, tdp, "default").time_s
    };
    let (gain, gain_bt) = (gain("sp.B"), gain("bt.B"));
    assert!((0.35 - 0.12..=0.35 + 0.12).contains(&gain), "SP Minotaur gain {gain}");
    assert!(gain_bt < gain, "BT gain {gain_bt} must be smaller than SP's {gain}");
}

/// The offline history replays deterministically: two replay runs under
/// the same history are identical, and replaying beats re-searching.
#[test]
fn offline_history_replay_is_deterministic() {
    let m = Machine::crill();
    let mut wl = model::sp(Class::B);
    wl.timesteps = 25;
    let history = trained(&m, 85.0, &wl);
    let space = ConfigSpace::for_machine(&m);
    let run = |h| {
        let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space.clone(), h));
        let mut exec = SimExecutor::new(m.clone(), 85.0);
        Runner::new(&mut exec).workload(&wl).tuner(&mut tuner).run().unwrap()
    };
    let a = run(history.clone());
    let b = run(history);
    assert_eq!(a.time_s, b.time_s);
    assert_eq!(a.energy_j, b.energy_j);
}

/// History files survive a round-trip through disk (the paper's "saved
/// values can be used instead of repeating the search").
#[test]
fn history_file_roundtrip_through_disk() {
    let m = Machine::crill();
    let mut wl = model::bt(Class::W);
    wl.timesteps = 30;
    let history = trained(&m, 115.0, &wl);
    let dir = std::env::temp_dir().join("arcs-e2e");
    let path = dir.join("bt.history.json");
    history.save(&path).unwrap();
    let loaded: History<OmpConfig> = History::load(&path).unwrap();
    assert_eq!(loaded.context, history.context);
    assert_eq!(loaded.len(), history.len());
    for (region, entry) in &history.entries {
        let back = loaded.get(region).expect("region survives the roundtrip");
        assert_eq!(back.config, entry.config, "{region}");
        assert_eq!(back.evaluations, entry.evaluations);
        // JSON float formatting may cost the last ULP.
        assert!((back.value - entry.value).abs() <= entry.value.abs() * 1e-12);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Selective tuning (the paper's future work) must not hurt: skipping
/// tiny regions keeps LULESH at or below the tune-everything cost.
#[test]
fn selective_tuning_never_hurts_lulesh() {
    let m = Machine::crill();
    let selective = SweepStrategy::OnlineSelective { min_region_time_s: 4.0 * m.config_change_s };
    let sweep = sweep(&m, &[model::lulesh(30)], &[115.0], &[SweepStrategy::Online, selective]);
    let naive = cell(&sweep, "lulesh.30", 115.0, "arcs-online");
    let selective = cell(&sweep, "lulesh.30", 115.0, "arcs-online-selective");
    assert!(selective.time_s <= naive.time_s * 1.01);
    assert!(selective.tuner.unwrap().skipped_regions > 0);
}

/// Power-capping invariants at application level: time decreases and
/// energy increases monotonically with the cap (energy: higher caps burn
/// more power for less time — package energy grows in our model's regime).
#[test]
fn app_time_monotone_in_cap() {
    let m = Machine::crill();
    let mut wl = model::bt(Class::B);
    wl.timesteps = 30;
    let caps = [55.0, 70.0, 85.0, 100.0, 115.0];
    let sweep = sweep(&m, &[wl], &caps, &[SweepStrategy::Default]);
    let mut prev = f64::INFINITY;
    for cap in caps {
        let rep = cell(&sweep, "bt.B", cap, "default");
        assert!(rep.time_s <= prev, "time must not rise with cap");
        // Node power = both capped packages + DRAM (outside the cap, as on
        // the real machine: "we used maximum power for other components").
        let dram = m.sockets as f64 * m.power.p_dram_background_w;
        assert!(
            rep.avg_power_w() <= 2.0 * cap + dram + 1e-9,
            "power {} exceeds caps+DRAM at {cap}W",
            rep.avg_power_w()
        );
        prev = rep.time_s;
    }
}
