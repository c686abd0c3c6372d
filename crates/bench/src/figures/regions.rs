//! Region-level artefacts: the search space, single-region sweeps, the
//! Offline-chosen configurations and their feature comparisons.

use super::SP_REGIONS;
use crate::{
    f3, feature_comparison, power_label, print_table, region_at, region_oracle, POWER_LEVELS,
};
use arcs::{
    ChunkChoice, ConfigSpace, OmpConfig, Runner, ScheduleChoice, SimExecutor, ThreadChoice,
    TunerOptions,
};
use arcs_kernels::{model, Class};
use arcs_omprt::Schedule;
use arcs_powersim::{Machine, SimConfig, WorkloadDescriptor};
use std::io::{self, Write};

/// A Table I cell: one parameter's choices, comma-separated.
fn choices<T>(items: &[T], show: impl Fn(&T) -> String) -> String {
    items.iter().map(show).collect::<Vec<_>>().join(", ")
}

/// Table I: the ARCS search parameter sets per machine.
pub fn table1(out: &mut dyn Write) -> io::Result<()> {
    let crill = ConfigSpace::crill();
    let minotaur = ConfigSpace::minotaur();
    let threads = |space: &ConfigSpace| {
        choices(&space.threads, |t| match t {
            ThreadChoice::Count(n) => n.to_string(),
            ThreadChoice::Default => "default".into(),
        })
    };
    let schedules = choices(&crill.schedules, |s| match s {
        ScheduleChoice::Kind(k) => k.name().to_string(),
        ScheduleChoice::Default => "default".into(),
    });
    let chunks = choices(&crill.chunks, |c| match c {
        ChunkChoice::Size(n) => n.to_string(),
        ChunkChoice::Default => "default".into(),
    });
    print_table(
        out,
        "Set of ARCS search parameters",
        &["Parameter", "Set of values"],
        &[
            vec!["Number of threads (Crill)".into(), threads(&crill)],
            vec!["Number of threads (Minotaur)".into(), threads(&minotaur)],
            vec!["Schedule Type".into(), schedules],
            vec!["Chunk Size".into(), chunks],
        ],
    )?;
    writeln!(
        out,
        "\nsearch-space sizes: Crill {} points/region, Minotaur {} points/region",
        crill.size(),
        minotaur.size()
    )
}

/// Fig. 1: execution time of the BT x_solve region under five runtime
/// configurations at each power level (region time for the whole run).
pub fn fig1(out: &mut dyn Write) -> io::Result<()> {
    let m = Machine::crill();
    let wl = model::bt(Class::B);
    let region = "bt/x_solve";
    let calls = wl.timesteps as f64;

    let named: [(&str, SimConfig); 4] = [
        ("24,guided,1", SimConfig { threads: 24, schedule: Schedule::guided(1) }),
        ("32,dynamic,1", SimConfig { threads: 32, schedule: Schedule::dynamic(1) }),
        ("32,guided,1", SimConfig { threads: 32, schedule: Schedule::guided(1) }),
        ("32,static,default (DEFAULT)", OmpConfig::default_for(&m).as_sim()),
    ];

    let mut rows = Vec::new();
    for &cap in &POWER_LEVELS {
        let (best_cfg, best) = region_oracle(&m, cap, &wl, region);
        let mut row = vec![power_label(cap), format!("{:.2}s [{}]", best.time_s * calls, best_cfg)];
        for (_, cfg) in &named {
            let rep = region_at(&m, cap, &wl, region, *cfg);
            row.push(format!("{:.2}s", rep.time_s * calls));
        }
        rows.push(row);
    }
    let mut headers = vec!["Power", "Best configuration"];
    headers.extend(named.iter().map(|(n, _)| *n));
    print_table(out, "BT x_solve total region time per run", &headers, &rows)?;

    // The headline cross-power comparison.
    let (best70_cfg, best70) = region_oracle(&m, 70.0, &wl, region);
    let def_tdp = region_at(&m, 115.0, &wl, region, OmpConfig::default_for(&m).as_sim());
    writeln!(
        out,
        "\noptimal@70W [{}] = {:.2}s vs default@TDP = {:.2}s  ({:+.1}%)",
        best70_cfg,
        best70.time_s * calls,
        def_tdp.time_s * calls,
        (best70.time_s / def_tdp.time_s - 1.0) * 100.0
    )
}

/// Table II: optimal configuration chosen by ARCS-Offline for SP regions.
pub fn table2(out: &mut dyn Write) -> io::Result<()> {
    let m = Machine::crill();
    let history = Runner::new(&mut SimExecutor::new(m.clone(), 115.0))
        .workload(&model::sp(Class::B))
        .train(TunerOptions::offline_train(ConfigSpace::for_machine(&m)), "sp.B.crill.115W")
        .expect("training converges");
    let rows: Vec<Vec<String>> = SP_REGIONS
        .iter()
        .map(|&r| {
            let e = history.get(r).expect("trained region");
            vec![
                r.trim_start_matches("sp/").to_string(),
                e.config.to_string(),
                format!("{:.4}s", e.value),
            ]
        })
        .collect();
    print_table(
        out,
        "Optimal configuration chosen by ARCS-Offline (SP class B, TDP)",
        &["Region", "Optimal (threads, schedule, chunk)", "Region time/call"],
        &rows,
    )
}

/// Fig. 3: SP region feature comparison, default vs ARCS-Offline at TDP.
pub fn fig3(out: &mut dyn Write) -> io::Result<()> {
    let rows = feature_comparison(&Machine::crill(), 115.0, &model::sp(Class::B), &SP_REGIONS);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.region.trim_start_matches("sp/").to_string(),
                r.config.to_string(),
                f3(r.l1),
                f3(r.l2),
                f3(r.l3),
                f3(r.barrier),
            ]
        })
        .collect();
    print_table(
        out,
        "Normalised features (default = 1.000; smaller is better)",
        &["Region", "ARCS config", "L1 miss", "L2 miss", "L3 miss", "OMP_BARRIER"],
        &table,
    )
}

/// Figs. 6 and 10: one region's features under its ARCS-Offline
/// configuration at TDP, one feature per row.
fn region_features(
    out: &mut dyn Write,
    title: &str,
    wl: &WorkloadDescriptor,
    region: &str,
) -> io::Result<()> {
    let rows = feature_comparison(&Machine::crill(), 115.0, wl, &[region]);
    let r = &rows[0];
    print_table(
        out,
        title,
        &["Feature", "ARCS-Offline"],
        &[
            vec!["OMP_BARRIER".into(), f3(r.barrier)],
            vec!["L1 cache miss".into(), f3(r.l1)],
            vec!["L2 cache miss".into(), f3(r.l2)],
            vec!["L3 cache miss".into(), f3(r.l3)],
        ],
    )?;
    writeln!(out, "\nchosen config: [{}]", r.config)
}

pub fn fig6(out: &mut dyn Write) -> io::Result<()> {
    region_features(
        out,
        "Normalised features for compute_rhs (default = 1.000)",
        &model::bt(Class::B),
        "bt/compute_rhs",
    )
}

pub fn fig10(out: &mut dyn Write) -> io::Result<()> {
    region_features(
        out,
        "Normalised features (default = 1.000)",
        &model::lulesh(45),
        "lulesh/CalcFBHourglassForceForElems",
    )
}

/// Fig. 9: OMPT event breakdown for the top LULESH regions (default config,
/// TDP): OpenMP_IMPLICIT_TASK vs OpenMP_LOOP vs OpenMP_BARRIER.
pub fn fig9(out: &mut dyn Write) -> io::Result<()> {
    let rep = Runner::new(&mut SimExecutor::new(Machine::crill(), 115.0))
        .workload(&model::lulesh(45))
        .run()
        .expect("workload is set");
    let mut regions: Vec<_> = rep.per_region.iter().collect();
    // Inclusive time = per-thread busy + barrier (the IMPLICIT_TASK sum).
    regions.sort_by(|a, b| (b.1.busy_s + b.1.barrier_s).total_cmp(&(a.1.busy_s + a.1.barrier_s)));
    let rows: Vec<Vec<String>> = regions
        .iter()
        .take(5)
        .map(|(name, s)| {
            vec![
                name.trim_start_matches("lulesh/").to_string(),
                format!("{:.1}s", s.busy_s + s.barrier_s),
                format!("{:.1}s", s.busy_s),
                format!("{:.1}s", s.barrier_s),
                format!("{:.1}%", 100.0 * s.barrier_s / (s.busy_s + s.barrier_s)),
                format!("{:.4}s", s.mean_time_s()),
            ]
        })
        .collect();
    print_table(
        out,
        "Top 5 LULESH regions by inclusive (IMPLICIT_TASK) time",
        &["Region", "IMPLICIT_TASK", "LOOP", "BARRIER", "barrier %", "time/call"],
        &rows,
    )
}
