//! Application-level figures: (workload × cap × strategy) grids on the
//! sweep engine, normalised to the default configuration.

use super::SP_REGIONS;
use crate::{f3, points, power_label, print_table, SweepPoint, PAPER_STRATEGIES, POWER_LEVELS};
use arcs::{SweepEngine, SweepGrid, SweepReport, SweepStrategy};
use arcs_kernels::{model, Class};
use arcs_powersim::{Machine, WorkloadDescriptor};
use std::io::{self, Write};

/// Run one (workloads × caps × strategies) grid on a fresh engine.
fn sweep(
    machine: Machine,
    workloads: &[WorkloadDescriptor],
    caps_w: &[f64],
    strategies: &[SweepStrategy],
) -> SweepReport {
    let mut grid = SweepGrid::new(machine.clone()).caps(caps_w).strategies(strategies);
    grid.workloads = workloads.to_vec();
    SweepEngine::new(machine).run(&grid)
}

/// One "app × power levels, normalised to default" table: the four
/// columns every such table starts with, then the figure's own `tail`.
fn level_table(
    out: &mut dyn Write,
    title: &str,
    points: &[SweepPoint],
    tail_headers: &[&str],
    tail: impl Fn(&SweepPoint) -> Vec<String>,
) -> io::Result<()> {
    let mut headers = vec!["Power", "default time", "online t", "offline t"];
    headers.extend(tail_headers);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mut row = vec![
                power_label(p.cap_w),
                format!("{:.1}s", p.default.time_s),
                f3(p.online_time_ratio()),
                f3(p.offline_time_ratio()),
            ];
            row.extend(tail(p));
            row
        })
        .collect();
    print_table(out, title, &headers, &rows)
}

/// Figs. 4 and 7: one NPB application's time and package energy across
/// the five Crill power levels.
fn app_levels(out: &mut dyn Write, wl: WorkloadDescriptor) -> io::Result<()> {
    let name = wl.name.clone();
    let report = sweep(Machine::crill(), &[wl], &POWER_LEVELS, &PAPER_STRATEGIES);
    level_table(
        out,
        &format!("{} normalised to default (smaller is better)", name.to_uppercase()),
        &points(&report, &name, &POWER_LEVELS),
        &["default energy", "online E", "offline E"],
        |p| {
            vec![
                format!("{:.0}J", p.default.energy_j),
                f3(p.online_energy_ratio()),
                f3(p.offline_energy_ratio()),
            ]
        },
    )
}

pub fn fig4(out: &mut dyn Write) -> io::Result<()> {
    app_levels(out, model::sp(Class::B))
}

pub fn fig7(out: &mut dyn Write) -> io::Result<()> {
    app_levels(out, model::bt(Class::B))
}

/// Fig. 5: SP class C at TDP (workload scaling), plus the §V-A class B vs
/// class C configuration comparison — the Offline cells carry the
/// training histories, so one sweep covers both.
pub fn fig5(out: &mut dyn Write) -> io::Result<()> {
    let workloads = [model::sp(Class::C), model::sp(Class::B)];
    let report = sweep(Machine::crill(), &workloads, &[115.0], &PAPER_STRATEGIES);
    let pt = SweepPoint::at(&report, "sp.C", 115.0);
    print_table(
        out,
        "SP.C at TDP, normalised to default",
        &["Criterion", "default", "ARCS-Online", "ARCS-Offline"],
        &[
            vec![
                "Execution time".into(),
                "1.000".into(),
                f3(pt.online_time_ratio()),
                f3(pt.offline_time_ratio()),
            ],
            vec![
                "Package energy".into(),
                "1.000".into(),
                f3(pt.online_energy_ratio()),
                f3(pt.offline_energy_ratio()),
            ],
        ],
    )?;
    let history = |wl: &str| {
        report
            .cell(wl, 115.0, "arcs-offline")
            .and_then(|c| c.history.as_ref())
            .expect("offline cell exports its history")
    };
    let (hb, hc) = (history("sp.B"), history("sp.C"));
    writeln!(out, "\nConfigs B vs C (workload-dependence):")?;
    for r in SP_REGIONS {
        writeln!(
            out,
            "  {:16} B: [{}]   C: [{}]",
            r.trim_start_matches("sp/"),
            hb.get(r).expect("trained region").config,
            hc.get(r).expect("trained region").config
        )?;
    }
    Ok(())
}

/// Fig. 8: LULESH (mesh 45) — time and energy on Crill across power
/// levels, and execution time on Minotaur at TDP.
pub fn fig8(out: &mut dyn Write) -> io::Result<()> {
    let wl = [model::lulesh(45)];
    let name = &wl[0].name;
    let report = sweep(Machine::crill(), &wl, &POWER_LEVELS, &PAPER_STRATEGIES);
    level_table(
        out,
        "(a,b) LULESH mesh 45 on Crill, normalised to default",
        &points(&report, name, &POWER_LEVELS),
        &["online E", "offline E"],
        |p| vec![f3(p.online_energy_ratio()), f3(p.offline_energy_ratio())],
    )?;

    let minotaur = Machine::minotaur();
    let tdp = minotaur.power.tdp_w;
    let pt = SweepPoint::at(&sweep(minotaur, &wl, &[tdp], &PAPER_STRATEGIES), name, tdp);
    print_table(
        out,
        "(c) LULESH mesh 45 on Minotaur (TDP), normalised to default",
        &["Strategy", "time ratio"],
        &[
            vec!["default".into(), "1.000".into()],
            vec!["ARCS-Online".into(), f3(pt.online_time_ratio())],
            vec!["ARCS-Offline".into(), f3(pt.offline_time_ratio())],
        ],
    )
}

/// §V cross-architecture results: SP and BT on the POWER8 (Minotaur) model.
pub fn xarch(out: &mut dyn Write) -> io::Result<()> {
    let m = Machine::minotaur();
    let tdp = m.power.tdp_w;
    let workloads = [model::sp(Class::B), model::bt(Class::B)];
    let report = sweep(m, &workloads, &[tdp], &PAPER_STRATEGIES);
    let rows: Vec<Vec<String>> = ["sp.B", "bt.B"]
        .iter()
        .map(|name| {
            let pt = SweepPoint::at(&report, name, tdp);
            vec![
                name.to_string(),
                format!("{:.1}s", pt.default.time_s),
                f3(pt.online_time_ratio()),
                f3(pt.offline_time_ratio()),
                format!("{:+.1}%", (1.0 - pt.offline_time_ratio()) * 100.0),
            ]
        })
        .collect();
    print_table(
        out,
        "Minotaur at TDP, normalised to default",
        &["App", "default time", "online t", "offline t", "offline gain"],
        &rows,
    )
}

/// Extension: ARCS on the rest of the NAS suite personalities.
///
/// §II: "We also experimented with OpenMP regions from other NAS Parallel
/// benchmark applications. We observed that a significant number of the
/// OpenMP regions showed similar behavior." CG (irregular, memory-bound)
/// and EP (perfectly balanced, compute-only) bracket the behaviour space:
/// CG should show SP-like headroom; EP is the negative control where a
/// correct tuner must do (almost) no harm.
pub fn extension_suite(out: &mut dyn Write) -> io::Result<()> {
    let m = Machine::crill();
    // Selective tuning: regions cheaper than 4× the reconfiguration cost
    // are left alone (the paper's future-work fix; for CG's 5 ms regions
    // this is the only sane policy).
    let strategies = [
        SweepStrategy::Default,
        SweepStrategy::Online,
        SweepStrategy::Offline,
        SweepStrategy::OnlineSelective { min_region_time_s: 4.0 * m.config_change_s },
    ];
    let workloads = [model::cg(Class::B), model::ep(Class::B), model::mg(Class::B)];
    let report = sweep(m, &workloads, &POWER_LEVELS, &strategies);
    for name in ["cg.B", "ep.B", "mg.B"] {
        level_table(
            out,
            &format!("{name} normalised to default"),
            &points(&report, name, &POWER_LEVELS),
            &["online+selective t", "offline E"],
            |p| {
                let selective = &report
                    .cell(name, p.cap_w, "arcs-online-selective")
                    .expect("selective cell present")
                    .report;
                vec![f3(selective.time_s / p.default.time_s), f3(p.offline_energy_ratio())]
            },
        )?;
    }
    Ok(())
}
