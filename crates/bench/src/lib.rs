//! # arcs-bench — regenerating every table and figure of the ARCS paper
//!
//! Every paper artefact is one row of [`FIGURES`]; `arcs-sim fig <id>`
//! renders a row and `arcs-sim fig --all --out results` regenerates the
//! checked-in `results/<id>.txt` files, which `tests/figures.rs` holds
//! byte-equal to what the code prints. This module keeps the read-side
//! helpers the render functions share.

mod figures;

pub use figures::{Figure, FIGURES};

use arcs::dvfs::tune_region;
use arcs::{
    AppRunReport, ConfigSpace, Objective, OmpConfig, Runner, SimExecutor, SweepReport,
    SweepStrategy, TunerOptions, TuningMode,
};
use arcs_powersim::{Machine, RegionModel, SimConfig, SimReport, WorkloadDescriptor};
use std::io::{self, Write};

/// The paper's Crill power levels (W); the last is the TDP.
pub const POWER_LEVELS: [f64; 5] = [55.0, 70.0, 85.0, 100.0, 115.0];

/// The paper's three measured strategies, in presentation order.
pub const PAPER_STRATEGIES: [SweepStrategy; 3] =
    [SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline];

pub fn power_label(cap: f64) -> String {
    if cap >= 115.0 {
        "TDP(115W)".to_string()
    } else {
        format!("{cap:.0}W")
    }
}

/// One power level's comparison: default vs ARCS-Online vs ARCS-Offline.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub cap_w: f64,
    pub default: AppRunReport,
    pub online: AppRunReport,
    pub offline: AppRunReport,
}

impl SweepPoint {
    /// The default/online/offline cells of `report` at one cap (panics if
    /// any of the three is missing).
    pub fn at(report: &SweepReport, workload: &str, cap_w: f64) -> SweepPoint {
        let pick = |label: &str| {
            report
                .cell(workload, cap_w, label)
                .unwrap_or_else(|| panic!("sweep missing cell ({workload}, {cap_w}W, {label})"))
                .report
                .clone()
        };
        SweepPoint {
            cap_w,
            default: pick("default"),
            online: pick("arcs-online"),
            offline: pick("arcs-offline"),
        }
    }

    pub fn online_time_ratio(&self) -> f64 {
        self.online.time_s / self.default.time_s
    }

    pub fn offline_time_ratio(&self) -> f64 {
        self.offline.time_s / self.default.time_s
    }

    pub fn online_energy_ratio(&self) -> f64 {
        self.online.energy_j / self.default.energy_j
    }

    pub fn offline_energy_ratio(&self) -> f64 {
        self.offline.energy_j / self.default.energy_j
    }
}

/// The [`SweepPoint`] series for one workload over `caps_w`.
pub fn points(report: &SweepReport, workload: &str, caps_w: &[f64]) -> Vec<SweepPoint> {
    caps_w.iter().map(|&cap| SweepPoint::at(report, workload, cap)).collect()
}

fn region_model<'a>(wl: &'a WorkloadDescriptor, region: &str) -> &'a RegionModel {
    wl.step.iter().find(|r| r.name == region).unwrap_or_else(|| panic!("unknown region {region}"))
}

/// Exhaustive oracle for a single region at one power cap: the best
/// configuration over the whole Table I grid and its region time.
pub fn region_oracle(
    machine: &Machine,
    cap_w: f64,
    wl: &WorkloadDescriptor,
    region: &str,
) -> (OmpConfig, SimReport) {
    let space = ConfigSpace::for_machine(machine);
    let model = region_model(wl, region);
    let best =
        tune_region(machine, cap_w, model, &space, Objective::Time, TuningMode::OfflineTrain);
    (best.config.omp, best.report)
}

/// Simulate one region at a fixed configuration (Fig. 1 bars).
pub fn region_at(
    machine: &Machine,
    cap_w: f64,
    wl: &WorkloadDescriptor,
    region: &str,
    cfg: SimConfig,
) -> SimReport {
    (*SimExecutor::new(machine.clone(), cap_w).simulate(region_model(wl, region), cfg)).clone()
}

/// Feature comparison (Figs. 3, 6, 10): per-region normalised metrics of
/// the ARCS-Offline configuration relative to the default (default = 1.0).
#[derive(Debug, Clone)]
pub struct FeatureRow {
    pub region: String,
    pub config: OmpConfig,
    /// Normalised to the default configuration (1.0 = no change).
    pub l1: f64,
    pub l2: f64,
    pub l3: f64,
    pub barrier: f64,
}

pub fn feature_comparison(
    machine: &Machine,
    cap_w: f64,
    wl: &WorkloadDescriptor,
    regions: &[&str],
) -> Vec<FeatureRow> {
    // Only the trained history is read, so no replay runs.
    let context = format!("{}.{}.{cap_w}W", wl.name, machine.name);
    let history = Runner::new(&mut SimExecutor::new(machine.clone(), cap_w))
        .workload(wl)
        .train(TunerOptions::offline_train(ConfigSpace::for_machine(machine)), &context)
        .expect("training converges");
    let default_cfg = OmpConfig::default_for(machine);
    regions
        .iter()
        .map(|&name| {
            let cfg = history.get(name).map(|e| e.config).unwrap_or(default_cfg);
            let base = region_at(machine, cap_w, wl, name, default_cfg.as_sim());
            let tuned = region_at(machine, cap_w, wl, name, cfg.as_sim());
            let norm = |t: f64, b: f64| if b > 0.0 { t / b } else { 1.0 };
            FeatureRow {
                region: name.to_string(),
                config: cfg,
                l1: norm(tuned.cache.l1_miss_rate, base.cache.l1_miss_rate),
                l2: norm(tuned.cache.l2_miss_rate, base.cache.l2_miss_rate),
                l3: norm(tuned.cache.l3_miss_rate, base.cache.l3_miss_rate),
                barrier: norm(tuned.barrier_total_s(), base.barrier_total_s()),
            }
        })
        .collect()
}

/// Pretty-print a table with a title.
pub fn print_table(
    out: &mut dyn Write,
    title: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> io::Result<()> {
    writeln!(out, "\n{title}")?;
    writeln!(out, "{}", "-".repeat(title.len().max(20)))?;
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect::<Vec<_>>().join("  ")
    };
    writeln!(out, "{}", fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>()))?;
    for row in rows {
        writeln!(out, "{}", fmt_row(row))?;
    }
    Ok(())
}

/// Shorthand for `{:.3}` cells.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs::{SweepEngine, SweepGrid};
    use arcs_kernels::{model, Class};

    #[test]
    fn oracle_beats_or_matches_default_everywhere() {
        let m = Machine::crill();
        let wl = model::bt(Class::B);
        for cap in [55.0, 115.0] {
            let (cfg, best) = region_oracle(&m, cap, &wl, "bt/x_solve");
            let def = region_at(&m, cap, &wl, "bt/x_solve", OmpConfig::default_for(&m).as_sim());
            assert!(best.time_s <= def.time_s, "oracle worse than default at {cap}");
            assert!(cfg.threads >= 2);
        }
    }

    #[test]
    fn sweep_point_ratios_are_consistent() {
        let m = Machine::crill();
        let mut wl = model::sp(Class::B);
        wl.timesteps = 20;
        let grid =
            SweepGrid::new(m.clone()).workload(wl).caps(&[85.0]).strategies(&PAPER_STRATEGIES);
        let report = SweepEngine::new(m).run(&grid);
        let pts = points(&report, "sp.B", &[85.0]);
        assert_eq!(pts.len(), 1);
        let pt = &pts[0];
        assert!(pt.offline_time_ratio() > 0.0);
        assert!((pt.offline.time_s / pt.default.time_s - pt.offline_time_ratio()).abs() < 1e-12);
    }

    #[test]
    fn feature_rows_cover_requested_regions() {
        let m = Machine::crill();
        let mut wl = model::sp(Class::B);
        wl.timesteps = 20;
        let rows = feature_comparison(&m, 115.0, &wl, &["sp/x_solve", "sp/z_solve"]);
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert!(r.l1 > 0.0 && r.l3 > 0.0 && r.barrier > 0.0);
        }
    }
}
