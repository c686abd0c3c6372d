//! The run-to-run comparator behind `arcs-sim compare`: two
//! [`TraceReport`]s in, one [`Comparison`] out — the whole-run total and
//! every shared region's mean per-invocation cost under an objective,
//! each gated against a percentage threshold.

use crate::analysis::TraceReport;
use arcs_trace::Objective;
use serde::{Deserialize, Serialize};

/// One compared quantity in a [`Comparison`]. Despite the `_s` suffix
/// (kept for artifact compatibility), values are in the comparison
/// objective's unit: seconds, joules, or joule-seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompareRow {
    /// Region name, or `"TOTAL"` for the whole-run row.
    pub name: String,
    pub baseline_s: f64,
    pub candidate_s: f64,
    /// `100 × (candidate − baseline) / baseline`; 0 when the baseline is 0.
    pub delta_pct: f64,
    /// `delta_pct` strictly exceeds the threshold (so two identical runs
    /// pass even at `--fail-on 0`).
    pub regression: bool,
}

/// Result of gating a candidate run against a baseline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Comparison {
    /// Threshold in percent: any row slower by strictly more than this
    /// regresses.
    pub fail_on_pct: f64,
    /// `TOTAL` first, then regions sorted by name.
    pub rows: Vec<CompareRow>,
    /// Regions present only in the baseline (reported, never failed —
    /// a renamed region should not brick CI).
    pub missing_in_candidate: Vec<String>,
    /// Regions present only in the candidate.
    pub new_in_candidate: Vec<String>,
    /// What the rows measure (`Time` in pre-objective artifacts).
    #[serde(default)]
    pub objective: Objective,
}

impl Comparison {
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.regression)
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("comparison serializes")
    }

    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Gate `candidate` against `baseline` on wall time: the whole-run wall
/// time and every shared region's mean invocation time must not be slower
/// by strictly more than `fail_on_pct` percent. Equivalent to
/// [`compare_reports_for`] with [`Objective::Time`].
pub fn compare_reports(
    baseline: &TraceReport,
    candidate: &TraceReport,
    fail_on_pct: f64,
) -> Comparison {
    compare_reports_for(baseline, candidate, fail_on_pct, Objective::Time)
}

/// Gate `candidate` against `baseline` under an explicit objective: the
/// whole-run total (wall time / attributed energy / their product) and
/// every shared region's mean per-invocation metric must not regress by
/// strictly more than `fail_on_pct` percent.
pub fn compare_reports_for(
    baseline: &TraceReport,
    candidate: &TraceReport,
    fail_on_pct: f64,
    objective: Objective,
) -> Comparison {
    let row = |name: &str, base: f64, cand: f64| {
        let delta_pct = if base > 0.0 { 100.0 * (cand - base) / base } else { 0.0 };
        CompareRow {
            name: name.to_string(),
            baseline_s: base,
            candidate_s: cand,
            delta_pct,
            regression: delta_pct > fail_on_pct,
        }
    };
    let mut rows =
        vec![row("TOTAL", baseline.total_metric(objective), candidate.total_metric(objective))];
    let mut missing = Vec::new();
    for (name, b) in &baseline.regions {
        match candidate.regions.get(name) {
            Some(c) => {
                rows.push(row(name, b.mean_call_metric(objective), c.mean_call_metric(objective)))
            }
            None => missing.push(name.clone()),
        }
    }
    let new_in_candidate: Vec<String> =
        candidate.regions.keys().filter(|k| !baseline.regions.contains_key(*k)).cloned().collect();
    Comparison { fail_on_pct, rows, missing_in_candidate: missing, new_in_candidate, objective }
}
