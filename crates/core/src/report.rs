//! Run reports: what an application execution measured.

use crate::config::OmpConfig;
use crate::tuner::TunerStats;
use arcs_trace::Objective;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RunStatus {
    /// The run completed with no unrecovered faults.
    #[default]
    Ok,
    /// The run completed, but the measurement error budget was exhausted
    /// and the tuner froze to its best-known configurations (graceful
    /// degradation — see DESIGN.md §3.3).
    Degraded,
}

impl fmt::Display for RunStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunStatus::Ok => write!(f, "ok"),
            RunStatus::Degraded => write!(f, "degraded"),
        }
    }
}

/// Fault and recovery counters accumulated by the driver and tuner over
/// one run. All-zero for an unfaulted run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultRecovery {
    /// Package-meter read retries the driver spent.
    pub meter_retries: u64,
    /// Meter reads that still failed after the retry budget (absorbed
    /// against the error budget, or fatal without one).
    pub hard_faults: u64,
    /// Region measurements the tuner rejected as outliers.
    pub rejected: u64,
    /// Search-session restarts triggered by rejection streaks.
    pub restarts: u64,
    /// Regions frozen to their best-known configuration.
    pub frozen_regions: u64,
}

impl FaultRecovery {
    /// Did anything fire?
    pub fn any(&self) -> bool {
        *self != FaultRecovery::default()
    }
}

/// Per-region aggregate over a whole application run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionSummary {
    pub invocations: u64,
    /// Total wall time spent in the region (fork to join), seconds.
    pub total_time_s: f64,
    /// Total per-thread loop-body time (OMPT `OpenMP_LOOP`).
    pub busy_s: f64,
    /// Total per-thread barrier wait (OMPT `OpenMP_BARRIER`).
    pub barrier_s: f64,
    /// Invocation-weighted mean cache miss rates.
    pub l1_miss_rate: f64,
    pub l2_miss_rate: f64,
    pub l3_miss_rate: f64,
    /// The configuration in effect for the final invocation.
    pub final_config: Option<OmpConfig>,
}

impl Default for RegionSummary {
    fn default() -> Self {
        RegionSummary {
            invocations: 0,
            total_time_s: 0.0,
            busy_s: 0.0,
            barrier_s: 0.0,
            l1_miss_rate: 0.0,
            l2_miss_rate: 0.0,
            l3_miss_rate: 0.0,
            final_config: None,
        }
    }
}

impl RegionSummary {
    /// Mean region duration per invocation.
    pub fn mean_time_s(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_time_s / self.invocations as f64
        }
    }
}

/// Whole-application run report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AppRunReport {
    pub app: String,
    pub machine: String,
    pub power_cap_w: f64,
    pub strategy: String,
    /// The objective the run was scored by (`Time` unless the caller
    /// selected otherwise). Absent in pre-v3 reports, which were all
    /// time-scored.
    #[serde(default)]
    pub objective: Objective,
    /// End-to-end wall time including all overheads, seconds.
    pub time_s: f64,
    /// Package energy (all sockets), joules.
    pub energy_j: f64,
    /// Time spent changing configurations (`omp_set_*` calls).
    pub config_change_overhead_s: f64,
    /// Time spent in measurement instrumentation (OMPT + APEX).
    pub instrumentation_overhead_s: f64,
    pub per_region: BTreeMap<String, RegionSummary>,
    pub tuner: Option<TunerStats>,
    /// Whether the run completed cleanly or degraded after exhausting
    /// its error budget. Absent in pre-v5 reports, which had no fault
    /// substrate and were all `Ok`.
    #[serde(default)]
    pub status: RunStatus,
    /// Fault/recovery counters (all-zero without an attached fault
    /// plan).
    #[serde(default)]
    pub faults: FaultRecovery,
}

impl AppRunReport {
    /// Average package power over the run.
    pub fn avg_power_w(&self) -> f64 {
        if self.time_s > 0.0 {
            self.energy_j / self.time_s
        } else {
            0.0
        }
    }

    /// Search overhead estimate: total time minus what the run would have
    /// taken at the final (converged) configurations — only meaningful for
    /// online strategies; computed by the caller where needed.
    pub fn total_overhead_s(&self) -> f64 {
        self.config_change_overhead_s + self.instrumentation_overhead_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_time_handles_zero_invocations() {
        let r = RegionSummary::default();
        assert_eq!(r.mean_time_s(), 0.0);
    }

    #[test]
    fn avg_power() {
        let rep = AppRunReport {
            app: "x".into(),
            machine: "crill".into(),
            power_cap_w: 85.0,
            strategy: "default".into(),
            objective: Objective::Time,
            time_s: 10.0,
            energy_j: 800.0,
            config_change_overhead_s: 0.0,
            instrumentation_overhead_s: 0.0,
            per_region: BTreeMap::new(),
            tuner: None,
            status: RunStatus::Ok,
            faults: FaultRecovery::default(),
        };
        assert_eq!(rep.avg_power_w(), 80.0);
    }

    #[test]
    fn report_serialises() {
        let mut per_region = BTreeMap::new();
        per_region.insert("r".to_string(), RegionSummary::default());
        let rep = AppRunReport {
            app: "sp.B".into(),
            machine: "crill".into(),
            power_cap_w: 55.0,
            strategy: "arcs-offline".into(),
            objective: Objective::EnergyDelay,
            time_s: 1.0,
            energy_j: 2.0,
            config_change_overhead_s: 0.1,
            instrumentation_overhead_s: 0.05,
            per_region,
            tuner: None,
            status: RunStatus::Degraded,
            faults: FaultRecovery { hard_faults: 3, frozen_regions: 1, ..Default::default() },
        };
        let json = serde_json::to_string(&rep).unwrap();
        let back: AppRunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(rep, back);
        assert!((back.total_overhead_s() - 0.15).abs() < 1e-12);
    }

    #[test]
    fn reports_without_an_objective_field_default_to_time() {
        // Reports written before the objective layer carry no `objective`
        // key; they were all time-scored.
        let rep = AppRunReport {
            app: "sp.B".into(),
            machine: "crill".into(),
            power_cap_w: 55.0,
            strategy: "default".into(),
            objective: Objective::EnergyDelay,
            time_s: 1.0,
            energy_j: 2.0,
            config_change_overhead_s: 0.0,
            instrumentation_overhead_s: 0.0,
            per_region: BTreeMap::new(),
            tuner: None,
            status: RunStatus::Ok,
            faults: FaultRecovery::default(),
        };
        let json = serde_json::to_string(&rep).unwrap();
        let legacy = json.replace("\"objective\":\"edp\",", "");
        assert_ne!(legacy, json, "objective key must have been present");
        let back: AppRunReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.objective, Objective::Time);
    }

    #[test]
    fn reports_without_status_or_fault_fields_default_to_clean() {
        // Reports written before the fault substrate carry neither key;
        // they were all clean runs.
        let rep = AppRunReport {
            app: "sp.B".into(),
            machine: "crill".into(),
            power_cap_w: 55.0,
            strategy: "default".into(),
            objective: Objective::Time,
            time_s: 1.0,
            energy_j: 2.0,
            config_change_overhead_s: 0.0,
            instrumentation_overhead_s: 0.0,
            per_region: BTreeMap::new(),
            tuner: None,
            status: RunStatus::Degraded,
            faults: FaultRecovery { rejected: 2, ..Default::default() },
        };
        let json = serde_json::to_string(&rep).unwrap();
        let legacy = json.replace("\"status\":\"Degraded\",", "").replace(
            ",\"faults\":{\"meter_retries\":0,\"hard_faults\":0,\"rejected\":2,\"restarts\":0,\"frozen_regions\":0}",
            "",
        );
        assert_ne!(legacy, json, "status/faults keys must have been present");
        let back: AppRunReport = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.status, RunStatus::Ok);
        assert!(!back.faults.any());
    }

    #[test]
    fn status_renders_lowercase() {
        assert_eq!(RunStatus::Ok.to_string(), "ok");
        assert_eq!(RunStatus::Degraded.to_string(), "degraded");
    }
}
