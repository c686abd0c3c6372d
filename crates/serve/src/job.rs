//! Tenant job descriptions, and what the broker answers about one job.

use arcs::RunStatus;
use serde::{Deserialize, Serialize};

/// What a tenant asks the broker to run.
///
/// The broker reasons about a job through two numbers: `floor_w`, the
/// lowest node-level power allocation the job will accept (admission
/// control rejects jobs whose floor no budget or node could ever cover),
/// and its tenant's `weight`, which sets the tenant's share of whatever
/// budget is left above the floors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    pub tenant: String,
    /// Workload name, `<kernel>.<class>` — e.g. `sp.W`, `cg.S` (see
    /// [`arcs_kernels::model::by_spec`]).
    pub workload: String,
    /// Application timesteps to run; 0 means the workload's own default.
    #[serde(default)]
    pub timesteps: usize,
    /// Lowest node-level cap (watts) the job will run under. `None`
    /// accepts the node's own RAPL floor.
    #[serde(default)]
    pub floor_w: Option<f64>,
    /// Tenant fair-share weight (first submission wins for a tenant;
    /// values ≤ 0 mean the default of 1).
    #[serde(default)]
    pub weight: f64,
    /// When set, the job runs under a deterministic
    /// [`FaultPlan::flaky_rapl`](arcs_powersim::FaultPlan::flaky_rapl)
    /// seeded here, plus the standard self-healing ladder — the path by
    /// which jobs go `Degraded` and get pinned to their floor.
    #[serde(default)]
    pub fault_seed: Option<u64>,
}

impl JobSpec {
    pub fn new(tenant: impl Into<String>, workload: impl Into<String>) -> Self {
        JobSpec {
            tenant: tenant.into(),
            workload: workload.into(),
            timesteps: 0,
            floor_w: None,
            weight: 1.0,
            fault_seed: None,
        }
    }

    pub fn timesteps(mut self, steps: usize) -> Self {
        self.timesteps = steps;
        self
    }

    pub fn floor_w(mut self, watts: f64) -> Self {
        self.floor_w = Some(watts);
        self
    }

    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.fault_seed = Some(seed);
        self
    }

    /// The floor the job asks for, as admission and placement read it:
    /// no floor — or a nonsensical one (negative, NaN) — asks for 0 W.
    pub fn requested_floor_w(&self) -> f64 {
        self.floor_w.unwrap_or(0.0).max(0.0)
    }
}

/// Where a job sits in its lifecycle — the `status` op's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Admitted, waiting for a free node and budget headroom (including
    /// requeued jobs sitting out a retry backoff).
    Queued,
    Running,
    Completed,
    Rejected,
    /// Terminal: the job's retry budget ran out, or no surviving node
    /// could ever host it (v9 resilience layer).
    Failed,
    /// Terminal: load shedding turned the job away at admission because
    /// the bounded queue was full. The submit response carries a
    /// `retry_after_s` backpressure hint.
    Shed,
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Rejected => "rejected",
            JobState::Failed => "failed",
            JobState::Shed => "shed",
        };
        write!(f, "{s}")
    }
}

/// A finished job's summary, kept for `status` queries.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    pub job: u64,
    pub tenant: String,
    pub node: u64,
    pub status: RunStatus,
    pub time_s: f64,
    pub energy_j: f64,
}

/// What [`Broker::submit`](crate::Broker::submit) decided.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitOutcome {
    /// Admitted under this job id (queued or already running).
    Admitted(u64),
    Rejected {
        job: u64,
        reason: String,
    },
    /// Turned away by load shedding: the bounded admission queue is
    /// full. `retry_after_s` is the backpressure hint (virtual seconds
    /// until capacity can next change) the submit response carries.
    Shed {
        job: u64,
        reason: String,
        retry_after_s: f64,
        queue_depth: u64,
    },
}

impl SubmitOutcome {
    pub fn job(&self) -> u64 {
        match self {
            SubmitOutcome::Admitted(job) => *job,
            SubmitOutcome::Rejected { job, .. } => *job,
            SubmitOutcome::Shed { job, .. } => *job,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_builder_round_trips_through_json() {
        let spec = JobSpec::new("acme", "sp.S").timesteps(8).floor_w(70.0).weight(2.0);
        let text = serde_json::to_string(&spec).unwrap();
        let back: JobSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.fault_seed, None);
    }
}
