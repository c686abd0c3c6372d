//! The typed event taxonomy and the versioned record envelope.

use crate::Objective;
use serde::{Deserialize, Serialize};

/// Version of the serialized record layout. Bump on ANY change to
/// [`TraceRecord`] or [`TraceEvent`] — readers accept every version in
/// [`SUPPORTED_SCHEMAS`] and refuse newer or nonsensical versions instead
/// of silently misreading them (see [`crate::TraceReader`]).
pub const SCHEMA_VERSION: u32 = 9;

/// The schema versions a reader accepts — the support window, stated
/// once. It starts at v5, the oldest version a pinned fixture still
/// carries, and reaches that far back only because every field added
/// since carries a serde default, so a v5 record's fields are a subset of
/// today's layout; a change that is not such a superset must raise the
/// window's start along with [`SCHEMA_VERSION`].
pub const SUPPORTED_SCHEMAS: std::ops::RangeInclusive<u32> = 5..=SCHEMA_VERSION;

/// One running job's share of the global power budget, as carried by
/// [`TraceEvent::CapReallocated`] (v5). `cap_w` is the *node-level*
/// allocation; the per-socket cap each backend programs is
/// `cap_w / sockets`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobAllocation {
    /// Broker-assigned job id.
    pub job: u64,
    /// Fleet node the job runs on.
    pub node: u64,
    /// Node-level watts allocated to the job.
    pub cap_w: f64,
}

/// One vertex of a search strategy's candidate set (a Nelder–Mead simplex
/// vertex, a PRO population member), as captured in
/// [`TraceEvent::SearchIteration`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchCandidate {
    /// Grid point in the tuner's index space.
    pub point: Vec<usize>,
    /// Objective value measured at `point` (seconds under the default
    /// `Time` objective).
    pub value: f64,
}

/// Everything the stack can narrate. Serialized externally tagged:
/// `{"RegionBegin": {...}}`.
///
/// Times inside events are durations in seconds; the position of an event
/// on the run timeline lives in [`TraceRecord::t_s`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A parallel region is about to fork (omprt tool hook / sim driver).
    /// `chunk_policy` (v8) is the schedule's policy-family name
    /// (`static`/`dynamic`/`guided`/`trapezoid`/`factoring`/`awf`) — the
    /// key the per-region policy timeline is built on; empty in older
    /// traces, where readers fall back to parsing the `schedule` clause.
    RegionBegin {
        region: String,
        threads: usize,
        schedule: String,
        #[serde(default)]
        chunk_policy: String,
    },
    /// The region joined; `time_s` is the measured duration, `energy_j`
    /// the package energy attributed to the invocation (0 where the
    /// backend cannot attribute energy). `busy_s`/`barrier_s` are the
    /// per-thread loop-body and barrier-wait sums (OMPT `OpenMP_LOOP` /
    /// `OpenMP_BARRIER`), so per-region profiles are reconstructible from
    /// the trace alone. `objective_value` (v3) is the invocation's score
    /// under the run's objective — `None` in untuned runs.
    RegionEnd {
        region: String,
        time_s: f64,
        energy_j: f64,
        busy_s: f64,
        barrier_s: f64,
        objective_value: Option<f64>,
    },
    /// Average package power over the last region invocation plus the
    /// cumulative package-energy counter (the RAPL view).
    PowerSample { power_w: f64, energy_total_j: f64 },
    /// The package power cap moved (or was applied at run start).
    /// `effective_w` is after RAPL clamping to the valid range.
    CapChange { requested_w: f64, effective_w: f64 },
    /// One ask/tell step of a region's tuning search, with the strategy's
    /// full candidate state (simplex vertices with finite values).
    SearchIteration {
        region: String,
        /// `tell`s processed so far, including cached replays.
        evaluations: u64,
        /// The point just measured.
        point: Vec<usize>,
        /// Objective value reported for `point`, in the `objective`'s
        /// unit (seconds under `Time`).
        value: f64,
        best_point: Vec<usize>,
        best_value: f64,
        converged: bool,
        simplex: Vec<SearchCandidate>,
        /// What the session is minimising (v3).
        objective: Objective,
    },
    /// The tuner moved the global ICVs to a new configuration (§III-C
    /// config-change overhead fires with this).
    ConfigSwitch { region: String, threads: usize, schedule: String },
    /// §III-C overhead charged before a region invocation, split into its
    /// two components (either may be zero). `energy_j` (v3) is the
    /// package energy drawn over the overhead interval at near-idle
    /// power, as differenced from the meter.
    OverheadCharged { region: String, config_change_s: f64, instrumentation_s: f64, energy_j: f64 },
    /// Simulation memo-cache lookup answered from the cache.
    CacheHit { region: String },
    /// Simulation memo-cache lookup that had to simulate.
    CacheMiss { region: String },
    /// End-of-run structural snapshot of the simulation memo cache (v6):
    /// cumulative hit/miss counters (cache lifetime, which may span
    /// several runs sharing the cache) plus occupancy — distinct cells
    /// resolved, cells per shard in shard order, and how many region
    /// names the interner holds.
    CacheStats {
        hits: u64,
        misses: u64,
        entries: u64,
        shard_occupancy: Vec<u64>,
        interner_size: u64,
    },
    /// An APEX policy callback fired for a task. Nothing emits it; it
    /// stays so that v8 and older traces, which carry it, still parse.
    PolicyFired { policy: String, task: String },
    /// A fault-plan perturbation fired (v4). `kind` names the fault
    /// class (`rapl_read`, `sample_drop`, `timer_spike`, `straggler`,
    /// `cap_change`); `magnitude` is class-specific — the time
    /// multiplier for spikes/stragglers, the requested cap in watts for
    /// cap changes, the read ordinal for RAPL read failures, 0 for
    /// dropped samples. `region` is empty for faults not tied to a
    /// region invocation.
    FaultInjected { kind: String, region: String, magnitude: f64 },
    /// The tuner rejected a measurement as an outlier (v4): `value`
    /// fell more than the configured threshold × `mad` away from the
    /// `median` of the region's accepted-score window, so it was not
    /// reported to the search (the same point re-measures instead).
    MeasurementRejected { region: String, value: f64, median: f64, mad: f64 },
    /// The self-healing loop stopped tuning `region` and froze it to
    /// the recorded configuration (v4) — either this region exhausted
    /// its restart allowance or the run-wide error budget ran out.
    TunerDegraded { region: String, threads: usize, schedule: String },
    /// A tenant's tuning job entered the broker (v5). `floor_w` is the
    /// lowest node-level cap the job can run under — the unit admission
    /// control reasons about. `weight` (v7) is the tenant's fair-share
    /// weight; 0 in older traces means "unknown" and readers treat it
    /// as 1. The v9 fields carry the rest of the submitted spec so a
    /// journal replay can reconstruct it exactly: `timesteps` (0 = the
    /// workload's default), `fault_seed`, and `requested_floor_w` (the
    /// raw submitted floor, where `floor_w` is the effective minimum
    /// over admissible nodes).
    JobSubmitted {
        job: u64,
        tenant: String,
        workload: String,
        floor_w: f64,
        #[serde(default)]
        weight: f64,
        #[serde(default)]
        timesteps: u64,
        #[serde(default)]
        fault_seed: Option<u64>,
        #[serde(default)]
        requested_floor_w: Option<f64>,
    },
    /// Admission control refused a job (v5): no budget (or node) could
    /// ever cover its floor cap. Rejected jobs never schedule.
    JobRejected { job: u64, tenant: String, floor_w: f64, reason: String },
    /// The broker placed a job on a fleet node under an initial
    /// node-level cap (v5).
    JobScheduled { job: u64, tenant: String, node: u64, cap_w: f64 },
    /// The broker redistributed the global budget across running jobs
    /// (v5): fired on every arrival, completion and degradation. The
    /// conservation invariant is `total_w` (= Σ `allocations[].cap_w`)
    /// ≤ `budget_w` at every such event.
    CapReallocated {
        /// What triggered the redistribution (`scheduled`, `completed`,
        /// `degraded`).
        reason: String,
        /// The global budget at the time of the event, watts.
        budget_w: f64,
        /// Σ of all allocations, watts.
        total_w: f64,
        allocations: Vec<JobAllocation>,
    },
    /// A job left the broker (v5). `status` is the job's final run
    /// status rendering (`ok`/`degraded`); `time_s`/`energy_j` are the
    /// job's own run totals.
    JobCompleted { job: u64, tenant: String, node: u64, status: String, time_s: f64, energy_j: f64 },
    /// The adaptive scheduler switched a region's chunk policy mid-run
    /// (v8): the imbalance watcher saw `imbalance` (EWMA of
    /// `barrier/(busy+barrier)`, in [0, 1]) persist past its threshold at
    /// the region's `invocation`-th call and moved the ladder from policy
    /// `from` to `to`. The knob change itself still fires the usual
    /// `ConfigSwitch` + §III-C overhead; this event records *why*.
    PolicySwitched { region: String, from: String, to: String, invocation: u64, imbalance: f64 },
    /// End-of-run wall-clock self-profile of the run driver (v7): where
    /// the tool's own time went while driving `invocations` region
    /// invocations. Emitted only when the driver runs with self-profiling
    /// enabled — the spans are real elapsed times, so they vary run to
    /// run and deliberately stay out of deterministic traces. `tune_s`
    /// covers tuner begin/measured-end bookkeeping, `measure_s` the
    /// backend's region execution, `overhead_s` the §III-C overhead
    /// charging, `meter_s` energy-meter reads.
    DriverPhases {
        workload: String,
        invocations: u64,
        tune_s: f64,
        measure_s: f64,
        overhead_s: f64,
        meter_s: f64,
    },
    /// A fleet node left service (v9). `class` is the fault class from
    /// the node-fault plan (`crash` loses the victim's in-flight
    /// quantum; `drain` lets it finish first). `permanent` nodes never
    /// emit a matching [`NodeRecovered`](TraceEvent::NodeRecovered).
    /// `victim` is the job that was running there, if any.
    NodeFailed { node: u64, class: String, permanent: bool, victim: Option<u64> },
    /// A failed node rejoined the fair-share pool (v9). `down_s` is the
    /// virtual outage duration — what MTTR summaries aggregate.
    NodeRecovered { node: u64, down_s: f64 },
    /// A job lost its node and went back to the admission queue (v9).
    /// `attempt` counts placements so far; `backoff_s` is the virtual
    /// delay before the job is eligible to place again (0 for graceful
    /// drains, which cost no retry).
    JobRequeued { job: u64, tenant: String, node: u64, attempt: u64, backoff_s: f64 },
    /// A job exhausted its retry budget, or no surviving node can ever
    /// host it (v9). Terminal, typed, queryable — never silent.
    JobFailed { job: u64, tenant: String, reason: String, attempts: u64 },
    /// Admission shed a job because the bounded queue was full (v9).
    /// `retry_after_s` is the backpressure hint returned to the tenant.
    JobShed { job: u64, tenant: String, reason: String, queue_depth: u64, retry_after_s: f64 },
    /// Broker state was reconstructed by deterministic journal replay
    /// (v9, journal-only): `ops` journal operations replayed, yielding
    /// `submitted`/`completed` jobs at the recovery point.
    CheckpointRecovered { ops: u64, submitted: u64, completed: u64 },
    /// Journal header (v9, journal-only): everything needed to rebuild
    /// the broker a journal describes. `machines` is the fleet's model
    /// name per node, in node-id order; `resilience` and `node_faults`
    /// are JSON blobs (empty string = unset) so the trace schema stays
    /// decoupled from the broker's option types.
    BrokerConfigured {
        budget_w: f64,
        quantum_timesteps: u64,
        machines: Vec<String>,
        max_queue: Option<u64>,
        max_retries: u64,
        backoff_base_s: f64,
        resilience: String,
        node_faults: String,
    },
    /// Journal op marker (v9, journal-only): the broker processed one
    /// discrete-event step. Replaying submissions and steps in journal
    /// order reconstructs the exact state (the broker is deterministic).
    BrokerStep {},
}

impl TraceEvent {
    /// Short variant name, for filtering and display.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RegionBegin { .. } => "RegionBegin",
            TraceEvent::RegionEnd { .. } => "RegionEnd",
            TraceEvent::PowerSample { .. } => "PowerSample",
            TraceEvent::CapChange { .. } => "CapChange",
            TraceEvent::SearchIteration { .. } => "SearchIteration",
            TraceEvent::ConfigSwitch { .. } => "ConfigSwitch",
            TraceEvent::OverheadCharged { .. } => "OverheadCharged",
            TraceEvent::CacheHit { .. } => "CacheHit",
            TraceEvent::CacheMiss { .. } => "CacheMiss",
            TraceEvent::CacheStats { .. } => "CacheStats",
            TraceEvent::PolicyFired { .. } => "PolicyFired",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
            TraceEvent::MeasurementRejected { .. } => "MeasurementRejected",
            TraceEvent::TunerDegraded { .. } => "TunerDegraded",
            TraceEvent::JobSubmitted { .. } => "JobSubmitted",
            TraceEvent::JobRejected { .. } => "JobRejected",
            TraceEvent::JobScheduled { .. } => "JobScheduled",
            TraceEvent::CapReallocated { .. } => "CapReallocated",
            TraceEvent::JobCompleted { .. } => "JobCompleted",
            TraceEvent::PolicySwitched { .. } => "PolicySwitched",
            TraceEvent::DriverPhases { .. } => "DriverPhases",
            TraceEvent::NodeFailed { .. } => "NodeFailed",
            TraceEvent::NodeRecovered { .. } => "NodeRecovered",
            TraceEvent::JobRequeued { .. } => "JobRequeued",
            TraceEvent::JobFailed { .. } => "JobFailed",
            TraceEvent::JobShed { .. } => "JobShed",
            TraceEvent::CheckpointRecovered { .. } => "CheckpointRecovered",
            TraceEvent::BrokerConfigured { .. } => "BrokerConfigured",
            TraceEvent::BrokerStep {} => "BrokerStep",
        }
    }
}

/// The envelope a sink stores: schema version, a sink-assigned sequence
/// number (total order of arrival), the emitter's position on the run
/// timeline (`None` for events with no meaningful timestamp, e.g. cache
/// lookups served across threads), and the event itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    pub schema: u32,
    pub seq: u64,
    /// Seconds since run start on the emitting backend's clock.
    pub t_s: Option<f64>,
    pub event: TraceEvent,
}
