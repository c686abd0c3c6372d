//! The trace analysis engine: the report model ([`TraceReport`] and its
//! parts) and the analyzers that reconstruct it from a trace — per-region
//! profiles, per-cap energy summaries, search-convergence curves, cache
//! hit-rate timelines, §III-C overhead accounting. Reading the JSONL is
//! `arcs_trace::TraceReader`'s job, laying a report out as text is
//! `render.rs`'s, gating one report against another is
//! [`crate::compare`]'s.
//!
//! Everything operates on the versioned [`TraceRecord`] envelope the
//! `arcs-trace` sinks write, one record at a time — a multi-gigabyte
//! trace streams through [`TraceAnalysis`] in constant memory (the cache
//! timeline decimates itself, see [`CacheReport::timeline`]).

use crate::broker_fold::BrokerFold;
use arcs_trace::{Objective, TraceEvent, TraceRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;

// The reader lives in `arcs-trace`, beside the sinks whose format it
// reads, and the comparator in `compare`; these keep their long-standing
// paths here.
pub use crate::compare::{compare_reports, compare_reports_for, CompareRow, Comparison};
pub use arcs_trace::{TraceReadError, TraceReader};

/// `total / n`, or 0 when nothing was counted: every mean and rate of
/// the report model.
fn per(total: f64, n: u64) -> f64 {
    if n > 0 {
        total / n as f64
    } else {
        0.0
    }
}

/// Per-region profile reconstructed from `RegionEnd` events: the OMPT
/// wall / loop / barrier breakdown of the paper's Fig. 9, for live
/// (`TraceTool`) and simulated runs alike.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegionBreakdown {
    pub invocations: u64,
    /// Σ wall-clock invocation durations.
    pub wall_s: f64,
    /// Σ per-thread loop-body time (OMPT `OpenMP_LOOP`).
    pub busy_s: f64,
    /// Σ per-thread barrier wait (OMPT `OpenMP_BARRIER`).
    pub barrier_s: f64,
    pub energy_j: f64,
    /// `ConfigSwitch` events that named this region.
    pub config_switches: u64,
}

impl RegionBreakdown {
    /// Σ per-thread (busy + barrier) — `OpenMP_IMPLICIT_TASK`.
    pub fn implicit_task_s(&self) -> f64 {
        self.busy_s + self.barrier_s
    }

    pub fn mean_call_s(&self) -> f64 {
        per(self.wall_s, self.invocations)
    }

    /// Mean attributed package energy per invocation (joules).
    pub fn mean_call_j(&self) -> f64 {
        per(self.energy_j, self.invocations)
    }

    /// This region's mean per-call cost under `objective` — the quantity
    /// [`compare_reports_for`] gates on.
    pub fn mean_call_metric(&self, objective: Objective) -> f64 {
        objective.score(self.mean_call_s(), self.mean_call_j())
    }
}

/// Time/energy attributed to one power-cap setting (caps can change
/// mid-trace; segments with equal requested caps merge).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CapSegment {
    pub requested_w: f64,
    pub effective_w: f64,
    /// Σ region wall time executed under this cap.
    pub region_s: f64,
    pub energy_j: f64,
    pub invocations: u64,
}

impl CapSegment {
    /// Energy–delay product under this cap (the paper's Fig. 10/11
    /// objective).
    pub fn edp(&self) -> f64 {
        self.energy_j * self.region_s
    }
}

/// One point of a region's search-convergence curve (from
/// `SearchIteration` events). Values are in the unit of the trace's
/// [`TraceReport::objective`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvergencePoint {
    pub evaluations: u64,
    /// Objective value of the point measured at this iteration.
    pub value: f64,
    /// Best objective seen so far.
    pub best_value: f64,
    pub converged: bool,
}

/// Running cache hit rate after a prefix of lookups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CachePoint {
    /// Lookups processed when this point was sampled.
    pub lookups: u64,
    pub hit_rate: f64,
}

/// Memo-cache behaviour over the run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheReport {
    pub hits: u64,
    pub misses: u64,
    /// Hit-rate curve, decimated by stride doubling to at most
    /// [`CACHE_TIMELINE_POINTS`] points so the report stays bounded on
    /// arbitrarily long traces.
    pub timeline: Vec<CachePoint>,
    /// Distinct cells resolved, from the end-of-run
    /// `TraceEvent::CacheStats` snapshot (v6; 0 in older traces).
    #[serde(default)]
    pub entries: u64,
    /// Cells per shard in shard order, from the snapshot (empty in older
    /// traces).
    #[serde(default)]
    pub shard_occupancy: Vec<u64>,
    /// Distinct region names interned, from the snapshot.
    #[serde(default)]
    pub interner_size: u64,
}

/// Upper bound on [`CacheReport::timeline`] length.
pub const CACHE_TIMELINE_POINTS: usize = 64;

impl CacheReport {
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        per(self.hits as f64, self.lookups())
    }
}

/// §III-C overhead as charged by the driver (`OverheadCharged` events).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct OverheadReport {
    pub events: u64,
    /// Σ `omp_set_num_threads`/`omp_set_schedule` cost.
    pub config_change_s: f64,
    /// Σ OMPT + APEX instrumentation cost.
    pub instrumentation_s: f64,
    /// Σ package energy drawn over overhead intervals (0 in pre-v3
    /// traces, which did not meter overhead energy).
    #[serde(default)]
    pub energy_j: f64,
}

impl OverheadReport {
    pub fn total_s(&self) -> f64 {
        self.config_change_s + self.instrumentation_s
    }
}

/// One run of consecutive invocations a region spent under a single chunk
/// policy, reconstructed from `RegionBegin` events (v8 `chunk_policy`,
/// with a fallback to the schedule clause's family prefix in older
/// traces). A region that never switches has exactly one segment.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicySegment {
    /// Policy family name (`static`, `dynamic`, …, `awf`).
    pub policy: String,
    /// 1-based invocation index of the region's first call under this
    /// policy.
    pub from_invocation: u64,
    /// Calls executed under this policy before the next switch (or run
    /// end).
    pub invocations: u64,
}

/// Time/energy a trace spent under one chunk policy, across all regions
/// — the per-policy slice of the region totals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PolicyBreakdown {
    pub invocations: u64,
    /// Σ wall-clock durations of invocations run under this policy.
    pub wall_s: f64,
    pub energy_j: f64,
    /// `PolicySwitched` events that landed *on* this policy.
    pub switches_in: u64,
}

impl PolicyBreakdown {
    pub fn mean_call_s(&self) -> f64 {
        per(self.wall_s, self.invocations)
    }
}

/// Everything the analyzers reconstruct from one trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceReport {
    pub schema: u32,
    /// Records consumed.
    pub records: u64,
    /// Sequence gaps the reader observed (0 for a complete trace).
    pub seq_gaps: u64,
    /// Timeline position of the last `RegionEnd` — for sim-driver traces
    /// this is the run's total time, Σ region + Σ overhead, because the
    /// driver's clock advances by nothing else.
    pub wall_s: f64,
    /// Σ `RegionEnd` wall durations.
    pub total_region_s: f64,
    /// Σ `RegionEnd` attributed energy.
    pub total_energy_j: f64,
    pub regions: BTreeMap<String, RegionBreakdown>,
    pub caps: Vec<CapSegment>,
    /// Per-region convergence curves, keyed by region name.
    pub convergence: BTreeMap<String, Vec<ConvergencePoint>>,
    pub cache: CacheReport,
    pub overhead: OverheadReport,
    /// What the traced run's tuner minimised, from `SearchIteration`
    /// events (`Time` for untuned runs and pre-v3 traces).
    #[serde(default)]
    pub objective: Objective,
    /// The cumulative package-energy counter at the last `PowerSample` —
    /// `None` for traces without a package meter (live OMPT traces).
    #[serde(default)]
    pub final_energy_total_j: Option<f64>,
    /// Fault-injection and recovery activity (v4 traces; empty before).
    #[serde(default)]
    pub faults: FaultReport,
    /// Multi-tenant broker activity (v5 traces; empty before).
    #[serde(default)]
    pub broker: BrokerReport,
    /// Node outages, requeues and crash recovery (v9 traces; empty
    /// before).
    #[serde(default)]
    pub recovery: RecoveryReport,
    /// The driver's wall-clock self-profile, summed over every v7
    /// `DriverPhases` event in the trace — `None` when the traced run
    /// did not self-profile (the default: the spans are real elapsed
    /// times and would break byte-identical traces).
    #[serde(default)]
    pub self_profile: Option<SelfProfile>,
    /// Per-region chunk-policy timeline (segments in invocation order).
    /// Empty for traces without `RegionBegin` events.
    #[serde(default)]
    pub policy_timeline: BTreeMap<String, Vec<PolicySegment>>,
    /// Per-policy time/energy totals across all regions.
    #[serde(default)]
    pub policies: BTreeMap<String, PolicyBreakdown>,
    /// `PolicySwitched` events observed (v8; 0 before).
    #[serde(default)]
    pub policy_switches: u64,
}

/// Where the *tool's own* time went while driving a run — tuner
/// bookkeeping, backend region execution, §III-C overhead charging and
/// meter reads — accumulated from [`TraceEvent::DriverPhases`]. This is
/// the ROADMAP item-4 "re-measure on real hardware" instrument: the
/// spans profile the driver, not the simulated application.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SelfProfile {
    /// `DriverPhases` events folded in (one per self-profiled run).
    pub runs: u64,
    /// Region invocations those runs drove.
    pub invocations: u64,
    pub tune_s: f64,
    pub measure_s: f64,
    pub overhead_s: f64,
    pub meter_s: f64,
}

impl SelfProfile {
    /// Σ of all phase spans.
    pub fn total_s(&self) -> f64 {
        self.tune_s + self.measure_s + self.overhead_s + self.meter_s
    }
}

/// One tenant's slice of the broker activity in a trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantBreakdown {
    /// `JobSubmitted` events naming this tenant.
    pub submitted: u64,
    /// `JobScheduled` events naming this tenant.
    pub scheduled: u64,
    /// `JobCompleted` events naming this tenant.
    pub completed: u64,
    /// Jobs admission control refused.
    pub rejected: u64,
    /// Completions whose final status was `degraded`.
    pub degraded: u64,
    /// Jobs that exhausted their retry budget (v9; 0 before).
    #[serde(default)]
    pub failed: u64,
    /// Jobs load-shedding turned away (v9; 0 before).
    #[serde(default)]
    pub shed: u64,
    /// Times this tenant's jobs were requeued off failed nodes (v9).
    #[serde(default)]
    pub requeued: u64,
    /// Σ completed-job run time.
    pub time_s: f64,
    /// Σ completed-job attributed energy.
    pub energy_j: f64,
    /// Σ node-level watts over every `CapReallocated` allocation owned
    /// by this tenant (one sample per job per event).
    pub alloc_w_sum: f64,
    /// Allocation samples behind [`alloc_w_sum`](Self::alloc_w_sum).
    pub alloc_samples: u64,
}

impl TenantBreakdown {
    /// Mean node-level watts this tenant held across reallocation
    /// points — the quantity the fairness ratio compares.
    pub fn mean_allocated_w(&self) -> f64 {
        per(self.alloc_w_sum, self.alloc_samples)
    }
}

/// What the power-budget broker did over the trace, from the v5
/// `JobSubmitted`/`JobRejected`/`JobScheduled`/`CapReallocated`/
/// `JobCompleted` events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BrokerReport {
    pub submitted: u64,
    pub scheduled: u64,
    pub completed: u64,
    pub rejected: u64,
    /// Jobs whose retry budget ran out, or that no surviving node could
    /// host (v9 `JobFailed`; 0 before).
    #[serde(default)]
    pub failed: u64,
    /// Jobs the bounded admission queue shed (v9 `JobShed`; 0 before).
    #[serde(default)]
    pub shed: u64,
    /// `CapReallocated` events observed.
    pub reallocations: u64,
    /// Global budget at the last reallocation point.
    pub budget_w: f64,
    /// Largest Σ allocations across all reallocation points.
    pub max_total_w: f64,
    /// Reallocation points where Σ allocations exceeded the budget —
    /// zero for any correct broker run (the conservation invariant).
    pub over_budget_events: u64,
    /// Per-tenant breakdown, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantBreakdown>,
}

impl BrokerReport {
    /// Did the trace record any broker activity at all?
    pub fn any(&self) -> bool {
        self.submitted > 0
            || self.rejected > 0
            || self.reallocations > 0
            || self.completed > 0
            || self.failed > 0
            || self.shed > 0
    }

    /// Jobs that entered the broker but reached no terminal state —
    /// completed, rejected, failed (typed) or shed — by the end of the
    /// trace. Zero for any run the broker drained: every job must land
    /// somewhere, even under node faults.
    pub fn lost_jobs(&self) -> i64 {
        self.submitted as i64
            - self.completed as i64
            - self.rejected as i64
            - self.failed as i64
            - self.shed as i64
    }

    /// Fraction of submissions turned away by load shedding.
    pub fn shed_rate(&self) -> f64 {
        per(self.shed as f64, self.submitted)
    }

    /// Max/min ratio of per-tenant mean allocated watts — 1.0 is
    /// perfectly fair. `None` until two tenants have held allocations.
    pub fn fairness_ratio(&self) -> Option<f64> {
        let means: Vec<f64> = self
            .tenants
            .values()
            .filter(|t| t.alloc_samples > 0)
            .map(TenantBreakdown::mean_allocated_w)
            .collect();
        if means.len() < 2 {
            return None;
        }
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        if min > 0.0 {
            Some(max / min)
        } else {
            None
        }
    }
}

/// What a fault plan did to the run and how the stack recovered, from
/// the v4 `FaultInjected`/`MeasurementRejected`/`TunerDegraded` events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultReport {
    /// `FaultInjected` events by fault class (`rapl_read`,
    /// `timer_spike`, …).
    pub injected: BTreeMap<String, u64>,
    /// Measurements the tuner rejected as outliers.
    pub rejected: u64,
    /// Regions the self-healing loop froze, in event order.
    pub degraded_regions: Vec<String>,
}

impl FaultReport {
    /// Total `FaultInjected` events across all classes.
    pub fn injected_total(&self) -> u64 {
        self.injected.values().sum()
    }

    /// Did the trace record any fault or recovery activity at all?
    pub fn any(&self) -> bool {
        !self.injected.is_empty() || self.rejected > 0 || !self.degraded_regions.is_empty()
    }
}

/// What node faults did to the fleet and how the broker recovered, from
/// the v9 `NodeFailed`/`NodeRecovered`/`JobRequeued`/
/// `CheckpointRecovered` events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// `NodeFailed` events observed.
    pub node_failures: u64,
    /// Failures by class label (`crash`, `drain`).
    pub failures_by_class: BTreeMap<String, u64>,
    /// Failures flagged permanent — those nodes never recover.
    pub permanent_failures: u64,
    /// `NodeRecovered` events observed.
    pub node_recoveries: u64,
    /// Σ outage durations over all recoveries, virtual seconds.
    pub total_down_s: f64,
    /// `JobRequeued` events observed.
    pub requeues: u64,
    /// Broker restarts reconstructed by journal replay.
    pub checkpoint_recoveries: u64,
}

impl RecoveryReport {
    /// Did the trace record any node-fault activity at all?
    pub fn any(&self) -> bool {
        self.node_failures > 0 || self.requeues > 0 || self.checkpoint_recoveries > 0
    }

    /// Mean time to recovery over observed outages — `None` until a
    /// node has actually come back.
    pub fn mttr_s(&self) -> Option<f64> {
        if self.node_recoveries > 0 {
            Some(self.total_down_s / self.node_recoveries as f64)
        } else {
            None
        }
    }
}

impl TraceReport {
    /// `wall_s − Σ region − Σ overhead`. For traces produced by the sim
    /// driver this must be ~0: the driver's clock advances *only* by
    /// region time plus charged §III-C overhead, so any residual means
    /// the trace and the driver disagree about where time went. Live
    /// traces have real inter-region gaps — don't assert there.
    pub fn overhead_residual_s(&self) -> f64 {
        self.wall_s - self.total_region_s - self.overhead.total_s()
    }

    /// The overhead cross-check: is the residual negligible relative to
    /// the run length?
    pub fn overhead_consistent(&self) -> bool {
        self.overhead_residual_s().abs() <= 1e-6 * self.wall_s.abs().max(1.0)
    }

    /// The energy counterpart of [`overhead_residual_s`]: package meter −
    /// Σ region energy − Σ overhead energy. The driver differences every
    /// invocation and overhead interval from one meter, so for sim-driver
    /// traces this must be ~0 (float differencing does not telescope
    /// exactly). `None` when the trace carries no `PowerSample` — live
    /// OMPT traces have no package meter.
    ///
    /// [`overhead_residual_s`]: TraceReport::overhead_residual_s
    pub fn energy_residual_j(&self) -> Option<f64> {
        self.final_energy_total_j.map(|total| total - self.total_energy_j - self.overhead.energy_j)
    }

    /// The energy-ledger cross-check; vacuously true for meterless
    /// traces.
    pub fn energy_consistent(&self) -> bool {
        match self.energy_residual_j() {
            Some(res) => {
                res.abs() <= 1e-6 * self.final_energy_total_j.unwrap_or(0.0).abs().max(1.0)
            }
            None => true,
        }
    }

    /// The whole-run cost under `objective` — the TOTAL row of
    /// [`compare_reports_for`].
    pub fn total_metric(&self, objective: Objective) -> f64 {
        objective.score(self.wall_s, self.total_energy_j)
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// Streaming consumer building a [`TraceReport`].
///
/// Feed records in file order via [`consume`](TraceAnalysis::consume);
/// call [`finish`](TraceAnalysis::finish) once. State is O(regions +
/// caps + iterations), independent of trace length except for the
/// convergence curves (one point per `SearchIteration`, which the tuner
/// bounds per region).
#[derive(Default)]
pub struct TraceAnalysis {
    report: TraceReport,
    current_cap: Option<usize>,
    timeline_stride: u64,
    since_last_point: u64,
    /// The broker's events go through the one interpreter; `finish`
    /// reads `report.broker` and `report.recovery` out of it.
    broker: BrokerFold,
    /// region → chunk policy announced by its latest `RegionBegin`, so
    /// `RegionEnd` totals can be attributed per policy.
    region_policy: BTreeMap<String, String>,
}

impl TraceAnalysis {
    pub fn new() -> Self {
        TraceAnalysis { timeline_stride: 1, ..Default::default() }
    }

    pub fn consume(&mut self, rec: &TraceRecord) {
        self.broker.apply_record(rec);
        let r = &mut self.report;
        r.records += 1;
        r.schema = rec.schema;
        match &rec.event {
            TraceEvent::RegionEnd { region, time_s, energy_j, busy_s, barrier_s, .. } => {
                let b = r.regions.entry(region.clone()).or_default();
                b.invocations += 1;
                b.wall_s += time_s;
                b.busy_s += busy_s;
                b.barrier_s += barrier_s;
                b.energy_j += energy_j;
                r.total_region_s += time_s;
                r.total_energy_j += energy_j;
                if let Some(t) = rec.t_s {
                    r.wall_s = r.wall_s.max(t);
                }
                if let Some(i) = self.current_cap {
                    let seg = &mut r.caps[i];
                    seg.region_s += time_s;
                    seg.energy_j += energy_j;
                    seg.invocations += 1;
                }
                if let Some(policy) = self.region_policy.get(region) {
                    let p = r.policies.entry(policy.clone()).or_default();
                    p.invocations += 1;
                    p.wall_s += time_s;
                    p.energy_j += energy_j;
                }
            }
            TraceEvent::CapChange { requested_w, effective_w } => {
                let existing = r.caps.iter().position(|c| c.requested_w == *requested_w);
                self.current_cap = Some(existing.unwrap_or_else(|| {
                    r.caps.push(CapSegment {
                        requested_w: *requested_w,
                        effective_w: *effective_w,
                        ..Default::default()
                    });
                    r.caps.len() - 1
                }));
            }
            TraceEvent::SearchIteration {
                region,
                evaluations,
                value,
                best_value,
                converged,
                objective,
                ..
            } => {
                r.objective = *objective;
                r.convergence.entry(region.clone()).or_default().push(ConvergencePoint {
                    evaluations: *evaluations,
                    value: *value,
                    best_value: *best_value,
                    converged: *converged,
                });
            }
            TraceEvent::ConfigSwitch { region, .. } => {
                r.regions.entry(region.clone()).or_default().config_switches += 1;
            }
            TraceEvent::OverheadCharged {
                config_change_s, instrumentation_s, energy_j, ..
            } => {
                r.overhead.events += 1;
                r.overhead.config_change_s += config_change_s;
                r.overhead.instrumentation_s += instrumentation_s;
                r.overhead.energy_j += energy_j;
            }
            TraceEvent::PowerSample { energy_total_j, .. } => {
                r.final_energy_total_j = Some(*energy_total_j);
            }
            TraceEvent::CacheHit { .. } => self.cache_lookup(true),
            TraceEvent::CacheMiss { .. } => self.cache_lookup(false),
            TraceEvent::CacheStats { entries, shard_occupancy, interner_size, .. } => {
                r.cache.entries = *entries;
                r.cache.shard_occupancy = shard_occupancy.clone();
                r.cache.interner_size = *interner_size;
            }
            TraceEvent::FaultInjected { kind, .. } => {
                *r.faults.injected.entry(kind.clone()).or_default() += 1;
            }
            TraceEvent::MeasurementRejected { .. } => r.faults.rejected += 1,
            TraceEvent::TunerDegraded { region, .. } => {
                r.faults.degraded_regions.push(region.clone());
            }
            TraceEvent::DriverPhases {
                invocations,
                tune_s,
                measure_s,
                overhead_s,
                meter_s,
                ..
            } => {
                let p = r.self_profile.get_or_insert_with(SelfProfile::default);
                p.runs += 1;
                p.invocations += invocations;
                p.tune_s += tune_s;
                p.measure_s += measure_s;
                p.overhead_s += overhead_s;
                p.meter_s += meter_s;
            }
            TraceEvent::RegionBegin { region, schedule, chunk_policy, .. } => {
                // v8 traces carry the family name; older traces fall back
                // to the schedule clause's `family,chunk` prefix.
                let policy = if chunk_policy.is_empty() {
                    schedule.split(',').next().unwrap_or_default().to_string()
                } else {
                    chunk_policy.clone()
                };
                if policy.is_empty() {
                    return;
                }
                let timeline = r.policy_timeline.entry(region.clone()).or_default();
                let invocation = timeline.iter().map(|s| s.invocations).sum::<u64>() + 1;
                match timeline.last_mut() {
                    Some(seg) if seg.policy == policy => seg.invocations += 1,
                    _ => timeline.push(PolicySegment {
                        policy: policy.clone(),
                        from_invocation: invocation,
                        invocations: 1,
                    }),
                }
                self.region_policy.insert(region.clone(), policy);
            }
            TraceEvent::PolicySwitched { to, .. } => {
                r.policy_switches += 1;
                r.policies.entry(to.clone()).or_default().switches_in += 1;
            }
            // Broker events are the fold's to interpret (fed above).
            _ => {}
        }
    }

    fn cache_lookup(&mut self, hit: bool) {
        let c = &mut self.report.cache;
        if hit {
            c.hits += 1;
        } else {
            c.misses += 1;
        }
        self.since_last_point += 1;
        if self.since_last_point >= self.timeline_stride {
            self.since_last_point = 0;
            c.timeline.push(CachePoint { lookups: c.lookups(), hit_rate: c.hit_rate() });
            if c.timeline.len() >= CACHE_TIMELINE_POINTS {
                // Stride-doubling decimation: keep every other point and
                // sample half as often from here on.
                let kept: Vec<CachePoint> = c.timeline.iter().copied().skip(1).step_by(2).collect();
                c.timeline = kept;
                self.timeline_stride *= 2;
            }
        }
    }

    pub fn finish(mut self, seq_gaps: u64) -> TraceReport {
        self.report.seq_gaps = seq_gaps;
        self.report.broker = self.broker.broker_report();
        self.report.recovery = self.broker.recovery_report();
        self.report
    }
}

/// Read and analyze a whole trace stream.
pub fn analyze<R: BufRead>(mut reader: TraceReader<R>) -> Result<TraceReport, TraceReadError> {
    let mut analysis = TraceAnalysis::new();
    for rec in reader.by_ref() {
        analysis.consume(&rec?);
    }
    Ok(analysis.finish(reader.gaps()))
}

/// [`analyze`] a trace file on disk.
pub fn analyze_path(path: impl AsRef<Path>) -> Result<TraceReport, TraceReadError> {
    analyze(TraceReader::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_trace::{TraceEvent as E, SCHEMA_VERSION};

    fn jsonl(records: &[TraceRecord]) -> String {
        let mut out = String::new();
        for r in records {
            out.push_str(&serde_json::to_string(r).unwrap());
            out.push('\n');
        }
        out
    }

    fn rec(seq: u64, t_s: Option<f64>, event: E) -> TraceRecord {
        TraceRecord { schema: SCHEMA_VERSION, seq, t_s, event }
    }

    /// A miniature driver-shaped trace: one cap, two regions, a tuning
    /// step with overhead, cache traffic.
    fn sample_trace() -> Vec<TraceRecord> {
        let mut seq = 0;
        let mut next = |t_s: Option<f64>, event: E| {
            let r = rec(seq, t_s, event);
            seq += 1;
            r
        };
        let mut t = 0.0;
        let mut etot = 0.0;
        let mut records =
            vec![next(Some(0.0), E::CapChange { requested_w: 80.0, effective_w: 80.0 })];
        for i in 0..3u64 {
            records.push(next(
                Some(t),
                E::ConfigSwitch { region: "rhs".into(), threads: 8, schedule: "static".into() },
            ));
            etot += 0.1;
            records.push(next(
                Some(t),
                E::OverheadCharged {
                    region: "rhs".into(),
                    config_change_s: 0.008,
                    instrumentation_s: 0.001,
                    energy_j: 0.1,
                },
            ));
            records.push(next(
                Some(t + 0.009),
                E::RegionBegin {
                    region: "rhs".into(),
                    threads: 8,
                    schedule: "static".into(),
                    chunk_policy: "static".into(),
                },
            ));
            records.push(next(
                None,
                if i == 0 {
                    E::CacheMiss { region: "rhs".into() }
                } else {
                    E::CacheHit { region: "rhs".into() }
                },
            ));
            t += 0.009 + 0.5;
            etot += 40.0;
            records.push(next(
                Some(t),
                E::RegionEnd {
                    region: "rhs".into(),
                    time_s: 0.5,
                    energy_j: 40.0,
                    busy_s: 3.6,
                    barrier_s: 0.4,
                    objective_value: Some(0.5),
                },
            ));
            records.push(next(Some(t), E::PowerSample { power_w: 80.0, energy_total_j: etot }));
            records.push(next(
                Some(t),
                E::SearchIteration {
                    region: "rhs".into(),
                    evaluations: i + 1,
                    point: vec![i as usize, 0],
                    value: 0.5 - 0.01 * i as f64,
                    best_point: vec![i as usize, 0],
                    best_value: 0.5 - 0.01 * i as f64,
                    converged: i == 2,
                    simplex: vec![],
                    objective: Objective::Time,
                },
            ));
            t += 0.25;
            etot += 18.0;
            records.push(next(
                Some(t),
                E::RegionEnd {
                    region: "zsolve".into(),
                    time_s: 0.25,
                    energy_j: 18.0,
                    busy_s: 1.9,
                    barrier_s: 0.1,
                    objective_value: None,
                },
            ));
            records.push(next(Some(t), E::PowerSample { power_w: 72.0, energy_total_j: etot }));
        }
        records
    }

    #[test]
    fn reader_validates_schema_and_sequence() {
        let good = jsonl(&sample_trace());
        let n = TraceReader::new(good.as_bytes()).filter(|r| r.is_ok()).count();
        assert_eq!(n, sample_trace().len());

        // Older schema versions inside the window still parse (their
        // fields are a strict subset of the current layout)...
        let old_schema =
            jsonl(&[TraceRecord { schema: 5, ..rec(0, None, E::CacheHit { region: "r".into() }) }]);
        assert!(TraceReader::new(old_schema.as_bytes()).next().unwrap().is_ok());

        // ...while versions the reader does not accept — retired, newer,
        // or not a real version at all — are hard errors.
        for bad in [0u32, 4, SCHEMA_VERSION + 1] {
            let bad_schema = jsonl(&[TraceRecord {
                schema: bad,
                ..rec(0, None, E::CacheHit { region: "r".into() })
            }]);
            let err = TraceReader::new(bad_schema.as_bytes()).next().unwrap().unwrap_err();
            assert!(
                matches!(err, TraceReadError::SchemaMismatch { found, .. } if found == bad),
                "{err}"
            );
        }

        let out_of_order = jsonl(&[
            rec(5, None, E::CacheHit { region: "r".into() }),
            rec(5, None, E::CacheHit { region: "r".into() }),
        ]);
        let mut reader = TraceReader::new(out_of_order.as_bytes());
        assert!(reader.next().unwrap().is_ok());
        let err = reader.next().unwrap().unwrap_err();
        assert!(matches!(err, TraceReadError::NonMonotonicSeq { prev: 5, seq: 5, .. }), "{err}");

        // A corrupt line with records after it is corruption, not
        // truncation (the torn-tail tolerance only covers the final
        // line — see `truncated_final_line_counts_as_a_gap`).
        let not_json = format!("{{nope\n{}", jsonl(&sample_trace()[..1]));
        let err = TraceReader::new(not_json.as_bytes()).next().unwrap().unwrap_err();
        assert!(matches!(err, TraceReadError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn reader_counts_gaps_without_failing() {
        let gappy = jsonl(&[
            rec(0, None, E::CacheHit { region: "r".into() }),
            rec(4, None, E::CacheHit { region: "r".into() }), // 1..=3 filtered out
        ]);
        let mut reader = TraceReader::new(gappy.as_bytes());
        assert_eq!(reader.by_ref().filter(|r| r.is_ok()).count(), 2);
        assert_eq!(reader.gaps(), 3);
    }

    #[test]
    fn truncated_final_line_counts_as_a_gap() {
        // A crash-consistent trace: the writer died mid-record, leaving a
        // half-written final line. The reader ends cleanly and reports
        // the lost record through the gap counter.
        let mut text = jsonl(&[
            rec(0, None, E::CacheHit { region: "r".into() }),
            rec(1, None, E::CacheMiss { region: "r".into() }),
        ]);
        text.push_str("{\"schema\":4,\"seq\":2,\"t_s\":null,\"event\":{\"Cache");
        let mut reader = TraceReader::new(text.as_bytes());
        let results: Vec<_> = reader.by_ref().collect();
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(reader.gaps(), 1);

        // The whole-stream analyzer accepts the truncated trace too.
        let report = analyze(TraceReader::new(text.as_bytes())).unwrap();
        assert_eq!(report.records, 2);
        assert_eq!(report.seq_gaps, 1);

        // A trailing newline (or blank lines) after the torn record
        // changes nothing: blanks are not records.
        let trailing = format!("{text}\n\n");
        let mut reader = TraceReader::new(trailing.as_bytes());
        assert_eq!(reader.by_ref().filter(|r| r.is_ok()).count(), 2);
        assert_eq!(reader.gaps(), 1);
    }

    #[test]
    fn mid_stream_corruption_is_still_a_hard_error() {
        let good = jsonl(&[rec(0, None, E::CacheHit { region: "r".into() })]);
        let text = format!("{{torn\n{good}");
        let mut reader = TraceReader::new(text.as_bytes());
        let err = reader.next().unwrap().unwrap_err();
        assert!(matches!(err, TraceReadError::Parse { line: 1, .. }), "{err}");
        // The record after the corrupt line is still delivered.
        assert!(reader.next().unwrap().is_ok());
        assert!(reader.next().is_none());
    }

    #[test]
    fn fault_events_are_counted_and_rendered() {
        let records = vec![
            rec(
                0,
                Some(0.0),
                E::FaultInjected {
                    kind: "timer_spike".into(),
                    region: "rhs".into(),
                    magnitude: 8.0,
                },
            ),
            rec(
                1,
                Some(0.1),
                E::FaultInjected {
                    kind: "rapl_read".into(),
                    region: String::new(),
                    magnitude: 17.0,
                },
            ),
            rec(
                2,
                Some(0.1),
                E::FaultInjected {
                    kind: "rapl_read".into(),
                    region: String::new(),
                    magnitude: 18.0,
                },
            ),
            rec(
                3,
                Some(0.2),
                E::MeasurementRejected { region: "rhs".into(), value: 4.0, median: 0.5, mad: 0.01 },
            ),
            rec(
                4,
                Some(0.3),
                E::TunerDegraded { region: "rhs".into(), threads: 16, schedule: "guided,8".into() },
            ),
        ];
        let report = analyze(TraceReader::new(jsonl(&records).as_bytes())).unwrap();
        assert_eq!(report.faults.injected_total(), 3);
        assert_eq!(report.faults.injected["rapl_read"], 2);
        assert_eq!(report.faults.rejected, 1);
        assert_eq!(report.faults.degraded_regions, vec!["rhs".to_string()]);
        assert!(report.faults.any());
        for rendered in [report.to_table(), report.to_markdown()] {
            assert!(rendered.contains("Faults & recovery"), "{rendered}");
            assert!(rendered.contains("3 fault(s) injected"), "{rendered}");
            assert!(rendered.contains("rapl_read ×2"), "{rendered}");
            assert!(rendered.contains("1 measurement(s) rejected"), "{rendered}");
            assert!(rendered.contains("1 region(s) frozen (rhs)"), "{rendered}");
        }
        // Round-trips, and faultless reports stay silent about faults.
        let back = TraceReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.faults, report.faults);
        let clean = analyze(TraceReader::new(jsonl(&sample_trace()).as_bytes())).unwrap();
        assert!(!clean.faults.any());
        assert!(!clean.to_table().contains("Faults & recovery"));
    }

    #[test]
    fn broker_events_are_attributed_per_tenant() {
        use arcs_trace::JobAllocation as A;
        let records = vec![
            rec(
                0,
                Some(0.0),
                E::JobSubmitted {
                    job: 1,
                    tenant: "acme".into(),
                    workload: "sp.W".into(),
                    floor_w: 40.0,
                    weight: 1.0,
                    timesteps: 0,
                    fault_seed: None,
                    requested_floor_w: None,
                },
            ),
            rec(
                1,
                Some(0.0),
                E::JobScheduled { job: 1, tenant: "acme".into(), node: 0, cap_w: 100.0 },
            ),
            rec(
                2,
                Some(0.0),
                E::CapReallocated {
                    reason: "scheduled".into(),
                    budget_w: 200.0,
                    total_w: 100.0,
                    allocations: vec![A { job: 1, node: 0, cap_w: 100.0 }],
                },
            ),
            rec(
                3,
                Some(1.0),
                E::JobSubmitted {
                    job: 2,
                    tenant: "umbrella".into(),
                    workload: "bt.W".into(),
                    floor_w: 40.0,
                    weight: 1.0,
                    timesteps: 0,
                    fault_seed: None,
                    requested_floor_w: None,
                },
            ),
            rec(
                4,
                Some(1.0),
                E::JobScheduled { job: 2, tenant: "umbrella".into(), node: 1, cap_w: 80.0 },
            ),
            rec(
                5,
                Some(1.0),
                E::CapReallocated {
                    reason: "scheduled".into(),
                    budget_w: 200.0,
                    total_w: 200.0,
                    allocations: vec![
                        A { job: 1, node: 0, cap_w: 120.0 },
                        A { job: 2, node: 1, cap_w: 80.0 },
                    ],
                },
            ),
            rec(
                6,
                Some(2.0),
                E::JobSubmitted {
                    job: 3,
                    tenant: "umbrella".into(),
                    workload: "bt.W".into(),
                    floor_w: 500.0,
                    weight: 1.0,
                    timesteps: 0,
                    fault_seed: None,
                    requested_floor_w: None,
                },
            ),
            rec(
                7,
                Some(2.0),
                E::JobRejected {
                    job: 3,
                    tenant: "umbrella".into(),
                    floor_w: 500.0,
                    reason: "floor cap exceeds the global budget".into(),
                },
            ),
            rec(
                8,
                Some(10.0),
                E::JobCompleted {
                    job: 1,
                    tenant: "acme".into(),
                    node: 0,
                    status: "ok".into(),
                    time_s: 10.0,
                    energy_j: 1000.0,
                },
            ),
            rec(
                9,
                Some(10.0),
                E::CapReallocated {
                    reason: "completed".into(),
                    budget_w: 200.0,
                    total_w: 80.0,
                    allocations: vec![A { job: 2, node: 1, cap_w: 80.0 }],
                },
            ),
            rec(
                10,
                Some(12.0),
                E::JobCompleted {
                    job: 2,
                    tenant: "umbrella".into(),
                    node: 1,
                    status: "degraded".into(),
                    time_s: 12.0,
                    energy_j: 900.0,
                },
            ),
        ];
        let report = analyze(TraceReader::new(jsonl(&records).as_bytes())).unwrap();
        let b = &report.broker;
        assert!(b.any());
        assert_eq!((b.submitted, b.scheduled, b.completed, b.rejected), (3, 2, 2, 1));
        assert_eq!(b.lost_jobs(), 0);
        assert_eq!(b.reallocations, 3);
        assert_eq!(b.budget_w, 200.0);
        assert_eq!(b.max_total_w, 200.0);
        assert_eq!(b.over_budget_events, 0);

        let acme = &b.tenants["acme"];
        assert_eq!((acme.submitted, acme.completed, acme.degraded, acme.rejected), (1, 1, 0, 0));
        assert!((acme.mean_allocated_w() - 110.0).abs() < 1e-12); // (100 + 120) / 2
        let umb = &b.tenants["umbrella"];
        assert_eq!((umb.submitted, umb.completed, umb.degraded, umb.rejected), (2, 1, 1, 1));
        assert!((umb.mean_allocated_w() - 80.0).abs() < 1e-12);
        assert!((umb.time_s - 12.0).abs() < 1e-12);
        assert!((b.fairness_ratio().unwrap() - 110.0 / 80.0).abs() < 1e-12);

        for rendered in [report.to_table(), report.to_markdown()] {
            assert!(rendered.contains("Broker"), "{rendered}");
            assert!(rendered.contains("budget conserved"), "{rendered}");
            assert!(rendered.contains("3 submitted, 2 scheduled, 2 completed"), "{rendered}");
            assert!(rendered.contains("fairness"), "{rendered}");
        }
        let back = TraceReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back.broker, report.broker);

        // Broker-free traces stay silent about the broker.
        let clean = analyze(TraceReader::new(jsonl(&sample_trace()).as_bytes())).unwrap();
        assert!(!clean.broker.any());
        assert!(!clean.to_table().contains("Broker"));
    }

    #[test]
    fn over_budget_reallocations_are_flagged() {
        let records = vec![rec(
            0,
            Some(0.0),
            E::CapReallocated {
                reason: "scheduled".into(),
                budget_w: 200.0,
                // total_w lies low; the allocations are what count.
                total_w: 100.0,
                allocations: vec![
                    arcs_trace::JobAllocation { job: 1, node: 0, cap_w: 150.0 },
                    arcs_trace::JobAllocation { job: 2, node: 1, cap_w: 100.0 },
                ],
            },
        )];
        let report = analyze(TraceReader::new(jsonl(&records).as_bytes())).unwrap();
        assert_eq!(report.broker.over_budget_events, 1);
        assert!((report.broker.max_total_w - 250.0).abs() < 1e-12);
        assert!(report.to_table().contains("1 OVER-BUDGET event(s)"));
    }

    #[test]
    fn analyzers_reconstruct_the_run() {
        let report = analyze(TraceReader::new(jsonl(&sample_trace()).as_bytes())).unwrap();
        assert_eq!(report.schema, SCHEMA_VERSION);
        assert_eq!(report.seq_gaps, 0);

        let rhs = &report.regions["rhs"];
        assert_eq!(rhs.invocations, 3);
        assert!((rhs.wall_s - 1.5).abs() < 1e-12);
        assert!((rhs.busy_s - 10.8).abs() < 1e-12);
        assert!((rhs.barrier_s - 1.2).abs() < 1e-12);
        assert!((rhs.implicit_task_s() - 12.0).abs() < 1e-12);
        assert_eq!(rhs.config_switches, 3);
        assert!((rhs.mean_call_s() - 0.5).abs() < 1e-12);
        assert_eq!(report.regions["zsolve"].invocations, 3);

        // Cap summary: everything ran under the single 80 W segment.
        assert_eq!(report.caps.len(), 1);
        let cap = &report.caps[0];
        assert_eq!(cap.invocations, 6);
        assert!((cap.region_s - 2.25).abs() < 1e-12);
        assert!((cap.energy_j - (3.0 * 40.0 + 3.0 * 18.0)).abs() < 1e-9);
        assert!((cap.edp() - cap.energy_j * cap.region_s).abs() < 1e-9);

        // Convergence: best-so-far decreases, final point converged.
        let curve = &report.convergence["rhs"];
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[1].best_value <= w[0].best_value));
        assert!(curve.last().unwrap().converged);

        // Cache: 1 miss then 2 hits.
        assert_eq!((report.cache.hits, report.cache.misses), (2, 1));
        assert!((report.cache.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.cache.timeline.len(), 3);

        // Overhead cross-check: the driver clock advanced by region time
        // plus charged overhead and nothing else.
        assert!((report.overhead.total_s() - 3.0 * 0.009).abs() < 1e-12);
        assert!(report.overhead_consistent(), "residual {}", report.overhead_residual_s());

        // Energy ledger: the package meter agrees with Σ region energy +
        // Σ overhead energy, and the run's objective was picked up from
        // the search events.
        assert_eq!(report.objective, Objective::Time);
        assert!((report.overhead.energy_j - 0.3).abs() < 1e-12);
        assert!((report.final_energy_total_j.unwrap() - 174.3).abs() < 1e-9);
        assert!(report.energy_consistent(), "residual {:?}", report.energy_residual_j());

        // All three render formats mention the load-bearing facts.
        for text in [report.to_table(), report.to_markdown()] {
            assert!(text.contains("rhs"));
            assert!(text.contains("consistent"));
            assert!(text.contains("80 W"));
        }
        let back = TraceReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);

        // Policy attribution: rhs announced `static` on every begin, so
        // its ends land on the static row; zsolve never emitted a begin
        // and stays unattributed.
        assert_eq!(report.policy_timeline["rhs"].len(), 1);
        assert_eq!(report.policy_timeline["rhs"][0].policy, "static");
        assert_eq!(report.policy_timeline["rhs"][0].invocations, 3);
        let st = &report.policies["static"];
        assert_eq!(st.invocations, 3);
        assert!((st.wall_s - 1.5).abs() < 1e-12);
        assert_eq!(report.policy_switches, 0);
    }

    #[test]
    fn policy_switches_build_the_timeline() {
        let mut records = Vec::new();
        let mut seq = 0;
        let policies = ["static", "static", "factoring", "factoring", "awf"];
        for (i, policy) in policies.iter().enumerate() {
            if i > 0 && policies[i - 1] != *policy {
                records.push(rec(
                    seq,
                    Some(i as f64),
                    E::PolicySwitched {
                        region: "mc/track".into(),
                        from: policies[i - 1].into(),
                        to: policy.to_string(),
                        invocation: i as u64,
                        imbalance: 0.4,
                    },
                ));
                seq += 1;
            }
            records.push(rec(
                seq,
                Some(i as f64),
                E::RegionBegin {
                    region: "mc/track".into(),
                    threads: 8,
                    schedule: format!("{policy},16"),
                    // Half the begins rely on the pre-v8 fallback path.
                    chunk_policy: if i % 2 == 0 { policy.to_string() } else { String::new() },
                },
            ));
            seq += 1;
            records.push(rec(
                seq,
                Some(i as f64 + 0.5),
                E::RegionEnd {
                    region: "mc/track".into(),
                    time_s: 0.5,
                    energy_j: 10.0,
                    busy_s: 3.0,
                    barrier_s: 1.0,
                    objective_value: None,
                },
            ));
            seq += 1;
        }
        let report = analyze(TraceReader::new(jsonl(&records).as_bytes())).unwrap();
        let timeline = &report.policy_timeline["mc/track"];
        assert_eq!(timeline.len(), 3);
        assert_eq!(
            timeline
                .iter()
                .map(|s| (s.policy.as_str(), s.from_invocation, s.invocations))
                .collect::<Vec<_>>(),
            vec![("static", 1, 2), ("factoring", 3, 2), ("awf", 5, 1)]
        );
        assert_eq!(report.policy_switches, 2);
        assert_eq!(report.policies["factoring"].invocations, 2);
        assert_eq!(report.policies["factoring"].switches_in, 1);
        assert_eq!(report.policies["awf"].switches_in, 1);
        assert!((report.policies["static"].wall_s - 1.0).abs() < 1e-12);
        // The rendered report narrates the switches and the timeline.
        let text = report.to_table();
        assert!(text.contains("Scheduling policies"), "{text}");
        assert!(text.contains("2 intra-run policy switch(es)"), "{text}");
        assert!(text.contains("static@1..+2 → factoring@3..+2 → awf@5..+1"), "{text}");
    }

    #[test]
    fn inconsistent_overhead_is_flagged() {
        // A RegionEnd whose timeline position includes 1 s the trace
        // never accounts for.
        let records = vec![rec(
            0,
            Some(1.5),
            E::RegionEnd {
                region: "r".into(),
                time_s: 0.5,
                energy_j: 1.0,
                busy_s: 0.5,
                barrier_s: 0.0,
                objective_value: None,
            },
        )];
        let report = analyze(TraceReader::new(jsonl(&records).as_bytes())).unwrap();
        assert!(!report.overhead_consistent());
        assert!((report.overhead_residual_s() - 1.0).abs() < 1e-12);
        assert!(report.to_table().contains("INCONSISTENT"));
    }

    #[test]
    fn cache_timeline_stays_bounded() {
        let mut analysis = TraceAnalysis::new();
        for i in 0..100_000u64 {
            let event = if i % 4 == 0 {
                E::CacheMiss { region: "r".into() }
            } else {
                E::CacheHit { region: "r".into() }
            };
            analysis.consume(&rec(i, None, event));
        }
        let report = analysis.finish(0);
        assert!(report.cache.timeline.len() <= CACHE_TIMELINE_POINTS);
        assert!(report.cache.timeline.len() >= CACHE_TIMELINE_POINTS / 2);
        let last = report.cache.timeline.last().unwrap();
        assert!((last.hit_rate - 0.75).abs() < 1e-3);
        // Points are in lookup order and cover the tail of the stream.
        assert!(report.cache.timeline.windows(2).all(|w| w[0].lookups < w[1].lookups));
        assert!(last.lookups > 50_000);
    }

    #[test]
    fn compare_passes_identical_runs_at_zero_threshold() {
        let report = analyze(TraceReader::new(jsonl(&sample_trace()).as_bytes())).unwrap();
        let cmp = compare_reports(&report, &report, 0.0);
        assert!(!cmp.regressed(), "{}", cmp.to_table());
        assert_eq!(cmp.rows[0].name, "TOTAL");
        assert_eq!(cmp.rows.len(), 1 + report.regions.len());
        assert!(cmp.to_table().contains("pass"));
    }

    #[test]
    fn compare_flags_slowdowns_past_threshold() {
        let base = analyze(TraceReader::new(jsonl(&sample_trace()).as_bytes())).unwrap();
        let mut cand = base.clone();
        cand.regions.get_mut("rhs").unwrap().wall_s *= 1.10; // +10 % mean
        let lenient = compare_reports(&base, &cand, 15.0);
        assert!(!lenient.regressed());
        let strict = compare_reports(&base, &cand, 5.0);
        assert!(strict.regressed());
        let row = strict.rows.iter().find(|r| r.name == "rhs").unwrap();
        assert!(row.regression && (row.delta_pct - 10.0).abs() < 1e-9);
        assert!(strict.to_table().contains("REGRESSION"));

        // Exactly-at-threshold is NOT a regression (strict inequality).
        let at = compare_reports(&base, &cand, 10.0 + 1e-9);
        assert!(!at.regressed());
    }

    #[test]
    fn energy_objective_gates_what_the_time_gate_misses() {
        let base = analyze(TraceReader::new(jsonl(&sample_trace()).as_bytes())).unwrap();
        let mut cand = base.clone();
        // Same speed, 20 % more energy in one region (and in the total).
        cand.regions.get_mut("rhs").unwrap().energy_j *= 1.20;
        cand.total_energy_j += 0.20 * base.regions["rhs"].energy_j;

        let time_gate = compare_reports_for(&base, &cand, 5.0, Objective::Time);
        assert!(!time_gate.regressed(), "{}", time_gate.to_table());

        let energy_gate = compare_reports_for(&base, &cand, 5.0, Objective::Energy);
        assert!(energy_gate.regressed());
        assert_eq!(energy_gate.objective, Objective::Energy);
        let row = energy_gate.rows.iter().find(|r| r.name == "rhs").unwrap();
        assert!(row.regression && (row.delta_pct - 20.0).abs() < 1e-9);
        assert!(energy_gate.to_table().contains("baseline J"));

        // EDP inherits the energy regression (time unchanged).
        let edp_gate = compare_reports_for(&base, &cand, 5.0, Objective::EnergyDelay);
        assert!(edp_gate.regressed());
        let back: Comparison = serde_json::from_str(&energy_gate.to_json()).unwrap();
        assert_eq!(back, energy_gate);

        // Artifacts from before the objective field existed still parse,
        // as time comparisons.
        let old =
            r#"{"fail_on_pct":0.0,"rows":[],"missing_in_candidate":[],"new_in_candidate":[]}"#;
        assert_eq!(Comparison::from_json(old).unwrap().objective, Objective::Time);
    }

    #[test]
    fn compare_reports_region_set_changes_without_failing() {
        let base = analyze(TraceReader::new(jsonl(&sample_trace()).as_bytes())).unwrap();
        let mut cand = base.clone();
        let moved = cand.regions.remove("zsolve").unwrap();
        cand.regions.insert("zsolve_v2".into(), moved);
        let cmp = compare_reports(&base, &cand, 0.0);
        assert_eq!(cmp.missing_in_candidate, ["zsolve"]);
        assert_eq!(cmp.new_in_candidate, ["zsolve_v2"]);
        assert!(!cmp.regressed());
        let back: Comparison = serde_json::from_str(&cmp.to_json()).unwrap();
        assert_eq!(back, cmp);
    }
}
