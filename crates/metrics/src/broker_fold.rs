//! One interpreter for the broker's event stream.
//!
//! The power-budget broker (`arcs-serve`) narrates everything it decides
//! as [`TraceEvent`]s. [`BrokerFold::apply`] is the single place those
//! events are given a meaning; every reader — the live broker's
//! `stats`/`watch`/`metrics` ops, `arcs-serve-top --replay`, and the
//! trace analyser's [`BrokerReport`]/[`RecoveryReport`] — folds the same
//! stream through it and takes one of three read-outs, so they cannot
//! disagree about a rule:
//!
//! | event | state it moves |
//! |---|---|
//! | `BrokerConfigured` | budget |
//! | `JobSubmitted` | submitted, tenant weight (first wins), job → {tenant, submit time} |
//! | `JobRejected` / `JobShed` | rejected / shed, `serve/admission{outcome}`, job forgotten |
//! | `JobScheduled` | scheduled, job runs at `cap_w`; queue-wait sample unless the job was ever requeued |
//! | `CapReallocated` | budget, running allocations, churn `Σ|Δ|` in job order, conservation check, per-tenant allocation samples and `serve/alloc_w` gauges |
//! | `JobCompleted` | completed, degraded iff `status == "degraded"`, turnaround sample, job forgotten |
//! | `JobRequeued` | requeues, job back to queued and marked requeued |
//! | `JobFailed` | failed, job forgotten |
//! | `NodeFailed` / `NodeRecovered` | nodes down, failure classes, outage seconds |
//! | `CheckpointRecovered` | checkpoint recoveries |
//!
//! Per-job facts (tenant, submit time, requeued flag) die at the job's
//! terminal event, so state is O(tenants + live jobs) however long the
//! stream. The event pane is a ring of [`EVENT_PANE`] lines, and once it
//! is full each new line is written into the buffer of the line it
//! evicts, so narrating an event allocates nothing. Waits and turnarounds are differenced in seconds from the
//! `t_s` the events carry, so a live fold and a replay of its trace
//! record bit-identical samples.
//!
//! The fold owns the `serve/*` metric series: the live broker hands its
//! registry to the Prometheus exposition, a replayed fold owns a
//! registry nobody scrapes, and the SLO digests of a frame are read from
//! those histograms either way.
//!
//! Two facts no event carries, which only the live broker can add:
//! running jobs that are *currently* degraded (the fold learns of
//! degradation at `JobCompleted`), and the `outcome="admitted"` count
//! (admission emits no event of its own; the broker bumps
//! [`BrokerFold::admitted`] itself).

use crate::analysis::{BrokerReport, RecoveryReport, TenantBreakdown};
use crate::registry::{labeled, Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry};
use arcs_trace::{TraceEvent, TraceRecord};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write;
use std::sync::Arc;

/// How many event lines a snapshot's rolling pane keeps.
pub const EVENT_PANE: usize = 64;

/// A compact distribution digest — the SLO view of a histogram. Units
/// follow the source series (seconds for waits, watts for churn).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Digest {
    pub count: u64,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    pub max: f64,
}

impl From<&HistogramSummary> for Digest {
    fn from(s: &HistogramSummary) -> Self {
        Digest { count: s.count, mean: s.mean, p50: s.p50, p99: s.p99, max: s.max }
    }
}

impl From<&Histogram> for Digest {
    fn from(h: &Histogram) -> Self {
        Digest::from(&h.summary())
    }
}

/// The budget-conservation rule every reader applies: Σ allocations
/// may top the budget only by float accumulation across reallocations.
pub fn within_budget(allocated_w: f64, budget_w: f64) -> bool {
    allocated_w <= budget_w * (1.0 + 1e-9) + 1e-9
}

/// One tenant's row in the dashboard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantTelemetry {
    /// Fair-share weight (first submission wins; 1 when unknown).
    pub weight: f64,
    pub queued: u64,
    pub running: u64,
    pub completed: u64,
    /// Jobs that finished `Degraded` plus running jobs currently
    /// degraded (replay only sees the former).
    pub degraded: u64,
    pub rejected: u64,
    /// Jobs that failed terminally: retry budget exhausted or stranded
    /// (v9).
    #[serde(default)]
    pub failed: u64,
    /// Jobs turned away by load shedding at admission (v9).
    #[serde(default)]
    pub shed: u64,
    /// Requeue events charged to this tenant's jobs (v9).
    #[serde(default)]
    pub requeued: u64,
    /// Node-level watts currently allocated to this tenant's jobs.
    pub alloc_w: f64,
    /// The tenant's weighted fair share of the budget across tenants
    /// with running jobs (0 when idle) — the dashboard's "vs fair
    /// share" reference line.
    pub fair_share_w: f64,
    /// Submission → placement, virtual seconds.
    pub queue_wait: Digest,
    /// Submission → completion, virtual seconds.
    pub turnaround: Digest,
}

/// One dashboard frame: the shape shared by the `stats`/`watch` ops,
/// `arcs-serve-top` and trace replay. The vendored serde writes fields
/// in declaration order and `BTreeMap`s sorted by key, so
/// `serde_json::to_string` of a frame is deterministic given equal
/// contents.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Virtual time of the frame, seconds.
    pub now_s: f64,
    pub budget_w: f64,
    /// Σ node-level allocations across running jobs. The conservation
    /// invariant: `allocated_w ≤ budget_w` in every frame.
    pub allocated_w: f64,
    pub submitted: u64,
    pub queued: u64,
    pub running: u64,
    pub completed: u64,
    pub rejected: u64,
    pub degraded: u64,
    /// Terminal failures (retry budget exhausted / stranded, v9).
    #[serde(default)]
    pub failed: u64,
    /// Jobs shed at admission (v9).
    #[serde(default)]
    pub shed: u64,
    /// Requeue events so far (v9).
    #[serde(default)]
    pub requeued: u64,
    /// Nodes currently out of service — down or draining (v9).
    #[serde(default)]
    pub nodes_down: u64,
    /// Global submission → placement digest, virtual seconds.
    pub queue_wait: Digest,
    /// Global submission → completion digest, virtual seconds.
    pub turnaround: Digest,
    /// Watts moved per reallocation (Σ |Δ allocation| over jobs).
    pub realloc_churn_w: Digest,
    pub tenants: BTreeMap<String, TenantTelemetry>,
    /// The most recent [`EVENT_PANE`] event lines, oldest first.
    pub events: Vec<String>,
}

impl TelemetrySnapshot {
    /// Budget utilisation in `[0, 1]` (0 when the budget is 0).
    pub fn utilization(&self) -> f64 {
        if self.budget_w > 0.0 {
            (self.allocated_w / self.budget_w).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }
}

/// What the fold keeps per tenant: the analyser's counts plus the
/// tenant's members of the labelled series.
struct Tenant {
    /// The map key, shared with every live job of the tenant.
    name: Arc<str>,
    /// 0 until a `JobSubmitted` names the tenant; pre-v7 traces carry no
    /// weight, which reads as the broker's default of 1.
    weight: f64,
    counts: TenantBreakdown,
    wait: Histogram,
    turnaround: Histogram,
    alloc_w: Gauge,
}

/// What the fold keeps per live job; dropped at the terminal event.
struct Job {
    tenant: Arc<str>,
    /// `None` when the stream's head (and the submission) is missing.
    submit_s: Option<f64>,
    /// Queue wait is the *first* placement's wait: a job requeued even
    /// once records no further sample.
    requeued: bool,
}

/// The fold itself — see the module docs for the event → state table.
pub struct BrokerFold {
    registry: Arc<MetricsRegistry>,
    /// `serve/queue_wait_s`: submission → first placement.
    queue_wait_s: Histogram,
    /// `serve/turnaround_s`: submission → completion.
    turnaround_s: Histogram,
    /// `serve/realloc_churn_w`: Σ |Δ allocation| per reallocation.
    realloc_churn_w: Histogram,
    reallocations: Counter,
    /// `serve/admission{outcome="admitted"|"rejected"|"shed"}`.
    admitted: Counter,
    rejected: Counter,
    shed: Counter,
    requeues: Counter,
    node_failures: Counter,
    job_failures: Counter,
    now_s: f64,
    /// Global counts; its `tenants` map stays empty until read out.
    report: BrokerReport,
    recovery: RecoveryReport,
    degraded: u64,
    tenants: BTreeMap<Arc<str>, Tenant>,
    jobs: BTreeMap<u64, Job>,
    /// Running job → current node-level allocation.
    running: BTreeMap<u64, f64>,
    /// Nodes currently out of service (down or draining).
    down: BTreeSet<u64>,
    events: VecDeque<String>,
}

impl Default for BrokerFold {
    fn default() -> Self {
        Self::new()
    }
}

impl BrokerFold {
    pub fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let admission = |outcome| registry.counter(&labeled("serve/admission", "outcome", outcome));
        BrokerFold {
            queue_wait_s: registry.histogram("serve/queue_wait_s"),
            turnaround_s: registry.histogram("serve/turnaround_s"),
            realloc_churn_w: registry.histogram("serve/realloc_churn_w"),
            reallocations: registry.counter("serve/reallocations"),
            admitted: admission("admitted"),
            rejected: admission("rejected"),
            shed: admission("shed"),
            requeues: registry.counter("serve/requeues"),
            node_failures: registry.counter("serve/node_failures"),
            job_failures: registry.counter("serve/job_failures"),
            registry,
            now_s: 0.0,
            report: BrokerReport::default(),
            recovery: RecoveryReport::default(),
            degraded: 0,
            tenants: BTreeMap::new(),
            jobs: BTreeMap::new(),
            running: BTreeMap::new(),
            down: BTreeSet::new(),
            events: VecDeque::with_capacity(EVENT_PANE),
        }
    }

    /// The registry holding every `serve/*` series the fold maintains.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// `serve/admission{outcome="admitted"}` — the one series no event
    /// drives (see the module docs); the live broker bumps it.
    pub fn admitted(&self) -> &Counter {
        &self.admitted
    }

    /// Σ allocations over running jobs. `+ 0.0` turns the empty sum's
    /// `-0.0` into plain `0`, so idle frames serialize as `0`.
    pub fn allocated_w(&self) -> f64 {
        self.running.values().sum::<f64>() + 0.0
    }

    /// The global budget, as last announced (0 before any event did).
    pub fn budget_w(&self) -> f64 {
        self.report.budget_w
    }

    /// Completions whose status was `degraded`.
    pub fn degraded(&self) -> u64 {
        self.degraded
    }

    /// `JobRequeued` events so far.
    pub fn requeues(&self) -> u64 {
        self.recovery.requeues
    }

    fn tenant(&mut self, name: &str) -> &mut Tenant {
        if !self.tenants.contains_key(name) {
            let name: Arc<str> = Arc::from(name);
            let series = |base| labeled(base, "tenant", &name);
            let tenant = Tenant {
                name: Arc::clone(&name),
                weight: 0.0,
                counts: TenantBreakdown::default(),
                wait: self.registry.histogram(&series("serve/queue_wait_s")),
                turnaround: self.registry.histogram(&series("serve/turnaround_s")),
                alloc_w: self.registry.gauge(&series("serve/alloc_w")),
            };
            self.tenants.insert(name, tenant);
        }
        self.tenants.get_mut(name).expect("just ensured")
    }

    /// Append one line to the rolling event pane, written into the
    /// buffer of the line it evicts once the pane is full.
    fn narrate(&mut self, t_s: f64, text: std::fmt::Arguments<'_>) {
        let mut line = match self.events.len() {
            EVENT_PANE => self.events.pop_front().unwrap_or_default(),
            _ => String::new(),
        };
        line.clear();
        let _ = write!(line, "[{t_s:9.3}s] {text}");
        self.events.push_back(line);
    }

    /// [`apply`](Self::apply) a trace record; one without a timestamp
    /// happens "now".
    pub fn apply_record(&mut self, rec: &TraceRecord) {
        self.apply(rec.t_s.unwrap_or(self.now_s), &rec.event);
    }

    /// Fold one event that happened at virtual time `t_s`. Events that
    /// are not the broker's pass through (they only advance the clock).
    pub fn apply(&mut self, t_s: f64, event: &TraceEvent) {
        self.now_s = self.now_s.max(t_s);
        match event {
            TraceEvent::BrokerConfigured { budget_w, .. } => self.report.budget_w = *budget_w,
            TraceEvent::JobSubmitted { job, tenant, workload, weight, .. } => {
                self.report.submitted += 1;
                let t = self.tenant(tenant);
                t.counts.submitted += 1;
                if t.weight == 0.0 {
                    t.weight = if *weight > 0.0 { *weight } else { 1.0 };
                }
                let facts =
                    Job { tenant: Arc::clone(&t.name), submit_s: Some(t_s), requeued: false };
                self.jobs.insert(*job, facts);
                self.narrate(t_s, format_args!("job {job} ({tenant}) submitted {workload}"));
            }
            TraceEvent::JobRejected { job, tenant, reason, .. } => {
                self.report.rejected += 1;
                self.rejected.inc();
                self.jobs.remove(job);
                self.tenant(tenant).counts.rejected += 1;
                self.narrate(t_s, format_args!("job {job} ({tenant}) rejected: {reason}"));
            }
            TraceEvent::JobShed { job, tenant, queue_depth, .. } => {
                self.report.shed += 1;
                self.shed.inc();
                self.jobs.remove(job);
                self.tenant(tenant).counts.shed += 1;
                self.narrate(
                    t_s,
                    format_args!("job {job} ({tenant}) shed: queue full at depth {queue_depth}"),
                );
            }
            TraceEvent::JobScheduled { job, tenant, node, cap_w } => {
                self.report.scheduled += 1;
                self.running.insert(*job, *cap_w);
                let wait_s = match self.jobs.get(job) {
                    Some(facts) => {
                        facts.submit_s.filter(|_| !facts.requeued).map(|at| (t_s - at).max(0.0))
                    }
                    // The stream's head is missing: adopt the job, with
                    // no submission to measure a wait from.
                    None => {
                        let tenant = Arc::clone(&self.tenant(tenant).name);
                        self.jobs.insert(*job, Job { tenant, submit_s: None, requeued: false });
                        None
                    }
                };
                if let Some(wait_s) = wait_s {
                    self.queue_wait_s.record(wait_s);
                }
                let t = self.tenant(tenant);
                t.counts.scheduled += 1;
                if let Some(wait_s) = wait_s {
                    t.wait.record(wait_s);
                }
                self.narrate(
                    t_s,
                    format_args!("job {job} ({tenant}) scheduled on node {node} @ {cap_w:.2} W"),
                );
            }
            TraceEvent::CapReallocated { reason, budget_w, total_w, allocations } => {
                self.report.reallocations += 1;
                self.reallocations.inc();
                self.report.budget_w = *budget_w;
                // `total_w` may lie low; the allocations are what count.
                let alloc_sum: f64 = allocations.iter().map(|a| a.cap_w).sum();
                let total = total_w.max(alloc_sum);
                self.report.max_total_w = self.report.max_total_w.max(total);
                if !within_budget(total, *budget_w) {
                    self.report.over_budget_events += 1;
                }
                let mut churn_w = 0.0;
                for a in allocations {
                    let old = self.running.insert(a.job, a.cap_w).unwrap_or(0.0);
                    churn_w += (a.cap_w - old).abs();
                    let owner = self.jobs.get(&a.job).and_then(|j| self.tenants.get_mut(&j.tenant));
                    if let Some(t) = owner {
                        t.counts.alloc_w_sum += a.cap_w;
                        t.counts.alloc_samples += 1;
                    }
                }
                self.realloc_churn_w.record(churn_w);
                // Every tenant's gauge is rewritten: one with nothing
                // running drops to 0. Each sums its running jobs in job
                // order.
                for (name, t) in &self.tenants {
                    let mut alloc_w = 0.0;
                    for (job, a) in &self.running {
                        if self.jobs.get(job).is_some_and(|facts| facts.tenant == *name) {
                            alloc_w += a;
                        }
                    }
                    t.alloc_w.set(alloc_w);
                }
                self.narrate(
                    t_s,
                    format_args!(
                        "reallocated ({reason}): {total_w:.2} / {budget_w:.2} W over {} job(s)",
                        allocations.len()
                    ),
                );
            }
            TraceEvent::JobCompleted { job, tenant, status, time_s, energy_j, .. } => {
                self.report.completed += 1;
                self.running.remove(job);
                let degraded = status == "degraded";
                self.degraded += degraded as u64;
                let submit_s = self.jobs.remove(job).and_then(|facts| facts.submit_s);
                let turnaround_s = submit_s.map(|at| (t_s - at).max(0.0));
                if let Some(turnaround_s) = turnaround_s {
                    self.turnaround_s.record(turnaround_s);
                }
                let t = self.tenant(tenant);
                t.counts.completed += 1;
                t.counts.degraded += degraded as u64;
                t.counts.time_s += time_s;
                t.counts.energy_j += energy_j;
                if let Some(turnaround_s) = turnaround_s {
                    t.turnaround.record(turnaround_s);
                }
                self.narrate(
                    t_s,
                    format_args!("job {job} ({tenant}) completed {status} in {time_s:.3}s"),
                );
            }
            TraceEvent::JobRequeued { job, tenant, node, backoff_s, .. } => {
                self.recovery.requeues += 1;
                self.requeues.inc();
                self.running.remove(job);
                if let Some(facts) = self.jobs.get_mut(job) {
                    facts.requeued = true;
                }
                self.tenant(tenant).counts.requeued += 1;
                self.narrate(
                    t_s,
                    format_args!(
                        "job {job} ({tenant}) requeued off node {node} (backoff {backoff_s:.3}s)"
                    ),
                );
            }
            TraceEvent::JobFailed { job, tenant, reason, .. } => {
                self.report.failed += 1;
                self.job_failures.inc();
                self.running.remove(job);
                self.jobs.remove(job);
                self.tenant(tenant).counts.failed += 1;
                self.narrate(t_s, format_args!("job {job} ({tenant}) failed: {reason}"));
            }
            TraceEvent::NodeFailed { node, class, permanent, victim } => {
                self.recovery.node_failures += 1;
                *self.recovery.failures_by_class.entry(class.clone()).or_default() += 1;
                self.recovery.permanent_failures += *permanent as u64;
                self.node_failures.inc();
                self.down.insert(*node);
                let perm = if *permanent { " permanently" } else { "" };
                match victim {
                    Some(job) => self.narrate(
                        t_s,
                        format_args!("node {node} {class}ed{perm} (victim job {job})"),
                    ),
                    None => self.narrate(t_s, format_args!("node {node} {class}ed{perm} (idle)")),
                }
            }
            TraceEvent::NodeRecovered { node, down_s } => {
                self.recovery.node_recoveries += 1;
                self.recovery.total_down_s += down_s;
                self.down.remove(node);
                self.narrate(t_s, format_args!("node {node} recovered after {down_s:.3}s down"));
            }
            TraceEvent::CheckpointRecovered { .. } => self.recovery.checkpoint_recoveries += 1,
            _ => {}
        }
    }

    /// The dashboard frame at the current point in the stream.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut tenants: BTreeMap<String, TenantTelemetry> = self
            .tenants
            .iter()
            .map(|(name, t)| {
                let row = TenantTelemetry {
                    weight: if t.weight > 0.0 { t.weight } else { 1.0 },
                    completed: t.counts.completed,
                    degraded: t.counts.degraded,
                    rejected: t.counts.rejected,
                    failed: t.counts.failed,
                    shed: t.counts.shed,
                    requeued: t.counts.requeued,
                    queue_wait: Digest::from(&t.wait),
                    turnaround: Digest::from(&t.turnaround),
                    ..TenantTelemetry::default()
                };
                (name.to_string(), row)
            })
            .collect();
        let mut queued = 0;
        for (job, facts) in &self.jobs {
            let Some(row) = tenants.get_mut(&*facts.tenant) else { continue };
            match self.running.get(job) {
                Some(alloc_w) => {
                    row.running += 1;
                    row.alloc_w += alloc_w;
                }
                None => {
                    row.queued += 1;
                    queued += 1;
                }
            }
        }
        // Fair share: the budget split by weight over the tenants that
        // have something running.
        let budget_w = self.report.budget_w;
        let active: f64 =
            tenants.values().filter(|t| t.running > 0).map(|t| t.weight.max(0.0)).sum();
        for t in tenants.values_mut().filter(|t| t.running > 0 && active > 0.0) {
            t.fair_share_w = budget_w * t.weight.max(0.0) / active;
        }
        TelemetrySnapshot {
            now_s: self.now_s,
            budget_w,
            allocated_w: self.allocated_w(),
            submitted: self.report.submitted,
            queued,
            running: self.running.len() as u64,
            completed: self.report.completed,
            rejected: self.report.rejected,
            degraded: self.degraded,
            failed: self.report.failed,
            shed: self.report.shed,
            requeued: self.recovery.requeues,
            nodes_down: self.down.len() as u64,
            queue_wait: Digest::from(&self.queue_wait_s),
            turnaround: Digest::from(&self.turnaround_s),
            realloc_churn_w: Digest::from(&self.realloc_churn_w),
            tenants,
            events: self.events.iter().cloned().collect(),
        }
    }

    /// What the broker did over the stream, per tenant.
    pub fn broker_report(&self) -> BrokerReport {
        BrokerReport {
            tenants: self.tenants.iter().map(|(n, t)| (n.to_string(), t.counts.clone())).collect(),
            ..self.report.clone()
        }
    }

    /// What node faults did to the fleet and how the broker recovered.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.recovery.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_trace::JobAllocation;

    fn submitted(job: u64, tenant: &str, weight: f64) -> TraceEvent {
        TraceEvent::JobSubmitted {
            job,
            tenant: tenant.into(),
            workload: "sp.S".into(),
            floor_w: 57.5,
            weight,
            timesteps: 0,
            fault_seed: None,
            requested_floor_w: None,
        }
    }

    fn scheduled(job: u64, tenant: &str, node: u64) -> TraceEvent {
        TraceEvent::JobScheduled { job, tenant: tenant.into(), node, cap_w: 57.5 }
    }

    fn reallocated(total_w: f64, caps: &[(u64, f64)]) -> TraceEvent {
        TraceEvent::CapReallocated {
            reason: "scheduled".into(),
            budget_w: 300.0,
            total_w,
            allocations: caps
                .iter()
                .map(|&(job, cap_w)| JobAllocation { job, node: job, cap_w })
                .collect(),
        }
    }

    #[test]
    fn the_fold_reconstructs_waits_allocations_and_fair_shares() {
        let events = vec![
            (0.0, submitted(0, "acme", 2.0)),
            (0.0, submitted(1, "umbrella", 0.0)), // pre-v7 trace: unknown weight reads as 1
            (0.0, scheduled(0, "acme", 0)),
            (0.0, reallocated(230.0, &[(0, 230.0)])),
            (2.5, scheduled(1, "umbrella", 1)),
            (2.5, reallocated(297.5, &[(0, 180.0), (1, 117.5)])),
            (
                9.0,
                TraceEvent::JobCompleted {
                    job: 0,
                    tenant: "acme".into(),
                    node: 0,
                    status: "ok".into(),
                    time_s: 9.0,
                    energy_j: 800.0,
                },
            ),
        ];
        let fold_all = || {
            let mut fold = BrokerFold::new();
            for (t_s, event) in &events {
                fold.apply(*t_s, event);
            }
            fold
        };
        let fold = fold_all();
        let snap = fold.snapshot();
        assert_eq!((snap.submitted, snap.running, snap.completed), (2, 1, 1));
        assert_eq!(snap.budget_w, 300.0);
        assert_eq!(snap.allocated_w, 117.5);
        assert_eq!((fold.allocated_w(), fold.budget_w()), (117.5, 300.0));
        // Job 1 waited 2.5 virtual seconds; job 0 was placed instantly.
        assert_eq!(snap.queue_wait.count, 2);
        assert!(snap.queue_wait.max >= 2.5 / 2f64.powf(1.0 / 8.0));
        assert_eq!(snap.turnaround.count, 1);
        // Churn: 57.5→230 (+172.5), then |180−230| + |117.5−57.5| = 110.
        assert_eq!(snap.realloc_churn_w.count, 2);
        let acme = &snap.tenants["acme"];
        let umbrella = &snap.tenants["umbrella"];
        assert_eq!(acme.weight, 2.0);
        assert_eq!(umbrella.weight, 1.0, "weight 0 in old traces reads as 1");
        assert_eq!(acme.completed, 1);
        assert_eq!(umbrella.running, 1);
        assert_eq!(umbrella.alloc_w, 117.5);
        // Only umbrella is running, so it owns the whole fair share.
        assert_eq!(umbrella.fair_share_w, 300.0);
        assert_eq!(acme.fair_share_w, 0.0);
        assert!(snap.events.iter().any(|l| l.contains("completed ok")));

        // The frame's digests are the registry's series, and the gauges
        // follow the last reallocation.
        let series = fold.registry().snapshot();
        assert_eq!(series.counter("serve/reallocations"), 2);
        assert_eq!(series.histogram("serve/queue_wait_s").unwrap().count, 2);
        let text = series.to_prometheus();
        assert!(text.contains("serve_alloc_w{tenant=\"umbrella\"} 117.5"), "{text}");

        // The fold is a pure function: same events, byte-identical frame.
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            serde_json::to_string(&fold_all().snapshot()).unwrap()
        );
    }

    #[test]
    fn a_requeued_job_records_one_queue_wait_and_dies_at_its_terminal_event() {
        let mut fold = BrokerFold::new();
        fold.apply(0.0, &submitted(0, "acme", 1.0));
        fold.apply(1.0, &scheduled(0, "acme", 0));
        fold.apply(
            2.0,
            &TraceEvent::NodeFailed {
                node: 0,
                class: "crash".into(),
                permanent: false,
                victim: Some(0),
            },
        );
        fold.apply(
            2.0,
            &TraceEvent::JobRequeued {
                job: 0,
                tenant: "acme".into(),
                node: 0,
                attempt: 1,
                backoff_s: 0.05,
            },
        );
        let mid = fold.snapshot();
        assert_eq!((mid.queued, mid.running, mid.requeued, mid.nodes_down), (1, 0, 1, 1));
        assert_eq!(mid.tenants["acme"].queued, 1);
        fold.apply(3.0, &TraceEvent::NodeRecovered { node: 0, down_s: 1.0 });
        fold.apply(3.0, &scheduled(0, "acme", 0));
        assert_eq!(fold.snapshot().queue_wait.count, 1, "the second placement is not a wait");
        fold.apply(
            4.0,
            &TraceEvent::JobFailed {
                job: 0,
                tenant: "acme".into(),
                reason: "retry budget exhausted".into(),
                attempts: 2,
            },
        );
        let end = fold.snapshot();
        assert_eq!((end.queued, end.running, end.failed, end.nodes_down), (0, 0, 1, 0));
        assert_eq!(fold.broker_report().lost_jobs(), 0);
        assert_eq!(fold.recovery_report().mttr_s(), Some(1.0));
    }

    #[test]
    fn the_event_pane_is_bounded() {
        let mut fold = BrokerFold::new();
        for i in 0..(EVENT_PANE + 10) {
            fold.apply(i as f64, &TraceEvent::NodeRecovered { node: i as u64, down_s: 0.0 });
        }
        let events = fold.snapshot().events;
        assert_eq!(events.len(), EVENT_PANE);
        assert!(events[0].contains("node 10 recovered"), "{}", events[0]);
    }
}
