//! The deterministic broker core: the state and the event loop that
//! carry out admission, scheduling, and hierarchical power-budget
//! arbitration over a simulated fleet. The *decisions* themselves — who
//! is admitted, which node the queue head takes, how long a crashed job
//! backs off, how the budget divides — are the pure functions of
//! [`crate::arbitration`]; rebuilding a broker from its journal
//! ([`Broker::recover`]) is `recovery.rs`. Every broker event is emitted
//! from this file.
//!
//! # Execution model
//!
//! The broker is a discrete-event simulator over *virtual* time
//! (integer microseconds, so event ordering is exact). One job runs per
//! node; a job executes as a sequence of *quanta*, each simulated whole
//! when it starts and applied when its completion event fires. Between
//! quanta the broker may move the job's power allocation; the move
//! travels through the job's [`CapHandle`] and lands at the next region
//! boundary as an ordinary mid-run `CapChange`. The tuner holds no cap:
//! the move reprices the next invocation, a settled region keeps its
//! configuration, and a region still searching sees one more
//! measurement.
//!
//! Quanta go through the broker's quantum memo (`quantum.rs`): a job
//! whose path retraces an earlier job's (same model, workload, fault
//! seed, starting length and cap per quantum) recalls its outcomes, and
//! builds a persistent executor and tuner only at its first miss, by
//! replaying its path. From then on its quanta are successive runs over
//! that pair, so the tuner's search state, the fault clock and the memo
//! cache carry across quanta as across the phases of one long run.
//! Outcomes are exact either way.
//!
//! # Power hierarchy
//!
//! The budget is arbitrated in three levels: one *global* budget (watts)
//! owned by the broker, split into *node-level* allocations (what
//! [`TraceEvent::CapReallocated`] records), each programmed onto the
//! node as a *per-socket* package cap (`node watts / sockets`, see
//! [`FleetNode::package_cap_w`](arcs_powersim::FleetNode::package_cap_w)).
//!
//! # Admission, fairness, conservation
//!
//! * **Admission**: a job is rejected at submission if no budget or node
//!   could *ever* cover its floor cap, or if it asks for more than
//!   [`MAX_JOB_TIMESTEPS`](crate::arbitration::MAX_JOB_TIMESTEPS). Anything
//!   admissible waits its turn (FIFO) for a free node plus budget
//!   headroom.
//! * **Fairness**: every running job is pinned at least its floor; the
//!   surplus is water-filled proportionally to tenant weight (a
//!   tenant's weight is split evenly across its running jobs), capped
//!   at each node's hardware maximum. `Degraded` jobs stop receiving
//!   surplus and hold exactly their floor.
//! * **Conservation**: Σ allocations ≤ budget at every reallocation
//!   point. Allocations are quantized down to [`ALLOC_QUANTUM_W`] steps
//!   above the floor, which both preserves the invariant under float
//!   arithmetic and keeps the per-cap memo-cache key space small.
//!
//! # Node faults and overload
//!
//! A [`NodeFaultPlan`] takes nodes down on a seeded schedule: a *crash*
//! loses the in-flight quantum, a *drain* lets it finish and requeues
//! its job for free, a *permanent* outage never recovers. Events due at one instant apply in the order
//! recover, release, quantum, node failure, so a quantum ending as its
//! node fails still lands. A crash victim keeps its completed quanta and
//! requeues (`JobRequeued`) after a virtual-time back-off of
//! `backoff_base_s · 2^min(attempt−1, 6)`, for at most
//! [`BrokerConfig::max_retries`] placements; beyond that, or when no
//! surviving node can host it, it fails typed (`JobFailed`). Every
//! transition re-divides the budget over the surviving nodes.
//!
//! [`BrokerConfig::max_queue`] bounds the admission queue: a submission
//! beyond it is shed typed (`JobShed`, and a wire answer carrying
//! `retry_after_s` and `queue_depth`). A shed job counts as submitted,
//! so `submitted == completed + rejected + failed + shed` holds exactly.
//!
//! # Reporting
//!
//! The broker keeps what it needs to *arbitrate* and nothing else.
//! Every decision leaves through one `emit`, which folds the event into
//! an [`arcs_metrics::BrokerFold`] before recording it: counters, SLO
//! series, per-tenant rows and the event pane are read-outs of that
//! fold — the same interpreter `arcs-serve-top --replay` and the trace
//! analyser run over the recorded stream, so live and replayed views
//! cannot drift apart.
//!
//! Determinism: all state lives in `BTreeMap`/`BTreeSet` (iteration
//! order is the id order), virtual time is integral, and the simulator
//! underneath is deterministic — the same submission sequence always
//! produces byte-identical traces.

use crate::arbitration::{self, Claim, EPS_W};
use crate::job::{JobSpec, JobState};
use crate::journal::BrokerJournal;
use crate::quantum::{JobPath, QuantumMemo, QuantumResult};
use crate::recovery;
use arcs::{CapHandle, ResilienceOptions, RunStatus};
use arcs_metrics::{BrokerFold, MetricsRegistry, TelemetrySnapshot};
use arcs_powersim::{Fleet, NodeFaultClass, NodeFaultPlan};
use arcs_trace::{JobAllocation, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::Arc;

pub use crate::arbitration::ALLOC_QUANTUM_W;
pub use crate::job::{CompletedJob, SubmitOutcome};

/// Broker tuning knobs beyond the budget itself.
#[derive(Debug, Clone, Copy)]
pub struct BrokerConfig {
    /// The global power budget, watts.
    pub budget_w: f64,
    /// Application timesteps per scheduling quantum — the granularity at
    /// which reallocations reach a running job.
    pub quantum_timesteps: usize,
    /// Self-healing ladder applied to every job run (faulted jobs are
    /// always given at least [`ResilienceOptions::standard`], or they
    /// could not degrade gracefully).
    pub resilience: Option<ResilienceOptions>,
    /// Deterministic node-outage schedule for the fleet; `None` (or an
    /// inactive plan) keeps every node immortal.
    pub node_faults: Option<NodeFaultPlan>,
    /// Bound on the admission queue: submissions beyond it are *shed*
    /// with a typed reason and a backpressure hint instead of growing
    /// the queue without bound. `None` keeps the queue unbounded.
    pub max_queue: Option<usize>,
    /// How many times a job may be re-placed after losing its node to a
    /// crash before it fails typed. Graceful drains cost no retry.
    pub max_retries: u64,
    /// Base of the deterministic exponential backoff a crash-requeued
    /// job sits out before becoming placeable again, virtual seconds
    /// (doubles per crash, capped at 64×).
    pub backoff_base_s: f64,
}

impl BrokerConfig {
    pub fn new(budget_w: f64) -> Self {
        BrokerConfig {
            budget_w,
            quantum_timesteps: 4,
            resilience: None,
            node_faults: None,
            max_queue: None,
            max_retries: 3,
            backoff_base_s: 0.05,
        }
    }
}

/// Event-class codes ordering simultaneous events deterministically:
/// capacity returns first, parked jobs release next, quanta complete,
/// and outages strike last — so a quantum ending at the same instant a
/// node fails narrowly escapes, always.
const EV_RECOVER: u8 = 0;
const EV_RELEASE: u8 = 1;
const EV_QUANTUM: u8 = 2;
const EV_FAIL: u8 = 3;

/// Payload of one pending discrete event (keyed `(t_us, class, id)`).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ev {
    /// The node keyed by `id` rejoins the pool.
    Recover,
    /// The job keyed by `id` finished its retry backoff and requeues.
    Release,
    /// The job keyed by `id` finishes its in-flight quantum.
    Quantum,
    /// The node keyed by `id` leaves service; `down_us` is the outage
    /// length (`None` = permanent).
    NodeFail { class: NodeFaultClass, down_us: Option<u64> },
}

struct RunningJob {
    progress: Progress,
    node: u64,
    /// Effective node-level floor on the assigned node: the larger of
    /// the job's requested floor and the node's RAPL floor.
    floor_w: f64,
    /// Current node-level allocation.
    alloc_w: f64,
    /// Node hardware maximum, cached from the fleet.
    max_w: f64,
    handle: CapHandle,
    /// The job's walk through the quantum memo.
    path: JobPath,
    in_flight: Option<QuantumResult>,
    /// Virtual instant of the pending quantum event, so a crash can
    /// cancel it.
    event_at: Option<u64>,
}

/// What an admitted job carries from placement to placement: the spec
/// plus whatever progress survived earlier placements. Queued and parked
/// jobs *are* one of these; a running job embeds it, so placing and
/// requeueing move it whole. A crash discards the in-flight quantum but
/// keeps every *completed* quantum's timesteps, time and energy — the job
/// resumes where its last boundary left it (as a new walk through the
/// quantum memo on the new node).
struct Progress {
    spec: JobSpec,
    remaining: usize,
    time_s: f64,
    energy_j: f64,
    degraded: bool,
    /// Placements consumed so far, the current one included while the
    /// job runs (0 for a never-placed job) — what the retry budget
    /// compares against.
    attempts: u64,
    /// True once the job has been requeued at least once: it resumes
    /// from `remaining` instead of the workload's full length.
    requeued: bool,
}

/// Aggregate counters for load-generator summaries, and the body of a
/// `stats` reply as is: the field order is the wire order, and a reply
/// from before v9 decodes with the v9 counters at 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BrokerCounters {
    pub submitted: u64,
    pub queued: u64,
    pub running: u64,
    pub completed: u64,
    pub rejected: u64,
    pub degraded: u64,
    /// Terminal failures: retry budget exhausted or stranded (v9).
    #[serde(default)]
    pub failed: u64,
    /// Turned away by load shedding at admission (v9).
    #[serde(default)]
    pub shed: u64,
    /// Requeue events so far, crash and drain requeues both (v9).
    #[serde(default)]
    pub requeued: u64,
    /// Nodes currently out of service, down or draining (v9).
    #[serde(default)]
    pub nodes_down: u64,
    /// The global budget, watts.
    pub budget_w: f64,
    /// Virtual time, seconds.
    pub now_s: f64,
}

/// One `watch` subscriber: a channel plus its push period in quantum
/// events. Dropped silently when the receiver goes away.
struct Watcher {
    tx: Sender<TelemetrySnapshot>,
    every: u64,
    seen: u64,
}

/// The multi-tenant power-budget broker (see module docs).
pub struct Broker {
    fleet: Fleet,
    cfg: BrokerConfig,
    trace: Arc<dyn TraceSink>,
    next_job: u64,
    /// Virtual clock, microseconds.
    now_us: u64,
    /// Pending discrete events, keyed `(t_us, class, id)` — `BTreeMap`
    /// so the next event is deterministic and simultaneous events fire
    /// in the [`EV_RECOVER`]..[`EV_FAIL`] class order.
    events: BTreeMap<(u64, u8, u64), Ev>,
    /// Admitted jobs waiting for a node + budget headroom, FIFO.
    queue: VecDeque<u64>,
    queued: BTreeMap<u64, Progress>,
    /// Crash-requeued jobs sitting out their retry backoff; each owns a
    /// pending [`Ev::Release`] event.
    parked: BTreeMap<u64, Progress>,
    running: BTreeMap<u64, RunningJob>,
    completed: BTreeMap<u64, CompletedJob>,
    rejected: BTreeMap<u64, String>,
    /// Terminally failed jobs → typed reason (v9).
    failed: BTreeMap<u64, String>,
    /// Load-shed jobs → typed reason (v9).
    shed: BTreeMap<u64, String>,
    /// Node → virtual instant (µs) it went down.
    down_nodes: BTreeMap<u64, u64>,
    /// Draining nodes (victim still finishing its quantum) → outage
    /// length once the drain completes (`None` = permanent).
    draining: BTreeMap<u64, Option<u64>>,
    /// Tenant → fair-share weight (first submission wins).
    tenants: BTreeMap<String, f64>,
    /// Write-ahead journal; when attached, every submit and step is
    /// recorded (and flushed) before it is applied.
    journal: Option<BrokerJournal>,
    free_nodes: BTreeSet<u64>,
    /// Everything observable — counts, SLO series, per-tenant rows, the
    /// event pane — is read out of this fold of the emitted events; the
    /// fields above exist to arbitrate, not to report.
    fold: BrokerFold,
    watchers: Vec<Watcher>,
    /// Every quantum any job ran, so a retracing job recalls instead of
    /// simulating.
    quanta: QuantumMemo,
    /// The jobs one `schedule` placed, and one reallocation's running
    /// jobs per tenant, claims and caps, kept for the next.
    placed: Vec<u64>,
    tenant_jobs: BTreeMap<String, f64>,
    claims: Vec<Claim>,
    caps: Vec<f64>,
}

impl Broker {
    pub fn new(fleet: Fleet, cfg: BrokerConfig, trace: Arc<dyn TraceSink>) -> Self {
        let free_nodes: BTreeSet<u64> = fleet.nodes().iter().map(|n| n.id).collect();
        // Seed the fleet's entire outage schedule up front: every fault
        // is a pure function of (seed, node, ordinal), so the schedule
        // is fixed at birth and identical across replays.
        let mut events = BTreeMap::new();
        if let Some(plan) = cfg.node_faults.filter(|p| p.is_active()) {
            for &node in &free_nodes {
                for fault in plan.schedule_for(node) {
                    let t_us = (fault.at_s * 1e6).round().max(0.0) as u64;
                    let down_us = fault.down_s.map(|s| (s * 1e6).round().max(1.0) as u64);
                    events.insert(
                        (t_us, EV_FAIL, node),
                        Ev::NodeFail { class: fault.class, down_us },
                    );
                }
            }
        }
        let mut broker = Broker {
            fleet,
            cfg,
            trace,
            next_job: 0,
            now_us: 0,
            events,
            queue: VecDeque::new(),
            queued: BTreeMap::new(),
            parked: BTreeMap::new(),
            running: BTreeMap::new(),
            completed: BTreeMap::new(),
            rejected: BTreeMap::new(),
            failed: BTreeMap::new(),
            shed: BTreeMap::new(),
            down_nodes: BTreeMap::new(),
            draining: BTreeMap::new(),
            tenants: BTreeMap::new(),
            journal: None,
            free_nodes,
            fold: BrokerFold::new(),
            watchers: Vec::new(),
            quanta: QuantumMemo::new(),
            placed: Vec::new(),
            tenant_jobs: BTreeMap::new(),
            claims: Vec::new(),
            caps: Vec::new(),
        };
        // The budget is known from birth, not from the first
        // reallocation: the fold learns it the way a journal reader does.
        let configured = recovery::header(&broker.fleet, &broker.cfg);
        broker.fold.apply(0.0, &configured);
        broker
    }

    /// Attach a write-ahead journal. Must be called on a *fresh* broker
    /// (before any submit or step): the journal's first record is a
    /// [`TraceEvent::BrokerConfigured`] header describing how to rebuild
    /// this broker, and recovery replays every op recorded after it.
    /// Appends the disk refused are counted under
    /// `arcs/journal/write_errors` in [`Broker::registry`], so `metrics`
    /// and `stats` show a journal that stopped being durable.
    pub fn attach_journal(&mut self, journal: BrokerJournal) {
        let write_errors = self.registry().counter("arcs/journal/write_errors");
        journal.set_write_error_counter(write_errors.shared());
        journal.append(self.now_s(), recovery::header(&self.fleet, &self.cfg));
        self.journal = Some(journal);
    }

    /// The attached journal's first absorbed write error, if any.
    pub fn journal_error(&self) -> Option<String> {
        self.journal.as_ref().and_then(|j| j.last_error())
    }

    pub(crate) fn journal_op(&self, event: TraceEvent) {
        if let Some(j) = &self.journal {
            j.append(self.now_s(), event);
        }
    }

    pub fn budget_w(&self) -> f64 {
        self.cfg.budget_w
    }

    /// The broker's own metrics registry — the fold's, always present.
    /// The server wires its thread-pool gauges here; the `arcs-serve`
    /// binary bridges trace write errors into it.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        self.fold.registry()
    }

    /// Virtual time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_us as f64 / 1e6
    }

    pub fn counters(&self) -> BrokerCounters {
        BrokerCounters {
            submitted: self.next_job,
            queued: (self.queue.len() + self.parked.len()) as u64,
            running: self.running.len() as u64,
            completed: self.completed.len() as u64,
            rejected: self.rejected.len() as u64,
            degraded: self.fold.degraded()
                + self.running.values().filter(|r| r.progress.degraded).count() as u64,
            failed: self.failed.len() as u64,
            shed: self.shed.len() as u64,
            requeued: self.fold.requeues(),
            nodes_down: (self.down_nodes.len() + self.draining.len()) as u64,
            budget_w: self.budget_w(),
            now_s: self.now_s(),
        }
    }

    pub fn job_state(&self, job: u64) -> Option<JobState> {
        if self.queued.contains_key(&job) || self.parked.contains_key(&job) {
            Some(JobState::Queued)
        } else if self.running.contains_key(&job) {
            Some(JobState::Running)
        } else if self.completed.contains_key(&job) {
            Some(JobState::Completed)
        } else if self.rejected.contains_key(&job) {
            Some(JobState::Rejected)
        } else if self.failed.contains_key(&job) {
            Some(JobState::Failed)
        } else if self.shed.contains_key(&job) {
            Some(JobState::Shed)
        } else {
            None
        }
    }

    pub fn completed_jobs(&self) -> &BTreeMap<u64, CompletedJob> {
        &self.completed
    }

    /// Why a terminal job ended the way it did: the rejection, failure
    /// or shed reason (whichever state the job is in).
    pub fn rejection_reason(&self, job: u64) -> Option<&str> {
        self.rejected
            .get(&job)
            .or_else(|| self.failed.get(&job))
            .or_else(|| self.shed.get(&job))
            .map(String::as_str)
    }

    /// All internal events drained and nothing queued, parked or
    /// running. (Seeded fleet faults count as events: an idle broker has
    /// lived its whole outage schedule.)
    pub fn is_idle(&self) -> bool {
        self.events.is_empty()
            && self.running.is_empty()
            && self.queue.is_empty()
            && self.parked.is_empty()
    }

    /// Whether [`step`](Broker::step) has work — a pending event, or
    /// stranded queued jobs to sweep once no event can ever free
    /// capacity for them. The server's cue to keep advancing virtual
    /// time between commands.
    pub fn has_pending_events(&self) -> bool {
        !self.events.is_empty() || !self.queue.is_empty()
    }

    /// Everything the broker decides leaves through here: the event is
    /// folded into the broker's own read-outs, then recorded.
    fn emit(&mut self, event: TraceEvent) {
        let now_s = self.now_s();
        self.fold.apply(now_s, &event);
        if self.trace.enabled() {
            self.trace.record(Some(now_s), event);
        }
    }

    /// Submit a job at the current virtual time. Admission control runs
    /// here: inadmissible jobs are rejected immediately and never
    /// schedule; everything else queues FIFO and is placed as nodes and
    /// budget free up (placement may happen within this call).
    pub fn submit(&mut self, mut spec: JobSpec) -> SubmitOutcome {
        let job = self.next_job;
        self.next_job += 1;
        // No event may carry a number the journal cannot encode: a
        // non-finite floor asks for nothing, like a negative one, and a
        // non-finite weight is the default, like a non-positive one.
        spec.floor_w = spec.floor_w.filter(|f| f.is_finite());
        let weight = if spec.weight.is_finite() && spec.weight > 0.0 { spec.weight } else { 1.0 };
        if !self.tenants.contains_key(&spec.tenant) {
            self.tenants.insert(spec.tenant.clone(), weight);
        }

        let resolves = self.quanta.resolve(&spec.workload).is_some();
        let (floor_w, verdict) =
            arbitration::admit(&spec, resolves, &self.fleet, self.cfg.budget_w);
        // The submitted event doubles as the journal's op record, so it
        // carries everything needed to rebuild the spec on replay.
        let submitted = TraceEvent::JobSubmitted {
            job,
            tenant: spec.tenant.clone(),
            workload: spec.workload.clone(),
            floor_w,
            weight,
            timesteps: spec.timesteps as u64,
            fault_seed: spec.fault_seed,
            requested_floor_w: spec.floor_w,
        };
        if self.journal.is_some() {
            self.journal_op(submitted.clone());
        }
        self.emit(submitted);

        if let Err(reason) = verdict {
            self.emit(TraceEvent::JobRejected {
                job,
                tenant: spec.tenant.clone(),
                floor_w,
                reason: reason.clone(),
            });
            self.rejected.insert(job, reason.clone());
            return SubmitOutcome::Rejected { job, reason };
        }

        // Load shedding: checked after the JobSubmitted emission (shed
        // jobs count as submitted — the conservation identity needs
        // them) and after rejection (a job that could never run gets the
        // more specific answer).
        if let Some(max_queue) = self.cfg.max_queue {
            let depth = self.queue.len() + self.parked.len();
            if depth >= max_queue {
                let reason = format!("admission queue full ({depth}/{max_queue})");
                let retry_after_s = self.retry_hint_s();
                let queue_depth = depth as u64;
                self.emit(TraceEvent::JobShed {
                    job,
                    tenant: spec.tenant.clone(),
                    reason: reason.clone(),
                    queue_depth,
                    retry_after_s,
                });
                self.shed.insert(job, reason.clone());
                return SubmitOutcome::Shed { job, reason, retry_after_s, queue_depth };
            }
        }

        // Admission emits no event of its own, so this one series is
        // bumped here (see the fold's module docs).
        self.fold.admitted().inc();
        self.queue.push_back(job);
        self.queued.insert(
            job,
            Progress {
                spec,
                remaining: 0,
                time_s: 0.0,
                energy_j: 0.0,
                degraded: false,
                attempts: 0,
                requeued: false,
            },
        );
        self.schedule();
        SubmitOutcome::Admitted(job)
    }

    /// Backpressure hint for shed submissions: virtual seconds until the
    /// next pending event — before it, capacity cannot change.
    fn retry_hint_s(&self) -> f64 {
        match self.events.keys().next() {
            Some(&(t, _, _)) => {
                ((t.max(self.now_us) - self.now_us) as f64 / 1e6).max(self.cfg.backoff_base_s)
            }
            None => self.cfg.backoff_base_s,
        }
    }

    /// Process the next discrete event (quantum end, node fail/recover,
    /// retry release). When no event remains but jobs are still queued,
    /// nothing can ever free capacity for them — they are swept to
    /// typed failures so the conservation identity closes at idle.
    /// Returns `false` only when there is nothing left to do.
    pub fn step(&mut self) -> bool {
        if self.events.is_empty() && self.queue.is_empty() {
            return false;
        }
        // Write-ahead: the op is durable before any of its effects are.
        self.journal_op(TraceEvent::BrokerStep {});
        match self.events.pop_first() {
            None => self.starve_stranded(),
            Some(((t, _, id), ev)) => {
                self.now_us = self.now_us.max(t);
                match ev {
                    Ev::Quantum => self.finish_quantum(id),
                    Ev::NodeFail { class, down_us } => self.node_fail(id, class, down_us),
                    Ev::Recover => self.node_recover(id),
                    Ev::Release => self.release(id),
                }
            }
        }
        self.notify_watchers();
        true
    }

    /// Apply a finished quantum: bank its progress, then complete the
    /// job, continue it, or — when its node is draining — requeue it
    /// (free: a graceful drain costs no retry, no backoff) and take the
    /// node down.
    fn finish_quantum(&mut self, job: u64) {
        let rj = self.running.get_mut(&job).expect("event for a job not running");
        rj.event_at = None;
        let q = rj.in_flight.take().expect("an event implies an in-flight quantum");
        let p = &mut rj.progress;
        p.remaining -= q.steps;
        p.time_s += q.time_s;
        p.energy_j += q.energy_j;
        let newly_degraded = q.degraded && !p.degraded;
        if newly_degraded {
            p.degraded = true;
        }
        let done = p.remaining == 0;
        let node = rj.node;
        if !done && !self.draining.contains_key(&node) {
            if newly_degraded {
                // The job stops earning surplus; hand its share back.
                self.reallocate("degraded");
            }
            self.start_quantum(job);
            return;
        }

        let rj = self.running.remove(&job).expect("present above");
        if done {
            let p = rj.progress;
            let status = if p.degraded { RunStatus::Degraded } else { RunStatus::Ok };
            self.emit(TraceEvent::JobCompleted {
                job,
                tenant: p.spec.tenant.clone(),
                node,
                status: status.to_string(),
                time_s: p.time_s,
                energy_j: p.energy_j,
            });
            self.completed.insert(
                job,
                CompletedJob {
                    job,
                    tenant: p.spec.tenant,
                    node,
                    status,
                    time_s: p.time_s,
                    energy_j: p.energy_j,
                },
            );
        } else {
            let progress = self.requeue(job, rj, 0.0);
            self.queue.push_back(job);
            self.queued.insert(job, progress);
        }
        if let Some(down_us) = self.draining.remove(&node) {
            // The drain completes: the node actually leaves service now
            // (its recovery clock starts here, not at the nominal fault
            // time).
            self.take_down(node, down_us);
            self.reallocate("node-drained");
        } else {
            self.free_nodes.insert(node);
            self.reallocate("completed");
        }
        self.schedule();
    }

    /// A scheduled fleet outage strikes `node`. A crash evicts the
    /// victim mid-quantum (its in-flight progress is lost and a retry is
    /// spent); a drain lets the victim finish its quantum first. Either
    /// way the node leaves the pool until its recovery event — if any —
    /// fires.
    fn node_fail(&mut self, node: u64, class: NodeFaultClass, down_us: Option<u64>) {
        // A drain's real outage starts at the victim's quantum end, so
        // it can outlive the plan's nominal window and overlap the next
        // scheduled fault: a node already out just absorbs the hit.
        if self.down_nodes.contains_key(&node) || self.draining.contains_key(&node) {
            return;
        }
        let victim = self.running.iter().find(|(_, rj)| rj.node == node).map(|(&j, _)| j);
        self.emit(TraceEvent::NodeFailed {
            node,
            class: class.label().to_string(),
            permanent: down_us.is_none(),
            victim,
        });

        match (victim, class) {
            (None, _) => {
                // The node was free: it just leaves the pool.
                self.free_nodes.remove(&node);
                self.take_down(node, down_us);
            }
            (Some(_), NodeFaultClass::Drain) => {
                // Graceful: the victim finishes its quantum, then
                // requeues free; the node goes down at that boundary.
                self.draining.insert(node, down_us);
            }
            (Some(job), NodeFaultClass::Crash) => {
                // The in-flight quantum dies with the node (only `progress`
                // outlives `rj`): completed quanta stay banked, this one
                // is re-run elsewhere.
                let rj = self.running.remove(&job).expect("victim is running");
                if let Some(at) = rj.event_at {
                    self.events.remove(&(at, EV_QUANTUM, job));
                }
                self.take_down(node, down_us);
                let attempts = rj.progress.attempts;
                if attempts > self.cfg.max_retries {
                    self.fail_job(
                        job,
                        rj.progress.spec.tenant,
                        format!(
                            "retry budget exhausted: {attempts} placements all lost their node"
                        ),
                        attempts,
                    );
                } else {
                    let backoff_s = arbitration::backoff_s(self.cfg.backoff_base_s, attempts);
                    let progress = self.requeue(job, rj, backoff_s);
                    let release_us = self.now_us + (backoff_s * 1e6).round().max(1.0) as u64;
                    self.events.insert((release_us, EV_RELEASE, job), Ev::Release);
                    self.parked.insert(job, progress);
                }
                self.reallocate("node-failed");
                self.schedule();
            }
        }
    }

    /// `job` lost its node: announce the requeue and hand back what
    /// survives of it — the spec and every completed quantum's progress
    /// — for the caller to queue (drain) or park (crash backoff).
    fn requeue(&mut self, job: u64, rj: RunningJob, backoff_s: f64) -> Progress {
        self.emit(TraceEvent::JobRequeued {
            job,
            tenant: rj.progress.spec.tenant.clone(),
            node: rj.node,
            attempt: rj.progress.attempts,
            backoff_s,
        });
        Progress { requeued: true, ..rj.progress }
    }

    /// A temporary outage ends: the node rejoins the fair-share pool.
    fn node_recover(&mut self, node: u64) {
        let since = self.down_nodes.remove(&node).expect("recovery for a node not down");
        // Seconds-differenced like every duration the replay rebuilds.
        let down_s = (self.now_us as f64 / 1e6 - since as f64 / 1e6).max(0.0);
        self.emit(TraceEvent::NodeRecovered { node, down_s });
        self.free_nodes.insert(node);
        self.schedule();
    }

    /// A crash-requeued job finished its backoff: back into the FIFO.
    fn release(&mut self, job: u64) {
        let progress = self.parked.remove(&job).expect("release for a job not parked");
        self.queue.push_back(job);
        self.queued.insert(job, progress);
        self.schedule();
    }

    /// No event can ever fire again, yet jobs are queued: every node
    /// they could run on is permanently gone. Fail them typed so
    /// `submitted == completed + failed + shed + rejected` still holds.
    fn starve_stranded(&mut self) {
        while let Some(job) = self.queue.pop_front() {
            let p = self.queued.remove(&job).expect("queued job has a spec");
            self.fail_job(
                job,
                p.spec.tenant,
                "no surviving node can host the job".to_string(),
                p.attempts,
            );
        }
    }

    fn fail_job(&mut self, job: u64, tenant: String, reason: String, attempts: u64) {
        self.emit(TraceEvent::JobFailed { job, tenant, reason: reason.clone(), attempts });
        self.failed.insert(job, reason);
    }

    /// `node` leaves service now; its recovery event, if the outage is
    /// temporary, fires `down_us` from now.
    fn take_down(&mut self, node: u64, down_us: Option<u64>) {
        self.down_nodes.insert(node, self.now_us);
        if let Some(d) = down_us {
            self.events.insert((self.now_us + d, EV_RECOVER, node), Ev::Recover);
        }
    }

    /// Drain every event — run all admitted jobs to completion.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Place queued jobs onto free nodes, FIFO (no skipping: a large job
    /// at the head waits rather than being starved by smaller ones
    /// slipping past it). Newly placed jobs trigger one `scheduled`
    /// reallocation and start their first quantum.
    fn schedule(&mut self) {
        let mut placed = std::mem::take(&mut self.placed);
        placed.clear();
        while let Some(&job) = self.queue.front() {
            let requested = self.queued[&job].spec.requested_floor_w();
            let committed: f64 = self.running.values().map(|r| r.floor_w).sum();
            let free =
                self.free_nodes.iter().map(|id| self.fleet.node(*id).expect("free node exists"));
            let Some(node) = arbitration::pick_node(free, committed, requested, self.cfg.budget_w)
            else {
                break;
            };
            self.place(job, node);
            placed.push(job);
        }
        if !placed.is_empty() {
            self.reallocate("scheduled");
            for &job in &placed {
                self.start_quantum(job);
            }
        }
        self.placed = placed;
    }

    /// Bind a job to a node: root its walk through the quantum memo, cap
    /// handle at the floor. The final allocation lands in the `scheduled`
    /// reallocation that follows.
    fn place(&mut self, job: u64, node_id: u64) {
        self.queue.pop_front();
        let mut progress = self.queued.remove(&job).expect("queued job has a spec");
        let spec = &progress.spec;
        let node = self.fleet.node(node_id).expect("placing on a fleet node");
        let floor_w = arbitration::effective_floor(spec.requested_floor_w(), node)
            .expect("pick_node chose a node that can host the job");
        let max_w = node.max_cap_w();
        let handle = CapHandle::new(node.package_cap_w(floor_w));
        // A requeued job resumes at its last completed quantum boundary;
        // a fresh one starts from the workload's full length.
        let banked = progress.requeued.then_some(progress.remaining);
        let (path, remaining) = self.quanta.root(node, spec, banked);

        self.emit(TraceEvent::JobScheduled {
            job,
            tenant: progress.spec.tenant.clone(),
            node: node_id,
            cap_w: floor_w,
        });
        self.free_nodes.remove(&node_id);
        progress.remaining = remaining;
        progress.attempts += 1;
        self.running.insert(
            job,
            RunningJob {
                progress,
                node: node_id,
                floor_w,
                alloc_w: floor_w,
                max_w,
                handle,
                path,
                in_flight: None,
                event_at: None,
            },
        );
    }

    /// Run (or recall) one quantum for `job` now and schedule its
    /// completion event at `now + quantum duration` (virtual time).
    fn start_quantum(&mut self, job: u64) {
        let quantum = self.cfg.quantum_timesteps.max(1);
        let rj = self.running.get_mut(&job).expect("quantum for a running job");
        let steps = rj.progress.remaining.min(quantum);
        let node = self.fleet.node(rj.node).expect("job node exists");
        let q = self.quanta.next(&mut rj.path, node, &rj.handle, steps, self.cfg.resilience);
        let dur_us = (q.time_s * 1e6).round().max(1.0) as u64;
        rj.in_flight = Some(q);
        let at = self.now_us + dur_us;
        rj.event_at = Some(at);
        self.events.insert((at, EV_QUANTUM, job), Ev::Quantum);
    }

    /// Redistribute the global budget across running jobs
    /// ([`arbitration::water_fill`] over their [`arbitration::claims`]).
    /// Emits [`TraceEvent::CapReallocated`] and moves the cap handles of
    /// every job whose allocation changed.
    fn reallocate(&mut self, reason: &str) {
        arbitration::claims(
            &self.tenants,
            self.running.values().map(|rj| {
                (rj.progress.spec.tenant.as_str(), rj.progress.degraded, rj.floor_w, rj.max_w)
            }),
            &mut self.tenant_jobs,
            &mut self.claims,
        );
        arbitration::water_fill(self.cfg.budget_w, &self.claims, &mut self.caps);

        let total_w: f64 = self.caps.iter().sum();
        let mut allocations = Vec::with_capacity(self.caps.len());
        for ((&job, rj), &cap_w) in self.running.iter_mut().zip(&self.caps) {
            allocations.push(JobAllocation { job, node: rj.node, cap_w });
            if (rj.alloc_w - cap_w).abs() > EPS_W {
                rj.alloc_w = cap_w;
                let node = self.fleet.node(rj.node).expect("job node exists");
                rj.handle.set(node.package_cap_w(cap_w));
            }
        }
        self.emit(TraceEvent::CapReallocated {
            reason: reason.to_string(),
            budget_w: self.cfg.budget_w,
            total_w,
            allocations,
        });
    }

    /// One dashboard frame of the broker's current state: the fold's
    /// read-out, plus the two things only the live broker knows — its
    /// clock (a step that emits nothing still advances it) and which
    /// *running* jobs are degraded right now.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut snap = self.fold.snapshot();
        snap.now_s = self.now_s();
        for rj in self.running.values().filter(|rj| rj.progress.degraded) {
            snap.degraded += 1;
            if let Some(t) = snap.tenants.get_mut(&rj.progress.spec.tenant) {
                t.degraded += 1;
            }
        }
        snap
    }

    /// Subscribe to telemetry frames: one immediately, then one every
    /// `every` quantum events (clamped to ≥ 1). The subscription dies
    /// silently when the receiver hangs up.
    pub fn watch(&mut self, every: u64, tx: Sender<TelemetrySnapshot>) {
        let every = every.max(1);
        if tx.send(self.telemetry()).is_ok() {
            self.watchers.push(Watcher { tx, every, seen: 0 });
        }
    }

    fn notify_watchers(&mut self) {
        if self.watchers.is_empty() {
            return;
        }
        let mut due = false;
        for w in &mut self.watchers {
            w.seen += 1;
            if w.seen % w.every == 0 {
                due = true;
            }
        }
        if !due {
            return;
        }
        let snap = self.telemetry();
        self.watchers.retain(|w| w.seen % w.every != 0 || w.tx.send(snap.clone()).is_ok());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalError;
    use crate::quantum::{MemoCounters, QuantumMemo};
    use arcs_powersim::Machine;
    use arcs_trace::{TraceRecord, VecSink};
    use std::path::Path;

    fn small_broker(budget_w: f64, nodes: usize, sink: Arc<VecSink>) -> Broker {
        let fleet = Fleet::homogeneous(Machine::crill(), nodes);
        let mut cfg = BrokerConfig::new(budget_w);
        cfg.quantum_timesteps = 2;
        Broker::new(fleet, cfg, sink)
    }

    fn spec(tenant: &str) -> JobSpec {
        JobSpec::new(tenant, "sp.S").timesteps(4)
    }

    fn conservation_holds(records: &[TraceRecord]) {
        let mut seen = 0;
        for r in records {
            if let TraceEvent::CapReallocated { budget_w, total_w, allocations, .. } = &r.event {
                let sum: f64 = allocations.iter().map(|a| a.cap_w).sum();
                assert!((sum - total_w).abs() < 1e-6, "total_w must equal Σ allocations");
                assert!(*total_w <= budget_w + 1e-6, "Σ {total_w} over budget {budget_w}");
                seen += 1;
            }
        }
        assert!(seen > 0, "the trace must carry reallocation points");
    }

    #[test]
    fn jobs_complete_and_the_budget_is_conserved() {
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(400.0, 2, Arc::clone(&sink));
        let a = broker.submit(spec("acme"));
        let b = broker.submit(spec("acme"));
        let c = broker.submit(spec("umbrella"));
        assert!(matches!(a, SubmitOutcome::Admitted(0)));
        assert!(matches!(b, SubmitOutcome::Admitted(1)));
        // Two nodes: the third job queues until one finishes.
        assert_eq!(broker.job_state(c.job()), Some(JobState::Queued));

        broker.run_until_idle();
        assert!(broker.is_idle());
        let counters = broker.counters();
        assert_eq!(counters.completed, 3);
        assert_eq!(counters.rejected, 0);
        assert_eq!(counters.queued, 0);
        for job in [0, 1, 2] {
            assert_eq!(broker.job_state(job), Some(JobState::Completed));
            let done = &broker.completed_jobs()[&job];
            assert_eq!(done.status, RunStatus::Ok);
            assert!(done.time_s > 0.0 && done.energy_j > 0.0);
        }
        conservation_holds(&sink.drain());
    }

    #[test]
    fn inadmissible_jobs_are_rejected_with_a_reason() {
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(400.0, 2, Arc::clone(&sink));
        // Crill nodes top out at 230 W: a 500 W floor fits no node.
        let over_node = broker.submit(spec("acme").floor_w(500.0));
        let SubmitOutcome::Rejected { reason, .. } = &over_node else {
            panic!("500 W floor must be rejected")
        };
        assert!(reason.contains("every node"), "{reason}");

        // 200 W fits a node but exceeds a 150 W budget.
        let mut tight = small_broker(150.0, 2, Arc::new(VecSink::new()));
        let over_budget = tight.submit(spec("acme").floor_w(200.0));
        let SubmitOutcome::Rejected { reason, .. } = &over_budget else {
            panic!("a floor above the budget must be rejected")
        };
        assert!(reason.contains("global budget"), "{reason}");

        let unknown = broker.submit(JobSpec::new("acme", "nope.S"));
        assert!(matches!(unknown, SubmitOutcome::Rejected { .. }));

        // Rejections are queryable and traced; admitted work is unharmed.
        assert_eq!(broker.job_state(over_node.job()), Some(JobState::Rejected));
        assert!(broker.rejection_reason(over_node.job()).is_some());
        let ok = broker.submit(spec("acme"));
        broker.run_until_idle();
        assert_eq!(broker.job_state(ok.job()), Some(JobState::Completed));
        let records = sink.drain();
        let rejections =
            records.iter().filter(|r| matches!(r.event, TraceEvent::JobRejected { .. })).count();
        assert_eq!(rejections, 2);
    }

    #[test]
    fn tenant_weights_shape_the_surplus_split() {
        let sink = Arc::new(VecSink::new());
        // Budget 300 over two crill nodes: floors 57.5 + 57.5, surplus
        // 185 split 2:1 → heavy ≈ 180.8, light ≈ 119.2 (both < 230 max).
        let mut broker = small_broker(300.0, 2, Arc::clone(&sink));
        broker.submit(spec("heavy").weight(2.0));
        broker.submit(spec("light").weight(1.0));
        let records_mid: Vec<_> = sink.drain();
        let last_realloc = records_mid
            .iter()
            .rev()
            .find_map(|r| match &r.event {
                TraceEvent::CapReallocated { allocations, .. } => Some(allocations.clone()),
                _ => None,
            })
            .expect("scheduling reallocates");
        assert_eq!(last_realloc.len(), 2);
        let heavy = last_realloc.iter().find(|a| a.job == 0).unwrap().cap_w;
        let light = last_realloc.iter().find(|a| a.job == 1).unwrap().cap_w;
        let heavy_extra = heavy - 57.5;
        let light_extra = light - 57.5;
        assert!(
            (heavy_extra / light_extra - 2.0).abs() < 0.02,
            "surplus must split ≈2:1, got {heavy_extra}:{light_extra}"
        );
        assert!(heavy + light <= 300.0 + 1e-6);
        broker.run_until_idle();
    }

    #[test]
    fn non_finite_floors_and_weights_never_reach_an_event() {
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(300.0, 2, Arc::clone(&sink));
        broker.submit(spec("inf").weight(f64::INFINITY));
        broker.submit(spec("nan").weight(f64::NAN).floor_w(f64::INFINITY));
        broker.submit(spec("plain").floor_w(f64::NAN));
        broker.run_until_idle();
        assert_eq!(broker.counters().completed, 3);
        let records = sink.drain();
        for r in &records {
            if let TraceEvent::CapReallocated { allocations, .. } = &r.event {
                assert!(allocations.iter().all(|a| a.cap_w.is_finite()), "{allocations:?}");
            }
        }
        conservation_holds(&records);
        arcs_trace::to_jsonl(&records).expect("every record encodes");
    }

    #[test]
    fn degraded_jobs_are_pinned_to_their_floor() {
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(460.0, 2, Arc::clone(&sink));
        // Job 0 runs under a flaky meter with a zero error budget: the
        // first absorbed hard fault degrades it.
        let mut res = ResilienceOptions::standard();
        res.max_read_retries = 0;
        res.error_budget = Some(0);
        broker.cfg.resilience = Some(res);
        broker.submit(spec("faulty").fault_seed(7).timesteps(8));
        broker.submit(spec("clean").timesteps(8));
        broker.run_until_idle();

        let done = broker.completed_jobs();
        assert_eq!(done[&0].status, RunStatus::Degraded);
        assert_eq!(done[&1].status, RunStatus::Ok);

        let records = sink.drain();
        let degraded_realloc = records
            .iter()
            .find_map(|r| match &r.event {
                TraceEvent::CapReallocated { reason, allocations, .. } if reason == "degraded" => {
                    Some(allocations.clone())
                }
                _ => None,
            })
            .expect("degradation must trigger a reallocation");
        let pinned = degraded_realloc.iter().find(|a| a.job == 0).unwrap();
        assert!(
            (pinned.cap_w - 57.5).abs() < 1e-9,
            "degraded job must hold exactly its floor, got {}",
            pinned.cap_w
        );
        // The clean job inherits the freed surplus, up to its node max.
        let clean = degraded_realloc.iter().find(|a| a.job == 1).unwrap();
        assert!((clean.cap_w - 230.0).abs() < 1e-9, "got {}", clean.cap_w);
        conservation_holds(&records);
    }

    #[test]
    fn same_submissions_produce_byte_identical_traces() {
        let run = || {
            let sink = Arc::new(VecSink::new());
            let mut broker = small_broker(350.0, 2, Arc::clone(&sink));
            broker.submit(spec("acme").fault_seed(3));
            broker.submit(spec("umbrella"));
            broker.submit(spec("acme"));
            broker.submit(spec("umbrella").floor_w(9000.0)); // rejected
            broker.run_until_idle();
            sink.drain()
                .iter()
                .map(|r| serde_json::to_string(r).unwrap())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let first = run();
        assert_eq!(first, run(), "broker runs must be deterministic");
        assert!(first.contains("JobRejected"));
        assert!(first.contains("JobCompleted"));
    }

    /// The conservation identity every run must close with:
    /// `submitted == completed + failed + shed + rejected` at idle.
    fn zero_lost(broker: &Broker) {
        let c = broker.counters();
        assert!(broker.is_idle(), "identity only holds at idle");
        assert_eq!(c.submitted, c.completed + c.failed + c.shed + c.rejected, "jobs lost: {c:?}");
    }

    /// How long one `spec("t")` job takes alone on a crill node — used
    /// to time fault injection relative to real quantum durations.
    fn probe_runtime_s(timesteps: usize) -> f64 {
        let mut broker = small_broker(230.0, 1, Arc::new(VecSink::new()));
        broker.submit(spec("probe").timesteps(timesteps));
        broker.run_until_idle();
        broker.completed_jobs()[&0].time_s
    }

    #[test]
    fn a_crash_requeues_the_victim_and_it_still_completes() {
        let total = probe_runtime_s(8);
        let run = |sink: Arc<VecSink>| {
            let fleet = Fleet::homogeneous(Machine::crill(), 1);
            let mut cfg = BrokerConfig::new(230.0);
            cfg.quantum_timesteps = 2;
            // One crash ≈ 30% into the job, healed well before the end.
            cfg.node_faults = Some(NodeFaultPlan {
                seed: 11,
                start_s: total * 0.3,
                mtbf_s: 1e-3,
                mttr_s: total * 0.1,
                max_faults_per_node: 1,
                ..NodeFaultPlan::default()
            });
            let mut broker = Broker::new(fleet, cfg, sink);
            broker.submit(spec("acme").timesteps(8));
            broker.run_until_idle();
            broker
        };
        let sink = Arc::new(VecSink::new());
        let broker = run(sink.clone());
        zero_lost(&broker);
        let c = broker.counters();
        assert_eq!(c.completed, 1, "the victim must finish after requeue: {c:?}");
        assert!(c.requeued >= 1, "the crash must have requeued the victim");
        let records = sink.drain();
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        assert!(kinds.contains(&"NodeFailed"));
        assert!(kinds.contains(&"NodeRecovered"));
        assert!(kinds.contains(&"JobRequeued"));
        let crash_pos = kinds.iter().position(|k| *k == "NodeFailed").unwrap();
        let done_pos = kinds.iter().rposition(|k| *k == "JobCompleted").unwrap();
        assert!(crash_pos < done_pos, "completion happens after the crash");
        conservation_holds(&records);

        // And the whole faulted run is deterministic, byte for byte.
        let to_text = |records: &[TraceRecord]| {
            records.iter().map(|r| serde_json::to_string(r).unwrap()).collect::<Vec<_>>().join("\n")
        };
        let again = Arc::new(VecSink::new());
        run(again.clone());
        assert_eq!(to_text(&records), to_text(&again.drain()));
    }

    #[test]
    fn retry_budget_exhaustion_fails_typed() {
        let total = probe_runtime_s(8);
        let sink = Arc::new(VecSink::new());
        let fleet = Fleet::homogeneous(Machine::crill(), 1);
        let mut cfg = BrokerConfig::new(230.0);
        cfg.quantum_timesteps = 2;
        cfg.max_retries = 0; // the first crash is fatal
        cfg.node_faults = Some(NodeFaultPlan {
            seed: 5,
            start_s: total * 0.3,
            mtbf_s: 1e-3,
            mttr_s: total * 0.1,
            max_faults_per_node: 1,
            ..NodeFaultPlan::default()
        });
        let mut broker = Broker::new(fleet, cfg, sink.clone());
        broker.submit(spec("acme").timesteps(8));
        broker.run_until_idle();
        zero_lost(&broker);
        let c = broker.counters();
        assert_eq!((c.completed, c.failed), (0, 1), "{c:?}");
        assert_eq!(broker.job_state(0), Some(JobState::Failed));
        assert!(broker.rejection_reason(0).unwrap().contains("retry budget"));
        let records = sink.drain();
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, TraceEvent::JobFailed { job: 0, attempts: 1, .. })));
    }

    #[test]
    fn stranded_jobs_fail_typed_when_no_node_survives() {
        let sink = Arc::new(VecSink::new());
        let fleet = Fleet::homogeneous(Machine::crill(), 1);
        let mut cfg = BrokerConfig::new(230.0);
        cfg.quantum_timesteps = 2;
        // The only node dies permanently before any work is submitted.
        cfg.node_faults = Some(NodeFaultPlan {
            seed: 3,
            start_s: 0.0,
            mtbf_s: 1e-3,
            permanent_rate: 1.0,
            max_faults_per_node: 1,
            ..NodeFaultPlan::default()
        });
        let mut broker = Broker::new(fleet, cfg, sink.clone());
        broker.step(); // the permanent outage fires
        broker.submit(spec("acme"));
        broker.submit(spec("umbrella"));
        broker.run_until_idle();
        zero_lost(&broker);
        let c = broker.counters();
        assert_eq!(c.failed, 2, "{c:?}");
        for job in [0, 1] {
            assert_eq!(broker.job_state(job), Some(JobState::Failed));
            assert!(broker.rejection_reason(job).unwrap().contains("no surviving node"));
        }
        let records = sink.drain();
        assert!(records
            .iter()
            .any(|r| matches!(&r.event, TraceEvent::NodeFailed { permanent: true, .. })));
    }

    #[test]
    fn a_full_queue_sheds_with_a_backpressure_hint() {
        let sink = Arc::new(VecSink::new());
        let fleet = Fleet::homogeneous(Machine::crill(), 1);
        let mut cfg = BrokerConfig::new(230.0);
        cfg.quantum_timesteps = 2;
        cfg.max_queue = Some(1);
        let mut broker = Broker::new(fleet, cfg, sink.clone());
        broker.submit(spec("acme")); // runs
        broker.submit(spec("acme")); // queues (depth 1 = max)
        let third = broker.submit(spec("late"));
        let SubmitOutcome::Shed { job, reason, retry_after_s, queue_depth } = third else {
            panic!("the third job must be shed, got {third:?}")
        };
        assert_eq!(job, 2);
        assert_eq!(queue_depth, 1);
        assert!(reason.contains("queue full"), "{reason}");
        assert!(retry_after_s > 0.0, "the hint must be actionable");
        assert_eq!(broker.job_state(2), Some(JobState::Shed));
        broker.run_until_idle();
        zero_lost(&broker);
        let c = broker.counters();
        assert_eq!((c.completed, c.shed), (2, 1), "{c:?}");
        let records = sink.drain();
        assert!(records.iter().any(|r| matches!(r.event, TraceEvent::JobShed { job: 2, .. })));
        // Shed jobs still count as submitted in the trace.
        let submitted =
            records.iter().filter(|r| matches!(r.event, TraceEvent::JobSubmitted { .. })).count();
        assert_eq!(submitted, 3);
    }

    /// A journal whose disk died must not take the broker with it — and
    /// must not die quietly either: the registry counts every append the
    /// disk refused. `/dev/full` accepts the open and fails every flush.
    #[test]
    #[cfg(target_os = "linux")]
    fn a_dying_journal_is_counted_and_the_broker_keeps_serving() {
        let fleet = Fleet::homogeneous(Machine::crill(), 2);
        let mut broker = Broker::new(fleet, BrokerConfig::new(400.0), Arc::new(VecSink::new()));
        broker.attach_journal(BrokerJournal::create(Path::new("/dev/full")).unwrap());
        assert!(matches!(broker.submit(spec("acme")), SubmitOutcome::Admitted(_)));
        let write_errors = || broker.registry().snapshot().counter("arcs/journal/write_errors");
        assert!(write_errors() > 0, "the refused appends must reach the registry");
        let err = broker.journal_error().expect("the first flush already failed");
        assert!(err.contains("No space left"), "{err}");
        broker.run_until_idle();
        assert_eq!(broker.counters().completed, 1, "the job still ran");
    }

    #[test]
    fn journal_replay_reconstructs_the_exact_broker() {
        let dir = std::env::temp_dir().join(format!("arcs-serve-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal_path = dir.join("broker.journal.jsonl");

        // Drive a faulted broker through an explicit op sequence,
        // journaling every op.
        let ops = |broker: &mut Broker| {
            broker.submit(spec("acme").timesteps(8));
            broker.submit(spec("umbrella"));
            for _ in 0..3 {
                broker.step();
            }
            broker.submit(spec("acme").fault_seed(9));
            while broker.step() {}
        };
        let sink = Arc::new(VecSink::new());
        let fleet = Fleet::homogeneous(Machine::crill(), 2);
        let mut cfg = BrokerConfig::new(400.0);
        cfg.quantum_timesteps = 2;
        cfg.node_faults = Some(NodeFaultPlan::node_flap(7));
        let mut original = Broker::new(fleet, cfg, sink.clone());
        original.attach_journal(BrokerJournal::create(&journal_path).unwrap());
        ops(&mut original);
        assert!(original.journal_error().is_none());

        // Recover from the journal alone: same counters, and the
        // replayed trace is record-for-record identical.
        let rec_sink = Arc::new(VecSink::new());
        let recovered = Broker::recover(&journal_path, rec_sink.clone(), None).unwrap();
        assert_eq!(recovered.counters(), original.counters());
        assert_eq!(recovered.now_s(), original.now_s());
        let to_text = |records: &[TraceRecord]| {
            records.iter().map(|r| serde_json::to_string(r).unwrap()).collect::<Vec<_>>().join("\n")
        };
        assert_eq!(to_text(&sink.drain()), to_text(&rec_sink.drain()));
        assert_eq!(
            recovered.completed_jobs().keys().collect::<Vec<_>>(),
            original.completed_jobs().keys().collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_rejects_garbage_journals() {
        let dir =
            std::env::temp_dir().join(format!("arcs-serve-badjournal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.jsonl");
        assert!(matches!(
            Broker::recover(&missing, Arc::new(VecSink::new()), None),
            Err(JournalError::Open(_))
        ));
        // A journal that does not start with a header is refused.
        let headerless = dir.join("headerless.jsonl");
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(230.0, 1, Arc::clone(&sink));
        broker.submit(spec("acme"));
        broker.run_until_idle();
        let text = sink
            .drain()
            .iter()
            .map(|r| serde_json::to_string(r).unwrap() + "\n")
            .collect::<String>();
        std::fs::write(&headerless, text).unwrap();
        assert!(matches!(
            Broker::recover(&headerless, Arc::new(VecSink::new()), None),
            Err(JournalError::Header(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reallocations_reach_running_jobs_through_their_cap_handles() {
        // One node, budget exactly the node max: a solo job gets the
        // full 230 W; when a second job arrives nothing can be taken
        // (the other node is busy)... so use two nodes and watch the
        // first job's allocation shrink when the second schedules.
        let sink = Arc::new(VecSink::new());
        let mut broker = small_broker(300.0, 2, Arc::clone(&sink));
        broker.submit(spec("acme").timesteps(8));
        let solo_alloc = broker.running[&0].alloc_w;
        assert!((solo_alloc - 230.0).abs() < 1e-9, "solo job takes its node max, got {solo_alloc}");
        let solo_cap = broker.running[&0].handle.get();
        assert!((solo_cap - 115.0).abs() < 1e-9, "package cap is node watts / sockets");

        broker.submit(spec("umbrella").timesteps(8));
        let squeezed = broker.running[&0].alloc_w;
        assert!(squeezed < solo_alloc, "arrival must squeeze the incumbent");
        let squeezed_cap = broker.running[&0].handle.get();
        assert!((squeezed_cap - squeezed / 2.0).abs() < 1e-9);
        broker.run_until_idle();
        conservation_holds(&sink.drain());
    }

    /// Admission asks the quantum memo whether a workload resolves, and
    /// answers what it answered when it parsed the spec afresh on every
    /// submission; a broker parses each distinct workload once, and an
    /// unknown spec every time (it is never kept).
    #[test]
    fn admission_resolves_through_the_memo_as_it_did_by_parsing() {
        let specs = [
            "sp.S",
            "cg.S",
            "mg.W",
            "lulesh.B",
            "lulesh.45",
            "nope.S",
            "sp.Q",
            "sp",
            ".S",
            "sp.S.x",
            "",
            "SP.S",
            "sp.S",
            "cg.S",
            "lulesh.45",
            "sp.S.x",
        ];
        let fleet = Fleet::homogeneous(Machine::crill(), 2);
        let mut memo = QuantumMemo::new();
        for workload in specs {
            for floor_w in [None, Some(90.0), Some(500.0)] {
                let spec = JobSpec { floor_w, ..JobSpec::new("acme", workload) };
                let parsed = arcs_kernels::model::by_spec(workload).is_some();
                let resolved = memo.resolve(workload).is_some();
                assert_eq!(resolved, parsed, "{workload:?}");
                assert_eq!(
                    arbitration::admit(&spec, resolved, &fleet, 400.0),
                    arbitration::admit(&spec, parsed, &fleet, 400.0),
                    "{workload:?} at {floor_w:?}"
                );
            }
        }

        let mut broker = small_broker(400.0, 2, Arc::new(VecSink::new()));
        let mut unknown = 0;
        for workload in specs {
            let resolves = arcs_kernels::model::by_spec(workload).is_some();
            unknown += u64::from(!resolves);
            let outcome = broker.submit(JobSpec::new("acme", workload).timesteps(4));
            assert_eq!(matches!(outcome, SubmitOutcome::Admitted(_)), resolves, "{workload:?}");
        }
        broker.run_until_idle();
        let distinct = ["sp.S", "cg.S", "mg.W", "lulesh.B"].len() as u64;
        assert_eq!(broker.quanta.counters.parsed, distinct + unknown);
    }

    /// The stream behind `every_memo_path_fires_and_the_trace_keeps_its_bytes`,
    /// one phase per memo path: a job crashed mid-run resumes from its
    /// banked boundary (a new root); a repeat is recalled from its first
    /// quantum; a repeat squeezed mid-job by a new arrival is recalled,
    /// then misses and rebuilds by replay. Flaky-RAPL jobs then take the
    /// last two steps under their fault plan. Returns the broker and the
    /// memo's counters after the unfaulted half.
    fn memo_stream(sink: Arc<VecSink>) -> (Broker, MemoCounters) {
        let total = probe_runtime_s(6);
        let fleet = Fleet::homogeneous(Machine::crill(), 2);
        let mut cfg = BrokerConfig::new(400.0);
        cfg.quantum_timesteps = 2;
        cfg.node_faults = Some(NodeFaultPlan {
            seed: 11,
            start_s: total * 0.5,
            mtbf_s: 1e-3,
            mttr_s: total * 0.1,
            max_faults_per_node: 1,
            ..NodeFaultPlan::default()
        });
        let mut broker = Broker::new(fleet, cfg, sink);
        let mut unfaulted = MemoCounters::default();
        for faulted in [None, Some(3)] {
            let job = || JobSpec { fault_seed: faulted, ..spec("acme").timesteps(6) };
            for squeeze in [false, false, true] {
                broker.submit(job());
                if squeeze {
                    broker.submit(spec("umbrella"));
                }
                broker.run_until_idle();
            }
            if faulted.is_none() {
                unfaulted = broker.quanta.counters;
            }
        }
        (broker, unfaulted)
    }

    /// Every path through the quantum memo fires, and the broker's trace
    /// is byte for byte what it was before the memo, when every quantum
    /// was simulated (hash generated at c55158e).
    #[test]
    fn every_memo_path_fires_and_the_trace_keeps_its_bytes() {
        let sink = Arc::new(VecSink::new());
        let (broker, unfaulted) = memo_stream(Arc::clone(&sink));
        let all = broker.quanta.counters;
        assert_eq!(broker.counters().requeued, 1, "the crash must requeue a job");
        assert!(unfaulted.resumed > 0, "a requeued job roots its banked boundary");
        for (half, recalled_first, replayed) in [
            ("unfaulted", unfaulted.recalled_first, unfaulted.replayed),
            (
                "flaky-rapl",
                all.recalled_first - unfaulted.recalled_first,
                all.replayed - unfaulted.replayed,
            ),
        ] {
            assert!(recalled_first > 0, "{half}: no first quantum recalled");
            assert!(replayed > 0, "{half}: no recall followed by a rebuilding miss");
        }
        let text = arcs_trace::to_jsonl(&sink.drain()).unwrap();
        let fnv1a = text
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
        assert_eq!(fnv1a, 0x0941_712b_2970_017e, "the broker trace moved:\n{text}");
    }
}
