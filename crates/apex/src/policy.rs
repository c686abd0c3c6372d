//! The policy engine: APEX's distinguishing component.
//!
//! Policies are rules encoded as callbacks, either *event-triggered* (fired
//! synchronously when a timer starts or stops) or *periodic* (fired every
//! N events). A policy inspects the event — task identity, duration,
//! running profile — and reacts by whatever means it captured (the ARCS
//! policy captures the runtime handle and tuning sessions and mutates the
//! OpenMP knobs).

use crate::profile::Profile;
use crate::TaskId;
use arcs_trace::{TraceEvent, TraceSink};
use std::collections::HashMap;
use std::sync::Arc;

/// What fired a policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyEventKind {
    /// A timer started (region fork).
    TimerStart,
    /// A timer stopped; `duration_s` is the sample just recorded.
    TimerStop { duration_s: f64 },
    /// Periodic trigger; carries the engine's event counter.
    Periodic { events: u64 },
}

/// The observed state handed to a policy callback.
#[derive(Debug, Clone)]
pub struct PolicyEvent {
    pub kind: PolicyEventKind,
    /// The task involved (meaningless for `Periodic`).
    pub task: TaskId,
    pub task_name: String,
    /// Snapshot of the task's profile *after* recording the sample, if any.
    pub profile: Option<Profile>,
}

/// When a registered policy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyTrigger {
    OnTimerStart,
    OnTimerStop,
    /// Every `n` timer events (starts + stops).
    Periodic(u64),
}

/// Boxed policy callback.
pub(crate) type PolicyFn = Box<dyn FnMut(&PolicyEvent) + Send>;

pub(crate) struct PolicyEntry {
    pub trigger: PolicyTrigger,
    pub callback: PolicyFn,
    pub name: String,
}

/// Dispatches events to registered policies in registration order.
#[derive(Default)]
pub struct PolicyEngine {
    policies: Vec<PolicyEntry>,
    events: u64,
    trace: Option<Arc<dyn TraceSink>>,
}

impl PolicyEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit a [`TraceEvent::PolicyFired`] per policy callback invocation.
    pub fn set_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Register a policy; returns its index.
    pub fn register<F>(
        &mut self,
        name: impl Into<String>,
        trigger: PolicyTrigger,
        callback: F,
    ) -> usize
    where
        F: FnMut(&PolicyEvent) + Send + 'static,
    {
        self.policies.push(PolicyEntry {
            trigger,
            callback: Box::new(callback),
            name: name.into(),
        });
        self.policies.len() - 1
    }

    pub fn policy_count(&self) -> usize {
        self.policies.len()
    }

    pub fn policy_names(&self) -> Vec<&str> {
        self.policies.iter().map(|p| p.name.as_str()).collect()
    }

    /// Total events dispatched so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    pub(crate) fn dispatch(&mut self, event: &PolicyEvent) {
        self.events += 1;
        let events = self.events;
        for p in &mut self.policies {
            let fire = match (p.trigger, &event.kind) {
                (PolicyTrigger::OnTimerStart, PolicyEventKind::TimerStart) => true,
                (PolicyTrigger::OnTimerStop, PolicyEventKind::TimerStop { .. }) => true,
                (PolicyTrigger::Periodic(n), _) => n > 0 && events.is_multiple_of(n),
                _ => false,
            };
            if fire {
                let ev = if let PolicyTrigger::Periodic(_) = p.trigger {
                    PolicyEvent { kind: PolicyEventKind::Periodic { events }, ..event.clone() }
                } else {
                    event.clone()
                };
                (p.callback)(&ev);
                if let Some(sink) = &self.trace {
                    if sink.enabled() {
                        sink.record(
                            None,
                            TraceEvent::PolicyFired {
                                policy: p.name.clone(),
                                task: ev.task_name.clone(),
                            },
                        );
                    }
                }
            }
        }
    }
}

/// What the [`AdaptiveLadder`] decided after one observation: escalate
/// the task from arm `from` to arm `to`. `invocation` is the 1-based
/// observation count for the task at decision time and `imbalance` the
/// smoothed value that tripped the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArmSwitch {
    pub from: usize,
    pub to: usize,
    pub invocation: u64,
    pub imbalance: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct LadderTask {
    ewma: Option<f64>,
    /// Consecutive observations with the EWMA above threshold.
    over: u32,
    arm: usize,
    invocations: u64,
}

/// The deterministic imbalance watcher behind intra-run adaptive
/// scheduling.
///
/// Per task, an EWMA of an imbalance signal in `[0, 1]`
/// (`barrier / (busy + barrier)` in the ARCS driver) is compared against
/// a threshold; once it stays above for `patience` consecutive
/// observations, the task escalates one arm up a caller-defined ladder —
/// arm 0 is the configured policy, higher arms progressively more
/// load-balancing families. The ladder never descends (a policy that
/// cured the imbalance keeps its arm) and knows nothing about schedules:
/// it deals in arm *indices*, so the same rule drives any portfolio.
/// Every decision is a pure function of the observation sequence, which
/// keeps adaptive runs byte-reproducible trace-for-trace.
#[derive(Debug, Clone)]
pub struct AdaptiveLadder {
    arms: usize,
    threshold: f64,
    patience: u32,
    alpha: f64,
    tasks: HashMap<String, LadderTask>,
}

impl AdaptiveLadder {
    /// A ladder of `arms` rungs with the default rule: threshold 0.15
    /// (≥ 15 % of thread time waiting at the barrier), patience 3,
    /// smoothing α = 0.5.
    pub fn new(arms: usize) -> Self {
        AdaptiveLadder { arms, threshold: 0.15, patience: 3, alpha: 0.5, tasks: HashMap::new() }
    }

    /// EWMA level above which an observation counts against patience.
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Consecutive over-threshold observations required to escalate.
    pub fn with_patience(mut self, patience: u32) -> Self {
        self.patience = patience.max(1);
        self
    }

    /// Current arm for `task` (0 before any observation).
    pub fn arm(&self, task: &str) -> usize {
        self.tasks.get(task).map_or(0, |t| t.arm)
    }

    /// Observations recorded for `task` so far.
    pub fn invocations(&self, task: &str) -> u64 {
        self.tasks.get(task).map_or(0, |t| t.invocations)
    }

    /// Feed one invocation's imbalance; returns the escalation decision
    /// if the rule fired.
    pub fn observe(&mut self, task: &str, imbalance: f64) -> Option<ArmSwitch> {
        let (threshold, patience, alpha, arms) =
            (self.threshold, self.patience, self.alpha, self.arms);
        // The name is allocated once, on the task's first observation.
        let st = match self.tasks.get_mut(task) {
            Some(st) => st,
            None => self.tasks.entry(task.to_owned()).or_default(),
        };
        st.invocations += 1;
        let ewma = match st.ewma {
            None => imbalance,
            Some(prev) => alpha * imbalance + (1.0 - alpha) * prev,
        };
        st.ewma = Some(ewma);
        if ewma > threshold {
            st.over += 1;
        } else {
            st.over = 0;
        }
        if st.over >= patience && st.arm + 1 < arms {
            let from = st.arm;
            st.arm += 1;
            // The new policy gets a clean slate: the EWMA restarts so
            // residual imbalance measured under the old policy cannot
            // trip an immediate second escalation.
            st.over = 0;
            st.ewma = None;
            return Some(ArmSwitch {
                from,
                to: st.arm,
                invocation: st.invocations,
                imbalance: ewma,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn event(kind: PolicyEventKind) -> PolicyEvent {
        PolicyEvent { kind, task: TaskId(0), task_name: "t".into(), profile: None }
    }

    #[test]
    fn triggers_match_event_kinds() {
        let mut engine = PolicyEngine::new();
        let starts = Arc::new(AtomicUsize::new(0));
        let stops = Arc::new(AtomicUsize::new(0));
        {
            let s = starts.clone();
            engine.register("starts", PolicyTrigger::OnTimerStart, move |_| {
                s.fetch_add(1, Ordering::Relaxed);
            });
        }
        {
            let s = stops.clone();
            engine.register("stops", PolicyTrigger::OnTimerStop, move |_| {
                s.fetch_add(1, Ordering::Relaxed);
            });
        }
        engine.dispatch(&event(PolicyEventKind::TimerStart));
        engine.dispatch(&event(PolicyEventKind::TimerStop { duration_s: 0.1 }));
        engine.dispatch(&event(PolicyEventKind::TimerStart));
        assert_eq!(starts.load(Ordering::Relaxed), 2);
        assert_eq!(stops.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn periodic_fires_every_n_events() {
        let mut engine = PolicyEngine::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = hits.clone();
        engine.register("periodic", PolicyTrigger::Periodic(3), move |ev| {
            assert!(matches!(ev.kind, PolicyEventKind::Periodic { .. }));
            h.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..10 {
            engine.dispatch(&event(PolicyEventKind::TimerStart));
        }
        assert_eq!(hits.load(Ordering::Relaxed), 3); // events 3, 6, 9
    }

    #[test]
    fn policies_observe_durations() {
        let mut engine = PolicyEngine::new();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let s = seen.clone();
        engine.register("obs", PolicyTrigger::OnTimerStop, move |ev| {
            if let PolicyEventKind::TimerStop { duration_s } = ev.kind {
                s.lock().push(duration_s);
            }
        });
        engine.dispatch(&event(PolicyEventKind::TimerStop { duration_s: 1.5 }));
        engine.dispatch(&event(PolicyEventKind::TimerStop { duration_s: 2.5 }));
        assert_eq!(*seen.lock(), vec![1.5, 2.5]);
    }

    #[test]
    fn firing_policies_emit_trace_records() {
        use arcs_trace::VecSink;

        let mut engine = PolicyEngine::new();
        engine.register("on-stop", PolicyTrigger::OnTimerStop, |_| {});
        engine.register("never", PolicyTrigger::OnTimerStart, |_| {});
        let sink = Arc::new(VecSink::new());
        engine.set_trace(sink.clone());

        engine.dispatch(&event(PolicyEventKind::TimerStop { duration_s: 0.1 }));
        engine.dispatch(&event(PolicyEventKind::TimerStop { duration_s: 0.2 }));

        let records = sink.drain();
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(
                r.event,
                TraceEvent::PolicyFired { policy: "on-stop".into(), task: "t".into() }
            );
        }
    }

    #[test]
    fn registration_metadata() {
        let mut engine = PolicyEngine::new();
        engine.register("a", PolicyTrigger::OnTimerStart, |_| {});
        engine.register("b", PolicyTrigger::Periodic(5), |_| {});
        assert_eq!(engine.policy_count(), 2);
        assert_eq!(engine.policy_names(), vec!["a", "b"]);
    }

    #[test]
    fn ladder_escalates_after_patience() {
        let mut ladder = AdaptiveLadder::new(3).with_threshold(0.2).with_patience(2);
        assert_eq!(ladder.arm("r"), 0);
        assert!(ladder.observe("r", 0.5).is_none(), "patience not yet exhausted");
        let sw = ladder.observe("r", 0.5).expect("second over-threshold observation escalates");
        assert_eq!((sw.from, sw.to, sw.invocation), (0, 1, 2));
        assert!(sw.imbalance > 0.2);
        assert_eq!(ladder.arm("r"), 1);
        // The EWMA restarted: one more high sample is not enough again.
        assert!(ladder.observe("r", 0.9).is_none());
        let sw = ladder.observe("r", 0.9).unwrap();
        assert_eq!((sw.from, sw.to), (1, 2));
        // Top arm reached — no further escalation no matter the signal.
        for _ in 0..10 {
            assert!(ladder.observe("r", 1.0).is_none());
        }
        assert_eq!(ladder.arm("r"), 2);
        assert_eq!(ladder.invocations("r"), 14);
    }

    #[test]
    fn balanced_observations_reset_patience() {
        let mut ladder = AdaptiveLadder::new(2).with_threshold(0.3).with_patience(2);
        // Alternating over/under never accumulates two consecutive
        // over-threshold EWMAs (α = 0.5 pulls the average back down).
        for _ in 0..8 {
            assert!(ladder.observe("r", 0.6).is_none());
            assert!(ladder.observe("r", 0.0).is_none());
        }
        assert_eq!(ladder.arm("r"), 0);
        // A persistently high signal still escalates.
        ladder.observe("r", 0.9);
        assert!(ladder.observe("r", 0.9).is_some());
    }

    #[test]
    fn ladder_tracks_tasks_independently() {
        let mut ladder = AdaptiveLadder::new(4).with_patience(1).with_threshold(0.1);
        assert!(ladder.observe("hot", 0.8).is_some());
        assert!(ladder.observe("cold", 0.0).is_none());
        assert_eq!(ladder.arm("hot"), 1);
        assert_eq!(ladder.arm("cold"), 0);
    }
}
