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
}

/// Dispatches events to registered policies in registration order.
#[derive(Default)]
pub struct PolicyEngine {
    policies: Vec<PolicyEntry>,
    events: u64,
}

impl PolicyEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a policy; returns its index.
    pub fn register<F>(&mut self, trigger: PolicyTrigger, callback: F) -> usize
    where
        F: FnMut(&PolicyEvent) + Send + 'static,
    {
        self.policies.push(PolicyEntry { trigger, callback: Box::new(callback) });
        self.policies.len() - 1
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
            }
        }
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
            engine.register(PolicyTrigger::OnTimerStart, move |_| {
                s.fetch_add(1, Ordering::Relaxed);
            });
        }
        {
            let s = stops.clone();
            engine.register(PolicyTrigger::OnTimerStop, move |_| {
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
        engine.register(PolicyTrigger::Periodic(3), move |ev| {
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
        engine.register(PolicyTrigger::OnTimerStop, move |ev| {
            if let PolicyEventKind::TimerStop { duration_s } = ev.kind {
                s.lock().push(duration_s);
            }
        });
        engine.dispatch(&event(PolicyEventKind::TimerStop { duration_s: 1.5 }));
        engine.dispatch(&event(PolicyEventKind::TimerStop { duration_s: 2.5 }));
        assert_eq!(*seen.lock(), vec![1.5, 2.5]);
    }
}
