//! # arcs-apex — an APEX-style introspection and runtime-adaptation library
//!
//! Substrate standing in for APEX (Autonomic Performance Environment for
//! eXascale). It provides:
//!
//! * **timers** keyed by interned task names (one task per parallel
//!   region), with wall-clock start/stop and direct sample injection;
//! * running [profiles](profile::Profile) per task;
//! * the [policy engine](policy::PolicyEngine): event-triggered and
//!   periodic callbacks that observe the APEX state and adapt the runtime
//!   (ARCS's policy lives on top of this).
//!
//! Its one caller on the run path is the live ARCS adapter (`ArcsLive` in
//! `arcs`). The simulated path keeps its per-region profile in the run
//! report and never goes through APEX, and this crate writes no trace.
//!
//! ```
//! use arcs_apex::{Apex, PolicyTrigger, PolicyEventKind};
//! use std::sync::{Arc, atomic::{AtomicUsize, Ordering}};
//!
//! let apex = Apex::new();
//! let fired = Arc::new(AtomicUsize::new(0));
//! let f = fired.clone();
//! apex.register_policy("log-stops", PolicyTrigger::OnTimerStop, move |ev| {
//!     if let PolicyEventKind::TimerStop { duration_s } = ev.kind {
//!         assert!(duration_s >= 0.0);
//!         f.fetch_add(1, Ordering::Relaxed);
//!     }
//! });
//!
//! let task = apex.task("x_solve");
//! apex.sample(task, 0.25); // inject a measurement without a wall clock
//! assert_eq!(fired.load(Ordering::Relaxed), 1);
//! assert_eq!(apex.profile(task).unwrap().count, 1);
//! ```

pub mod policy;
pub mod profile;

pub use policy::{PolicyEngine, PolicyEvent, PolicyEventKind, PolicyTrigger};
pub use profile::Profile;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::Instant;

/// Interned identifier for a measured task (an ARCS parallel region).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

#[derive(Default)]
struct State {
    names: Vec<String>,
    by_name: HashMap<String, TaskId>,
    profiles: HashMap<TaskId, Profile>,
    active: HashMap<TaskId, Instant>,
}

/// The APEX facade: introspection state + policy engine.
pub struct Apex {
    state: Mutex<State>,
    // Separate lock so policy callbacks may freely re-enter the state
    // (read profiles) without self-deadlock.
    engine: Mutex<PolicyEngine>,
}

impl Default for Apex {
    fn default() -> Self {
        Self::new()
    }
}

impl Apex {
    pub fn new() -> Self {
        Apex { state: Mutex::new(State::default()), engine: Mutex::new(PolicyEngine::new()) }
    }

    /// Intern a task name.
    pub fn task(&self, name: &str) -> TaskId {
        let mut st = self.state.lock();
        if let Some(&id) = st.by_name.get(name) {
            return id;
        }
        let id = TaskId(u32::try_from(st.names.len()).expect("too many tasks"));
        st.names.push(name.to_owned());
        st.by_name.insert(name.to_owned(), id);
        id
    }

    /// Start the wall-clock timer for `task` and fire `OnTimerStart`
    /// policies. One timer per task may be active at a time (parallel
    /// regions do not nest in the ARCS model).
    pub fn start(&self, task: TaskId) {
        let name = {
            let mut st = self.state.lock();
            st.active.insert(task, Instant::now());
            st.names[task.0 as usize].clone()
        };
        self.dispatch(PolicyEvent {
            kind: PolicyEventKind::TimerStart,
            task,
            task_name: name,
            profile: None,
        });
    }

    /// Stop the timer for `task`, record the sample, fire `OnTimerStop`
    /// policies, and return the duration in seconds. Returns `None` if the
    /// timer was never started.
    pub fn stop(&self, task: TaskId) -> Option<f64> {
        let started = self.state.lock().active.remove(&task)?;
        let duration = started.elapsed().as_secs_f64();
        self.record_sample(task, duration);
        Some(duration)
    }

    /// Inject a measurement for `task` without wall-clock timing — fires
    /// the same start/stop policy pair a real timer would, with
    /// `duration_s` as the stopped timer's sample.
    pub fn sample(&self, task: TaskId, duration_s: f64) {
        let name = self.state.lock().names[task.0 as usize].clone();
        self.dispatch(PolicyEvent {
            kind: PolicyEventKind::TimerStart,
            task,
            task_name: name,
            profile: None,
        });
        self.record_sample(task, duration_s);
    }

    fn record_sample(&self, task: TaskId, duration_s: f64) {
        let (name, profile) = {
            let mut st = self.state.lock();
            let prof = st.profiles.entry(task).or_default();
            prof.record(duration_s);
            let snapshot = *prof;
            (st.names[task.0 as usize].clone(), snapshot)
        };
        self.dispatch(PolicyEvent {
            kind: PolicyEventKind::TimerStop { duration_s },
            task,
            task_name: name,
            profile: Some(profile),
        });
    }

    /// Profile of a task's samples so far.
    pub fn profile(&self, task: TaskId) -> Option<Profile> {
        self.state.lock().profiles.get(&task).copied()
    }

    /// Register a policy with the engine. `_name` labels the policy at
    /// its call site, as APEX's registration does; the engine keeps only
    /// the trigger and the callback.
    pub fn register_policy<F>(&self, _name: &str, trigger: PolicyTrigger, callback: F) -> usize
    where
        F: FnMut(&PolicyEvent) + Send + 'static,
    {
        self.engine.lock().register(trigger, callback)
    }

    fn dispatch(&self, event: PolicyEvent) {
        self.engine.lock().dispatch(&event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn task_interning_is_stable() {
        let apex = Apex::new();
        let a = apex.task("compute_rhs");
        let b = apex.task("x_solve");
        assert_eq!(apex.task("compute_rhs"), a);
        assert_ne!(a, b);
        assert_eq!(apex.task("x_solve"), b);
    }

    #[test]
    fn wall_clock_timer_measures_something() {
        let apex = Apex::new();
        let t = apex.task("sleepy");
        apex.start(t);
        std::thread::sleep(std::time::Duration::from_millis(10));
        let d = apex.stop(t).unwrap();
        assert!(d >= 0.009, "measured {d}");
        assert_eq!(apex.profile(t).unwrap().count, 1);
    }

    #[test]
    fn stop_without_start_is_none() {
        let apex = Apex::new();
        let t = apex.task("never");
        assert!(apex.stop(t).is_none());
        assert!(apex.profile(t).is_none());
    }

    #[test]
    fn injected_samples_update_profiles_and_fire_policies() {
        let apex = Apex::new();
        let stops = Arc::new(AtomicUsize::new(0));
        let s = stops.clone();
        apex.register_policy("count", PolicyTrigger::OnTimerStop, move |_| {
            s.fetch_add(1, Ordering::Relaxed);
        });
        let t = apex.task("sim");
        apex.sample(t, 0.5);
        apex.sample(t, 1.5);
        let p = apex.profile(t).unwrap();
        assert_eq!(p.count, 2);
        assert_eq!(p.mean(), 1.0);
        assert_eq!(stops.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn policies_may_reenter_apex_state() {
        // A policy that reads profiles while handling an event must not
        // deadlock (state and engine use separate locks).
        let apex = Arc::new(Apex::new());
        let apex2 = apex.clone();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        let t = apex.task("reentrant");
        apex.register_policy("reader", PolicyTrigger::OnTimerStop, move |ev| {
            s.lock().push(apex2.profile(ev.task).map(|p| p.count));
        });
        apex.sample(t, 0.1);
        apex.sample(t, 0.2);
        assert_eq!(*seen.lock(), vec![Some(1), Some(2)]);
    }

    #[test]
    fn policy_sees_profile_snapshot_including_current_sample() {
        let apex = Apex::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        apex.register_policy("snap", PolicyTrigger::OnTimerStop, move |ev| {
            s.lock().push(ev.profile.unwrap().count);
        });
        let t = apex.task("snap");
        apex.sample(t, 1.0);
        apex.sample(t, 1.0);
        assert_eq!(*seen.lock(), vec![1, 2]);
    }
}
