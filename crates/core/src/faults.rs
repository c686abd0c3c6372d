//! The one place a [`FaultPlan`] and an external cap move are *applied*.
//!
//! A [`FaultPlan`] is stateless — every decision is a pure function of
//! (seed, fault class, key, ordinal). Two things turn it into a perturbed
//! run, and every backend shares both, so a third backend cannot drift
//! from the other two:
//!
//! * [`FaultClock`] supplies the *ordinals* the decisions key on: how many
//!   meter reads have happened this run, which run-wide invocation is
//!   executing, whether a dropped sample has armed a stale read.
//! * The crate-private `Perturbation` *applies* the decisions. Both
//!   backends hold one and call it at the same four points — run start,
//!   before an invocation, after it, at a meter read — and it owns
//!   everything about a perturbation that is not physics: polling the
//!   [`CapHandle`], drawing the invocation's faults, the order a handle
//!   move and a scheduled cap fault apply in, both views of the cap, the
//!   traced `CapChange`, the `FaultInjected` breadcrumb, the timer
//!   spike, arming and draining the stale read, failing a meter read. A
//!   backend keeps what only it can know: how a cap is programmed
//!   (`Rapl::set_package_cap` against a clamp), how a straggler stretches
//!   the invocation, what a stale read answers.
//!
//! The contract that keeps one plan perturbing every backend identically:
//!
//! * ordinals reset at `begin_run`, so the fault schedule is a pure
//!   function of the run's event sequence, not of executor history;
//! * *every* meter-read attempt advances the read ordinal, including
//!   driver retries — which is what turns long failure bursts into hard
//!   faults;
//! * the run-wide invocation ordinal advances exactly once per region
//!   invocation (it keys the cap schedule);
//! * a handle move applies before the invocation's scheduled cap fault,
//!   so the fault wins when both land on one boundary.

use crate::cap::{CapHandle, CapWatch};
use arcs_powersim::{FaultPlan, InvocationFaults, MeasureError};
use arcs_trace::{TraceEvent, TraceSink};
use std::sync::Arc;

/// What the fault plan says one meter read should do: fail outright
/// (carrying the read ordinal for the fault breadcrumb), or answer with
/// the previous value without resampling. How a "stale" answer is
/// produced stays per-backend — the simulator replays its unwrapped
/// counter, the live path replays the last value handed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeterFault {
    /// The read fails; the payload is the read ordinal that failed.
    Fail(u64),
    /// The read must answer the stale (previous) meter value.
    Stale,
}

/// Runtime state for an attached [`FaultPlan`]: the plan decides, this
/// tracks the ordinals the decisions key on.
#[derive(Debug, Clone)]
pub struct FaultClock {
    plan: FaultPlan,
    /// Meter reads so far this run (every read attempt counts).
    read_ordinal: u64,
    /// Run-wide region invocation counter (the cap schedule's key).
    global_ordinal: u64,
    /// Pending stale meter reads from dropped samples.
    stale_reads: u32,
}

impl FaultClock {
    pub fn new(plan: FaultPlan) -> Self {
        FaultClock { plan, read_ordinal: 0, global_ordinal: 0, stale_reads: 0 }
    }

    /// Reset every ordinal so the next run replays the plan from the top.
    pub fn begin_run(&mut self) {
        self.read_ordinal = 0;
        self.global_ordinal = 0;
        self.stale_reads = 0;
    }

    /// The plan's decisions for the next region invocation. Advances the
    /// run-wide ordinal; call exactly once per invocation.
    pub fn invocation_faults(&mut self, region: &str, invocation: u64) -> InvocationFaults {
        let g = self.global_ordinal;
        self.global_ordinal += 1;
        self.plan.invocation_faults(region, invocation, g)
    }

    /// Arm one stale meter read (a dropped sample: the next read answers
    /// the previous value). Repeated drops before a read still arm one.
    pub fn arm_stale_read(&mut self) {
        self.stale_reads = self.stale_reads.max(1);
    }

    /// The plan's decision for the next meter read. Advances the read
    /// ordinal; call exactly once per read attempt (retries included).
    pub fn meter_fault(&mut self) -> Option<MeterFault> {
        let ord = self.read_ordinal;
        self.read_ordinal += 1;
        if self.plan.rapl_read_fails(ord) {
            Some(MeterFault::Fail(ord))
        } else if self.stale_reads > 0 {
            self.stale_reads -= 1;
            Some(MeterFault::Stale)
        } else {
            None
        }
    }
}

/// A backend's perturbable envelope — the power cap in both views, the
/// watched [`CapHandle`], the attached plan's [`FaultClock`] — and the
/// sink its breadcrumbs go to. See the module docs for the split between
/// this type and a backend's physics.
#[derive(Default)]
pub(crate) struct Perturbation {
    pub(crate) trace: Option<Arc<dyn TraceSink>>,
    /// The cap as last requested, before the backend's clamp.
    requested_cap_w: f64,
    /// The cap the backend answered that request with.
    cap_w: f64,
    /// Externally-owned cap, polled at region boundaries (the broker's
    /// reallocation path; `None` keeps the constructor cap for the run).
    cap_watch: Option<CapWatch>,
    clock: Option<FaultClock>,
}

impl Perturbation {
    /// An unwatched, fault-free envelope: `requested_w` is what the
    /// caller asked for and `effective_w` what the backend made of it.
    pub(crate) fn new(requested_w: f64, effective_w: f64) -> Self {
        Perturbation { requested_cap_w: requested_w, cap_w: effective_w, ..Default::default() }
    }

    /// Effective package cap, watts.
    pub(crate) fn cap_w(&self) -> f64 {
        self.cap_w
    }

    /// The cap as requested, before the backend's clamp.
    pub(crate) fn requested_cap_w(&self) -> f64 {
        self.requested_cap_w
    }

    pub(crate) fn attach_faults(&mut self, plan: FaultPlan) {
        self.clock = Some(FaultClock::new(plan));
    }

    /// Watch `handle`: its current value replaces the cap now (through
    /// `program`, untraced — the driver's run-start `CapChange` reports
    /// it); later `set`s apply in [`Perturbation::before_invocation`].
    pub(crate) fn watch_cap(&mut self, handle: CapHandle, program: impl FnOnce(f64) -> f64) {
        self.requested_cap_w = handle.get();
        self.cap_w = program(self.requested_cap_w);
        self.cap_watch = Some(CapWatch::new(handle));
    }

    pub(crate) fn begin_run(&mut self) {
        if let Some(clock) = &mut self.clock {
            clock.begin_run();
        }
    }

    /// The region boundary before an invocation. A handle move applies
    /// first; then the plan's decisions for this invocation are drawn,
    /// and a cap fault among them applies on top (breadcrumb, then the
    /// move). Both fire *before* the invocation, so the backend prices it
    /// — and keys its memo cache — under the new envelope. `program`
    /// hands the backend a requested cap and takes back the effective
    /// one. The returned decisions go to
    /// [`Perturbation::after_invocation`]; of them the backend applies
    /// only `straggler_factor`, the one whose effect is physics.
    #[inline]
    pub(crate) fn before_invocation(
        &mut self,
        region: &str,
        invocation: u64,
        mut program: impl FnMut(f64) -> f64,
    ) -> Option<InvocationFaults> {
        if let Some(cap) = self.cap_watch.as_mut().and_then(CapWatch::poll) {
            self.move_cap(cap, &mut program);
        }
        let faults = self.clock.as_mut()?.invocation_faults(region, invocation);
        if let Some(cap) = faults.cap_change_w {
            self.note_fault("cap_change", region, cap);
            self.move_cap(cap, &mut program);
        }
        Some(faults)
    }

    /// The other side of the invocation: breadcrumbs for a straggler the
    /// backend stretched, the timer spike (measurement-only: the timer
    /// lies, the machine doesn't) and a dropped sample (the next meter
    /// read answers stale). Returns what the instrumentation observed of
    /// `time_s`.
    #[inline]
    pub(crate) fn after_invocation(
        &mut self,
        region: &str,
        faults: Option<InvocationFaults>,
        time_s: f64,
    ) -> f64 {
        let Some(f) = faults else {
            return time_s;
        };
        if f.straggler_factor > 1.0 {
            self.note_fault("straggler", region, f.straggler_factor);
        }
        let mut observed_s = time_s;
        if f.spike_factor > 1.0 {
            observed_s *= f.spike_factor;
            self.note_fault("timer_spike", region, f.spike_factor);
        }
        if f.drop_sample {
            if let Some(clock) = &mut self.clock {
                clock.arm_stale_read();
            }
            self.note_fault("sample_drop", region, 1.0);
        }
        observed_s
    }

    /// Decide one meter-read attempt: `Err` when the plan fails it, else
    /// whether the backend must answer its stale value (`true`) rather
    /// than resample.
    #[inline]
    pub(crate) fn meter_read(&mut self) -> Result<bool, MeasureError> {
        match self.clock.as_mut().and_then(FaultClock::meter_fault) {
            Some(MeterFault::Fail(ordinal)) => {
                self.note_fault("rapl_read", "", ordinal as f64);
                Err(MeasureError::RaplRead { attempts: 1 })
            }
            Some(MeterFault::Stale) => Ok(true),
            None => Ok(false),
        }
    }

    /// Apply a newly requested cap — one path for handle moves and
    /// scheduled cap faults: program it, remember both views, trace it.
    fn move_cap(&mut self, requested_w: f64, program: &mut impl FnMut(f64) -> f64) {
        self.requested_cap_w = requested_w;
        self.cap_w = program(requested_w);
        if let Some(sink) = self.trace.as_ref().filter(|s| s.enabled()) {
            sink.record(None, TraceEvent::CapChange { requested_w, effective_w: self.cap_w });
        }
    }

    /// Emit the trace breadcrumb for one injected fault.
    fn note_fault(&self, kind: &str, region: &str, magnitude: f64) {
        if let Some(sink) = self.trace.as_ref().filter(|s| s.enabled()) {
            sink.record(
                None,
                TraceEvent::FaultInjected {
                    kind: kind.to_string(),
                    region: region.to_string(),
                    magnitude,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, Runner};
    use crate::executor::SimExecutor;
    use crate::live::LiveExecutor;
    use arcs_powersim::{FaultPlan, Machine};
    use arcs_trace::VecSink;

    /// Every `CapChange` of two runs on `b`, as (requested, effective):
    /// first under the constructor cap, then under a handle that moved
    /// before the run — both with `cap-storm` attached (45 W before the
    /// 9th invocation, 90 W before the 25th).
    fn cap_story<B: Backend>(b: &mut B) -> Vec<(f64, f64)> {
        // One region, 26 invocations: enough to cross both scheduled moves.
        let mut wl = arcs_kernels::model::sp(arcs_kernels::Class::S);
        wl.step.truncate(1);
        wl.timesteps = 26;
        let sink = Arc::new(VecSink::new());
        Runner::new(&mut *b)
            .workload(&wl)
            .faults(FaultPlan::cap_storm(1))
            .trace(sink.clone())
            .run()
            .unwrap();
        let handle = CapHandle::new(10.0);
        b.attach_cap_handle(handle.clone());
        handle.set(400.0);
        Runner::new(b).workload(&wl).run().unwrap();
        sink.drain()
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::CapChange { requested_w, effective_w } => {
                    Some((requested_w, effective_w))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn sim_and_live_tell_the_same_cap_story() {
        // 500 W asked of a 115 W part whose RAPL floor is 28.75 W.
        let m = Machine::crill();
        let sim = cap_story(&mut SimExecutor::new(m.clone(), 500.0));
        let rt = Arc::new(arcs_omprt::Runtime::new(2));
        let live = cap_story(&mut LiveExecutor::new(rt, m, 500.0).with_time_scale(1e-6));
        assert_eq!(
            sim,
            vec![
                (500.0, 115.0), // run 1 starts: the constructor request, clamped
                (45.0, 45.0),
                (90.0, 90.0),
                (10.0, 28.75),  // run 2 starts: the handle's value at attach time
                (400.0, 115.0), // the pre-run `set`, applied at the first boundary
                (45.0, 45.0),
                (90.0, 90.0),
            ]
        );
        assert_eq!(live, sim, "the live path must remember what was asked, like the simulator");
    }

    fn bursty_plan() -> FaultPlan {
        let mut plan = FaultPlan::new(11);
        plan.rapl_fault_rate = 0.3;
        plan
    }

    #[test]
    fn read_ordinals_replay_the_plan_exactly() {
        let plan = bursty_plan();
        let mut clock = FaultClock::new(plan.clone());
        let direct: Vec<bool> = (0..64).map(|o| plan.rapl_read_fails(o)).collect();
        let via_clock: Vec<bool> =
            (0..64).map(|_| matches!(clock.meter_fault(), Some(MeterFault::Fail(_)))).collect();
        assert_eq!(direct, via_clock);
    }

    #[test]
    fn begin_run_resets_every_ordinal() {
        let mut clock = FaultClock::new(bursty_plan());
        let first: Vec<Option<MeterFault>> = (0..16).map(|_| clock.meter_fault()).collect();
        let _ = clock.invocation_faults("r", 0);
        clock.arm_stale_read();
        clock.begin_run();
        let second: Vec<Option<MeterFault>> = (0..16).map(|_| clock.meter_fault()).collect();
        assert_eq!(first, second, "a reset clock replays the schedule from the top");
    }

    #[test]
    fn stale_reads_arm_once_and_drain_once() {
        // A plan that never fails reads isolates the stale path.
        let mut clock = FaultClock::new(FaultPlan::new(5));
        assert_eq!(clock.meter_fault(), None);
        clock.arm_stale_read();
        clock.arm_stale_read(); // repeated drops before a read still arm one
        assert_eq!(clock.meter_fault(), Some(MeterFault::Stale));
        assert_eq!(clock.meter_fault(), None);
    }

    #[test]
    fn global_ordinal_advances_once_per_invocation() {
        // A cap scheduled at global ordinal 2 fires on the third
        // invocation regardless of which region runs it.
        let mut plan = FaultPlan::new(7);
        plan.cap_schedule.push(arcs_powersim::CapFault { at_invocation: 2, cap_w: 60.0 });
        let mut clock = FaultClock::new(plan);
        assert_eq!(clock.invocation_faults("a", 0).cap_change_w, None);
        assert_eq!(clock.invocation_faults("b", 0).cap_change_w, None);
        assert_eq!(clock.invocation_faults("a", 1).cap_change_w, Some(60.0));
    }
}
