//! Live ARCS: the full Fig. 2 wiring on the real runtime.
//!
//! ```text
//! Application ──► omprt Runtime ──events──► OMPT adapter ──► APEX timers
//!                      ▲                                        │
//!                      └── set_num_threads / set_schedule ◄── policy ──► Harmony sessions
//! ```
//!
//! An [`ArcsLive`] instance registers an OMPT tool that starts/stops an
//! APEX timer around every parallel region, and an APEX *policy* that, on
//! timer start, asks the per-region Harmony session for the next
//! configuration and applies it through the runtime's control knobs —
//! which works on the *current* invocation because `arcs-omprt` fires
//! `parallel_begin` before reading its ICVs, just like the paper's
//! modified OpenMP runtime. On timer stop the policy reports the measured
//! duration back to the session.

use crate::backend::{self, Backend, RegionFeatures, RegionRun};
use crate::cap::CapHandle;
use crate::config::TunedConfig;
use crate::faults::Perturbation;
use crate::tuner::{RegionTuner, TunerOptions};
use arcs_apex::{Apex, PolicyEventKind, PolicyTrigger};
use arcs_omprt::{RegionId, RegionRecord, Runtime, Tool};
use arcs_powersim::{FaultPlan, Machine, MeasureError, RegionModel};
use arcs_trace::TraceSink;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The OMPT adapter: translates runtime events into APEX timer calls.
struct OmptAdapter {
    rt: Arc<Runtime>,
    apex: Arc<Apex>,
}

impl Tool for OmptAdapter {
    fn parallel_begin(&self, region: RegionId) {
        let task = self.apex.task(&self.rt.region_name(region));
        self.apex.start(task);
    }

    fn parallel_end(&self, region: RegionId, _record: &RegionRecord) {
        let task = self.apex.task(&self.rt.region_name(region));
        let _ = self.apex.stop(task);
    }
}

/// Handle to a live ARCS attachment.
pub struct ArcsLive {
    apex: Arc<Apex>,
    tuner: Arc<Mutex<RegionTuner>>,
}

impl ArcsLive {
    /// Attach ARCS to a runtime: registers the OMPT adapter and the tuning
    /// policy. From this point every `parallel_for` on `rt` is measured
    /// and adaptively reconfigured.
    pub fn attach(rt: Arc<Runtime>, options: TunerOptions) -> ArcsLive {
        let apex = Arc::new(Apex::new());
        let tuner = Arc::new(Mutex::new(RegionTuner::new(options)));

        rt.tools().register(Arc::new(OmptAdapter { rt: Arc::clone(&rt), apex: Arc::clone(&apex) }));

        // Policy: on timer start, select and apply the next configuration.
        {
            let tuner = Arc::clone(&tuner);
            let rt = Arc::clone(&rt);
            apex.register_policy("arcs-select", PolicyTrigger::OnTimerStart, move |ev| {
                let decision = tuner.lock().begin(&ev.task_name);
                rt.set_num_threads(decision.config.omp.threads);
                rt.set_schedule(decision.config.omp.schedule);
            });
        }
        // Policy: on timer stop, report the measurement.
        {
            let tuner = Arc::clone(&tuner);
            apex.register_policy("arcs-report", PolicyTrigger::OnTimerStop, move |ev| {
                if let PolicyEventKind::TimerStop { duration_s } = ev.kind {
                    tuner.lock().end(&ev.task_name, duration_s);
                }
            });
        }

        ArcsLive { apex, tuner }
    }

    /// The APEX instance collecting profiles (for analysis/reporting).
    pub fn apex(&self) -> &Arc<Apex> {
        &self.apex
    }

    /// Has every encountered region converged?
    pub fn converged(&self) -> bool {
        self.tuner.lock().converged()
    }

    /// Best configuration per region found so far.
    pub fn best_configs(&self) -> std::collections::HashMap<String, crate::config::OmpConfig> {
        self.tuner.lock().best_configs()
    }

    /// Export the history file ("save the best parameters found").
    pub fn export_history(&self, context: &str) -> arcs_harmony::History<crate::config::OmpConfig> {
        self.tuner.lock().export_history(context)
    }

    /// Tuner bookkeeping counters.
    pub fn stats(&self) -> crate::tuner::TunerStats {
        self.tuner.lock().stats()
    }
}

/// [`Backend`] over the real `arcs-omprt` runtime: region models execute
/// as calibrated spin loops on actual worker threads, so the shared driver
/// in [`crate::backend`] exercises genuine fork/join, scheduling and
/// barrier behaviour.
///
/// What the live path cannot observe it approximates honestly:
///
/// * **time** is real wall-clock; each iteration spins for the modelled
///   per-iteration cost scaled by `time_scale` (keep it small — the point
///   is relative behaviour, not seconds);
/// * **energy** has no portable host counter, so invocations are priced
///   through the machine's power model at the configured cap (overheads
///   at [`backend::overhead_power_w`], like the simulator);
/// * **cache miss rates** are not measurable portably and report as 0.
pub struct LiveExecutor {
    rt: Arc<Runtime>,
    machine: Machine,
    /// Multiplier from modelled region seconds to real spin seconds.
    time_scale: f64,
    /// Per region name: its runtime id, and the ordinal of its last
    /// invocation (keys the fault plan's decisions, mirroring the
    /// simulator's counter).
    regions: HashMap<String, (RegionId, u64)>,
    energy_acc_j: f64,
    /// Last meter value handed out — the stale answer for dropped samples.
    last_read_j: f64,
    /// The cap (requested and clamped), the watched handle, the fault
    /// plan, and the sink — the same `Perturbation` the
    /// simulator holds, so one plan perturbs both backends identically.
    perturb: Perturbation,
}

/// The live path has no host RAPL to program: a requested cap only moves
/// the pricing envelope, clamped to the model's RAPL range.
fn clamp_cap(machine: &Machine, requested_w: f64) -> f64 {
    requested_w.clamp(machine.power.tdp_w * 0.25, machine.power.tdp_w)
}

impl LiveExecutor {
    /// Wrap a runtime together with the machine model whose workloads it
    /// will execute. The cap is clamped to the model's RAPL range.
    pub fn new(rt: Arc<Runtime>, machine: Machine, cap_w: f64) -> Self {
        let perturb = Perturbation::new(cap_w, clamp_cap(&machine, cap_w));
        LiveExecutor {
            rt,
            machine,
            time_scale: 1e-3,
            regions: HashMap::new(),
            energy_acc_j: 0.0,
            last_read_j: 0.0,
            perturb,
        }
    }

    /// Watch an externally-owned [`CapHandle`] (see
    /// [`SimExecutor::with_cap_handle`](crate::executor::SimExecutor::with_cap_handle)):
    /// the live path has no host RAPL, so only the pricing envelope moves.
    pub fn with_cap_handle(mut self, handle: CapHandle) -> Self {
        Backend::attach_cap_handle(&mut self, handle);
        self
    }

    /// Attach a trace sink; the shared run driver emits region, power and
    /// overhead events into it (energy figures come from the power model,
    /// like the executor's accounting).
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.perturb.trace = Some(sink);
        self
    }

    /// Adjust how much real time one modelled second costs (default
    /// 1e-3). Non-positive or non-finite scales are ignored (debug
    /// builds assert — a zero scale is a caller bug, not a runtime
    /// condition worth panicking production over).
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        debug_assert!(scale.is_finite() && scale > 0.0, "time scale must be positive: {scale}");
        if scale.is_finite() && scale > 0.0 {
            self.time_scale = scale;
        }
        self
    }

    /// Attach a deterministic [`FaultPlan`] (see the simulator's
    /// [`SimExecutor::with_faults`](crate::executor::SimExecutor::with_faults)):
    /// the same plan and seed perturb the live path identically.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        Backend::attach_faults(&mut self, plan);
        self
    }

    /// The runtime id of the region called `name`, registered at its
    /// first invocation, and this invocation's ordinal (0-based).
    fn next_invocation(&mut self, name: &str) -> (RegionId, u64) {
        match self.regions.get_mut(name) {
            Some((id, n)) => {
                *n += 1;
                (*id, *n)
            }
            None => {
                let id = self.rt.register_region(name);
                self.regions.insert(name.to_string(), (id, 0));
                (id, 0)
            }
        }
    }

    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// Average package power while `threads` are busy under the cap.
    fn package_power_w(&self, threads: usize) -> f64 {
        let m = &self.machine;
        let active = m.active_cores_per_socket(threads);
        let max_active = active.iter().copied().max().unwrap_or(0);
        let f = m.frequency_under_cap(self.perturb.cap_w(), max_active);
        let p_core = m.power.c0 + m.power.c1 * f.powi(3);
        let busy: usize = active.iter().sum();
        m.sockets as f64 * (m.power.p_uncore_w + m.power.p_dram_background_w)
            + busy as f64 * p_core
            + (m.total_cores() - busy) as f64 * m.power.p_core_idle_w
    }
}

/// Busy-wait for `ns` nanoseconds (the calibrated stand-in for loop-body
/// work; sleeping would hide scheduling behaviour from the runtime).
fn spin_ns(ns: f64) {
    if ns <= 0.0 {
        return;
    }
    let start = Instant::now();
    let budget = std::time::Duration::from_nanos(ns as u64);
    while start.elapsed() < budget {
        std::hint::spin_loop();
    }
}

impl Backend for LiveExecutor {
    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn power_cap_w(&self) -> f64 {
        self.perturb.cap_w()
    }

    fn requested_power_cap_w(&self) -> f64 {
        self.perturb.requested_cap_w()
    }

    fn begin_run(&mut self) {
        self.energy_acc_j = 0.0;
        self.last_read_j = 0.0;
        self.perturb.begin_run();
    }

    fn charge_overhead(&mut self, dt_s: f64) {
        self.energy_acc_j += dt_s * backend::overhead_power_w(&self.machine);
    }

    // The frequency knob (`cfg.freq_ghz`) is ignored here: there is no
    // portable userspace DVFS control, so live invocations always run (and
    // are priced) at whatever the cap allows — exactly the base paper's
    // behaviour. The simulator is the backend that honours the knob.
    fn run_region(&mut self, region: &RegionModel, cfg: TunedConfig) -> RegionRun {
        let (id, inv) = self.next_invocation(&region.name);
        let faults =
            self.perturb.before_invocation(&region.name, inv, |w| clamp_cap(&self.machine, w));
        let threads = cfg.omp.threads.clamp(1, self.rt.max_threads());
        self.rt.set_num_threads(threads);
        self.rt.set_schedule(cfg.omp.schedule);

        let weights = region.weights();
        // cycles / GHz = ns of modelled compute per unit weight.
        let ns_per_weight = region.cycles_per_iter / self.machine.f_base_ghz * self.time_scale;
        let start = Instant::now();
        let rec = self.rt.parallel_for(id, 0..region.iterations, |i| {
            spin_ns(weights[i] * ns_per_weight);
        });
        let mut wall_s = start.elapsed().as_secs_f64();
        if let Some(f) = faults.filter(|f| f.straggler_factor > 1.0) {
            // A real slowdown the live path cannot spin out thread-
            // accurately: stretch the wall clock (the pricing line
            // below then charges the stretched duration too).
            wall_s *= f.straggler_factor;
        }

        // Price the invocation on the model and bump the package meter;
        // the driver differences the meter to attribute the energy.
        self.energy_acc_j += wall_s * self.package_power_w(rec.threads);
        RegionRun {
            time_s: self.perturb.after_invocation(&region.name, faults, wall_s),
            features: RegionFeatures {
                busy_s: rec.total_busy().as_secs_f64(),
                barrier_s: rec.total_barrier_wait().as_secs_f64(),
                // No portable hardware counters on the live path.
                l1_miss_rate: 0.0,
                l2_miss_rate: 0.0,
                l3_miss_rate: 0.0,
            },
        }
    }

    fn energy_j(&mut self) -> Result<f64, MeasureError> {
        // A dropped sample answers the last value handed out.
        if !self.perturb.meter_read()? {
            self.last_read_j = self.energy_acc_j;
        }
        Ok(self.last_read_j)
    }

    fn attach_faults(&mut self, plan: FaultPlan) {
        self.perturb.attach_faults(plan);
    }

    fn attach_cap_handle(&mut self, handle: CapHandle) {
        self.perturb.watch_cap(handle, |w| clamp_cap(&self.machine, w));
    }

    fn trace(&self) -> Option<&Arc<dyn TraceSink>> {
        self.perturb.trace.as_ref()
    }

    fn attach_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.perturb.trace = Some(sink);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Runner;
    use crate::config::ConfigSpace;
    use crate::tuner::TuningMode;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn small_space(default_threads: usize) -> ConfigSpace {
        // A reduced space so live searches converge in few invocations.
        use crate::config::{ChunkChoice, ScheduleChoice, ThreadChoice};
        use arcs_omprt::ScheduleKind;
        ConfigSpace {
            threads: vec![ThreadChoice::Count(1), ThreadChoice::Count(2), ThreadChoice::Default],
            schedules: vec![
                ScheduleChoice::Kind(ScheduleKind::Dynamic),
                ScheduleChoice::Kind(ScheduleKind::Static),
                ScheduleChoice::Default,
            ],
            chunks: vec![ChunkChoice::Size(1), ChunkChoice::Size(16), ChunkChoice::Default],
            default_threads,
            freqs_ghz: Vec::new(),
        }
    }

    #[test]
    fn live_tuning_drives_configs_through_the_runtime() {
        let rt = Arc::new(Runtime::new(4));
        let options = TunerOptions::new(small_space(4), TuningMode::Online);
        let live = ArcsLive::attach(Arc::clone(&rt), options);

        let region = rt.register_region("live/loop");
        let work = AtomicUsize::new(0);
        for _ in 0..40 {
            rt.parallel_for(region, 0..256, |i| {
                // A few microseconds of work per iteration.
                let mut acc = i as u64;
                for _ in 0..200 {
                    acc = acc.wrapping_mul(0x9E3779B9).rotate_left(7);
                }
                work.fetch_add((acc & 1) as usize, Ordering::Relaxed);
            });
        }

        let stats = live.stats();
        assert_eq!(stats.invocations, 40);
        assert!(stats.config_changes > 1, "search must try multiple configs");
        // APEX saw every invocation.
        let task = live.apex().task("live/loop");
        assert_eq!(live.apex().profile(task).unwrap().count, 40);
        // A best configuration exists and is valid.
        let best = live.best_configs()["live/loop"];
        assert!(best.threads >= 1 && best.threads <= 4);
    }

    #[test]
    fn live_history_export_roundtrips() {
        let rt = Arc::new(Runtime::new(2));
        let options = TunerOptions::new(small_space(2), TuningMode::Online);
        let live = ArcsLive::attach(Arc::clone(&rt), options);
        let region = rt.register_region("live/export");
        for _ in 0..12 {
            rt.parallel_for(region, 0..64, |_| {});
        }
        let h = live.export_history("test-ctx");
        assert_eq!(h.context, "test-ctx");
        assert!(h.get("live/export").is_some());
    }

    #[test]
    fn live_executor_runs_the_shared_driver() {
        use arcs_powersim::{ImbalanceProfile, MemoryProfile, StrideClass, WorkloadDescriptor};
        let region = RegionModel {
            name: "live/kernel".into(),
            iterations: 64,
            cycles_per_iter: 50_000.0,
            imbalance: ImbalanceProfile::Uniform,
            memory: MemoryProfile {
                footprint_bytes: 1e6,
                accesses_per_iter: 10.0,
                stride: StrideClass::Medium,
                temporal_reuse: 0.5,
                hot_bytes_per_thread: 4096.0,
            },
            serial_s: 0.0,
            critical_s: 0.0,
        };
        let wl = WorkloadDescriptor { name: "live-smoke".into(), step: vec![region], timesteps: 6 };
        let rt = Arc::new(Runtime::new(4));
        let mut exec = LiveExecutor::new(Arc::clone(&rt), arcs_powersim::Machine::crill(), 85.0)
            .with_time_scale(1e-2);

        // Default run through the backend-agnostic driver: real threads,
        // no overheads.
        let rep = Runner::new(&mut exec).workload(&wl).run().unwrap();
        assert_eq!(rep.strategy, "default");
        assert_eq!(rep.machine, "crill");
        assert_eq!(rep.per_region["live/kernel"].invocations, 6);
        assert!(rep.time_s > 0.0);
        assert!(rep.energy_j > 0.0);
        assert_eq!(rep.config_change_overhead_s, 0.0);

        // Tuned run: overheads are charged by the same driver code path
        // the simulator uses.
        let mut tuner = RegionTuner::new(TunerOptions::new(small_space(4), TuningMode::Online));
        let tuned = Runner::new(&mut exec).workload(&wl).tuner(&mut tuner).run().unwrap();
        let m = exec.machine().clone();
        assert!((tuned.instrumentation_overhead_s - 6.0 * m.instrumentation_s).abs() < 1e-12);
        assert!(tuned.config_change_overhead_s > 0.0);
        assert!(tuned.tuner.unwrap().invocations == 6);
    }

    #[test]
    fn replay_mode_applies_saved_config_live() {
        use arcs_harmony::History;
        use arcs_omprt::Schedule;
        let rt = Arc::new(Runtime::new(4));
        let mut h = History::new("ctx");
        let saved = crate::config::OmpConfig { threads: 2, schedule: Schedule::dynamic(16) };
        h.insert("live/replay", saved, 0.1, 9);
        let options = TunerOptions::new(small_space(4), TuningMode::OfflineReplay(h));
        let _live = ArcsLive::attach(Arc::clone(&rt), options);
        let region = rt.register_region("live/replay");
        let rec = rt.parallel_for(region, 0..64, |_| {});
        assert_eq!(rec.threads, 2);
        assert_eq!(rec.schedule, Schedule::dynamic(16));
    }
}
