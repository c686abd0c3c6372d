//! DVFS extension: per-region frequency selection as a fourth knob.
//!
//! The paper's future work (§VII): *"Currently, we are not looking into
//! the DVFS (Dynamic Voltage Frequency Scaling) strategy. We plan to
//! include this policy in the future."* This module adds it on top of the
//! simulator backend: the search space becomes
//! threads × schedule × chunk × **frequency limit**, and the objective is
//! selectable — execution time (the paper's), energy, or energy-delay
//! product. For memory-bound regions a frequency below what the power cap
//! allows costs almost no time (stalls don't scale with the clock) and
//! saves real energy — which is exactly what the tuner discovers.
//!
//! The space ([`ConfigSpace::with_dvfs`], the Table I grid plus a
//! frequency axis) and the objective ([`Objective`]) are mainline
//! abstractions shared with the base tuner; this module is only a
//! convenience driver that tunes a single region through the
//! standard [`RegionTuner`] + [`Runner`] stack, so DVFS runs emit the
//! same trace and metrics taxonomy as everything else.

use crate::backend::Runner;
use crate::config::{ConfigSpace, TunedConfig};
use crate::executor::SimExecutor;
use crate::tuner::{RegionTuner, TunerOptions, TuningMode};
use arcs_powersim::{simulate_region_at_freq, Machine, RegionModel, SimReport, WorkloadDescriptor};
pub use arcs_trace::Objective;

/// Result of tuning one region with the extended space.
#[derive(Debug, Clone)]
pub struct DvfsOutcome {
    pub config: TunedConfig,
    pub report: SimReport,
    pub evaluations: usize,
}

/// Tune one region over `space` for `objective` using the mainline
/// session machinery.
///
/// The region is wrapped in a single-region workload and driven through
/// [`RegionTuner`] + [`Runner`] until the tuner converges (or a pass
/// budget runs out), so the search emits the standard trace/metrics
/// event taxonomy. The returned report re-simulates the winning
/// configuration in isolation (no search overhead folded in).
pub fn tune_region(
    machine: &Machine,
    cap_w: f64,
    region: &RegionModel,
    space: &ConfigSpace,
    objective: Objective,
    mode: TuningMode,
) -> DvfsOutcome {
    let wl = WorkloadDescriptor {
        name: format!("tune.{}", region.name),
        step: vec![region.clone()],
        timesteps: 64,
    };
    let mut exec = SimExecutor::new(machine.clone(), cap_w);
    let mut tuner =
        RegionTuner::new(TunerOptions::new(space.clone(), mode).with_objective(objective));
    // Each pass is one simulated application run; the tuner keeps its
    // search state across passes. 64 passes × 64 timesteps comfortably
    // exhausts even the 4-knob grid.
    for _ in 0..64 {
        Runner::new(&mut exec)
            .workload(&wl)
            .tuner(&mut tuner)
            .run()
            .expect("single-region tuning run");
        if tuner.converged() {
            break;
        }
    }
    let evaluations = tuner.evaluations(&region.name);
    let config = tuner
        .best_tuned_configs()
        .remove(&region.name)
        .expect("tuned region has a best configuration");
    let report =
        simulate_region_at_freq(machine, cap_w, region, config.omp.as_sim(), config.freq_ghz);
    DvfsOutcome { config, report, evaluations }
}
