//! # arcs — Adaptive Runtime Configuration Selection
//!
//! Reproduction of *"ARCS: Adaptive Runtime Configuration Selection for
//! Power-Constrained OpenMP Applications"* (Shahneous Bari et al., IEEE
//! CLUSTER 2016): a framework that automatically selects, per parallel
//! region, the best **number of threads**, **scheduling policy** and
//! **chunk size** for a given package power cap.
//!
//! Two strategies, as in the paper:
//!
//! * **ARCS-Offline** — an exhaustive training execution per power
//!   cap/workload saves the best configuration per region to a history
//!   file ([`backend::Runner::train`]); the measured execution replays it
//!   ([`tuner::TunerOptions::offline_replay`]).
//! * **ARCS-Online** — Nelder–Mead search converges within the same run
//!   ([`tuner::TunerOptions::online`]).
//!
//! One workload runs through one [`backend::Runner`] chain — the default
//! configuration, a [fixed](backend::Runner::fixed) or
//! [adaptive](backend::Runner::adaptive) map, or a
//! [tuner](backend::Runner::tuner) in any of those modes.
//!
//! Two backends behind one [`backend::Backend`] trait and one run driver:
//!
//! * [`executor::SimExecutor`] drives the deterministic power-capped
//!   machine simulator (`arcs-powersim`), which is where the paper's
//!   power-sweep experiments run (RAPL capping is simulated; see
//!   DESIGN.md §2);
//! * [`live::LiveExecutor`] runs region models as calibrated spin loops on
//!   a real [`arcs_omprt::Runtime`] — and [`live::ArcsLive`] attaches ARCS
//!   to any runtime through the OMPT-like tool interface and APEX policies
//!   (the paper's Fig. 2 wiring, adapting real executions).
//!
//! Whole experiment grids (workload × power cap × strategy) run through
//! the [`sweep::SweepEngine`], which executes cells concurrently over a
//! shared per-machine simulation memo cache; its
//! [`sweep::SweepStrategy`] table holds the paper's recipes — default,
//! ARCS-Online, ARCS-Offline — once.
//!
//! ## Quickstart (simulator)
//! ```
//! use arcs::{SweepEngine, SweepGrid, SweepStrategy};
//! use arcs_powersim::Machine;
//! use arcs_kernels::{model, Class};
//!
//! let machine = Machine::crill();
//! let mut workload = model::sp(Class::B);
//! workload.timesteps = 10;
//!
//! let grid = SweepGrid::new(machine.clone())
//!     .workload(workload)
//!     .caps(&[85.0])
//!     .strategies(&[SweepStrategy::Default, SweepStrategy::Offline]);
//! let sweep = SweepEngine::new(machine).run(&grid);
//! let base = &sweep.cell("sp.B", 85.0, "default").unwrap().report;
//! let offline = sweep.cell("sp.B", 85.0, "arcs-offline").unwrap();
//! assert!(offline.report.time_s < base.time_s);
//! let history = offline.history.as_ref().unwrap();
//! assert_eq!(history.len(), 5); // one best config per SP region
//! ```

pub mod backend;
pub mod cap;
pub mod cli;
pub mod config;
pub mod dvfs;
pub mod executor;
pub mod faults;
pub mod live;
pub mod report;
pub mod resilience;
pub mod sweep;
pub mod tuner;

pub use backend::{
    overhead_power_w, Backend, Measurement, PricedCell, RegionFeatures, RegionRun, RunError, Runner,
};
pub use cap::{CapHandle, CapWatch};
pub use config::{ChunkChoice, ConfigSpace, OmpConfig, ScheduleChoice, ThreadChoice, TunedConfig};
pub use dvfs::DvfsOutcome;
pub use executor::{NoiseModel, SimExecutor};
pub use faults::{FaultClock, MeterFault};
pub use live::{ArcsLive, LiveExecutor};
pub use report::{AppRunReport, FaultRecovery, RegionSummary, RunStatus};
pub use resilience::ResilienceOptions;
pub use sweep::{CellResult, SweepEngine, SweepGrid, SweepReport, SweepStrategy};
pub use tuner::{RegionTuner, TunerDecision, TunerOptions, TunerStats, TuningMode};

/// The scalar a run is scored by (time, energy, or EDP). Defined in
/// `arcs-trace` so trace events can carry it; re-exported here as the
/// canonical user-facing name.
pub use arcs_trace::Objective;

/// One-import surface for the common simulator workflow.
///
/// ```
/// use arcs::prelude::*;
/// # use arcs_kernels::{model, Class};
/// let mut wl = model::sp(Class::B);
/// wl.timesteps = 3;
/// let mut exec = SimExecutor::new(Machine::crill(), 85.0);
/// let report = Runner::new(&mut exec).workload(&wl).run().unwrap();
/// assert!(report.time_s > 0.0);
/// ```
pub mod prelude {
    pub use crate::backend::{Backend, RunError, Runner};
    pub use crate::cap::CapHandle;
    pub use crate::config::{ConfigSpace, OmpConfig, TunedConfig};
    pub use crate::executor::SimExecutor;
    pub use crate::report::{AppRunReport, FaultRecovery, RunStatus};
    pub use crate::resilience::ResilienceOptions;
    pub use crate::sweep::{SweepEngine, SweepGrid, SweepStrategy};
    pub use crate::tuner::{RegionTuner, TunerOptions};
    pub use arcs_powersim::{FaultPlan, Machine, SharedSimCache, WorkloadDescriptor};
    pub use arcs_trace::{
        chrome_trace, JsonlSink, NullSink, Objective, TraceEvent, TraceRecord, TraceSink, VecSink,
    };
}
