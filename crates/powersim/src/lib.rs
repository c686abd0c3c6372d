//! # arcs-powersim — a power-capped shared-memory machine simulator
//!
//! Substrate standing in for the paper's hardware stack: RAPL package
//! power capping and energy counters (via `libmsr`), the dual-socket Sandy
//! Bridge "Crill" and POWER8 "Minotaur" testbeds, and the hardware
//! performance counters (cache miss rates) used in the analysis figures.
//!
//! The simulator is *deterministic* and *analytic*: given a machine model,
//! a power cap, a [region descriptor](workload::RegionModel) and a
//! configuration (threads × schedule × chunk), [`exec::simulate_region`]
//! returns the region's duration, per-thread busy/barrier split, cache
//! miss rates and package energy. The mechanisms that make the paper's
//! experiments interesting are modelled directly:
//!
//! * a package cap lowers core frequency (cubic power law), stretching
//!   compute but not memory latency;
//! * fewer active cores under the same cap run at higher frequency;
//! * SMT sharing divides private caches and per-thread throughput;
//! * schedule/chunk choices move cache locality and load balance;
//! * energy integrates busy/idle core power, uncore power and per-miss
//!   L3/DRAM energy.
//!
//! ```
//! use arcs_powersim::{Machine, SimConfig, simulate_region};
//! use arcs_powersim::workload::{RegionModel, ImbalanceProfile, MemoryProfile, StrideClass};
//! use arcs_omprt::Schedule;
//!
//! let machine = Machine::crill();
//! let region = RegionModel {
//!     name: "x_solve".into(),
//!     iterations: 102,
//!     cycles_per_iter: 2.0e6,
//!     imbalance: ImbalanceProfile::Uniform,
//!     memory: MemoryProfile {
//!         footprint_bytes: 300e6,
//!         accesses_per_iter: 1.0e5,
//!         stride: StrideClass::Medium,
//!         temporal_reuse: 0.3,
//!         hot_bytes_per_thread: 32768.0,
//!     },
//!     serial_s: 0.0,
//!     critical_s: 0.0,
//! };
//! let capped = simulate_region(&machine, 55.0,
//!     &region, SimConfig { threads: 32, schedule: Schedule::static_block() });
//! let uncapped = simulate_region(&machine, 115.0,
//!     &region, SimConfig { threads: 32, schedule: Schedule::static_block() });
//! assert!(capped.time_s > uncapped.time_s);
//! ```

pub mod cache;
pub mod exec;
pub mod fault;
pub mod fleet;
pub mod machine;
pub mod memo;
pub mod rapl;
pub mod workload;

pub use cache::{analyze, CacheReport};
pub use exec::{
    simulate_region, simulate_region_at_freq, simulate_region_with, simulate_region_with_table,
    SimConfig, SimReport, SimScratch,
};
pub use fault::{
    CapFault, FaultPlan, InvocationFaults, MeasureError, NodeFault, NodeFaultClass, NodeFaultPlan,
};
pub use fleet::{Fleet, FleetNode};
pub use machine::{CacheGeometry, Machine, MachineLoadError, Placement, PowerModel, SmtModel};
pub use memo::{
    CacheBindError, CacheReader, CacheSnapshot, FxBuildHasher, FxHasher, RegionId, RegionInterner,
    SharedSimCache,
};
pub use rapl::{PackageEnergy, Rapl};
pub use workload::{
    ImbalanceProfile, MemoryProfile, RegionModel, StrideClass, WeightStream, WeightTable,
    WorkloadDescriptor,
};

/// The splitmix64 output mix: a bijective avalanche of `z`, which every
/// seeded stream and stateless hash of the workspace ends with. A
/// splitmix64 generator step is `state += 0x9E37_79B9_7F4A_7C15` followed
/// by `splitmix64(state)`.
#[inline]
pub fn splitmix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
