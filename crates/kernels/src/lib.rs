//! # arcs-kernels — the evaluation workloads
//!
//! Real Rust implementations of the paper's three proxy applications,
//! parallelised region-by-region on [`arcs-omprt`](arcs_omprt), plus the
//! analytic [descriptors](model) the power simulator consumes:
//!
//! * [`npb::bt`] — block-tridiagonal ADI solver (NPB BT shape);
//! * [`npb::sp`] — scalar-pentadiagonal ADI solver (NPB SP shape);
//! * [`npb::cg`] — sparse conjugate-gradient kernel (irregular, NPB CG shape);
//! * [`npb::mg`] — multigrid V-cycle Poisson solver (NPB MG shape);
//! * [`lulesh`] — shock-hydro proxy with LULESH 2.0's named regions;
//! * [`quicksilver`] — Monte-Carlo particle transport (Quicksilver shape):
//!   dynamic front-loaded imbalance, the self-scheduling stress case.
//!
//! The solvers carry built-in verification (manufactured-solution
//! convergence for BT/SP; sanity invariants for LULESH) and are
//! deterministic across thread counts and schedules, so ARCS can retune
//! them live without changing results.

// Numeric kernels keep explicit index loops: they mirror the original
// Fortran/C loop nests and make the disjoint-index safety contracts
// auditable.
#![allow(clippy::needless_range_loop)]

pub mod grid;
pub mod linalg;
pub mod lulesh;
pub mod model;
pub mod npb;
pub mod quicksilver;

pub use lulesh::Lulesh;
pub use npb::bt::BtSolver;
pub use npb::cg::CgSolver;
pub use npb::mg::MgSolver;
pub use npb::sp::SpSolver;
pub use npb::Class;
pub use quicksilver::Quicksilver;
