//! NPB-style BT and SP proxy solvers.
//!
//! ## Substitution note (see DESIGN.md §2)
//!
//! The original NAS BT/SP kernels solve the 3-D compressible Navier–Stokes
//! equations via ADI approximate factorisation, with verification against
//! published reference norms. Reproducing those norms requires the exact
//! NPB coefficient tables; instead, these solvers apply the *same
//! algorithmic and parallel structure* to a 5-component linear
//! advection–diffusion system with a manufactured steady solution:
//!
//! * `compute_rhs` — explicit residual with central advection, diffusion
//!   and 4th-order dissipation evaluated direction-by-direction (the z
//!   pass reads `k ± 2` planes: the paper's long-stride `rhsz` stencil);
//! * `x_solve` / `y_solve` / `z_solve` — implicit ADI sweeps:
//!   **block-tridiagonal** 5×5 systems (BT) or **scalar pentadiagonal**
//!   systems (SP) along each grid line, parallelised over the outermost
//!   perpendicular dimension exactly as NPB 3.3-OMP-C does;
//! * `add` — accumulate the update into the solution.
//!
//! That timestep is written once (the private `adi` module); BT and SP are
//! schemes over it that supply only their advection coupling and the
//! system each sweep solves along one grid line.
//!
//! Because the forcing is built with the *same discrete operators*, the
//! manufactured solution is an exact steady state: starting from a
//! perturbed field, the error norm must decrease monotonically — that is
//! the built-in verification (`error_rms`), replacing NPB's reference
//! norms with a property that is actually checkable from first principles.

mod adi;
pub mod bt;
pub mod cg;
pub mod ep;
pub mod mg;
pub mod sp;

use crate::grid::{Field, NCOMP};
use serde::{Deserialize, Serialize};

/// NPB problem classes: grid edge length and official timestep counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Class {
    /// 12³ — smoke test.
    S,
    /// 24³ — workstation.
    W,
    /// 64³.
    A,
    /// 102³ — the paper's data set B.
    B,
    /// 162³ — the paper's data set C.
    C,
}

impl Class {
    pub fn grid_size(self) -> usize {
        match self {
            Class::S => 12,
            Class::W => 24,
            Class::A => 64,
            Class::B => 102,
            Class::C => 162,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Class::S => "S",
            Class::W => "W",
            Class::A => "A",
            Class::B => "B",
            Class::C => "C",
        }
    }
}

/// Parses the one-letter class name (`S`, `W`, `A`, `B`, `C`).
impl std::str::FromStr for Class {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        [Class::S, Class::W, Class::A, Class::B, Class::C]
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| format!("unknown class {s}"))
    }
}

/// Shared problem constants.
#[derive(Debug, Clone, Copy)]
pub struct Problem {
    pub n: usize,
    pub h: f64,
    pub dt: f64,
    /// Diffusion coefficient.
    pub nu: f64,
    /// 4th-order artificial dissipation coefficient.
    pub eps4: f64,
    /// Per-direction, per-component advection speeds (SP) / block scales
    /// (BT).
    pub speeds: [[f64; NCOMP]; 3],
}

impl Problem {
    pub fn new(class: Class) -> Self {
        let n = class.grid_size();
        let h = 1.0 / (n - 1) as f64;
        Problem {
            n,
            h,
            // Implicit sweeps keep this stable; chosen for brisk but
            // monotone convergence to the steady state.
            dt: 0.4 * h,
            nu: 0.05,
            eps4: 0.5,
            speeds: [
                [1.0, 0.8, -0.6, 0.4, -0.2],
                [-0.7, 0.9, 0.5, -0.3, 0.6],
                [0.5, -0.4, 0.8, 0.7, -0.9],
            ],
        }
    }

    /// Manufactured steady solution: a smooth trigonometric field, distinct
    /// per component (the analogue of NPB's `exact_solution` polynomial).
    pub fn exact(&self, i: usize, j: usize, k: usize) -> [f64; NCOMP] {
        let x = i as f64 * self.h;
        let y = j as f64 * self.h;
        let z = k as f64 * self.h;
        let mut u = [0.0; NCOMP];
        for (m, um) in u.iter_mut().enumerate() {
            let p = (m + 1) as f64;
            *um = 1.0
                + 0.3 * (p * std::f64::consts::PI * x).sin()
                + 0.2 * (p * std::f64::consts::PI * y).cos()
                + 0.1 * ((p * std::f64::consts::PI * (z + x)).sin());
        }
        u
    }

    /// Fill `f` with the exact solution everywhere.
    pub fn fill_exact(&self, f: &mut Field) {
        for k in 0..self.n {
            for j in 0..self.n {
                for i in 0..self.n {
                    *f.at_mut(i, j, k) = self.exact(i, j, k);
                }
            }
        }
    }

    /// Initial condition: exact on the boundary, smoothly perturbed in the
    /// interior (NPB initialises interiors by face interpolation; any
    /// smooth non-exact interior works for the convergence property).
    pub fn fill_initial(&self, f: &mut Field) {
        self.fill_exact(f);
        let n = self.n;
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let x = i as f64 * self.h;
                    let y = j as f64 * self.h;
                    let z = k as f64 * self.h;
                    let bump = x * (1.0 - x) * y * (1.0 - y) * z * (1.0 - z);
                    let p = f.at_mut(i, j, k);
                    for (m, pm) in p.iter_mut().enumerate() {
                        *pm += 0.5 * bump * (1.0 + 0.1 * m as f64);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_have_expected_sizes() {
        assert_eq!(Class::S.grid_size(), 12);
        assert_eq!(Class::B.grid_size(), 102);
        assert_eq!(Class::C.grid_size(), 162);
    }

    #[test]
    fn exact_solution_is_bounded_and_smooth() {
        let p = Problem::new(Class::S);
        for k in 0..p.n {
            for j in 0..p.n {
                for i in 0..p.n {
                    let u = p.exact(i, j, k);
                    for &v in &u {
                        assert!((0.3..=1.7).contains(&v), "exact out of range: {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn initial_condition_matches_exact_on_boundary_only() {
        let p = Problem::new(Class::S);
        let mut u = Field::new(p.n, p.n, p.n);
        p.fill_initial(&mut u);
        // Boundary points are exact.
        assert_eq!(u.at(0, 5, 5), &p.exact(0, 5, 5));
        assert_eq!(u.at(11, 5, 5), &p.exact(11, 5, 5));
        // Interior points are perturbed.
        let mid = p.n / 2;
        let diff: f64 = u
            .at(mid, mid, mid)
            .iter()
            .zip(&p.exact(mid, mid, mid))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(diff > 1e-3, "interior should be perturbed, diff={diff}");
    }

    /// The solvers' arithmetic, pinned to the bit: 5 steps of BT and SP
    /// at classes S and W give the same `error_rms` at any thread count
    /// and schedule (every grid point is updated by one line solve, in
    /// one fixed order), and a change to the ADI step that moves any
    /// rounding shows here.
    #[test]
    fn adi_error_bits_are_pinned_across_threads_and_schedules() {
        use arcs_omprt::{Runtime, Schedule};
        use std::sync::Arc;
        let pins: [(Class, u64, u64); 2] = [
            (Class::S, 0x3f75_6c2d_0681_ca31, 0x3f75_605e_32aa_282c),
            (Class::W, 0x3f7b_6f75_b0f9_3e84, 0x3f7b_6e1c_5d6c_4550),
        ];
        for (class, bt_bits, sp_bits) in pins {
            for threads in [1, 4] {
                for sched in [Schedule::static_block(), Schedule::dynamic(1)] {
                    let rt = || {
                        let rt = Arc::new(Runtime::new(threads));
                        rt.set_schedule(sched);
                        rt
                    };
                    let mut bt = bt::BtSolver::new(rt(), class);
                    bt.run(5);
                    let at = format!("{class:?} {threads} threads {sched}");
                    assert_eq!(bt.error_rms().to_bits(), bt_bits, "BT {at}");
                    let mut sp = sp::SpSolver::new(rt(), class);
                    sp.run(5);
                    assert_eq!(sp.error_rms().to_bits(), sp_bits, "SP {at}");
                }
            }
        }
    }
}
