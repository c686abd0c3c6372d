//! BT: block-tridiagonal ADI solver.
//!
//! Five coupled components advected by full 5×5 direction matrices — each
//! ADI sweep solves, along every grid line, a block-tridiagonal system with
//! 5×5 blocks (NPB BT's defining trait). Regions and their
//! parallelisation match NPB 3.3-OMP-C:
//!
//! | region        | parallel over | line direction | stride character |
//! |---------------|---------------|----------------|------------------|
//! | `compute_rhs` | k planes      | —              | mixed, k±2 reads |
//! | `x_solve`     | k planes      | i              | unit             |
//! | `y_solve`     | k planes      | j              | medium           |
//! | `z_solve`     | j rows        | k              | long             |
//! | `add`         | k planes      | —              | unit             |

use super::adi::{line_point, Adi, Scheme};
use super::Problem;
use crate::grid::{FieldView, NCOMP};
use crate::linalg::{block_tridiag_solve, Mat5, Vec5, ZERO_MAT};

/// The BT application: state + the five tunable parallel regions.
pub type BtSolver = Adi<Bt>;

/// Full 5×5 advection coupling: `A_d = diag(speeds_d) + ε·S_d` with fixed
/// skew couplings `S_d`, so the implicit systems genuinely need block
/// solves.
pub struct Bt {
    mats: [Mat5; 3],
}

impl Scheme for Bt {
    const REGIONS: [&'static str; 5] =
        ["bt/compute_rhs", "bt/x_solve", "bt/y_solve", "bt/z_solve", "bt/add"];

    fn new(prob: &Problem) -> Self {
        let eps = 0.15;
        let mut mats = [ZERO_MAT; 3];
        for (d, mat) in mats.iter_mut().enumerate() {
            for m in 0..NCOMP {
                mat[m][m] = prob.speeds[d][m];
                // Skew coupling between neighbouring components.
                let m2 = (m + 1 + d) % NCOMP;
                mat[m][m2] += eps;
                mat[m2][m] -= eps;
            }
        }
        Bt { mats }
    }

    fn advect(&self, d: usize, du: &[f64; NCOMP], out: &mut [f64; NCOMP]) {
        let a = &self.mats[d];
        for m in 0..NCOMP {
            let mut s = 0.0;
            for l in 0..NCOMP {
                s += a[m][l] * du[l];
            }
            out[m] += s;
        }
    }

    /// One block-tridiagonal solve per line, over the constant implicit
    /// line blocks for direction `axis`.
    fn line_solver(&self, prob: &Problem, axis: usize) -> impl Fn(&FieldView, usize, usize) + Sync {
        let a = &self.mats[axis];
        let r_nu = prob.dt * prob.nu / (prob.h * prob.h);
        let r_adv = prob.dt / (2.0 * prob.h);
        let mut sub = ZERO_MAT;
        let mut diag = ZERO_MAT;
        let mut sup = ZERO_MAT;
        for m in 0..NCOMP {
            for l in 0..NCOMP {
                sub[m][l] = -r_adv * a[m][l];
                sup[m][l] = r_adv * a[m][l];
            }
            sub[m][m] -= r_nu;
            sup[m][m] -= r_nu;
            diag[m][m] = 1.0 + 2.0 * r_nu;
        }
        let interior = prob.n - 2;
        move |view: &FieldView, fixed1: usize, fixed2: usize| {
            let mut a = vec![sub; interior];
            let mut b = vec![diag; interior];
            let mut c = vec![sup; interior];
            a[0] = ZERO_MAT;
            c[interior - 1] = ZERO_MAT;
            let mut r: Vec<Vec5> = (0..interior)
                .map(|t| {
                    let (i, j, k) = line_point(axis, t + 1, fixed1, fixed2);
                    // SAFETY: lines are disjoint across threads.
                    let p = unsafe { view.point(i, j, k) };
                    [p[0], p[1], p[2], p[3], p[4]]
                })
                .collect();
            let ok = block_tridiag_solve(&mut a, &mut b, &mut c, &mut r);
            debug_assert!(ok, "BT line system became singular");
            for (t, v) in r.iter().enumerate() {
                let (i, j, k) = line_point(axis, t + 1, fixed1, fixed2);
                unsafe {
                    view.point_mut(i, j, k).copy_from_slice(v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::npb::Class;
    use arcs_omprt::Runtime;
    use std::sync::Arc;

    fn runtime() -> Arc<Runtime> {
        Arc::new(Runtime::new(4))
    }

    #[test]
    fn error_decreases_monotonically_class_s() {
        let mut bt = BtSolver::new(runtime(), Class::S);
        let mut prev = bt.error_rms();
        assert!(prev > 1e-4, "initial perturbation expected, got {prev}");
        for step in 0..8 {
            bt.step();
            let e = bt.error_rms();
            assert!(e < prev, "step {step}: error rose {prev} -> {e}");
            prev = e;
        }
        // Substantial convergence after 8 steps.
        assert!(prev < bt.error_rms_initial_bound() * 0.7);
    }

    #[test]
    fn boundary_stays_exact() {
        let mut bt = BtSolver::new(runtime(), Class::S);
        bt.run(3);
        let p = bt.prob;
        for &(i, j, k) in &[(0, 3, 4), (11, 5, 6), (4, 0, 9), (7, 11, 2), (5, 8, 0), (2, 3, 11)] {
            assert_eq!(bt.u.at(i, j, k), &p.exact(i, j, k), "boundary moved at {i},{j},{k}");
        }
    }

    #[test]
    fn results_identical_across_schedules() {
        use arcs_omprt::Schedule;
        let mut norms = Vec::new();
        for sched in [Schedule::static_block(), Schedule::dynamic(1), Schedule::guided(2)] {
            let rt = runtime();
            rt.set_schedule(sched);
            let mut bt = BtSolver::new(rt, Class::S);
            bt.run(3);
            norms.push(bt.error_rms());
        }
        assert!((norms[0] - norms[1]).abs() < 1e-13, "{norms:?}");
        assert!((norms[0] - norms[2]).abs() < 1e-13, "{norms:?}");
    }

    #[test]
    fn step_counter_advances() {
        let mut bt = BtSolver::new(runtime(), Class::S);
        bt.run(2);
        assert_eq!(bt.steps_done(), 2);
    }

    impl BtSolver {
        /// Test helper: the initial error magnitude for class S.
        fn error_rms_initial_bound(&self) -> f64 {
            0.02
        }
    }
}
