//! SP: scalar-pentadiagonal ADI solver.
//!
//! The five components are decoupled (per-component scalar advection
//! speeds), and the 4th-order dissipation is treated *implicitly* — which
//! widens each implicit line system to five scalar bands per component:
//! NPB SP's defining trait. The timestep is the ADI step [BT](super::bt)
//! runs too — `compute_rhs` / `x_solve` / `y_solve` / `z_solve` parallel
//! over k, k, k, j respectively, plus `add` — with SP's coupling and line
//! systems plugged in.
//!
//! SP's paper-relevant personality: good load balance but *poor cache
//! behaviour* (larger per-point state traffic in the penta sweeps and no
//! blocking), which is where ARCS finds its 26–40% headroom.

use super::adi::{line_point, Adi, Scheme};
use super::Problem;
use crate::grid::{FieldView, NCOMP};
use crate::linalg::penta_solve;

/// The SP application: state + the five tunable parallel regions.
pub type SpSolver = Adi<Sp>;

/// Per-direction, per-component scalar advection speeds.
pub struct Sp {
    speeds: [[f64; NCOMP]; 3],
}

impl Scheme for Sp {
    const REGIONS: [&'static str; 5] =
        ["sp/compute_rhs", "sp/x_solve", "sp/y_solve", "sp/z_solve", "sp/add"];

    fn new(prob: &Problem) -> Self {
        Sp { speeds: prob.speeds }
    }

    fn advect(&self, d: usize, du: &[f64; NCOMP], out: &mut [f64; NCOMP]) {
        for m in 0..NCOMP {
            out[m] += self.speeds[d][m] * du[m];
        }
    }

    /// Five scalar pentadiagonal solves per grid line (advection +
    /// diffusion + implicit 4th-order dissipation).
    fn line_solver(&self, prob: &Problem, axis: usize) -> impl Fn(&FieldView, usize, usize) + Sync {
        let interior = prob.n - 2;
        let speeds = self.speeds[axis];
        let r_nu = prob.dt * prob.nu / (prob.h * prob.h);
        let r_adv = prob.dt / (2.0 * prob.h);
        let r_e4 = prob.dt * prob.eps4;
        move |view: &FieldView, fixed1: usize, fixed2: usize| {
            let mut e = vec![0.0; interior];
            let mut a = vec![0.0; interior];
            let mut b = vec![0.0; interior];
            let mut c = vec![0.0; interior];
            let mut f = vec![0.0; interior];
            let mut r = vec![0.0; interior];
            for m in 0..NCOMP {
                let cm = speeds[m];
                for t in 0..interior {
                    e[t] = if t >= 2 { r_e4 } else { 0.0 };
                    a[t] = if t >= 1 { -(cm * r_adv + r_nu + 4.0 * r_e4) } else { 0.0 };
                    b[t] = 1.0 + 2.0 * r_nu + 6.0 * r_e4;
                    c[t] = if t + 1 < interior { cm * r_adv - (r_nu + 4.0 * r_e4) } else { 0.0 };
                    f[t] = if t + 2 < interior { r_e4 } else { 0.0 };
                    let (i, j, k) = line_point(axis, t + 1, fixed1, fixed2);
                    // SAFETY: lines are disjoint across threads.
                    r[t] = unsafe { view.get(i, j, k, m) };
                }
                let ok = penta_solve(&mut e, &mut a, &mut b, &mut c, &mut f, &mut r);
                debug_assert!(ok, "SP line system became singular");
                for (t, &v) in r.iter().enumerate() {
                    let (i, j, k) = line_point(axis, t + 1, fixed1, fixed2);
                    unsafe { view.set(i, j, k, m, v) };
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
        let mut sp = SpSolver::new(runtime(), Class::S);
        let mut prev = sp.error_rms();
        assert!(prev > 1e-4);
        for step in 0..8 {
            sp.step();
            let e = sp.error_rms();
            assert!(e < prev, "step {step}: error rose {prev} -> {e}");
            prev = e;
        }
    }

    #[test]
    fn boundary_stays_exact() {
        let mut sp = SpSolver::new(runtime(), Class::S);
        sp.run(3);
        let p = sp.prob;
        for &(i, j, k) in &[(0, 1, 2), (11, 4, 4), (3, 0, 7), (6, 11, 1), (9, 2, 0), (5, 5, 11)] {
            assert_eq!(sp.u.at(i, j, k), &p.exact(i, j, k));
        }
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let mut norms = Vec::new();
        for threads in [1, 2, 4] {
            let rt = Arc::new(Runtime::new(threads));
            let mut sp = SpSolver::new(rt, Class::S);
            sp.run(3);
            norms.push(sp.error_rms());
        }
        assert!((norms[0] - norms[1]).abs() < 1e-13, "{norms:?}");
        assert!((norms[0] - norms[2]).abs() < 1e-13, "{norms:?}");
    }

    #[test]
    fn w_class_also_converges() {
        let mut sp = SpSolver::new(runtime(), Class::W);
        let before = sp.error_rms();
        sp.run(3);
        assert!(sp.error_rms() < before);
    }
}
