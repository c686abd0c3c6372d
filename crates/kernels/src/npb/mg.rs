//! MG: multigrid V-cycle kernel (NPB MG shape).
//!
//! Solves the 3-D Poisson problem `−∇²u = f` (zero-Dirichlet boundaries)
//! with weighted-Jacobi smoothing, full-weighting restriction and
//! trilinear prolongation. The OpenMP structure matches NPB MG: each
//! operator (`psinv` smoother, `resid`, `rprj3` restriction, `interp`
//! prolongation, `norm2u3` reduction) is *one* parallel region invoked at
//! every grid level — so a single region id sees trip counts from `n−2`
//! down to 2 within one V-cycle. That multi-scale invocation pattern is a
//! stress case the paper's per-region tuning model doesn't cover: the
//! coarse-level invocations are microseconds (pure overhead under ARCS)
//! while the fine level is the hot loop.
//!
//! Verification: the V-cycle is a contraction — the residual norm must
//! drop by a healthy factor every cycle.

use arcs_omprt::{RegionId, Runtime, SyncSlice};
use std::sync::Arc;

/// A cubic grid of f64 with `n` points per edge (boundary included).
#[derive(Clone)]
pub struct Grid3 {
    pub n: usize,
    data: Vec<f64>,
}

impl Grid3 {
    pub fn new(n: usize) -> Self {
        Grid3 { n, data: vec![0.0; n * n * n] }
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        (k * self.n + j) * self.n + i
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        let idx = self.idx(i, j, k);
        self.data[idx] = v;
    }

    pub fn view(&mut self) -> SyncSlice<'_, f64> {
        SyncSlice::new(&mut self.data)
    }
}

/// MG grid sizes per class (fine-grid edge, V-cycles to run).
pub fn mg_size(class: super::Class) -> (usize, usize) {
    match class {
        super::Class::S => (17, 4),
        super::Class::W => (33, 4),
        super::Class::A => (65, 6),
        super::Class::B => (129, 10),
        super::Class::C => (257, 10),
    }
}

struct Regions {
    psinv: RegionId,
    resid: RegionId,
    rprj3: RegionId,
    interp: RegionId,
    norm2u3: RegionId,
}

/// The MG application: a hierarchy of grids and the V-cycle driver.
pub struct MgSolver {
    rt: Arc<Runtime>,
    regions: Regions,
    /// Level 0 is the finest.
    u: Vec<Grid3>,
    rhs: Vec<Grid3>,
    res: Vec<Grid3>,
    h2: Vec<f64>,
    pub residual_history: Vec<f64>,
}

impl MgSolver {
    pub fn new(rt: Arc<Runtime>, class: super::Class) -> Self {
        let (n, _) = mg_size(class);
        assert!((n - 1).is_power_of_two() && n >= 5, "edge must be 2^k + 1");
        let regions = Regions {
            psinv: rt.register_region("mg/psinv"),
            resid: rt.register_region("mg/resid"),
            rprj3: rt.register_region("mg/rprj3"),
            interp: rt.register_region("mg/interp"),
            norm2u3: rt.register_region("mg/norm2u3"),
        };
        let mut u = Vec::new();
        let mut rhs = Vec::new();
        let mut res = Vec::new();
        let mut h2 = Vec::new();
        let mut m = n;
        while m >= 5 {
            u.push(Grid3::new(m));
            rhs.push(Grid3::new(m));
            res.push(Grid3::new(m));
            let h = 1.0 / (m - 1) as f64;
            h2.push(h * h);
            m = (m - 1) / 2 + 1;
        }
        // NPB-style right-hand side: a few ±1 point charges, here a smooth
        // deterministic source so the discrete solution is well-behaved.
        let fine = &mut rhs[0];
        let nn = fine.n;
        for k in 1..nn - 1 {
            for j in 1..nn - 1 {
                for i in 1..nn - 1 {
                    let x = i as f64 / (nn - 1) as f64;
                    let y = j as f64 / (nn - 1) as f64;
                    let z = k as f64 / (nn - 1) as f64;
                    let v = (3.0 * std::f64::consts::PI * x).sin()
                        * (2.0 * std::f64::consts::PI * y).sin()
                        * (std::f64::consts::PI * z).sin();
                    fine.set(i, j, k, v);
                }
            }
        }
        MgSolver { rt, regions, u, rhs, res, h2, residual_history: Vec::new() }
    }

    pub fn region_names() -> [&'static str; 5] {
        ["mg/psinv", "mg/resid", "mg/rprj3", "mg/interp", "mg/norm2u3"]
    }

    pub fn levels(&self) -> usize {
        self.u.len()
    }

    /// Weighted-Jacobi smoothing sweeps on level `l` (the `psinv` region).
    fn smooth(&mut self, l: usize, sweeps: usize) {
        let n = self.u[l].n;
        let h2 = self.h2[l];
        const W: f64 = 0.8; // damped Jacobi weight (2/3 ≤ w < 1 converges)
        for _ in 0..sweeps {
            let src = self.u[l].clone();
            let rhs = &self.rhs[l];
            let view = self.u[l].view();
            self.rt.parallel_for(self.regions.psinv, 1..n - 1, |k| {
                for j in 1..n - 1 {
                    for i in 1..n - 1 {
                        let nb = src.get(i - 1, j, k)
                            + src.get(i + 1, j, k)
                            + src.get(i, j - 1, k)
                            + src.get(i, j + 1, k)
                            + src.get(i, j, k - 1)
                            + src.get(i, j, k + 1);
                        let jac = (nb + h2 * rhs.get(i, j, k)) / 6.0;
                        let cur = src.get(i, j, k);
                        // SAFETY: one writer per k-plane.
                        unsafe {
                            *view.get_mut(view_idx(n, i, j, k)) = (1.0 - W) * cur + W * jac;
                        }
                    }
                }
            });
        }
    }

    /// r = rhs + ∇²u on level `l` (the `resid` region).
    fn residual(&mut self, l: usize) {
        let n = self.u[l].n;
        let h2 = self.h2[l];
        let u = &self.u[l];
        let rhs = &self.rhs[l];
        let view = self.res[l].view();
        self.rt.parallel_for(self.regions.resid, 1..n - 1, |k| {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let lap = (u.get(i - 1, j, k)
                        + u.get(i + 1, j, k)
                        + u.get(i, j - 1, k)
                        + u.get(i, j + 1, k)
                        + u.get(i, j, k - 1)
                        + u.get(i, j, k + 1)
                        - 6.0 * u.get(i, j, k))
                        / h2;
                    unsafe {
                        *view.get_mut(view_idx(n, i, j, k)) = rhs.get(i, j, k) + lap;
                    }
                }
            }
        });
    }

    /// Full-weighting restriction of `res[l]` into `rhs[l+1]` (`rprj3`).
    fn restrict(&mut self, l: usize) {
        let nc = self.rhs[l + 1].n;
        let fine = &self.res[l];
        let view = self.rhs[l + 1].view();
        self.rt.parallel_for(self.regions.rprj3, 1..nc - 1, |kc| {
            for jc in 1..nc - 1 {
                for ic in 1..nc - 1 {
                    let (i, j, k) = (2 * ic, 2 * jc, 2 * kc);
                    // 27-point full weighting.
                    let mut s = 0.0;
                    for (dk, wk) in [(-1isize, 0.25f64), (0, 0.5), (1, 0.25)] {
                        for (dj, wj) in [(-1isize, 0.25f64), (0, 0.5), (1, 0.25)] {
                            for (di, wi) in [(-1isize, 0.25f64), (0, 0.5), (1, 0.25)] {
                                s += wi
                                    * wj
                                    * wk
                                    * fine.get(
                                        (i as isize + di) as usize,
                                        (j as isize + dj) as usize,
                                        (k as isize + dk) as usize,
                                    );
                            }
                        }
                    }
                    unsafe { *view.get_mut(view_idx(nc, ic, jc, kc)) = s };
                }
            }
        });
    }

    /// Trilinear prolongation of `u[l+1]` added into `u[l]` (`interp`).
    fn prolongate(&mut self, l: usize) {
        let nf = self.u[l].n;
        let coarse = self.u[l + 1].clone();
        let view = self.u[l].view();
        self.rt.parallel_for(self.regions.interp, 1..nf - 1, |k| {
            for j in 1..nf - 1 {
                for i in 1..nf - 1 {
                    // Trilinear weights from the surrounding coarse cell.
                    let (ci, fi) = (i / 2, (i % 2) as f64 * 0.5);
                    let (cj, fj) = (j / 2, (j % 2) as f64 * 0.5);
                    let (ck, fk) = (k / 2, (k % 2) as f64 * 0.5);
                    let g = |a: usize, b: usize, c: usize| coarse.get(a, b, c);
                    let mut v = 0.0;
                    for (dk, wk) in [(0usize, 1.0 - fk), (1, fk)] {
                        for (dj, wj) in [(0usize, 1.0 - fj), (1, fj)] {
                            for (di, wi) in [(0usize, 1.0 - fi), (1, fi)] {
                                if wi * wj * wk > 0.0 {
                                    v += wi * wj * wk * g(ci + di, cj + dj, ck + dk);
                                }
                            }
                        }
                    }
                    unsafe {
                        let idx = view_idx(nf, i, j, k);
                        *view.get_mut(idx) += v;
                    }
                }
            }
        });
    }

    /// ‖residual‖ on the fine grid (the `norm2u3` reduction region).
    pub fn residual_norm(&mut self) -> f64 {
        self.residual(0);
        let n = self.res[0].n;
        let res = &self.res[0];
        let (ss, _) = self.rt.parallel_reduce(
            self.regions.norm2u3,
            1..n - 1,
            0.0f64,
            |acc, k| {
                let mut s = acc;
                for j in 1..n - 1 {
                    for i in 1..n - 1 {
                        let r = res.get(i, j, k);
                        s += r * r;
                    }
                }
                s
            },
            |a, b| a + b,
        );
        (ss / ((n - 2) as f64).powi(3)).sqrt()
    }

    /// One V-cycle: smooth → restrict down, coarse solve, prolong → smooth
    /// up. Records the post-cycle fine-grid residual norm.
    pub fn v_cycle(&mut self) -> f64 {
        let levels = self.levels();
        // Downstroke.
        for l in 0..levels - 1 {
            self.smooth(l, 2);
            self.residual(l);
            self.restrict(l);
            // Coarse level starts from zero correction.
            let nl = self.u[l + 1].n;
            self.u[l + 1] = Grid3::new(nl);
        }
        // Coarsest: smooth hard (it is only ~5³).
        self.smooth(levels - 1, 20);
        // Upstroke.
        for l in (0..levels - 1).rev() {
            self.prolongate(l);
            self.smooth(l, 2);
        }
        let r = self.residual_norm();
        self.residual_history.push(r);
        r
    }

    pub fn run(&mut self, cycles: usize) {
        for _ in 0..cycles {
            self.v_cycle();
        }
    }
}

#[inline]
fn view_idx(n: usize, i: usize, j: usize, k: usize) -> usize {
    (k * n + j) * n + i
}

#[cfg(test)]
mod tests {
    use super::super::Class;
    use super::*;

    fn runtime() -> Arc<Runtime> {
        Arc::new(Runtime::new(4))
    }

    #[test]
    fn v_cycle_contracts_the_residual() {
        let mut mg = MgSolver::new(runtime(), Class::S);
        let r0 = mg.residual_norm();
        let r1 = mg.v_cycle();
        let r2 = mg.v_cycle();
        assert!(r1 < r0 * 0.5, "first V-cycle must contract hard: {r0} -> {r1}");
        assert!(r2 < r1, "second cycle keeps contracting: {r1} -> {r2}");
    }

    #[test]
    fn hierarchy_has_expected_levels() {
        let mg = MgSolver::new(runtime(), Class::S); // 17 → 9 → 5
        assert_eq!(mg.levels(), 3);
        let mg = MgSolver::new(runtime(), Class::W); // 33 → 17 → 9 → 5
        assert_eq!(mg.levels(), 4);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let run = |threads| {
            let rt = Arc::new(Runtime::new(threads));
            let mut mg = MgSolver::new(rt, Class::S);
            mg.run(2);
            mg.residual_history.last().copied().unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert!((a - b).abs() <= 1e-12 * a.max(1.0), "{a} vs {b}");
    }

    #[test]
    fn solution_stays_zero_on_boundaries() {
        let mut mg = MgSolver::new(runtime(), Class::S);
        mg.run(2);
        let u = &mg.u[0];
        let n = u.n;
        for a in 0..n {
            for b in 0..n {
                assert_eq!(u.get(a, b, 0), 0.0);
                assert_eq!(u.get(0, a, b), 0.0);
                assert_eq!(u.get(a, n - 1, b), 0.0);
            }
        }
    }
}
