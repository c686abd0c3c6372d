//! The ADI timestep BT and SP share: solver state, the manufactured
//! forcing, region registration and the five regions of one step.
//!
//! A [`Scheme`] is what tells the two apart: its advection coupling (used
//! by `compute_rhs` and the forcing) and the implicit system it solves
//! along one grid line of each sweep. Everything else — `compute_rhs`, the
//! sweep driver's parallelisation, `add`, the verification norm — is
//! written once here.

use super::{Class, Problem};
use crate::grid::{Field, FieldView, NCOMP};
use arcs_omprt::{RegionId, Runtime};
use std::sync::Arc;

/// One ADI solver's numerics: its advection coupling plus its line
/// systems.
pub trait Scheme: Sync {
    /// Region names in per-step execution order: `compute_rhs`,
    /// `x_solve`, `y_solve`, `z_solve`, `add` (matches the descriptor in
    /// [`crate::model`]).
    const REGIONS: [&'static str; 5];

    fn new(prob: &Problem) -> Self;

    /// The advection coupling `compute_rhs` applies: `out += A_d · du`
    /// for direction `d`.
    fn advect(&self, d: usize, du: &[f64; NCOMP], out: &mut [f64; NCOMP]);

    /// The solver for one grid line of the sweep along `axis`: called as
    /// `solve(rhs, fixed1, fixed2)` (see [`line_point`]), it overwrites the
    /// line's interior in `rhs` with the implicit system's solution.
    fn line_solver(&self, prob: &Problem, axis: usize) -> impl Fn(&FieldView, usize, usize) + Sync;
}

/// An ADI application: state + the five tunable parallel regions.
pub struct Adi<S: Scheme> {
    pub prob: Problem,
    rt: Arc<Runtime>,
    pub(super) u: Field,
    rhs: Field,
    forcing: Field,
    scheme: S,
    regions: [RegionId; 5],
    steps_done: usize,
}

impl<S: Scheme> Adi<S> {
    pub fn new(rt: Arc<Runtime>, class: Class) -> Self {
        let prob = Problem::new(class);
        let n = prob.n;
        let mut u = Field::new(n, n, n);
        let rhs = Field::new(n, n, n);
        let mut forcing = Field::new(n, n, n);
        let scheme = S::new(&prob);

        prob.fill_initial(&mut u);
        // Forcing = L(u*) with the same discrete operators: makes the
        // manufactured solution an exact steady state of the scheme.
        let mut exact = Field::new(n, n, n);
        prob.fill_exact(&mut exact);
        let read = |i: usize, j: usize, k: usize| *exact.at(i, j, k);
        for k in 1..n - 1 {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    *forcing.at_mut(i, j, k) = spatial_operator(&prob, &scheme, &read, i, j, k);
                }
            }
        }

        let regions = S::REGIONS.map(|name| rt.register_region(name));
        Adi { prob, rt, u, rhs, forcing, scheme, regions, steps_done: 0 }
    }

    /// Region names in per-step execution order.
    pub fn region_names() -> [&'static str; 5] {
        S::REGIONS
    }

    /// One ADI timestep: rhs, three sweeps, add.
    pub fn step(&mut self) {
        self.compute_rhs();
        for axis in 0..3 {
            self.sweep(axis);
        }
        self.add();
        self.steps_done += 1;
    }

    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    pub fn steps_done(&self) -> usize {
        self.steps_done
    }

    /// RMS error against the manufactured solution — the verification
    /// metric (must decrease from the perturbed initial state).
    pub fn error_rms(&self) -> f64 {
        let n = self.prob.n;
        let mut ss = 0.0;
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let e = self.prob.exact(i, j, k);
                    let u = self.u.at(i, j, k);
                    for m in 0..NCOMP {
                        let d = u[m] - e[m];
                        ss += d * d;
                    }
                }
            }
        }
        (ss / (n * n * n) as f64).sqrt()
    }

    fn compute_rhs(&mut self) {
        let n = self.prob.n;
        let prob = self.prob;
        let u = &self.u;
        let forcing = &self.forcing;
        let scheme = &self.scheme;
        let read = |i: usize, j: usize, k: usize| *u.at(i, j, k);
        let view = FieldView::new(&mut self.rhs);
        self.rt.parallel_for(self.regions[0], 1..n - 1, |k| {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let lu = spatial_operator(&prob, scheme, &read, i, j, k);
                    let f = forcing.at(i, j, k);
                    // SAFETY: each thread owns distinct k planes.
                    unsafe {
                        let p = view.point_mut(i, j, k);
                        for m in 0..NCOMP {
                            p[m] = prob.dt * (lu[m] - f[m]);
                        }
                    }
                }
            }
        });
    }

    /// Sweep along `axis`: for each perpendicular index pair, solve the
    /// line system in place in `rhs`. The parallel dimension is k for the
    /// x/y sweeps and j for the z sweep (NPB's choice, which is what makes
    /// `z_solve` long-stride); lines are disjoint across threads.
    fn sweep(&mut self, axis: usize) {
        let n = self.prob.n;
        let solve_line = self.scheme.line_solver(&self.prob, axis);
        let view = FieldView::new(&mut self.rhs);
        self.rt.parallel_for(self.regions[1 + axis], 1..n - 1, |outer| {
            for inner in 1..n - 1 {
                solve_line(&view, inner, outer);
            }
        });
    }

    fn add(&mut self) {
        let n = self.prob.n;
        let rhs = &self.rhs;
        let view = FieldView::new(&mut self.u);
        self.rt.parallel_for(self.regions[4], 1..n - 1, |k| {
            for j in 1..n - 1 {
                for i in 1..n - 1 {
                    let d = rhs.at(i, j, k);
                    unsafe {
                        let p = view.point_mut(i, j, k);
                        for m in 0..NCOMP {
                            p[m] += d[m];
                        }
                    }
                }
            }
        });
    }
}

/// Map (line position `t`, perpendicular `fixed1`, parallel-dim `fixed2`)
/// to grid coordinates for each sweep axis. For axes 0 and 1 the parallel
/// dimension is `k`; for axis 2 it is `j`.
#[inline]
pub(super) fn line_point(
    axis: usize,
    t: usize,
    fixed1: usize,
    fixed2: usize,
) -> (usize, usize, usize) {
    match axis {
        0 => (t, fixed1, fixed2), // line along i; fixed j, parallel k
        1 => (fixed1, t, fixed2), // line along j; fixed i, parallel k
        _ => (fixed1, fixed2, t), // line along k; fixed i, parallel j
    }
}

/// Apply the full spatial operator `L(u)` at interior point `(i,j,k)`:
/// `L(u) = −advection + ν∇² − ε₄·D₄` with reduced dissipation stencils next
/// to boundaries (as NPB's `dssp` does).
fn spatial_operator<S: Scheme>(
    prob: &Problem,
    scheme: &S,
    u: &dyn Fn(usize, usize, usize) -> [f64; NCOMP],
    i: usize,
    j: usize,
    k: usize,
) -> [f64; NCOMP] {
    let n = prob.n;
    let h = prob.h;
    let inv2h = 1.0 / (2.0 * h);
    let invh2 = 1.0 / (h * h);
    let center = u(i, j, k);
    let mut out = [0.0; NCOMP];

    for (d, (lo, hi)) in [
        (u(i - 1, j, k), u(i + 1, j, k)),
        (u(i, j - 1, k), u(i, j + 1, k)),
        (u(i, j, k - 1), u(i, j, k + 1)),
    ]
    .into_iter()
    .enumerate()
    {
        // −A_d (u_{+1} − u_{−1}) / 2h
        let mut du = [0.0; NCOMP];
        for (m, dum) in du.iter_mut().enumerate() {
            *dum = -(hi[m] - lo[m]) * inv2h;
        }
        scheme.advect(d, &du, &mut out);
        // ν (u_{+1} − 2u + u_{−1}) / h²
        for m in 0..NCOMP {
            out[m] += prob.nu * (hi[m] - 2.0 * center[m] + lo[m]) * invh2;
        }
        // −ε₄ D₄ u, skipping the out-of-range taps near boundaries.
        type Taps = (Option<[f64; NCOMP]>, [f64; NCOMP], [f64; NCOMP], Option<[f64; NCOMP]>);
        let (m2, m1, p1, p2): Taps = match d {
            0 => (
                (i >= 2).then(|| u(i - 2, j, k)),
                u(i - 1, j, k),
                u(i + 1, j, k),
                (i + 2 < n).then(|| u(i + 2, j, k)),
            ),
            1 => (
                (j >= 2).then(|| u(i, j - 2, k)),
                u(i, j - 1, k),
                u(i, j + 1, k),
                (j + 2 < n).then(|| u(i, j + 2, k)),
            ),
            _ => (
                (k >= 2).then(|| u(i, j, k - 2)),
                u(i, j, k - 1),
                u(i, j, k + 1),
                (k + 2 < n).then(|| u(i, j, k + 2)),
            ),
        };
        for m in 0..NCOMP {
            let mut d4 = 6.0 * center[m] - 4.0 * m1[m] - 4.0 * p1[m];
            if let Some(v) = m2 {
                d4 += v[m];
            }
            if let Some(v) = p2 {
                d4 += v[m];
            }
            out[m] -= prob.eps4 * d4;
        }
    }
    out
}
