//! Nelder–Mead simplex search on the index-grid relaxation.
//!
//! The strategy behind **ARCS-Online**. The discrete grid is relaxed to the
//! box `[0, levels-1]^d`; the classic Nelder–Mead moves (reflection,
//! expansion, outside/inside contraction, shrink) run in the relaxed space,
//! and every proposal is rounded to the nearest grid point for measurement —
//! the approach Active Harmony takes for enumerated domains.
//!
//! Because a tuning session measures one region invocation at a time, the
//! algorithm is written as an ask/tell state machine: each `ask` emits the
//! single point the classic algorithm would evaluate next, and `tell`
//! advances the simplex.

use super::simplex::{self, Simplex, Tally, Vertex};
use super::Search;
use crate::space::{Coords, Point, SearchSpace};

/// Reflection coefficient (α > 0).
const ALPHA: f64 = 1.0;
/// Expansion coefficient (γ > 1).
const GAMMA: f64 = 2.0;
/// Contraction coefficient (0 < ρ ≤ 0.5).
const RHO: f64 = 0.5;
/// Shrink coefficient (0 < σ < 1).
const SIGMA: f64 = 0.5;
/// Stop when the simplex diameter (L∞) drops below this many grid steps.
const XTOL: f64 = 0.9;
/// Hard cap on evaluations.
const MAX_EVALS: usize = 120;
/// Stop after this many consecutive evaluations without improving the
/// incumbent best.
const STALL_LIMIT: usize = 25;
/// When the simplex collapses (`XTOL`), restart it around the incumbent
/// best with halved steps this many times before declaring convergence.
/// This is the standard "oriented restart" remedy for premature collapse
/// on clamped/rounded domains.
const MAX_RESTARTS: usize = 1;

#[derive(Debug)]
enum Role {
    /// Filling the initial simplex, vertex index.
    Init(usize),
    Reflect {
        centroid: Coords,
    },
    Expand {
        xr: Coords,
        fr: f64,
    },
    ContractOutside {
        xr: Coords,
        fr: f64,
    },
    ContractInside,
    /// Re-evaluating shrunken vertex `idx` (1..=dim).
    Shrink(usize),
}

struct Pending {
    x: Coords,
    role: Role,
}

pub struct NelderMead {
    space: SearchSpace,
    simplex: Simplex<Vertex>,
    proto: Simplex<Coords>,
    pending: Option<Pending>,
    init_next: usize,
    tally: Tally,
    restarts: usize,
    /// Per-dimension step used to build the (re)start simplex.
    step_scale: f64,
    done: bool,
}

impl NelderMead {
    /// Start a search from `start` (typically the default configuration).
    pub fn new(space: SearchSpace, start: &[usize]) -> Self {
        assert!(space.contains(start), "start point outside the space");
        let proto = simplex::axis_simplex(&space, &simplex::relax(start), 1.0);
        NelderMead {
            space,
            simplex: Simplex::default(),
            proto,
            pending: None,
            init_next: 0,
            tally: Tally::default(),
            restarts: 0,
            step_scale: 1.0,
            done: false,
        }
    }

    fn sort_simplex(&mut self) {
        self.simplex.sort_by(|a, b| a.f.partial_cmp(&b.f).unwrap_or(std::cmp::Ordering::Equal));
    }

    fn check_termination(&mut self) {
        if self.tally.exhausted(MAX_EVALS, STALL_LIMIT) {
            self.done = true;
            return;
        }
        let collapsed = self.simplex.len() == self.space.dim() + 1
            && simplex::diameter(&self.simplex, &self.simplex[0].x) < XTOL;
        if collapsed {
            if self.restarts < MAX_RESTARTS {
                // Oriented restart: new simplex around the incumbent best
                // with halved steps.
                self.restarts += 1;
                self.step_scale *= 0.5;
                let x0 = self.tally.best_x().unwrap_or(self.simplex[0].x);
                self.proto = simplex::axis_simplex(&self.space, &x0, self.step_scale);
                self.simplex.clear();
                self.init_next = 0;
            } else {
                self.done = true;
            }
        }
    }

    /// Centroid of all vertices except the worst (assumes sorted simplex).
    fn centroid(&self) -> Coords {
        let n = self.simplex.len() - 1;
        let mut c = Coords::zeros(self.space.dim());
        for v in &self.simplex[..n] {
            for (ci, xi) in c.iter_mut().zip(v.x.iter()) {
                *ci += xi;
            }
        }
        for ci in c.iter_mut() {
            *ci /= n as f64;
        }
        c
    }

    fn propose(&self, centroid: &Coords, coeff: f64) -> Coords {
        // x = centroid + coeff * (centroid - worst)
        let worst = &self.simplex.last().unwrap().x;
        let mut x: Coords =
            centroid.iter().zip(worst.iter()).map(|(c, w)| c + coeff * (c - w)).collect();
        self.space.clamp(&mut x);
        x
    }

    fn begin_iteration(&mut self) {
        self.sort_simplex();
        self.check_termination();
        if self.done || self.init_next < self.proto.len() {
            // Terminated, or an oriented restart re-entered the init phase.
            return;
        }
        let centroid = self.centroid();
        let xr = self.propose(&centroid, ALPHA);
        self.pending = Some(Pending { x: xr, role: Role::Reflect { centroid } });
    }

    fn begin_shrink(&mut self) {
        // Shrink every non-best vertex toward the best, then re-evaluate
        // them one at a time (roles Shrink(1..=dim)).
        let best = self.simplex[0].x;
        for v in &mut self.simplex[1..] {
            for (xi, bi) in v.x.iter_mut().zip(best.iter()) {
                *xi = bi + SIGMA * (*xi - *bi);
            }
            v.f = f64::NAN;
        }
        let x = self.simplex[1].x;
        self.pending = Some(Pending { x, role: Role::Shrink(1) });
    }
}

impl Search for NelderMead {
    fn ask(&mut self) -> Option<Point> {
        loop {
            if self.done {
                return None;
            }
            if let Some(p) = &self.pending {
                return Some(self.space.round(&p.x));
            }
            if self.init_next < self.proto.len() {
                let x = self.proto[self.init_next];
                self.pending = Some(Pending { x, role: Role::Init(self.init_next) });
                continue;
            }
            self.begin_iteration();
            // begin_iteration either terminated, produced a pending point,
            // or triggered an oriented restart (init phase re-entered);
            // loop to handle all three.
        }
    }

    fn tell(&mut self, value: f64) {
        let Pending { x, role } = self.pending.take().expect("tell without pending ask");
        self.tally.record(self.space.round(&x), value);

        match role {
            Role::Init(i) => {
                debug_assert_eq!(i, self.simplex.len());
                self.simplex.push(Vertex { x, f: value });
                self.init_next += 1;
                if self.init_next >= self.proto.len() {
                    // Simplex complete; next ask starts iterating.
                    self.sort_simplex();
                }
            }
            Role::Reflect { centroid } => {
                let f_best = self.simplex[0].f;
                let n = self.simplex.len();
                let f_second_worst = self.simplex[n - 2].f;
                let f_worst = self.simplex[n - 1].f;
                if value < f_best {
                    // Try expanding further along the same direction.
                    let xe = self.propose(&centroid, ALPHA * GAMMA);
                    self.pending = Some(Pending { x: xe, role: Role::Expand { xr: x, fr: value } });
                } else if value < f_second_worst {
                    *self.simplex.last_mut().unwrap() = Vertex { x, f: value };
                } else if value < f_worst {
                    // Outside contraction: between centroid and reflection.
                    let xc = self.propose(&centroid, ALPHA * RHO);
                    self.pending =
                        Some(Pending { x: xc, role: Role::ContractOutside { xr: x, fr: value } });
                } else {
                    // Inside contraction: between centroid and worst.
                    let xc = self.propose(&centroid, -RHO);
                    self.pending = Some(Pending { x: xc, role: Role::ContractInside });
                }
            }
            Role::Expand { xr, fr } => {
                let v = if value < fr { Vertex { x, f: value } } else { Vertex { x: xr, f: fr } };
                *self.simplex.last_mut().unwrap() = v;
            }
            Role::ContractOutside { xr, fr } => {
                if value <= fr {
                    *self.simplex.last_mut().unwrap() = Vertex { x, f: value };
                } else {
                    self.simplex.last_mut().map(|w| *w = Vertex { x: xr, f: fr }).unwrap();
                    self.begin_shrink();
                }
            }
            Role::ContractInside => {
                let f_worst = self.simplex.last().unwrap().f;
                if value < f_worst {
                    *self.simplex.last_mut().unwrap() = Vertex { x, f: value };
                } else {
                    self.begin_shrink();
                }
            }
            Role::Shrink(idx) => {
                self.simplex[idx].f = value;
                debug_assert_eq!(self.space.round(&self.simplex[idx].x), self.space.round(&x));
                if idx + 1 < self.simplex.len() {
                    let xn = self.simplex[idx + 1].x;
                    self.pending = Some(Pending { x: xn, role: Role::Shrink(idx + 1) });
                }
            }
        }

        // The evaluation budget and stall limit are hard caps enforced on
        // every path, even mid-move (the simplex state is simply abandoned).
        if self.tally.exhausted(MAX_EVALS, STALL_LIMIT) {
            self.done = true;
            self.pending = None;
        }
    }

    fn best(&self) -> Option<(&Point, f64)> {
        self.tally.best()
    }

    fn converged(&self) -> bool {
        self.done
    }

    fn evaluations(&self) -> usize {
        self.tally.evals
    }

    /// The current simplex, measured vertices only (shrink marks vertices
    /// awaiting re-evaluation with a non-finite value).
    fn candidates(&self) -> Vec<super::Candidate> {
        simplex::candidates(&self.space, &self.simplex)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![Param::new("a", 17), Param::new("b", 17), Param::new("c", 9)])
    }

    fn run<F: FnMut(&[usize]) -> f64>(mut nm: NelderMead, mut f: F) -> (Point, f64, usize) {
        while let Some(p) = nm.ask() {
            let v = f(&p);
            nm.tell(v);
        }
        let (p, v) = nm.best().unwrap();
        (*p, v, nm.evaluations())
    }

    #[test]
    fn minimises_convex_bowl() {
        let s = space();
        let nm = NelderMead::new(s, &[16, 0, 8]);
        let (best, val, evals) = run(nm, |p| {
            let a = p[0] as f64 - 5.0;
            let b = p[1] as f64 - 9.0;
            let c = p[2] as f64 - 2.0;
            a * a + b * b + c * c
        });
        // NM on a rounded grid should land at or adjacent to the optimum.
        assert!(val <= 3.0, "best={best:?} val={val} evals={evals}");
        assert!(evals <= MAX_EVALS);
    }

    #[test]
    fn far_fewer_evaluations_than_exhaustive() {
        let s = space();
        let total = s.size();
        let nm = NelderMead::new(s, &[0, 0, 0]);
        let (_, _, evals) = run(nm, |p| (p[0] as f64 - 8.0).powi(2) + p[1] as f64 + p[2] as f64);
        assert!(evals < total / 4, "evals={evals} space={total}");
    }

    #[test]
    fn stays_inside_domain() {
        let s = space();
        let mut nm = NelderMead::new(s.clone(), &[16, 16, 8]);
        while let Some(p) = nm.ask() {
            assert!(s.contains(&p), "proposed out-of-domain point {p:?}");
            nm.tell(p.iter().map(|&i| i as f64).sum());
        }
    }

    #[test]
    fn handles_single_level_params() {
        let s = SearchSpace::new(vec![Param::new("fixed", 1), Param::new("free", 21)]);
        let nm = NelderMead::new(s, &[0, 20]);
        let (best, val, _) = run(nm, |p| (p[1] as f64 - 4.0).abs());
        assert_eq!(best[0], 0);
        // From f=16 at the start point NM must get close to the optimum;
        // exact convergence is not guaranteed on a rounded 1-D slice.
        assert!(val <= 2.0, "best={best:?} val={val}");
    }

    #[test]
    fn respects_max_evals() {
        // Every measurement improves on the last, so the stall rule never
        // fires: only the budget can stop the search.
        let mut calls = 0.0;
        let nm = NelderMead::new(space(), &[0, 0, 0]);
        let (_, _, evals) = run(nm, |_| {
            calls += 1.0;
            -calls
        });
        assert_eq!(evals, MAX_EVALS);
    }

    #[test]
    fn stall_limit_terminates_flat_objective() {
        // Nothing ever beats the first measurement: the stall rule stops
        // the search once that many evaluations follow it.
        let nm = NelderMead::new(space(), &[8, 8, 4]);
        let (_, _, evals) = run(nm, |_| 42.0);
        assert_eq!(evals, STALL_LIMIT + 1, "flat objective should stall out");
    }

    #[test]
    fn survives_noisy_objective() {
        let s = space();
        let nm = NelderMead::new(s, &[16, 16, 0]);
        let mut i = 0u64;
        let (best, _, _) = run(nm, |p| {
            i = i.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let noise = ((i >> 33) as f64 / (1u64 << 31) as f64) * 0.3;
            (p[0] as f64 - 3.0).powi(2) + (p[1] as f64 - 3.0).powi(2) + noise
        });
        // With 30% noise we still expect to land in the neighbourhood.
        assert!(best[0] <= 8 && best[1] <= 8, "best={best:?}");
    }
}
