//! Parallel Rank Order (PRO) search.
//!
//! Active Harmony's flagship algorithm: a simplex method designed so that
//! every round proposes a *batch* of trial points (one reflection per
//! non-best vertex through the best vertex). On a parallel tuning system
//! the batch is measured concurrently; our sessions measure one region
//! invocation at a time, so the batch is drained sequentially — the rank
//! order logic is unchanged.
//!
//! Per round:
//! 1. reflect every non-best vertex through the best vertex;
//! 2. any reflection that improves its original vertex is accepted; a
//!    reflection that beats the *simplex best* chains an expansion trial;
//! 3. if no reflection was accepted, shrink all non-best vertices toward
//!    the best and re-measure them.
//!
//! Terminates on simplex collapse (diameter below `XTOL`), evaluation
//! budget, or stall.

use super::simplex::{self, Simplex, Tally, Vertex};
use super::Search;
use crate::space::{Coords, Point, SearchSpace};

/// Expansion step multiplier applied on a best-beating reflection.
const EXPAND: f64 = 2.0;
/// Shrink factor toward the best vertex.
const SHRINK: f64 = 0.5;
/// Stop when the simplex L∞ diameter drops below this many grid steps.
const XTOL: f64 = 0.9;
/// Hard cap on evaluations.
const MAX_EVALS: usize = 150;
/// Stop after this many consecutive evaluations without improving the
/// incumbent best.
const STALL_LIMIT: usize = 30;
/// On simplex collapse, rebuild around the incumbent best (with shrinking
/// steps) this many times before declaring convergence.
const MAX_RESEEDS: usize = 2;

#[derive(Debug)]
enum Role {
    Init(usize),
    Reflect(usize),
    Expand { idx: usize },
    ShrinkEval(usize),
}

struct Pending {
    x: Coords,
    role: Role,
}

pub struct ParallelRankOrder {
    space: SearchSpace,
    proto_points: Simplex<Coords>,
    vertices: Simplex<Vertex>,
    pending: Option<Pending>,
    /// Vertices still to reflect this round (indices into `vertices`).
    queue: Vec<usize>,
    /// Did any trial this round improve its vertex?
    round_improved: bool,
    shrink_queue: Vec<usize>,
    init_next: usize,
    tally: Tally,
    reseeds: usize,
    done: bool,
}

impl ParallelRankOrder {
    pub fn new(space: SearchSpace, start: &[usize]) -> Self {
        assert!(space.contains(start), "start point outside the space");
        // Initial simplex: the start point and one axis-stepped vertex per
        // dimension (`dim + 1` vertices, affinely independent, like
        // Nelder–Mead).
        let proto_points = simplex::axis_simplex(&space, &simplex::relax(start), 1.0);
        ParallelRankOrder {
            space,
            proto_points,
            vertices: Simplex::default(),
            pending: None,
            queue: Vec::new(),
            round_improved: false,
            shrink_queue: Vec::new(),
            init_next: 0,
            tally: Tally::default(),
            reseeds: 0,
            done: false,
        }
    }

    fn best_idx(&self) -> usize {
        let mut bi = 0;
        for (i, v) in self.vertices.iter().enumerate() {
            if v.f < self.vertices[bi].f {
                bi = i;
            }
        }
        bi
    }

    fn reflect_through_best(&self, idx: usize, coeff: f64) -> Coords {
        let b = &self.vertices[self.best_idx()].x;
        let v = &self.vertices[idx].x;
        let mut x: Coords = b.iter().zip(v.iter()).map(|(bi, vi)| bi + coeff * (bi - vi)).collect();
        self.space.clamp(&mut x);
        x
    }

    fn start_round(&mut self) {
        if self.tally.exhausted(MAX_EVALS, STALL_LIMIT) {
            self.done = true;
            return;
        }
        let best = &self.vertices[self.best_idx()].x;
        if simplex::diameter(&self.vertices, best) < XTOL {
            if self.reseeds < MAX_RESEEDS {
                self.reseeds += 1;
                self.reseed();
                return;
            }
            self.done = true;
            return;
        }
        let bi = self.best_idx();
        self.queue.clear();
        self.queue.extend((0..self.vertices.len()).filter(|&i| i != bi));
        self.round_improved = false;
        self.next_trial();
    }

    fn next_trial(&mut self) {
        if let Some(idx) = self.queue.pop() {
            let x = self.reflect_through_best(idx, 1.0);
            self.pending = Some(Pending { x, role: Role::Reflect(idx) });
        } else if !self.round_improved {
            // No reflection helped: shrink everyone toward the best.
            let bi = self.best_idx();
            let best = self.vertices[bi].x;
            self.shrink_queue.clear();
            for i in 0..self.vertices.len() {
                if i == bi {
                    continue;
                }
                for (xi, b) in self.vertices[i].x.iter_mut().zip(best.iter()) {
                    *xi = b + SHRINK * (*xi - *b);
                }
                self.shrink_queue.push(i);
            }
            self.next_shrink_eval();
        } else {
            self.start_round();
        }
    }

    fn next_shrink_eval(&mut self) {
        if let Some(idx) = self.shrink_queue.pop() {
            let x = self.vertices[idx].x;
            self.pending = Some(Pending { x, role: Role::ShrinkEval(idx) });
        } else {
            self.start_round();
        }
    }

    /// Rebuild the simplex around the incumbent best with shrinking axis
    /// steps, re-measuring the fresh vertices. Escapes degenerate-subspace
    /// collapse (reflections can never leave an affine subspace the whole
    /// simplex lies in).
    fn reseed(&mut self) {
        let scale = 0.5f64.powi(self.reseeds as i32);
        let x0 = self.tally.best_x().unwrap_or(self.vertices[self.best_idx()].x);
        let fresh = simplex::axis_simplex(&self.space, &x0, scale);
        self.shrink_queue.clear();
        for (i, &x) in fresh.iter().enumerate().take(self.vertices.len()) {
            self.vertices[i] = Vertex { x, f: f64::INFINITY };
            self.shrink_queue.push(i);
        }
        self.next_shrink_eval();
    }
}

impl Search for ParallelRankOrder {
    fn ask(&mut self) -> Option<Point> {
        if self.done {
            return None;
        }
        if let Some(p) = &self.pending {
            return Some(self.space.round(&p.x));
        }
        if self.init_next < self.proto_points.len() {
            let x = self.proto_points[self.init_next];
            self.pending = Some(Pending { x, role: Role::Init(self.init_next) });
            return self.pending.as_ref().map(|p| self.space.round(&p.x));
        }
        self.start_round();
        if self.done {
            return None;
        }
        self.pending.as_ref().map(|p| self.space.round(&p.x))
    }

    fn tell(&mut self, value: f64) {
        let Pending { x, role } = self.pending.take().expect("tell without pending ask");
        self.tally.record(self.space.round(&x), value);

        match role {
            Role::Init(i) => {
                debug_assert_eq!(i, self.vertices.len());
                self.vertices.push(Vertex { x, f: value });
                self.init_next += 1;
            }
            Role::Reflect(idx) => {
                let beat_best = value < self.vertices[self.best_idx()].f;
                if value < self.vertices[idx].f {
                    self.round_improved = true;
                    self.vertices[idx] = Vertex { x, f: value };
                    if beat_best {
                        // Chase the descent direction with an expansion.
                        let xe = self.reflect_through_best(idx, EXPAND);
                        self.pending = Some(Pending { x: xe, role: Role::Expand { idx } });
                        return;
                    }
                }
                self.next_trial();
            }
            Role::Expand { idx } => {
                if value < self.vertices[idx].f {
                    self.vertices[idx] = Vertex { x, f: value };
                }
                self.next_trial();
            }
            Role::ShrinkEval(idx) => {
                self.vertices[idx].f = value;
                self.next_shrink_eval();
            }
        }

        if self.tally.exhausted(MAX_EVALS, STALL_LIMIT) {
            self.done = true;
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

    /// The current simplex population, measured vertices only (shrink
    /// marks vertices awaiting re-evaluation with a non-finite value).
    fn candidates(&self) -> Vec<super::Candidate> {
        simplex::candidates(&self.space, &self.vertices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![Param::new("a", 13), Param::new("b", 13)])
    }

    fn run<F: FnMut(&[usize]) -> f64>(mut s: ParallelRankOrder, mut f: F) -> (Point, f64, usize) {
        while let Some(p) = s.ask() {
            let v = f(&p);
            s.tell(v);
        }
        let (p, v) = s.best().unwrap();
        (*p, v, s.evaluations())
    }

    #[test]
    fn minimises_convex_bowl() {
        let s = ParallelRankOrder::new(space(), &[12, 12]);
        let (best, val, _) = run(s, |p| (p[0] as f64 - 4.0).powi(2) + (p[1] as f64 - 7.0).powi(2));
        assert!(val <= 2.0, "best={best:?} val={val}");
    }

    #[test]
    fn cheaper_than_exhaustive() {
        let sp = space();
        let total = sp.size();
        let s = ParallelRankOrder::new(sp, &[0, 0]);
        let (_, _, evals) = run(s, |p| p[0] as f64 + p[1] as f64);
        assert!(evals < total, "evals={evals} total={total}");
    }

    #[test]
    fn stays_inside_domain() {
        let sp = space();
        let mut s = ParallelRankOrder::new(sp.clone(), &[6, 6]);
        while let Some(p) = s.ask() {
            assert!(sp.contains(&p));
            s.tell((p[0] * 13 + p[1]) as f64);
        }
    }

    #[test]
    fn respects_eval_budget() {
        // The corner optimum deepens with every visit, so the search keeps
        // improving (no stall streak) and never collapses (no reseed): only
        // the budget can stop it.
        let mut calls = 0.0;
        let (mut best, mut streak, mut longest) = (f64::INFINITY, 0, 0);
        let mut s = ParallelRankOrder::new(space(), &[6, 6]);
        while let Some(p) = s.ask() {
            calls += 1.0;
            let v = -((p[0] + p[1]) as f64) - 1e-3 * calls;
            streak = if v < best { 0 } else { streak + 1 };
            (best, longest) = (best.min(v), longest.max(streak));
            s.tell(v);
        }
        assert_eq!(s.evaluations(), MAX_EVALS);
        assert!(longest < STALL_LIMIT, "a stall streak of {longest}");
        assert_eq!(s.reseeds, 0);
    }
}
