//! What the two simplex methods ([`super::NelderMead`],
//! [`super::ParallelRankOrder`]) share: the vertex, the axis-stepped
//! start simplex both build (and rebuild on restart), the L∞ collapse
//! measure, the observer read-out, and the tally of evaluations,
//! incumbent best and stall count their termination rules read.

use super::Candidate;
use crate::space::{Point, SearchSpace};

/// One simplex vertex in the relaxed (continuous) index space.
#[derive(Debug, Clone)]
pub(super) struct Vertex {
    pub x: Vec<f64>,
    /// Measured objective; non-finite while a moved vertex awaits
    /// re-evaluation.
    pub f: f64,
}

/// Build a start simplex: `x0` plus one vertex per dimension, stepped by
/// `scale × (domain / 2)` (at least one grid cell) away from the nearer edge.
pub(super) fn axis_simplex(space: &SearchSpace, x0: &[f64], scale: f64) -> Vec<Vec<f64>> {
    let upper = space.upper();
    let mut simplex = vec![x0.to_vec()];
    for j in 0..space.dim() {
        let mut v = x0.to_vec();
        if upper[j] > 0.0 {
            let step = (upper[j] / 2.0 * scale).max(1.0);
            v[j] = if x0[j] + step <= upper[j] { x0[j] + step } else { x0[j] - step };
            v[j] = v[j].clamp(0.0, upper[j]);
        }
        simplex.push(v);
    }
    simplex
}

/// L∞ distance from `center` to the farthest vertex, in grid steps.
pub(super) fn diameter(vertices: &[Vertex], center: &[f64]) -> f64 {
    vertices
        .iter()
        .map(|v| v.x.iter().zip(center).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max))
        .fold(0.0, f64::max)
}

/// The measured vertices, rounded to the grid (a vertex awaiting
/// re-evaluation carries a non-finite value and is left out).
pub(super) fn candidates(space: &SearchSpace, vertices: &[Vertex]) -> Vec<Candidate> {
    vertices
        .iter()
        .filter(|v| v.f.is_finite())
        .map(|v| Candidate { point: space.round(&v.x), value: v.f })
        .collect()
}

/// Evaluations told so far, the incumbent best among them, and how many
/// evaluations in a row failed to improve it.
#[derive(Default)]
pub(super) struct Tally {
    pub evals: usize,
    stall: usize,
    best: Option<(Point, f64)>,
}

impl Tally {
    /// Count one evaluation of `point`.
    pub fn record(&mut self, point: Point, value: f64) {
        self.evals += 1;
        if self.best.as_ref().is_none_or(|(_, b)| value < *b) {
            self.best = Some((point, value));
            self.stall = 0;
        } else {
            self.stall += 1;
        }
    }

    pub fn best(&self) -> Option<(&Point, f64)> {
        self.best.as_ref().map(|(p, v)| (p, *v))
    }

    /// The incumbent best in relaxed coordinates — where a restart
    /// rebuilds the simplex.
    pub fn best_x(&self) -> Option<Vec<f64>> {
        self.best.as_ref().map(|(p, _)| p.iter().map(|&i| i as f64).collect())
    }

    /// The hard caps every strategy enforces on every path.
    pub fn exhausted(&self, max_evals: usize, stall_limit: usize) -> bool {
        self.evals >= max_evals || self.stall >= stall_limit
    }
}
