//! What the two simplex methods ([`super::NelderMead`],
//! [`super::ParallelRankOrder`]) share: the vertex, the axis-stepped
//! start simplex both build (and rebuild on restart), the L∞ collapse
//! measure, the observer read-out, and the tally of evaluations,
//! incumbent best and stall count their termination rules read.
//!
//! Coordinates are inline [`Coords`], like [`Point`], and a simplex is an
//! inline array of them, so no step of either method allocates.

use super::Candidate;
use crate::space::{Coords, Point, SearchSpace, MAX_DIM};

/// One simplex vertex in the relaxed (continuous) index space.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Vertex {
    pub x: Coords,
    /// Measured objective; non-finite while a moved vertex awaits
    /// re-evaluation.
    pub f: f64,
}

/// At most a simplex's worth (`MAX_DIM + 1`) of items, inline. It reads
/// as a slice of the items pushed so far.
#[derive(Clone, Copy, Default)]
pub(super) struct Simplex<T> {
    len: usize,
    items: [T; MAX_DIM + 1],
}

impl<T> Simplex<T> {
    /// Append `item`; panics past `MAX_DIM + 1` items.
    pub fn push(&mut self, item: T) {
        self.items[self.len] = item;
        self.len += 1;
    }

    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl<T> std::ops::Deref for Simplex<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T> std::ops::DerefMut for Simplex<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

/// Build a start simplex: `x0` plus one vertex per dimension, stepped by
/// `scale × (domain / 2)` (at least one grid cell) away from the nearer edge.
pub(super) fn axis_simplex(space: &SearchSpace, x0: &Coords, scale: f64) -> Simplex<Coords> {
    let upper = space.upper();
    let mut simplex = Simplex { len: space.dim() + 1, items: [*x0; MAX_DIM + 1] };
    for j in 0..space.dim() {
        let v = &mut simplex.items[j + 1];
        if upper[j] > 0.0 {
            let step = (upper[j] / 2.0 * scale).max(1.0);
            v[j] = if x0[j] + step <= upper[j] { x0[j] + step } else { x0[j] - step };
            v[j] = v[j].clamp(0.0, upper[j]);
        }
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
    pub fn best_x(&self) -> Option<Coords> {
        self.best.as_ref().map(|(p, _)| relax(p))
    }

    /// The hard caps every strategy enforces on every path.
    pub fn exhausted(&self, max_evals: usize, stall_limit: usize) -> bool {
        self.evals >= max_evals || self.stall >= stall_limit
    }
}

/// `point` as relaxed coordinates.
pub(super) fn relax(point: &[usize]) -> Coords {
    point.iter().map(|&i| i as f64).collect()
}
