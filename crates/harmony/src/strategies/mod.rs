//! Search strategy implementations.
//!
//! All strategies speak the same *ask/tell* protocol: `ask` yields the next
//! grid point to measure (or `None` once converged); `tell` reports the
//! objective value (smaller is better — ARCS minimises region execution
//! time) for the most recently asked point. The protocol is sequential
//! because a tuning session measures one region invocation at a time.
//!
//! ARCS runs each search with one setting, so a strategy's coefficients,
//! collapse tolerance, evaluation budget, stall limit and restart count
//! are private constants beside it, and the variants of
//! [`StrategyKind`](crate::StrategyKind) carry no options.

mod exhaustive;
mod nelder_mead;
mod pro;
mod random;
mod simplex;

pub use exhaustive::Exhaustive;
pub use nelder_mead::NelderMead;
pub use pro::ParallelRankOrder;
pub use random::RandomSearch;

use crate::space::Point;

/// One member of a strategy's internal candidate set — a Nelder–Mead
/// simplex vertex, a PRO population member — rounded to the grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    pub point: Point,
    /// Objective value measured at `point`.
    pub value: f64,
}

/// A snapshot handed to observers after each processed measurement: what
/// was measured, the incumbent best, and the strategy's full candidate
/// state (see [`Search::candidates`]).
#[derive(Debug, Clone)]
pub struct SearchStep<'a> {
    /// The point whose measurement was just told.
    pub point: &'a Point,
    /// The value told for `point`.
    pub value: f64,
    pub best_point: &'a Point,
    pub best_value: f64,
    /// `tell`s processed so far, including cached replays.
    pub evaluations: usize,
    pub converged: bool,
    /// The strategy's candidate set after processing the measurement.
    pub candidates: &'a [Candidate],
}

/// Sequential ask/tell minimiser over a discrete grid.
pub trait Search: Send {
    /// Next point to evaluate. Returns `None` once the strategy has
    /// converged. Calling `ask` again without an intervening `tell` returns
    /// the same pending point.
    fn ask(&mut self) -> Option<Point>;

    /// Report the objective value for the last point returned by `ask`.
    ///
    /// # Panics
    /// Panics if no point is pending.
    fn tell(&mut self, value: f64);

    /// Best (point, value) observed so far.
    fn best(&self) -> Option<(&Point, f64)>;

    /// Has the strategy finished searching?
    fn converged(&self) -> bool;

    /// Number of `tell`s processed.
    fn evaluations(&self) -> usize;

    /// The strategy's current candidate set — simplex vertices for the
    /// simplex methods, measured only (unmeasured slots are omitted).
    /// Strategies without persistent candidate state return the default
    /// empty set. This is the observer hook the tracing layer reads to
    /// reconstruct *how* a search converged.
    fn candidates(&self) -> Vec<Candidate> {
        Vec::new()
    }
}
