//! Exhaustive grid sweep.
//!
//! The strategy behind **ARCS-Offline**: during the training execution every
//! configuration in the (manually reduced) search space is measured; the
//! best one is stored and replayed by later executions. Each point is
//! measured once.

use super::Search;
use crate::space::{Point, SearchSpace};

pub struct Exhaustive {
    space: SearchSpace,
    next_rank: usize,
    pending: Option<Point>,
    best: Option<(Point, f64)>,
}

impl Exhaustive {
    /// Sweep every point once.
    pub fn new(space: SearchSpace) -> Self {
        Exhaustive { space, next_rank: 0, pending: None, best: None }
    }
}

impl Search for Exhaustive {
    fn ask(&mut self) -> Option<Point> {
        if self.pending.is_none() && self.next_rank < self.space.size() {
            self.pending = Some(self.space.unrank(self.next_rank));
        }
        self.pending
    }

    fn tell(&mut self, value: f64) {
        let point = self.pending.take().expect("tell without pending ask");
        self.next_rank += 1;
        if self.best.as_ref().is_none_or(|(_, b)| value < *b) {
            self.best = Some((point, value));
        }
    }

    fn best(&self) -> Option<(&Point, f64)> {
        self.best.as_ref().map(|(p, v)| (p, *v))
    }

    fn converged(&self) -> bool {
        self.pending.is_none() && self.next_rank >= self.space.size()
    }

    fn evaluations(&self) -> usize {
        self.next_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![Param::new("a", 4), Param::new("b", 5)])
    }

    /// Convex-ish objective with minimum at (3, 1).
    fn f(p: &[usize]) -> f64 {
        let a = p[0] as f64 - 3.0;
        let b = p[1] as f64 - 1.0;
        a * a + b * b
    }

    #[test]
    fn finds_global_minimum() {
        let mut s = Exhaustive::new(space());
        while let Some(p) = s.ask() {
            let v = f(&p);
            s.tell(v);
        }
        assert!(s.converged());
        assert_eq!(s.evaluations(), 20);
        let (best, val) = s.best().unwrap();
        assert_eq!(best[..], [3, 1]);
        assert_eq!(val, 0.0);
    }

    #[test]
    fn ask_is_idempotent_until_tell() {
        let mut s = Exhaustive::new(space());
        let a = s.ask().unwrap();
        let b = s.ask().unwrap();
        assert_eq!(a, b);
        s.tell(1.0);
        let c = s.ask().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "tell without pending ask")]
    fn tell_without_ask_panics() {
        let mut s = Exhaustive::new(space());
        s.tell(1.0);
    }
}
