//! Random search: the standard auto-tuning baseline.
//!
//! Uniform deterministic sampling (without replacement, via a permuted
//! rank sequence) until the evaluation budget is spent. Any serious
//! search strategy has to beat this at equal budget — the ablation bench
//! compares Nelder–Mead and PRO against it.

use super::Search;
use crate::space::{Point, SearchSpace};

pub struct RandomSearch {
    space: SearchSpace,
    /// Multiplicative-congruential walk over ranks (full period for odd
    /// stride co-prime with the modulus neighbourhood).
    next_index: usize,
    stride: usize,
    offset: usize,
    max_evals: usize,
    pending: Option<Point>,
    best: Option<(Point, f64)>,
    evals: usize,
}

impl RandomSearch {
    pub fn new(space: SearchSpace, seed: u64, max_evals: usize) -> Self {
        let size = space.size();
        // Choose a stride co-prime with `size` so the walk visits every
        // rank exactly once before repeating.
        let mut stride = (seed as usize % size.max(1)).max(1) | 1;
        while size > 1 && gcd(stride, size) != 1 {
            stride += 2;
        }
        let offset = (seed.wrapping_mul(0x9E3779B97F4A7C15) >> 33) as usize % size.max(1);
        RandomSearch {
            space,
            next_index: 0,
            stride,
            offset,
            max_evals: max_evals.max(1),
            pending: None,
            best: None,
            evals: 0,
        }
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl Search for RandomSearch {
    fn ask(&mut self) -> Option<Point> {
        if self.pending.is_none() && !self.converged() {
            let rank = (self.offset + self.next_index * self.stride) % self.space.size();
            self.pending = Some(self.space.unrank(rank));
        }
        self.pending
    }

    fn tell(&mut self, value: f64) {
        let p = self.pending.take().expect("tell without pending ask");
        self.evals += 1;
        self.next_index += 1;
        if self.best.as_ref().is_none_or(|(_, b)| value < *b) {
            self.best = Some((p, value));
        }
    }

    fn best(&self) -> Option<(&Point, f64)> {
        self.best.as_ref().map(|(p, v)| (p, *v))
    }

    fn converged(&self) -> bool {
        self.pending.is_none() && (self.evals >= self.max_evals || self.evals >= self.space.size())
    }

    fn evaluations(&self) -> usize {
        self.evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![Param::new("a", 6), Param::new("b", 7)])
    }

    #[test]
    fn visits_distinct_points_without_replacement() {
        let s = space();
        let mut r = RandomSearch::new(s.clone(), 42, 42);
        let mut seen = std::collections::HashSet::new();
        while let Some(p) = r.ask() {
            assert!(seen.insert(s.rank(&p)), "revisited {p:?}");
            r.tell(1.0);
        }
        assert_eq!(seen.len(), 42);
    }

    #[test]
    fn respects_budget_and_tracks_best() {
        let mut r = RandomSearch::new(space(), 7, 10);
        while let Some(p) = r.ask() {
            r.tell((p[0] * 7 + p[1]) as f64);
        }
        assert_eq!(r.evaluations(), 10);
        assert!(r.converged());
        let (_, v) = r.best().unwrap();
        assert!(v >= 0.0);
    }

    #[test]
    fn different_seeds_differ() {
        let first = |seed| {
            let mut r = RandomSearch::new(space(), seed, 5);
            let p = r.ask().unwrap();
            r.tell(0.0);
            p
        };
        // Not all seeds must differ, but these two do by construction.
        assert_ne!(first(3), first(1001));
    }

    #[test]
    fn full_budget_finds_global_minimum() {
        let s = space();
        let mut r = RandomSearch::new(s.clone(), 99, usize::MAX);
        while let Some(p) = r.ask() {
            r.tell((p[0] as f64 - 2.0).powi(2) + (p[1] as f64 - 5.0).powi(2));
        }
        assert_eq!(r.evaluations(), s.size());
        let (best, v) = r.best().unwrap();
        assert_eq!(best[..], [2, 5]);
        assert_eq!(v, 0.0);
    }
}
