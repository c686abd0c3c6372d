//! Tuning sessions: the client-facing ask/tell loop.
//!
//! ARCS creates one [`Session`] per parallel region (lazily, on the first
//! `parallel_begin` for that region). The session wraps a search strategy
//! and adds the practical machinery Active Harmony clients rely on:
//!
//! * **Result caching** — continuous strategies frequently re-propose a grid
//!   point that was already measured; with caching enabled (the default for
//!   deterministic backends) the cached value is fed back to the strategy
//!   without burning a region invocation.
//! * **Post-convergence behaviour** — once converged, `next_point` returns
//!   the best configuration forever (the paper: "if tuning has converged,
//!   \[set\] the converged values").

use crate::space::{Point, SearchSpace};
use crate::strategies::{
    Exhaustive, NelderMead, ParallelRankOrder, RandomSearch, Search, SearchStep,
};
use std::collections::HashMap;

/// Callback invoked after every measurement the strategy processes —
/// real runs *and* cached replays — with a [`SearchStep`] snapshot.
pub type SessionObserver = Box<dyn FnMut(&SearchStep<'_>) + Send>;

/// Which search algorithm a session runs. The coefficients and budgets of
/// each strategy are constants beside its implementation.
#[derive(Debug, Clone)]
pub enum StrategyKind {
    /// Full sweep (ARCS-Offline training).
    Exhaustive,
    /// Nelder–Mead simplex (ARCS-Online).
    NelderMead,
    /// Parallel Rank Order.
    ParallelRankOrder,
    /// Uniform random sampling (the ablation baseline): `seed`,
    /// `max_evals`.
    Random { seed: u64, max_evals: usize },
}

impl StrategyKind {
    pub fn exhaustive() -> Self {
        StrategyKind::Exhaustive
    }

    pub fn nelder_mead() -> Self {
        StrategyKind::NelderMead
    }

    pub fn parallel_rank_order() -> Self {
        StrategyKind::ParallelRankOrder
    }

    pub fn random(seed: u64, max_evals: usize) -> Self {
        StrategyKind::Random { seed, max_evals }
    }
}

/// Build the boxed strategy `kind` describes, seeded at `start`.
fn build_search(space: &SearchSpace, kind: &StrategyKind, start: &Point) -> Box<dyn Search> {
    match kind {
        StrategyKind::Exhaustive => Box::new(Exhaustive::new(space.clone())),
        StrategyKind::NelderMead => Box::new(NelderMead::new(space.clone(), start)),
        StrategyKind::ParallelRankOrder => Box::new(ParallelRankOrder::new(space.clone(), start)),
        StrategyKind::Random { seed, max_evals } => {
            Box::new(RandomSearch::new(space.clone(), *seed, *max_evals))
        }
    }
}

/// A tuning session for one tunable entity (one parallel region, in ARCS).
pub struct Session {
    space: SearchSpace,
    search: Box<dyn Search>,
    /// Kept so [`Session::restart`] can rebuild the strategy.
    strategy: StrategyKind,
    cache: Option<HashMap<usize, f64>>,
    pending: Option<Point>,
    fallback: Point,
    observer: Option<SessionObserver>,
    restarts: u32,
}

impl Session {
    /// Create a session. `start` seeds simplex strategies (ARCS uses the
    /// default configuration) and serves as the fallback point if the
    /// search converges without any measurement.
    pub fn new(space: SearchSpace, strategy: StrategyKind, start: impl Into<Point>) -> Self {
        let start = start.into();
        assert!(space.contains(&start), "start point outside the space");
        let search = build_search(&space, &strategy, &start);
        // A sweep proposes each point once, so a cache could only answer
        // the rerun after a `restart`; that rerun re-measures the grid
        // instead of replaying values taken before the rejection streak
        // that restarted it.
        let cache = match strategy {
            StrategyKind::Exhaustive => None,
            _ => Some(HashMap::new()),
        };
        Session {
            space,
            search,
            strategy,
            cache,
            pending: None,
            fallback: start,
            observer: None,
            restarts: 0,
        }
    }

    /// Throw away the current search state and reseed the strategy at the
    /// best point measured so far (the original start if nothing was).
    ///
    /// This is the recovery move for a search whose candidate set was
    /// poisoned — e.g. a Nelder–Mead simplex assembled while a fault plan
    /// was spiking the timer. The unreported pending point is discarded.
    /// Accepted measurements survive in the replay cache, so the fresh
    /// strategy fast-forwards through every configuration already known
    /// without burning real region invocations.
    pub fn restart(&mut self) {
        let start = self.best_point();
        self.search = build_search(&self.space, &self.strategy, &start);
        self.pending = None;
        self.restarts += 1;
    }

    /// How many times [`Session::restart`] has fired.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Observe every measurement the strategy processes: the callback
    /// fires after each `tell` — including cached replays, which advance
    /// the search without a real region run — with the strategy's
    /// post-step state (incumbent best, candidate set).
    pub fn with_observer(mut self, observer: impl FnMut(&SearchStep<'_>) + Send + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Fire the observer for the measurement just processed for `point`.
    fn notify(&mut self, point: &Point, value: f64) {
        let Session { search, observer, .. } = self;
        let Some(obs) = observer.as_mut() else {
            return;
        };
        let candidates = search.candidates();
        let Some((best_point, best_value)) = search.best() else {
            return;
        };
        obs(&SearchStep {
            point,
            value,
            best_point,
            best_value,
            evaluations: search.evaluations(),
            converged: search.converged(),
            candidates: &candidates,
        });
    }

    /// The configuration to use for the next invocation. Before convergence
    /// this drives the search; after convergence it is the best point found.
    pub fn next_point(&mut self) -> Point {
        if let Some(p) = self.pending {
            return p;
        }
        loop {
            match self.search.ask() {
                None => return self.best_point(),
                Some(p) => {
                    if let Some(cache) = &self.cache {
                        if let Some(&v) = cache.get(&self.space.rank(&p)) {
                            // Known point: replay the cached measurement and
                            // let the strategy advance without a real run.
                            self.search.tell(v);
                            self.notify(&p, v);
                            continue;
                        }
                    }
                    self.pending = Some(p);
                    return p;
                }
            }
        }
    }

    /// Report the measurement for the point most recently returned by
    /// [`Session::next_point`] while un-converged. Calls after convergence
    /// (when no point is pending) are ignored — the region keeps running
    /// with the converged configuration and ARCS keeps timing it.
    pub fn report(&mut self, value: f64) {
        let Some(p) = self.pending.take() else {
            return;
        };
        if let Some(cache) = &mut self.cache {
            cache.insert(self.space.rank(&p), value);
        }
        self.search.tell(value);
        self.notify(&p, value);
    }

    /// Is a measurement currently outstanding?
    pub fn awaiting_report(&self) -> bool {
        self.pending.is_some()
    }

    pub fn converged(&self) -> bool {
        self.pending.is_none() && self.search.converged()
    }

    /// Best point observed, or the start point if nothing was measured.
    pub fn best_point(&self) -> Point {
        self.search.best().map_or(self.fallback, |(p, _)| *p)
    }

    /// Best (point, value) observed.
    pub fn best(&self) -> Option<(Point, f64)> {
        self.search.best().map(|(p, v)| (*p, v))
    }

    /// Number of `tell`s the strategy has processed (cached replays count).
    pub fn evaluations(&self) -> usize {
        self.search.evaluations()
    }

    pub fn space(&self) -> &SearchSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![Param::new("a", 6), Param::new("b", 6)])
    }

    fn objective(p: &[usize]) -> f64 {
        (p[0] as f64 - 2.0).powi(2) + (p[1] as f64 - 4.0).powi(2)
    }

    fn drive(mut s: Session, budget: usize) -> (Session, usize) {
        let mut real_runs = 0;
        for _ in 0..budget {
            if s.converged() {
                break;
            }
            let p = s.next_point();
            if s.awaiting_report() {
                real_runs += 1;
                s.report(objective(&p));
            }
        }
        (s, real_runs)
    }

    #[test]
    fn exhaustive_session_finds_optimum() {
        let (s, runs) = drive(Session::new(space(), StrategyKind::exhaustive(), vec![5, 0]), 1000);
        assert!(s.converged());
        assert_eq!(runs, 36);
        assert_eq!(s.best_point()[..], [2, 4]);
    }

    #[test]
    fn nm_session_converges_with_cache() {
        let (s, runs) = drive(Session::new(space(), StrategyKind::nelder_mead(), vec![5, 0]), 1000);
        assert!(s.converged());
        // Caching means real runs ≤ strategy evaluations.
        assert!(runs <= s.evaluations());
        let best = s.best_point();
        assert!(objective(&best) <= 2.0, "best={best:?}");
    }

    #[test]
    fn pro_session_converges() {
        let (s, _) =
            drive(Session::new(space(), StrategyKind::parallel_rank_order(), vec![0, 0]), 1000);
        assert!(s.converged());
        let best = s.best_point();
        assert!(objective(&best) <= 4.0, "best={best:?}");
    }

    #[test]
    fn converged_session_replays_best_forever() {
        let (mut s, _) = drive(Session::new(space(), StrategyKind::exhaustive(), vec![0, 0]), 1000);
        let best = s.best_point();
        for _ in 0..5 {
            assert_eq!(s.next_point(), best);
            assert!(!s.awaiting_report());
            s.report(123.0); // ignored
        }
        assert_eq!(s.best_point(), best);
    }

    #[test]
    fn next_point_is_stable_until_report() {
        let mut s = Session::new(space(), StrategyKind::nelder_mead(), vec![0, 0]);
        let a = s.next_point();
        let b = s.next_point();
        assert_eq!(a, b);
        s.report(1.0);
    }

    #[test]
    fn fallback_point_used_when_unmeasured() {
        let s = Session::new(space(), StrategyKind::exhaustive(), vec![3, 3]);
        assert_eq!(s.best_point()[..], [3, 3]);
    }

    #[test]
    fn restart_reseeds_at_best_and_discards_pending() {
        let mut s = Session::new(space(), StrategyKind::nelder_mead(), vec![5, 0]);
        // Feed a few honest measurements.
        for _ in 0..4 {
            let p = s.next_point();
            if s.awaiting_report() {
                s.report(objective(&p));
            }
        }
        let best_before = s.best();
        // A pending ask is outstanding; a poisoned measurement was
        // rejected upstream, so restart instead of reporting.
        let _ = s.next_point();
        s.restart();
        assert_eq!(s.restarts(), 1);
        assert!(!s.awaiting_report(), "restart discards the pending point");
        // The restarted search still converges to a good point, replaying
        // the cached measurements on the way.
        let (s, _) = drive(s, 1000);
        assert!(s.converged());
        let best = s.best().unwrap();
        assert!(best.1 <= best_before.map(|(_, v)| v).unwrap_or(f64::INFINITY));
        assert!(objective(&best.0) <= 2.0, "best={best:?}");
    }

    #[test]
    fn restart_before_any_measurement_reseeds_at_start() {
        let mut s = Session::new(space(), StrategyKind::nelder_mead(), vec![3, 3]);
        s.restart();
        assert_eq!(s.best_point()[..], [3, 3]);
        let (s, _) = drive(s, 1000);
        assert!(s.converged());
    }

    #[test]
    fn observer_sees_every_tell_including_cached_replays() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let steps = Arc::new(AtomicUsize::new(0));
        let last_best = Arc::new(parking_lot::Mutex::new(None::<(Point, f64)>));
        let session = {
            let steps = Arc::clone(&steps);
            let last_best = Arc::clone(&last_best);
            Session::new(space(), StrategyKind::nelder_mead(), vec![5, 0]).with_observer(
                move |step| {
                    steps.fetch_add(1, Ordering::Relaxed);
                    assert!(step.value.is_finite());
                    assert!(step.best_value <= step.value, "best can never exceed a told value");
                    *last_best.lock() = Some((*step.best_point, step.best_value));
                },
            )
        };
        let (s, real_runs) = drive(session, 1000);
        assert!(s.converged());
        // One observer step per strategy evaluation: cached replays count.
        assert_eq!(steps.load(Ordering::Relaxed), s.evaluations());
        assert!(real_runs <= s.evaluations());
        let (best_point, best_value) = last_best.lock().unwrap();
        assert_eq!(s.best().unwrap(), (best_point, best_value));
    }

    #[test]
    fn observer_receives_simplex_candidates_from_nelder_mead() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let max_candidates = Arc::new(AtomicUsize::new(0));
        let session = {
            let max_candidates = Arc::clone(&max_candidates);
            Session::new(space(), StrategyKind::nelder_mead(), vec![5, 0]).with_observer(
                move |step| {
                    max_candidates.fetch_max(step.candidates.len(), Ordering::Relaxed);
                    for c in step.candidates {
                        assert!(c.value.is_finite());
                        assert_eq!(c.point.len(), 2);
                    }
                },
            )
        };
        let (_, _) = drive(session, 1000);
        // Dim+1 = 3 vertices once the initial simplex is measured.
        assert_eq!(max_candidates.load(Ordering::Relaxed), 3);
    }
}
