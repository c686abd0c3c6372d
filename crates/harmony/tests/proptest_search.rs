//! Property tests for the search engine: domain safety, convergence,
//! optimality of the exhaustive sweep, and serialisation.

use arcs_harmony::{
    History, NelderMead, ParallelRankOrder, Param, Search, SearchSpace, Session, StrategyKind,
};
use proptest::prelude::*;

/// The evaluation budgets the two simplex strategies hold as constants.
const NM_MAX_EVALS: usize = 120;
const PRO_MAX_EVALS: usize = 150;

fn arb_space() -> impl Strategy<Value = SearchSpace> {
    proptest::collection::vec(1usize..8, 1..4).prop_map(|levels| {
        SearchSpace::new(
            levels.into_iter().enumerate().map(|(i, l)| Param::new(format!("p{i}"), l)).collect(),
        )
    })
}

/// A deterministic pseudo-random objective derived from the point.
fn objective(seed: u64, p: &[usize]) -> f64 {
    let mut h = seed ^ 0x9E3779B97F4A7C15;
    for &x in p {
        h = (h ^ x as u64).wrapping_mul(0x100000001B3);
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

proptest! {
    /// rank/unrank are inverse bijections over the whole grid.
    #[test]
    fn rank_unrank_bijection(space in arb_space()) {
        for r in 0..space.size() {
            let p = space.unrank(r);
            prop_assert!(space.contains(&p));
            prop_assert_eq!(space.rank(&p), r);
        }
    }

    /// Exhaustive search always finds the global minimum of any objective.
    #[test]
    fn exhaustive_finds_global_minimum(space in arb_space(), seed in any::<u64>()) {
        let mut s = arcs_harmony::Exhaustive::new(space.clone());
        while let Some(p) = s.ask() {
            let v = objective(seed, &p);
            s.tell(v);
        }
        let (best, val) = s.best().unwrap();
        let true_min = space
            .iter_points()
            .map(|p| objective(seed, &p))
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(val, true_min);
        prop_assert_eq!(objective(seed, best), true_min);
    }

    /// Nelder–Mead stays inside the domain, terminates within its budget,
    /// and returns a point at least as good as its start.
    #[test]
    fn nelder_mead_is_safe_and_bounded(space in arb_space(), seed in any::<u64>()) {
        let start = space.unrank(space.size() / 2);
        let start_val = objective(seed, &start);
        let mut nm = NelderMead::new(space.clone(), &start);
        let mut evals = 0;
        while let Some(p) = nm.ask() {
            prop_assert!(space.contains(&p), "out-of-domain proposal {:?}", p);
            nm.tell(objective(seed, &p));
            evals += 1;
            prop_assert!(evals <= 200, "runaway ask/tell loop");
        }
        prop_assert!(nm.converged());
        prop_assert!(evals <= NM_MAX_EVALS);
        let (_, best_val) = nm.best().unwrap();
        prop_assert!(best_val <= start_val + 1e-12);
    }

    /// Same guarantees for Parallel Rank Order.
    #[test]
    fn pro_is_safe_and_bounded(space in arb_space(), seed in any::<u64>()) {
        let start = space.unrank(0);
        let mut pro = ParallelRankOrder::new(space.clone(), &start);
        let mut evals = 0;
        while let Some(p) = pro.ask() {
            prop_assert!(space.contains(&p));
            pro.tell(objective(seed, &p));
            evals += 1;
            prop_assert!(evals <= 200);
        }
        prop_assert!(pro.converged());
        prop_assert!(evals <= PRO_MAX_EVALS);
    }

    /// Sessions never hand out more *real* measurements than the space has
    /// points (caching folds repeats), and converge for every strategy.
    #[test]
    fn sessions_converge_with_bounded_real_runs(
        space in arb_space(),
        seed in any::<u64>(),
        strategy_pick in 0usize..3,
    ) {
        let strategy = match strategy_pick {
            0 => StrategyKind::exhaustive(),
            1 => StrategyKind::nelder_mead(),
            _ => StrategyKind::parallel_rank_order(),
        };
        let start = space.unrank(space.size() - 1);
        let mut session = Session::new(space.clone(), strategy, start);
        let mut real_runs = 0;
        for _ in 0..10_000 {
            if session.converged() {
                break;
            }
            let p = session.next_point();
            if session.awaiting_report() {
                real_runs += 1;
                session.report(objective(seed, &p));
            }
        }
        prop_assert!(session.converged(), "session failed to converge");
        if strategy_pick != 0 {
            // Caching bounds simplex strategies by the grid size.
            prop_assert!(real_runs <= space.size().max(4) * 2,
                "real runs {} vs grid {}", real_runs, space.size());
        } else {
            prop_assert_eq!(real_runs, space.size());
        }
        prop_assert!(space.contains(&session.best_point()));
    }

    /// History serialisation round-trips arbitrary entries.
    #[test]
    fn history_roundtrip(
        entries in proptest::collection::btree_map(
            "[a-z_]{1,12}",
            (0usize..64, 0.0f64..1e6, 0usize..1000),
            0..8,
        ),
        context in "[a-zA-Z0-9._-]{0,24}",
    ) {
        let mut h: History<usize> = History::new(context);
        for (name, (cfg, value, evals)) in &entries {
            h.insert(name.clone(), *cfg, *value, *evals);
        }
        let back: History<usize> = History::from_json(&h.to_json()).unwrap();
        prop_assert_eq!(back.len(), h.len());
        for (name, (cfg, _, evals)) in &entries {
            let e = back.get(name).unwrap();
            prop_assert_eq!(&e.config, cfg);
            prop_assert_eq!(&e.evaluations, evals);
        }
    }
}
