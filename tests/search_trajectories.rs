//! Cross-commit pin of every search trajectory on the paper's space.
//!
//! Nelder–Mead, PRO, exhaustive and random search run on Crill's
//! 252-point Table I grid against a seeded, bumpy objective, from several
//! start points. Every point a strategy asks for, every value it is told,
//! its candidate set after each step and its final best go into one text
//! stream whose FNV-1a hash is pinned (see `golden/mod.rs`). The simplex
//! methods relax indices to reals, so a change to how they hold or
//! combine coordinates that moves any float moves some rounded point, and
//! the pin fails. The session cells add the replay cache and a restart
//! at the incumbent best.

mod golden;

use arcs::ConfigSpace;
use arcs_harmony::{
    Exhaustive, NelderMead, ParallelRankOrder, Point, RandomSearch, Search, SearchSpace, Session,
    StrategyKind,
};
use arcs_powersim::{splitmix64, Machine};
use std::fmt::Write;

/// Pinned at the commit that introduced this test, before the simplex
/// methods' coordinates moved off the heap.
const TRAJECTORIES: u64 = 0x38b9_ed87_2e52_8590;

fn crill() -> SearchSpace {
    let space = ConfigSpace::crill().to_search_space();
    assert_eq!(space.size(), 252, "Crill's Table I grid");
    space
}

/// A bowl around an off-centre optimum with seeded multiplicative bumps:
/// smooth enough for the simplex to make progress, rough enough that it
/// expands, contracts and shrinks.
fn objective(space: &SearchSpace, seed: u64, p: &[usize]) -> f64 {
    let bowl = (p[0] as f64 - 4.2).powi(2)
        + (p[1] as f64 - 1.3).powi(2) * 3.0
        + (p[2] as f64 - 6.7).powi(2) * 0.5
        + p.get(3).map_or(0.0, |&f| (f as f64 - 2.4).powi(2));
    let u = (splitmix64(seed ^ space.rank(p) as u64) >> 11) as f64 / (1u64 << 53) as f64;
    (1.0 + bowl) * (0.8 + 0.4 * u)
}

fn point(out: &mut String, p: &Point) {
    let _ = write!(out, "{:?}", &p[..]);
}

/// Drive `search` to convergence, writing each ask, tell and candidate
/// set, then the best.
fn trajectory(
    out: &mut String,
    label: &str,
    mut search: Box<dyn Search>,
    f: impl Fn(&[usize]) -> f64,
) {
    let _ = writeln!(out, "== {label}");
    while let Some(p) = search.ask() {
        let v = f(&p);
        point(out, &p);
        let _ = write!(out, " {:016x} |", v.to_bits());
        search.tell(v);
        for c in search.candidates() {
            out.push(' ');
            point(out, &c.point);
            let _ = write!(out, "={:016x}", c.value.to_bits());
        }
        out.push('\n');
    }
    let (best, value) = search.best().expect("every strategy measures something");
    let _ = write!(out, "best ");
    point(out, best);
    let _ = writeln!(out, " {:016x} after {}", value.to_bits(), search.evaluations());
}

#[test]
fn every_strategy_keeps_its_trajectory_on_the_crill_space() {
    let space = crill();
    let mut out = String::new();
    let starts: [[usize; 3]; 3] = [[6, 0, 0], [0, 3, 8], [3, 1, 4]];
    for seed in [1u64, 42, 0xDEAD_BEEF] {
        let f = |p: &[usize]| objective(&space, seed, p);
        for start in &starts {
            let label = |name: &str| format!("{name} seed {seed} start {start:?}");
            trajectory(&mut out, &label("nm"), Box::new(NelderMead::new(space.clone(), start)), f);
            let pro = Box::new(ParallelRankOrder::new(space.clone(), start));
            trajectory(&mut out, &label("pro"), pro, f);
        }
        trajectory(
            &mut out,
            &format!("exhaustive seed {seed}"),
            Box::new(Exhaustive::new(space.clone())),
            f,
        );
        let random = Box::new(RandomSearch::new(space.clone(), seed, 40));
        trajectory(&mut out, &format!("random seed {seed}"), random, f);
    }

    // The DVFS axis makes a fourth dimension, the most a point holds.
    let dvfs = ConfigSpace::with_dvfs(&Machine::crill(), 4).to_search_space();
    assert_eq!(dvfs.dim(), 4);
    let f = |p: &[usize]| objective(&dvfs, 3, p);
    let start = ConfigSpace::with_dvfs(&Machine::crill(), 4).default_point();
    trajectory(&mut out, "nm dvfs", Box::new(NelderMead::new(dvfs.clone(), &start)), f);
    trajectory(&mut out, "pro dvfs", Box::new(ParallelRankOrder::new(dvfs.clone(), &start)), f);

    // Sessions: the replay cache answers re-proposed points, and a
    // restart after a few measurements reseeds at the incumbent best.
    for strategy in [StrategyKind::nelder_mead(), StrategyKind::parallel_rank_order()] {
        let f = |p: &[usize]| objective(&space, 7, p);
        let mut session = Session::new(space.clone(), strategy.clone(), vec![6, 0, 0]);
        let _ = writeln!(out, "== session {strategy:?}");
        for i in 0..400 {
            if session.converged() {
                break;
            }
            if i == 9 {
                session.restart();
                let _ = writeln!(out, "restart");
            }
            let p = session.next_point();
            point(&mut out, &p);
            if session.awaiting_report() {
                let v = f(&p);
                let _ = write!(out, " {:016x}", v.to_bits());
                session.report(v);
            }
            out.push('\n');
        }
        let (best, value) = session.best().expect("the session measured");
        let _ = write!(out, "best ");
        point(&mut out, &best);
        let _ = writeln!(out, " {:016x} after {}", value.to_bits(), session.evaluations());
    }
    golden::pin("search_trajectories", "crill", &out, TRAJECTORIES);
}
