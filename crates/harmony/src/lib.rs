//! # arcs-harmony — an Active Harmony-style auto-tuning search engine
//!
//! Substrate standing in for the Active Harmony framework the paper embeds
//! in APEX. It provides discrete [search spaces](space::SearchSpace), the
//! sequential ask/tell [`Search`](trait@strategies::Search) protocol, three search
//! strategies — [exhaustive sweep](strategies::Exhaustive) (ARCS-Offline),
//! [Nelder–Mead](strategies::NelderMead) (ARCS-Online) and
//! [Parallel Rank Order](strategies::ParallelRankOrder) — plus client
//! [sessions](session::Session) with result caching and a persistent
//! [history](history::History) of best configurations.
//!
//! ```
//! use arcs_harmony::{Param, SearchSpace, Session, StrategyKind};
//!
//! let space = SearchSpace::new(vec![Param::new("threads", 7), Param::new("chunk", 9)]);
//! let mut session = Session::new(space, StrategyKind::nelder_mead(), vec![6, 8]);
//! while !session.converged() {
//!     let point = session.next_point();
//!     if session.awaiting_report() {
//!         // "Measure" the configuration (here: a synthetic bowl).
//!         let t = (point[0] as f64 - 3.0).powi(2) + (point[1] as f64 - 2.0).powi(2);
//!         session.report(t);
//!     }
//! }
//! let best = session.best_point();
//! assert!((best[0] as f64 - 3.0).abs() <= 1.0);
//! ```

pub mod history;
pub mod session;
pub mod space;
pub mod strategies;

pub use history::{Entry, History};
pub use session::{Session, SessionObserver, StrategyKind};
pub use space::{Param, Point, SearchSpace};
pub use strategies::{
    Candidate, Exhaustive, NelderMead, ParallelRankOrder, RandomSearch, Search, SearchStep,
};
