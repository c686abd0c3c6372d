//! The watchable power-cap handle: an externally-owned cap a run observes
//! mid-flight.
//!
//! The paper's runs hold one cap for their whole duration, but a cap can
//! also move *inside* a run: a fault plan reprograms it (the
//! `cap_change` fault class), and the `arcs-serve` broker moves caps
//! between concurrently running jobs whenever tenancy changes.
//! [`CapHandle`] makes the cap a shared, watchable cell: the owner (a broker, a test harness, an operator CLI)
//! calls [`CapHandle::set`], and every backend holding the handle applies
//! the new value at its next region boundary — through exactly the same
//! clamp-and-trace path a scheduled cap fault uses, so a reallocation is
//! indistinguishable from a mid-run `CapChange`. Neither is a signal to
//! the tuner, which holds no cap: the next invocation is repriced under
//! the new envelope (through the operating point the memo is keyed by, so
//! a move between caps at which the team's frequency clamps alike reuses
//! the cell), settled regions keep their configuration, and MAD rejection
//! may treat the step as noise in a region still searching.
//!
//! Semantics:
//!
//! * **Boundary application.** Backends poll the handle immediately
//!   before each region invocation (never mid-invocation), so the
//!   simulation — and the operating point it is memoised under — always
//!   see a single coherent envelope per invocation.
//! * **Last-writer-wins.** Rapid successive `set`s coalesce; a backend
//!   that polls after N writes applies only the final value. The version
//!   counter makes "did anything change?" one relaxed atomic load on the
//!   hot path.
//! * **Requested, not effective.** The handle carries the *requested*
//!   watts; each backend clamps to its own RAPL range and reports the
//!   effective value in its `CapChange` trace event, exactly like a
//!   constructor-supplied cap.
//! * **No handle, no cost.** Backends without a handle skip one `Option`
//!   check; an unfaulted, un-brokered run prices every invocation at the
//!   constructor's cap.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct CapCell {
    /// Requested cap in watts, stored as `f64::to_bits`.
    bits: AtomicU64,
    /// Bumped on every `set`; lets watchers detect changes cheaply.
    version: AtomicU64,
}

/// A shared, watchable power cap. Clone freely — clones observe the same
/// cell. See the module docs for the application semantics.
#[derive(Debug, Clone)]
pub struct CapHandle {
    cell: Arc<CapCell>,
}

impl CapHandle {
    /// A handle initially requesting `watts`. Version starts at 0; a
    /// watcher primed with [`CapHandle::version`] at attach time will not
    /// see the initial value as a change.
    pub fn new(watts: f64) -> Self {
        CapHandle {
            cell: Arc::new(CapCell {
                bits: AtomicU64::new(watts.to_bits()),
                version: AtomicU64::new(0),
            }),
        }
    }

    /// Request a new cap. Takes effect in each watching backend at its
    /// next region boundary.
    pub fn set(&self, watts: f64) {
        self.cell.bits.store(watts.to_bits(), Ordering::Release);
        self.cell.version.fetch_add(1, Ordering::Release);
    }

    /// The currently requested cap in watts.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.bits.load(Ordering::Acquire))
    }

    /// Monotone change counter; differs from a previously observed value
    /// iff `set` ran in between.
    pub fn version(&self) -> u64 {
        self.cell.version.load(Ordering::Acquire)
    }
}

/// A backend's view of an attached [`CapHandle`]: the handle plus the
/// last version it applied, so polling is one load + one compare.
#[derive(Debug, Clone)]
pub struct CapWatch {
    handle: CapHandle,
    seen: u64,
}

impl CapWatch {
    /// Watch `handle`, treating its current value as already applied
    /// (the backend seeds its cap from the handle at attach time).
    pub fn new(handle: CapHandle) -> Self {
        let seen = handle.version();
        CapWatch { handle, seen }
    }

    /// If the handle moved since the last poll, return the newly
    /// requested watts (coalescing intermediate writes) and mark it seen.
    pub fn poll(&mut self) -> Option<f64> {
        let v = self.handle.version();
        if v == self.seen {
            return None;
        }
        self.seen = v;
        Some(self.handle.get())
    }

    /// Has the handle moved since the last poll? [`CapWatch::poll`]
    /// without marking anything seen.
    pub(crate) fn moved(&self) -> bool {
        self.handle.version() != self.seen
    }

    /// The watched handle.
    pub fn handle(&self) -> &CapHandle {
        &self.handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_is_visible_through_clones() {
        let h = CapHandle::new(80.0);
        let h2 = h.clone();
        h.set(65.0);
        assert_eq!(h2.get(), 65.0);
    }

    #[test]
    fn watch_sees_each_change_once_and_coalesces_bursts() {
        let h = CapHandle::new(80.0);
        let mut w = CapWatch::new(h.clone());
        assert_eq!(w.poll(), None, "the initial value is not a change");
        h.set(70.0);
        h.set(60.0);
        h.set(55.0);
        assert_eq!(w.poll(), Some(55.0), "bursts coalesce to the last write");
        assert_eq!(w.poll(), None, "a seen version does not re-fire");
        h.set(90.0);
        assert_eq!(w.poll(), Some(90.0));
    }

    #[test]
    fn concurrent_setters_leave_a_consistent_final_value() {
        let h = CapHandle::new(50.0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..250 {
                        h.set(40.0 + (t * 250 + i) as f64 * 0.01);
                    }
                });
            }
        });
        assert_eq!(h.version(), 1000);
        let v = h.get();
        assert!((40.0..=52.5).contains(&v), "final value is one of the writes: {v}");
    }
}
