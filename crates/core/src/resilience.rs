//! Self-healing knobs for runs under measurement faults.
//!
//! [`ResilienceOptions`] configures every rung of the degradation ladder
//! the driver and tuner climb when the measurement stack misbehaves (see
//! DESIGN.md §3.3):
//!
//! 1. **retry** — a failed meter read is retried up to
//!    [`max_read_retries`](ResilienceOptions::max_read_retries) times,
//!    each retry charging
//!    [`retry_backoff_s`](ResilienceOptions::retry_backoff_s) of §III-C
//!    overhead energy;
//! 2. **reject** — a region measurement whose score deviates from the
//!    region's accepted-score median by more than
//!    [`mad_threshold`](ResilienceOptions::mad_threshold) × MAD is
//!    discarded and the same configuration is re-measured (a value that
//!    *reproduces* on re-measurement is accepted — consistent means real,
//!    not an outlier);
//! 3. **restart** — after
//!    [`restart_after_rejections`](ResilienceOptions::restart_after_rejections)
//!    rejections a region's search session is restarted (reseeded at its
//!    best-known point), at most
//!    [`max_restarts`](ResilienceOptions::max_restarts) times;
//! 4. **freeze** — a region that keeps rejecting past its restart budget
//!    is pinned to its best-known configuration;
//! 5. **degrade** — once
//!    [`error_budget`](ResilienceOptions::error_budget) hard meter
//!    faults have been absorbed, the whole tuner freezes and the run
//!    completes with [`RunStatus::Degraded`](crate::report::RunStatus)
//!    instead of erroring.
//!
//! The [`Default`] options disable every rung, so a run without an
//! attached [`arcs_powersim::FaultPlan`] and without explicit resilience
//! behaves bit-identically to one built before this layer existed.

use serde::{Deserialize, Serialize};

/// Retry / outlier-rejection / degradation policy for one run. All
/// fields are plain data; the struct is freely copyable and attaches to
/// a [`Runner`](crate::backend::Runner) via
/// [`Runner::resilience`](crate::backend::Runner::resilience) (which
/// also forwards it to an attached tuner).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceOptions {
    /// Retries after a failed package-meter read before the failure is
    /// counted as a *hard* fault. 0 disables retrying.
    pub max_read_retries: u32,
    /// Seconds of §III-C-style overhead charged per retry (linear
    /// backoff: the n-th retry charges `n × retry_backoff_s`). Charged
    /// as energy through
    /// [`Backend::charge_overhead`](crate::backend::Backend::charge_overhead);
    /// the driver clock is not advanced.
    pub retry_backoff_s: f64,
    /// Reject a measurement when `|score − median| > mad_threshold ×
    /// MAD` over the region's accepted-score window (its last 16
    /// scores). 0 disables rejection.
    pub mad_threshold: f64,
    /// Hard meter faults absorbed (the read is answered with the last
    /// known meter value) before the tuner freezes and the run degrades.
    /// `None` means hard faults are run errors
    /// ([`RunError::Measure`](crate::backend::RunError)).
    pub error_budget: Option<u64>,
    /// Rejections a region tolerates before its search session is
    /// restarted. 0 disables restarting (and freezing).
    pub restart_after_rejections: u32,
    /// Session restarts a region may spend before it is frozen to its
    /// best-known configuration.
    pub max_restarts: u32,
}

impl Default for ResilienceOptions {
    /// Everything disabled: no retries, no rejection, no budget —
    /// faults surface exactly as they did before this layer existed.
    fn default() -> Self {
        ResilienceOptions {
            max_read_retries: 0,
            retry_backoff_s: 0.0,
            mad_threshold: 0.0,
            error_budget: None,
            restart_after_rejections: 0,
            max_restarts: 0,
        }
    }
}

impl ResilienceOptions {
    /// The reference self-healing preset used by `arcs-sim run --plan`:
    /// 3 retries with 0.1 ms linear backoff, MAD-4 outlier rejection
    /// over a 16-score window, session restart after 6 rejections (at
    /// most twice, then freeze), and a 16-hard-fault budget before the
    /// run degrades.
    pub fn standard() -> Self {
        ResilienceOptions {
            max_read_retries: 3,
            retry_backoff_s: 1e-4,
            mad_threshold: 4.0,
            error_budget: Some(16),
            restart_after_rejections: 6,
            max_restarts: 2,
        }
    }
}

/// Median of a slice (the slice is sorted in place). Empty slices
/// return 0.
fn median_in_place(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// Median and median-absolute-deviation of a slice, computed in place:
/// the slice ends up holding the sorted absolute deviations.
pub(crate) fn median_and_mad(values: &mut [f64]) -> (f64, f64) {
    let med = median_in_place(values);
    for v in values.iter_mut() {
        *v = (*v - med).abs();
    }
    let mad = median_in_place(values);
    (med, mad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_disables_every_rung() {
        let d = ResilienceOptions::default();
        assert_eq!(d.max_read_retries, 0);
        assert_eq!(d.mad_threshold, 0.0);
        assert_eq!(d.error_budget, None);
        assert_eq!(d.restart_after_rejections, 0);
    }

    #[test]
    fn options_roundtrip_through_json() {
        let s = ResilienceOptions::standard();
        let json = serde_json::to_string(&s).unwrap();
        let back: ResilienceOptions = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median_in_place(&mut []), 0.0);
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_in_place(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn mad_is_robust_to_one_outlier() {
        let mut values = [1.0, 1.1, 0.9, 1.05, 0.95, 100.0];
        let (med, mad) = median_and_mad(&mut values);
        assert!((med - 1.025).abs() < 1e-9, "median {med}");
        // The outlier deviates by ~99 while the MAD stays small.
        assert!(mad < 0.2, "mad {mad}");
        assert!((100.0 - med).abs() > 4.0 * mad);
    }
}
