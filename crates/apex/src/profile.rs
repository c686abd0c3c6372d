//! Running statistics for measured tasks and counters.

use serde::{Deserialize, Serialize};

/// Streaming summary of a sequence of samples (APEX keeps one per timer and
/// one per counter).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Profile {
    pub count: u64,
    pub total: f64,
    pub min: f64,
    pub max: f64,
    pub last: f64,
    /// Sum of squares, for variance.
    sum_sq: f64,
}

impl Default for Profile {
    fn default() -> Self {
        Profile {
            count: 0,
            total: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
            sum_sq: 0.0,
        }
    }
}

impl Profile {
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.total += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.last = value;
        self.sum_sq += value * value;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total / self.count as f64
        }
    }

    /// Population variance. Zero for fewer than two samples (a single
    /// observation has no spread), and clamped at zero when floating-point
    /// cancellation drives the sum-of-squares term negative.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.sum_sq / self.count as f64 - m * m).max(0.0)
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_basic_stats() {
        let mut p = Profile::default();
        for v in [2.0, 4.0, 6.0] {
            p.record(v);
        }
        assert_eq!(p.count, 3);
        assert_eq!(p.total, 12.0);
        assert_eq!(p.mean(), 4.0);
        assert_eq!(p.min, 2.0);
        assert_eq!(p.max, 6.0);
        assert_eq!(p.last, 6.0);
        assert!((p.variance() - 8.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_is_sane() {
        let p = Profile::default();
        assert_eq!(p.mean(), 0.0);
        assert_eq!(p.variance(), 0.0);
        assert_eq!(p.count, 0);
    }

    #[test]
    fn single_sample_has_zero_variance() {
        let mut p = Profile::default();
        p.record(5.0);
        assert_eq!(p.variance(), 0.0);
        assert_eq!(p.stddev(), 0.0);
    }

    #[test]
    fn variance_never_goes_nan_under_cancellation() {
        // Large offset + tiny spread: sum_sq/n - mean² cancels to a value
        // that can land below zero in f64; stddev must stay 0, not NaN.
        let mut p = Profile::default();
        for _ in 0..10 {
            p.record(1.0e9 + 0.1);
        }
        assert!(p.variance() >= 0.0);
        assert!(p.stddev().is_finite());
    }
}
