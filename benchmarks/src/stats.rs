//! Robust statistics and the output digest.
//!
//! Every wall-clock metric the benchmark prints is a median over
//! repetitions, reported with its quartiles and sample count. Quartiles
//! follow Python's `statistics.quantiles(values, n=4)` (the exclusive
//! method), so the spread the benchmark prints is the spread a reviewer
//! recomputes from the raw values.

/// Sort ascending. Timings are never NaN; a NaN would be a bug worth a
/// panic rather than a silently wrong median.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    v
}

/// The `p`-quantile (`0 < p < 1`) of an ascending slice by the exclusive
/// method: position `p·(n+1)` on a 1-based axis, linearly interpolated,
/// clamped to the extremes.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    if pos <= 1.0 {
        return sorted[0];
    }
    if pos >= n as f64 {
        return sorted[n - 1];
    }
    let lo = pos.floor() as usize; // 1-based index of the lower neighbour
    let frac = pos - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// Median, first and third quartile and sample count of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            n: s.len(),
        }
    }

    /// A value that is counted or simulated, not sampled: no spread.
    pub fn exact(value: f64) -> Summary {
        Summary { median: value, q1: value, q3: value, n: 1 }
    }
}

/// Samples a percentile must leave beyond it before it is reported: a
/// p99 read off 120 samples is the second-largest value, not a tail.
pub const TAIL_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples, in
/// integer arithmetic on tenths of a percent (99.9 % of 10 000 is rank
/// 9990 exactly, not 9990.000000000002 rounded up).
fn nearest_rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The nearest-rank `p`-th percentile of an ascending slice, or `None`
/// when fewer than [`TAIL_SAMPLES_BEYOND`] samples lie beyond it.
pub fn tail_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = nearest_rank(n, p);
    (n - rank >= TAIL_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// The highest of the conventional percentiles that `n` samples support
/// under the ten-samples-beyond rule (50 when even p75 has too few).
pub fn highest_supported_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| n >= nearest_rank(n, p) + TAIL_SAMPLES_BEYOND)
        .unwrap_or(50.0)
}

/// FNV-1a, 64 bit: the digest of a workload's simulated outputs. Not
/// cryptographic — it only has to make "one bit of one cell changed"
/// visible, and to be the same function on every host.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Every bit of the float, so `-0.0` and `0.0` differ and nothing is
    /// lost to formatting.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Geometric mean of strictly positive ratios.
pub fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geomean of an empty sample");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = Summary::of(&[8.0, 1.0, 4.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 3.0, 7.0));
        let s = Summary::of(&[7.5]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        // One sample fewer and the tail is too thin.
        assert_eq!(tail_percentile(&v[..999], 99.0), None);
        assert_eq!(tail_percentile(&v[..999], 95.0), Some(950.0));
        assert_eq!(tail_percentile(&[], 50.0), None);
        // 300 samples: p99 leaves 3 beyond, p95 leaves 15.
        assert_eq!(highest_supported_percentile(300), 95.0);
        assert_eq!(highest_supported_percentile(1000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
        assert_eq!(highest_supported_percentile(12), 50.0);
        assert_eq!(highest_supported_percentile(40), 75.0);
    }

    #[test]
    fn digest_is_stable_and_bit_sensitive() {
        let digest_of = |vals: &[f64]| {
            let mut d = Digest::default();
            for &v in vals {
                d.f64(v);
            }
            d.finish()
        };
        assert_eq!(digest_of(&[1.0, 2.5]), digest_of(&[1.0, 2.5]));
        assert_ne!(digest_of(&[1.0, 2.5]), digest_of(&[2.5, 1.0]), "order matters");
        assert_ne!(digest_of(&[0.0]), digest_of(&[-0.0]), "sign bit matters");
        let next_up = f64::from_bits(1.0f64.to_bits() + 1);
        assert_ne!(digest_of(&[1.0]), digest_of(&[next_up]), "one ulp matters");
        // Known vector: FNV-1a 64 of the empty input is the offset basis.
        assert_eq!(Digest::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut a = Digest::default();
        a.bytes(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert!((geomean(&[0.25, 0.25]) - 0.25).abs() < 1e-12);
    }
}
