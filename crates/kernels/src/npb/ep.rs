//! EP: embarrassingly-parallel kernel (NPB EP shape).
//!
//! Gaussian-pair generation by acceptance-rejection over independent
//! random streams — pure compute, perfect balance, zero sharing. EP is
//! the suite's *negative control* for ARCS: there is nothing to tune, so
//! a correct tuner must (a) leave the result unchanged and (b) cost no
//! more than its bookkeeping overhead. The "no harm on EP" integration
//! test pins exactly that.

use arcs_omprt::{RegionId, Runtime};
use std::sync::Arc;

/// Per-class pair counts (log₂), scaled down from NPB's 2²⁴…2³² so the
/// smoke classes run in milliseconds.
pub fn ep_log2_pairs(class: super::Class) -> u32 {
    match class {
        super::Class::S => 14,
        super::Class::W => 16,
        super::Class::A => 18,
        super::Class::B => 20,
        super::Class::C => 22,
    }
}

/// Result of an EP run: counts of accepted Gaussian pairs per annulus
/// (NPB's `q` array) and the sums of the deviates.
#[derive(Debug, Clone, PartialEq)]
pub struct EpResult {
    pub counts: [u64; 10],
    pub sum_x: f64,
    pub sum_y: f64,
    pub accepted: u64,
}

/// The EP application.
pub struct Ep {
    rt: Arc<Runtime>,
    region: RegionId,
    log2_pairs: u32,
}

impl Ep {
    pub fn new(rt: Arc<Runtime>, class: super::Class) -> Self {
        let region = rt.register_region("ep/gaussian_pairs");
        Ep { rt, region, log2_pairs: ep_log2_pairs(class) }
    }

    pub fn region_names() -> [&'static str; 1] {
        ["ep/gaussian_pairs"]
    }

    /// Generate all pairs and tally the annulus histogram. Each iteration
    /// owns an independent counter-based random stream (as NPB seeds
    /// `randlc` per block), so the result is schedule- and
    /// thread-count-independent *exactly*.
    pub fn run(&self) -> EpResult {
        let n = 1usize << self.log2_pairs;
        let (acc, _rec) = self.rt.parallel_reduce(
            self.region,
            0..n,
            EpAccum::default(),
            |mut acc, i| {
                // Counter-based stream: hash the index twice.
                let u1 = hash_unit(i as u64, 0x9E3779B97F4A7C15);
                let u2 = hash_unit(i as u64, 0xC2B2AE3D27D4EB4F);
                let x = 2.0 * u1 - 1.0;
                let y = 2.0 * u2 - 1.0;
                let t = x * x + y * y;
                if t <= 1.0 && t > 0.0 {
                    // Box–Muller (polar form).
                    let f = (-2.0 * t.ln() / t).sqrt();
                    let gx = x * f;
                    let gy = y * f;
                    let bucket = (gx.abs().max(gy.abs()) as usize).min(9);
                    acc.counts[bucket] += 1;
                    acc.sum_x += gx;
                    acc.sum_y += gy;
                    acc.accepted += 1;
                }
                acc
            },
            EpAccum::merge,
        );
        EpResult { counts: acc.counts, sum_x: acc.sum_x, sum_y: acc.sum_y, accepted: acc.accepted }
    }
}

#[derive(Debug, Clone, Default)]
struct EpAccum {
    counts: [u64; 10],
    sum_x: f64,
    sum_y: f64,
    accepted: u64,
}

impl EpAccum {
    fn merge(mut a: EpAccum, b: EpAccum) -> EpAccum {
        for (x, y) in a.counts.iter_mut().zip(b.counts) {
            *x += y;
        }
        a.sum_x += b.sum_x;
        a.sum_y += b.sum_y;
        a.accepted += b.accepted;
        a
    }
}

/// Deterministic hash of `i` to a uniform in (0, 1).
#[inline]
fn hash_unit(i: u64, salt: u64) -> f64 {
    let z = arcs_powersim::splitmix64(i.wrapping_mul(salt).wrapping_add(salt));
    ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::super::Class;
    use super::*;
    use arcs_omprt::Schedule;

    #[test]
    fn acceptance_rate_matches_pi_over_four() {
        let rt = Arc::new(Runtime::new(4));
        let ep = Ep::new(rt, Class::W);
        let res = ep.run();
        let n = 1u64 << ep_log2_pairs(Class::W);
        let rate = res.accepted as f64 / n as f64;
        // Area of the unit disc over the square: π/4 ≈ 0.785.
        assert!((rate - std::f64::consts::FRAC_PI_4).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn gaussian_sums_are_near_zero() {
        let rt = Arc::new(Runtime::new(4));
        let ep = Ep::new(rt, Class::A);
        let res = ep.run();
        // Mean of standard normals → 0; CLT bound with margin.
        let n = res.accepted as f64;
        assert!(res.sum_x.abs() / n < 0.02, "sum_x/n = {}", res.sum_x / n);
        assert!(res.sum_y.abs() / n < 0.02);
        // Nearly all pairs land within 3σ.
        let tail: u64 = res.counts[3..].iter().sum();
        assert!((tail as f64) / n < 0.01);
    }

    #[test]
    fn result_is_exactly_schedule_and_thread_independent() {
        // Integer counts merge associatively; sums are combined per-slot in
        // a fixed slot order under the static schedule — but even across
        // schedules the *counts* must agree exactly.
        let run = |threads: usize, sched: Schedule| {
            let rt = Arc::new(Runtime::new(threads));
            rt.set_schedule(sched);
            Ep::new(rt, Class::S).run()
        };
        let a = run(1, Schedule::static_block());
        let b = run(4, Schedule::static_block());
        let c = run(4, Schedule::dynamic(64));
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.counts, c.counts);
        assert_eq!(a.accepted, b.accepted);
        assert!((a.sum_x - b.sum_x).abs() < 1e-9);
    }
}
