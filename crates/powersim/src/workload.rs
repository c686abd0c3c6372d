//! Analytic workload descriptors.
//!
//! A [`RegionModel`] captures what the simulator needs to know about one
//! parallel region: trip count, per-iteration compute cost and its
//! variation (load imbalance), and the memory-access character that the
//! cache model consumes. Kernels in `arcs-kernels` derive these from their
//! real loop structure; see each kernel's `descriptor()`.

use serde::{Deserialize, Serialize};

/// How per-iteration cost varies across the iteration space.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ImbalanceProfile {
    /// Every iteration costs the same.
    Uniform,
    /// Cost ramps linearly: iteration `i` costs
    /// `base × (1 + slope × (i/n − 1/2))` (front- or back-loaded loops;
    /// triangular solver sweeps).
    Linear { slope: f64 },
    /// A contiguous block of iterations is heavier (boundary elements,
    /// material interfaces): the first `heavy_fraction` of iterations cost
    /// `heavy_factor ×` the rest.
    Blocked { heavy_fraction: f64, heavy_factor: f64 },
    /// Deterministic pseudo-random multiplicative noise with coefficient of
    /// variation ≈ `cv` (EOS iteration counts, per-element convergence).
    Random { cv: f64, seed: u64 },
}

impl ImbalanceProfile {
    /// The `n` per-iteration weights (mean ≈ 1) as a stream: consumers
    /// that only fold over them never hold the vector. [`WeightTable`]
    /// writes the same weights with the law matched once.
    pub fn weight_stream(&self, n: usize) -> WeightStream {
        let law = match *self {
            ImbalanceProfile::Uniform => WeightLaw::Uniform,
            ImbalanceProfile::Linear { slope } => {
                WeightLaw::Linear { slope, span: n.saturating_sub(1) as f64 }
            }
            ImbalanceProfile::Blocked { heavy_fraction, heavy_factor } => {
                let heavy = ((n as f64) * heavy_fraction).round() as usize;
                // Normalise so the mean stays ~1.
                let mean =
                    (heavy as f64 * heavy_factor + (n - heavy.min(n)) as f64) / n.max(1) as f64;
                WeightLaw::Blocked { heavy, heavy_w: heavy_factor / mean, light_w: 1.0 / mean }
            }
            ImbalanceProfile::Random { cv, seed } => WeightLaw::Random {
                state: seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1),
                // Uniform noise with mean 1, cv ≈ cv (uniform on
                // [1-a, 1+a] has cv = a/√3).
                a: (cv * 3f64.sqrt()).min(0.95),
            },
        };
        WeightStream { i: 0, n, law }
    }

    /// Per-iteration weight vector, mean ≈ 1.
    pub fn weights(&self, n: usize) -> Vec<f64> {
        self.weight_stream(n).collect()
    }
}

/// Per-profile generator state of a [`WeightStream`], with everything
/// that does not depend on the iteration index computed once.
#[derive(Debug, Clone)]
enum WeightLaw {
    Uniform,
    Linear { slope: f64, span: f64 },
    Blocked { heavy: usize, heavy_w: f64, light_w: f64 },
    Random { state: u64, a: f64 },
}

/// Iterator over the weights of one `(ImbalanceProfile, n)`; see
/// [`ImbalanceProfile::weight_stream`].
#[derive(Debug, Clone)]
pub struct WeightStream {
    i: usize,
    n: usize,
    law: WeightLaw,
}

impl Iterator for WeightStream {
    type Item = f64;

    #[inline]
    fn next(&mut self) -> Option<f64> {
        if self.i >= self.n {
            return None;
        }
        let i = self.i;
        self.i += 1;
        Some(match &mut self.law {
            WeightLaw::Uniform => 1.0,
            WeightLaw::Linear { slope, span } => linear_weight(i, self.n, *slope, *span),
            WeightLaw::Blocked { heavy, heavy_w, light_w } => {
                blocked_weight(i, *heavy, *heavy_w, *light_w)
            }
            WeightLaw::Random { state, a } => random_weight(state, *a),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.n - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for WeightStream {}

/// Weight of iteration `i` of `n` on a linear ramp.
#[inline]
fn linear_weight(i: usize, n: usize, slope: f64, span: f64) -> f64 {
    let x = if n > 1 { i as f64 / span } else { 0.5 };
    (1.0 + slope * (x - 0.5)).max(0.05)
}

/// Weight of iteration `i` when the first `heavy` iterations are heavy.
#[inline]
fn blocked_weight(i: usize, heavy: usize, heavy_w: f64, light_w: f64) -> f64 {
    if i < heavy {
        heavy_w
    } else {
        light_w
    }
}

/// The next pseudo-random weight, uniform on `[1 − a, 1 + a]`.
#[inline]
fn random_weight(state: &mut u64, a: f64) -> f64 {
    // splitmix64 → uniform in [0,1).
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let u = (crate::splitmix64(*state) >> 11) as f64 / (1u64 << 53) as f64;
    1.0 - a + 2.0 * a * u
}

/// `[0, w(0), w(0) + w(1), …]` over `n` weights, written in one
/// trusted-length pass.
#[inline]
fn running_sums(n: usize, mut weight: impl FnMut(usize) -> f64) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0);
    let mut running = 0.0;
    prefix.extend((0..n).map(|i| {
        running += weight(i);
        running
    }));
    prefix
}

/// The iteration-weight prefix sums of one `(ImbalanceProfile, n)`:
/// `Σ weights[a..b]` is `prefix[b] − prefix[a]`. Everything the simulator
/// needs of a region's imbalance, and independent of the configuration and
/// cap being priced — so it is built once per region and shared (see
/// [`crate::SharedSimCache::weight_table`]).
///
/// Uniform profiles carry no array: every weight is exactly 1.0, so the
/// prefix sums are the exact integers `0..=n` and a range sum is
/// `(b − a) as f64` — bit-identical to materialising them (integer `f64`
/// sums are exact below 2^53) without touching memory.
#[derive(Debug, Clone)]
pub struct WeightTable {
    profile: ImbalanceProfile,
    iterations: usize,
    prefix: Vec<f64>,
}

impl WeightTable {
    pub fn new(profile: &ImbalanceProfile, iterations: usize) -> Self {
        // The law is resolved once, so each element is its bare formula.
        let n = iterations;
        let prefix = match profile.weight_stream(n).law {
            WeightLaw::Uniform => Vec::new(),
            WeightLaw::Linear { slope, span } => {
                running_sums(n, |i| linear_weight(i, n, slope, span))
            }
            WeightLaw::Blocked { heavy, heavy_w, light_w } => {
                running_sums(n, |i| blocked_weight(i, heavy, heavy_w, light_w))
            }
            WeightLaw::Random { mut state, a } => running_sums(n, |_| random_weight(&mut state, a)),
        };
        WeightTable { profile: profile.clone(), iterations, prefix }
    }

    pub fn for_region(region: &RegionModel) -> Self {
        WeightTable::new(&region.imbalance, region.iterations)
    }

    /// Was this table built from `region`'s profile and trip count? By
    /// value — region names do not identify a model.
    pub fn matches(&self, region: &RegionModel) -> bool {
        self.iterations == region.iterations && self.profile == region.imbalance
    }

    /// The `n + 1` prefix sums, or `None` for a uniform profile.
    pub fn prefix(&self) -> Option<&[f64]> {
        (!self.prefix.is_empty()).then_some(&self.prefix[..])
    }
}

/// Memory-access pattern class of the loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrideClass {
    /// Unit-stride streaming (prefetch-friendly; BT/SP x_solve inner loops).
    Unit,
    /// Moderate strides — plane-sized jumps with some spatial reuse
    /// (y-direction sweeps).
    Medium,
    /// Long strides defeating spatial locality entirely (the paper's rhsz
    /// second-order stencil in the z direction).
    Long,
}

impl StrideClass {
    /// Baseline L1 miss ratio per memory access (before chunking effects).
    pub fn l1_miss_base(self) -> f64 {
        match self {
            StrideClass::Unit => 0.125, // one line fill per 8 doubles
            StrideClass::Medium => 0.40,
            StrideClass::Long => 0.75,
        }
    }

    /// Fraction of miss latency hidden by prefetch/MLP (0 = fully hidden,
    /// 1 = fully exposed).
    pub fn latency_exposure(self) -> f64 {
        match self {
            StrideClass::Unit => 0.25,
            StrideClass::Medium => 0.55,
            StrideClass::Long => 0.85,
        }
    }
}

/// Memory behaviour of one region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryProfile {
    /// Distinct bytes the whole loop touches (working set).
    pub footprint_bytes: f64,
    /// Memory accesses issued per iteration.
    pub accesses_per_iter: f64,
    pub stride: StrideClass,
    /// Temporal reuse in [0, 1): fraction of accesses that revisit the
    /// thread's *hot working buffer* (solver lines, stencil planes) and
    /// can hit in cache if that buffer fits. High for line sweeps, low for
    /// streaming.
    pub temporal_reuse: f64,
    /// Size of that hot working buffer per thread, bytes (e.g. the
    /// block-tridiagonal line arrays of one pencil).
    pub hot_bytes_per_thread: f64,
}

/// Everything the simulator needs about one parallel region.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegionModel {
    pub name: String,
    /// Trip count of the work-shared loop.
    pub iterations: usize,
    /// Compute cycles per mean-weight iteration (excludes memory stalls).
    pub cycles_per_iter: f64,
    pub imbalance: ImbalanceProfile,
    pub memory: MemoryProfile,
    /// Serial (master-only) work per invocation *before the fork*, seconds
    /// (loop setup, non-parallelised pre-processing).
    pub serial_s: f64,
    /// Master-only work *inside* the region, seconds: glue code between
    /// sub-loops during which the rest of the team waits at a barrier.
    /// This is measured as OMP_BARRIER time but is structural — no
    /// schedule/thread-count choice removes it (LULESH's EvalEOS shape).
    pub critical_s: f64,
}

impl RegionModel {
    /// Per-iteration cost weights (mean ≈ 1), deterministic.
    pub fn weights(&self) -> Vec<f64> {
        self.imbalance.weights(self.iterations)
    }
}

/// An application = an ordered list of regions executed repeatedly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadDescriptor {
    pub name: String,
    /// Regions in per-timestep execution order. The same region may appear
    /// more than once per timestep (x/y/z sweeps).
    pub step: Vec<RegionModel>,
    /// Number of timesteps the application runs.
    pub timesteps: usize,
}

impl WorkloadDescriptor {
    /// Unique region names in first-appearance order.
    pub fn region_names(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.step {
            if !seen.contains(&r.name.as_str()) {
                seen.push(r.name.as_str());
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean(v: &[f64]) -> f64 {
        v.iter().sum::<f64>() / v.len() as f64
    }

    #[test]
    fn uniform_weights_are_flat() {
        let w = ImbalanceProfile::Uniform.weights(100);
        assert!(w.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn linear_weights_ramp_and_average_to_one() {
        let w = ImbalanceProfile::Linear { slope: 0.5 }.weights(101);
        assert!((mean(&w) - 1.0).abs() < 1e-9);
        assert!(w.first().unwrap() < w.last().unwrap());
        assert!((w[0] - 0.75).abs() < 1e-9);
        assert!((w[100] - 1.25).abs() < 1e-9);
    }

    #[test]
    fn blocked_weights_have_unit_mean() {
        let w = ImbalanceProfile::Blocked { heavy_fraction: 0.25, heavy_factor: 3.0 }.weights(1000);
        assert!((mean(&w) - 1.0).abs() < 1e-6);
        assert!(w[0] > w[999]);
    }

    #[test]
    fn random_weights_deterministic_and_calibrated() {
        let p = ImbalanceProfile::Random { cv: 0.2, seed: 42 };
        let a = p.weights(10_000);
        let b = p.weights(10_000);
        assert_eq!(a, b, "weights must be deterministic");
        let m = mean(&a);
        assert!((m - 1.0).abs() < 0.02, "mean {m}");
        let var = a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64;
        let cv = var.sqrt() / m;
        assert!((cv - 0.2).abs() < 0.03, "cv {cv}");
        // Different seeds differ.
        let c = ImbalanceProfile::Random { cv: 0.2, seed: 43 }.weights(10_000);
        assert_ne!(a, c);
    }

    #[test]
    fn weights_never_nonpositive() {
        for prof in [
            ImbalanceProfile::Linear { slope: 3.0 },
            ImbalanceProfile::Random { cv: 0.9, seed: 7 },
            ImbalanceProfile::Blocked { heavy_fraction: 0.01, heavy_factor: 50.0 },
        ] {
            let w = prof.weights(1000);
            assert!(w.iter().all(|&x| x > 0.0), "{prof:?}");
        }
    }

    #[test]
    fn tables_are_the_running_sums_of_the_weights() {
        let profiles = [
            ImbalanceProfile::Linear { slope: 0.5 },
            ImbalanceProfile::Linear { slope: -1.9 },
            ImbalanceProfile::Blocked { heavy_fraction: 0.25, heavy_factor: 3.0 },
            ImbalanceProfile::Blocked { heavy_fraction: 0.0, heavy_factor: 3.0 },
            ImbalanceProfile::Blocked { heavy_fraction: 1.0, heavy_factor: 3.0 },
            ImbalanceProfile::Random { cv: 0.4, seed: 9 },
        ];
        for n in [0, 1, 2, 4097] {
            assert!(WeightTable::new(&ImbalanceProfile::Uniform, n).prefix().is_none());
            for profile in &profiles {
                let mut running = 0.0;
                let sums = profile.weights(n).into_iter().map(|w| {
                    running += w;
                    running
                });
                let expected: Vec<u64> =
                    std::iter::once(0.0).chain(sums).map(f64::to_bits).collect();
                let table = WeightTable::new(profile, n);
                let got: Vec<u64> = table.prefix().unwrap().iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, expected, "{profile:?} n={n}");
            }
        }
    }

    #[test]
    fn stride_classes_are_ordered() {
        assert!(StrideClass::Unit.l1_miss_base() < StrideClass::Medium.l1_miss_base());
        assert!(StrideClass::Medium.l1_miss_base() < StrideClass::Long.l1_miss_base());
        assert!(StrideClass::Unit.latency_exposure() < StrideClass::Long.latency_exposure());
    }

    #[test]
    fn workload_region_names_dedup() {
        let r = |name: &str| RegionModel {
            name: name.into(),
            iterations: 10,
            cycles_per_iter: 100.0,
            imbalance: ImbalanceProfile::Uniform,
            memory: MemoryProfile {
                footprint_bytes: 1e6,
                accesses_per_iter: 10.0,
                stride: StrideClass::Unit,
                temporal_reuse: 0.5,
                hot_bytes_per_thread: 8192.0,
            },
            serial_s: 0.0,
            critical_s: 0.0,
        };
        let w = WorkloadDescriptor {
            name: "app".into(),
            step: vec![r("a"), r("b"), r("a")],
            timesteps: 5,
        };
        assert_eq!(w.region_names(), vec!["a", "b"]);
    }
}
