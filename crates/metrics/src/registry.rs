//! The aggregation registry: named counters, gauges and log-bucketed
//! histograms behind cheap cloneable handles.
//!
//! The usage discipline mirrors the trace layer's zero-cost contract:
//! components *resolve* their handles once, at attach time (holding them
//! in an `Option` or `OnceLock`), so the un-instrumented hot path pays one
//! branch and the instrumented one a relaxed atomic (counter/gauge) or a
//! short uncontended lock (histogram). The registry's name map is
//! lock-sharded and touched only at resolution and snapshot time, never
//! per sample.

use arcs_apex::Profile;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone event count. Clones share state; `inc`/`add` are single
/// relaxed atomics, safe on any hot path.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// The shared cell behind this handle, for bridging into layers that
    /// cannot depend on `arcs-metrics` (e.g. `JsonlSink`'s write-error
    /// count lives in `arcs-trace`, below this crate in the dependency
    /// order, but should still surface through a registry counter).
    pub fn shared(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.0)
    }
}

/// A last-value-wins float (stored as bits in an atomic). `add` is a CAS
/// loop, for accumulating quantities like seconds of charged overhead.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn add(&self, delta: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Log-bucket resolution: 8 buckets per factor of two, so each bucket
/// spans a ratio of 2^(1/8) ≈ 1.09 — quantiles are accurate to ~9 %.
const BUCKETS_PER_OCTAVE: f64 = 8.0;

/// Histogram state: exact per-bucket counts plus an
/// [`arcs_apex::Profile`] as the scalar summary (count/total/min/max,
/// exact — only the quantiles are bucket-resolution estimates). Not
/// serialized — snapshots carry the [`HistogramSummary`] instead.
#[derive(Debug, Default)]
struct HistogramState {
    /// Bucket index → sample count. Index `i` covers values in
    /// `[2^(i/8), 2^((i+1)/8))`; negative indices cover values below 1.
    buckets: BTreeMap<i32, u64>,
    /// Samples ≤ 0 (durations and counts should never be negative, but a
    /// histogram must not lose them silently).
    zeros: u64,
    summary: Profile,
}

impl HistogramState {
    fn bucket_index(value: f64) -> i32 {
        (value.log2() * BUCKETS_PER_OCTAVE).floor() as i32
    }

    /// Geometric midpoint of bucket `i` — the value a quantile estimate
    /// reports for samples landing in that bucket.
    fn bucket_mid(i: i32) -> f64 {
        ((i as f64 + 0.5) / BUCKETS_PER_OCTAVE).exp2()
    }

    fn record(&mut self, value: f64) {
        self.summary.record(value);
        if value > 0.0 && value.is_finite() {
            *self.buckets.entry(Self::bucket_index(value)).or_insert(0) += 1;
        } else {
            self.zeros += 1;
        }
    }

    /// Quantile estimate (`q` in `[0, 1]`): the midpoint of the bucket
    /// holding the sample of that rank. 0 when empty.
    fn quantile(&self, q: f64) -> f64 {
        let n = self.summary.count;
        if n == 0 {
            return 0.0;
        }
        // Rank of the selected sample, 0-based, nearest-rank style.
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n) - 1;
        if rank < self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for (&i, &count) in &self.buckets {
            seen += count;
            if rank < seen {
                return Self::bucket_mid(i);
            }
        }
        self.summary.max
    }

    /// Cumulative buckets at octave granularity: one `(le, count)` pair
    /// per power-of-two upper bound that has samples at or below it, with
    /// `count` counting every sample ≤ `le` (zeros included, Prometheus
    /// style). The final implicit `+Inf` bucket is the total count.
    fn cumulative_octaves(&self) -> Vec<BucketCount> {
        let mut out = Vec::new();
        let mut running = self.zeros;
        let mut octave = i32::MIN;
        for (&i, &n) in &self.buckets {
            let k = i.div_euclid(BUCKETS_PER_OCTAVE as i32);
            if k != octave {
                if octave != i32::MIN {
                    out.push(BucketCount { le: ((octave + 1) as f64).exp2(), count: running });
                }
                octave = k;
            }
            running += n;
        }
        if octave != i32::MIN {
            out.push(BucketCount { le: ((octave + 1) as f64).exp2(), count: running });
        } else if self.zeros > 0 {
            // Only non-positive samples: a single le=1 bucket holds them.
            out.push(BucketCount { le: 1.0, count: running });
        }
        out
    }

    fn summarize(&self) -> HistogramSummary {
        let p = &self.summary;
        HistogramSummary {
            count: p.count,
            total: p.total,
            min: if p.count == 0 { 0.0 } else { p.min },
            max: if p.count == 0 { 0.0 } else { p.max },
            mean: p.mean(),
            stddev: p.stddev(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets: self.cumulative_octaves(),
        }
    }
}

/// A shared log-bucketed histogram handle. Recording takes one short
/// uncontended mutex; reads summarize under it.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<Mutex<HistogramState>>);

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    pub fn record(&self, value: f64) {
        self.0.lock().record(value);
    }

    pub fn count(&self) -> u64 {
        self.0.lock().summary.count
    }

    pub fn summary(&self) -> HistogramSummary {
        self.0.lock().summarize()
    }
}

/// Scalar summary of a histogram at snapshot time. `count`…`stddev` are
/// exact (from the embedded [`Profile`]); the quantiles are log-bucket
/// estimates good to one bucket (~9 %). `buckets` carries cumulative
/// counts at power-of-two upper bounds for exposition renderers.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    pub count: u64,
    pub total: f64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub stddev: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    /// Cumulative `(le, count)` pairs, ascending in `le`; absent in
    /// snapshots written before this field existed.
    #[serde(default)]
    pub buckets: Vec<BucketCount>,
}

/// One cumulative histogram bucket: `count` samples had values ≤ `le`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BucketCount {
    pub le: f64,
    pub count: u64,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

const REGISTRY_SHARDS: usize = 8;

/// A lock-sharded name → metric map. Handles resolved from it share state
/// with the registry, so a snapshot sees every sample recorded through
/// any clone.
///
/// Resolution is get-or-create: the first caller decides the metric's
/// type and later callers of the same name must agree (a name cannot be
/// both a counter and a histogram — that panics, loudly, because it is a
/// programming error, not a runtime condition).
pub struct MetricsRegistry {
    shards: Vec<Mutex<HashMap<String, Metric>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry {
            shards: (0..REGISTRY_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, name: &str) -> &Mutex<HashMap<String, Metric>> {
        // FNV-1a; only shard selection, not key identity.
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        &self.shards[(h % REGISTRY_SHARDS as u64) as usize]
    }

    /// Resolve (or create) the counter called `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut shard = self.shard(name).lock();
        match shard.entry(name.to_string()).or_insert_with(|| Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric `{name}` is a {}, not a counter", kind_of(other)),
        }
    }

    /// Resolve (or create) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut shard = self.shard(name).lock();
        match shard.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric `{name}` is a {}, not a gauge", kind_of(other)),
        }
    }

    /// Resolve (or create) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut shard = self.shard(name).lock();
        match shard.entry(name.to_string()).or_insert_with(|| Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric `{name}` is a {}, not a histogram", kind_of(other)),
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics: Vec<MetricSample> = Vec::new();
        for shard in &self.shards {
            for (name, metric) in shard.lock().iter() {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                };
                metrics.push(MetricSample { name: name.clone(), value });
            }
        }
        metrics.sort_by(|a, b| a.name.cmp(&b.name));
        Snapshot { metrics }
    }
}

/// The registry name of one labeled series, `name{key="value"}`, with
/// the value escaped as the Prometheus text format requires. Labeled
/// series land in snapshots (and the Prometheus renderer) like any other
/// metric; a caller resolves each one once and keeps the handle.
pub fn labeled(name: &str, key: &str, value: &str) -> String {
    let escaped = value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n");
    format!("{name}{{{key}=\"{escaped}\"}}")
}

fn kind_of(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

/// One named metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    pub name: String,
    pub value: MetricValue,
}

/// The value half of a [`MetricSample`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSummary),
}

/// A serializable, renderable point-in-time view of a registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Sorted by name.
    pub metrics: Vec<MetricSample>,
}

impl Snapshot {
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name).map(|m| &m.value)
    }

    /// Counter value by name (0 when absent or not a counter) — the
    /// common read in assertions and reports.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(n)) => *n,
            _ => 0,
        }
    }

    /// Histogram summary by name (`None` when absent or not a histogram).
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Render in the Prometheus text exposition format.
    ///
    /// Registry names are slash-separated (`arcs/serve/queue_wait_s`) and
    /// [`labeled`] series carry a `{key="value"}` suffix; the renderer
    /// sanitizes the base name to `[a-zA-Z0-9_:]`, emits one `# TYPE`
    /// line per base name, and expands histograms into cumulative
    /// `_bucket{le="..."}` series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: HashSet<String> = HashSet::new();
        for m in &self.metrics {
            let (raw_base, labels) = match m.name.find('{') {
                Some(at) => (&m.name[..at], &m.name[at..]),
                None => (m.name.as_str(), ""),
            };
            let base = sanitize_metric_name(raw_base);
            let kind = match &m.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            if typed.insert(base.clone()) {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
            }
            match &m.value {
                MetricValue::Counter(n) => out.push_str(&format!("{base}{labels} {n}\n")),
                MetricValue::Gauge(v) => out.push_str(&format!("{base}{labels} {v}\n")),
                MetricValue::Histogram(h) => {
                    for b in &h.buckets {
                        out.push_str(&format!(
                            "{base}_bucket{} {}\n",
                            merge_le_label(labels, &format!("{}", b.le)),
                            b.count
                        ));
                    }
                    out.push_str(&format!(
                        "{base}_bucket{} {}\n",
                        merge_le_label(labels, "+Inf"),
                        h.count
                    ));
                    out.push_str(&format!("{base}_sum{labels} {}\n", h.total));
                    out.push_str(&format!("{base}_count{labels} {}\n", h.count));
                }
            }
        }
        out
    }
}

/// Prometheus metric names are `[a-zA-Z_:][a-zA-Z0-9_:]*`; everything
/// else (the registry's `/` separators, dashes, dots) becomes `_`.
fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok || (i == 0 && c.is_ascii_digit()) { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Splice an `le="..."` pair into an existing (possibly empty) label set.
fn merge_le_label(labels: &str, le: &str) -> String {
    match labels.strip_suffix('}') {
        Some(head) if !head.is_empty() && head != "{" => format!("{head},le=\"{le}\"}}"),
        _ => format!("{{le=\"{le}\"}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_state_across_clones() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x/events");
        let b = reg.counter("x/events");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x/events").get(), 5);

        let g = reg.gauge("x/level");
        g.set(2.5);
        reg.gauge("x/level").add(0.75);
        assert_eq!(g.get(), 3.25);
    }

    #[test]
    fn concurrent_counting_is_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let c = reg.counter("hot");
                    let g = reg.gauge("sum");
                    for _ in 0..1000 {
                        c.inc();
                        g.add(0.5);
                    }
                });
            }
        });
        assert_eq!(reg.counter("hot").get(), 4000);
        assert_eq!(reg.gauge("sum").get(), 2000.0);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        // One log-bucket is a 2^(1/8) ≈ 1.09 ratio; allow one bucket each way.
        let tol = 2f64.powf(1.0 / 8.0);
        assert!(s.p50 >= 500.0 / tol && s.p50 <= 500.0 * tol, "p50={}", s.p50);
        assert!(s.p90 >= 900.0 / tol && s.p90 <= 900.0 * tol, "p90={}", s.p90);
        assert!(s.p99 >= 990.0 / tol && s.p99 <= 990.0 * tol, "p99={}", s.p99);
    }

    #[test]
    fn histogram_handles_zero_and_tiny_values() {
        let h = Histogram::new();
        h.record(0.0);
        h.record(-1.0);
        h.record(1e-9);
        let s = h.summary();
        assert_eq!(s.count, 3);
        assert_eq!(h.0.lock().zeros, 2);
        assert_eq!(s.p50, 0.0, "median of {{-1, 0, 1e-9}} sits in the zero bucket");
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let s = Histogram::new().summary();
        assert_eq!(s, HistogramSummary::default());
    }

    #[test]
    fn histogram_single_sample_quantiles_sit_in_its_bucket() {
        let h = Histogram::new();
        h.record(10.0);
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max), (1, 10.0, 10.0));
        let tol = 2f64.powf(1.0 / 8.0);
        for (q, name) in [(s.p50, "p50"), (s.p90, "p90"), (s.p99, "p99")] {
            assert!(q >= 10.0 / tol && q <= 10.0 * tol, "{name}={q}");
        }
    }

    #[test]
    fn histogram_all_equal_samples_collapse_to_one_bucket() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(7.5);
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, s.p99, "every quantile reads the same bucket midpoint");
        let tol = 2f64.powf(1.0 / 8.0);
        assert!(s.p50 >= 7.5 / tol && s.p50 <= 7.5 * tol, "p50={}", s.p50);
        assert_eq!(h.0.lock().buckets.len(), 1);
    }

    #[test]
    fn histogram_of_disjoint_octaves_keeps_both_tails() {
        let h = Histogram::new();
        for _ in 0..1000 {
            h.record(0.25);
        }
        for _ in 0..10 {
            h.record(1024.0);
        }
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max), (1010, 0.25, 1024.0));
        let tol = 2f64.powf(1.0 / 8.0);
        assert!(s.p50 <= 0.25 * tol, "p50={} stays in the low octave", s.p50);
        // The top 10 of 1010 samples start above rank 1000, so p99 still
        // reads the low octave while max records the far tail exactly.
        assert!(s.p99 <= 0.25 * tol, "p99={}", s.p99);
    }

    #[test]
    fn labeled_series_escape_values_and_share_state() {
        assert_eq!(labeled("serve/jobs", "tenant", "acme"), "serve/jobs{tenant=\"acme\"}");
        assert_eq!(
            labeled("serve/jobs", "tenant", "a\\b\"c\nd"),
            r#"serve/jobs{tenant="a\\b\"c\nd"}"#
        );

        let reg = MetricsRegistry::new();
        let acme = reg.counter(&labeled("serve/jobs", "tenant", "acme"));
        acme.add(3);
        reg.counter(&labeled("serve/jobs", "tenant", "acme")).inc();
        reg.counter(&labeled("serve/jobs", "tenant", "umbrella")).inc();
        reg.histogram(&labeled("serve/wait_s", "tenant", "acme")).record(0.5);

        let snap = reg.snapshot();
        assert_eq!(acme.get(), 4, "one name resolves one shared series");
        assert_eq!(snap.counter("serve/jobs{tenant=\"acme\"}"), 4);
        assert_eq!(snap.counter("serve/jobs{tenant=\"umbrella\"}"), 1);
        assert_eq!(snap.histogram("serve/wait_s{tenant=\"acme\"}").unwrap().count, 1);
    }

    #[test]
    fn prometheus_exposition_matches_the_golden_file() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.gauge("arcs/demo/energy_j").set(2.5);
        reg.counter("arcs/demo/evals").add(5);
        reg.counter(&labeled("arcs/demo/jobs", "tenant", "acme")).add(3);
        let lat = reg.histogram("arcs/demo/lat_s");
        lat.record(1.0);
        lat.record(3.0);
        let text = reg.snapshot().to_prometheus();
        assert_eq!(text, include_str!("../testdata/prometheus_golden.txt"));
    }

    #[test]
    fn prometheus_renders_zero_only_and_labeled_histograms() {
        let reg = Arc::new(MetricsRegistry::new());
        reg.histogram("only/zeros").record(0.0);
        reg.histogram(&labeled("fam/lat_s", "tenant", "a\"b")).record(2.0);
        let text = reg.snapshot().to_prometheus();
        assert!(text.contains("only_zeros_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("fam_lat_s_bucket{tenant=\"a\\\"b\",le=\"4\"} 1\n"), "{text}");
        assert!(text.contains("fam_lat_s_count{tenant=\"a\\\"b\"} 1\n"), "{text}");
    }

    #[test]
    fn snapshot_sorts_and_reads_counters() {
        let reg = MetricsRegistry::new();
        reg.counter("b/count").add(2);
        reg.gauge("a/level").set(1.5);
        reg.histogram("c/lat").record(0.25);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["a/level", "b/count", "c/lat"]);
        assert_eq!(snap.counter("b/count"), 2);
        assert_eq!(snap.counter("a/level"), 0, "gauges don't read as counters");
    }
}
