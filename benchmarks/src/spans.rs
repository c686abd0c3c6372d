//! In-memory spans, recorded from the benchmark's own code around calls
//! into each layer, and the two decorators that give child spans under a
//! `Runner::run` or a `Broker::step` without touching either.
//!
//! A span is `(name, start, end, parent, id)`; spans of one sweep cell or
//! one served job share `id`. Calls too short to be worth a span each (a
//! region invocation is ~0.4 µs warm) are *aggregated*: one child span
//! per parent whose duration is the sum of the calls' durations and whose
//! `calls` counts them. A layer's self time is its spans' duration minus
//! their children's.

use arcs::backend::{Backend, RegionRun, RunError};
use arcs::{CapHandle, TunedConfig};
use arcs_metrics::MetricsRegistry;
use arcs_powersim::{FaultPlan, Machine, MeasureError, RegionModel, SharedSimCache};
use arcs_trace::{TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the log, `None` for a root.
    pub parent: Option<u32>,
    /// Cell index or job id: what the spans of one unit of work share.
    pub id: u64,
    /// Calls folded into this span (1 unless aggregated).
    pub calls: u64,
}

/// What one layer (span name) cost over a whole log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub total_ns: u64,
    pub self_ns: u64,
    pub spans: u64,
    pub calls: u64,
}

/// Handle to an open span (its index in the log).
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// The span log. Owned by the one thread that drives the workload; other
/// threads hand over closed spans through [`SpanLog::root`].
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// The instant every `*_ns` in this log counts from; client threads
    /// time against it so their spans land on the same axis.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u32 {
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(span);
        idx
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        let start_ns = self.now_ns();
        let parent = self.stack.last().copied();
        let idx = self.push(Span { name, start_ns, end_ns: start_ns, parent, id, calls: 1 });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close the innermost open span, which must be `open`; returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, open: Open) -> u64 {
        let end_ns = self.now_ns();
        let top = self.stack.pop().expect("close without an open span");
        assert_eq!(top, open.0, "spans close innermost first");
        let span = &mut self.spans[top as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Add a closed child under the innermost open span: `calls` calls
    /// that together took `dur_ns`, the first starting at `start_ns`.
    pub fn child(&mut self, name: &'static str, start_ns: u64, dur_ns: u64, calls: u64) {
        let &parent = self.stack.last().expect("child without an open span");
        let id = self.spans[parent as usize].id;
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            id,
            calls,
        });
    }

    /// Add a closed root span timed elsewhere (a client thread).
    pub fn root(&mut self, name: &'static str, start_ns: u64, end_ns: u64, id: u64) {
        self.push(Span { name, start_ns, end_ns, parent: None, id, calls: 1 });
    }

    /// Total and self time per span name. Self time is a span's duration
    /// minus its direct children's, floored at zero (aggregated children
    /// carry summed durations, so they can only under-cover, never
    /// overlap).
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        assert!(self.stack.is_empty(), "layer times of a log with open spans");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
            e.spans += 1;
            e.calls += s.calls;
        }
        out
    }

    /// Durations (ns) of every span called `name`, in log order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// One JSON object per line: `name,start_ns,end_ns,parent,id,calls`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.id, s.calls
            )?;
        }
        out.flush()
    }
}

/// Busy time of a decorated layer since the last [`Busy::take`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Busy {
    /// Start of the first call, on the span log's axis.
    pub first_ns: u64,
    pub busy_ns: u64,
    pub calls: u64,
}

impl Busy {
    /// Move this aggregate into `log` as one child of the open span.
    pub fn into_child(self, log: &mut SpanLog, name: &'static str) {
        if self.calls > 0 {
            log.child(name, self.first_ns, self.busy_ns, self.calls);
        }
    }
}

/// A [`Backend`] that times every `run_region` of the backend it wraps.
/// The [`arcs::Runner`] drives it exactly as it drives the inner backend,
/// so the run's report is the inner backend's, bit for bit.
pub struct TimedBackend<B: Backend> {
    pub inner: B,
    epoch: Instant,
    busy: Busy,
}

impl<B: Backend> TimedBackend<B> {
    pub fn new(inner: B, log: &SpanLog) -> Self {
        TimedBackend { inner, epoch: log.epoch(), busy: Busy::default() }
    }

    /// The busy time accumulated since the last call, reset to zero.
    pub fn take(&mut self) -> Busy {
        std::mem::take(&mut self.busy)
    }
}

impl<B: Backend> Backend for TimedBackend<B> {
    fn machine(&self) -> &Machine {
        self.inner.machine()
    }
    fn power_cap_w(&self) -> f64 {
        self.inner.power_cap_w()
    }
    fn requested_power_cap_w(&self) -> f64 {
        self.inner.requested_power_cap_w()
    }
    fn begin_run(&mut self) {
        self.inner.begin_run()
    }
    fn charge_overhead(&mut self, dt_s: f64) {
        self.inner.charge_overhead(dt_s)
    }
    fn run_region(&mut self, region: &RegionModel, cfg: TunedConfig) -> RegionRun {
        let t0 = self.epoch.elapsed();
        let run = self.inner.run_region(region, cfg);
        let t1 = self.epoch.elapsed();
        if self.busy.calls == 0 {
            self.busy.first_ns = t0.as_nanos() as u64;
        }
        self.busy.busy_ns += (t1 - t0).as_nanos() as u64;
        self.busy.calls += 1;
        run
    }
    fn energy_j(&mut self) -> Result<f64, MeasureError> {
        self.inner.energy_j()
    }
    fn attach_faults(&mut self, plan: FaultPlan) {
        self.inner.attach_faults(plan)
    }
    fn attach_cap_handle(&mut self, handle: CapHandle) {
        self.inner.attach_cap_handle(handle)
    }
    fn record_sample(&mut self, region: &str, time_s: f64, energy_total_j: f64) {
        self.inner.record_sample(region, time_s, energy_total_j)
    }
    fn trace(&self) -> Option<&Arc<dyn TraceSink>> {
        self.inner.trace()
    }
    fn attach_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.inner.attach_trace(sink)
    }
    fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.inner.metrics()
    }
    fn attach_metrics(&mut self, registry: Arc<MetricsRegistry>) {
        self.inner.attach_metrics(registry)
    }
    fn bind_shared_cache(&mut self, cache: Arc<SharedSimCache>) -> Result<(), RunError> {
        self.inner.bind_shared_cache(cache)
    }
}

/// A [`TraceSink`] that times every `record` of the sink it wraps. The
/// counters are atomics because a sink is shared (`&self`); the broker
/// that writes to it is single-threaded, so they never contend.
pub struct TimedSink<S: TraceSink> {
    pub inner: S,
    epoch: Instant,
    first_ns: AtomicU64,
    busy_ns: AtomicU64,
    calls: AtomicU64,
}

impl<S: TraceSink> TimedSink<S> {
    pub fn new(inner: S, log: &SpanLog) -> Self {
        TimedSink {
            inner,
            epoch: log.epoch(),
            first_ns: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
        }
    }

    /// The busy time accumulated since the last call, reset to zero.
    pub fn take(&self) -> Busy {
        Busy {
            first_ns: self.first_ns.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.swap(0, Ordering::Relaxed),
            calls: self.calls.swap(0, Ordering::Relaxed),
        }
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&self, t_s: Option<f64>, event: TraceEvent) {
        let t0 = self.epoch.elapsed();
        self.inner.record(t_s, event);
        let t1 = self.epoch.elapsed();
        // Relaxed: statistics only, published to the reader by the
        // broker call returning on the same thread.
        if self.calls.fetch_add(1, Ordering::Relaxed) == 0 {
            self.first_ns.store(t0.as_nanos() as u64, Ordering::Relaxed);
        }
        self.busy_ns.fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        calls: u64,
    ) -> Span {
        Span { name, start_ns, end_ns, parent, id: 7, calls }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut log = SpanLog::new();
        // cell [0,100) → run [10,90) → backend aggregate of 40 ns in 5
        // calls; a second run [90,98) with no children.
        log.spans = vec![
            span("cell", 0, 100, None, 1),
            span("run", 10, 90, Some(0), 1),
            span("backend", 12, 52, Some(1), 5),
            span("run", 90, 98, Some(0), 1),
        ];
        let t = log.layer_times();
        assert_eq!(
            t["cell"],
            LayerTime { total_ns: 100, self_ns: 100 - 80 - 8, spans: 1, calls: 1 }
        );
        assert_eq!(
            t["run"],
            LayerTime { total_ns: 88, self_ns: (80 - 40) + 8, spans: 2, calls: 2 }
        );
        assert_eq!(t["backend"], LayerTime { total_ns: 40, self_ns: 40, spans: 1, calls: 5 });
        // Self times partition the root: nothing counted twice or lost.
        let self_sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(self_sum, 100);
    }

    #[test]
    fn children_longer_than_their_parent_floor_at_zero() {
        let mut log = SpanLog::new();
        log.spans = vec![span("step", 0, 10, None, 1), span("sink", 0, 14, Some(0), 3)];
        assert_eq!(log.layer_times()["step"].self_ns, 0);
    }

    #[test]
    fn open_close_nests_and_children_inherit_the_id() {
        let mut log = SpanLog::new();
        let cell = log.open("cell", 42);
        let run = log.open("run", 42);
        Busy { first_ns: 5, busy_ns: 30, calls: 3 }.into_child(&mut log, "backend");
        Busy::default().into_child(&mut log, "never-called");
        log.close(run);
        log.close(cell);
        log.root("roundtrip", 1, 9, 3);
        assert_eq!(log.spans.len(), 4);
        assert_eq!(log.spans[1].parent, Some(0));
        assert_eq!(log.spans[2], span("backend", 5, 35, Some(1), 3).with_id(42));
        assert_eq!(log.spans[3].parent, None);
        assert!(log.spans[0].end_ns >= log.spans[1].end_ns);
        assert_eq!(log.durations("roundtrip"), vec![8.0]);
    }

    impl Span {
        fn with_id(mut self, id: u64) -> Span {
            self.id = id;
            self
        }
    }
}
