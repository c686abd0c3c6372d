//! Sink implementations: where trace events go.
//!
//! [`NullSink`] is disabled (`enabled() == false`), so the guarded call
//! sites build no event. [`VecSink`] keeps records in memory, sharded
//! for concurrent emitters, and `drain()` returns them in `seq` order.
//! [`JsonlSink`] buffers one record per line and defers I/O errors: it
//! keeps writing what it can, counts what it drops (mirrored into an
//! attached registry as `arcs/trace/write_errors`) and reports the first
//! error through `last_error` and `flush`.

use crate::event::{TraceEvent, TraceRecord, SCHEMA_VERSION};
use parking_lot::Mutex;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// A destination for trace events. Implementations must be thread-safe:
/// concurrent sweep cells share one sink.
///
/// The overhead contract: call sites MUST guard event construction with
/// [`enabled`](TraceSink::enabled) —
///
/// ```ignore
/// if sink.enabled() {
///     sink.record(Some(t), TraceEvent::CacheHit { region: name.into() });
/// }
/// ```
///
/// — so a disabled sink ([`NullSink`]) costs one branch and zero
/// allocations on the hot path, and tracing can never perturb results.
pub trait TraceSink: Send + Sync {
    /// Should callers build and submit events? Constant per sink.
    fn enabled(&self) -> bool {
        true
    }

    /// Store one event. `t_s` is the emitter's run clock (seconds since
    /// run start), `None` when the event has no timeline position.
    fn record(&self, t_s: Option<f64>, event: TraceEvent);
}

/// The no-op sink: [`enabled`](TraceSink::enabled) is `false`, so guarded
/// call sites never even construct the event.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _t_s: Option<f64>, _event: TraceEvent) {}
}

const VEC_SHARDS: usize = 8;

/// An in-memory sink, lock-sharded so concurrent emitters rarely contend.
/// [`drain`](VecSink::drain) merges the shards back into one sequence
/// ordered by arrival.
#[derive(Debug, Default)]
pub struct VecSink {
    shards: Vec<Mutex<Vec<TraceRecord>>>,
    seq: AtomicU64,
}

impl VecSink {
    pub fn new() -> Self {
        VecSink {
            shards: (0..VEC_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            seq: AtomicU64::new(0),
        }
    }

    /// Number of records stored so far.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return every stored record, sorted by sequence number
    /// (the total order in which `record` calls arrived).
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut all: Vec<TraceRecord> =
            self.shards.iter().flat_map(|s| std::mem::take(&mut *s.lock())).collect();
        all.sort_by_key(|r| r.seq);
        all
    }
}

impl TraceSink for VecSink {
    fn record(&self, t_s: Option<f64>, event: TraceEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let record = TraceRecord { schema: SCHEMA_VERSION, seq, t_s, event };
        self.shards[(seq % VEC_SHARDS as u64) as usize].lock().push(record);
    }
}

struct JsonlState<W: Write + Send> {
    out: io::BufWriter<W>,
    /// First write/serialize failure; later records are dropped and the
    /// error surfaces from [`JsonlSink::flush`] / [`JsonlSink::into_inner`].
    error: Option<io::Error>,
}

#[derive(Default)]
struct JsonlErrors {
    /// Records dropped because of a write/serialize failure (the failing
    /// record itself included). Mirrored into `bridge` when set.
    dropped: AtomicU64,
    /// Rendered message of the first failure; unlike the `io::Error` in
    /// [`JsonlState`], never consumed — `last_error` stays readable after
    /// `flush` took the typed error.
    message: Mutex<Option<String>>,
    /// An externally owned cell to mirror the drop count into — the
    /// `arcs/trace/write_errors` registry counter, bridged as a raw
    /// `Arc<AtomicU64>` because `arcs-trace` sits below `arcs-metrics`
    /// in the dependency order.
    bridge: Mutex<Option<std::sync::Arc<AtomicU64>>>,
}

impl JsonlErrors {
    fn count_drop(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        if let Some(cell) = self.bridge.lock().as_ref() {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A buffered line-per-record JSON sink. Records are written as they
/// arrive, one [`TraceRecord`] per line — the format
/// [`crate::validate_jsonl`] checks.
///
/// Buffering never costs durability: records are complete lines, the
/// buffer is flushed by [`flush`](JsonlSink::flush), by
/// [`into_inner`](JsonlSink::into_inner) and on drop, so a dropped sink
/// always leaves a valid JSONL file behind (every line that reached the
/// writer is a whole record; at worst the tail of the stream is missing
/// if the final flush failed). A flush failure — or a deferred write
/// error nobody collected — cannot be *returned* from `Drop`, so it is
/// reported on stderr instead of being silently discarded; call
/// [`flush`](JsonlSink::flush) or [`into_inner`](JsonlSink::into_inner)
/// before dropping to handle it programmatically.
pub struct JsonlSink<W: Write + Send> {
    /// `None` only after [`into_inner`](JsonlSink::into_inner) took the
    /// writer (so `Drop` has nothing left to flush).
    state: Mutex<Option<JsonlState<W>>>,
    seq: AtomicU64,
    errors: JsonlErrors,
}

impl<W: Write + Send> JsonlSink<W> {
    pub fn new(writer: W) -> Self {
        JsonlSink {
            state: Mutex::new(Some(JsonlState { out: io::BufWriter::new(writer), error: None })),
            seq: AtomicU64::new(0),
            errors: JsonlErrors::default(),
        }
    }

    /// Flush buffered lines, surfacing any deferred write error.
    pub fn flush(&self) -> io::Result<()> {
        let mut guard = self.state.lock();
        let st = guard.as_mut().expect("writer still owned by the sink");
        if let Some(e) = st.error.take() {
            return Err(e);
        }
        st.out.flush().inspect_err(|e| {
            *self.errors.message.lock() = Some(e.to_string());
            self.errors.count_drop();
        })
    }

    /// The first write/serialize failure, rendered — `None` while the
    /// sink is healthy. Unlike [`flush`](JsonlSink::flush), reading this
    /// does not consume the typed error, so a monitoring path can poll it
    /// while the owning path still collects the `io::Error`.
    pub fn last_error(&self) -> Option<String> {
        self.errors.message.lock().clone()
    }

    /// Records dropped because the sink is in the failed state (the
    /// record that hit the first failure included).
    pub fn write_errors(&self) -> u64 {
        self.errors.dropped.load(Ordering::Relaxed)
    }

    /// Mirror the dropped-record count into an external cell — pass
    /// `registry.counter("arcs/trace/write_errors").shared()` so a dying
    /// trace file surfaces in metrics snapshots, not just on stderr.
    pub fn set_write_error_counter(&self, cell: std::sync::Arc<AtomicU64>) {
        cell.fetch_add(self.errors.dropped.load(Ordering::Relaxed), Ordering::Relaxed);
        *self.errors.bridge.lock() = Some(cell);
    }

    /// Flush and recover the underlying writer.
    pub fn into_inner(self) -> io::Result<W> {
        let st = self.state.lock().take().expect("writer still owned by the sink");
        if let Some(e) = st.error {
            return Err(e);
        }
        st.out.into_inner().map_err(|e| e.into_error())
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        // Errors cannot be returned from a Drop, but a trace that
        // silently lost its tail is worse than a noisy one: report both
        // an uncollected deferred write error and a failing final flush
        // on stderr.
        if let Some(st) = self.state.lock().as_mut() {
            if let Some(e) = st.error.take() {
                eprintln!("arcs-trace: JsonlSink dropped with an unreported write error: {e}");
            }
            if let Err(e) = st.out.flush() {
                eprintln!("arcs-trace: JsonlSink final flush failed on drop: {e}");
            }
        }
    }
}

impl JsonlSink<std::fs::File> {
    /// Create (truncating) a `.jsonl` file sink.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(std::fs::File::create(path)?))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&self, t_s: Option<f64>, event: TraceEvent) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let record = TraceRecord { schema: SCHEMA_VERSION, seq, t_s, event };
        let mut guard = self.state.lock();
        let Some(st) = guard.as_mut() else {
            return;
        };
        if st.error.is_some() {
            self.errors.count_drop();
            return;
        }
        let failure = match serde_json::to_string(&record) {
            Ok(line) => match writeln!(st.out, "{line}") {
                Ok(()) => return,
                Err(e) => e,
            },
            Err(e) => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        };
        *self.errors.message.lock() = Some(failure.to_string());
        st.error = Some(failure);
        self.errors.count_drop();
    }
}
