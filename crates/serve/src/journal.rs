//! The broker's write-ahead journal: crash recovery by deterministic
//! replay.
//!
//! Every externally driven state transition — one [`JobSubmitted`] per
//! accepted submission, one [`BrokerStep`] per discrete-event step — is
//! appended (and flushed) *before* the broker acknowledges it, reusing
//! the schema-v9 trace-event vocabulary. Because the broker is fully
//! deterministic, the journal does not need to snapshot any state:
//! replaying the header plus the op sequence reconstructs the exact
//! broker — same completion set, same virtual clock, and (with trace
//! emission on during replay) a byte-identical trace file.
//!
//! A journal cut off mid-line by a crash is fine: the reader tolerates
//! a truncated final record the same way [`TraceReader`] does for
//! traces, and an op that never finished flushing was by definition
//! never acknowledged.
//!
//! [`JobSubmitted`]: TraceEvent::JobSubmitted
//! [`BrokerStep`]: TraceEvent::BrokerStep

use arcs_trace::{JsonlSink, TraceEvent, TraceReadError, TraceReader, TraceRecord, TraceSink};
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Append-only journal writer. Unlike a plain [`JsonlSink`], every
/// append flushes — the journal is the durability story, not a
/// narrative stream, and broker emission points are coarse enough that
/// per-record flushes cost nothing that matters.
pub struct BrokerJournal {
    sink: JsonlSink<File>,
}

impl BrokerJournal {
    /// Create (truncate) the journal at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(BrokerJournal { sink: JsonlSink::create(path)? })
    }

    /// Append one record and flush it to the OS before returning. A
    /// failing flush is absorbed (the sink latches its first error for
    /// [`last_error`](BrokerJournal::last_error)) — the broker must not
    /// die because its journal disk did.
    pub fn append(&self, t_s: f64, event: TraceEvent) {
        self.sink.record(Some(t_s), event);
        let _ = self.sink.flush();
    }

    /// The first write error the underlying sink absorbed, if any.
    pub fn last_error(&self) -> Option<String> {
        self.sink.last_error()
    }

    /// Mirror the count of appends that did not reach the file into
    /// `cell` ([`JsonlSink::set_write_error_counter`]).
    pub fn set_write_error_counter(&self, cell: Arc<AtomicU64>) {
        self.sink.set_write_error_counter(cell);
    }
}

/// Why a journal could not be loaded.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be opened.
    Open(io::Error),
    /// A record mid-stream was unreadable (truncated *final* lines are
    /// tolerated; torn bytes in the middle are not).
    Read(TraceReadError),
    /// The journal does not start with a `BrokerConfigured` header, or
    /// the header is not reconstructible (unknown machine model, bad
    /// embedded options blob).
    Header(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Open(e) => write!(f, "cannot open journal: {e}"),
            JournalError::Read(e) => write!(f, "cannot read journal: {e}"),
            JournalError::Header(msg) => write!(f, "bad journal header: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

/// Load every intact record from a journal file, tolerating a final
/// record torn by a crash mid-write (it was never acknowledged, so
/// dropping it is the correct recovery).
pub fn load_journal(path: &Path) -> Result<Vec<TraceRecord>, JournalError> {
    let reader = TraceReader::open(path).map_err(JournalError::Open)?;
    reader.map(|rec| rec.map_err(JournalError::Read)).collect()
}
