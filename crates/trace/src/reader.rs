//! The streaming JSONL reader: the one place the format the sinks write
//! ([`crate::JsonlSink`], [`crate::to_jsonl`]) is read back — envelope
//! parse, schema-window check, sequence check, torn-tail tolerance.
//! [`crate::validate_jsonl`] and the `arcs-metrics` analyser are both
//! collects over it.

use crate::event::{TraceRecord, SUPPORTED_SCHEMAS};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Why a trace line could not be consumed.
#[derive(Debug)]
pub enum TraceReadError {
    Io(std::io::Error),
    /// Line `line` (1-based) is not a valid JSON record.
    Parse {
        line: usize,
        source: serde_json::Error,
    },
    /// The record was written by a schema outside [`SUPPORTED_SCHEMAS`]
    /// (newer than [`crate::SCHEMA_VERSION`], older than the window's
    /// start, or not a real version at all); reading on would silently
    /// misinterpret fields. Versions inside the window are fine — fields
    /// added since deserialize to their defaults.
    SchemaMismatch {
        line: usize,
        found: u32,
        expected: u32,
    },
    /// Sequence numbers must strictly increase within a file (sinks
    /// assign them from one atomic counter).
    NonMonotonicSeq {
        line: usize,
        prev: u64,
        seq: u64,
    },
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceReadError::Parse { line, source } => {
                write!(f, "trace line {line}: invalid record: {source}")
            }
            TraceReadError::SchemaMismatch { line, found, expected } => write!(
                f,
                "trace line {line}: schema {found}, this reader expects {}..={expected}",
                SUPPORTED_SCHEMAS.start()
            ),
            TraceReadError::NonMonotonicSeq { line, prev, seq } => {
                write!(f, "trace line {line}: seq {seq} after {prev} (must strictly increase)")
            }
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Io(e) => Some(e),
            TraceReadError::Parse { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceReadError {
    fn from(e: std::io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

/// Streaming JSONL reader yielding validated [`TraceRecord`]s.
///
/// Hard failures (parse errors, schema mismatch, out-of-order sequence
/// numbers) surface as `Err` items. *Gaps* in the sequence — legitimate
/// when a filtering sink dropped events, suspicious otherwise — are
/// counted ([`TraceReader::gaps`]) but do not stop the stream.
///
/// One deliberate exception: a parse failure on the *final* line of the
/// stream is treated as a crash-truncated trace (the writer died
/// mid-record — every earlier line is still a whole record, see
/// `JsonlSink`), so the stream ends cleanly with the lost record counted
/// as a sequence gap instead of failing the whole analysis.
pub struct TraceReader<R: BufRead> {
    lines: std::io::Lines<R>,
    line_no: usize,
    last_seq: Option<u64>,
    gaps: u64,
    /// A line pulled while peeking past a parse failure, to be consumed
    /// before the underlying iterator.
    lookahead: Option<String>,
}

impl TraceReader<BufReader<File>> {
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(TraceReader::new(BufReader::new(File::open(path)?)))
    }
}

impl<R: BufRead> TraceReader<R> {
    pub fn new(reader: R) -> Self {
        TraceReader { lines: reader.lines(), line_no: 0, last_seq: None, gaps: 0, lookahead: None }
    }

    /// Missing sequence numbers observed so far (`seq` jumped by more
    /// than one). A complete single-sink trace has zero.
    pub fn gaps(&self) -> u64 {
        self.gaps
    }

    /// The next non-blank line (blank lines are not records), leaving
    /// `line_no` on it; `None` at the end of the stream.
    fn next_line(&mut self) -> Option<std::io::Result<String>> {
        if let Some(line) = self.lookahead.take() {
            return Some(Ok(line));
        }
        loop {
            match self.lines.next()? {
                Ok(line) => {
                    self.line_no += 1;
                    if !line.trim().is_empty() {
                        return Some(Ok(line));
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceReadError>;

    fn next(&mut self) -> Option<Self::Item> {
        let line = match self.next_line()? {
            Ok(l) => l,
            Err(e) => return Some(Err(e.into())),
        };
        let rec: TraceRecord = match serde_json::from_str(&line) {
            Ok(r) => r,
            Err(source) => {
                let line = self.line_no;
                // Peek: if nothing but blank lines follows, this is a
                // crash-truncated tail — count the half-written record
                // as a gap and end the stream. Anything after it means
                // mid-stream corruption, which stays a hard error.
                return match self.next_line() {
                    None => {
                        self.gaps += 1;
                        None
                    }
                    Some(Err(e)) => Some(Err(e.into())),
                    Some(Ok(next)) => {
                        self.lookahead = Some(next);
                        Some(Err(TraceReadError::Parse { line, source }))
                    }
                };
            }
        };
        if !SUPPORTED_SCHEMAS.contains(&rec.schema) {
            return Some(Err(TraceReadError::SchemaMismatch {
                line: self.line_no,
                found: rec.schema,
                expected: *SUPPORTED_SCHEMAS.end(),
            }));
        }
        match self.last_seq {
            Some(prev) if rec.seq <= prev => {
                return Some(Err(TraceReadError::NonMonotonicSeq {
                    line: self.line_no,
                    prev,
                    seq: rec.seq,
                }));
            }
            Some(prev) => self.gaps += rec.seq - prev - 1,
            None => self.gaps += rec.seq, // sinks number from 0
        }
        self.last_seq = Some(rec.seq);
        Some(Ok(rec))
    }
}
