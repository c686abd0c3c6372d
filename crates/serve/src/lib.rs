//! # arcs-serve — a multi-tenant power-budget broker over the tuning stack
//!
//! Everything below the broker tunes *one* application under *one* cap.
//! This crate closes the loop the other way: many tenants submit tuning
//! jobs, the broker owns a single global power budget and arbitrates it
//! hierarchically — global budget → per-node allocations → per-socket
//! package caps — re-dividing on every arrival, completion and
//! degradation. A reallocation reaches a running job as a mid-run
//! `CapChange` through its [`arcs::CapHandle`], the same boundary-
//! coalesced path a scheduled cap fault takes. The per-region tuners
//! hold no cap and do not re-adapt: the move reprices the job's next
//! invocation, settled regions keep their configuration, and MAD
//! rejection may treat the step as noise.
//!
//! Layers:
//!
//! * [`broker`] — the deterministic core: job and node state, the
//!   virtual-time event loop (quantum execution, node faults, requeues)
//!   over an [`arcs_powersim::Fleet`], and every broker event's emission.
//! * `quantum` — the broker's quantum memo: a job retracing an earlier
//!   job's inputs and cap path recalls its quanta, and builds its
//!   executor and tuner only at its first miss.
//! * [`arbitration`] — the decisions the broker carries out, as pure
//!   functions: admission control, FIFO placement, crash back-off and
//!   the weighted-fair water-filling of the budget.
//! * `recovery` — [`Broker::recover`]: the journal header ⇄ config
//!   conversion and the deterministic replay of a write-ahead journal.
//! * [`protocol`] — newline-delimited JSON request/response types for
//!   the TCP service (`submit`, `status`, `stats`, `metrics`, `watch`,
//!   `shutdown`).
//! * [`server`] — the long-running service: one thread owns the broker
//!   and runs each request's closure over it; a hand-rolled
//!   [`pool::ThreadPool`] serves framed connections, building and
//!   encoding every response, with its queue, busy and panic series in
//!   the broker's registry.
//! * [`telemetry`] — the live telemetry plane: one
//!   [`TelemetrySnapshot`] frame type shared by the `stats`/`watch`
//!   ops and the `arcs-serve-top` dashboard. Frames are a read-out of
//!   [`arcs_metrics::BrokerFold`], the one interpreter of the broker's
//!   events: the broker folds what it emits, and folding a broker trace
//!   (schema v5+) rebuilds the same frames, deterministically.
//!
//! The `arcs-serve` binary hosts the service; `arcs-serve-loadgen`
//! replays deterministic multi-tenant arrival streams against either the
//! in-process broker or a live server and checks throughput, fairness
//! and budget conservation from the emitted trace; `arcs-serve-top`
//! renders the telemetry plane as a live (or replayed) terminal
//! dashboard.

pub mod arbitration;
pub mod broker;
pub mod job;
pub mod journal;
pub mod pool;
pub mod protocol;
mod quantum;
mod recovery;
pub mod server;

/// The frame types live beside the fold that builds them
/// ([`arcs_metrics::broker_fold`]); these are their paths of record.
pub mod telemetry {
    pub use arcs_metrics::broker_fold::{Digest, TelemetrySnapshot, TenantTelemetry, EVENT_PANE};
}

pub use broker::{Broker, BrokerConfig, BrokerCounters, ALLOC_QUANTUM_W};
pub use job::{CompletedJob, JobSpec, JobState, SubmitOutcome};
pub use journal::{load_journal, BrokerJournal, JournalError};
pub use protocol::{Request, Response};
pub use server::{Server, ServerHandle};
pub use telemetry::{Digest, TelemetrySnapshot, TenantTelemetry};

/// Parse a binary's `--node-faults` value
/// ([`NodeFaultPlan::from_spec`](arcs_powersim::NodeFaultPlan::from_spec));
/// a malformed spec is a usage error: one line on stderr, exit 2.
pub fn node_faults_or_exit(spec: &str) -> arcs_powersim::NodeFaultPlan {
    arcs_powersim::NodeFaultPlan::from_spec(spec).unwrap_or_else(|err| {
        eprintln!("--node-faults: {err}");
        std::process::exit(2)
    })
}
