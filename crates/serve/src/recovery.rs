//! Crash recovery: rebuilding a [`Broker`] from its write-ahead journal.
//!
//! A journal opens with a [`TraceEvent::BrokerConfigured`] header — the
//! fleet and [`BrokerConfig`] the broker was born with, spelled as a
//! trace event — followed by every op applied since (`JobSubmitted`,
//! `BrokerStep`). Both directions of the header conversion sit here side
//! by side ([`header`], [`from_header`]), so a config field added to one
//! cannot be forgotten in the other; [`Broker::recover`] replays the ops
//! through the ordinary `submit`/`step`, which is why this module emits
//! no broker event of its own.

use crate::broker::{Broker, BrokerConfig};
use crate::job::JobSpec;
use crate::journal::{load_journal, BrokerJournal, JournalError};
use arcs::ResilienceOptions;
use arcs_powersim::{Fleet, Machine, NodeFaultPlan};
use arcs_trace::{TraceEvent, TraceSink};
use std::path::Path;
use std::sync::Arc;

/// `(fleet, cfg)` → the journal's header record: everything needed to
/// rebuild the broker they describe.
pub(crate) fn header(fleet: &Fleet, cfg: &BrokerConfig) -> TraceEvent {
    TraceEvent::BrokerConfigured {
        budget_w: cfg.budget_w,
        quantum_timesteps: cfg.quantum_timesteps as u64,
        machines: fleet.nodes().iter().map(|n| n.machine.name.clone()).collect(),
        max_queue: cfg.max_queue.map(|q| q as u64),
        max_retries: cfg.max_retries,
        backoff_base_s: cfg.backoff_base_s,
        resilience: serde_json::to_string(&cfg.resilience).expect("resilience options serialize"),
        node_faults: serde_json::to_string(&cfg.node_faults).expect("node-fault plans serialize"),
    }
}

/// The header record → `(fleet, cfg)`: the inverse of [`header`].
fn from_header(event: TraceEvent) -> Result<(Fleet, BrokerConfig), JournalError> {
    let TraceEvent::BrokerConfigured {
        budget_w,
        quantum_timesteps,
        machines,
        max_queue,
        max_retries,
        backoff_base_s,
        resilience,
        node_faults,
    } = event
    else {
        return Err(JournalError::Header(
            "journal must start with a BrokerConfigured record".into(),
        ));
    };
    let mut fleet = Fleet::new();
    for name in &machines {
        let machine = Machine::by_name(name)
            .ok_or_else(|| JournalError::Header(format!("unknown machine model {name:?}")))?;
        fleet.push(machine);
    }
    let resilience: Option<ResilienceOptions> = serde_json::from_str(&resilience)
        .map_err(|e| JournalError::Header(format!("bad resilience options: {e}")))?;
    let node_faults: Option<NodeFaultPlan> = serde_json::from_str(&node_faults)
        .map_err(|e| JournalError::Header(format!("bad node-fault plan: {e}")))?;
    let cfg = BrokerConfig {
        budget_w,
        quantum_timesteps: quantum_timesteps as usize,
        resilience,
        node_faults,
        max_queue: max_queue.map(|q| q as usize),
        max_retries,
        backoff_base_s,
    };
    Ok((fleet, cfg))
}

impl Broker {
    /// Reconstruct a broker from its journal by deterministic replay.
    ///
    /// The journal header rebuilds the fleet and config; every recorded
    /// op (submission or step) is then re-applied in order. Because the
    /// broker is deterministic, the recovered broker reaches the exact
    /// state the original had when it last flushed — and with `trace`
    /// emission on during replay, the recovered trace file is
    /// byte-identical to the uninterrupted run's.
    ///
    /// `new_journal`, when given, is attached *before* replay so the new
    /// journal re-records the header and every replayed op — recovery
    /// from a recovery works. A [`TraceEvent::CheckpointRecovered`]
    /// marker is appended to the new journal (never to the trace, whose
    /// bytes must not shift) once replay finishes.
    pub fn recover(
        journal_path: &Path,
        trace: Arc<dyn TraceSink>,
        new_journal: Option<BrokerJournal>,
    ) -> Result<Broker, JournalError> {
        let records = load_journal(journal_path)?;
        let mut it = records.into_iter();
        let first = it.next().ok_or_else(|| JournalError::Header("empty journal".into()))?;
        let (fleet, cfg) = from_header(first.event)?;
        let mut broker = Broker::new(fleet, cfg, trace);
        if let Some(journal) = new_journal {
            broker.attach_journal(journal);
        }
        let mut ops = 0u64;
        for rec in it {
            match rec.event {
                TraceEvent::JobSubmitted {
                    tenant,
                    workload,
                    weight,
                    timesteps,
                    fault_seed,
                    requested_floor_w,
                    ..
                } => {
                    broker.submit(JobSpec {
                        tenant,
                        workload,
                        timesteps: timesteps as usize,
                        floor_w: requested_floor_w,
                        weight,
                        fault_seed,
                    });
                }
                TraceEvent::BrokerStep {} => {
                    broker.step();
                }
                // Marker left by an earlier recovery of this lineage.
                TraceEvent::CheckpointRecovered { .. } => continue,
                other => {
                    return Err(JournalError::Header(format!(
                        "unexpected journal record {:?}",
                        other.kind()
                    )))
                }
            }
            ops += 1;
        }
        let c = broker.counters();
        broker.journal_op(TraceEvent::CheckpointRecovered {
            ops,
            submitted: c.submitted,
            completed: c.completed,
        });
        Ok(broker)
    }
}
