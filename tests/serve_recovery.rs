//! Crash-recovery contract for the broker's write-ahead journal: kill
//! the broker after *any* prefix of its op sequence, recover from the
//! journal, re-apply the remaining ops, and the final state — completion
//! set, counters, and the trace byte-for-byte — must match the run that
//! was never interrupted. Plus the conservation identity as a property:
//! under any bounded node-fault plan, every submitted job reaches
//! exactly one terminal state and Σ allocations never tops the budget.
//!
//! The chaos run's trace and journal, and a recovered run's, are also
//! pinned across commits (`golden::pin`, constants generated at
//! `bf1b734`, before recovery and arbitration left `broker.rs`).

mod golden;

use arcs_powersim::{Fleet, Machine, NodeFaultPlan};
use arcs_serve::{Broker, BrokerConfig, BrokerJournal, JobSpec, SubmitOutcome};
use arcs_trace::{TraceEvent, TraceRecord, VecSink};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("arcs-recovery-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn chaos_config() -> BrokerConfig {
    let mut cfg = BrokerConfig::new(400.0);
    cfg.quantum_timesteps = 2;
    cfg.node_faults = Some(NodeFaultPlan::node_flap(7));
    cfg.max_queue = Some(16);
    cfg
}

/// Drive a journaled broker through a fixed mixed op sequence —
/// submissions from two tenants, a planted inadmissible job, partial
/// steps, then a full drain. Every op lands in the journal.
fn drive(broker: &mut Broker) {
    for i in 0..6u64 {
        let tenant = if i % 2 == 0 { "acme" } else { "umbrella" };
        let mut spec =
            JobSpec::new(tenant, ["sp.S", "cg.S"][i as usize % 2]).timesteps(4 + i as usize);
        if i == 3 {
            spec = spec.floor_w(9_000.0); // planted inadmissible job
        }
        if i == 4 {
            spec = spec.fault_seed(11);
        }
        broker.submit(spec);
        for _ in 0..(i % 3) {
            broker.step();
        }
    }
    while broker.step() {}
}

/// Re-apply journal op records (everything after the header) to a
/// broker, exactly as a client re-driving the workload would.
fn apply_ops(broker: &mut Broker, ops: &[TraceRecord]) {
    for rec in ops {
        match &rec.event {
            TraceEvent::JobSubmitted {
                tenant,
                workload,
                weight,
                timesteps,
                fault_seed,
                requested_floor_w,
                ..
            } => {
                let _ = broker.submit(JobSpec {
                    tenant: tenant.clone(),
                    workload: workload.clone(),
                    timesteps: *timesteps as usize,
                    floor_w: *requested_floor_w,
                    weight: *weight,
                    fault_seed: *fault_seed,
                });
            }
            TraceEvent::BrokerStep {} => {
                broker.step();
            }
            other => panic!("unexpected journal op {:?}", other.kind()),
        }
    }
}

fn trace_text(records: &[TraceRecord]) -> String {
    records.iter().map(|r| serde_json::to_string(r).unwrap()).collect::<Vec<_>>().join("\n")
}

/// The tentpole acceptance test: for EVERY prefix k of the journal's op
/// sequence, killing after op k and recovering reconstructs a broker
/// that — once the remaining ops are re-applied — has the same
/// completion set, the same counters, and a byte-identical trace.
#[test]
fn kill_after_any_op_then_recover_matches_the_uninterrupted_run() {
    let dir = temp_dir("prefix");
    let journal_path = dir.join("broker.journal.jsonl");

    let full_sink = Arc::new(VecSink::new());
    let mut full = Broker::new(
        Fleet::homogeneous(Machine::crill(), 2),
        chaos_config(),
        full_sink.clone() as Arc<dyn arcs_trace::TraceSink>,
    );
    full.attach_journal(BrokerJournal::create(&journal_path).unwrap());
    drive(&mut full);
    assert!(full.journal_error().is_none());
    assert!(full.counters().completed > 0, "the scenario must complete jobs");

    let full_trace = trace_text(&full_sink.drain());
    let journal_text = std::fs::read_to_string(&journal_path).unwrap();
    golden::pin("broker_golden", "drive.trace", &full_trace, 0x4359_beef_175a_d483);
    golden::pin("broker_golden", "drive.journal", &journal_text, 0xeeb3_fc25_a6f1_47c1);
    let journal_lines: Vec<String> = journal_text.lines().map(str::to_owned).collect();
    let ops = arcs_serve::load_journal(&journal_path).unwrap()[1..].to_vec();
    assert!(ops.len() > 10, "the scenario must journal a real op sequence");

    for k in 0..=ops.len() {
        // "Kill" after op k: the journal holds the header + k ops.
        let trunc_path = dir.join(format!("trunc_{k}.jsonl"));
        std::fs::write(&trunc_path, journal_lines[..=k].join("\n") + "\n").unwrap();

        let sink = Arc::new(VecSink::new());
        let mut recovered =
            Broker::recover(&trunc_path, sink.clone() as Arc<dyn arcs_trace::TraceSink>, None)
                .unwrap();
        apply_ops(&mut recovered, &ops[k..]);

        assert_eq!(
            recovered.counters(),
            full.counters(),
            "counters diverged when killed after op {k}"
        );
        assert_eq!(
            recovered.completed_jobs().keys().collect::<Vec<_>>(),
            full.completed_jobs().keys().collect::<Vec<_>>(),
            "completion set diverged when killed after op {k}"
        );
        assert_eq!(
            trace_text(&sink.drain()),
            full_trace,
            "trace bytes diverged when killed after op {k}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A journal torn mid-record by the crash (partial final line) recovers
/// cleanly: the unfinished op was never acknowledged, so dropping it is
/// correct — and recovery equals recovering from the intact prefix.
#[test]
fn a_torn_journal_tail_is_dropped_not_fatal() {
    let dir = temp_dir("torn");
    let journal_path = dir.join("broker.journal.jsonl");

    let sink = Arc::new(VecSink::new());
    let mut broker = Broker::new(
        Fleet::homogeneous(Machine::crill(), 2),
        chaos_config(),
        sink as Arc<dyn arcs_trace::TraceSink>,
    );
    broker.attach_journal(BrokerJournal::create(&journal_path).unwrap());
    drive(&mut broker);

    let bytes = std::fs::read(&journal_path).unwrap();
    let torn_path = dir.join("torn.jsonl");
    std::fs::write(&torn_path, &bytes[..bytes.len() - 7]).unwrap();
    let torn = Broker::recover(
        &torn_path,
        Arc::new(VecSink::new()) as Arc<dyn arcs_trace::TraceSink>,
        None,
    )
    .expect("a torn final record must not block recovery");

    // Equivalent to the intact journal minus its (now torn) final line.
    let lines: Vec<&str> = std::str::from_utf8(&bytes).unwrap().lines().collect();
    let intact_path = dir.join("intact.jsonl");
    std::fs::write(&intact_path, lines[..lines.len() - 1].join("\n") + "\n").unwrap();
    let intact = Broker::recover(
        &intact_path,
        Arc::new(VecSink::new()) as Arc<dyn arcs_trace::TraceSink>,
        None,
    )
    .unwrap();
    assert_eq!(torn.counters(), intact.counters());
    std::fs::remove_dir_all(&dir).ok();
}

/// Journals written while `measure_k` and `outlier_window` were still
/// resilience options carry both in the header's resilience JSON.
/// Recovery ignores the retired keys and still reaches the uninterrupted
/// broker.
#[test]
fn a_journal_naming_retired_resilience_knobs_still_recovers() {
    let dir = temp_dir("retired-knobs");
    let journal_path = dir.join("broker.journal.jsonl");
    let mut cfg = chaos_config();
    cfg.resilience = Some(arcs::ResilienceOptions::standard());

    let full_sink = Arc::new(VecSink::new());
    let mut full = Broker::new(
        Fleet::homogeneous(Machine::crill(), 2),
        cfg,
        full_sink.clone() as Arc<dyn arcs_trace::TraceSink>,
    );
    full.attach_journal(BrokerJournal::create(&journal_path).unwrap());
    drive(&mut full);
    let full_trace = trace_text(&full_sink.drain());

    // The header as those builds wrote it: `measure_k` just before
    // `mad_threshold`, `outlier_window` just after it, at the only values
    // they ever held.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let (header, ops) = text.split_once('\n').unwrap();
    let old_header = header
        .replacen(r#"\"mad_threshold\""#, r#"\"measure_k\":1,\"mad_threshold\""#, 1)
        .replacen(r#"\"error_budget\""#, r#"\"outlier_window\":16,\"error_budget\""#, 1);
    assert!(old_header.contains("measure_k") && old_header.contains("outlier_window"));
    let old_path = dir.join("old.jsonl");
    std::fs::write(&old_path, format!("{old_header}\n{ops}")).unwrap();

    let sink = Arc::new(VecSink::new());
    let recovered =
        Broker::recover(&old_path, sink.clone() as Arc<dyn arcs_trace::TraceSink>, None)
            .expect("retired resilience keys must not block recovery");
    assert_eq!(recovered.counters(), full.counters());
    assert_eq!(recovered.now_s(), full.now_s());
    assert_eq!(trace_text(&sink.drain()), full_trace);
    std::fs::remove_dir_all(&dir).ok();
}

/// A recovered broker keeps journaling: recover with a NEW journal
/// attached, apply more work, kill, recover again — the lineage of
/// journals still reconstructs the final state, and the second journal
/// carries the `CheckpointRecovered` lineage marker.
#[test]
fn recovery_chains_journal_to_journal() {
    let dir = temp_dir("chain");
    let first_path = dir.join("first.jsonl");
    let second_path = dir.join("second.jsonl");

    let sink = Arc::new(VecSink::new());
    let mut first = Broker::new(
        Fleet::homogeneous(Machine::crill(), 2),
        chaos_config(),
        sink as Arc<dyn arcs_trace::TraceSink>,
    );
    first.attach_journal(BrokerJournal::create(&first_path).unwrap());
    first.submit(JobSpec::new("acme", "sp.S").timesteps(4));
    first.step();
    first.step();
    let mid_counters = first.counters();
    drop(first); // "crash" with a job still in flight

    let second_sink = Arc::new(VecSink::new());
    let mut second = Broker::recover(
        &first_path,
        second_sink.clone() as Arc<dyn arcs_trace::TraceSink>,
        Some(BrokerJournal::create(&second_path).unwrap()),
    )
    .unwrap();
    assert_eq!(second.counters(), mid_counters);
    second.submit(JobSpec::new("umbrella", "cg.S").timesteps(4));
    while second.step() {}
    let final_counters = second.counters();
    assert_eq!(final_counters.completed, 2, "both generations' jobs complete");
    drop(second);
    // The replayed prefix plus the second generation's own work, and the
    // journal that re-recorded both (header, ops, lineage marker).
    golden::pin(
        "broker_golden",
        "recovered.trace",
        &trace_text(&second_sink.drain()),
        0x7489_8f84_b3c7_a985,
    );
    let second_journal = std::fs::read_to_string(&second_path).unwrap();
    golden::pin("broker_golden", "recovered.journal", &second_journal, 0xb0a0_449d_f57b_1b89);

    // The second journal alone reconstructs the final state: its header
    // replay includes everything the first journal contributed.
    let third = Broker::recover(
        &second_path,
        Arc::new(VecSink::new()) as Arc<dyn arcs_trace::TraceSink>,
        None,
    )
    .unwrap();
    assert_eq!(third.counters(), final_counters);
    let marker = arcs_serve::load_journal(&second_path)
        .unwrap()
        .iter()
        .any(|r| matches!(r.event, TraceEvent::CheckpointRecovered { .. }));
    assert!(marker, "the second journal must carry the recovery lineage marker");
    std::fs::remove_dir_all(&dir).ok();
}

/// Run a broker to idle under `plan` and return (counters, trace).
fn chaos_to_idle(
    plan: NodeFaultPlan,
    jobs: u64,
    nodes: usize,
    max_queue: Option<usize>,
    seed: u64,
    journal: Option<BrokerJournal>,
) -> (arcs_serve::BrokerCounters, Vec<TraceRecord>) {
    let sink = Arc::new(VecSink::new());
    let mut cfg = BrokerConfig::new(110.0 * nodes as f64);
    cfg.quantum_timesteps = 2;
    cfg.node_faults = Some(plan);
    cfg.max_queue = max_queue;
    let mut broker = Broker::new(
        Fleet::homogeneous(Machine::crill(), nodes),
        cfg,
        sink.clone() as Arc<dyn arcs_trace::TraceSink>,
    );
    if let Some(journal) = journal {
        broker.attach_journal(journal);
    }
    let mut rng = seed;
    for i in 0..jobs {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let tenant = format!("tenant{}", rng % 3);
        let spec = JobSpec::new(tenant, ["sp.S", "cg.S", "ep.S"][(rng >> 8) as usize % 3])
            .timesteps(2 + (i as usize % 5));
        match broker.submit(spec) {
            SubmitOutcome::Admitted(_)
            | SubmitOutcome::Rejected { .. }
            | SubmitOutcome::Shed { .. } => {}
        }
        for _ in 0..(rng >> 16) % 3 {
            broker.step();
        }
    }
    broker.run_until_idle();
    (broker.counters(), sink.drain())
}

/// One chaos run where every resilience path fires — crash requeues with
/// backoff, free drain requeues, shedding, a retry budget running out —
/// held byte-equal across commits, trace and write-ahead journal both.
#[test]
fn a_chaos_run_to_idle_is_pinned_across_commits() {
    let dir = temp_dir("pinned");
    let journal_path = dir.join("chaos.journal.jsonl");
    let plan = NodeFaultPlan {
        seed: 3,
        start_s: 0.2,
        mtbf_s: 0.03,
        mttr_s: 0.02,
        drain_rate: 0.3,
        permanent_rate: 0.02,
        max_faults_per_node: 80,
    };
    let journal = BrokerJournal::create(&journal_path).unwrap();
    let (c, records) = chaos_to_idle(plan, 24, 2, Some(4), 42, Some(journal));
    let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
    for kind in ["NodeFailed", "NodeRecovered", "JobRequeued", "JobShed", "JobFailed"] {
        assert!(kinds.contains(&kind), "the cell must exercise {kind}: {c:?}");
    }
    golden::pin("broker_golden", "chaos.trace", &trace_text(&records), 0x1f9a_767c_5b10_6134);
    let journal_text = std::fs::read_to_string(&journal_path).unwrap();
    golden::pin("broker_golden", "chaos.journal", &journal_text, 0x6906_5365_9d42_736d);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation identity: for ANY bounded fault plan, every
    /// submitted job lands in exactly one terminal bucket once the
    /// broker drains, and no reallocation point ever tops the budget.
    #[test]
    fn every_job_reaches_one_terminal_state_under_any_fault_plan(
        seed in any::<u64>(),
        mtbf_s in 0.2f64..6.0,
        mttr_s in 0.05f64..3.0,
        drain_rate in 0.0f64..1.0,
        permanent_rate in 0.0f64..0.6,
        max_faults in 0u32..6,
        jobs in 1u64..24,
        nodes in 1usize..4,
        bound_queue in prop_oneof![Just(None), Just(Some(4usize))],
        arrivals in any::<u64>(),
    ) {
        let plan = NodeFaultPlan {
            seed,
            start_s: 0.2,
            mtbf_s,
            mttr_s,
            drain_rate,
            permanent_rate,
            max_faults_per_node: max_faults,
        };
        let (c, records) = chaos_to_idle(plan, jobs, nodes, bound_queue, arrivals, None);

        // Every job is accounted for, nothing is still in flight.
        prop_assert_eq!(c.queued, 0);
        prop_assert_eq!(c.running, 0);
        prop_assert_eq!(
            c.submitted,
            c.completed + c.rejected + c.failed + c.shed,
            "lost jobs: {:?}", c
        );

        // The power budget held at every reallocation point.
        for rec in &records {
            if let TraceEvent::CapReallocated { budget_w, total_w, .. } = &rec.event {
                prop_assert!(
                    *total_w <= *budget_w + 1e-6,
                    "budget violated: {} W allocated of {} W", total_w, budget_w
                );
            }
        }
    }
}
