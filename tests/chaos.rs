//! End-to-end chaos contract: runs under a deterministic [`FaultPlan`]
//! never panic, the self-healing ladder (retry → reject → restart →
//! freeze → degrade) absorbs what the plan throws, the same seed yields
//! byte-identical traces, and an unabsorbable fault without an error
//! budget surfaces as a typed [`RunError::Measure`] — not a crash.

use arcs::prelude::*;
use arcs_kernels::model;
use arcs_metrics::{analyze, TraceReader};
use arcs_trace::to_jsonl;
use std::sync::Arc;

fn small_lulesh() -> WorkloadDescriptor {
    let mut wl = model::lulesh(45);
    wl.timesteps = 40;
    wl
}

/// One ARCS-Online run of LULESH at 60 W with `plan` attached; returns
/// the run result and the serialised trace.
fn chaos_run(plan: FaultPlan, res: ResilienceOptions) -> (Result<AppRunReport, RunError>, String) {
    let m = Machine::crill();
    let wl = small_lulesh();
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 60.0).with_trace(sink.clone());
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    let run =
        Runner::new(&mut exec).workload(&wl).tuner(&mut tuner).faults(plan).resilience(res).run();
    let jsonl = to_jsonl(&sink.drain()).expect("chaos traces serialise");
    (run, jsonl)
}

/// The paper-facing chaos scenario: ARCS-Online LULESH at 60 W under
/// `flaky-rapl` completes without panicking, visibly injected faults and
/// visibly rejected measurements appear in the trace, and two runs with
/// the same seed produce byte-identical trace files.
#[test]
fn flaky_rapl_lulesh_self_heals_and_is_deterministic() {
    let (run_a, trace_a) = chaos_run(FaultPlan::flaky_rapl(7), ResilienceOptions::standard());
    let (run_b, trace_b) = chaos_run(FaultPlan::flaky_rapl(7), ResilienceOptions::standard());

    let rep = run_a.expect("flaky-rapl is recoverable under the standard preset");
    assert!(
        rep.status == RunStatus::Ok || rep.status == RunStatus::Degraded,
        "the run must complete, got {:?}",
        rep.status
    );
    assert!(rep.faults.meter_retries > 0, "retries must have fired");
    assert!(rep.faults.rejected > 0, "outlier rejection must have fired");

    let count = |trace: &str, kind: &str| trace.matches(kind).count();
    assert!(count(&trace_a, "FaultInjected") >= 1);
    assert!(count(&trace_a, "MeasurementRejected") >= 1);
    // The trace's fault ledger is the run's own: every rejection the
    // tuner reports and every injected fault is one traced event.
    let faults = analyze(TraceReader::new(trace_a.as_bytes())).expect("trace parses").faults;
    assert_eq!(faults.rejected, rep.faults.rejected);
    assert_eq!(faults.injected_total(), count(&trace_a, "FaultInjected") as u64);

    // Determinism contract: same seed ⇒ bit-identical fault schedule,
    // recovery decisions and trace bytes.
    assert_eq!(trace_a, trace_b, "same-seed chaos runs must trace identically");
    assert_eq!(rep, run_b.unwrap());
}

/// Exhausting the error budget under a hard outage does not error: the
/// tuner freezes every region to its best-known configuration and the
/// run completes with `Degraded` status, frozen configs recorded.
#[test]
fn outage_with_budget_degrades_gracefully() {
    let mut res = ResilienceOptions::standard();
    res.error_budget = Some(4);
    let (run, trace) = chaos_run(FaultPlan::rapl_outage(3), res);
    let rep = run.expect("a budgeted outage must not surface as an error");
    assert_eq!(rep.status, RunStatus::Degraded);
    assert!(rep.faults.hard_faults >= 4, "the budget was spent on hard faults");
    assert!(rep.faults.frozen_regions > 0, "degradation freezes regions");
    assert!(trace.contains("TunerDegraded"), "freezes are traced");
    // The frozen configuration is recorded per region.
    for (region, summary) in &rep.per_region {
        assert!(summary.final_config.is_some(), "{region} lost its frozen config");
    }
    let stats = rep.tuner.expect("tuned run reports stats");
    assert_eq!(stats.frozen_regions, rep.faults.frozen_regions);
}

/// Without an error budget, a fault burst longer than the retry budget
/// is a typed run error — the must-fire negative contract.
#[test]
fn outage_without_budget_is_a_typed_error() {
    let mut res = ResilienceOptions::standard();
    res.error_budget = None;
    let (run, _) = chaos_run(FaultPlan::rapl_outage(3), res);
    match run {
        Err(RunError::Measure(e)) => {
            assert!(e.to_string().contains("RAPL energy read failed"));
        }
        other => panic!("expected RunError::Measure, got {other:?}"),
    }
}

/// A cap-storm plan moves the power envelope mid-run: the trace records
/// extra `CapChange` events and the run still completes.
#[test]
fn cap_storm_reconfigures_mid_run() {
    let (run, trace) = chaos_run(FaultPlan::cap_storm(1), ResilienceOptions::standard());
    let rep = run.expect("cap storms are survivable");
    // One CapChange at run start plus one per scheduled cap fault.
    assert!(trace.matches("CapChange").count() >= 3);
    assert!(trace.contains("cap_change"), "cap faults are tagged in the trace");
    // The final effective cap reflects the last scheduled change (90 W).
    assert_eq!(rep.power_cap_w, 90.0);
}
