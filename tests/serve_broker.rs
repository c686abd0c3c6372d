//! Integration: the `arcs-serve` broker against the whole stack — fleet
//! simulation, mid-run cap movement, schema-v5 tracing, and the
//! `arcs-metrics` broker analysis — on a multi-tenant job mix.

mod golden;

use arcs::ResilienceOptions;
use arcs_metrics::TraceAnalysis;
use arcs_powersim::{Fleet, Machine};
use arcs_serve::{Broker, BrokerConfig, JobSpec, SubmitOutcome};
use arcs_trace::{TraceEvent, TraceRecord, VecSink};
use std::sync::Arc;

/// A deterministic 40-job, 4-tenant mix on a 4-node crill fleet: a
/// planted inadmissible job, a few flaky ones, the rest clean.
fn run_mix(budget_w: f64) -> (arcs_serve::BrokerCounters, Vec<TraceRecord>) {
    let fleet = Fleet::homogeneous(Machine::crill(), 4);
    let sink = Arc::new(VecSink::new());
    let mut cfg = BrokerConfig::new(budget_w);
    cfg.quantum_timesteps = 3;
    let mut resilience = ResilienceOptions::standard();
    resilience.max_read_retries = 0;
    resilience.error_budget = Some(1);
    cfg.resilience = Some(resilience);
    let mut broker = Broker::new(fleet, cfg, Arc::clone(&sink) as Arc<dyn arcs_trace::TraceSink>);

    let workloads = ["sp.S", "bt.S", "cg.S", "ep.S", "mg.S"];
    for i in 0..40u64 {
        let tenant = format!("tenant{}", i % 4);
        let mut spec = JobSpec::new(tenant, workloads[i as usize % workloads.len()])
            .timesteps(4 + (i % 5) as usize);
        if i == 17 {
            spec = spec.floor_w(budget_w * 2.0); // planted: must be rejected
        }
        if i % 9 == 5 {
            spec = spec.fault_seed(i * 31 + 7);
        }
        let outcome = broker.submit(spec);
        assert_eq!(
            matches!(outcome, SubmitOutcome::Rejected { .. }),
            i == 17,
            "only the planted job may be rejected (job {i})"
        );
        // Interleave some progress so arrivals land mid-run.
        if i % 3 == 0 {
            broker.step();
        }
    }
    broker.run_until_idle();
    assert!(broker.is_idle());
    (broker.counters(), sink.drain())
}

fn analyze(records: &[TraceRecord]) -> arcs_metrics::TraceReport {
    let mut analysis = TraceAnalysis::new();
    for rec in records {
        analysis.consume(rec);
    }
    analysis.finish(0)
}

#[test]
fn the_mix_completes_within_budget_and_fairly() {
    let (counters, records) = run_mix(500.0);
    assert_eq!(counters.submitted, 40);
    assert_eq!(counters.completed, 39);
    assert_eq!(counters.rejected, 1);
    assert_eq!(counters.queued, 0);
    assert!(counters.degraded > 0, "the brittle ladder must degrade some flaky jobs");

    let report = analyze(&records);
    let broker = &report.broker;
    assert!(broker.any());
    assert_eq!(broker.submitted, 40);
    assert_eq!(broker.scheduled, 39);
    assert_eq!(broker.completed, 39);
    assert_eq!(broker.rejected, 1);
    assert_eq!(broker.lost_jobs(), 0, "admitted jobs must all complete");
    assert_eq!(broker.over_budget_events, 0, "Σ caps must never exceed the budget");
    assert!(broker.max_total_w <= 500.0 + 1e-6);
    assert!(broker.max_total_w > 0.0);
    assert_eq!(broker.tenants.len(), 4);

    // Equal weights, symmetric load: no tenant may hog the budget.
    let ratio = broker.fairness_ratio().expect("four tenants have allocations");
    assert!(ratio < 3.0, "fairness ratio {ratio} out of bounds");

    // The rendered table carries the broker section.
    let table = report.to_table();
    assert!(table.contains("Broker"), "{table}");
    assert!(table.contains("budget conserved"), "{table}");
}

#[test]
fn every_reallocation_point_conserves_the_budget() {
    let (_, records) = run_mix(500.0);
    let mut reallocations = 0;
    for rec in &records {
        assert_eq!(rec.schema, arcs_trace::SCHEMA_VERSION);
        if let TraceEvent::CapReallocated { budget_w, total_w, allocations, .. } = &rec.event {
            let sum: f64 = allocations.iter().map(|a| a.cap_w).sum();
            assert!((sum - total_w).abs() < 1e-6);
            assert!(sum <= budget_w + 1e-6, "Σ {sum} > budget {budget_w}");
            // At most one job per node in any allocation set.
            let mut nodes: Vec<u64> = allocations.iter().map(|a| a.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), allocations.len(), "one job per node");
            reallocations += 1;
        }
    }
    assert!(reallocations >= 40, "every arrival and completion reallocates");
}

#[test]
fn the_same_mix_yields_a_byte_identical_trace() {
    let (_, first) = run_mix(500.0);
    let (_, second) = run_mix(500.0);
    let serialize = |records: &[TraceRecord]| {
        records.iter().map(|r| serde_json::to_string(r).unwrap()).collect::<Vec<_>>().join("\n")
    };
    assert_eq!(serialize(&first), serialize(&second));
    // …and identical to what commit `bf1b734` emitted — the last commit
    // with admission, placement and water-filling inline in `broker.rs`.
    golden::pin("broker_golden", "mix", &serialize(&first), 0xa049_a4f5_7019_18d4);
}

#[test]
fn a_tighter_budget_stretches_jobs_but_loses_none() {
    // Floors: 4 × 57.5 = 230 W. A 300 W budget leaves little surplus; a
    // 920 W budget saturates every node. Both must complete everything.
    let (tight_counters, tight_records) = run_mix(300.0);
    let (loose_counters, loose_records) = run_mix(920.0);
    assert_eq!(tight_counters.completed, 39);
    assert_eq!(loose_counters.completed, 39);

    let tight = analyze(&tight_records);
    let loose = analyze(&loose_records);
    assert_eq!(tight.broker.lost_jobs(), 0);
    assert_eq!(loose.broker.lost_jobs(), 0);
    assert!(tight.broker.max_total_w <= 300.0 + 1e-6);

    // Less power means longer virtual completion times in aggregate.
    let sum_time = |r: &arcs_metrics::TraceReport| -> f64 {
        r.broker.tenants.values().map(|t| t.time_s).sum()
    };
    assert!(
        sum_time(&tight) > sum_time(&loose),
        "tight {} must be slower than loose {}",
        sum_time(&tight),
        sum_time(&loose)
    );
}
