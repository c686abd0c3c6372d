//! Cross-crate contract of the arcs-trace layer: a NullSink changes no
//! numbers on the parallel sweep path, a VecSink on a traced online run
//! captures the whole event taxonomy, and both exporters (JSONL + Chrome
//! trace) emit output that validates against the published schema.

use arcs::prelude::*;
use arcs_kernels::{model, Class};
use arcs_trace::{to_jsonl, validate_jsonl, ChromeEvent, SCHEMA_VERSION};
use std::sync::Arc;

fn tiny_sp() -> arcs_powersim::WorkloadDescriptor {
    let mut wl = model::sp(Class::B);
    wl.timesteps = 4;
    wl
}

fn noisy_grid(machine: &Machine) -> SweepGrid {
    SweepGrid::new(machine.clone())
        .workload(tiny_sp())
        .caps(&[70.0, 100.0])
        .strategies(&[SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline])
        .with_noise(0.1, 9)
}

/// The zero-cost contract at sweep scale: attaching a NullSink to the
/// parallel sweep engine must leave every cell — reports, histories, and
/// the shared-cache miss count — bit-identical to an untraced sweep, even
/// under measurement noise.
#[test]
fn null_sink_sweep_is_bit_identical_to_untraced() {
    let m = Machine::crill();
    let grid = noisy_grid(&m);
    let plain = SweepEngine::new(m.clone()).run(&grid);
    let nulled = SweepEngine::new(m.clone()).with_trace(Arc::new(NullSink)).run(&grid);

    assert_eq!(plain.cells.len(), 6);
    assert_eq!(plain.cells.len(), nulled.cells.len());
    for (p, n) in plain.cells.iter().zip(&nulled.cells) {
        assert_eq!(p.workload, n.workload);
        assert_eq!(p.cap_w, n.cap_w);
        assert_eq!(p.strategy.label(), n.strategy.label());
        assert_eq!(
            p.report,
            n.report,
            "{} @ {}W diverged under NullSink",
            p.strategy.label(),
            p.cap_w
        );
        assert_eq!(p.history, n.history);
    }
    assert_eq!(plain.cache.misses, nulled.cache.misses);
}

/// A traced sweep streams events from every layer into one sink: RAPL cap
/// changes and region lifecycles from the simulator driver, search steps
/// from the tuner, and cache traffic from the shared memo cache.
#[test]
fn traced_sweep_captures_every_layer() {
    let m = Machine::crill();
    let sink = Arc::new(VecSink::new());
    let grid = noisy_grid(&m);
    let report = SweepEngine::new(m).with_trace(sink.clone()).run(&grid);

    let records = sink.drain();
    let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
    // At least one CapChange per cell (offline training passes each open
    // their own run epoch), one RegionBegin/End pair per region invocation.
    assert!(count("CapChange") >= grid.cell_count());
    assert_eq!(count("RegionBegin"), count("RegionEnd"));
    assert!(count("RegionBegin") > 0);
    assert!(count("SearchIteration") > 0, "online/offline cells must report search steps");
    assert!(count("ConfigSwitch") > 0);
    assert!(count("OverheadCharged") > 0);
    // Cache traffic matches the engine's own accounting.
    assert_eq!(count("CacheHit") as u64, report.cache.hits);
    assert_eq!(count("CacheMiss") as u64, report.cache.misses);
    // drain() returns a total order: seq strictly increasing.
    for w in records.windows(2) {
        assert!(w[0].seq < w[1].seq);
    }
}

/// JSONL round trip: every record a traced run emits serializes to one
/// line that validates against the current schema and parses back to an
/// equal record.
#[test]
fn traced_run_round_trips_through_jsonl() {
    let m = Machine::crill();
    let wl = tiny_sp();
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 80.0).with_trace(sink.clone());
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    Runner::new(&mut exec).workload(&wl).tuner(&mut tuner).run().unwrap();

    let records = sink.drain();
    assert!(!records.is_empty());
    let text = to_jsonl(&records).unwrap();
    assert_eq!(text.lines().count(), records.len());
    let parsed = validate_jsonl(&text).expect("emitted JSONL must validate against the schema");
    assert_eq!(parsed, records);
    assert!(records.iter().all(|r| r.schema == SCHEMA_VERSION));
}

/// The Chrome exporter renders a traced run as a valid JSON array of
/// complete ("ph": "X") events covering every region invocation.
#[test]
fn chrome_export_is_a_valid_array_of_complete_events() {
    let m = Machine::crill();
    let wl = tiny_sp();
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 80.0).with_trace(sink.clone());
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    Runner::new(&mut exec).workload(&wl).tuner(&mut tuner).run().unwrap();

    let records = sink.drain();
    let regions = records.iter().filter(|r| r.event.kind() == "RegionEnd").count();
    let json = chrome_trace(&records).unwrap();
    let events: Vec<ChromeEvent> = serde_json::from_str(&json).unwrap();
    assert!(events.len() >= regions, "every RegionEnd must become a complete event");
    for ev in &events {
        assert_eq!(ev.ph, "X");
        assert!(ev.ts >= 0.0 && ev.dur >= 0.0 && ev.ts.is_finite() && ev.dur.is_finite());
    }
    // Overhead spans ride along with their own category.
    assert!(events.iter().any(|e| e.cat == "overhead"));
}

/// The objective fields introduced by schema v3 survive the JSONL round
/// trip: an energy-objective run stamps every search step with the
/// objective and every region end with its score.
#[test]
fn objective_fields_round_trip_through_jsonl() {
    let m = Machine::crill();
    let wl = tiny_sp();
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 80.0).with_trace(sink.clone());
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    Runner::new(&mut exec)
        .workload(&wl)
        .tuner(&mut tuner)
        .objective(Objective::Energy)
        .run()
        .unwrap();

    let records = sink.drain();
    let parsed = validate_jsonl(&to_jsonl(&records).unwrap()).unwrap();
    assert_eq!(parsed, records);
    let mut search_steps = 0;
    let mut scored_ends = 0;
    for r in &parsed {
        match &r.event {
            TraceEvent::SearchIteration { objective, .. } => {
                assert_eq!(*objective, Objective::Energy);
                search_steps += 1;
            }
            TraceEvent::RegionEnd { objective_value, energy_j, .. } => {
                let v = objective_value.expect("tuned runs score every invocation");
                assert!((v - energy_j).abs() < 1e-9, "energy objective scores in joules");
                scored_ends += 1;
            }
            _ => {}
        }
    }
    assert!(search_steps > 0 && scored_ends > 0);
}

/// Traces written before the objective layer (schema v2) still parse:
/// the new fields take their documented defaults and the metrics
/// analysis pipeline accepts the stream unchanged.
#[test]
fn schema_v2_traces_still_parse() {
    let text = include_str!("fixtures/trace_v2.jsonl");
    let records = validate_jsonl(text).expect("v2 fixture must stay readable");
    assert!(records.iter().all(|r| r.schema == 2));
    for r in &records {
        match &r.event {
            TraceEvent::SearchIteration { objective, .. } => {
                assert_eq!(*objective, Objective::Time, "pre-v3 searches were time-scored");
            }
            TraceEvent::RegionEnd { objective_value, .. } => {
                assert_eq!(*objective_value, None);
            }
            TraceEvent::OverheadCharged { energy_j, .. } => {
                assert_eq!(*energy_j, 0.0);
            }
            _ => {}
        }
    }
    let report = arcs_metrics::analyze(arcs_metrics::TraceReader::new(std::io::Cursor::new(
        text.to_string(),
    )))
    .expect("v2 traces must flow through the analysis pipeline");
    assert_eq!(report.objective, Objective::Time);
    let invocations: u64 = report.regions.values().map(|r| r.invocations).sum();
    assert_eq!(invocations, 2);
}

/// Traces written before the fault substrate (schema v3) still parse:
/// objective fields are honoured, the fault-event variants simply never
/// appear, and the analysis pipeline reports a clean fault summary.
#[test]
fn schema_v3_traces_still_parse() {
    let text = include_str!("fixtures/trace_v3.jsonl");
    let records = validate_jsonl(text).expect("v3 fixture must stay readable");
    assert!(records.iter().all(|r| r.schema == 3));
    let mut scored_ends = 0;
    for r in &records {
        match &r.event {
            TraceEvent::SearchIteration { objective, .. } => {
                assert_eq!(*objective, Objective::EnergyDelay);
            }
            TraceEvent::RegionEnd { objective_value, .. } if objective_value.is_some() => {
                scored_ends += 1;
            }
            TraceEvent::FaultInjected { .. }
            | TraceEvent::MeasurementRejected { .. }
            | TraceEvent::TunerDegraded { .. } => {
                panic!("v3 traces cannot carry v4 fault events")
            }
            _ => {}
        }
    }
    assert!(scored_ends > 0, "the fixture carries scored region ends");
    let report = arcs_metrics::analyze(arcs_metrics::TraceReader::new(std::io::Cursor::new(
        text.to_string(),
    )))
    .expect("v3 traces must flow through the analysis pipeline");
    assert_eq!(report.objective, Objective::EnergyDelay);
    assert_eq!(report.faults.injected_total(), 0, "pre-fault traces summarise clean");
    assert_eq!(report.faults.rejected, 0);
    let invocations: u64 = report.regions.values().map(|r| r.invocations).sum();
    assert_eq!(invocations, 2);
}

/// Traces written before the broker layer (schema v4) still parse: the
/// fault events are honoured, the broker-event variants simply never
/// appear, and the analysis pipeline reports a clean broker summary.
#[test]
fn schema_v4_traces_still_parse() {
    let text = include_str!("fixtures/trace_v4.jsonl");
    let records = validate_jsonl(text).expect("v4 fixture must stay readable");
    assert!(records.iter().all(|r| r.schema == 4));
    let mut faults = 0;
    for r in &records {
        match &r.event {
            TraceEvent::FaultInjected { .. } => faults += 1,
            TraceEvent::JobSubmitted { .. }
            | TraceEvent::JobRejected { .. }
            | TraceEvent::JobScheduled { .. }
            | TraceEvent::CapReallocated { .. }
            | TraceEvent::JobCompleted { .. } => {
                panic!("v4 traces cannot carry v5 broker events")
            }
            _ => {}
        }
    }
    assert_eq!(faults, 2, "the fixture carries injected faults");
    let report = arcs_metrics::analyze(arcs_metrics::TraceReader::new(std::io::Cursor::new(
        text.to_string(),
    )))
    .expect("v4 traces must flow through the analysis pipeline");
    assert_eq!(report.faults.injected_total(), 2);
    assert_eq!(report.faults.rejected, 1);
    assert_eq!(report.faults.degraded_regions, vec!["sp/y_solve".to_string()]);
    assert!(!report.broker.any(), "pre-broker traces summarise clean");
    assert_eq!(report.broker.lost_jobs(), 0);
    let invocations: u64 = report.regions.values().map(|r| r.invocations).sum();
    assert_eq!(invocations, 2);
}

/// Backward compatibility with schema 8 (pre-resilience: unified chunk
/// policy events, no node-fault vocabulary). Pinned fixture from a
/// v8-era MC policy run; the v9 reader must keep parsing it and the
/// analysis pipeline must summarise it with empty recovery activity.
#[test]
fn schema_v8_traces_still_parse() {
    let text = include_str!("fixtures/trace_v8.jsonl");
    let records = validate_jsonl(text).expect("v8 fixture must stay readable");
    assert!(records.iter().all(|r| r.schema == 8));
    let mut policy_fired = 0;
    for r in &records {
        match &r.event {
            TraceEvent::PolicyFired { .. } => policy_fired += 1,
            TraceEvent::NodeFailed { .. }
            | TraceEvent::NodeRecovered { .. }
            | TraceEvent::JobRequeued { .. }
            | TraceEvent::JobFailed { .. }
            | TraceEvent::JobShed { .. }
            | TraceEvent::CheckpointRecovered { .. }
            | TraceEvent::BrokerConfigured { .. }
            | TraceEvent::BrokerStep {} => {
                panic!("v8 traces cannot carry v9 resilience events")
            }
            _ => {}
        }
    }
    assert_eq!(policy_fired, 16, "the fixture carries per-region policy decisions");
    let report = arcs_metrics::analyze(arcs_metrics::TraceReader::new(std::io::Cursor::new(
        text.to_string(),
    )))
    .expect("v8 traces must flow through the analysis pipeline");
    assert!(!report.recovery.any(), "pre-resilience traces report no node faults");
    assert_eq!(report.broker.lost_jobs(), 0);
    assert!(report.regions.values().map(|r| r.invocations).sum::<u64>() > 0);
}

/// A trace file torn mid-record by a dying writer (the serve-top
/// `--replay` case after a broker crash) still replays: the reader
/// drops the unfinished final line and the dashboard reconstructs from
/// every intact record.
#[test]
fn replaying_a_truncated_trace_tail_still_reconstructs_the_dashboard() {
    let text = include_str!("fixtures/trace_v5_broker.jsonl");
    let cut = &text[..text.len() - 9]; // tear the final record mid-JSON
    assert!(!cut.ends_with('\n'), "the tear must land mid-line");

    let reader = arcs_metrics::TraceReader::new(std::io::Cursor::new(cut.to_string()));
    let mut fold = arcs_metrics::BrokerFold::new();
    let mut intact = 0;
    for rec in reader {
        fold.apply_record(&rec.expect("every non-final record is intact"));
        intact += 1;
    }
    assert_eq!(intact, text.lines().count() - 1, "only the torn record is dropped");
    let snap = fold.snapshot();
    assert!(snap.submitted > 0, "the dashboard still reflects the intact prefix");
    assert!(snap.budget_w > 0.0);
}
