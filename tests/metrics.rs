//! Cross-crate contract of the arcs-metrics layer: the trace analysis
//! engine rebuilds live OMPT profiles, the simulator's §III-C overhead
//! accounting and every layer's own counters from JSONL alone, and a
//! parallel sweep is bit-identical to the serial one.

use arcs::prelude::*;
use arcs_kernels::{model, Class};
use arcs_metrics::{analyze, TraceReader};
use arcs_omprt::{RegionRecord, Runtime, TraceTool};
use arcs_trace::{to_jsonl, VecSink};
use std::collections::BTreeMap;
use std::sync::Arc;

fn tiny_sp() -> arcs_powersim::WorkloadDescriptor {
    let mut wl = model::sp(Class::B);
    wl.timesteps = 4;
    wl
}

fn analyze_jsonl(text: &str) -> arcs_metrics::TraceReport {
    analyze(TraceReader::new(std::io::Cursor::new(text.to_string()))).expect("trace parses")
}

/// A live run's JSONL trace carries enough per-thread data to rebuild each
/// region's OMPT breakdown. The reference is independent of the trace: the
/// `RegionRecord`s the runtime hands back at every join, summed here —
/// invocation counts exactly, the wall / loop / barrier breakdown up to
/// floating-point summation order.
#[test]
fn live_trace_rebuilds_the_ompt_profile() {
    let rt = Arc::new(Runtime::new(4));
    let sink = Arc::new(VecSink::new());
    TraceTool::attach(&rt, sink.clone());

    let even = rt.register_region("live/even");
    let skewed = rt.register_region("live/skewed");
    // Per region: invocations, Σ wall, Σ loop, Σ barrier.
    let mut sums: BTreeMap<&str, (u64, f64, f64, f64)> = BTreeMap::new();
    let mut add = |name, rec: RegionRecord| {
        let sum = sums.entry(name).or_default();
        sum.0 += 1;
        sum.1 += rec.duration.as_secs_f64();
        for t in &rec.per_thread {
            sum.2 += t.busy.as_secs_f64();
            sum.3 += t.barrier_wait.as_secs_f64();
        }
    };
    for _ in 0..6 {
        let rec = rt.parallel_for(even, 0..256, |i| {
            std::hint::black_box(i * i);
        });
        add("live/even", rec);
        let rec = rt.parallel_for(skewed, 0..64, |i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        });
        add("live/skewed", rec);
    }

    let report = analyze_jsonl(&to_jsonl(&sink.drain()).unwrap());
    assert_eq!(report.regions.len(), 2);
    for (region, (invocations, wall_s, loop_s, barrier_s)) in sums {
        let rebuilt = &report.regions[region];
        assert_eq!(rebuilt.invocations, invocations);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1e-9);
        assert!(close(rebuilt.wall_s, wall_s), "{region}: wall");
        assert!(close(rebuilt.busy_s, loop_s), "{region}: loop");
        assert!(close(rebuilt.barrier_s, barrier_s), "{region}: barrier");
        assert!(close(rebuilt.implicit_task_s(), loop_s + barrier_s), "{region}: task");
    }
    // Live traces have no simulator clock: the driver-level overhead
    // cross-check does not apply (no OverheadCharged events at all here).
    assert_eq!(report.overhead.events, 0);
}

/// A traced simulated tuned run round-trips through JSONL into an analysis
/// whose overhead ledger matches the driver's own §III-C accounting — and
/// the cross-check (wall = Σ region + Σ overhead) holds to rounding. The
/// cache, switch and search counts the trace reports equal what the memo
/// and the tuner count themselves.
#[test]
fn sim_trace_overhead_cross_check_matches_the_app_report() {
    let m = Machine::crill();
    let wl = tiny_sp();
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(m.clone(), 80.0).with_trace(sink.clone());
    let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
    let rep = Runner::new(&mut exec).workload(&wl).tuner(&mut tuner).run().unwrap();

    let report = analyze_jsonl(&to_jsonl(&sink.drain()).unwrap());
    assert_eq!(report.seq_gaps, 0);
    assert_eq!(report.regions.len(), 5);
    for region in report.regions.values() {
        assert_eq!(region.invocations, 4);
    }

    // The analysis sums the same OverheadCharged values in the same order
    // as the driver, so the ledgers agree to the last bit.
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs().max(1e-12);
    assert!(close(report.overhead.config_change_s, rep.config_change_overhead_s));
    assert!(close(report.overhead.instrumentation_s, rep.instrumentation_overhead_s));
    assert!(close(report.wall_s, rep.time_s));
    assert!(
        report.overhead_consistent(),
        "sim driver invariant: wall − region − overhead = {:+e}",
        report.overhead_residual_s()
    );

    // Search and cache views are populated from the same run.
    assert_eq!(report.convergence.len(), 5);
    for curve in report.convergence.values() {
        assert!(!curve.is_empty());
        assert!(curve.windows(2).all(|w| w[1].best_value <= w[0].best_value));
    }
    assert!(report.cache.lookups() > 0);

    let cache = exec.shared_cache().stats();
    assert_eq!((report.cache.hits, report.cache.misses), (cache.hits, cache.misses));
    let switches: u64 = report.regions.values().map(|r| r.config_switches).sum();
    assert_eq!(switches, tuner.stats().config_changes);
    assert!(switches > 0);
    for region in report.regions.keys() {
        let steps = report.convergence.get(region).map_or(0, Vec::len);
        assert_eq!(steps, tuner.evaluations(region), "{region}");
    }
}

/// Determinism at sweep scale: a parallel sweep is bit-identical to the
/// serial baseline, reports and Offline histories alike.
#[test]
fn metrics_registry_changes_no_numbers_on_the_sweep_path() {
    let m = Machine::crill();
    let grid = SweepGrid::new(m.clone())
        .workload(tiny_sp())
        .caps(&[70.0, 100.0])
        .strategies(&[SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline])
        .with_noise(0.1, 9);

    let serial = SweepEngine::new(m.clone()).with_workers(1).run(&grid);
    let parallel = SweepEngine::new(m.clone()).with_workers(2).run(&grid);

    assert_eq!(serial.cells.len(), 6);
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.report, p.report, "{} @ {}W diverged", s.strategy.label(), s.cap_w);
        assert_eq!(s.history, p.history);
    }
    assert_eq!(serial.cache.misses, parallel.cache.misses);
}
