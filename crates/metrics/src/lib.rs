//! ARCS observability substrate: a metrics aggregation registry and a
//! trace analysis engine.
//!
//! The **registry** half ([`registry`]) gives every layer of the stack —
//! the `omprt` thread pool, the `powersim` memo cache, the run driver,
//! the `harmony` search — cheap named [`Counter`]s, [`Gauge`]s and
//! log-bucketed [`Histogram`]s behind the same zero-cost-when-disabled
//! discipline as the trace layer: a component holds an `Option` of
//! resolved handles, so without an attached [`MetricsRegistry`] the hot
//! path pays one branch and allocates nothing.
//!
//! The **analysis** half ([`analysis`]) replays the JSONL traces the
//! `arcs-trace` sinks write: `arcs-trace`'s own [`TraceReader`] streams
//! validated records (schema-version and sequence checks) into
//! [`TraceAnalysis`], which reconstructs per-region profiles, per-cap
//! energy/EDP summaries, search-convergence curves, cache hit-rate
//! timelines and the §III-C overhead ledger — including the cross-check
//! that the driver's clock is fully explained by region time plus
//! charged overhead. [`compare`] turns two such [`TraceReport`]s into a
//! perf-regression gate ([`compare_reports`], `arcs-sim compare
//! --fail-on <pct>`); the private `render` module lays both out as text.
//!
//! Between the two sits [`broker_fold`]: the one interpreter of the
//! power-budget broker's events, which keeps the `serve/*` series in a
//! registry and reads out dashboard frames ([`TelemetrySnapshot`]) and
//! the analyser's [`BrokerReport`]/[`RecoveryReport`] alike.

pub mod analysis;
pub mod broker_fold;
pub mod compare;
pub mod registry;
mod render;

pub use analysis::{
    analyze, analyze_path, compare_reports, compare_reports_for, BrokerReport, CacheReport,
    CapSegment, Comparison, ConvergencePoint, FaultReport, OverheadReport, RecoveryReport,
    RegionBreakdown, SelfProfile, TenantBreakdown, TraceAnalysis, TraceReadError, TraceReader,
    TraceReport,
};
pub use broker_fold::{
    within_budget, BrokerFold, Digest, TelemetrySnapshot, TenantTelemetry, EVENT_PANE,
};
pub use registry::{
    BucketCount, Counter, CounterFamily, Gauge, GaugeFamily, Histogram, HistogramFamily,
    HistogramSummary, LabelId, MetricValue, MetricsRegistry, Snapshot, Timer,
};

#[cfg(test)]
mod proptests {
    use crate::Histogram;
    use proptest::prelude::*;

    proptest! {
        /// Merging the histograms of two halves of a stream equals
        /// histogramming the whole stream: bucket counts (and so every
        /// quantile) are exact — both sides walk identical buckets. The
        /// float accumulators (`total`, `sum_sq`) may differ by rounding,
        /// since merge adds the halves in a different order than the
        /// interleaved stream.
        #[test]
        fn merge_of_halves_equals_whole_stream(
            samples in proptest::collection::vec(1e-6f64..1e6, 1..200),
            split in 0usize..200,
        ) {
            let split = split % (samples.len() + 1);
            let whole = Histogram::new();
            let (a, b) = (Histogram::new(), Histogram::new());
            for (i, &v) in samples.iter().enumerate() {
                whole.record(v);
                if i < split { &a } else { &b }.record(v);
            }
            a.merge(&b);
            let (merged, direct) = (a.state(), whole.state());
            prop_assert_eq!(merged.buckets(), direct.buckets());
            prop_assert_eq!(merged.zeros(), direct.zeros());
            let (ours, theirs) = (a.summary(), whole.summary());
            prop_assert_eq!(ours.count, theirs.count);
            prop_assert_eq!(ours.min, theirs.min);
            prop_assert_eq!(ours.max, theirs.max);
            prop_assert!((ours.total - theirs.total).abs() <= 1e-12 * theirs.total.abs());
            prop_assert_eq!(ours.p50, theirs.p50);
            prop_assert_eq!(ours.p90, theirs.p90);
            prop_assert_eq!(ours.p99, theirs.p99);
        }

        /// Exposition buckets are cumulative: counts never decrease as
        /// `le` rises, the bounds strictly ascend, and the final bucket
        /// accounts for every sample except the +Inf remainder (`count`).
        #[test]
        fn prometheus_buckets_are_cumulative_and_monotone(
            samples in proptest::collection::vec(-1e3f64..1e6, 0..300),
        ) {
            let h = Histogram::new();
            for &v in &samples {
                h.record(v);
            }
            let s = h.summary();
            for pair in s.buckets.windows(2) {
                prop_assert!(pair[0].le < pair[1].le, "le must ascend");
                prop_assert!(pair[0].count <= pair[1].count, "counts must be cumulative");
            }
            if let Some(last) = s.buckets.last() {
                prop_assert!(last.count <= s.count);
                prop_assert_eq!(last.count, s.count, "finite samples all fall under the last bound");
            } else {
                prop_assert_eq!(s.count, 0);
            }
        }
    }
}
