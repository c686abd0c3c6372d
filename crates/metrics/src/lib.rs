//! ARCS observability substrate: a metrics aggregation registry and a
//! trace analysis engine.
//!
//! The **registry** half ([`registry`]) holds cheap named [`Counter`]s,
//! [`Gauge`]s and log-bucketed [`Histogram`]s for the power-budget
//! service: the broker's `serve/*` series (kept by [`broker_fold`]), the
//! thread pool's `serve/pool/*` gauges, and the journal's and trace
//! sink's `arcs/{journal,trace}/write_errors` counters. It is what the
//! `metrics` op scrapes. The tuning stack under the broker keeps no
//! registry: a run reports through its trace alone.
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
    labeled, BucketCount, Counter, Gauge, Histogram, HistogramSummary, MetricValue,
    MetricsRegistry, Snapshot,
};

#[cfg(test)]
mod proptests {
    use crate::Histogram;
    use proptest::prelude::*;

    proptest! {
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
