//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is `arcs-perf manifest` verbatim (a unit test holds them equal).

/// The seed whose simulated outputs are pinned in `expected/`, and the
/// hold-out seed a claim must also hold on.
pub const PINNED_SEED: u64 = 42;
pub const HOLDOUT_SEED: u64 = 1337;

/// How long one run measures, seconds (`--seconds`).
pub const RUN_SECONDS: u32 = 10;

pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "sweep-regular",
        "sp.B+bt.B x 31 caps x 3 strategies x 3 objectives = 558 cells on a fresh engine: closed-form simulate_region misses plus driver, tuner and memo - what regenerating a paper figure pays",
    ),
    (
        "sweep-irregular",
        "lulesh.45+cg.B x 3 caps x 3 strategies and mc.B x 2 = 20 cells on a fresh engine: weighted regions bypass the closed forms, so time is per-chunk integration fed by ChunkStream",
    ),
    (
        "sweep-warm",
        "the regular grid plus the lulesh/cg cells on an engine filled during set-up: zero misses, bypasses exec.rs - all time is memo hits, driver and tuner",
    ),
    (
        "serve-inproc",
        "5000-job seeded stream (4 tenants, 8 nodes, 800 W) through Broker::submit/step with NullSink and no journal: pure arbitration, the bypass for every trace/journal change",
    ),
    (
        "serve-durable",
        "2500 jobs with JSONL trace, write-ahead journal and node-flap chaos, then Broker::recover, byte-compare and analyze_path: writes beside compute, requeue paths, replay",
    ),
    (
        "serve-wire",
        "closed loop, 2 NDJSON/TCP connections x 2500 submits with status/stats/metrics reads mixed in, ending in a draining shutdown: codec, thread pool and the broker-owner thread",
    ),
];

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher, bound }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher: false, bound: 0.0 }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit, higher: true, bound: 0.0 }
}

/// Defined on every workload and never zero: what the driver bounds.
pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("items_per_s", "1/s", true, 0.25),
    e2e("rep_wall_s", "s", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

/// Reported by `--trace 1`, unbounded. The first nine are end-to-end
/// numbers that exist on one workload family only (a contract metric must
/// exist on all six); the rest are layer costs, each paired with a count.
/// A metric the workload does not exercise reads 0.
pub const PER_LAYER: [Metric; 86] = [
    // Sweep family: the paper's claims as the grid sees them (simulated).
    lower("sim_tuned_time_ratio", "ratio"),
    lower("sim_tuned_energy_ratio", "ratio"),
    lower("sim_search_overhead_share", "ratio"),
    // Serve family.
    lower("sim_turnaround_p99_s", "s"),
    higher("recover_jobs_per_s", "1/s"),
    lower("log_bytes_per_job", "bytes"),
    lower("submit_ack_p50_us", "us"),
    lower("submit_ack_p99_us", "us"),
    lower("scrape_p50_us", "us"),
    // omprt / apex.
    lower("omprt.chunk_stream.ns_per_chunk.static", "ns"),
    lower("omprt.chunk_stream.ns_per_chunk.dynamic", "ns"),
    lower("omprt.chunk_stream.ns_per_chunk.guided", "ns"),
    lower("omprt.chunk_stream.ns_per_chunk.trapezoid", "ns"),
    lower("omprt.chunk_stream.ns_per_chunk.factoring", "ns"),
    lower("omprt.chunk_stream.ns_per_chunk.awf", "ns"),
    lower("omprt.chunk_stream.chunks", "count"),
    lower("omprt.region.fork_join_us", "us"),
    lower("omprt.dispenser.ns_per_chunk.dynamic", "ns"),
    lower("apex.policy.fire_ns", "ns"),
    // powersim.
    lower("powersim.simulate_region.us.uniform", "us"),
    lower("powersim.simulate_region.us.weighted", "us"),
    lower("powersim.simulate_region.us.montecarlo", "us"),
    lower("powersim.backend.busy_s", "s"),
    lower("powersim.backend.calls", "count"),
    lower("powersim.memo.hit_ns", "ns"),
    lower("powersim.memo.miss_insert_ns", "ns"),
    higher("powersim.memo.hits", "count"),
    lower("powersim.memo.misses", "count"),
    lower("powersim.memo.entries", "count"),
    // harmony / core.
    lower("harmony.session.step_ns.nelder-mead", "ns"),
    lower("harmony.session.step_ns.exhaustive", "ns"),
    lower("harmony.session.step_ns.pro", "ns"),
    lower("harmony.evaluations", "count"),
    lower("core.tuner.begin_end_ns.searching", "ns"),
    lower("core.tuner.begin_end_ns.settled", "ns"),
    lower("core.runner.self_s", "s"),
    lower("core.runner.invocations", "count"),
    lower("core.runner.us_per_invocation.default", "us"),
    lower("core.runner.us_per_invocation.online", "us"),
    lower("core.sweep.cell_us.p50", "us"),
    lower("core.sweep.cell_us.tail", "us"),
    higher("core.sweep.cell_us.tail_pct", "%"),
    higher("core.sweep.parallel_efficiency", "ratio"),
    higher("core.sweep.layer_sum_ratio", "ratio"),
    // trace / metrics.
    lower("trace.encode.ns_per_event", "ns"),
    lower("trace.jsonl_sink.record_ns", "ns"),
    lower("trace.reader.ns_per_record", "ns"),
    lower("trace.sink.busy_s", "s"),
    lower("trace.events", "count"),
    lower("trace.bytes", "bytes"),
    lower("metrics.analysis.us_per_record", "us"),
    lower("metrics.registry.snapshot_us", "us"),
    lower("metrics.prometheus.render_us", "us"),
    // serve.
    lower("serve.broker.submit_us.p50", "us"),
    lower("serve.broker.step_us.p50", "us"),
    lower("serve.broker.step_us.tail", "us"),
    higher("serve.broker.step_us.tail_pct", "%"),
    lower("serve.broker.step_us.nodes8", "us"),
    lower("serve.broker.step_us.nodes32", "us"),
    lower("serve.broker.step_us.nodes128", "us"),
    lower("serve.broker.steps", "count"),
    lower("serve.broker.reallocations", "count"),
    lower("serve.broker.requeues", "count"),
    lower("serve.broker.rejected", "count"),
    lower("serve.broker.shed", "count"),
    lower("serve.journal.append_us", "us"),
    lower("serve.journal.records", "count"),
    lower("serve.journal.bytes", "bytes"),
    lower("serve.journal.cost_share", "ratio"),
    lower("serve.trace.cost_share", "ratio"),
    lower("serve.chaos.cost_share", "ratio"),
    lower("serve.recover.us_per_record", "us"),
    lower("serve.load_journal.us_per_record", "us"),
    lower("serve.protocol.codec_us", "us"),
    lower("serve.wire.roundtrip_us.submit", "us"),
    lower("serve.wire.roundtrip_us.status", "us"),
    lower("serve.wire.roundtrip_us.stats", "us"),
    lower("serve.wire.roundtrip_us.metrics", "us"),
    lower("serve.pool.queue_us", "us"),
    lower("serve.broker.telemetry_us", "us"),
    lower("serve.wire.open2000.ack_p50_us", "us"),
    lower("serve.wire.open2000.ack_p99_us", "us"),
    lower("serve.wire.open2000.late_p99_us", "us"),
    higher("serve.job.layer_sum_ratio", "ratio"),
    // harness.
    lower("harness.trace_overhead_share", "ratio"),
    lower("harness.steal_share", "ratio"),
];

/// `s` as a JSON string literal.
pub fn quoted(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let better = |m: &Metric| if m.higher { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quoted(name), quoted(why)))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                quoted(m.name),
                quoted(m.unit),
                better(m),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                quoted(m.name),
                quoted(m.unit),
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmarks/run.sh\"],\n  \"paths\": [\"benchmarks\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `arcs-perf manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(name), "workload {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name}: {}", why.len());
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && seen.insert(m.name), "metric {}", m.name);
            assert!(unit_ok(m.unit), "unit of {}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
        assert!(manifest().len() < 64 * 1024);
    }
}
