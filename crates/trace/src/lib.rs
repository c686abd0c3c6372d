//! # arcs-trace — structured event tracing for the ARCS stack
//!
//! Every layer of the reproduction — the omprt runtime, the powersim RAPL
//! model, the harmony search, the core run driver, the serve broker — can
//! narrate what it does as typed [`TraceEvent`]s delivered to a
//! [`TraceSink`]. End-of-run aggregates tell you *what* a strategy
//! achieved; the trace tells you *how*: which simplex the Nelder–Mead
//! search held at each step, when the cap moved, where §III-C overheads
//! were charged, which lookups the simulation memo cache answered.
//!
//! The contract that makes threading a sink through hot paths acceptable:
//!
//! * **Disabled tracing is one branch.** Call sites guard event
//!   construction with [`TraceSink::enabled`]; [`NullSink`] answers
//!   `false`, so the hot path pays a virtual call returning a constant and
//!   allocates nothing. Behaviour never depends on the sink — tracing a
//!   run and not tracing it produce bit-identical reports.
//! * **Versioned schema.** Every serialized record carries
//!   [`SCHEMA_VERSION`]; consumers reject records from a different
//!   version rather than misreading them. Any change to an existing
//!   event's fields bumps the version; purely *additive* new variants do
//!   too (old readers cannot name them).
//! * **Sinks are thread-safe.** Sweep cells trace concurrently into one
//!   sink; [`VecSink`] shards its buffers and merges by sequence number
//!   on drain.

mod chrome;
mod event;
mod objective;
mod reader;
mod sink;

pub use chrome::{chrome_trace, ChromeEvent};
pub use event::{
    JobAllocation, SearchCandidate, TraceEvent, TraceRecord, SCHEMA_VERSION, SUPPORTED_SCHEMAS,
};
pub use objective::Objective;
pub use reader::{TraceReadError, TraceReader};
pub use sink::{JsonlSink, NullSink, TraceSink, VecSink};

/// Serialize records as one-record-per-line JSONL — the [`JsonlSink`]
/// on-disk format, reparsable with [`validate_jsonl`].
pub fn to_jsonl(records: &[TraceRecord]) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for r in records {
        out.push_str(&serde_json::to_string(r)?);
        out.push('\n');
    }
    Ok(out)
}

/// Parse and validate one-record-per-line JSONL produced by a
/// [`JsonlSink`] (or by [`to_jsonl`]): a collect over [`TraceReader`], so
/// every line must be a well-formed [`TraceRecord`] of a schema version
/// in [`SUPPORTED_SCHEMAS`] with strictly increasing `seq`, and the error
/// is the reader's. Stricter than the reader in one respect: the stream
/// must be *whole*. A sequence gap — which is also how the reader reports
/// a torn final line — fails validation, where analysis tolerates it.
pub fn validate_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut reader = TraceReader::new(text.as_bytes());
    let records: Vec<TraceRecord> =
        reader.by_ref().collect::<Result<_, _>>().map_err(|e| e.to_string())?;
    match reader.gaps() {
        0 => Ok(records),
        gaps => Err(format!("trace is missing {gaps} record(s): a seq gap or a torn final line")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RegionBegin {
                region: "sp/x_solve".into(),
                threads: 16,
                schedule: "guided,8".into(),
                chunk_policy: "guided".into(),
            },
            TraceEvent::PolicySwitched {
                region: "sp/x_solve".into(),
                from: "static".into(),
                to: "factoring".into(),
                invocation: 12,
                imbalance: 0.31,
            },
            TraceEvent::RegionEnd {
                region: "sp/x_solve".into(),
                time_s: 0.012,
                energy_j: 1.1,
                busy_s: 0.17,
                barrier_s: 0.022,
                objective_value: Some(0.012),
            },
            TraceEvent::PowerSample { power_w: 81.5, energy_total_j: 42.0 },
            TraceEvent::CapChange { requested_w: 80.0, effective_w: 80.0 },
            TraceEvent::SearchIteration {
                region: "sp/x_solve".into(),
                evaluations: 7,
                point: vec![3, 1, 4],
                value: 0.013,
                best_point: vec![3, 0, 4],
                best_value: 0.011,
                converged: false,
                simplex: vec![
                    SearchCandidate { point: vec![3, 1, 4], value: 0.013 },
                    SearchCandidate { point: vec![3, 0, 4], value: 0.011 },
                ],
                objective: Objective::Time,
            },
            TraceEvent::ConfigSwitch {
                region: "sp/x_solve".into(),
                threads: 12,
                schedule: "dynamic,16".into(),
            },
            TraceEvent::OverheadCharged {
                region: "sp/x_solve".into(),
                config_change_s: 0.008,
                instrumentation_s: 0.000_04,
                energy_j: 0.24,
            },
            TraceEvent::CacheHit { region: "sp/x_solve".into() },
            TraceEvent::CacheMiss { region: "sp/y_solve".into() },
            TraceEvent::PolicyFired { policy: "arcs-select".into(), task: "sp/x_solve".into() },
            TraceEvent::FaultInjected {
                kind: "timer_spike".into(),
                region: "sp/x_solve".into(),
                magnitude: 8.0,
            },
            TraceEvent::MeasurementRejected {
                region: "sp/x_solve".into(),
                value: 0.096,
                median: 0.012,
                mad: 0.001,
            },
            TraceEvent::TunerDegraded {
                region: "sp/x_solve".into(),
                threads: 16,
                schedule: "guided,8".into(),
            },
            TraceEvent::JobSubmitted {
                job: 7,
                tenant: "acme".into(),
                workload: "sp.W".into(),
                floor_w: 57.5,
                weight: 2.0,
                timesteps: 16,
                fault_seed: Some(9),
                requested_floor_w: Some(60.0),
            },
            TraceEvent::JobRejected {
                job: 8,
                tenant: "acme".into(),
                floor_w: 500.0,
                reason: "floor cap exceeds the global budget".into(),
            },
            TraceEvent::JobScheduled { job: 7, tenant: "acme".into(), node: 3, cap_w: 120.0 },
            TraceEvent::CapReallocated {
                reason: "scheduled".into(),
                budget_w: 400.0,
                total_w: 350.0,
                allocations: vec![
                    JobAllocation { job: 6, node: 1, cap_w: 230.0 },
                    JobAllocation { job: 7, node: 3, cap_w: 120.0 },
                ],
            },
            TraceEvent::JobCompleted {
                job: 7,
                tenant: "acme".into(),
                node: 3,
                status: "ok".into(),
                time_s: 12.5,
                energy_j: 1400.0,
            },
            TraceEvent::DriverPhases {
                workload: "sp.W".into(),
                invocations: 20,
                tune_s: 0.002,
                measure_s: 0.011,
                overhead_s: 0.0004,
                meter_s: 0.0001,
            },
            TraceEvent::NodeFailed {
                node: 3,
                class: "crash".into(),
                permanent: false,
                victim: Some(7),
            },
            TraceEvent::NodeRecovered { node: 3, down_s: 4.5 },
            TraceEvent::JobRequeued {
                job: 7,
                tenant: "acme".into(),
                node: 3,
                attempt: 2,
                backoff_s: 0.1,
            },
            TraceEvent::JobFailed {
                job: 7,
                tenant: "acme".into(),
                reason: "retry budget exhausted after 4 placement(s)".into(),
                attempts: 4,
            },
            TraceEvent::JobShed {
                job: 9,
                tenant: "acme".into(),
                reason: "admission queue full (8 waiting)".into(),
                queue_depth: 8,
                retry_after_s: 0.4,
            },
            TraceEvent::CheckpointRecovered { ops: 120, submitted: 40, completed: 31 },
            TraceEvent::BrokerConfigured {
                budget_w: 400.0,
                quantum_timesteps: 4,
                machines: vec!["crill".into(), "crill".into()],
                max_queue: Some(8),
                max_retries: 3,
                backoff_base_s: 0.05,
                resilience: String::new(),
                node_faults: "{\"seed\":42}".into(),
            },
            TraceEvent::BrokerStep {},
        ]
    }

    #[test]
    fn every_variant_roundtrips_through_json() {
        for (i, event) in sample_events().into_iter().enumerate() {
            let record =
                TraceRecord { schema: SCHEMA_VERSION, seq: i as u64, t_s: Some(1.5), event };
            let json = serde_json::to_string(&record).expect("record serializes");
            let back: TraceRecord = serde_json::from_str(&json).expect("record deserializes");
            assert_eq!(back, record);
        }
    }

    #[test]
    fn validate_jsonl_accepts_sink_output_and_rejects_foreign_schema() {
        let sink = VecSink::new();
        sink.record(Some(0.0), TraceEvent::CacheHit { region: "r".into() });
        sink.record(Some(0.1), TraceEvent::CacheMiss { region: "r".into() });
        let jsonl = to_jsonl(&sink.drain()).unwrap();
        let records = validate_jsonl(&jsonl).expect("sink output validates");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].seq, 0);

        // Older schema versions inside the window still parse: new fields
        // take their serde defaults.
        let older = jsonl
            .replace(&format!("\"schema\":{SCHEMA_VERSION}"), "\"schema\":6")
            .replacen("\"schema\":6", "\"schema\":5", 1);
        let old_records = validate_jsonl(&older).expect("v5/v6 records stay readable");
        assert_eq!(old_records.len(), 2);

        let foreign = jsonl.replace(
            &format!("\"schema\":{SCHEMA_VERSION}"),
            &format!("\"schema\":{}", SCHEMA_VERSION + 1),
        );
        let err = validate_jsonl(&foreign).unwrap_err();
        assert!(
            err.contains(&format!("schema {}, this reader expects", SCHEMA_VERSION + 1)),
            "{err}"
        );
        let zero = jsonl.replace(&format!("\"schema\":{SCHEMA_VERSION}"), "\"schema\":0");
        assert!(validate_jsonl(&zero).unwrap_err().contains("schema 0, this reader expects"));
    }

    /// What `arcs-sim run --check` relies on: validation is the
    /// reader, plus wholeness. Out-of-order records, records missing from
    /// the middle and a torn final line are all refused.
    #[test]
    fn validate_jsonl_rejects_reordered_gappy_and_torn_streams() {
        let sink = VecSink::new();
        for i in 0..3 {
            sink.record(Some(f64::from(i)), TraceEvent::CacheHit { region: "r".into() });
        }
        let jsonl = to_jsonl(&sink.drain()).unwrap();
        let lines: Vec<&str> = jsonl.lines().collect();

        let swapped = format!("{}\n{}\n{}\n", lines[0], lines[2], lines[1]);
        let err = validate_jsonl(&swapped).unwrap_err();
        assert!(err.contains("seq 1 after 2"), "{err}");

        let gappy = format!("{}\n{}\n", lines[0], lines[2]);
        let err = validate_jsonl(&gappy).unwrap_err();
        assert!(err.contains("missing 1 record(s)"), "{err}");

        // The reader ends a torn stream cleanly and counts the lost
        // record as a gap; validation must not pass that as whole.
        let torn = &jsonl[..jsonl.len() - 7];
        assert_eq!(TraceReader::new(torn.as_bytes()).filter(|r| r.is_ok()).count(), 2);
        let err = validate_jsonl(torn).unwrap_err();
        assert!(err.contains("torn final line"), "{err}");

        // Mid-stream garbage is the reader's parse error, line and all.
        let garbage = format!("{}\n{{nope\n{}\n", lines[0], lines[1]);
        let err = validate_jsonl(&garbage).unwrap_err();
        assert!(err.starts_with("trace line 2: invalid record"), "{err}");
    }

    #[test]
    fn vec_sink_merges_concurrent_records_in_sequence_order() {
        let sink = Arc::new(VecSink::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    for _ in 0..100 {
                        sink.record(None, TraceEvent::CacheHit { region: format!("r{t}") });
                    }
                });
            }
        });
        let records = sink.drain();
        assert_eq!(records.len(), 400);
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "drain must sort by seq");
    }

    #[test]
    fn null_sink_is_disabled_and_records_nothing() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.record(Some(0.0), TraceEvent::CacheHit { region: "r".into() });
    }

    #[test]
    fn jsonl_sink_writes_one_valid_record_per_line() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(Some(0.25), TraceEvent::CapChange { requested_w: 80.0, effective_w: 80.0 });
        sink.record(None, TraceEvent::PolicyFired { policy: "p".into(), task: "t".into() });
        let bytes = sink.into_inner().expect("no io errors on a Vec");
        let text = String::from_utf8(bytes).unwrap();
        let records = validate_jsonl(&text).expect("jsonl validates");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].t_s, Some(0.25));
        assert_eq!(records[1].t_s, None);
    }

    #[test]
    fn dropped_jsonl_sink_flushes_to_a_valid_file() {
        let path =
            std::env::temp_dir().join(format!("arcs_trace_drop_{}.jsonl", std::process::id()));
        {
            let sink = JsonlSink::create(&path).expect("temp file");
            sink.record(Some(0.0), TraceEvent::CacheHit { region: "r".into() });
            sink.record(Some(0.1), TraceEvent::CacheMiss { region: "r".into() });
            sink.flush().expect("no io errors on a fresh file");
            sink.record(None, TraceEvent::PolicyFired { policy: "p".into(), task: "t".into() });
            // Dropped here with one record still buffered.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let records = validate_jsonl(&text).expect("a dropped sink leaves a valid JSONL file");
        assert_eq!(records.len(), 3, "the final flush happens on drop");
    }

    #[test]
    fn jsonl_sink_surfaces_write_errors_without_being_consumed() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Err(std::io::Error::other("disk on fire"))
            }
        }

        let sink = JsonlSink::new(FailingWriter);
        let bridged = Arc::new(AtomicU64::new(0));
        sink.set_write_error_counter(Arc::clone(&bridged));
        assert_eq!(sink.last_error(), None, "healthy until a write actually fails");

        // Enough records to overflow the BufWriter and hit the failing
        // writer on the record path itself.
        for i in 0..300 {
            sink.record(Some(i as f64), TraceEvent::CacheHit { region: "r".into() });
        }
        let msg = sink.last_error().expect("the first failure is retained");
        assert!(msg.contains("disk on fire"), "{msg}");
        let dropped = sink.write_errors();
        assert!(dropped > 0, "the failing record and later drops are counted");
        assert_eq!(bridged.load(Ordering::Relaxed), dropped, "bridge mirrors the count");

        // flush() returns the typed error exactly once; last_error stays
        // readable afterwards for monitoring paths.
        assert!(sink.flush().is_err());
        assert!(sink.last_error().is_some());
        let _ = sink.into_inner();
    }

    #[test]
    fn chrome_export_is_a_json_array_of_complete_events() {
        let sink = VecSink::new();
        sink.record(Some(0.0), TraceEvent::CapChange { requested_w: 80.0, effective_w: 80.0 });
        sink.record(
            Some(0.020),
            TraceEvent::RegionEnd {
                region: "sp/x_solve".into(),
                time_s: 0.02,
                energy_j: 1.0,
                busy_s: 0.07,
                barrier_s: 0.01,
                objective_value: None,
            },
        );
        let json = chrome_trace(&sink.drain()).unwrap();
        assert!(json.starts_with('['));
        let events: Vec<ChromeEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(events.len(), 1, "one complete event per duration-bearing record");
        assert_eq!(events[0].ph, "X");
        assert_eq!(events[0].name, "sp/x_solve");
        // The region ended at t=20 ms having taken 20 ms, so it began at 0.
        assert_eq!(events[0].ts, 0.0);
        assert_eq!(events[0].dur, 20_000.0);
    }

    #[test]
    fn schema_version_is_stable() {
        // Bumping SCHEMA_VERSION is a conscious act: readers keep
        // accepting the older versions in SUPPORTED_SCHEMAS via serde
        // defaults, but writers
        // must never reuse a number. If this assertion fails you changed
        // the record layout — bump the version AND this test together.
        // (v1 → v2: RegionEnd gained `busy_s`/`barrier_s`. v2 → v3:
        // SearchIteration gained `objective`, RegionEnd
        // `objective_value`, OverheadCharged `energy_j`. v3 → v4: three
        // additive fault/recovery variants — FaultInjected,
        // MeasurementRejected, TunerDegraded. v4 → v5: five additive
        // broker variants — JobSubmitted, JobRejected, JobScheduled,
        // CapReallocated, JobCompleted. v5 → v6: one additive cache
        // variant — CacheStats, the end-of-run memo-cache snapshot.
        // v6 → v7: JobSubmitted gained `weight` and one additive
        // self-profile variant — DriverPhases, the driver's wall-clock
        // phase spans. v7 → v8: RegionBegin gained `chunk_policy` (the
        // schedule's policy-family name, serde-defaulted to empty) and
        // one additive scheduling variant — PolicySwitched, the adaptive
        // scheduler's mid-run policy change. v8 → v9: JobSubmitted
        // gained the rest of the submitted spec (`timesteps`,
        // `fault_seed`, `requested_floor_w`, serde-defaulted) and eight
        // additive resilience variants — NodeFailed, NodeRecovered,
        // JobRequeued, JobFailed, JobShed, CheckpointRecovered, plus the
        // journal-only BrokerConfigured and BrokerStep.)
        assert_eq!(SCHEMA_VERSION, 9);
        let record = TraceRecord {
            schema: SCHEMA_VERSION,
            seq: 3,
            t_s: Some(2.5),
            event: TraceEvent::CacheHit { region: "r".into() },
        };
        let json = serde_json::to_string(&record).unwrap();
        assert_eq!(json, r#"{"schema":9,"seq":3,"t_s":2.5,"event":{"CacheHit":{"region":"r"}}}"#);
    }
}
