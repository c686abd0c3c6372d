//! Integration: the broker's telemetry plane — `stats` and `watch` over
//! real TCP, live-vs-replay agreement, and the driver's self-profile
//! spans — against the whole stack.

use arcs::ResilienceOptions;
use arcs_metrics::BrokerFold;
use arcs_powersim::{Fleet, Machine, NodeFaultPlan};
use arcs_serve::server::Client;
use arcs_serve::{Broker, BrokerConfig, JobSpec, Request, Server, TelemetrySnapshot};
use arcs_trace::{TraceEvent, TraceRecord, TraceSink, VecSink};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// `stats` returns counters and a telemetry snapshot taken at the same
/// broker instant, with populated SLO digests and conserved budget.
#[test]
fn stats_carries_a_consistent_telemetry_snapshot() {
    let fleet = Fleet::homogeneous(Machine::crill(), 2);
    let mut cfg = BrokerConfig::new(400.0);
    cfg.quantum_timesteps = 2;
    let broker = Broker::new(fleet, cfg, Arc::new(arcs_trace::NullSink));
    let handle = Server::start(broker, "127.0.0.1:0", 2).expect("ephemeral port");
    let addr = handle.addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    for (tenant, wl, weight) in
        [("acme", "sp.S", 2.0), ("umbrella", "cg.S", 1.0), ("acme", "ep.S", 2.0)]
    {
        let spec = JobSpec::new(tenant, wl).timesteps(4).weight(weight);
        let resp = client.roundtrip(&Request::submit(&spec)).unwrap();
        assert_eq!(resp.accepted, Some(true));
    }

    // Poll until the broker drains all three jobs (virtual time runs
    // fast; the loop bounds wall time, not correctness).
    let mut last = None;
    for _ in 0..200 {
        let resp = client.roundtrip(&Request::op_only("stats")).unwrap();
        let stats = resp.stats.expect("stats body");
        let telemetry = resp.telemetry.expect("telemetry snapshot rides along");
        // Same instant: the counters and the snapshot cannot disagree.
        assert_eq!(stats.submitted, telemetry.submitted);
        assert_eq!(stats.completed, telemetry.completed);
        assert!(telemetry.allocated_w <= telemetry.budget_w + 1e-6);
        let tenant_alloc: f64 = telemetry.tenants.values().map(|t| t.alloc_w).sum();
        assert!(tenant_alloc <= telemetry.budget_w + 1e-6);
        let done = stats.completed == 3;
        last = Some(telemetry);
        if done {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let snap = last.expect("at least one stats roundtrip");
    assert_eq!(snap.completed, 3, "all jobs drain");
    // Every placement records a queue wait; all three jobs were placed.
    assert_eq!(snap.queue_wait.count, 3);
    assert_eq!(snap.turnaround.count, 3);
    assert!(snap.realloc_churn_w.count > 0, "reallocation happened");
    let acme = &snap.tenants["acme"];
    assert_eq!(acme.weight, 2.0);
    assert_eq!(acme.completed, 2);
    assert_eq!(snap.tenants["umbrella"].completed, 1);
    assert!(!snap.events.is_empty());
    assert!(snap.events.iter().any(|l| l.contains("submitted")));

    // `metrics` renders the same registry as Prometheus text.
    let resp = client.roundtrip(&Request::op_only("metrics")).unwrap();
    let text = resp.metrics.expect("prometheus text");
    assert!(text.contains("# TYPE serve_queue_wait_s histogram"), "got:\n{text}");
    assert!(text.contains("tenant=\"acme\""));

    client.roundtrip(&Request::op_only("shutdown")).unwrap();
    handle.shutdown();
}

/// `watch` switches the connection to raw NDJSON snapshot pushes; every
/// frame conserves the budget and virtual time never runs backwards.
#[test]
fn watch_streams_budget_conserving_frames() {
    let fleet = Fleet::homogeneous(Machine::crill(), 2);
    let mut cfg = BrokerConfig::new(345.0);
    cfg.quantum_timesteps = 2;
    let broker = Broker::new(fleet, cfg, Arc::new(arcs_trace::NullSink));
    let handle = Server::start(broker, "127.0.0.1:0", 2).expect("ephemeral port");
    let addr = handle.addr().to_string();

    // Subscribe first so the stream sees the jobs arrive.
    let stream = TcpStream::connect(&addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(b"{\"op\":\"watch\",\"every\":1}\n").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);

    let mut client = Client::connect(&addr).unwrap();
    for i in 0..4u64 {
        let tenant = if i % 2 == 0 { "acme" } else { "umbrella" };
        let spec = JobSpec::new(tenant, "sp.S").timesteps(4);
        client.roundtrip(&Request::submit(&spec)).unwrap();
    }

    let mut frames = Vec::new();
    let mut line = String::new();
    while frames.len() < 8 {
        line.clear();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        let snap: TelemetrySnapshot = serde_json::from_str(line.trim()).unwrap();
        frames.push(snap);
    }
    assert!(frames.len() >= 8, "the broker pushes a frame per quantum");
    let mut prev_t = -1.0;
    for snap in &frames {
        assert!(snap.allocated_w <= snap.budget_w + 1e-6, "conservation in every frame");
        assert!(snap.now_s >= prev_t, "virtual time is monotonic");
        prev_t = snap.now_s;
    }
    assert!(frames.iter().any(|s| s.running > 0), "the stream saw work in flight");

    client.roundtrip(&Request::op_only("shutdown")).unwrap();
    handle.shutdown();
}

/// A two-node fleet under `node-flap` with a bounded queue, a planted
/// inadmissible job and jobs that degrade mid-run: every broker rule
/// (requeue, fail, shed, reject, nodes down, degraded) fires.
fn chaos_broker(sink: &Arc<VecSink>) -> Broker {
    let fleet = Fleet::homogeneous(Machine::crill(), 2);
    let mut cfg = BrokerConfig::new(345.0);
    cfg.quantum_timesteps = 3;
    cfg.node_faults = Some(NodeFaultPlan::node_flap(7));
    cfg.max_queue = Some(4);
    // Zero error budget: the first absorbed meter fault degrades a job.
    let mut resilience = ResilienceOptions::standard();
    resilience.max_read_retries = 0;
    resilience.error_budget = Some(0);
    cfg.resilience = Some(resilience);
    Broker::new(fleet, cfg, Arc::clone(sink) as Arc<dyn TraceSink>)
}

/// Submission `i` of the chaos stream: three tenants, three kernels,
/// long enough to straddle outages; every fourth job runs under a
/// flaky meter, job 7 can never be admitted.
fn chaos_spec(i: u64) -> JobSpec {
    let kernel = ["sp.S", "cg.S", "ep.S"][i as usize % 3];
    let mut spec = JobSpec::new(format!("tenant{}", i % 3), kernel).timesteps(40);
    if i.is_multiple_of(3) {
        spec = spec.weight(2.0);
    }
    if i % 4 == 1 {
        spec = spec.fault_seed(i);
    }
    if i == 7 {
        spec = spec.floor_w(9_000.0);
    }
    spec
}

/// Live ≡ replay, whole frame, under chaos: after every `submit` and
/// every `step`, the broker's frame and the frame of a second fold fed
/// the trace records so far serialize to the same bytes — except the
/// two things no event carries: the broker's clock (a step that emits
/// nothing still advances it) and running jobs that are degraded right
/// now (`live ≥ replay`). At idle nothing is left to differ.
#[test]
fn replay_agrees_with_live_telemetry() {
    let sink = Arc::new(VecSink::new());
    let mut broker = chaos_broker(&sink);
    let mut replay = BrokerFold::new();
    let mut saw_live_only_degraded = false;
    let mut peak_nodes_down = 0;

    let mut compare = |broker: &Broker| {
        for rec in sink.drain() {
            replay.apply_record(&rec);
        }
        let live = broker.telemetry();
        let mut replayed = replay.snapshot();
        assert!(live.now_s >= replayed.now_s);
        replayed.now_s = live.now_s;
        assert!(live.degraded >= replayed.degraded);
        saw_live_only_degraded |= live.degraded > replayed.degraded;
        replayed.degraded = live.degraded;
        for (name, l) in &live.tenants {
            let r = replayed.tenants.get_mut(name).expect("same tenants");
            assert!(l.degraded >= r.degraded, "{name}");
            r.degraded = l.degraded;
        }
        peak_nodes_down = peak_nodes_down.max(live.nodes_down);
        assert_eq!(
            serde_json::to_string(&live).unwrap(),
            serde_json::to_string(&replayed).unwrap()
        );
    };

    for i in 0..24u64 {
        broker.submit(chaos_spec(i));
        compare(&broker);
        for _ in 0..(i % 4) {
            broker.step();
            compare(&broker);
        }
    }
    while broker.step() {
        compare(&broker);
    }

    // Every rule the old readers encoded separately was exercised.
    let live = broker.telemetry();
    assert!(live.requeued > 0, "node-flap must requeue: {live:?}");
    assert!(live.shed > 0, "the bounded queue must shed");
    assert_eq!(live.rejected, 1, "the planted job is rejected");
    assert!(live.degraded > 0, "flaky meters must degrade a job");
    assert!(saw_live_only_degraded, "some frame saw a job degraded while still running");
    assert!(peak_nodes_down > 0, "some frame saw a node out of service");
    assert_eq!(live.submitted, live.completed + live.rejected + live.failed + live.shed);

    // Idle: no running job, so the fold alone is the whole truth.
    assert!(broker.is_idle());
    let replayed = replay.snapshot();
    assert_eq!(serde_json::to_string(&live).unwrap(), serde_json::to_string(&replayed).unwrap());
}

/// One stream, three read-outs: the dashboard frame, the broker report
/// and the recovery report of a single fold agree on every count,
/// globally and per tenant, and the fold keeps nothing per job once
/// every job has reached its terminal event.
#[test]
fn the_three_read_outs_of_one_fold_agree() {
    let sink = Arc::new(VecSink::new());
    let mut broker = chaos_broker(&sink);
    for i in 0..24u64 {
        broker.submit(chaos_spec(i));
        for _ in 0..(i % 4) {
            broker.step();
        }
    }
    broker.run_until_idle();

    let mut fold = BrokerFold::new();
    for rec in sink.drain() {
        fold.apply_record(&rec);
    }
    let (frame, report, recovery) = (fold.snapshot(), fold.broker_report(), fold.recovery_report());
    assert!(recovery.requeues > 0 && report.shed > 0 && report.rejected > 0);
    assert_eq!(frame.submitted, report.submitted);
    assert_eq!(frame.completed, report.completed);
    assert_eq!(frame.rejected, report.rejected);
    assert_eq!(frame.failed, report.failed);
    assert_eq!(frame.shed, report.shed);
    assert_eq!(frame.requeued, recovery.requeues);
    assert_eq!(report.lost_jobs(), 0);
    assert_eq!(frame.tenants.len(), report.tenants.len());
    for (name, row) in &frame.tenants {
        let t = &report.tenants[name];
        assert_eq!(
            (row.completed, row.degraded, row.rejected, row.failed, row.shed, row.requeued),
            (t.completed, t.degraded, t.rejected, t.failed, t.shed, t.requeued),
            "{name}"
        );
    }
    assert_eq!(frame.degraded, report.tenants.values().map(|t| t.degraded).sum::<u64>());
    assert_eq!(frame.requeued, report.tenants.values().map(|t| t.requeued).sum::<u64>());
    // Nothing per job survives idle: a leftover would show as queued
    // (facts without a placement) or running (a placement never ended).
    assert_eq!((frame.queued, frame.running, frame.allocated_w), (0, 0, 0.0));
    assert!(frame.tenants.values().all(|t| t.queued == 0 && t.running == 0));
}

/// `DriverPhases` reaches the trace only when self-profiling is opted
/// in — byte-compared deterministic traces must never grow wall-clock
/// spans by accident.
#[test]
fn self_profile_spans_are_opt_in() {
    use arcs::{Runner, SimExecutor};
    use arcs_kernels::{model, Class};

    let run = |self_profile: bool| -> Vec<TraceRecord> {
        let machine = Machine::crill();
        let sink = Arc::new(VecSink::new());
        let mut exec =
            SimExecutor::new(machine.clone(), machine.power.tdp_w).with_trace(sink.clone());
        let wl = model::sp(Class::S);
        Runner::new(&mut exec)
            .workload(&wl)
            .self_profile(self_profile)
            .run()
            .expect("sim run succeeds");
        sink.drain()
    };

    let plain = run(false);
    assert!(
        !plain.iter().any(|r| matches!(r.event, TraceEvent::DriverPhases { .. })),
        "no spans without opt-in"
    );
    let profiled = run(true);
    let spans: Vec<_> = profiled
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::DriverPhases { workload, invocations, tune_s, measure_s, .. } => {
                Some((workload.clone(), *invocations, *tune_s, *measure_s))
            }
            _ => None,
        })
        .collect();
    assert_eq!(spans.len(), 1, "one span summary per run");
    let (workload, invocations, tune_s, measure_s) = &spans[0];
    assert_eq!(workload, "sp.S");
    assert!(*invocations > 0);
    assert!(*tune_s >= 0.0);
    assert!(*measure_s > 0.0, "the run did measure something");
}
