//! The three serve workloads: one seeded arrival stream through the
//! broker in-process, in-process with trace + journal + chaos + recovery,
//! and over NDJSON/TCP.
//!
//! The broker is driven the way `arcs-serve-loadgen` drives it: arrivals
//! interleaved with 0–2 `step()`s, then `run_until_idle`, under the
//! loadgen's deliberately brittle resilience ladder so the planted
//! flaky-RAPL jobs really degrade.

use crate::bench::{Rep, Samples, Workload};
use crate::inputs::{self, SERVE_BUDGET_W, SERVE_NODES};
use crate::probes;
use crate::spans::{Busy, SpanLog, TimedSink};
use crate::stats::{sorted, tail_percentile, Digest, Summary};
use arcs::{ResilienceOptions, RunStatus};
use arcs_metrics::analyze_path;
use arcs_powersim::{Fleet, Machine, NodeFaultPlan, SharedSimCache};
use arcs_serve::server::Client;
use arcs_serve::{Broker, BrokerConfig, BrokerCounters, BrokerJournal, JobSpec, Request, Server};
use arcs_trace::{JsonlSink, NullSink, TraceSink};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Inproc,
    Durable,
    Wire,
}

pub const INPROC_JOBS: usize = 5000;
pub const DURABLE_JOBS: usize = 2500;
pub const WIRE_CONNECTIONS: usize = 2;
pub const WIRE_JOBS_PER_CONNECTION: usize = 2500;
/// The fleet-outage schedule `serve-durable` runs under. Fixed, not
/// seeded: the must-fire checks (a node fails, a victim is requeued) have
/// to hold for every arrival stream.
pub const CHAOS_PRESET: &str = "node-flap";
pub const CHAOS_SEED: u64 = 7;

pub fn broker_config(chaos: bool) -> BrokerConfig {
    let mut cfg = BrokerConfig::new(SERVE_BUDGET_W);
    cfg.quantum_timesteps = 4;
    let mut resilience = ResilienceOptions::standard();
    resilience.max_read_retries = 0;
    resilience.error_budget = Some(1);
    cfg.resilience = Some(resilience);
    cfg.node_faults =
        chaos.then(|| NodeFaultPlan::by_name(CHAOS_PRESET, CHAOS_SEED).expect("a known preset"));
    cfg
}

/// A fresh fleet, and a handle on its memo cache (the broker takes the
/// fleet; the handle lets the benchmark read hit/miss counts afterwards).
pub fn fleet(nodes: usize) -> (Fleet, Arc<SharedSimCache>) {
    let machine = Machine::crill();
    let fleet = Fleet::homogeneous(machine.clone(), nodes);
    let cache = Arc::clone(fleet.cache_for(&machine.name).expect("the fleet's own model"));
    (fleet, cache)
}

/// Submit the stream, interleaved with `steps`, then drain. With a span
/// log every `submit` and `step` is a root span, with whatever `sink_busy`
/// reports as its `trace.sink` child. Returns the number of steps taken.
pub fn drive(
    broker: &mut Broker,
    specs: Vec<JobSpec>,
    steps: &[u8],
    mut log: Option<&mut SpanLog>,
    sink_busy: &dyn Fn() -> Busy,
) -> u64 {
    let mut taken = 0u64;
    let mut step = |broker: &mut Broker, log: &mut Option<&mut SpanLog>| -> bool {
        let more = match log {
            None => broker.step(),
            Some(log) => {
                let span = log.open("serve.broker.step", taken);
                let more = broker.step();
                sink_busy().into_child(log, "trace.sink");
                log.close(span);
                more
            }
        };
        taken += more as u64;
        more
    };
    for (job, (spec, &n)) in specs.into_iter().zip(steps).enumerate() {
        match &mut log {
            None => {
                broker.submit(spec);
            }
            Some(log) => {
                let span = log.open("serve.broker.submit", job as u64);
                broker.submit(spec);
                sink_busy().into_child(log, "trace.sink");
                log.close(span);
            }
        }
        for _ in 0..n {
            step(broker, &mut log);
        }
    }
    while step(broker, &mut log) {}
    taken
}

/// The sink a durable repetition writes through: the plain file sink, or
/// the timed decorator around it.
trait RepSink: TraceSink + Sized + 'static {
    fn wrap(file: JsonlSink<File>, log: Option<&SpanLog>) -> Self;
    fn file(&self) -> &JsonlSink<File>;
    fn busy(&self) -> Busy;
}

impl RepSink for JsonlSink<File> {
    fn wrap(file: JsonlSink<File>, _log: Option<&SpanLog>) -> Self {
        file
    }
    fn file(&self) -> &JsonlSink<File> {
        self
    }
    fn busy(&self) -> Busy {
        Busy::default()
    }
}

impl RepSink for TimedSink<JsonlSink<File>> {
    fn wrap(file: JsonlSink<File>, log: Option<&SpanLog>) -> Self {
        TimedSink::new(file, log.expect("a timed sink needs the span log's clock"))
    }
    fn file(&self) -> &JsonlSink<File> {
        &self.inner
    }
    fn busy(&self) -> Busy {
        self.take()
    }
}

pub struct Serve {
    kind: Kind,
    seed: u64,
    stream: Vec<JobSpec>,
    steps: Vec<u8>,
    /// Scratch directory for trace and journal files (inside `out/`).
    dir: PathBuf,
    /// Main-phase wall of every untraced repetition so far; their median
    /// is the base the by-difference probes compare against.
    main_s: Vec<f64>,
}

impl Serve {
    pub fn setup(kind: Kind, seed: u64, dir: &Path) -> Serve {
        let jobs = match kind {
            Kind::Inproc => INPROC_JOBS,
            Kind::Durable => DURABLE_JOBS,
            Kind::Wire => WIRE_CONNECTIONS * WIRE_JOBS_PER_CONNECTION,
        };
        Serve {
            kind,
            seed,
            stream: inputs::arrival_stream(seed, jobs),
            steps: inputs::step_pattern(seed, jobs),
            dir: dir.to_path_buf(),
            main_s: Vec::new(),
        }
    }

    fn planted_rejections(&self) -> u64 {
        (self.stream.len() / inputs::REJECT_EVERY) as u64
    }

    fn inproc(&mut self, log: Option<&mut SpanLog>) -> Rep {
        let specs = self.stream.clone();
        let t0 = Instant::now();
        let (fleet, cache) = fleet(SERVE_NODES);
        let mut broker = Broker::new(fleet, broker_config(false), Arc::new(NullSink));
        let t1 = Instant::now();
        let steps = drive(&mut broker, specs, &self.steps, log, &Busy::default);
        let main_s = t1.elapsed().as_secs_f64();
        let wall_s = t0.elapsed().as_secs_f64();
        let mut rep = broker_outcome(&broker, wall_s, main_s, self.planted_rejections());
        rep.values.push(("serve.broker.steps", steps as f64));
        push_cache(&mut rep, &cache);
        rep
    }

    /// The main phase of `serve-durable` with any of its three costs
    /// switched off — what the by-difference attribution compares.
    fn durable_main(&self, journal: bool, trace: bool, chaos: bool) -> f64 {
        let specs = self.stream.clone();
        let (fleet, _) = fleet(SERVE_NODES);
        let file = trace.then(|| {
            Arc::new(JsonlSink::create(self.dir.join("variant.jsonl")).expect("out/ is writable"))
        });
        let sink: Arc<dyn TraceSink> = match &file {
            Some(file) => Arc::clone(file) as Arc<dyn TraceSink>,
            None => Arc::new(NullSink),
        };
        let mut broker = Broker::new(fleet, broker_config(chaos), sink);
        if journal {
            let path = self.dir.join("variant-journal.jsonl");
            broker.attach_journal(BrokerJournal::create(&path).expect("out/ is writable"));
        }
        let t0 = Instant::now();
        drive(&mut broker, specs, &self.steps, None, &Busy::default);
        if let Some(file) = &file {
            file.flush().expect("flushing the variant trace");
        }
        t0.elapsed().as_secs_f64()
    }

    fn durable<S: RepSink>(&mut self, mut log: Option<&mut SpanLog>) -> Rep {
        let trace_path = self.dir.join("trace.jsonl");
        let journal_path = self.dir.join("journal.jsonl");
        let recovered_path = self.dir.join("recovered.jsonl");
        let specs = self.stream.clone();
        let create = |path: &Path| JsonlSink::create(path).expect("out/ is writable");

        let t0 = Instant::now();
        let (fleet, cache) = fleet(SERVE_NODES);
        let sink = Arc::new(S::wrap(create(&trace_path), log.as_deref()));
        let mut broker =
            Broker::new(fleet, broker_config(true), Arc::clone(&sink) as Arc<dyn TraceSink>);
        broker.attach_journal(BrokerJournal::create(&journal_path).expect("out/ is writable"));
        let t1 = Instant::now();
        let steps = drive(&mut broker, specs, &self.steps, log.as_deref_mut(), &|| sink.busy());
        let flushed = sink.file().flush();
        let main_s = t1.elapsed().as_secs_f64();
        let journal_error = broker.journal_error();
        let (counters, now_s) = (broker.counters(), broker.now_s());
        let mut rep = broker_outcome(&broker, 0.0, main_s, self.planted_rejections());
        drop(broker);

        // Crash recovery: rebuild the broker from the journal alone, into
        // a second trace.
        let sink2 = Arc::new(S::wrap(create(&recovered_path), log.as_deref()));
        let span = log.as_deref_mut().map(|l| l.open("serve.broker.recover", 0));
        let t2 = Instant::now();
        let recovered =
            Broker::recover(&journal_path, Arc::clone(&sink2) as Arc<dyn TraceSink>, None);
        let flushed2 = sink2.file().flush();
        let recover_s = t2.elapsed().as_secs_f64();
        if let (Some(l), Some(span)) = (log.as_deref_mut(), span) {
            sink2.busy().into_child(l, "trace.sink");
            l.close(span);
        }

        let trace = std::fs::read(&trace_path).unwrap_or_default();
        let recovered_trace = std::fs::read(&recovered_path).unwrap_or_default();
        let journal = std::fs::read(&journal_path).unwrap_or_default();

        let span = log.as_deref_mut().map(|l| l.open("metrics.analysis", 0));
        let analysis = analyze_path(&trace_path);
        if let (Some(l), Some(span)) = (log, span) {
            l.close(span);
        }
        rep.wall_s = t0.elapsed().as_secs_f64();

        rep.check(flushed.is_ok() && flushed2.is_ok(), || "a trace flush failed".into());
        rep.check(journal_error.is_none(), || format!("journal error: {journal_error:?}"));
        match &recovered {
            Ok(b) => rep.check(b.counters() == counters && b.now_s() == now_s, || {
                "the recovered broker is not in the uninterrupted broker's state".into()
            }),
            Err(e) => rep.failures.push(format!("recovery failed: {e}")),
        }
        rep.check(!trace.is_empty() && trace == recovered_trace, || {
            "the recovered trace differs from the uninterrupted trace".into()
        });
        match &analysis {
            Ok(report) => {
                let (b, r) = (&report.broker, &report.recovery);
                rep.check(b.lost_jobs() == 0, || format!("{} job(s) lost", b.lost_jobs()));
                rep.check(b.over_budget_events == 0, || {
                    format!("{} reallocation(s) over budget", b.over_budget_events)
                });
                rep.check(
                    b.submitted == counters.submitted && b.completed == counters.completed,
                    || "the trace and the broker disagree about what happened".into(),
                );
                rep.check(r.node_failures > 0 && r.requeues > 0, || {
                    "chaos never bit: no node failure or no requeue".into()
                });
            }
            Err(e) => rep.failures.push(format!("cannot analyze the trace: {e}")),
        }

        let mut digest = Digest::default();
        digest.u64(rep.digest);
        digest.bytes(&trace);
        rep.digest = digest.finish();

        let submitted = counters.submitted as f64;
        // Both files hold one newline-terminated record per line (the
        // journal: a header, then one per accepted submission and step).
        let records = |bytes: &[u8]| bytes.iter().filter(|&&b| b == b'\n').count() as f64;
        rep.values.extend([
            ("recover_jobs_per_s", submitted / recover_s),
            ("log_bytes_per_job", (trace.len() + journal.len()) as f64 / submitted),
            ("serve.broker.steps", steps as f64),
            ("trace.events", records(&trace)),
            ("trace.bytes", trace.len() as f64),
            ("serve.journal.records", records(&journal)),
            ("serve.journal.bytes", journal.len() as f64),
            ("serve.recover.us_per_record", recover_s * 1e6 / records(&journal).max(1.0)),
        ]);
        push_cache(&mut rep, &cache);
        rep
    }

    fn wire(&mut self, log: Option<&mut SpanLog>) -> Rep {
        let epoch = log.as_ref().map_or_else(Instant::now, |l| l.epoch());
        let t0 = Instant::now();
        let (fleet, cache) = fleet(SERVE_NODES);
        let broker = Broker::new(fleet, broker_config(false), Arc::new(NullSink));
        let registry = broker.registry();
        let handle =
            Server::start(broker, "127.0.0.1:0", WIRE_CONNECTIONS).expect("binding 127.0.0.1:0");
        let addr = handle.addr().to_string();

        // Closed loop: each connection sends its next request when the
        // previous reply arrives.
        let barrier = Barrier::new(WIRE_CONNECTIONS + 1);
        let (clients, t1) = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .stream
                .chunks(WIRE_JOBS_PER_CONNECTION)
                .map(|specs| {
                    let (addr, barrier) = (&addr, &barrier);
                    s.spawn(move || client_loop(addr, specs, barrier, epoch))
                })
                .collect();
            barrier.wait();
            let t1 = Instant::now();
            let clients: Vec<ClientLog> =
                handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect();
            (clients, t1)
        });

        let mut rep = Rep::default();
        // The ack of a draining `shutdown` means every admitted job ran.
        let mut drained = false;
        let mut final_stats = None;
        match Client::connect(&addr) {
            Ok(mut ctl) => {
                final_stats = ctl.roundtrip(&Request::op_only("stats")).ok().and_then(|r| r.stats);
                drained = ctl.roundtrip(&Request::op_only("shutdown")).is_ok_and(|r| r.ok);
            }
            Err(e) => rep.failures.push(format!("cannot connect for shutdown: {e}")),
        }
        rep.main_s = t1.elapsed().as_secs_f64();
        handle.wait();
        rep.wall_s = t0.elapsed().as_secs_f64();
        rep.check(drained, || "the draining shutdown was not acknowledged".into());

        let mut all = ClientLog::default();
        for c in clients {
            all.merge(c);
        }
        let snap = registry.snapshot();
        let turnaround = snap.histogram("serve/turnaround_s").cloned().unwrap_or_default();
        let job_failures = snap.counter("serve/job_failures");
        let submitted = self.stream.len() as u64;
        rep.items = turnaround.count;
        rep.attempted = all.requests;
        rep.failures.append(&mut all.failures);
        rep.check(final_stats.is_some_and(|s| s.submitted == submitted), || {
            format!("the server saw {final_stats:?}, not {submitted} submissions")
        });
        rep.check(all.rejected == self.planted_rejections(), || {
            format!("{} rejections for {} planted jobs", all.rejected, self.planted_rejections())
        });
        // Conservation, read off the broker's own registry after the drain.
        rep.check(all.accepted == turnaround.count + job_failures, || {
            format!(
                "{} accepted but {} completed + {} failed",
                all.accepted, turnaround.count, job_failures
            )
        });
        // Two connections race, so job ids and virtual times depend on
        // the interleaving: only the order-free counts are pinned.
        let mut digest = Digest::default();
        for v in [submitted, all.accepted, all.rejected, turnaround.count, job_failures] {
            digest.u64(v);
        }
        rep.digest = digest.finish();

        let us = |ops: &[u8]| -> Vec<f64> {
            all.trips
                .iter()
                .filter(|t| ops.contains(&t.op))
                .map(|t| (t.end_ns - t.start_ns) as f64 / 1e3)
                .collect()
        };
        let acks = sorted(&us(&[OP_SUBMIT]));
        let median = |v: &[f64]| if v.is_empty() { 0.0 } else { Summary::of(v).median };
        rep.values.extend([
            ("submit_ack_p50_us", median(&acks)),
            ("submit_ack_p99_us", tail_percentile(&acks, 99.0).unwrap_or(0.0)),
            ("scrape_p50_us", median(&us(&[OP_STATS, OP_METRICS]))),
            ("sim_turnaround_p99_s", turnaround.p99),
            ("serve.wire.roundtrip_us.submit", median(&acks)),
            ("serve.wire.roundtrip_us.status", median(&us(&[OP_STATUS]))),
            ("serve.wire.roundtrip_us.stats", median(&us(&[OP_STATS]))),
            ("serve.wire.roundtrip_us.metrics", median(&us(&[OP_METRICS]))),
            ("serve.broker.reallocations", snap.counter("serve/reallocations") as f64),
            ("serve.broker.rejected", all.rejected as f64),
        ]);
        push_cache(&mut rep, &cache);
        if let Some(log) = log {
            for t in &all.trips {
                log.root(OP_SPANS[t.op as usize], t.start_ns, t.end_ns, t.id);
            }
        }
        rep
    }
}

const OP_SUBMIT: u8 = 0;
const OP_STATUS: u8 = 1;
const OP_STATS: u8 = 2;
const OP_METRICS: u8 = 3;
const OP_SPANS: [&str; 4] = [
    "serve.wire.roundtrip.submit",
    "serve.wire.roundtrip.status",
    "serve.wire.roundtrip.stats",
    "serve.wire.roundtrip.metrics",
];

/// One request/response round trip as a client timed it.
struct Trip {
    op: u8,
    start_ns: u64,
    end_ns: u64,
    /// The job the request was about (0 for scrapes).
    id: u64,
}

#[derive(Default)]
struct ClientLog {
    trips: Vec<Trip>,
    requests: u64,
    accepted: u64,
    rejected: u64,
    failures: Vec<String>,
}

impl ClientLog {
    fn merge(&mut self, mut other: ClientLog) {
        self.trips.append(&mut other.trips);
        self.requests += other.requests;
        self.accepted += other.accepted;
        self.rejected += other.rejected;
        self.failures.append(&mut other.failures);
    }
}

/// One closed-loop connection: every job of `specs` submitted in order,
/// with a `status` of an earlier job after every 25th, a `stats` after
/// every 50th and a `metrics` scrape after every 100th.
fn client_loop(addr: &str, specs: &[JobSpec], barrier: &Barrier, epoch: Instant) -> ClientLog {
    let mut log = ClientLog::default();
    log.trips.reserve(specs.len() + specs.len() / 10);
    let mut client = Client::connect(addr);
    barrier.wait();
    let client = match &mut client {
        Ok(client) => client,
        Err(e) => {
            log.failures.push(format!("cannot connect: {e}"));
            return log;
        }
    };
    let mut trip = |log: &mut ClientLog, op: u8, id: u64, req: &Request| {
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let resp = client.roundtrip(req);
        let end_ns = epoch.elapsed().as_nanos() as u64;
        log.trips.push(Trip { op, start_ns, end_ns, id });
        log.requests += 1;
        match resp {
            Ok(resp) if resp.ok => Some(resp),
            Ok(resp) => {
                log.failures.push(format!("{}: {:?}", req.op, resp.error));
                None
            }
            Err(e) => {
                log.failures.push(format!("{}: {e}", req.op));
                None
            }
        }
    };
    let mut mine: Vec<u64> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let planted = spec.floor_w.is_some();
        let Some(resp) = trip(&mut log, OP_SUBMIT, i as u64, &Request::submit(spec)) else {
            continue;
        };
        match (resp.accepted, resp.job) {
            (Some(accepted), Some(job)) if accepted != planted => {
                log.accepted += accepted as u64;
                log.rejected += !accepted as u64;
                mine.push(job);
            }
            other => log.failures.push(format!("submit {i}: unexpected answer {other:?}")),
        }
        let n = i + 1;
        if n % 25 == 0 && !mine.is_empty() {
            let job = mine[mine.len() / 2];
            let known = trip(&mut log, OP_STATUS, job, &Request::status(job))
                .is_some_and(|r| r.state.is_some());
            if !known {
                log.failures.push(format!("status of job {job}: no state"));
            }
        }
        if n % 50 == 0 {
            let full = trip(&mut log, OP_STATS, 0, &Request::op_only("stats"))
                .is_some_and(|r| r.stats.is_some() && r.telemetry.is_some());
            if !full {
                log.failures.push("stats: no counters or no telemetry".into());
            }
        }
        if n % 100 == 0 {
            let text = trip(&mut log, OP_METRICS, 0, &Request::op_only("metrics"))
                .and_then(|r| r.metrics)
                .unwrap_or_default();
            if !text.contains("serve_turnaround_s") {
                log.failures.push("metrics: no turnaround series in the scrape".into());
            }
        }
    }
    log
}

fn push_cache(rep: &mut Rep, cache: &SharedSimCache) {
    let stats = cache.stats();
    rep.values.extend([
        ("powersim.memo.hits", stats.hits as f64),
        ("powersim.memo.misses", stats.misses as f64),
        ("powersim.memo.entries", stats.entries as f64),
    ]);
}

/// Checks, digest and simulated outcomes of a broker that ran in this
/// process and is now idle.
fn broker_outcome(broker: &Broker, wall_s: f64, main_s: f64, planted: u64) -> Rep {
    let c: BrokerCounters = broker.counters();
    let mut rep =
        Rep { wall_s, main_s, items: c.completed, attempted: c.submitted, ..Rep::default() };
    rep.check(broker.is_idle() && c.queued == 0 && c.running == 0, || {
        format!("the broker is not idle: {c:?}")
    });
    rep.check(c.submitted == c.completed + c.rejected + c.failed + c.shed, || {
        format!("conservation broken: {c:?}")
    });
    rep.check(c.rejected == planted, || {
        format!("{} rejections for {planted} planted jobs", c.rejected)
    });
    let mut digest = Digest::default();
    for v in [c.submitted, c.completed, c.rejected, c.failed, c.shed, c.degraded, c.requeued] {
        digest.u64(v);
    }
    digest.f64(broker.now_s());
    for done in broker.completed_jobs().values() {
        digest.u64(done.job);
        digest.u64(done.node);
        digest.u64((done.status == RunStatus::Degraded) as u64);
        digest.f64(done.time_s);
        digest.f64(done.energy_j);
    }
    rep.digest = digest.finish();
    let telemetry = broker.telemetry();
    let snap = broker.registry().snapshot();
    rep.values.extend([
        ("sim_turnaround_p99_s", telemetry.turnaround.p99),
        ("serve.broker.reallocations", snap.counter("serve/reallocations") as f64),
        ("serve.broker.requeues", c.requeued as f64),
        ("serve.broker.rejected", c.rejected as f64),
        ("serve.broker.shed", c.shed as f64),
    ]);
    rep
}

impl Workload for Serve {
    fn rep(&mut self, log: Option<&mut SpanLog>) -> Rep {
        let traced = log.is_some();
        let rep = match (self.kind, log) {
            (Kind::Inproc, log) => self.inproc(log),
            (Kind::Durable, None) => self.durable::<JsonlSink<File>>(None),
            (Kind::Durable, Some(log)) => self.durable::<TimedSink<JsonlSink<File>>>(Some(log)),
            (Kind::Wire, log) => self.wire(log),
        };
        if !traced {
            self.main_s.push(rep.main_s);
        }
        rep
    }

    fn probes(&mut self, out: &mut Samples) {
        probes::serve_stack(self.seed, &self.dir, out);
        match self.kind {
            Kind::Inproc => {}
            Kind::Durable => {
                // By difference: the same stream with one cost switched
                // off, against the full workload's untraced median.
                let full = Summary::of(&self.main_s).median;
                let share = |without: f64| (full - without) / full;
                out.push("serve.journal.cost_share", share(self.durable_main(false, true, true)));
                out.push("serve.trace.cost_share", share(self.durable_main(true, false, true)));
                out.push("serve.chaos.cost_share", share(self.durable_main(true, true, false)));
            }
            Kind::Wire => probes::wire(self.seed, out),
        }
    }
}
