//! Fixed-input microprobes around single public functions, one layer at a
//! time. Traced runs only; every wall-clock number is the median of a few
//! short batches. Sweep workloads run the simulation-stack probes, serve
//! workloads the service-stack ones.

use crate::bench::Samples;
use crate::host::nproc;
use crate::inputs;
use crate::serve::{broker_config, drive, fleet};
use crate::spans::Busy;
use crate::stats::{sorted, tail_percentile, Summary};
use arcs::{ConfigSpace, OmpConfig, RegionTuner, SweepEngine, TunerOptions};
use arcs_apex::{Apex, PolicyTrigger};
use arcs_harmony::{Session, StrategyKind};
use arcs_kernels::{model, Class};
use arcs_metrics::{analyze_path, TraceReader};
use arcs_omprt::schedule::ChunkStream;
use arcs_omprt::{Runtime, Schedule, ScheduleKind};
use arcs_powersim::{
    simulate_region_with, ImbalanceProfile, Machine, RegionModel, SharedSimCache, SimConfig,
    SimScratch,
};
use arcs_serve::server::Client;
use arcs_serve::{load_journal, Broker, BrokerJournal, Request, Response, Server};
use arcs_trace::{JsonlSink, NullSink, TraceEvent, TraceRecord, TraceSink, VecSink};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock budget of one probe.
const PROBE: Duration = Duration::from_millis(60);

/// Median nanoseconds per call of `f`, over batches sized to ~2 ms each,
/// for about `budget`. Each batch is timed as a whole (two clock reads
/// per batch, not per call).
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let batch = (2_000_000 / once).clamp(1, 1_000_000);
    let mut per_call = Vec::new();
    let start = Instant::now();
    while per_call.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    Summary::of(&per_call).median
}

fn policy_schedule(kind: ScheduleKind) -> Schedule {
    Schedule::new(kind, Some(16))
}

/// The simulation stack: chunk streams, `simulate_region`, the memo
/// cache, search sessions, the region tuner, the live runtime.
pub fn sim_stack(seed: u64, out: &mut Samples) {
    let machine = Machine::crill();

    // omprt: the chunk-size stream the simulator's dispatcher consumes,
    // per policy, over a 2^20-iteration loop on 32 threads.
    let names = [
        (ScheduleKind::Static, "omprt.chunk_stream.ns_per_chunk.static"),
        (ScheduleKind::Dynamic, "omprt.chunk_stream.ns_per_chunk.dynamic"),
        (ScheduleKind::Guided, "omprt.chunk_stream.ns_per_chunk.guided"),
        (ScheduleKind::Trapezoid, "omprt.chunk_stream.ns_per_chunk.trapezoid"),
        (ScheduleKind::Factoring, "omprt.chunk_stream.ns_per_chunk.factoring"),
        (ScheduleKind::AdaptiveWeightedFactoring, "omprt.chunk_stream.ns_per_chunk.awf"),
    ];
    let mut chunks_total = 0usize;
    for (kind, name) in names {
        let stream = || ChunkStream::new(black_box(1 << 20), 32, policy_schedule(kind));
        let chunks = stream().count();
        chunks_total += chunks;
        let ns = ns_per_call(PROBE / 2, || {
            black_box(stream().fold(0usize, |acc, c| acc ^ c));
        });
        out.push(name, ns / chunks as f64);
    }
    out.push("omprt.chunk_stream.chunks", chunks_total as f64);

    // omprt, live: fork/join of an empty region and dynamic dispatch on
    // the host's own threads. Reported, never bounded: live wall-clock on
    // a shared host varies by tens of percent.
    let threads = nproc();
    let rt = Runtime::new(threads);
    rt.set_num_threads(threads);
    let region = rt.register_region("perf/probe");
    let fork_join_ns = ns_per_call(PROBE, || {
        black_box(rt.parallel(region, |t| {
            black_box(t);
        }));
    });
    out.push("omprt.region.fork_join_us", fork_join_ns / 1e3);
    let dynamic = policy_schedule(ScheduleKind::Dynamic);
    let dispatched = AtomicU64::new(0);
    let region_ns = ns_per_call(PROBE, || {
        rt.parallel_for_chunks_cfg(region, threads, dynamic, 0..(1 << 18), |c| {
            dispatched.fetch_add(1, Ordering::Relaxed);
            black_box(c);
        });
    });
    let chunks_per_region = (1u64 << 18) / 16;
    assert!(dispatched.load(Ordering::Relaxed) >= chunks_per_region);
    out.push(
        "omprt.dispenser.ns_per_chunk.dynamic",
        (region_ns - fork_join_ns).max(0.0) / chunks_per_region as f64,
    );

    // apex: one injected sample with one policy registered on timer stop.
    let apex = Apex::new();
    let fired = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&fired);
    apex.register_policy("perf/probe", PolicyTrigger::OnTimerStop, move |_| {
        counter.fetch_add(1, Ordering::Relaxed);
    });
    let task = apex.task("perf/probe");
    out.push("apex.policy.fire_ns", ns_per_call(PROBE, || apex.sample(task, 1e-3)));
    assert!(fired.load(Ordering::Relaxed) > 0, "the probe policy never fired");

    // powersim: one cold `simulate_region`, on a uniform region (closed
    // form), a weighted one and the Monte Carlo tracking loop (both
    // integrated chunk by chunk under a dynamic schedule).
    let uniform = model::sp(Class::B).step.into_iter().find(is_uniform);
    let weighted = model::lulesh(45).step.into_iter().find(|r| !is_uniform(r));
    let montecarlo = model::mc(Class::B).step.into_iter().find(|r| !is_uniform(r));
    let default_cfg = OmpConfig::default_for(&machine).as_sim();
    let dynamic_cfg = SimConfig { threads: default_cfg.threads, schedule: Schedule::dynamic(8) };
    let mut scratch = SimScratch::default();
    for (region, cfg, name) in [
        (uniform, default_cfg, "powersim.simulate_region.us.uniform"),
        (weighted, dynamic_cfg, "powersim.simulate_region.us.weighted"),
        (montecarlo, dynamic_cfg, "powersim.simulate_region.us.montecarlo"),
    ] {
        let region = region.expect("the kernel models carry such a region");
        let ns = ns_per_call(PROBE, || {
            black_box(simulate_region_with(
                &machine,
                black_box(85.0),
                &region,
                cfg,
                None,
                &mut scratch,
            ));
        });
        out.push(name, ns / 1e3);
    }

    // powersim: the memo cache by interned id — a warm hit, and a miss
    // that inserts an already-computed report (so no simulation inside).
    let cache = SharedSimCache::new(&machine.name);
    let mut reader = cache.reader();
    let probe_region = model::sp(Class::B).step.swap_remove(0);
    let id = cache.intern(&probe_region.name);
    let report =
        simulate_region_with(&machine, 85.0, &probe_region, default_cfg, None, &mut scratch);
    let cap = |i: u64| 55.0 + (i % 4096) as f64 * 0.25;
    let t0 = Instant::now();
    for i in 0..4096 {
        black_box(cache.get_or_insert_id(
            &mut reader,
            id,
            probe_region.iterations,
            default_cfg,
            cap(i),
            None,
            || report.clone(),
        ));
    }
    out.push("powersim.memo.miss_insert_ns", t0.elapsed().as_nanos() as f64 / 4096.0);
    let mut i = 0u64;
    let hit_ns = ns_per_call(PROBE, || {
        i += 1;
        black_box(cache.get_or_insert_id(
            &mut reader,
            id,
            probe_region.iterations,
            default_cfg,
            cap(i),
            None,
            || unreachable!("every probe key was inserted above"),
        ));
    });
    out.push("powersim.memo.hit_ns", hit_ns);
    assert_eq!(cache.stats().misses, 4096);

    // harmony: one ask/tell step per strategy, on the paper's 252-point
    // space with a smooth synthetic objective; sessions restart on
    // convergence so the number is a whole-search average.
    let space = ConfigSpace::for_machine(&machine);
    let objective = |p: &[usize]| {
        p.iter().enumerate().map(|(d, &x)| (x as f64 - 1.0 - d as f64).powi(2)).sum::<f64>() + 1.0
    };
    for (strategy, name) in [
        (StrategyKind::nelder_mead(), "harmony.session.step_ns.nelder-mead"),
        (StrategyKind::exhaustive(), "harmony.session.step_ns.exhaustive"),
        (StrategyKind::parallel_rank_order(), "harmony.session.step_ns.pro"),
    ] {
        let fresh =
            || Session::new(space.to_search_space(), strategy.clone(), space.default_point());
        let mut session = fresh();
        let ns = ns_per_call(PROBE, || {
            if session.converged() {
                session = fresh();
            }
            let p = session.next_point();
            session.report(objective(&p));
        });
        out.push(name, ns);
    }

    // core: the region tuner's begin + end_measured pair, while its
    // search is running and once it has settled.
    let fresh = || RegionTuner::new(TunerOptions::online(space.clone()));
    let mut tuner = fresh();
    let mut n = 0u64;
    let mut pair = |tuner: &mut RegionTuner| {
        n += 1;
        let d = tuner.begin("perf/probe");
        let t = 1.0 + d.config.omp.threads as f64 * 1e-3 + (n % 7) as f64 * 1e-6;
        tuner.end_measured("perf/probe", t, 50.0 * t);
    };
    let searching = ns_per_call(PROBE, || {
        if tuner.region_converged("perf/probe") {
            tuner = fresh();
        }
        pair(&mut tuner);
    });
    while !tuner.region_converged("perf/probe") {
        pair(&mut tuner);
    }
    let settled = ns_per_call(PROBE, || pair(&mut tuner));
    out.push("core.tuner.begin_end_ns.searching", searching);
    out.push("core.tuner.begin_end_ns.settled", settled);

    // core: what a second worker buys on this host (cold engines, the
    // same small grid).
    let grid = inputs::probe_grid(seed);
    let time = |workers: usize| {
        let t = Instant::now();
        black_box(SweepEngine::new(machine.clone()).with_workers(workers).run(&grid));
        t.elapsed().as_secs_f64()
    };
    let (serial, parallel) = (time(1), time(threads));
    out.push("core.sweep.parallel_efficiency", serial / (parallel * threads as f64));
}

fn is_uniform(region: &RegionModel) -> bool {
    matches!(region.imbalance, ImbalanceProfile::Uniform)
}

/// A small broker run whose trace supplies a realistic event mix.
fn sample_records(seed: u64) -> (Vec<TraceRecord>, Broker) {
    let sink = Arc::new(VecSink::new());
    let (fleet, _) = fleet(inputs::SERVE_NODES);
    let mut broker =
        Broker::new(fleet, broker_config(true), Arc::clone(&sink) as Arc<dyn TraceSink>);
    let jobs = 300;
    drive(
        &mut broker,
        inputs::arrival_stream(seed, jobs),
        &inputs::step_pattern(seed, jobs),
        None,
        &Busy::default,
    );
    (sink.drain(), broker)
}

/// The service stack: trace encode/write/read/analyse, the registry, the
/// journal, the protocol codec, telemetry, and `step` against fleet size.
pub fn serve_stack(seed: u64, dir: &Path, out: &mut Samples) {
    let (records, broker) = sample_records(seed);
    let n = records.len();
    assert!(n > 1000, "the sample run traced only {n} events");

    // trace: serialise one record; write one through a JsonlSink into
    // nothing (encode + buffered write, no file).
    let mut i = 0usize;
    let encode_ns = ns_per_call(PROBE, || {
        i = (i + 1) % n;
        black_box(serde_json::to_string(&records[i]).expect("records serialize"));
    });
    out.push("trace.encode.ns_per_event", encode_ns);
    let sink = JsonlSink::new(std::io::sink());
    let clone_ns = ns_per_call(PROBE / 2, || {
        i = (i + 1) % n;
        black_box(records[i].event.clone());
    });
    let record_ns = ns_per_call(PROBE, || {
        i = (i + 1) % n;
        sink.record(records[i].t_s, records[i].event.clone());
    });
    out.push("trace.jsonl_sink.record_ns", (record_ns - clone_ns).max(0.0));

    // trace/metrics: read the sample trace back, and analyse it.
    let path = dir.join("probe-trace.jsonl");
    {
        let file = JsonlSink::create(&path).expect("out/ is writable");
        for r in &records {
            file.record(r.t_s, r.event.clone());
        }
        file.flush().expect("flushing the probe trace");
    }
    let read_ns = ns_per_call(PROBE, || {
        let reader = TraceReader::open(&path).expect("the probe trace exists");
        assert_eq!(reader.filter(|r| r.is_ok()).count(), n);
    });
    out.push("trace.reader.ns_per_record", read_ns / n as f64);
    let analyse_ns = ns_per_call(PROBE, || {
        black_box(analyze_path(&path).expect("the probe trace analyses"));
    });
    out.push("metrics.analysis.us_per_record", analyse_ns / 1e3 / n as f64);

    // metrics: a registry snapshot and its Prometheus rendering, on the
    // sample broker's own registry (what a `metrics` scrape pays).
    let registry = broker.registry();
    out.push(
        "metrics.registry.snapshot_us",
        ns_per_call(PROBE, || {
            black_box(registry.snapshot());
        }) / 1e3,
    );
    let snap = registry.snapshot();
    out.push(
        "metrics.prometheus.render_us",
        ns_per_call(PROBE, || {
            black_box(snap.to_prometheus());
        }) / 1e3,
    );

    // serve: a journal append (encode + write + flush to the OS — not to
    // the disk), and loading the journal back.
    let journal_path = dir.join("probe-journal.jsonl");
    let journal = BrokerJournal::create(&journal_path).expect("out/ is writable");
    let submitted: Vec<&TraceEvent> = records
        .iter()
        .map(|r| &r.event)
        .filter(|e| matches!(e, TraceEvent::JobSubmitted { .. }))
        .collect();
    let mut appended = 0usize;
    let append_ns = ns_per_call(PROBE, || {
        appended += 1;
        let event = if appended.is_multiple_of(4) {
            submitted[appended % submitted.len()].clone()
        } else {
            TraceEvent::BrokerStep {}
        };
        journal.append(appended as f64, event);
    });
    out.push("serve.journal.append_us", append_ns / 1e3);
    drop(journal);
    let t = Instant::now();
    let loaded = load_journal(&journal_path).expect("the probe journal loads").len();
    out.push("serve.load_journal.us_per_record", t.elapsed().as_secs_f64() * 1e6 / loaded as f64);

    // serve: the NDJSON codec of one submit exchange — request out and in,
    // response out and in.
    let spec = inputs::arrival_stream(seed, 1).remove(0);
    let mut ack = Response::empty_ok();
    ack.job = Some(1234);
    ack.accepted = Some(true);
    let codec_ns = ns_per_call(PROBE, || {
        let line = serde_json::to_string(&Request::submit(&spec)).expect("requests serialize");
        black_box(serde_json::from_str::<Request>(&line).expect("requests parse"));
        let line = serde_json::to_string(&ack).expect("responses serialize");
        black_box(serde_json::from_str::<Response>(&line).expect("responses parse"));
    });
    out.push("serve.protocol.codec_us", codec_ns / 1e3);

    // serve: one telemetry frame of a loaded broker (what `stats` pays on
    // the broker-owner thread), and `step` against fleet size.
    let (fleet8, _) = fleet(inputs::SERVE_NODES);
    let mut loaded_broker = Broker::new(fleet8, broker_config(false), Arc::new(NullSink));
    for spec in inputs::arrival_stream(seed, 400) {
        loaded_broker.submit(spec);
    }
    (0..100).for_each(|_| {
        loaded_broker.step();
    });
    out.push(
        "serve.broker.telemetry_us",
        ns_per_call(PROBE, || {
            black_box(loaded_broker.telemetry());
        }) / 1e3,
    );
    for (nodes, name) in [
        (8, "serve.broker.step_us.nodes8"),
        (32, "serve.broker.step_us.nodes32"),
        (128, "serve.broker.step_us.nodes128"),
    ] {
        let (fleet, _) = fleet(nodes);
        let mut cfg = broker_config(false);
        cfg.budget_w = 100.0 * nodes as f64;
        let mut broker = Broker::new(fleet, cfg, Arc::new(NullSink));
        for mut spec in inputs::arrival_stream(seed, 600) {
            spec.floor_w = None;
            broker.submit(spec);
        }
        let mut steps = Vec::new();
        loop {
            let t = Instant::now();
            let more = broker.step();
            steps.push(t.elapsed().as_nanos() as f64 / 1e3);
            if !more {
                break;
            }
        }
        out.push(name, Summary::of(&steps).median);
    }
}

/// `(ack latency from due time, generator lateness)` in µs per request of
/// an open loop: request `k` was due at `due_ns[k]`, actually sent at
/// `sent_ns[k]` and answered at `done_ns[k]`. Timing from the due time
/// counts the wait a stall imposes on the requests queued behind it.
pub fn open_loop_account(due_ns: &[u64], sent_ns: &[u64], done_ns: &[u64]) -> (Vec<f64>, Vec<f64>) {
    assert!(due_ns.len() == sent_ns.len() && due_ns.len() == done_ns.len());
    let ack = due_ns.iter().zip(done_ns).map(|(&due, &done)| done.saturating_sub(due) as f64 / 1e3);
    let late =
        due_ns.iter().zip(sent_ns).map(|(&due, &sent)| sent.saturating_sub(due) as f64 / 1e3);
    (ack.collect(), late.collect())
}

/// Open-loop rate and duration of the `serve.wire.open2000.*` probe.
const OPEN_RATE_PER_S: u64 = 2000;
const OPEN_SECONDS: f64 = 1.5;

/// Wire-only probes: what a fresh connection waits for a pool worker, and
/// an open loop at a fixed rate.
pub fn wire(seed: u64, out: &mut Samples) {
    let start = |pool: usize| {
        let (fleet, _) = fleet(inputs::SERVE_NODES);
        let broker = Broker::new(fleet, broker_config(false), Arc::new(NullSink));
        Server::start(broker, "127.0.0.1:0", pool).expect("binding 127.0.0.1:0")
    };

    // Connect + first reply, minus a second reply on the same connection:
    // accept, hand-over to a pool worker, and the worker's start-up.
    let handle = start(2);
    let addr = handle.addr().to_string();
    let scrape = Request::op_only("metrics");
    let mut waits = Vec::new();
    for _ in 0..60 {
        let t0 = Instant::now();
        let mut c = Client::connect(&addr).expect("connecting to the probe server");
        c.roundtrip(&scrape).expect("first scrape");
        let t1 = Instant::now();
        c.roundtrip(&scrape).expect("second scrape");
        let t2 = Instant::now();
        waits.push(((t1 - t0).as_nanos() as f64 - (t2 - t1).as_nanos() as f64).max(0.0) / 1e3);
    }
    out.push("serve.pool.queue_us", Summary::of(&waits).median);
    handle.shutdown();

    // Open loop: requests leave on a schedule whether or not the last
    // one was answered — as far as one blocking connection can: a reply
    // slower than the period makes the generator late, which is reported.
    let handle = start(2);
    let addr = handle.addr().to_string();
    let connections = 2u64;
    let per_connection = (OPEN_RATE_PER_S as f64 * OPEN_SECONDS) as u64 / connections;
    let period_ns = 1_000_000_000 * connections / OPEN_RATE_PER_S;
    let specs =
        inputs::arrival_stream(seed.rotate_left(17), (per_connection * connections) as usize);
    let epoch = Instant::now() + Duration::from_millis(20);
    let logs: Vec<(Vec<u64>, Vec<u64>, Vec<u64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = specs
            .chunks(per_connection as usize)
            .enumerate()
            .map(|(c, specs)| {
                let addr = &addr;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connecting the open loop");
                    let (mut due, mut sent, mut done) = (Vec::new(), Vec::new(), Vec::new());
                    for (k, spec) in specs.iter().enumerate() {
                        // Connections are staggered by half a period.
                        let due_ns = k as u64 * period_ns + c as u64 * period_ns / connections;
                        let due_at = epoch + Duration::from_nanos(due_ns);
                        let req = Request::submit(spec);
                        loop {
                            let now = Instant::now();
                            if now >= due_at {
                                break;
                            }
                            let left = due_at - now;
                            if left > Duration::from_micros(300) {
                                std::thread::sleep(left - Duration::from_micros(200));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let at = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
                        let t_sent = Instant::now();
                        let ok = client.roundtrip(&req).is_ok_and(|r| r.ok);
                        assert!(ok, "an open-loop submit failed");
                        due.push(due_ns);
                        sent.push(at(t_sent));
                        done.push(at(Instant::now()));
                    }
                    (due, sent, done)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("an open-loop client panicked")).collect()
    });
    let (mut acks, mut lates) = (Vec::new(), Vec::new());
    for (due, sent, done) in &logs {
        let (ack, late) = open_loop_account(due, sent, done);
        acks.extend(ack);
        lates.extend(late);
    }
    let (acks, lates) = (sorted(&acks), sorted(&lates));
    out.push("serve.wire.open2000.ack_p50_us", Summary::of(&acks).median);
    out.push("serve.wire.open2000.ack_p99_us", tail_percentile(&acks, 99.0).unwrap_or(0.0));
    out.push("serve.wire.open2000.late_p99_us", tail_percentile(&lates, 99.0).unwrap_or(0.0));
    handle.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_time_not_the_send_time() {
        // Three requests due 1 ms apart. The first stalls for 2.5 ms, so
        // the second and third leave late — and their latency counts the
        // wait, although each was answered 0.1 ms after it was sent.
        let due = [0, 1_000_000, 2_000_000];
        let sent = [0, 2_500_000, 2_600_000];
        let done = [2_500_000, 2_600_000, 2_700_000];
        let (ack, late) = open_loop_account(&due, &sent, &done);
        assert_eq!(ack, vec![2500.0, 1600.0, 700.0]);
        assert_eq!(late, vec![0.0, 1500.0, 600.0]);
        // A generator that is early (clock skew between threads) is not
        // credited with negative lateness.
        let (ack, late) = open_loop_account(&[1000], &[900], &[5000]);
        assert_eq!((ack, late), (vec![4.0], vec![0.0]));
    }

    #[test]
    fn ns_per_call_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = black_box(x.wrapping_add(i));
                }
                black_box(x);
            }
        };
        let short = ns_per_call(Duration::from_millis(5), spin(100));
        let long = ns_per_call(Duration::from_millis(5), spin(10_000));
        assert!(long > 10.0 * short, "{long} vs {short}: the probe loop was optimised away");
    }
}
