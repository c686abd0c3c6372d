//! `arcs-serve-loadgen` — deterministic multi-tenant load against the
//! broker, with built-in verification of the resulting trace.
//!
//! Three modes:
//!
//! ```text
//! arcs-serve-loadgen [--jobs N] [--tenants N] [--nodes N] [--machine M]
//!                    [--budget WATTS] [--seed S] [--quantum T]
//!                    [--reject-every N] [--fault-every N]
//!                    [--node-faults PRESET[:SEED]|JSON] [--shed-target N]
//!                    [--max-fairness R] --out TRACE.jsonl
//! arcs-serve-loadgen --connect HOST:PORT [--jobs N] [--tenants N] [--seed S] ...
//! arcs-serve-loadgen verify TRACE.jsonl
//! ```
//!
//! The default (in-process) mode drives the broker directly: it replays
//! a seeded arrival stream — same seed, same stream, byte-identical
//! trace — then analyses the trace and **fails** (exit 1) unless every
//! admitted job reached a terminal state (completed, or typed failed /
//! shed under chaos), Σ allocated caps ≤ budget at every reallocation
//! point, at least one job was rejected by admission control (the
//! stream plants inadmissible jobs on purpose), and the tenant fairness
//! ratio stays under `--max-fairness`.
//!
//! `--node-faults` injects a deterministic node-outage schedule (same
//! presets as `arcs-serve`) and turns on the chaos must-fire checks: at
//! least one node must fail and at least one victim job must be
//! requeued, or the run did not actually exercise the recovery path.
//! `--shed-target N` bounds the admission queue at N and requires load
//! shedding to fire.
//!
//! `--connect` replays the same stream against a live `arcs-serve` over
//! TCP and finishes with a draining `shutdown`; pair it with `verify`
//! on the server's trace file.

use arcs::cli::Flags;
use arcs_metrics::analyze_path;
use arcs_powersim::{Fleet, Machine};
use arcs_serve::server::Client;
use arcs_serve::{Broker, BrokerConfig, JobSpec, Request};
use arcs_trace::{JsonlSink, TraceSink};
use std::sync::Arc;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    arcs_powersim::splitmix64(*state)
}

struct Args {
    jobs: usize,
    tenants: usize,
    nodes: usize,
    machine: String,
    budget_w: Option<f64>,
    seed: u64,
    quantum: usize,
    reject_every: usize,
    fault_every: usize,
    max_fairness: f64,
    out: Option<String>,
    connect: Option<String>,
    node_faults: Option<String>,
    shed_target: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: arcs-serve-loadgen [--jobs N] [--tenants N] [--nodes N] [--machine M]\n\
         \x20                        [--budget WATTS] [--seed S] [--quantum T]\n\
         \x20                        [--reject-every N] [--fault-every N]\n\
         \x20                        [--node-faults PRESET[:SEED]|JSON] [--shed-target N]\n\
         \x20                        [--max-fairness R] [--out TRACE] [--connect HOST:PORT]\n\
         \x20      arcs-serve-loadgen verify TRACE.jsonl"
    );
    std::process::exit(2)
}

const WORKLOADS: [&str; 5] = ["sp.S", "bt.S", "cg.S", "ep.S", "mg.S"];

/// The seeded arrival stream. `budget_w` is only used to size the
/// planted-inadmissible floors; everything else is pure `seed`.
fn arrival_stream(args: &Args, budget_w: f64) -> Vec<JobSpec> {
    let mut rng = args.seed;
    (0..args.jobs)
        .map(|i| {
            let r = splitmix64(&mut rng);
            let tenant = format!("tenant{}", r % args.tenants as u64);
            let workload = WORKLOADS[(r >> 8) as usize % WORKLOADS.len()];
            let mut spec = JobSpec::new(tenant, workload).timesteps(4 + ((r >> 16) % 9) as usize);
            if args.reject_every > 0 && (i + 1) % args.reject_every == 0 {
                // Planted inadmissible job: its floor tops the whole
                // budget, so admission control MUST fire.
                spec = spec.floor_w(budget_w * 2.0);
            }
            if args.fault_every > 0 && (i + 1) % args.fault_every == 0 {
                spec = spec.fault_seed(r >> 24);
            }
            spec
        })
        .collect()
}

struct VerifyExpectations {
    max_fairness: Option<f64>,
    rejections: bool,
    /// Node faults were injected: node failures AND job requeues must
    /// both appear, or the chaos schedule never actually bit.
    requeues: bool,
    /// The admission queue was bounded: shedding must fire.
    shedding: bool,
}

impl VerifyExpectations {
    fn none() -> Self {
        VerifyExpectations {
            max_fairness: None,
            rejections: false,
            requeues: false,
            shedding: false,
        }
    }
}

fn verify_trace(path: &str, expect: &VerifyExpectations) -> i32 {
    let report = match analyze_path(path) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("loadgen: cannot analyze {path:?}: {err}");
            return 1;
        }
    };
    let b = &report.broker;
    if !b.any() {
        eprintln!("loadgen: {path:?} carries no broker events");
        return 1;
    }
    println!(
        "loadgen: {} submitted, {} scheduled, {} completed, {} rejected, \
         {} failed, {} shed ({} reallocation(s))",
        b.submitted, b.scheduled, b.completed, b.rejected, b.failed, b.shed, b.reallocations
    );
    let r = &report.recovery;
    if r.any() {
        println!(
            "loadgen: {} node failure(s) ({} permanent), {} recoveries, {} requeue(s)",
            r.node_failures, r.permanent_failures, r.node_recoveries, r.requeues
        );
    }
    let mut failed = false;
    if b.lost_jobs() != 0 {
        eprintln!(
            "loadgen: FAIL — {} job(s) lost (admitted but reached no terminal state)",
            b.lost_jobs()
        );
        failed = true;
    }
    if b.over_budget_events != 0 {
        eprintln!(
            "loadgen: FAIL — {} reallocation(s) exceeded the {:.1} W budget (peak {:.2} W)",
            b.over_budget_events, b.budget_w, b.max_total_w
        );
        failed = true;
    } else {
        println!(
            "loadgen: budget conserved — peak Σ allocations {:.2} W of {:.1} W",
            b.max_total_w, b.budget_w
        );
    }
    if expect.rejections && b.rejected == 0 {
        eprintln!("loadgen: FAIL — the planted inadmissible jobs were not rejected");
        failed = true;
    }
    if expect.requeues {
        if r.node_failures == 0 {
            eprintln!("loadgen: FAIL — node faults requested but no node ever failed");
            failed = true;
        }
        if r.requeues == 0 {
            eprintln!("loadgen: FAIL — node faults fired but no victim job was requeued");
            failed = true;
        }
    }
    if expect.shedding && b.shed == 0 {
        eprintln!("loadgen: FAIL — the admission queue was bounded but nothing was shed");
        failed = true;
    }
    match (b.fairness_ratio(), expect.max_fairness) {
        (Some(ratio), Some(limit)) => {
            println!("loadgen: tenant fairness ratio {ratio:.3} (limit {limit:.1})");
            if ratio > limit {
                eprintln!("loadgen: FAIL — fairness ratio {ratio:.3} above {limit:.1}");
                failed = true;
            }
        }
        (Some(ratio), None) => println!("loadgen: tenant fairness ratio {ratio:.3}"),
        (None, _) => println!("loadgen: fairness ratio undefined (fewer than two tenants)"),
    }
    if failed {
        1
    } else {
        println!("loadgen: PASS");
        0
    }
}

fn run_in_process(args: &Args) -> i32 {
    let Some(machine) = Machine::by_name(&args.machine) else {
        eprintln!("unknown machine {:?}", args.machine);
        return 2;
    };
    let fleet = Fleet::homogeneous(machine, args.nodes);
    // Default: 100 W per node — between the fleet's floor (~57.5 W/node
    // on crill) and its maximum, so arbitration is always in play.
    let budget_w = args.budget_w.unwrap_or(100.0 * args.nodes as f64);
    let Some(out) = &args.out else {
        eprintln!("in-process mode requires --out TRACE.jsonl");
        return 2;
    };
    let sink = match JsonlSink::create(out) {
        Ok(sink) => Arc::new(sink),
        Err(err) => {
            eprintln!("cannot open {out:?}: {err}");
            return 1;
        }
    };

    let mut cfg = BrokerConfig::new(budget_w);
    cfg.quantum_timesteps = args.quantum.max(1);
    // A deliberately brittle ladder: no read retries and a one-fault
    // error budget, so the planted flaky-RAPL jobs actually degrade and
    // exercise the pin-to-floor reallocation path under load.
    let mut resilience = arcs::ResilienceOptions::standard();
    resilience.max_read_retries = 0;
    resilience.error_budget = Some(1);
    cfg.resilience = Some(resilience);
    cfg.node_faults = args.node_faults.as_deref().map(arcs_serve::node_faults_or_exit);
    cfg.max_queue = args.shed_target;
    let chaos = cfg.node_faults.as_ref().is_some_and(|plan| plan.is_active());
    let mut broker = Broker::new(fleet, cfg, Arc::clone(&sink) as Arc<dyn TraceSink>);

    let stream = arrival_stream(args, budget_w);
    let started = std::time::Instant::now();
    let mut rng = args.seed ^ 0xA5A5_A5A5_A5A5_A5A5;
    for spec in stream {
        broker.submit(spec);
        // Interleave arrivals with simulated progress so reallocation
        // fires on live jobs, not just on an idle queue.
        for _ in 0..splitmix64(&mut rng) % 3 {
            broker.step();
        }
    }
    broker.run_until_idle();
    let virtual_s = broker.now_s();
    let counters = broker.counters();
    drop(broker);
    if let Err(err) = sink.flush() {
        eprintln!("cannot flush {out:?}: {err}");
        return 1;
    }

    let wall = started.elapsed().as_secs_f64();
    println!(
        "loadgen: {} job(s), {} tenant(s), {} node(s), budget {:.1} W, seed {}",
        args.jobs, args.tenants, args.nodes, budget_w, args.seed
    );
    println!(
        "loadgen: completed {} ({} degraded) in {:.1} virtual s, {:.2} wall s ({:.0} jobs/s)",
        counters.completed,
        counters.degraded,
        virtual_s,
        wall,
        counters.completed as f64 / wall.max(1e-9)
    );
    verify_trace(
        out,
        &VerifyExpectations {
            max_fairness: Some(args.max_fairness),
            rejections: args.reject_every > 0,
            requeues: chaos,
            shedding: args.shed_target.is_some(),
        },
    )
}

fn run_client(args: &Args, addr: &str) -> i32 {
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(err) => {
            eprintln!("cannot connect to {addr}: {err}");
            return 1;
        }
    };
    // The server owns the budget; plant rejection floors high enough
    // for any sane deployment.
    let stream = arrival_stream(args, 1.0e5);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for spec in stream {
        match client.roundtrip(&Request::submit(&spec)) {
            Ok(resp) if resp.accepted == Some(true) => accepted += 1,
            Ok(resp) if resp.accepted == Some(false) => rejected += 1,
            Ok(resp) => {
                eprintln!("submit failed: {:?}", resp.error);
                return 1;
            }
            Err(err) => {
                eprintln!("connection lost: {err}");
                return 1;
            }
        }
    }
    println!("loadgen: submitted {accepted} accepted + {rejected} rejected to {addr}");
    // Draining shutdown: the ack means every admitted job completed and
    // the server's trace is ready for `verify`.
    match client.roundtrip(&Request::op_only("shutdown")) {
        Ok(resp) if resp.ok => {
            println!("loadgen: server drained and shut down");
            0
        }
        Ok(_) | Err(_) => {
            eprintln!("loadgen: shutdown did not complete cleanly");
            1
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("verify") {
        let Some(path) = argv.get(1) else { usage() };
        std::process::exit(verify_trace(path, &VerifyExpectations::none()))
    }
    let mut flags = Flags::new(&argv, usage);
    let mut args = Args {
        jobs: 1000,
        tenants: 4,
        nodes: 8,
        machine: "crill".into(),
        budget_w: None,
        seed: 42,
        quantum: 4,
        reject_every: 97,
        fault_every: 16,
        max_fairness: 3.0,
        out: None,
        connect: None,
        node_faults: None,
        shed_target: None,
    };
    while let Some(flag) = flags.next() {
        match flag {
            "--jobs" => args.jobs = flags.value("--jobs"),
            "--tenants" => args.tenants = flags.value("--tenants"),
            "--nodes" => args.nodes = flags.value("--nodes"),
            "--machine" => args.machine = flags.value("--machine"),
            "--budget" => args.budget_w = Some(flags.watts("--budget")),
            "--seed" => args.seed = flags.value("--seed"),
            "--quantum" => args.quantum = flags.value("--quantum"),
            "--reject-every" => args.reject_every = flags.value("--reject-every"),
            "--fault-every" => args.fault_every = flags.value("--fault-every"),
            "--max-fairness" => args.max_fairness = flags.value("--max-fairness"),
            "--out" => args.out = Some(flags.value("--out")),
            "--connect" => args.connect = Some(flags.value("--connect")),
            "--node-faults" => args.node_faults = Some(flags.value("--node-faults")),
            "--shed-target" => args.shed_target = Some(flags.value("--shed-target")),
            "--help" | "-h" => usage(),
            other => flags.unknown(other),
        }
    }
    if args.tenants == 0 || args.jobs == 0 {
        usage()
    }
    let code = match &args.connect {
        Some(addr) => run_client(&args, addr),
        None => run_in_process(&args),
    };
    std::process::exit(code)
}
