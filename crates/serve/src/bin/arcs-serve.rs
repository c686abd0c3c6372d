//! `arcs-serve` — host the multi-tenant power-budget broker on TCP.
//!
//! ```text
//! arcs-serve [--port N] [--nodes N] [--machine crill|minotaur]
//!            [--budget WATTS] [--quantum TIMESTEPS] [--trace PATH]
//!            [--pool THREADS] [--journal PATH] [--recover PATH]
//!            [--max-queue N] [--max-retries N]
//!            [--node-faults PRESET[:SEED]|JSON]
//! ```
//!
//! Serves newline-delimited JSON (see `arcs_serve::protocol`) until a
//! client sends `{"op":"shutdown"}`; admitted jobs are drained before
//! the ack, and the broker trace (schema v9) is flushed to `--trace`.
//! Live telemetry is available over the same port: `{"op":"stats"}` for
//! one snapshot, `{"op":"metrics"}` for a Prometheus scrape, and
//! `{"op":"watch"}` for a continuous NDJSON stream (see `arcs-serve-top`
//! for a terminal dashboard over it).
//!
//! `--journal` write-ahead-logs every submission and step; after a
//! crash, `--recover <journal>` rebuilds the exact broker by replaying
//! it (fleet shape, budget, and fault plan come from the journal header,
//! so the fleet flags are ignored in that mode). `--node-faults` injects
//! a deterministic node-outage schedule: a preset name (`node-crash`,
//! `node-flap`, `node-drain`, optionally `:SEED`) or a full JSON plan.

use arcs_powersim::{Fleet, Machine};
use arcs_serve::{Broker, BrokerConfig, BrokerJournal, Server};
use arcs_trace::{JsonlSink, NullSink, TraceSink};
use std::path::Path;
use std::sync::Arc;

struct Args {
    port: u16,
    nodes: usize,
    machine: String,
    budget_w: Option<f64>,
    quantum: usize,
    trace: Option<String>,
    pool: usize,
    journal: Option<String>,
    recover: Option<String>,
    max_queue: Option<usize>,
    max_retries: Option<u64>,
    node_faults: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: arcs-serve [--port N] [--nodes N] [--machine crill|minotaur]\n\
         \x20                 [--budget WATTS] [--quantum TIMESTEPS] [--trace PATH]\n\
         \x20                 [--pool THREADS] [--journal PATH] [--recover PATH]\n\
         \x20                 [--max-queue N] [--max-retries N]\n\
         \x20                 [--node-faults PRESET[:SEED]|JSON]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        port: 0,
        nodes: 4,
        machine: "crill".into(),
        budget_w: None,
        quantum: 4,
        trace: None,
        pool: 4,
        journal: None,
        recover: None,
        max_queue: None,
        max_retries: None,
        node_faults: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--port" => args.port = value("--port").parse().unwrap_or_else(|_| usage()),
            "--nodes" => args.nodes = value("--nodes").parse().unwrap_or_else(|_| usage()),
            "--machine" => args.machine = value("--machine"),
            "--budget" => {
                args.budget_w = Some(value("--budget").parse().unwrap_or_else(|_| usage()))
            }
            "--quantum" => args.quantum = value("--quantum").parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = Some(value("--trace")),
            "--pool" => args.pool = value("--pool").parse().unwrap_or_else(|_| usage()),
            "--journal" => args.journal = Some(value("--journal")),
            "--recover" => args.recover = Some(value("--recover")),
            "--max-queue" => {
                args.max_queue = Some(value("--max-queue").parse().unwrap_or_else(|_| usage()))
            }
            "--max-retries" => {
                args.max_retries = Some(value("--max-retries").parse().unwrap_or_else(|_| usage()))
            }
            "--node-faults" => args.node_faults = Some(value("--node-faults")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    // Kept concrete (not just `dyn TraceSink`) so the write-error
    // counter bridge below can reach the sink after broker attach.
    let jsonl: Option<Arc<JsonlSink<std::fs::File>>> = args.trace.as_ref().map(|path| {
        Arc::new(JsonlSink::create(path).unwrap_or_else(|err| {
            eprintln!("cannot open trace {path:?}: {err}");
            std::process::exit(1)
        }))
    });
    let sink: Arc<dyn TraceSink> = match &jsonl {
        Some(sink) => Arc::clone(sink) as Arc<dyn TraceSink>,
        None => Arc::new(NullSink),
    };
    let new_journal = args.journal.as_ref().map(|path| {
        BrokerJournal::create(Path::new(path)).unwrap_or_else(|err| {
            eprintln!("cannot open journal {path:?}: {err}");
            std::process::exit(1)
        })
    });

    let broker = if let Some(old) = &args.recover {
        // Recovery mode: the journal header carries the fleet shape,
        // budget, and fault plan — the fleet flags are ignored.
        match Broker::recover(Path::new(old), sink, new_journal) {
            Ok(broker) => {
                let c = broker.counters();
                println!(
                    "arcs-serve recovered from {old:?}: {} submitted, {} completed, {} failed",
                    c.submitted, c.completed, c.failed
                );
                broker
            }
            Err(err) => {
                eprintln!("cannot recover from {old:?}: {err}");
                std::process::exit(1)
            }
        }
    } else {
        let machine = Machine::by_name(&args.machine).unwrap_or_else(|| {
            eprintln!("unknown machine {:?} (expected crill or minotaur)", args.machine);
            std::process::exit(2)
        });
        let fleet = Fleet::homogeneous(machine, args.nodes);
        // Default budget: enough to run every node at 75 % of its
        // maximum — tight enough that arbitration matters, loose enough
        // to admit any single-node job.
        let budget_w = args.budget_w.unwrap_or(fleet.total_max_cap_w() * 0.75);
        let mut cfg = BrokerConfig::new(budget_w);
        cfg.quantum_timesteps = args.quantum.max(1);
        cfg.max_queue = args.max_queue;
        if let Some(retries) = args.max_retries {
            cfg.max_retries = retries;
        }
        cfg.node_faults = args.node_faults.as_deref().map(arcs_serve::node_faults_or_exit);
        let mut broker = Broker::new(fleet, cfg, sink);
        if let Some(journal) = new_journal {
            broker.attach_journal(journal);
        }
        println!(
            "arcs-serve fleet: {} × {} node(s), budget {:.1} W, quantum {}",
            args.nodes,
            args.machine,
            budget_w,
            args.quantum.max(1)
        );
        broker
    };

    if let Some(sink) = &jsonl {
        // A dying trace file now shows up in `metrics` scrapes as
        // `arcs/trace/write_errors`, not just on stderr at exit.
        sink.set_write_error_counter(broker.registry().counter("arcs/trace/write_errors").shared());
    }
    let handle = match Server::start(broker, &format!("127.0.0.1:{}", args.port), args.pool) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("cannot bind 127.0.0.1:{}: {err}", args.port);
            std::process::exit(1)
        }
    };
    println!("arcs-serve listening on {}", handle.addr());
    // Park until a client-initiated shutdown stops the threads.
    handle.wait();
}
