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
//! so the fleet flags are ignored in that mode); the new journal must be
//! another file. `--node-faults` injects a deterministic node-outage
//! schedule: a preset name (`node-crash`, `node-flap`, `node-drain`,
//! optionally `:SEED`) or a full JSON plan.

use arcs::cli::Flags;
use arcs_powersim::{Fleet, Machine};
use arcs_serve::{Broker, BrokerConfig, BrokerJournal, Server};
use arcs_trace::{JsonlSink, NullSink, TraceSink};
use std::path::Path;
use std::sync::Arc;

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

/// Whether two paths name one existing file.
fn same_file(a: &str, b: &str) -> bool {
    match (std::fs::canonicalize(a), std::fs::canonicalize(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    }
}

fn main() {
    let mut port: u16 = 0;
    let (mut nodes, mut quantum, mut pool): (usize, usize, usize) = (4, 4, 4);
    let mut machine = "crill".to_string();
    let mut budget_w: Option<f64> = None;
    let mut trace: Option<String> = None;
    let mut journal: Option<String> = None;
    let mut recover: Option<String> = None;
    let mut max_queue: Option<usize> = None;
    let mut max_retries: Option<u64> = None;
    let mut node_faults: Option<String> = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = Flags::new(&argv, usage);
    while let Some(flag) = flags.next() {
        match flag {
            "--port" => port = flags.value("--port"),
            "--nodes" => nodes = flags.value("--nodes"),
            "--machine" => machine = flags.value("--machine"),
            "--budget" => budget_w = Some(flags.watts("--budget")),
            "--quantum" => quantum = flags.value("--quantum"),
            "--trace" => trace = Some(flags.value("--trace")),
            "--pool" => pool = flags.value("--pool"),
            "--journal" => journal = Some(flags.value("--journal")),
            "--recover" => recover = Some(flags.value("--recover")),
            "--max-queue" => max_queue = Some(flags.value("--max-queue")),
            "--max-retries" => max_retries = Some(flags.value("--max-retries")),
            "--node-faults" => node_faults = Some(flags.value("--node-faults")),
            "--help" | "-h" => usage(),
            other => flags.unknown(other),
        }
    }
    // Opening the new journal truncates it, so naming the journal being
    // recovered would destroy it before recovery reads a byte.
    if let (Some(journal), Some(recover)) = (&journal, &recover) {
        if same_file(journal, recover) {
            eprintln!("--journal and --recover name the same file {journal:?}");
            usage()
        }
    }
    // Kept concrete (not just `dyn TraceSink`) so the write-error
    // counter bridge below can reach the sink after broker attach.
    let jsonl: Option<Arc<JsonlSink<std::fs::File>>> = trace.as_ref().map(|path| {
        Arc::new(JsonlSink::create(path).unwrap_or_else(|err| {
            eprintln!("cannot open trace {path:?}: {err}");
            std::process::exit(1)
        }))
    });
    let sink: Arc<dyn TraceSink> = match &jsonl {
        Some(sink) => Arc::clone(sink) as Arc<dyn TraceSink>,
        None => Arc::new(NullSink),
    };
    let new_journal = journal.as_ref().map(|path| {
        BrokerJournal::create(Path::new(path)).unwrap_or_else(|err| {
            eprintln!("cannot open journal {path:?}: {err}");
            std::process::exit(1)
        })
    });

    let broker = if let Some(old) = &recover {
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
        let model = Machine::by_name(&machine).unwrap_or_else(|| {
            eprintln!("unknown machine {machine:?} (expected crill or minotaur)");
            std::process::exit(2)
        });
        let fleet = Fleet::homogeneous(model, nodes);
        // Default budget: enough to run every node at 75 % of its
        // maximum — tight enough that arbitration matters, loose enough
        // to admit any single-node job.
        let budget_w = budget_w.unwrap_or(fleet.total_max_cap_w() * 0.75);
        let mut cfg = BrokerConfig::new(budget_w);
        cfg.quantum_timesteps = quantum.max(1);
        cfg.max_queue = max_queue;
        if let Some(retries) = max_retries {
            cfg.max_retries = retries;
        }
        cfg.node_faults = node_faults.as_deref().map(arcs_serve::node_faults_or_exit);
        let mut broker = Broker::new(fleet, cfg, sink);
        if let Some(journal) = new_journal {
            broker.attach_journal(journal);
        }
        println!(
            "arcs-serve fleet: {} × {} node(s), budget {:.1} W, quantum {}",
            nodes,
            machine,
            budget_w,
            quantum.max(1)
        );
        broker
    };

    if let Some(sink) = &jsonl {
        // A dying trace file now shows up in `metrics` scrapes as
        // `arcs/trace/write_errors`, not just on stderr at exit.
        sink.set_write_error_counter(broker.registry().counter("arcs/trace/write_errors").shared());
    }
    let handle = match Server::start(broker, &format!("127.0.0.1:{}", port), pool) {
        Ok(handle) => handle,
        Err(err) => {
            eprintln!("cannot bind 127.0.0.1:{}: {err}", port);
            std::process::exit(1)
        }
    };
    println!("arcs-serve listening on {}", handle.addr());
    // Park until a client-initiated shutdown stops the threads.
    handle.wait();
}
