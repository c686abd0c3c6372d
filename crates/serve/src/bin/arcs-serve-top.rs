//! `arcs-serve-top` — a live terminal dashboard over the broker's
//! telemetry plane.
//!
//! ```text
//! arcs-serve-top --connect HOST:PORT [--every N] [--snapshots N]
//!                [--once] [--format table|json] [--check-budget]
//! arcs-serve-top --replay TRACE.jsonl [--once] [--format table|json]
//!                [--check-budget]
//! ```
//!
//! Live mode sends `{"op":"watch","every":N}` and renders each pushed
//! NDJSON snapshot as a full-screen frame: per-tenant table (weight,
//! jobs, watts vs fair share, wait p50/p99), a budget utilisation bar,
//! and a rolling pane of recent events. `--once` prints a single frame
//! and exits — with `--format json` that frame is the raw snapshot
//! line, ready for `jq`.
//!
//! Replay mode reconstructs the same dashboard from a broker trace
//! (schema v5+) without a server: a pure function of the file, so
//! `--replay --once --format json` is byte-identical across runs.
//!
//! `--check-budget` turns the conservation invariant
//! ([`arcs_metrics::within_budget`]) into an exit code: a live frame that
//! breaks it, or a replayed trace whose fold counted an over-budget
//! reallocation, fails the run.

use arcs::cli::Flags;
use arcs_metrics::{within_budget, BrokerFold, TraceReader};
use arcs_serve::TelemetrySnapshot;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

struct Args {
    connect: Option<String>,
    replay: Option<String>,
    every: u64,
    snapshots: Option<u64>,
    once: bool,
    format: Format,
    check_budget: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Table,
    Json,
}

fn usage() -> ! {
    eprintln!(
        "usage: arcs-serve-top --connect HOST:PORT [--every N] [--snapshots N]\n\
         \x20                     [--once] [--format table|json] [--check-budget]\n\
         \x20      arcs-serve-top --replay TRACE.jsonl [--once] [--format table|json]\n\
         \x20                     [--check-budget]"
    );
    std::process::exit(2)
}

fn bar(fill: f64, width: usize) -> String {
    let filled = ((fill.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut s = String::with_capacity(width + 2);
    s.push('[');
    for i in 0..width {
        s.push(if i < filled { '#' } else { '-' });
    }
    s.push(']');
    s
}

fn render_table(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    let util = snap.utilization();
    out.push_str(&format!(
        "arcs-serve-top   t={:10.3}s   budget {:.1} W   allocated {:.1} W\n",
        snap.now_s, snap.budget_w, snap.allocated_w
    ));
    out.push_str(&format!("{} {:5.1} %\n", bar(util, 40), util * 100.0));
    out.push_str(&format!(
        "jobs: submitted {}  queued {}  running {}  completed {}  rejected {}  degraded {}\n",
        snap.submitted, snap.queued, snap.running, snap.completed, snap.rejected, snap.degraded
    ));
    out.push_str(&format!(
        "resilience: failed {}  shed {}  requeued {}  nodes down {}\n",
        snap.failed, snap.shed, snap.requeued, snap.nodes_down
    ));
    out.push_str(&format!(
        "wait p50/p99 {:.3}/{:.3} s   turnaround p50/p99 {:.3}/{:.3} s   churn mean {:.2} W\n\n",
        snap.queue_wait.p50,
        snap.queue_wait.p99,
        snap.turnaround.p50,
        snap.turnaround.p99,
        snap.realloc_churn_w.mean
    ));
    out.push_str(&format!(
        "{:<12} {:>6} {:>4} {:>5} {:>5} {:>5} {:>4} {:>4} {:>4} {:>9} {:>9} {:>9} {:>9}\n",
        "tenant",
        "weight",
        "run",
        "queue",
        "done",
        "degr",
        "rej",
        "fail",
        "shed",
        "alloc W",
        "fair W",
        "wait p50",
        "wait p99"
    ));
    for (name, t) in &snap.tenants {
        out.push_str(&format!(
            "{:<12} {:>6.2} {:>4} {:>5} {:>5} {:>5} {:>4} {:>4} {:>4} {:>9.2} {:>9.2} {:>9.3} {:>9.3}\n",
            name,
            t.weight,
            t.running,
            t.queued,
            t.completed,
            t.degraded,
            t.rejected,
            t.failed,
            t.shed,
            t.alloc_w,
            t.fair_share_w,
            t.queue_wait.p50,
            t.queue_wait.p99
        ));
    }
    out.push_str("\nrecent events\n");
    let tail = snap.events.len().saturating_sub(12);
    for line in &snap.events[tail..] {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Print one frame. Full-screen mode (live table) redraws in place.
fn render(snap: &TelemetrySnapshot, format: Format, fullscreen: bool) {
    match format {
        Format::Json => {
            println!("{}", serde_json::to_string(snap).expect("snapshots always serialize"))
        }
        Format::Table => {
            if fullscreen {
                print!("\x1b[2J\x1b[H{}", render_table(snap));
                let _ = std::io::stdout().flush();
            } else {
                print!("{}", render_table(snap));
            }
        }
    }
}

fn run_replay(args: &Args) -> i32 {
    let path = args.replay.as_ref().expect("replay mode");
    let reader = match TraceReader::open(path) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("cannot open trace {path:?}: {err}");
            return 1;
        }
    };
    let mut fold = BrokerFold::new();
    for rec in reader {
        match rec {
            Ok(rec) => fold.apply_record(&rec),
            Err(err) => {
                eprintln!("bad trace record in {path:?}: {err}");
                return 1;
            }
        }
    }
    render(&fold.snapshot(), args.format, false);
    let over = fold.broker_report().over_budget_events;
    if args.check_budget && over != 0 {
        eprintln!("budget violated: {over} reallocation(s) allocated more than the budget");
        return 1;
    }
    0
}

fn run_live(args: &Args) -> i32 {
    let addr = args.connect.as_ref().expect("live mode");
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(err) => {
            eprintln!("cannot connect to {addr}: {err}");
            return 1;
        }
    };
    let mut writer = stream.try_clone().expect("cloning a TCP stream");
    let request = format!("{{\"op\":\"watch\",\"every\":{}}}\n", args.every.max(1));
    if writer.write_all(request.as_bytes()).is_err() || writer.flush().is_err() {
        eprintln!("cannot send watch request to {addr}");
        return 1;
    }
    let reader = BufReader::new(stream);
    let mut seen: u64 = 0;
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(err) => {
                eprintln!("watch stream error: {err}");
                return 1;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let snap: TelemetrySnapshot = match serde_json::from_str(&line) {
            Ok(s) => s,
            Err(err) => {
                eprintln!("bad snapshot line: {err}");
                return 1;
            }
        };
        if args.check_budget && !within_budget(snap.allocated_w, snap.budget_w) {
            render(&snap, args.format, false);
            eprintln!(
                "budget violated at t={:.3}s: allocated {:.3} W > budget {:.3} W",
                snap.now_s, snap.allocated_w, snap.budget_w
            );
            return 1;
        }
        render(&snap, args.format, !args.once && args.format == Format::Table);
        seen += 1;
        if args.once || args.snapshots.is_some_and(|n| seen >= n) {
            return 0;
        }
    }
    // Server drained (shutdown closes the stream) — a clean end.
    0
}

fn main() {
    let mut args = Args {
        connect: None,
        replay: None,
        every: 1,
        snapshots: None,
        once: false,
        format: Format::Table,
        check_budget: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = Flags::new(&argv, usage);
    while let Some(flag) = flags.next() {
        match flag {
            "--connect" => args.connect = Some(flags.value("--connect")),
            "--replay" => args.replay = Some(flags.value("--replay")),
            "--every" => args.every = flags.value("--every"),
            "--snapshots" => args.snapshots = Some(flags.value("--snapshots")),
            "--once" => args.once = true,
            "--format" => match flags.value::<String>("--format").as_str() {
                "table" => args.format = Format::Table,
                "json" => args.format = Format::Json,
                _ => usage(),
            },
            "--check-budget" => args.check_budget = true,
            "--help" | "-h" => usage(),
            other => flags.unknown(other),
        }
    }
    if args.connect.is_some() == args.replay.is_some() {
        eprintln!("exactly one of --connect or --replay is required");
        usage()
    }
    let code = if args.replay.is_some() { run_replay(&args) } else { run_live(&args) };
    std::process::exit(code)
}
