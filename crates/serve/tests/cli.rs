//! The serve binaries end to end: real `arcs-serve` processes on
//! loopback, driven by the wire client, `arcs-serve-loadgen` and
//! `arcs-serve-top` as child processes.
//!
//! Every server binds `--port 0` and is found through its
//! `arcs-serve listening on …` line, so no test owns a port number and
//! the three cells run in parallel.

use arcs_serve::protocol::Response;
use arcs_serve::server::Client;
use arcs_serve::{JobSpec, Request};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::time::Duration;

/// A running `arcs-serve`. Dropping it kills the process, so a failing
/// assertion cannot leave a server behind.
struct Served {
    child: Child,
    addr: String,
    /// Held open: the server prints again on its way out, and a closed
    /// pipe would turn that `println!` into a panic.
    _stdout: BufReader<ChildStdout>,
}

fn serve(args: &[&str]) -> Served {
    let mut child = Command::new(env!("CARGO_BIN_EXE_arcs-serve"))
        .args(["--port", "0"])
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawning arcs-serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    let addr = loop {
        line.clear();
        let n = stdout.read_line(&mut line).expect("reading arcs-serve's stdout");
        assert!(n > 0, "arcs-serve {args:?} exited before listening");
        if let Some(addr) = line.trim_end().strip_prefix("arcs-serve listening on ") {
            break addr.to_string();
        }
    };
    Served { child, addr, _stdout: stdout }
}

impl Served {
    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connecting to arcs-serve")
    }

    /// Wait for the server to exit on its own (after a `shutdown` op).
    fn wait(mut self) {
        let status = self.child.wait().expect("waiting for arcs-serve");
        assert!(status.success(), "arcs-serve exited {status}");
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn ask(client: &mut Client, req: &Request) -> Response {
    let resp = client.roundtrip(req).expect("NDJSON round trip");
    assert!(resp.ok, "{:?} failed: {:?}", req.op, resp.error);
    resp
}

fn run(exe: &str, args: &[&str]) -> Output {
    let out = Command::new(exe).args(args).output().expect("spawning a serve CLI");
    assert!(out.status.success(), "{exe} {args:?}:\n{}", String::from_utf8_lossy(&out.stderr));
    out
}

fn loadgen(args: &[&str]) -> String {
    let out = run(env!("CARGO_BIN_EXE_arcs-serve-loadgen"), args);
    String::from_utf8(out.stdout).expect("UTF-8 loadgen output")
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("serve-cli-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the scratch directory");
    dir
}

const FLEET: [&str; 6] = ["--nodes", "2", "--machine", "crill", "--budget", "300"];

/// Broker smoke: 3 jobs from 2 tenants at a fixed seed, drained by the
/// load generator's shutdown; the trace must show every admitted job
/// completed and Σ allocated caps ≤ budget at every reallocation point
/// (`verify` exits nonzero otherwise).
#[test]
fn loadgen_over_the_wire_completes_every_job_within_budget() {
    let trace = scratch("smoke").join("broker.trace.jsonl");
    let trace = trace.to_str().expect("UTF-8 temp path");
    let server = serve(&[&FLEET[..], &["--trace", trace]].concat());
    // The seeded stream without its planted rejections and per-job faults.
    let stream = ["--jobs", "3", "--tenants", "2", "--seed", "11"];
    let clean = ["--reject-every", "0", "--fault-every", "0"];
    loadgen(&[&["--connect", &server.addr], &stream[..], &clean[..]].concat());
    server.wait();
    let verdict = loadgen(&["verify", trace]);
    assert!(verdict.contains("3 submitted, 3 scheduled, 3 completed, 0 rejected"), "{verdict}");
    assert!(verdict.contains("budget conserved"), "{verdict}");
}

/// Telemetry plane: after 3 jobs from 2 tenants, `stats` must answer
/// with a snapshot whose queue-wait histogram saw every placement,
/// `metrics` must scrape as Prometheus text, and `arcs-serve-top --once
/// --check-budget` must confirm Σ allocated watts ≤ budget from a live
/// `watch` frame.
#[test]
fn stats_metrics_and_top_agree_on_a_live_server() {
    let trace = scratch("telemetry").join("telemetry.trace.jsonl");
    let server = serve(&[&FLEET[..], &["--trace", trace.to_str().expect("UTF-8")]].concat());
    let mut client = server.client();
    for spec in [
        JobSpec::new("acme", "sp.S").timesteps(4).weight(2.0),
        JobSpec::new("umbrella", "cg.S").timesteps(4),
        JobSpec::new("acme", "ep.S").timesteps(4),
    ] {
        ask(&mut client, &Request::submit(&spec));
    }
    // The broker steps on its own thread: poll until the jobs are done.
    let mut stats = ask(&mut client, &Request::op_only("stats"));
    for _ in 0..200 {
        if stats.stats.as_ref().is_some_and(|s| s.completed == 3) {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
        stats = ask(&mut client, &Request::op_only("stats"));
    }
    assert_eq!(stats.stats.expect("stats body").completed, 3, "jobs did not finish in 10 s");
    assert_eq!(stats.telemetry.expect("telemetry snapshot").queue_wait.count, 3);

    let metrics = ask(&mut client, &Request::op_only("metrics")).metrics.expect("metrics body");
    assert!(metrics.contains("serve_queue_wait_s_bucket"), "{metrics}");

    // One live frame over `watch`; --check-budget exits nonzero if it
    // allocates more than the budget.
    let frame = run(
        env!("CARGO_BIN_EXE_arcs-serve-top"),
        &["--connect", &server.addr, "--once", "--format", "json", "--check-budget"],
    );
    let frame = String::from_utf8(frame.stdout).expect("UTF-8 frame");
    assert!(frame.contains("\"budget_w\":300"), "{frame}");

    ask(&mut client, &Request::op_only("shutdown"));
    server.wait();
}

/// Crash recovery over the wire: a journaled server under node faults is
/// killed mid-run (no draining shutdown) and restarted with `--recover`;
/// the recovered server must answer `stats` with the pre-kill submission
/// count and carry the `CheckpointRecovered` lineage marker in its new
/// journal.
#[test]
fn a_killed_server_recovers_its_counters_from_the_journal() {
    let dir = scratch("recovery");
    let (journal, journal2) = (dir.join("broker.journal.jsonl"), dir.join("broker.journal2.jsonl"));
    let (journal, journal2) = (journal.to_str().expect("UTF-8"), journal2.to_str().expect("UTF-8"));

    let mut server =
        serve(&[&FLEET[..], &["--node-faults", "node-flap:7", "--journal", journal]].concat());
    let mut client = server.client();
    ask(&mut client, &Request::submit(&JobSpec::new("acme", "sp.S").timesteps(6)));
    ask(&mut client, &Request::submit(&JobSpec::new("umbrella", "cg.S").timesteps(6)));
    let before = ask(&mut client, &Request::op_only("stats")).stats.expect("stats body");
    assert_eq!(before.submitted, 2);
    server.child.kill().expect("SIGKILL");
    drop((client, server));

    let server = serve(&["--recover", journal, "--journal", journal2]);
    let mut client = server.client();
    let after = ask(&mut client, &Request::op_only("stats")).stats.expect("stats body");
    assert_eq!(after.submitted, before.submitted, "submissions acknowledged before the kill");
    ask(&mut client, &Request::op_only("shutdown"));
    server.wait();
    let lineage = std::fs::read_to_string(journal2).expect("the new journal");
    assert!(lineage.contains("CheckpointRecovered"), "{lineage}");
}
