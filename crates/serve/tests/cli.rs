//! The serve binaries end to end: real `arcs-serve` processes on
//! loopback, driven by the wire client, `arcs-serve-loadgen` and
//! `arcs-serve-top` as child processes.
//!
//! Every server binds `--port 0` and is found through its
//! `arcs-serve listening on …` line, so no test owns a port number and
//! the cells run in parallel.

use arcs_powersim::{Fleet, Machine};
use arcs_serve::protocol::Response;
use arcs_serve::server::Client;
use arcs_serve::{Broker, BrokerConfig, BrokerJournal, JobSpec, Request};
use arcs_trace::{to_jsonl, JobAllocation, NullSink, TraceEvent, TraceSink, VecSink};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};
use std::sync::Arc;
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
    let mut child = Command::new(SERVE)
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
    let out = run(LOADGEN, args);
    String::from_utf8(out.stdout).expect("UTF-8 loadgen output")
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("serve-cli-{test}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating the scratch directory");
    dir
}

const SERVE: &str = env!("CARGO_BIN_EXE_arcs-serve");
const LOADGEN: &str = env!("CARGO_BIN_EXE_arcs-serve-loadgen");
const TOP: &str = env!("CARGO_BIN_EXE_arcs-serve-top");

/// (binary, arguments, the usage line its stderr must carry). Per binary:
/// an unknown flag, a flag missing its value, a value that does not
/// parse; then each binary's own argument rules.
const USAGE_ERRORS: &[(&str, &[&str], &str)] = &[
    (SERVE, &["--nope"], "usage: arcs-serve ["),
    (SERVE, &["--port"], "usage: arcs-serve ["),
    (SERVE, &["--port", "http"], "usage: arcs-serve ["),
    // A power budget is a finite, positive number of watts.
    (SERVE, &["--budget", "nan"], "usage: arcs-serve ["),
    (SERVE, &["--budget", "-400"], "usage: arcs-serve ["),
    (LOADGEN, &["--nope"], "usage: arcs-serve-loadgen"),
    (LOADGEN, &["--seed"], "usage: arcs-serve-loadgen"),
    (LOADGEN, &["--budget", "lots"], "usage: arcs-serve-loadgen"),
    (LOADGEN, &["--budget", "inf"], "usage: arcs-serve-loadgen"),
    (LOADGEN, &["--budget", "0"], "usage: arcs-serve-loadgen"),
    (LOADGEN, &["--jobs", "0"], "usage: arcs-serve-loadgen"),
    (LOADGEN, &["verify"], "usage: arcs-serve-loadgen"),
    (TOP, &["--replay", "t.jsonl", "--nope"], "usage: arcs-serve-top"),
    (TOP, &["--replay"], "usage: arcs-serve-top"),
    (TOP, &["--replay", "t.jsonl", "--every", "often"], "usage: arcs-serve-top"),
    (TOP, &[], "usage: arcs-serve-top"),
    (TOP, &["--connect", "127.0.0.1:1", "--replay", "t.jsonl"], "usage: arcs-serve-top"),
    (TOP, &["--replay", "t.jsonl", "--format", "xml"], "usage: arcs-serve-top"),
];

/// Every malformed invocation exits 2 with its binary's usage on stderr,
/// writes nothing to stdout, and so never got as far as serving.
#[test]
fn malformed_invocations_exit_2_with_the_binarys_usage() {
    for &(exe, args, usage) in USAGE_ERRORS {
        let out = Command::new(exe).args(args).output().expect("spawning a serve CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?} — stderr:\n{stderr}");
        assert!(stderr.contains(usage), "{exe} {args:?} lacks `{usage}`:\n{stderr}");
        assert!(out.stdout.is_empty(), "{exe} {args:?} wrote to stdout");
    }
}

/// One conservation rule, two readers: `arcs-serve-top --replay
/// --check-budget` fails exactly the traces whose `report` broker section
/// counts an over-budget reallocation — including one over by less than
/// the 1e-6 W the dashboard used to forgive.
#[test]
fn top_and_report_agree_on_budget_conservation() {
    let dir = scratch("budget");
    for (name, peak_w, over) in [("within", 300.0, false), ("over", 300.0 + 5e-7, true)] {
        let sink = VecSink::new();
        let submitted = TraceEvent::JobSubmitted {
            job: 0,
            tenant: "acme".into(),
            workload: "sp.S".into(),
            floor_w: 57.5,
            weight: 1.0,
            timesteps: 4,
            fault_seed: None,
            requested_floor_w: None,
        };
        sink.record(Some(0.0), submitted);
        let (job, node, tenant) = (0, 0, "acme".to_string());
        sink.record(Some(0.0), TraceEvent::JobScheduled { job, tenant, node, cap_w: peak_w });
        let allocations = vec![JobAllocation { job, node, cap_w: peak_w }];
        let reason = "scheduled".into();
        let realloc =
            TraceEvent::CapReallocated { reason, budget_w: 300.0, total_w: peak_w, allocations };
        sink.record(Some(0.0), realloc);
        let path = dir.join(format!("{name}.jsonl"));
        std::fs::write(&path, to_jsonl(&sink.drain()).expect("serialises")).expect("write trace");

        let report = arcs_metrics::analyze_path(&path).expect("analysable trace");
        assert_eq!(report.broker.over_budget_events, u64::from(over), "{name}");
        assert_eq!(report.to_table().contains("1 OVER-BUDGET event(s)"), over, "{name}");
        let path = path.to_str().expect("UTF-8 temp path");
        let top = Command::new(TOP)
            .args(["--replay", path, "--once", "--check-budget"])
            .output()
            .expect("spawning arcs-serve-top");
        assert_eq!(top.status.success(), !over, "{name}: {}", String::from_utf8_lossy(&top.stderr));
    }
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
    let frame =
        run(TOP, &["--connect", &server.addr, "--once", "--format", "json", "--check-budget"]);
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

/// `--journal` truncates its file, so pointing it at the journal being
/// recovered — under any spelling of the path — is a usage error that
/// leaves the journal's bytes alone.
#[test]
fn recovering_into_the_journal_being_read_is_refused() {
    let dir = scratch("same-journal");
    let path = dir.join("broker.journal.jsonl");
    let fleet = Fleet::homogeneous(Machine::crill(), 2);
    let mut broker = Broker::new(fleet, BrokerConfig::new(300.0), Arc::new(NullSink));
    broker.attach_journal(BrokerJournal::create(&path).expect("creating the journal"));
    broker.submit(JobSpec::new("acme", "sp.S").timesteps(4));
    broker.run_until_idle();
    drop(broker);
    let before = std::fs::read(&path).expect("the journal");
    assert!(!before.is_empty());

    let journal = path.to_str().expect("UTF-8 temp path");
    let respelled = dir.join(".").join("broker.journal.jsonl");
    let respelled = respelled.to_str().expect("UTF-8 temp path");
    for (new, old) in [(journal, journal), (respelled, journal)] {
        let out = Command::new(SERVE)
            .args(["--port", "0", "--journal", new, "--recover", old])
            .output()
            .expect("spawning arcs-serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{new} / {old} — stderr:\n{stderr}");
        assert!(stderr.contains("name the same file"), "{stderr}");
        assert_eq!(std::fs::read(&path).expect("the journal"), before, "the journal was touched");
    }
}
