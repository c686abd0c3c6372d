//! `arcs-perf` — the repo's benchmark: six workloads over the sweep stack
//! and the broker service, measured end to end (`--trace 0`) and layer by
//! layer (`--trace 1`) from outside, through public functions and the two
//! public traits (`Backend`, `TraceSink`). See `benchmarks/README.md`.
//!
//! ```text
//! arcs-perf run --workload W --seed S --seconds N --trace 0|1
//!               [--out DIR] [--expected DIR] [--git-rev REV] [--rustc VER]
//!               [--write-expected]
//! arcs-perf budget --md [--seed S]
//! arcs-perf manifest          # BENCHMARK.json, from the metric catalogue
//! arcs-perf list
//! ```

mod bench;
mod catalog;
mod host;
mod inputs;
mod probes;
mod serve;
mod spans;
mod stats;
mod sweep;

use bench::{Rep, Samples, Workload};
use catalog::{quoted, Metric, END_TO_END, PER_LAYER, WORKLOADS};
use spans::SpanLog;
use stats::{highest_supported_percentile, sorted, tail_percentile, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up passes per untraced run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;
/// A run never reports on fewer timed repetitions than this.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    expected: PathBuf,
    git_rev: String,
    rustc: String,
    write_expected: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: arcs-perf run --workload W --seed S --seconds N --trace 0|1\n\
         \x20                   [--out DIR] [--expected DIR] [--git-rev REV] [--rustc VER]\n\
         \x20                   [--write-expected]\n\
         \x20      arcs-perf budget --md [--seed S]\n\
         \x20      arcs-perf manifest | list\n\
         workloads: {}",
        WORKLOADS.map(|w| w.0).join(" ")
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("benchmarks/out"),
        expected: PathBuf::from("benchmarks/expected"),
        git_rev: "unknown".into(),
        rustc: "unknown".into(),
        write_expected: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => args.out = PathBuf::from(value()),
            "--expected" => args.expected = PathBuf::from(value()),
            "--git-rev" => args.git_rev = value(),
            "--rustc" => args.rustc = value(),
            "--write-expected" => args.write_expected = true,
            "--md" => {}
            _ => usage(),
        }
    }
    args
}

fn setup(workload: &str, seed: u64, scratch: &Path) -> Box<dyn Workload> {
    match workload {
        "sweep-regular" => Box::new(sweep::Sweep::setup(sweep::Kind::Regular, seed)),
        "sweep-irregular" => Box::new(sweep::Sweep::setup(sweep::Kind::Irregular, seed)),
        "sweep-warm" => Box::new(sweep::Sweep::setup(sweep::Kind::Warm, seed)),
        "serve-inproc" => Box::new(serve::Serve::setup(serve::Kind::Inproc, seed, scratch)),
        "serve-durable" => Box::new(serve::Serve::setup(serve::Kind::Durable, seed, scratch)),
        "serve-wire" => Box::new(serve::Serve::setup(serve::Kind::Wire, seed, scratch)),
        _ => usage(),
    }
}

/// Everything a run learns, folded as repetitions come in.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    digests: Vec<u64>,
    samples: Samples,
}

impl Tally {
    fn take(&mut self, mut rep: Rep) -> Rep {
        self.attempted += rep.attempted;
        self.failures.append(&mut rep.failures);
        self.digests.push(rep.digest);
        rep
    }

    /// A timed repetition: its wall-clock and simulated values count.
    fn timed(&mut self, rep: Rep, traced: bool) {
        let rep = self.take(rep);
        if traced {
            self.samples.push("traced.wall_s", rep.wall_s);
            self.samples.push("traced.main_s", rep.main_s);
        } else {
            self.samples.push("items_per_s", rep.items as f64 / rep.main_s);
            self.samples.push("rep_wall_s", rep.wall_s);
        }
        self.samples.extend(&rep.values);
    }

    /// Same seed, same simulated outputs — on every repetition, traced or
    /// not; and for seed 42, the outputs pinned in `expected/`.
    fn check_digests(&mut self, args: &Args) {
        let Some(&first) = self.digests.first() else { return };
        if let Some(other) = self.digests.iter().find(|&&d| d != first) {
            self.failures.push(format!(
                "simulated outputs differ between repetitions: {first:016x} vs {other:016x}"
            ));
            return;
        }
        let path = args.expected.join(format!("{}.digest", args.workload));
        if args.write_expected {
            std::fs::create_dir_all(&args.expected).expect("creating expected/");
            std::fs::write(&path, format!("{first:016x}\n")).expect("writing the digest");
        } else if args.seed == catalog::PINNED_SEED {
            match std::fs::read_to_string(&path) {
                Ok(text) if text.trim() == format!("{first:016x}") => {}
                Ok(text) => self.failures.push(format!(
                    "simulated outputs for seed {} are {first:016x}, expected {}",
                    args.seed,
                    text.trim()
                )),
                Err(e) => self.failures.push(format!("cannot read {}: {e}", path.display())),
            }
        }
    }
}

/// `--trace 0`: set up several times, then repeat for `--seconds`.
fn run_untraced(args: &Args, scratch: &Path, tally: &mut Tally) {
    let mut workload = None;
    for _ in 0..SETUP_PASSES {
        let t = Instant::now();
        let mut w = setup(&args.workload, args.seed, scratch);
        // One untimed repetition, so lazy set-up and the allocator settle.
        let warm_up = w.rep(None);
        tally.samples.push("setup_s", t.elapsed().as_secs_f64());
        tally.take(warm_up);
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up pass");
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        tally.timed(workload.rep(None), false);
        reps += 1;
    }
    tally.samples.push("peak_rss_mb", host::peak_rss_mb());
}

/// `--trace 1`: alternate untraced and traced repetitions for
/// `--seconds`, then the probes; spans go to `out/spans-<workload>.jsonl`.
fn run_traced(args: &Args, scratch: &Path, tally: &mut Tally) {
    let mut workload = setup(&args.workload, args.seed, scratch);
    let warm_up = workload.rep(None);
    tally.take(warm_up);
    let mut log = SpanLog::new();
    let start = Instant::now();
    let mut pairs = 0;
    while pairs < 2 || start.elapsed().as_secs_f64() < args.seconds {
        tally.timed(workload.rep(None), false);
        tally.timed(workload.rep(Some(&mut log)), true);
        pairs += 1;
    }
    workload.probes(&mut tally.samples);
    let traced_main_s: f64 = tally.samples.get("traced.main_s").map_or(0.0, |v| v.iter().sum());
    span_metrics(&log, pairs, traced_main_s, &mut tally.samples);
    let median = |name: &str| tally.samples.get(name).map(|v| Summary::of(v).median);
    if let (Some(traced), Some(plain)) = (median("traced.wall_s"), median("rep_wall_s")) {
        tally.samples.push("harness.trace_overhead_share", (traced - plain) / plain);
    }
    let path = args.out.join(format!("spans-{}.jsonl", args.workload));
    if let Err(e) = log.write_jsonl(&path) {
        tally.failures.push(format!("cannot write {}: {e}", path.display()));
    }
}

/// Per-layer metrics read off the span log: busy and self time per layer,
/// latencies of the calls that are spans of their own, and the check that
/// the layers add up to the end-to-end time.
fn span_metrics(log: &SpanLog, traced_reps: usize, traced_main_s: f64, out: &mut Samples) {
    let layers = log.layer_times();
    let reps = traced_reps as f64;
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let per_rep_s = |ns: u64| ns as f64 / 1e9 / reps;
    let latency = |name: &str,
                   out: &mut Samples,
                   p50: &'static str,
                   tail: Option<[&'static str; 2]>| {
        let us = sorted(&log.durations(name).iter().map(|ns| ns / 1e3).collect::<Vec<_>>());
        if us.is_empty() {
            return;
        }
        out.push(p50, Summary::of(&us).median);
        if let Some([tail, tail_pct]) = tail {
            // The highest percentile with ten samples beyond it, and
            // which one that was.
            let pct = highest_supported_percentile(us.len());
            out.push(tail, tail_percentile(&us, pct).unwrap_or_else(|| Summary::of(&us).median));
            out.push(tail_pct, pct);
        }
    };

    let (cell, runner, backend) =
        (layer("sweep.cell"), layer("core.runner.run"), layer("powersim.backend"));
    if cell.spans > 0 {
        out.push("powersim.backend.busy_s", per_rep_s(backend.total_ns));
        out.push("powersim.backend.calls", backend.calls as f64 / reps);
        out.push("core.runner.self_s", per_rep_s(runner.self_ns));
        out.push("core.runner.invocations", backend.calls as f64 / reps);
        out.push(
            "core.sweep.layer_sum_ratio",
            (runner.self_ns + backend.total_ns) as f64 / cell.total_ns as f64,
        );
        latency(
            "sweep.cell",
            out,
            "core.sweep.cell_us.p50",
            Some(["core.sweep.cell_us.tail", "core.sweep.cell_us.tail_pct"]),
        );
    }

    let (submit, step, sink) =
        (layer("serve.broker.submit"), layer("serve.broker.step"), layer("trace.sink"));
    if step.spans > 0 {
        latency("serve.broker.submit", out, "serve.broker.submit_us.p50", None);
        latency(
            "serve.broker.step",
            out,
            "serve.broker.step_us.p50",
            Some(["serve.broker.step_us.tail", "serve.broker.step_us.tail_pct"]),
        );
        out.push("trace.sink.busy_s", per_rep_s(sink.total_ns));
        out.push(
            "serve.job.layer_sum_ratio",
            (submit.total_ns + step.total_ns) as f64 / 1e9 / traced_main_s,
        );
    }
}

fn finite(name: &str, v: f64, failures: &mut Vec<String>) -> f64 {
    if v.is_finite() {
        v
    } else {
        failures.push(format!("metric {name} is not a finite number"));
        0.0
    }
}

/// A directory of this process's own under `out/`, for trace and journal
/// files; removed when the run ends.
fn scratch_dir(args: &Args) -> Option<PathBuf> {
    let scratch = args.out.join(format!("scratch-{}", std::process::id()));
    match std::fs::create_dir_all(&scratch) {
        Ok(()) => Some(scratch),
        Err(e) => {
            eprintln!("arcs-perf: cannot create {}: {e}", scratch.display());
            None
        }
    }
}

fn run(args: &Args) -> i32 {
    if !WORKLOADS.iter().any(|w| w.0 == args.workload) {
        usage();
    }
    let Some(scratch) = scratch_dir(args) else { return 1 };
    let cpu0 = host::CpuTimes::now();
    let mut tally = Tally::default();
    if args.trace {
        run_traced(args, &scratch, &mut tally);
    } else {
        run_untraced(args, &scratch, &mut tally);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    tally.check_digests(args);
    let steal = host::CpuTimes::now().steal_share_since(&cpu0);
    if args.trace {
        tally.samples.push("harness.steal_share", steal);
    }

    // One line per metric: workload metric value unit n q1 q3.
    let listed: &[Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut summaries: BTreeMap<&str, Summary> = BTreeMap::new();
    for (name, values) in tally.samples.iter() {
        summaries.insert(name, Summary::of(values));
    }
    let mut contract = Vec::new();
    let mut full = Vec::new();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let reported = listed.iter().any(|l| l.name == m.name);
        let Some(s) = summaries.get(m.name).copied().or(reported.then(|| Summary::exact(0.0)))
        else {
            continue;
        };
        let value = finite(m.name, s.median, &mut tally.failures);
        println!("{} {} {} {} {} {} {}", args.workload, m.name, value, m.unit, s.n, s.q1, s.q3);
        let entry = format!("{}:{{\"value\":{value},\"unit\":{}}}", quoted(m.name), quoted(m.unit));
        if reported {
            contract.push(entry);
        }
        full.push(format!(
            "{}:{{\"value\":{value},\"unit\":{},\"n\":{},\"q1\":{},\"q3\":{}}}",
            quoted(m.name),
            quoted(m.unit),
            s.n,
            finite(m.name, s.q1, &mut tally.failures),
            finite(m.name, s.q3, &mut tally.failures),
        ));
    }

    for f in tally.failures.iter().take(20) {
        eprintln!("arcs-perf: FAIL {}: {f}", args.workload);
    }
    let failed = tally.failures.len() as u64;
    let attempted = tally.attempted.max(failed).max(1);
    let verdict =
        format!("\"correct\":{},\"attempted\":{attempted},\"failed\":{failed}", failed == 0);
    let failures: Vec<String> = tally.failures.iter().take(20).map(|f| quoted(f)).collect();
    let result = format!(
        "{{\"workload\":{},\"trace\":{},\"seed\":{},\"seconds\":{},\"git_rev\":{},\
         \"host\":{{\"nproc\":{},\"cpu_model\":{},\"steal_share\":{},\"rustc\":{}}},\
         \"digest\":\"{:016x}\",{verdict},\"failures\":[{}],\"metrics\":{{{}}}}}\n",
        quoted(&args.workload),
        args.trace as u8,
        args.seed,
        args.seconds,
        quoted(&args.git_rev),
        host::nproc(),
        quoted(&host::cpu_model()),
        steal,
        quoted(&args.rustc),
        tally.digests.first().copied().unwrap_or(0),
        failures.join(","),
        full.join(","),
    );
    let path = args.out.join(format!("result-{}-trace{}.json", args.workload, args.trace as u8));
    if let Err(e) = std::fs::write(&path, result) {
        eprintln!("arcs-perf: cannot write {}: {e}", path.display());
        return 1;
    }
    // The contract's last line.
    println!("{{{verdict},\"metrics\":{{{}}}}}", contract.join(","));
    (failed != 0) as i32
}

/// `budget --md`: where the time of one sweep cell and of one served job
/// goes — self time per layer, per unit of work — as a Markdown table
/// (for the README, and for DESIGN.md later).
fn budget(args: &Args) -> i32 {
    let Some(scratch) = scratch_dir(args) else { return 1 };
    println!("| workload | unit | layer (span) | self time per unit | share |");
    println!("|---|---|---|---|---|");
    for (workload, unit) in [
        ("sweep-regular", "cell"),
        ("sweep-irregular", "cell"),
        ("sweep-warm", "cell"),
        ("serve-inproc", "job"),
        ("serve-durable", "job"),
    ] {
        let mut w = setup(workload, args.seed, &scratch);
        w.rep(None);
        let mut log = SpanLog::new();
        let mut units = 0u64;
        for _ in 0..2 {
            units += w.rep(Some(&mut log)).attempted;
        }
        let layers = log.layer_times();
        let total: u64 = layers.values().map(|l| l.self_ns).sum();
        for (name, l) in &layers {
            println!(
                "| {workload} | {unit} | `{name}` | {:.2} µs | {:.1} % |",
                l.self_ns as f64 / 1e3 / units as f64,
                100.0 * l.self_ns as f64 / total as f64
            );
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    0
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("run") => run(&parse_args(&argv[1..])),
        Some("budget") => budget(&parse_args(&argv[1..])),
        Some("manifest") => {
            print!("{}", catalog::manifest());
            0
        }
        Some("list") => {
            for (name, why) in WORKLOADS {
                println!("{name}\t{why}");
            }
            println!(
                "seeds\t{} (simulated outputs pinned in expected/), {} (hold-out)",
                catalog::PINNED_SEED,
                catalog::HOLDOUT_SEED
            );
            0
        }
        _ => usage(),
    };
    std::process::exit(code)
}
