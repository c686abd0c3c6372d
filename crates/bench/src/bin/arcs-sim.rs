//! `arcs-sim` — command-line driver for the simulated experiments.
//!
//! ```text
//! arcs-sim <app> [options]
//!   <app>                bt | sp | lulesh | mc
//!   --class S|W|A|B|C    NPB class (bt/sp/mc; default B)
//!   --mesh N             LULESH edge elements (default 45)
//!   --machine crill|minotaur   (default crill)
//!   --machine-file PATH  load a custom machine JSON (see Machine::to_json)
//!   --cap WATTS          package power cap (default TDP)
//!   --strategy default|online|offline|offline-pro   (default offline)
//!   --timesteps N        override the workload's step count
//!   --selective SECONDS  enable selective tuning with this threshold
//!   --save-history PATH  write the trained history file (offline only)
//!   --load-history PATH  replay a previously saved history
//!   --json               emit the full AppRunReport as JSON
//!
//! arcs-sim trace [options]      structured event trace of one run
//!   --workload APP[.CLASS]      bt | sp | lulesh | mc, class suffix (default sp.B)
//!   --cap WATTS                 package power cap (default TDP)
//!   --strategy nelder-mead|pro|exhaustive|default   (default nelder-mead)
//!   --objective time|energy|edp score the run by this objective (default time)
//!   --timesteps N               override the workload's step count
//!   --machine crill|minotaur    (default crill)
//!   --out PATH                  write JSONL here (default: stdout)
//!   --chrome PATH               also export a Chrome trace (chrome://tracing)
//!   --check                     re-validate the emitted JSONL against the schema
//!   --self-profile              emit a DriverPhases span summary into the
//!                               trace so `report` prints a self-profile
//!
//! arcs-sim schedule [options]   scheduling-policy portfolio bake-off
//!   --workload APP[.CLASS]      bt | sp | lulesh | mc (default mc.B)
//!   --machine crill|minotaur    (default crill)
//!   --cap WATTS                 package power cap (default TDP)
//!   --threads N                 thread count for the fixed-policy runs
//!                               (default: all hardware threads)
//!   --timesteps N               override the workload's step count
//!   --out PATH                  write the adaptive run's trace JSONL here
//!   --json                      emit the bake-off artifact as JSON
//!   --check                     exit nonzero unless the adaptive run
//!                               switched at least once, landed within 10%
//!                               of the best fixed policy, and beat the
//!                               worst fixed policy by ≥10%
//!
//! arcs-sim chaos [options]      run a workload under a named fault plan
//!   --workload APP[.CLASS]      bt | sp | lulesh | mc (default lulesh)
//!   --machine crill|minotaur    (default crill)
//!   --cap WATTS                 package power cap (default TDP)
//!   --plan NAME                 flaky-rapl | rapl-outage | cap-storm
//!   --seed N                    fault-plan seed (default 0)
//!   --timesteps N               override the workload's step count
//!   --budget N|none             hard-fault error budget (default 16;
//!                               `none` makes hard faults run errors)
//!   --out PATH                  write the run's trace JSONL here
//!   --check                     exit nonzero unless the run completed
//!                               (ok or degraded) with ≥1 injected fault
//!
//! arcs-sim report <trace.jsonl> [options]     analyse a recorded trace
//!   --format table|json|md      output format (default table)
//!   --objective time|energy|edp rank regions by this objective (default: the
//!                               objective recorded in the trace)
//!   --out PATH                  write the report here (default: stdout)
//!
//! arcs-sim compare <baseline.json> <candidate.json> [options]
//!   --fail-on PCT               exit nonzero if any region (or the total)
//!                               regresses by strictly more than PCT percent
//!   --fail-on-throughput PCT    also fail if candidate cells/s falls more
//!                               than PCT percent below baseline (off by
//!                               default — wall clock is noisy)
//!   --objective time|energy|edp compare by this objective (default time), so
//!                               the gate can fail on energy/EDP regressions
//!   --out PATH                  write the comparison artifact (JSON) here
//!
//! arcs-sim bench [options]      hot-path throughput benchmark (fig. 4 sweep)
//!   --runs N                    repetitions; keeps the fastest (default 2)
//!   --machine crill|minotaur    (default crill)
//!   --out PATH                  write a TraceReport artifact (JSON) usable
//!                               as a compare baseline/candidate
//!   --append PATH               append {date, cells_per_sec, git_rev, label}
//!                               to a JSON trajectory file (BENCH_hotpath.json);
//!                               exact duplicates are refused. git_rev comes
//!                               from the GIT_REV env var (`unknown` if unset)
//!   --label TEXT                free-form provenance label for --append
//!   --json                      print the artifact to stdout
//! ```
//!
//! Examples:
//! ```sh
//! cargo run --release -p arcs-bench --bin arcs-sim -- sp --class B --cap 85
//! cargo run --release -p arcs-bench --bin arcs-sim -- lulesh --mesh 45 \
//!     --strategy online --selective 0.03 --json
//! cargo run --release -p arcs-bench --bin arcs-sim -- trace \
//!     --workload sp.B --cap 80 --strategy nelder-mead --out sp.trace.jsonl
//! ```

use arcs::{
    runs, ConfigSpace, Objective, OmpConfig, RegionTuner, ResilienceOptions, RunStatus, Runner,
    SimExecutor, TunerOptions, TuningMode,
};
use arcs_bench::SweepSpec;
use arcs_harmony::{History, NmOptions, ProOptions};
use arcs_kernels::{model, Class};
use arcs_powersim::{FaultPlan, Machine, WorkloadDescriptor};
use arcs_trace::{chrome_trace, to_jsonl, validate_jsonl, TraceEvent, TraceSink, VecSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

struct Args {
    app: String,
    class: Class,
    mesh: usize,
    machine: Machine,
    cap: Option<f64>,
    strategy: String,
    timesteps: Option<usize>,
    selective: Option<f64>,
    save_history: Option<PathBuf>,
    load_history: Option<PathBuf>,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: arcs-sim <bt|sp|lulesh|mc> [--class S|W|A|B|C] [--mesh N] \
         [--machine crill|minotaur] [--machine-file PATH] [--cap WATTS] \
         [--strategy default|online|offline|offline-pro] [--timesteps N] \
         [--selective SECONDS] [--save-history PATH] [--load-history PATH] [--json]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut argv = std::env::args().skip(1);
    let Some(app) = argv.next() else { usage() };
    if !["bt", "sp", "lulesh", "mc"].contains(&app.as_str()) {
        usage();
    }
    let mut args = Args {
        app,
        class: Class::B,
        mesh: 45,
        machine: Machine::crill(),
        cap: None,
        strategy: "offline".into(),
        timesteps: None,
        selective: None,
        save_history: None,
        load_history: None,
        json: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| -> String {
            argv.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match flag.as_str() {
            "--class" => {
                args.class = value("--class").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--mesh" => args.mesh = value("--mesh").parse().unwrap_or_else(|_| usage()),
            "--machine" => args.machine = machine_arg(&value("--machine"), usage),
            "--machine-file" => {
                let path = value("--machine-file");
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    exit(1)
                });
                args.machine = Machine::from_json(&text).unwrap_or_else(|e| {
                    eprintln!("invalid machine file {path}: {e}");
                    exit(1)
                });
            }
            "--cap" => args.cap = Some(value("--cap").parse().unwrap_or_else(|_| usage())),
            "--strategy" => args.strategy = value("--strategy"),
            "--timesteps" => {
                args.timesteps = Some(value("--timesteps").parse().unwrap_or_else(|_| usage()))
            }
            "--selective" => {
                args.selective = Some(value("--selective").parse().unwrap_or_else(|_| usage()))
            }
            "--save-history" => args.save_history = Some(value("--save-history").into()),
            "--load-history" => args.load_history = Some(value("--load-history").into()),
            "--json" => args.json = true,
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

fn workload(args: &Args) -> WorkloadDescriptor {
    let mut wl = match args.app.as_str() {
        "bt" => model::bt(args.class),
        "sp" => model::sp(args.class),
        "mc" => model::mc(args.class),
        _ => model::lulesh(args.mesh),
    };
    if let Some(t) = args.timesteps {
        wl.timesteps = t;
    }
    wl
}

/// Resolve an `APP[.CLASS]` workload spec (class defaults to B) for the
/// `trace`, `chaos` and `schedule` subcommands, or print why not and
/// leave through `usage`.
fn workload_arg(spec: &str, usage: fn() -> !) -> WorkloadDescriptor {
    let full = if spec.contains('.') { spec.to_string() } else { format!("{spec}.B") };
    model::by_spec(&full).unwrap_or_else(|| {
        eprintln!("unknown workload {spec}");
        usage()
    })
}

/// The built-in machine model a `--machine` flag names, or leave
/// through `usage`.
fn machine_arg(name: &str, usage: fn() -> !) -> Machine {
    Machine::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown machine {name}");
        usage()
    })
}

fn trace_usage() -> ! {
    eprintln!(
        "usage: arcs-sim trace [--workload APP[.CLASS]] [--machine crill|minotaur] \
         [--cap WATTS] [--strategy nelder-mead|pro|exhaustive|default] \
         [--objective time|energy|edp] [--timesteps N] \
         [--out PATH] [--chrome PATH] [--check] [--self-profile]"
    );
    exit(2)
}

/// `arcs-sim trace`: run one (workload, cap, strategy) cell with a
/// [`VecSink`] attached and emit the collected records as JSONL.
fn trace_main(argv: &[String]) {
    let mut workload_spec = "sp.B".to_string();
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut strategy = "nelder-mead".to_string();
    let mut objective = Objective::Time;
    let mut timesteps: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut chrome: Option<PathBuf> = None;
    let mut check = false;
    let mut self_profile = false;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                trace_usage()
            })
        };
        match flag.as_str() {
            "--workload" => workload_spec = value("--workload"),
            "--machine" => machine = machine_arg(&value("--machine"), trace_usage),
            "--cap" => cap = Some(value("--cap").parse().unwrap_or_else(|_| trace_usage())),
            "--strategy" => strategy = value("--strategy"),
            "--objective" => {
                objective = value("--objective").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    trace_usage()
                })
            }
            "--timesteps" => {
                timesteps = Some(value("--timesteps").parse().unwrap_or_else(|_| trace_usage()))
            }
            "--out" => out = Some(value("--out").into()),
            "--chrome" => chrome = Some(value("--chrome").into()),
            "--check" => check = true,
            "--self-profile" => self_profile = true,
            other => {
                eprintln!("unknown flag {other}");
                trace_usage()
            }
        }
    }

    let mut wl = workload_arg(&workload_spec, trace_usage);
    if let Some(t) = timesteps {
        wl.timesteps = t;
    }

    let cap = cap.unwrap_or(machine.power.tdp_w);
    let space = ConfigSpace::for_machine(&machine);
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(machine.clone(), cap).with_trace(sink.clone());
    let run = match strategy.as_str() {
        "default" => Runner::new(&mut exec)
            .workload(&wl)
            .objective(objective)
            .self_profile(self_profile)
            .run(),
        "nelder-mead" | "pro" => {
            let mode = if strategy == "nelder-mead" {
                TuningMode::Online(NmOptions::default())
            } else {
                TuningMode::OnlinePro(ProOptions::default())
            };
            let mut tuner =
                RegionTuner::new(TunerOptions::new(space, mode).with_objective(objective));
            Runner::new(&mut exec)
                .workload(&wl)
                .tuner(&mut tuner)
                .label(format!("arcs-{strategy}"))
                .self_profile(self_profile)
                .run()
        }
        "exhaustive" => {
            let mut tuner =
                RegionTuner::new(TunerOptions::offline_train(space).with_objective(objective));
            Runner::new(&mut exec)
                .workload(&wl)
                .tuner(&mut tuner)
                .label("arcs-exhaustive")
                .self_profile(self_profile)
                .run()
        }
        other => {
            eprintln!("unknown strategy {other}");
            trace_usage()
        }
    };
    let report = run.unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        exit(1)
    });

    // End-of-run memo-cache snapshot, so `arcs-sim report` can render
    // occupancy and interner size alongside the streamed hit/miss events.
    let stats = exec.shared_cache().stats();
    sink.record(
        None,
        TraceEvent::CacheStats {
            hits: stats.hits,
            misses: stats.misses,
            entries: stats.entries as u64,
            shard_occupancy: stats.shard_occupancy.iter().map(|&c| c as u64).collect(),
            interner_size: stats.interner_size as u64,
        },
    );

    let records = sink.drain();
    let jsonl = to_jsonl(&records).unwrap_or_else(|e| {
        eprintln!("cannot serialise trace: {e}");
        exit(1)
    });

    if check {
        match validate_jsonl(&jsonl) {
            Ok(parsed) => eprintln!(
                "trace OK: {} records validate against schema v{}",
                parsed.len(),
                arcs_trace::SCHEMA_VERSION
            ),
            Err(e) => {
                eprintln!("trace INVALID: {e}");
                exit(1)
            }
        }
    }

    if let Some(path) = &chrome {
        let json = chrome_trace(&records).unwrap_or_else(|e| {
            eprintln!("cannot export chrome trace: {e}");
            exit(1)
        });
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {path:?}: {e}");
            exit(1)
        }
        eprintln!("chrome trace written to {path:?}");
    }

    match &out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &jsonl) {
                eprintln!("cannot write {path:?}: {e}");
                exit(1)
            }
            eprintln!(
                "{} trace records written to {:?} ({}: {:.2}s, {:.0}J)",
                records.len(),
                path,
                report.strategy,
                report.time_s,
                report.energy_j
            );
        }
        None => print!("{jsonl}"),
    }
}

fn schedule_usage() -> ! {
    eprintln!(
        "usage: arcs-sim schedule [--workload APP[.CLASS]] [--machine crill|minotaur] \
         [--cap WATTS] [--threads N] [--timesteps N] [--out PATH] [--json] [--check]"
    );
    exit(2)
}

/// `arcs-sim schedule`: the scheduling-policy portfolio bake-off. Runs
/// the workload once per fixed policy in [`arcs_omprt::ScheduleKind::ALL`]
/// (Table-I order, default chunk), then once from the default configuration
/// with [`arcs::Runner::adaptive_schedule`] switching mid-run, and prints one row
/// per run plus every ladder decision. The adaptive trace (`--out`) is
/// deterministic, so CI byte-compares two same-spec runs; `--check`
/// gates the adaptive result against the fixed portfolio.
fn schedule_main(argv: &[String]) {
    use arcs_omprt::{Schedule, ScheduleKind};

    let mut workload_spec = "mc.B".to_string();
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut threads: Option<usize> = None;
    let mut timesteps: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut json = false;
    let mut check = false;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                schedule_usage()
            })
        };
        match flag.as_str() {
            "--workload" => workload_spec = value("--workload"),
            "--machine" => machine = machine_arg(&value("--machine"), schedule_usage),
            "--cap" => cap = Some(value("--cap").parse().unwrap_or_else(|_| schedule_usage())),
            "--threads" => {
                threads = Some(value("--threads").parse().unwrap_or_else(|_| schedule_usage()))
            }
            "--timesteps" => {
                timesteps = Some(value("--timesteps").parse().unwrap_or_else(|_| schedule_usage()))
            }
            "--out" => out = Some(value("--out").into()),
            "--json" => json = true,
            "--check" => check = true,
            other => {
                eprintln!("unknown flag {other}");
                schedule_usage()
            }
        }
    }

    let mut wl = workload_arg(&workload_spec, schedule_usage);
    if let Some(t) = timesteps {
        wl.timesteps = t;
    }
    let cap = cap.unwrap_or(machine.power.tdp_w);
    let threads = threads.unwrap_or_else(|| machine.hw_threads());

    let fixed: Vec<(ScheduleKind, arcs::AppRunReport)> = ScheduleKind::ALL
        .iter()
        .map(|&kind| {
            let cfg = OmpConfig { threads, schedule: Schedule::new(kind, None) };
            let rep = Runner::new(&mut SimExecutor::new(machine.clone(), cap))
                .workload(&wl)
                .fixed(move |_| cfg, kind.name())
                .run()
                .unwrap_or_else(|e| {
                    eprintln!("fixed {} run failed: {e}", kind.name());
                    exit(1)
                });
            (kind, rep)
        })
        .collect();

    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(machine.clone(), cap).with_trace(sink.clone());
    let adaptive = Runner::new(&mut exec)
        .workload(&wl)
        .adaptive_schedule(true)
        .label("adaptive")
        .run()
        .unwrap_or_else(|e| {
            eprintln!("adaptive run failed: {e}");
            exit(1)
        });
    let records = sink.drain();
    let switches: Vec<(String, String, String, u64, f64)> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::PolicySwitched { region, from, to, invocation, imbalance } => {
                Some((region.clone(), from.clone(), to.clone(), *invocation, *imbalance))
            }
            _ => None,
        })
        .collect();

    let edp = |rep: &arcs::AppRunReport| rep.energy_j * rep.time_s;
    if json {
        let artifact = ScheduleArtifact {
            workload: wl.name.clone(),
            machine: machine.name.clone(),
            cap_w: cap,
            threads,
            fixed: fixed
                .iter()
                .map(|(k, rep)| SchedulePoint {
                    policy: k.name().to_string(),
                    time_s: rep.time_s,
                    energy_j: rep.energy_j,
                    edp: edp(rep),
                })
                .collect(),
            adaptive: AdaptivePoint {
                time_s: adaptive.time_s,
                energy_j: adaptive.energy_j,
                edp: edp(&adaptive),
                config_change_overhead_s: adaptive.config_change_overhead_s,
                switches: switches
                    .iter()
                    .map(|(region, from, to, invocation, imbalance)| ScheduleSwitch {
                        region: region.clone(),
                        from: from.clone(),
                        to: to.clone(),
                        invocation: *invocation,
                        imbalance: *imbalance,
                    })
                    .collect(),
            },
        };
        println!("{}", serde_json::to_string_pretty(&artifact).expect("artifact serialises"));
    } else {
        println!(
            "schedule portfolio: {} on {} at {cap:.0}W, {threads} threads",
            wl.name, machine.name
        );
        for (kind, rep) in &fixed {
            println!(
                "  {:10} {:9.3}s {:9.0}J  edp {:11.1}",
                kind.name(),
                rep.time_s,
                rep.energy_j,
                edp(rep)
            );
        }
        println!(
            "  {:10} {:9.3}s {:9.0}J  edp {:11.1}  ({} switch(es), {:.3}s overhead)",
            "adaptive",
            adaptive.time_s,
            adaptive.energy_j,
            edp(&adaptive),
            switches.len(),
            adaptive.config_change_overhead_s
        );
        for (region, from, to, inv, imb) in &switches {
            println!("    {region}: {from} -> {to} at invocation {inv} (imbalance {imb:.3})");
        }
    }

    if let Some(path) = &out {
        let jsonl = to_jsonl(&records).unwrap_or_else(|e| {
            eprintln!("cannot serialise trace: {e}");
            exit(1)
        });
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("cannot write {path:?}: {e}");
            exit(1)
        }
        eprintln!("{} adaptive trace records written to {path:?}", records.len());
    }

    if check {
        let best = fixed.iter().map(|(_, r)| r.time_s).fold(f64::INFINITY, f64::min);
        let worst = fixed.iter().map(|(_, r)| r.time_s).fold(0.0, f64::max);
        if switches.is_empty() {
            eprintln!("schedule CHECK FAILED: the adaptive ladder never switched");
            exit(1)
        }
        if adaptive.time_s > best * 1.10 {
            eprintln!(
                "schedule CHECK FAILED: adaptive {:.3}s misses best fixed {best:.3}s by >10%",
                adaptive.time_s
            );
            exit(1)
        }
        if adaptive.time_s > worst * 0.90 {
            eprintln!(
                "schedule CHECK FAILED: adaptive {:.3}s within 10% of worst fixed {worst:.3}s",
                adaptive.time_s
            );
            exit(1)
        }
        eprintln!(
            "schedule OK: adaptive {:.3}s vs fixed best {best:.3}s / worst {worst:.3}s, \
             {} switch(es)",
            adaptive.time_s,
            switches.len()
        );
    }
}

/// The `schedule --json` artifact: one row per fixed policy plus the
/// adaptive run with its ladder decisions.
#[derive(Serialize)]
struct ScheduleArtifact {
    workload: String,
    machine: String,
    cap_w: f64,
    threads: usize,
    fixed: Vec<SchedulePoint>,
    adaptive: AdaptivePoint,
}

#[derive(Serialize)]
struct SchedulePoint {
    policy: String,
    time_s: f64,
    energy_j: f64,
    edp: f64,
}

#[derive(Serialize)]
struct AdaptivePoint {
    time_s: f64,
    energy_j: f64,
    edp: f64,
    config_change_overhead_s: f64,
    switches: Vec<ScheduleSwitch>,
}

#[derive(Serialize)]
struct ScheduleSwitch {
    region: String,
    from: String,
    to: String,
    invocation: u64,
    imbalance: f64,
}

fn chaos_usage() -> ! {
    eprintln!(
        "usage: arcs-sim chaos [--workload APP[.CLASS]] [--machine crill|minotaur] \
         [--cap WATTS] [--plan {}] [--seed N] [--timesteps N] \
         [--budget N|none] [--out PATH] [--check]",
        FaultPlan::names().join("|")
    );
    exit(2)
}

/// `arcs-sim chaos`: run one workload under a named deterministic fault
/// plan with the standard self-healing preset, and report what was
/// injected and how the run recovered.
fn chaos_main(argv: &[String]) {
    let mut workload_spec = "lulesh".to_string();
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut plan_name = "flaky-rapl".to_string();
    let mut seed: u64 = 0;
    let mut timesteps: Option<usize> = None;
    let mut budget: Option<Option<u64>> = None;
    let mut out: Option<PathBuf> = None;
    let mut check = false;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                chaos_usage()
            })
        };
        match flag.as_str() {
            "--workload" => workload_spec = value("--workload"),
            "--machine" => machine = machine_arg(&value("--machine"), chaos_usage),
            "--cap" => cap = Some(value("--cap").parse().unwrap_or_else(|_| chaos_usage())),
            "--plan" => plan_name = value("--plan"),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| chaos_usage()),
            "--timesteps" => {
                timesteps = Some(value("--timesteps").parse().unwrap_or_else(|_| chaos_usage()))
            }
            "--budget" => {
                let v = value("--budget");
                budget = Some(if v == "none" {
                    None
                } else {
                    Some(v.parse().unwrap_or_else(|_| chaos_usage()))
                });
            }
            "--out" => out = Some(value("--out").into()),
            "--check" => check = true,
            other => {
                eprintln!("unknown flag {other}");
                chaos_usage()
            }
        }
    }

    let mut wl = workload_arg(&workload_spec, chaos_usage);
    if let Some(t) = timesteps {
        wl.timesteps = t;
    }

    let Some(plan) = FaultPlan::by_name(&plan_name, seed) else {
        eprintln!("unknown fault plan {plan_name} (have: {})", FaultPlan::names().join(", "));
        chaos_usage()
    };
    let mut res = ResilienceOptions::standard();
    if let Some(b) = budget {
        res.error_budget = b;
    }

    let cap = cap.unwrap_or(machine.power.tdp_w);
    let space = ConfigSpace::for_machine(&machine);
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(machine.clone(), cap).with_trace(sink.clone());
    let mut tuner =
        RegionTuner::new(TunerOptions::new(space, TuningMode::Online(NmOptions::default())));
    let run = Runner::new(&mut exec)
        .workload(&wl)
        .tuner(&mut tuner)
        .label("arcs-online-chaos")
        .faults(plan)
        .resilience(res)
        .run();

    let records = sink.drain();
    if let Some(path) = &out {
        let jsonl = to_jsonl(&records).unwrap_or_else(|e| {
            eprintln!("cannot serialise trace: {e}");
            exit(1)
        });
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("cannot write {path:?}: {e}");
            exit(1)
        }
        eprintln!("{} trace records written to {path:?}", records.len());
    }

    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    for r in &records {
        if let TraceEvent::FaultInjected { kind, .. } = &r.event {
            *by_kind.entry(kind.clone()).or_default() += 1;
        }
    }
    let injected: u64 = by_kind.values().sum();

    println!("chaos: {} on {} at {cap:.0}W under {plan_name} (seed {seed})", wl.name, machine.name);
    let breakdown = by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect::<Vec<_>>().join(", ");
    println!(
        "injected {injected} fault(s){}",
        if breakdown.is_empty() { String::new() } else { format!(" ({breakdown})") }
    );

    let report = match run {
        Ok(report) => report,
        Err(e) => {
            println!("run FAILED: {e}");
            exit(1)
        }
    };
    let f = &report.faults;
    println!(
        "recovered: {} meter retries, {} hard faults absorbed, {} measurements rejected, \
         {} search restarts, {} regions frozen",
        f.meter_retries, f.hard_faults, f.rejected, f.restarts, f.frozen_regions
    );
    println!("status {}: {:.2}s, {:.0}J", report.status, report.time_s, report.energy_j);

    if check {
        if injected == 0 {
            eprintln!("chaos CHECK FAILED: the plan injected no faults");
            exit(1)
        }
        eprintln!(
            "chaos OK: {injected} faults injected, run completed {} (status {})",
            if report.status == RunStatus::Degraded { "degraded" } else { "cleanly" },
            report.status
        );
    }
}

fn report_usage() -> ! {
    eprintln!(
        "usage: arcs-sim report <trace.jsonl> [--format table|json|md] \
         [--objective time|energy|edp] [--out PATH]"
    );
    exit(2)
}

/// `arcs-sim report`: replay a recorded JSONL trace through the analysis
/// engine and render per-region, convergence, cache and overhead views.
fn report_main(argv: &[String]) {
    let mut path: Option<PathBuf> = None;
    let mut format = "table".to_string();
    let mut objective: Option<Objective> = None;
    let mut out: Option<PathBuf> = None;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                report_usage()
            })
        };
        match arg.as_str() {
            "--format" => format = value("--format"),
            "--objective" => {
                objective = Some(value("--objective").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    report_usage()
                }))
            }
            "--out" => out = Some(value("--out").into()),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                report_usage()
            }
            _ if path.is_none() => path = Some(arg.into()),
            _ => report_usage(),
        }
    }
    let Some(path) = path else { report_usage() };

    let started = std::time::Instant::now();
    let mut report = arcs_metrics::analyze_path(&path).unwrap_or_else(|e| {
        eprintln!("cannot analyse {path:?}: {e}");
        exit(1)
    });
    // Stamp the wall-clock replay throughput (region invocations — sweep
    // "cells" — per second of real time) so compare artifacts accumulate
    // a perf trajectory in results/ (ROADMAP item 4).
    let elapsed = started.elapsed().as_secs_f64();
    let cells: u64 = report.regions.values().map(|r| r.invocations).sum();
    if cells > 0 && elapsed > 0.0 {
        report.cells_per_s = Some(cells as f64 / elapsed);
    }
    if let Some(objective) = objective {
        report.objective = objective;
    }
    let rendered = match format.as_str() {
        "table" => report.to_table(),
        "json" => report.to_json(),
        "md" => report.to_markdown(),
        other => {
            eprintln!("unknown format {other}");
            report_usage()
        }
    };
    match &out {
        Some(out) => {
            if let Err(e) = std::fs::write(out, &rendered) {
                eprintln!("cannot write {out:?}: {e}");
                exit(1)
            }
            eprintln!(
                "report ({} records, {} regions) written to {out:?}",
                report.records,
                report.regions.len()
            );
        }
        None => print!("{rendered}"),
    }
    if !report.overhead_consistent() {
        eprintln!(
            "warning: overhead cross-check failed (residual {:+.6}s) — \
             expected for live traces, suspicious for simulated ones",
            report.overhead_residual_s()
        );
    }
}

fn compare_usage() -> ! {
    eprintln!(
        "usage: arcs-sim compare <baseline.json> <candidate.json> \
         [--fail-on PCT] [--fail-on-throughput PCT] \
         [--objective time|energy|edp] [--out PATH]"
    );
    exit(2)
}

/// `arcs-sim compare`: the perf-regression gate. Both inputs are JSON
/// reports produced by `arcs-sim report --format json`.
fn compare_main(argv: &[String]) {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut fail_on: f64 = 5.0;
    let mut fail_on_throughput: Option<f64> = None;
    let mut objective = Objective::Time;
    let mut out: Option<PathBuf> = None;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                compare_usage()
            })
        };
        match arg.as_str() {
            "--fail-on" => fail_on = value("--fail-on").parse().unwrap_or_else(|_| compare_usage()),
            "--fail-on-throughput" => {
                fail_on_throughput =
                    Some(value("--fail-on-throughput").parse().unwrap_or_else(|_| compare_usage()))
            }
            "--objective" => {
                objective = value("--objective").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    compare_usage()
                })
            }
            "--out" => out = Some(value("--out").into()),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag}");
                compare_usage()
            }
            _ => paths.push(arg.into()),
        }
    }
    if paths.len() != 2 {
        compare_usage()
    }

    let load = |path: &PathBuf| -> arcs_metrics::TraceReport {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path:?}: {e}");
            exit(1)
        });
        arcs_metrics::TraceReport::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{path:?} is not a JSON trace report: {e}");
            exit(1)
        })
    };
    let baseline = load(&paths[0]);
    let candidate = load(&paths[1]);
    let mut cmp = arcs_metrics::compare_reports_for(&baseline, &candidate, fail_on, objective);
    if let Some(pct) = fail_on_throughput {
        cmp = cmp.with_throughput_gate(pct);
    }

    print!("{}", cmp.to_table());
    if let Some(out) = &out {
        if let Err(e) = std::fs::write(out, cmp.to_json()) {
            eprintln!("cannot write {out:?}: {e}");
            exit(1)
        }
        eprintln!("comparison artifact written to {out:?}");
    }
    if cmp.regressed() {
        if cmp.throughput_regressed() {
            eprintln!(
                "FAIL: wall-clock throughput fell more than {}% below baseline",
                fail_on_throughput.unwrap_or_default()
            );
        } else {
            eprintln!("FAIL: {objective} regression beyond {fail_on}% threshold");
        }
        exit(1)
    }
    eprintln!("OK: no region regressed beyond {fail_on}% on {objective}");
}

fn bench_usage() -> ! {
    eprintln!(
        "usage: arcs-sim bench [--runs N] [--machine crill|minotaur] \
         [--out PATH] [--append PATH] [--label TEXT] [--json]"
    );
    exit(2)
}

/// Today as `YYYY-MM-DD` (UTC), via Howard Hinnant's days-to-civil
/// algorithm — BENCH entries carry a date without pulling in a calendar
/// crate.
fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// `arcs-sim bench`: the hot-path throughput benchmark. Runs the fig. 4
/// sweep (sp.B × five power levels × default/online/offline) `--runs`
/// times and keeps the fastest repetition — on a noisy host the minimum
/// wall clock is the least-disturbed measurement. The artifact is a
/// [`arcs_metrics::TraceReport`] with one row per sweep cell whose
/// `wall_s` is the cell's *simulated* run time (deterministic, so
/// `compare --fail-on 0` is meaningful); the wall-clock throughput rides
/// along in `cells_per_s` for the separate `--fail-on-throughput` gate.
fn bench_main(argv: &[String]) {
    let mut runs_n = 2usize;
    let mut machine = Machine::crill();
    let mut out: Option<PathBuf> = None;
    let mut append: Option<PathBuf> = None;
    let mut label = String::new();
    let mut json = false;

    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                bench_usage()
            })
        };
        match arg.as_str() {
            "--runs" => {
                runs_n = value("--runs").parse().unwrap_or_else(|_| bench_usage());
                if runs_n == 0 {
                    bench_usage()
                }
            }
            "--machine" => machine = machine_arg(&value("--machine"), bench_usage),
            "--out" => out = Some(value("--out").into()),
            "--append" => append = Some(value("--append").into()),
            "--label" => label = value("--label"),
            "--json" => json = true,
            flag => {
                eprintln!("unknown flag {flag}");
                bench_usage()
            }
        }
    }

    let mut best: Option<arcs_bench::SweepRun> = None;
    for i in 0..runs_n {
        let run = SweepSpec::new(machine.clone())
            .workload(model::sp(Class::B))
            .paper_levels()
            .paper_strategies()
            .run();
        eprintln!(
            "run {}/{}: {} cells in {:.1} ms — {:.0} cells/sec",
            i + 1,
            runs_n,
            run.cells_executed,
            run.wall_s * 1e3,
            run.cells_per_sec()
        );
        if best.as_ref().is_none_or(|b| run.wall_s < b.wall_s) {
            best = Some(run);
        }
    }
    let Some(best) = best else { bench_usage() };
    let cells_per_sec = best.cells_per_sec();

    let mut report =
        arcs_metrics::TraceReport { schema: arcs_trace::SCHEMA_VERSION, ..Default::default() };
    for cell in &best.report.cells {
        let name = format!("{}@{:.0}W/{}", cell.workload, cell.cap_w, cell.strategy.label());
        report.regions.insert(
            name,
            arcs_metrics::RegionBreakdown {
                invocations: 1,
                wall_s: cell.report.time_s,
                energy_j: cell.report.energy_j,
                ..Default::default()
            },
        );
        report.wall_s += cell.report.time_s;
        report.total_region_s += cell.report.time_s;
        report.total_energy_j += cell.report.energy_j;
        report.records += 1;
    }
    report.cells_per_s = Some(cells_per_sec);
    report.cache.hits = best.cache.hits;
    report.cache.misses = best.cache.misses;
    report.cache.entries = best.cache.entries as u64;
    report.cache.shard_occupancy = best.cache.shard_occupancy.iter().map(|&c| c as u64).collect();
    report.cache.interner_size = best.cache.interner_size as u64;

    if json {
        print!("{}", report.to_json());
    } else {
        println!(
            "best of {} run(s): {} cells in {:.1} ms — {:.0} cells/sec \
             ({} hits / {} misses, {} distinct cells)",
            runs_n,
            best.cells_executed,
            best.wall_s * 1e3,
            cells_per_sec,
            best.cache.hits,
            best.cache.misses,
            best.cache.entries,
        );
    }
    if let Some(out) = &out {
        if let Err(e) = std::fs::write(out, report.to_json()) {
            eprintln!("cannot write {out:?}: {e}");
            exit(1)
        }
        eprintln!("bench artifact written to {out:?}");
    }
    if let Some(path) = &append {
        let mut entries: Vec<BenchPoint> = match std::fs::read_to_string(path) {
            Ok(text) => serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("{path:?} is not a BENCH trajectory (JSON array): {e}");
                exit(1)
            }),
            Err(_) => Vec::new(),
        };
        let point = BenchPoint {
            date: today_utc(),
            cells_per_sec: (cells_per_sec * 10.0).round() / 10.0,
            git_rev: std::env::var("GIT_REV").unwrap_or_else(|_| "unknown".into()),
            label: label.clone(),
        };
        // Re-running the same bench at the same commit on the same day
        // tells the trajectory nothing — refuse the exact duplicate so
        // retried CI jobs cannot pad the file.
        if entries.contains(&point) {
            eprintln!(
                "refusing duplicate append to {path:?}: identical point already recorded \
                 ({} @ {} rev {})",
                point.cells_per_sec, point.date, point.git_rev
            );
            return;
        }
        entries.push(point);
        let text = serde_json::to_string_pretty(&entries).expect("serializable");
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("cannot write {path:?}: {e}");
            exit(1)
        }
        eprintln!("appended {:.0} cells/sec to {path:?} ({} points)", cells_per_sec, entries.len());
    }
}

/// One point of the BENCH trajectory file (`--append`): the date the
/// measurement was taken, the best-of-N wall-clock throughput, and
/// where it came from — the commit under test (`GIT_REV` env, `unknown`
/// outside CI) plus a free-form `--label`. Both provenance fields
/// default empty/`unknown` so pre-existing trajectories still parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct BenchPoint {
    date: String,
    cells_per_sec: f64,
    #[serde(default)]
    git_rev: String,
    #[serde(default)]
    label: String,
}

fn main() {
    let first = std::env::args().nth(1);
    if first.as_deref() == Some("trace") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        trace_main(&argv);
        return;
    }
    if first.as_deref() == Some("schedule") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        schedule_main(&argv);
        return;
    }
    if first.as_deref() == Some("chaos") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        chaos_main(&argv);
        return;
    }
    if first.as_deref() == Some("report") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        report_main(&argv);
        return;
    }
    if first.as_deref() == Some("compare") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        compare_main(&argv);
        return;
    }
    if first.as_deref() == Some("bench") {
        let argv: Vec<String> = std::env::args().skip(2).collect();
        bench_main(&argv);
        return;
    }
    let args = parse_args();
    let wl = workload(&args);
    let cap = args.cap.unwrap_or(args.machine.power.tdp_w);
    let m = &args.machine;
    let space = ConfigSpace::for_machine(m);
    let context = format!("{}.{}.{:.0}W", wl.name, m.name, cap);

    let base = runs::default_run(m, cap, &wl);
    let (report, history): (arcs::AppRunReport, Option<History<OmpConfig>>) =
        match args.strategy.as_str() {
            "default" => (base.clone(), None),
            "online" | "offline-pro" => {
                let mode = if args.strategy == "online" {
                    TuningMode::Online(NmOptions::default())
                } else {
                    TuningMode::OnlinePro(ProOptions::default())
                };
                let mut options = TunerOptions::new(space, mode);
                if let Some(t) = args.selective {
                    options = options.with_min_region_time(t);
                }
                let mut tuner = RegionTuner::new(options);
                let mut rep = SimExecutor::new(m.clone(), cap).run_tuned(&wl, &mut tuner);
                rep.strategy = format!("arcs-{}", args.strategy);
                (rep, Some(tuner.export_history(&context)))
            }
            "offline" => {
                let history = match &args.load_history {
                    Some(path) => History::load(path).unwrap_or_else(|e| {
                        eprintln!("cannot load history {path:?}: {e}");
                        exit(1)
                    }),
                    None => {
                        let mut options = TunerOptions::offline_train(space.clone());
                        if let Some(t) = args.selective {
                            options = options.with_min_region_time(t);
                        }
                        SimExecutor::new(m.clone(), cap).train_offline(&wl, options, &context)
                    }
                };
                let mut tuner =
                    RegionTuner::new(TunerOptions::offline_replay(space, history.clone()));
                let mut rep = SimExecutor::new(m.clone(), cap).run_tuned(&wl, &mut tuner);
                rep.strategy = "arcs-offline".into();
                (rep, Some(history))
            }
            other => {
                eprintln!("unknown strategy {other}");
                usage()
            }
        };

    if let (Some(path), Some(h)) = (&args.save_history, &history) {
        if let Err(e) = h.save(path) {
            eprintln!("cannot save history: {e}");
            exit(1);
        }
        eprintln!("history saved to {path:?}");
    }

    if args.json {
        println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
        return;
    }

    println!("{} on {} at {:.0}W — strategy {}", wl.name, m.name, cap, report.strategy);
    println!(
        "time   {:>10.2}s   (default {:.2}s, ratio {:.3})",
        report.time_s,
        base.time_s,
        report.time_s / base.time_s
    );
    println!(
        "energy {:>10.0}J   (default {:.0}J, ratio {:.3})",
        report.energy_j,
        base.energy_j,
        report.energy_j / base.energy_j
    );
    println!(
        "overheads: config-change {:.2}s, instrumentation {:.2}s",
        report.config_change_overhead_s, report.instrumentation_overhead_s
    );
    if let Some(h) = &history {
        println!("configurations:");
        for (region, entry) in &h.entries {
            println!("  {:40} [{}]", region, entry.config);
        }
    }
}
