//! `arcs-sim run`: one (workload, cap, strategy) cell, reported against
//! the default configuration — optionally traced, and optionally under a
//! deterministic fault plan with the standard self-healing ladder.
//! Workloads are named only through `model::by_spec` (`APP[.CLASS]`), and
//! every run of a cell — training, the measured run, the default
//! baseline — is built through `Runner`.

use crate::write_or_exit;
use arcs::cli::Flags;
use arcs::{
    AppRunReport, ConfigSpace, Objective, OmpConfig, RegionTuner, ResilienceOptions, RunError,
    Runner, SimExecutor, TunerOptions, TuningMode,
};
use arcs_harmony::History;
use arcs_powersim::{FaultPlan, Machine};
use arcs_trace::{
    chrome_trace, to_jsonl, validate_jsonl, TraceEvent, TraceRecord, TraceSink, VecSink,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

const STRATEGIES: [&str; 6] = ["default", "online", "pro", "exhaustive", "offline", "adaptive"];

fn usage() -> ! {
    eprintln!(
        "usage: arcs-sim run [--workload APP[.CLASS]] [--machine crill|minotaur] \
         [--machine-file PATH] [--cap WATTS] [--strategy {}] \
         [--objective time|energy|edp] [--timesteps N] [--selective SECONDS] \
         [--save-history PATH] [--load-history PATH] [--plan {}] [--seed N] \
         [--budget N|none] [--json] [--trace PATH [--self-profile]] [--chrome PATH] [--check]",
        STRATEGIES.join("|"),
        FaultPlan::names().join("|")
    );
    exit(2)
}

fn run_or_exit(run: Result<AppRunReport, RunError>) -> AppRunReport {
    run.unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        exit(1)
    })
}

pub fn main(argv: &[String]) {
    let mut workload = "sp.B".to_string();
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut strategy = "online".to_string();
    let mut objective = Objective::Time;
    let mut timesteps: Option<usize> = None;
    let mut selective: Option<f64> = None;
    let mut save_history: Option<PathBuf> = None;
    let mut load_history: Option<PathBuf> = None;
    let mut plan_name: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut budget: Option<Option<u64>> = None;
    let mut json = false;
    let mut trace: Option<PathBuf> = None;
    let mut chrome: Option<PathBuf> = None;
    let mut check = false;
    let mut self_profile = false;

    let mut flags = Flags::new(argv, usage);
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload = flags.value("--workload"),
            "--machine" => machine = flags.machine(),
            "--machine-file" => {
                let path: String = flags.value("--machine-file");
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    exit(1)
                });
                machine = Machine::from_json(&text).unwrap_or_else(|e| {
                    eprintln!("invalid machine file {path}: {e}");
                    exit(1)
                });
            }
            "--cap" => cap = Some(flags.watts("--cap")),
            "--strategy" => strategy = flags.value("--strategy"),
            "--objective" => objective = flags.value("--objective"),
            "--timesteps" => timesteps = Some(flags.value("--timesteps")),
            "--selective" => selective = Some(flags.value("--selective")),
            "--save-history" => save_history = Some(flags.value("--save-history")),
            "--load-history" => load_history = Some(flags.value("--load-history")),
            "--plan" => plan_name = Some(flags.value("--plan")),
            "--seed" => seed = Some(flags.value("--seed")),
            "--budget" => {
                let v: String = flags.value("--budget");
                budget = Some(if v == "none" { None } else { Some(flags.parse(&v)) });
            }
            "--json" => json = true,
            "--trace" => trace = Some(flags.value("--trace")),
            "--chrome" => chrome = Some(flags.value("--chrome")),
            "--check" => check = true,
            "--self-profile" => self_profile = true,
            other => flags.unknown(other),
        }
    }
    let strategy = strategy.as_str();
    if !STRATEGIES.contains(&strategy) {
        eprintln!("unknown strategy {strategy}");
        usage()
    }
    let searches = !matches!(strategy, "default" | "adaptive");
    if (load_history.is_some() && strategy != "offline") || (save_history.is_some() && !searches) {
        eprintln!("only offline loads a history, and only a search saves one");
        usage()
    }
    if selective.is_some() && !searches {
        eprintln!("--selective thresholds a search: {strategy} does not search");
        usage()
    }
    if timesteps == Some(0) {
        eprintln!("--timesteps 0 runs nothing: give at least 1");
        usage()
    }
    // Selective tuning is off at a zero threshold (the options' default).
    let selective = selective.unwrap_or(0.0);
    if plan_name.is_none() && (seed.is_some() || budget.is_some()) {
        eprintln!("--seed and --budget shape a fault plan: give --plan");
        usage()
    }
    if self_profile && trace.is_none() {
        eprintln!("--self-profile writes its spans into the trace: give --trace");
        usage()
    }
    // Resilience changes the search, so the ladder comes only with a plan.
    let faults = plan_name.as_deref().map(|name| {
        let plan = FaultPlan::by_name(name, seed.unwrap_or(0)).unwrap_or_else(|| {
            eprintln!("unknown fault plan {name} (have: {})", FaultPlan::names().join(", "));
            usage()
        });
        let mut res = ResilienceOptions::standard();
        if let Some(b) = budget {
            res.error_budget = b;
        }
        (plan, res)
    });
    let wl = flags.workload(&workload, timesteps);
    let m = &machine;
    let cap = cap.unwrap_or(m.power.tdp_w);
    let space = ConfigSpace::for_machine(m);
    let context = format!("{}.{}.{:.0}W", wl.name, m.name, cap);

    // ARCS-Offline trains (or loads) on its own executor, then replays.
    let trained = (strategy == "offline").then(|| match &load_history {
        Some(path) => History::load(path).unwrap_or_else(|e| {
            eprintln!("cannot load history {path:?}: {e}");
            exit(1)
        }),
        None => Runner::new(&mut SimExecutor::new(m.clone(), cap))
            .workload(&wl)
            .objective(objective)
            .train(
                TunerOptions::offline_train(space.clone()).with_min_region_time(selective),
                &context,
            )
            .unwrap_or_else(|e| {
                eprintln!("training failed: {e}");
                exit(1)
            }),
    });
    let search = |mode| TunerOptions::new(space.clone(), mode).with_min_region_time(selective);
    let mut tuner = match strategy {
        "online" => Some(search(TuningMode::Online)),
        "pro" => Some(search(TuningMode::OnlinePro)),
        "exhaustive" => Some(search(TuningMode::OfflineTrain)),
        "offline" => trained.clone().map(|h| search(TuningMode::OfflineReplay(h))),
        _ => None,
    }
    .map(RegionTuner::new);

    let sink = (trace.is_some() || chrome.is_some() || check || faults.is_some())
        .then(|| Arc::new(VecSink::new()));
    let mut exec = SimExecutor::new(m.clone(), cap);
    let default_cfg = OmpConfig::default_for(m);
    let mut runner =
        Runner::new(&mut exec).workload(&wl).objective(objective).self_profile(self_profile);
    runner = match &mut tuner {
        Some(tuner) => runner.tuner(tuner).label(format!("arcs-{strategy}")),
        None if strategy == "adaptive" => runner.adaptive(move |_| default_cfg, strategy),
        None => runner.label(strategy),
    };
    if let Some(sink) = &sink {
        runner = runner.trace(sink.clone());
    }
    if let Some((plan, res)) = faults {
        runner = runner.faults(plan).resilience(res);
    }
    let run = runner.run();

    let records: Vec<TraceRecord> = sink.map_or_else(Vec::new, |sink| {
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
        sink.drain()
    });
    if check || trace.is_some() {
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
        if let Some(path) = &trace {
            let done = format_args!("{} trace records written to {path:?}", records.len());
            write_or_exit(path, &jsonl, done);
        }
    }
    if let Some(path) = &chrome {
        let json = chrome_trace(&records).unwrap_or_else(|e| {
            eprintln!("cannot export chrome trace: {e}");
            exit(1)
        });
        write_or_exit(path, json, format_args!("chrome trace written to {path:?}"));
    }
    let report = run_or_exit(run);

    let history = trained.or_else(|| tuner.map(|t| t.export_history(&context)));
    if let (Some(path), Some(h)) = (&save_history, &history) {
        if let Err(e) = h.save(path) {
            eprintln!("cannot save history: {e}");
            exit(1);
        }
        eprintln!("history saved to {path:?}");
    }

    if json {
        println!("{}", serde_json::to_string_pretty(&report).expect("report serialises"));
        return;
    }
    let base = run_or_exit(Runner::new(&mut SimExecutor::new(m.clone(), cap)).workload(&wl).run());
    let under = match &plan_name {
        Some(name) => format!(" under {name} (seed {})", seed.unwrap_or(0)),
        None => String::new(),
    };
    println!("{} on {} at {:.0}W — strategy {}{under}", wl.name, m.name, cap, report.strategy);
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
    if plan_name.is_some() {
        let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
        for r in &records {
            if let TraceEvent::FaultInjected { kind, .. } = &r.event {
                *by_kind.entry(kind).or_default() += 1;
            }
        }
        let injected: u64 = by_kind.values().sum();
        let kinds: Vec<String> = by_kind.iter().map(|(k, n)| format!("{k} {n}")).collect();
        let breakdown =
            if kinds.is_empty() { String::new() } else { format!(" ({})", kinds.join(", ")) };
        println!("injected {injected} fault(s){breakdown}");
        let f = &report.faults;
        println!(
            "recovered: {} meter retries, {} hard faults absorbed, {} measurements rejected, \
             {} search restarts, {} regions frozen",
            f.meter_retries, f.hard_faults, f.rejected, f.restarts, f.frozen_regions
        );
        println!("status {}: {:.2}s, {:.0}J", report.status, report.time_s, report.energy_j);
    }
    if let Some(h) = &history {
        println!("configurations:");
        for (region, entry) in &h.entries {
            println!("  {:40} [{}]", region, entry.config);
        }
    }
}
