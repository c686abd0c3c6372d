//! `arcs-sim trace`: run one (workload, cap, strategy) cell with a
//! [`VecSink`] attached and emit the collected records as JSONL.

use crate::flags::Flags;
use crate::{jsonl_or_exit, tuning_mode, write_or_exit};
use arcs::{ConfigSpace, Objective, RegionTuner, Runner, SimExecutor, TunerOptions};
use arcs_powersim::Machine;
use arcs_trace::{chrome_trace, validate_jsonl, TraceEvent, TraceSink, VecSink};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: arcs-sim trace [--workload APP[.CLASS]] [--machine crill|minotaur] \
         [--cap WATTS] [--strategy nelder-mead|pro|exhaustive|default] \
         [--objective time|energy|edp] [--timesteps N] \
         [--out PATH] [--chrome PATH] [--check] [--self-profile]"
    );
    exit(2)
}

pub fn main(argv: &[String]) {
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

    let mut flags = Flags::new(argv, usage);
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload_spec = flags.value("--workload"),
            "--machine" => machine = flags.machine(),
            "--cap" => cap = Some(flags.value("--cap")),
            "--strategy" => strategy = flags.value("--strategy"),
            "--objective" => objective = flags.value("--objective"),
            "--timesteps" => timesteps = Some(flags.value("--timesteps")),
            "--out" => out = Some(flags.value("--out")),
            "--chrome" => chrome = Some(flags.value("--chrome")),
            "--check" => check = true,
            "--self-profile" => self_profile = true,
            other => flags.unknown(other),
        }
    }
    let wl = flags.workload(&workload_spec, timesteps);

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
        "nelder-mead" | "pro" | "exhaustive" => {
            let mode = tuning_mode(&strategy).expect("all three spellings are in the table");
            let mut tuner =
                RegionTuner::new(TunerOptions::new(space, mode).with_objective(objective));
            Runner::new(&mut exec)
                .workload(&wl)
                .tuner(&mut tuner)
                .label(format!("arcs-{strategy}"))
                .self_profile(self_profile)
                .run()
        }
        other => {
            eprintln!("unknown strategy {other}");
            usage()
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
    let jsonl = jsonl_or_exit(&records);

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
        write_or_exit(path, json, format_args!("chrome trace written to {path:?}"));
    }

    match &out {
        Some(path) => write_or_exit(
            path,
            &jsonl,
            format_args!(
                "{} trace records written to {:?} ({}: {:.2}s, {:.0}J)",
                records.len(),
                path,
                report.strategy,
                report.time_s,
                report.energy_j
            ),
        ),
        None => print!("{jsonl}"),
    }
}
