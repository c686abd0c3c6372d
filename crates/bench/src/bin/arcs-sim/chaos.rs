//! `arcs-sim chaos`: run one workload under a named deterministic fault
//! plan with the standard self-healing preset, and report what was
//! injected and how the run recovered.

use crate::flags::Flags;
use crate::{jsonl_or_exit, write_or_exit};
use arcs::{
    ConfigSpace, RegionTuner, ResilienceOptions, RunStatus, Runner, SimExecutor, TunerOptions,
};
use arcs_powersim::{FaultPlan, Machine};
use arcs_trace::{TraceEvent, VecSink};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: arcs-sim chaos [--workload APP[.CLASS]] [--machine crill|minotaur] \
         [--cap WATTS] [--plan {}] [--seed N] [--timesteps N] \
         [--budget N|none] [--out PATH] [--check]",
        FaultPlan::names().join("|")
    );
    exit(2)
}

pub fn main(argv: &[String]) {
    let mut workload_spec = "lulesh".to_string();
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut plan_name = "flaky-rapl".to_string();
    let mut seed: u64 = 0;
    let mut timesteps: Option<usize> = None;
    let mut budget: Option<Option<u64>> = None;
    let mut out: Option<PathBuf> = None;
    let mut check = false;

    let mut flags = Flags::new(argv, usage);
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload_spec = flags.value("--workload"),
            "--machine" => machine = flags.machine(),
            "--cap" => cap = Some(flags.value("--cap")),
            "--plan" => plan_name = flags.value("--plan"),
            "--seed" => seed = flags.value("--seed"),
            "--timesteps" => timesteps = Some(flags.value("--timesteps")),
            "--budget" => {
                let v: String = flags.value("--budget");
                budget = Some(if v == "none" { None } else { Some(flags.parse(&v)) });
            }
            "--out" => out = Some(flags.value("--out")),
            "--check" => check = true,
            other => flags.unknown(other),
        }
    }
    let wl = flags.workload(&workload_spec, timesteps);

    let Some(plan) = FaultPlan::by_name(&plan_name, seed) else {
        eprintln!("unknown fault plan {plan_name} (have: {})", FaultPlan::names().join(", "));
        usage()
    };
    let mut res = ResilienceOptions::standard();
    if let Some(b) = budget {
        res.error_budget = b;
    }

    let cap = cap.unwrap_or(machine.power.tdp_w);
    let space = ConfigSpace::for_machine(&machine);
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(machine.clone(), cap).with_trace(sink.clone());
    let mut tuner = RegionTuner::new(TunerOptions::online(space));
    let run = Runner::new(&mut exec)
        .workload(&wl)
        .tuner(&mut tuner)
        .label("arcs-online-chaos")
        .faults(plan)
        .resilience(res)
        .run();

    let records = sink.drain();
    if let Some(path) = &out {
        let jsonl = jsonl_or_exit(&records);
        write_or_exit(
            path,
            &jsonl,
            format_args!("{} trace records written to {path:?}", records.len()),
        );
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
