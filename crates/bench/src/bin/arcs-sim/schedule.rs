//! `arcs-sim schedule`: the scheduling-policy portfolio bake-off. Runs
//! the workload once per fixed policy in [`ScheduleKind::ALL`] (Table-I
//! order, default chunk), then once from the default configuration with
//! [`arcs::Runner::adaptive_schedule`] switching mid-run, and prints one
//! row per run plus every ladder decision. The adaptive trace (`--out`) is
//! deterministic, so CI byte-compares two same-spec runs; `--check` gates
//! the adaptive result against the fixed portfolio.

use crate::flags::Flags;
use crate::{jsonl_or_exit, write_or_exit};
use arcs::{OmpConfig, Runner, SimExecutor};
use arcs_omprt::{Schedule, ScheduleKind};
use arcs_powersim::Machine;
use arcs_trace::{TraceEvent, VecSink};
use serde::Serialize;
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: arcs-sim schedule [--workload APP[.CLASS]] [--machine crill|minotaur] \
         [--cap WATTS] [--threads N] [--timesteps N] [--out PATH] [--json] [--check]"
    );
    exit(2)
}

pub fn main(argv: &[String]) {
    let mut workload_spec = "mc.B".to_string();
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut threads: Option<usize> = None;
    let mut timesteps: Option<usize> = None;
    let mut out: Option<PathBuf> = None;
    let mut json = false;
    let mut check = false;

    let mut flags = Flags::new(argv, usage);
    while let Some(flag) = flags.next() {
        match flag {
            "--workload" => workload_spec = flags.value("--workload"),
            "--machine" => machine = flags.machine(),
            "--cap" => cap = Some(flags.value("--cap")),
            "--threads" => threads = Some(flags.value("--threads")),
            "--timesteps" => timesteps = Some(flags.value("--timesteps")),
            "--out" => out = Some(flags.value("--out")),
            "--json" => json = true,
            "--check" => check = true,
            other => flags.unknown(other),
        }
    }
    let wl = flags.workload(&workload_spec, timesteps);
    let cap = cap.unwrap_or(machine.power.tdp_w);
    let threads = threads.unwrap_or_else(|| machine.hw_threads());

    let fixed: Vec<SchedulePoint> = ScheduleKind::ALL
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
            SchedulePoint {
                policy: kind.name().to_string(),
                time_s: rep.time_s,
                energy_j: rep.energy_j,
                edp: rep.energy_j * rep.time_s,
            }
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
    let switches: Vec<ScheduleSwitch> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::PolicySwitched { region, from, to, invocation, imbalance } => {
                Some(ScheduleSwitch {
                    region: region.clone(),
                    from: from.clone(),
                    to: to.clone(),
                    invocation: *invocation,
                    imbalance: *imbalance,
                })
            }
            _ => None,
        })
        .collect();
    let artifact = ScheduleArtifact {
        workload: wl.name.clone(),
        machine: machine.name.clone(),
        cap_w: cap,
        threads,
        fixed,
        adaptive: AdaptivePoint {
            time_s: adaptive.time_s,
            energy_j: adaptive.energy_j,
            edp: adaptive.energy_j * adaptive.time_s,
            config_change_overhead_s: adaptive.config_change_overhead_s,
            switches,
        },
    };
    let (fixed, adaptive) = (&artifact.fixed, &artifact.adaptive);

    if json {
        println!("{}", serde_json::to_string_pretty(&artifact).expect("artifact serialises"));
    } else {
        println!(
            "schedule portfolio: {} on {} at {cap:.0}W, {threads} threads",
            wl.name, machine.name
        );
        for p in fixed {
            println!("  {:10} {:9.3}s {:9.0}J  edp {:11.1}", p.policy, p.time_s, p.energy_j, p.edp);
        }
        println!(
            "  {:10} {:9.3}s {:9.0}J  edp {:11.1}  ({} switch(es), {:.3}s overhead)",
            "adaptive",
            adaptive.time_s,
            adaptive.energy_j,
            adaptive.edp,
            adaptive.switches.len(),
            adaptive.config_change_overhead_s
        );
        for s in &adaptive.switches {
            println!(
                "    {}: {} -> {} at invocation {} (imbalance {:.3})",
                s.region, s.from, s.to, s.invocation, s.imbalance
            );
        }
    }

    if let Some(path) = &out {
        let jsonl = jsonl_or_exit(&records);
        write_or_exit(
            path,
            &jsonl,
            format_args!("{} adaptive trace records written to {path:?}", records.len()),
        );
    }

    if check {
        let best = fixed.iter().map(|p| p.time_s).fold(f64::INFINITY, f64::min);
        let worst = fixed.iter().map(|p| p.time_s).fold(0.0, f64::max);
        if adaptive.switches.is_empty() {
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
            adaptive.switches.len()
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
