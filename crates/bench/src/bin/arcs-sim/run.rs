//! `arcs-sim <app>`: one workload at one cap under one strategy, reported
//! against the default configuration.

use crate::flags::Flags;
use crate::tuning_mode;
use arcs::{runs, AppRunReport, ConfigSpace, OmpConfig, RegionTuner, SimExecutor, TunerOptions};
use arcs_harmony::History;
use arcs_kernels::{model, Class};
use arcs_powersim::Machine;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: arcs-sim <bt|sp|lulesh|mc> [--class S|W|A|B|C] [--mesh N] \
         [--machine crill|minotaur] [--machine-file PATH] [--cap WATTS] \
         [--strategy default|online|offline|offline-pro] [--timesteps N] \
         [--selective SECONDS] [--save-history PATH] [--load-history PATH] [--json]"
    );
    exit(2)
}

pub fn main(argv: &[String]) {
    let mut flags = Flags::new(argv, usage);
    let Some(app) = flags.next() else { usage() };
    if !["bt", "sp", "lulesh", "mc"].contains(&app) {
        usage();
    }
    let mut class = Class::B;
    let mut mesh: usize = 45;
    let mut machine = Machine::crill();
    let mut cap: Option<f64> = None;
    let mut strategy = "offline".to_string();
    let mut timesteps: Option<usize> = None;
    let mut selective: Option<f64> = None;
    let mut save_history: Option<PathBuf> = None;
    let mut load_history: Option<PathBuf> = None;
    let mut json = false;

    while let Some(flag) = flags.next() {
        match flag {
            "--class" => class = flags.value("--class"),
            "--mesh" => mesh = flags.value("--mesh"),
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
            "--cap" => cap = Some(flags.value("--cap")),
            "--strategy" => strategy = flags.value("--strategy"),
            "--timesteps" => timesteps = Some(flags.value("--timesteps")),
            "--selective" => selective = Some(flags.value("--selective")),
            "--save-history" => save_history = Some(flags.value("--save-history")),
            "--load-history" => load_history = Some(flags.value("--load-history")),
            "--json" => json = true,
            other => flags.unknown(other),
        }
    }

    let mut wl = match app {
        "bt" => model::bt(class),
        "sp" => model::sp(class),
        "mc" => model::mc(class),
        _ => model::lulesh(mesh),
    };
    if let Some(t) = timesteps {
        wl.timesteps = t;
    }
    let m = &machine;
    let cap = cap.unwrap_or(m.power.tdp_w);
    let space = ConfigSpace::for_machine(m);
    let context = format!("{}.{}.{:.0}W", wl.name, m.name, cap);
    // Selective tuning is off at a zero threshold (the options' default).
    let min_region_time_s = selective.unwrap_or(0.0);

    let base = runs::default_run(m, cap, &wl);
    let (report, history): (AppRunReport, Option<History<OmpConfig>>) = match strategy.as_str() {
        "default" => (base.clone(), None),
        "online" | "offline-pro" => {
            let mode = tuning_mode(&strategy).expect("both spellings are in the table");
            let options = TunerOptions::new(space, mode).with_min_region_time(min_region_time_s);
            let mut tuner = RegionTuner::new(options);
            let mut rep = SimExecutor::new(m.clone(), cap).run_tuned(&wl, &mut tuner);
            rep.strategy = format!("arcs-{strategy}");
            (rep, Some(tuner.export_history(&context)))
        }
        "offline" => {
            let history = match &load_history {
                Some(path) => History::load(path).unwrap_or_else(|e| {
                    eprintln!("cannot load history {path:?}: {e}");
                    exit(1)
                }),
                None => SimExecutor::new(m.clone(), cap).train_offline(
                    &wl,
                    TunerOptions::offline_train(space.clone())
                        .with_min_region_time(min_region_time_s),
                    &context,
                ),
            };
            let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space, history.clone()));
            let mut rep = SimExecutor::new(m.clone(), cap).run_tuned(&wl, &mut tuner);
            rep.strategy = "arcs-offline".into();
            (rep, Some(history))
        }
        other => {
            eprintln!("unknown strategy {other}");
            usage()
        }
    };

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
