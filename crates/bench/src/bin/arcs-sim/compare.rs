//! `arcs-sim compare`: the perf-regression gate. Both inputs are JSON
//! reports produced by `arcs-sim report --format json`.

use crate::write_or_exit;
use arcs::cli::Flags;
use arcs::Objective;
use arcs_metrics::TraceReport;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: arcs-sim compare <baseline.json> <candidate.json> \
         [--fail-on PCT] [--objective time|energy|edp] [--out PATH]"
    );
    exit(2)
}

pub fn main(argv: &[String]) {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut fail_on: f64 = 5.0;
    let mut objective = Objective::Time;
    let mut out: Option<PathBuf> = None;

    let mut flags = Flags::new(argv, usage);
    while let Some(arg) = flags.next() {
        match arg {
            "--fail-on" => fail_on = flags.value("--fail-on"),
            "--objective" => objective = flags.value("--objective"),
            "--out" => out = Some(flags.value("--out")),
            flag if flag.starts_with("--") => flags.unknown(flag),
            _ => paths.push(arg.into()),
        }
    }
    if paths.len() != 2 {
        usage()
    }

    let load = |path: &PathBuf| -> TraceReport {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path:?}: {e}");
            exit(1)
        });
        TraceReport::from_json(&text).unwrap_or_else(|e| {
            eprintln!("{path:?} is not a JSON trace report: {e}");
            exit(1)
        })
    };
    let baseline = load(&paths[0]);
    let candidate = load(&paths[1]);
    let cmp = arcs_metrics::compare_reports_for(&baseline, &candidate, fail_on, objective);

    print!("{}", cmp.to_table());
    if let Some(out) = &out {
        write_or_exit(out, cmp.to_json(), format_args!("comparison artifact written to {out:?}"));
    }
    if cmp.regressed() {
        eprintln!("FAIL: {objective} regression beyond {fail_on}% threshold");
        exit(1)
    }
    eprintln!("OK: no region regressed beyond {fail_on}% on {objective}");
}
