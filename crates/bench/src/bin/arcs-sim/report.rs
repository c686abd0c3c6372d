//! `arcs-sim report`: replay a recorded JSONL trace through the analysis
//! engine and render per-region, convergence, cache and overhead views.
//! The output is a pure function of the trace file.

use crate::write_or_exit;
use arcs::cli::Flags;
use arcs::Objective;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: arcs-sim report <trace.jsonl> [--format table|json|md] \
         [--objective time|energy|edp] [--out PATH]"
    );
    exit(2)
}

pub fn main(argv: &[String]) {
    let mut path: Option<PathBuf> = None;
    let mut format = "table".to_string();
    let mut objective: Option<Objective> = None;
    let mut out: Option<PathBuf> = None;

    let mut flags = Flags::new(argv, usage);
    while let Some(arg) = flags.next() {
        match arg {
            "--format" => format = flags.value("--format"),
            "--objective" => objective = Some(flags.value("--objective")),
            "--out" => out = Some(flags.value("--out")),
            flag if flag.starts_with("--") => flags.unknown(flag),
            _ if path.is_none() => path = Some(arg.into()),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };

    let mut report = arcs_metrics::analyze_path(&path).unwrap_or_else(|e| {
        eprintln!("cannot analyse {path:?}: {e}");
        exit(1)
    });
    if let Some(objective) = objective {
        report.objective = objective;
    }
    let rendered = match format.as_str() {
        "table" => report.to_table(),
        "json" => report.to_json(),
        "md" => report.to_markdown(),
        other => {
            eprintln!("unknown format {other}");
            usage()
        }
    };
    match &out {
        Some(out) => write_or_exit(
            out,
            &rendered,
            format_args!(
                "report ({} records, {} regions) written to {out:?}",
                report.records,
                report.regions.len()
            ),
        ),
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
