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
//!   --objective time|energy|edp compare by this objective (default time), so
//!                               the gate can fail on energy/EDP regressions
//!   --out PATH                  write the comparison artifact (JSON) here
//!
//! arcs-sim fig <id>... | --all [options]      regenerate paper artefacts
//!   <id>                        table1 | fig1 … fig10 | table2 | overheads |
//!                               xarch | ablation | extension_{dvfs,noise,suite}
//!                               (`arcs-sim fig` alone lists them)
//!   --all                       every artefact, in paper order
//!   --out DIR                   write DIR/<id>.txt instead of stdout
//!                               (`--all --out results` regenerates results/)
//! ```
//!
//! Examples:
//! ```sh
//! cargo run --release -p arcs-bench -- sp --class B --cap 85
//! cargo run --release -p arcs-bench -- lulesh --mesh 45 \
//!     --strategy online --selective 0.03 --json
//! cargo run --release -p arcs-bench -- trace \
//!     --workload sp.B --cap 80 --strategy nelder-mead --out sp.trace.jsonl
//! cargo run --release -p arcs-bench -- fig fig4
//! ```

mod chaos;
mod compare;
mod fig;
mod flags;
mod report;
mod run;
mod schedule;
mod trace;

use arcs::TuningMode;
use arcs_harmony::{NmOptions, ProOptions};
use arcs_trace::{to_jsonl, TraceRecord};
use std::fmt::Arguments;
use std::path::Path;
use std::process::exit;

/// The search a `--strategy` name selects. `<app>` and `trace` spell the
/// same two online searches differently; each accepts its own spellings.
fn tuning_mode(name: &str) -> Option<TuningMode> {
    match name {
        "online" | "nelder-mead" => Some(TuningMode::Online(NmOptions::default())),
        "offline-pro" | "pro" => Some(TuningMode::OnlinePro(ProOptions::default())),
        "exhaustive" => Some(TuningMode::OfflineTrain),
        _ => None,
    }
}

/// Write an output file and say `done` on stderr, or exit 1 naming the path.
fn write_or_exit(path: &Path, bytes: impl AsRef<[u8]>, done: Arguments) {
    if let Err(e) = std::fs::write(path, bytes) {
        eprintln!("cannot write {path:?}: {e}");
        exit(1)
    }
    eprintln!("{done}");
}

/// Serialise trace records as JSONL, or exit 1 saying why not.
fn jsonl_or_exit(records: &[TraceRecord]) -> String {
    to_jsonl(records).unwrap_or_else(|e| {
        eprintln!("cannot serialise trace: {e}");
        exit(1)
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("trace") => trace::main(&argv[1..]),
        Some("schedule") => schedule::main(&argv[1..]),
        Some("chaos") => chaos::main(&argv[1..]),
        Some("report") => report::main(&argv[1..]),
        Some("compare") => compare::main(&argv[1..]),
        Some("fig") => fig::main(&argv[1..]),
        // The bare `<app>` form: the first argument names the application.
        _ => run::main(&argv),
    }
}
