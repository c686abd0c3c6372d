//! `arcs-sim` — command-line driver for the simulated experiments. Four
//! verbs: `run` one cell, regenerate a `fig`, `report` on a trace, and
//! `compare` two reports.
//!
//! ```text
//! arcs-sim run [options]        one (workload, cap, strategy) cell against the default
//!   --workload APP[.CLASS]      bt | sp | cg | ep | mg | mc | lulesh, class suffix
//!                               S|W|A|B|C (default sp.B; lulesh is mesh 45)
//!   --machine crill|minotaur    (default crill)
//!   --machine-file PATH         load a custom machine JSON (see Machine::to_json)
//!   --cap WATTS                 package power cap (default TDP)
//!   --strategy NAME             default | online (Nelder–Mead) | pro | exhaustive
//!                               (one training pass) | offline (train, then
//!                               replay) | adaptive (default config + the
//!                               intra-run schedule ladder); default online
//!   --objective time|energy|edp score the run by this objective (default time)
//!   --timesteps N               override the workload's step count (N ≥ 1)
//!   --selective SECONDS         tune only regions at least this long
//!   --save-history PATH         write the searched/trained history file
//!   --load-history PATH         offline: replay this history instead of training
//!   --plan NAME                 flaky-rapl | rapl-outage | cap-storm: inject this
//!                               fault plan under the standard resilience ladder
//!   --seed N                    fault-plan seed (default 0; needs --plan)
//!   --budget N|none             hard-fault error budget (default 16; `none` makes
//!                               hard faults run errors; needs --plan)
//!   --json                      emit the full AppRunReport as JSON
//!   --trace PATH                write the run's JSONL event trace here
//!   --chrome PATH               also export a Chrome trace (chrome://tracing)
//!   --check                     re-validate the emitted JSONL against the schema
//!   --self-profile              emit a DriverPhases span summary into the
//!                               trace so `report` prints a self-profile
//!
//! arcs-sim fig <id>... | --all [options]      regenerate paper artefacts
//!   <id>                        table1 | fig1 … fig10 | table2 | overheads |
//!                               xarch | ablation |
//!                               extension_{dvfs,noise,suite,schedule}
//!                               (`arcs-sim fig` alone lists them)
//!   --all                       every artefact, in paper order
//!   --out DIR                   write DIR/<id>.txt instead of stdout
//!                               (`--all --out results` regenerates results/)
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
//! ```
//!
//! Examples:
//! ```sh
//! arcs-sim run --workload sp.B --cap 85 --strategy offline
//! arcs-sim run --workload lulesh --strategy online --selective 0.03 --json
//! arcs-sim run --workload sp.B --cap 80 --trace sp.trace.jsonl && arcs-sim report sp.trace.jsonl
//! arcs-sim run --workload lulesh --cap 60 --plan flaky-rapl --seed 7 --timesteps 40
//! arcs-sim fig extension_schedule
//! ```
//!
//! Each verb is one module, and `main` is one `match` on the first
//! argument. Every verb, like the three `arcs-serve` binaries, parses
//! with the one `arcs::cli::Flags` reader: a missing or unparsable value
//! or an unknown flag prints the reason, then that command's usage, and
//! exits 2. Files are written through one `write_or_exit`.

mod compare;
mod fig;
mod report;
mod run;

use std::fmt::Arguments;
use std::path::Path;
use std::process::exit;

/// Write an output file and say `done` on stderr, or exit 1 naming the path.
fn write_or_exit(path: &Path, bytes: impl AsRef<[u8]>, done: Arguments) {
    if let Err(e) = std::fs::write(path, bytes) {
        eprintln!("cannot write {path:?}: {e}");
        exit(1)
    }
    eprintln!("{done}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("run") => run::main(&argv[1..]),
        Some("fig") => fig::main(&argv[1..]),
        Some("report") => report::main(&argv[1..]),
        Some("compare") => compare::main(&argv[1..]),
        _ => {
            eprintln!("usage: arcs-sim <run|fig|report|compare> [options]");
            exit(2)
        }
    }
}
