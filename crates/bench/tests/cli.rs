//! The `arcs-sim` command-line contract: four verbs, every malformed
//! invocation is a usage error (exit 2, that verb's usage on stderr), the
//! retired subcommands are gone, `run` reproduces the bytes they printed,
//! and `fig` prints and writes the checked-in bytes.

#[path = "../../../tests/golden/mod.rs"]
mod golden;

use arcs::report::AppRunReport;
use arcs_bench::FIGURES;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn arcs_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_arcs-sim")).args(args).output().expect("spawning arcs-sim")
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

const VERBS: &str = "usage: arcs-sim <run|fig|report|compare>";
const RUN: &str = "usage: arcs-sim run";
const REPORT: &str = "usage: arcs-sim report";
const COMPARE: &str = "usage: arcs-sim compare";
const FIG: &str = "usage: arcs-sim fig";

/// (arguments, the usage line stderr must carry). Per verb: an unknown
/// flag, a flag missing its value, an unparsable value.
const USAGE_ERRORS: &[(&[&str], &str)] = &[
    (&[], VERBS),
    (&["nosuch"], VERBS),
    // The retired subcommands are usage errors now, not aliases.
    (&["trace", "--workload", "sp.B"], VERBS),
    (&["chaos", "--plan", "flaky-rapl"], VERBS),
    (&["schedule", "--workload", "mc.B"], VERBS),
    (&["sp", "--class", "B", "--cap", "85"], VERBS),
    (&["run", "--nope"], RUN),
    (&["run", "--cap"], RUN),
    (&["run", "--cap", "abc"], RUN),
    // A cap with no operating point: NaN, infinite, zero or negative.
    (&["run", "--workload", "sp.B", "--cap", "nan"], RUN),
    (&["run", "--cap", "inf"], RUN),
    (&["run", "--cap", "0"], RUN),
    (&["run", "--cap", "-85"], RUN),
    (&["run", "--objective", "speed"], RUN),
    (&["run", "--workload", "nosuch"], RUN),
    (&["run", "--class", "B"], RUN),
    (&["run", "--strategy", "nelder-mead"], RUN),
    (&["run", "--strategy", "offline-pro"], RUN),
    (&["run", "--strategy", "online", "--load-history", "h.json"], RUN),
    (&["run", "--strategy", "default", "--save-history", "h.json"], RUN),
    // A selective threshold only shapes a search.
    (&["run", "--strategy", "default", "--selective", "0.03"], RUN),
    (&["run", "--strategy", "adaptive", "--selective", "0.03"], RUN),
    // A run of no timesteps measures nothing (and trains nothing).
    (&["run", "--timesteps", "0"], RUN),
    (&["run", "--strategy", "offline", "--timesteps", "0"], RUN),
    (&["run", "--seed", "7"], RUN),
    // Self-profile spans go into the trace, so they need one.
    (&["run", "--self-profile"], RUN),
    (&["run", "--plan", "nosuch"], RUN),
    (&["run", "--plan", "flaky-rapl", "--budget", "x"], RUN),
    (&["report"], REPORT),
    (&["report", "t.jsonl", "--nope"], REPORT),
    (&["report", "t.jsonl", "--out"], REPORT),
    (&["report", "t.jsonl", "--objective", "speed"], REPORT),
    (&["report", "a.jsonl", "b.jsonl"], REPORT),
    (&["compare", "a.json"], COMPARE),
    (&["compare", "a.json", "b.json", "--nope"], COMPARE),
    (&["compare", "a.json", "b.json", "--fail-on"], COMPARE),
    (&["compare", "a.json", "b.json", "--fail-on", "x"], COMPARE),
    // The superseded bench path is a usage error too (the retired flag is
    // spelled in halves so a tree-wide grep for it stays empty).
    (&["bench"], VERBS),
    (&["bench", "--runs", "2"], VERBS),
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
    assert_eq!(written.len(), 19);
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

/// What a pin holds a `run` cell's output to.
#[derive(Clone, Copy, Debug)]
enum Part {
    /// The whole `--trace` JSONL.
    Trace,
    /// The trace without its final `CacheStats` record, which `chaos`
    /// and `schedule --out` never wrote.
    TraceBeforeCacheStats,
    /// The trace without any memo-cache narration (`CacheHit`,
    /// `CacheMiss`, `CacheStats`): what the driver said, whichever cells
    /// the cache shared.
    TraceWithoutCache,
    /// The trace without `PolicyFired` records, `seq` renumbered
    /// consecutively: what everything but the APEX policy engine said.
    TraceWithoutPolicyFired,
    Stdout,
    /// The `injected …`, `recovered: …` and `status …` lines.
    FaultLines,
}

/// (cell, the retired invocation, its `run` equivalent, pinned parts).
type Cell = (&'static str, &'static str, &'static str, &'static [(Part, u64)]);

/// Every pinned hash is the FNV-1a of what the `arcs-sim` of commit
/// `2c25bed` — the last with `trace`, `chaos`, `schedule` and `<app>` —
/// printed for the invocation in the second column, with three
/// exceptions. The whole traces of `trace.pro` and `trace.exhaustive`
/// were re-pinned when the memo began keying cells by operating point:
/// their PRO and exhaustive teams run at the base clock at 80 W, those
/// cells key at an infinite cap, and the final
/// `CacheStats.shard_occupancy` moved. Their `TraceWithoutCache` pins
/// were generated by commit `244df57`, the last keyed by raw cap, and
/// show that nothing else did. The traces of `schedule` were re-pinned
/// when the adaptive ladder stopped going through a private APEX
/// instance: only its `PolicyFired { policy: "adaptive-schedule" }`
/// records left. Its `TraceWithoutPolicyFired` pin was generated by
/// commit `51d44d4`, the last with that hop, and the whole trace equals
/// it now. Every whole-trace pin but `trace.default`'s moved again when
/// the memo began keying schedules by their canonical representative
/// (`Schedule::canonical`): the same cells land in other shards, so only
/// `CacheStats.shard_occupancy` moved. The
/// `TraceWithoutCache` pins of `trace.nelder-mead`,
/// `trace.nelder-mead-energy` and `schedule` were generated by commit
/// `790b6eb`, the last keyed by the raw schedule, and show that nothing
/// else did.
const RETIRED: &[Cell] = &[
    (
        "trace.default",
        "trace --workload sp.B --cap 80 --strategy default --timesteps 6",
        "run --workload sp.B --cap 80 --strategy default --timesteps 6",
        &[(Part::Trace, 0x87ab_27d4_e882_b438)],
    ),
    (
        "trace.nelder-mead",
        "trace --workload sp.B --cap 80 --strategy nelder-mead --timesteps 6",
        "run --workload sp.B --cap 80 --strategy online --timesteps 6",
        &[(Part::Trace, 0xb31f_21f7_89d2_5fb7), (Part::TraceWithoutCache, 0x3e9e_4a64_6de0_1a8f)],
    ),
    (
        "trace.pro",
        "trace --workload sp.B --cap 80 --strategy pro --timesteps 6",
        "run --workload sp.B --cap 80 --strategy pro --timesteps 6",
        &[(Part::Trace, 0x8945_aeff_216c_49f9), (Part::TraceWithoutCache, 0x6abe_a702_8f49_6731)],
    ),
    (
        "trace.exhaustive",
        "trace --workload sp.B --cap 80 --strategy exhaustive --timesteps 6",
        "run --workload sp.B --cap 80 --strategy exhaustive --timesteps 6",
        &[(Part::Trace, 0xe367_a3fb_ab04_06ab), (Part::TraceWithoutCache, 0x029c_0013_b45a_7594)],
    ),
    (
        "trace.nelder-mead-energy",
        "trace --workload sp.B --cap 80 --strategy nelder-mead --objective energy --timesteps 6",
        "run --workload sp.B --cap 80 --objective energy --timesteps 6",
        &[(Part::Trace, 0xf0bd_d285_28c5_4e7b), (Part::TraceWithoutCache, 0x8cbc_a8f0_7a35_d663)],
    ),
    (
        "chaos.flaky-rapl",
        "chaos --workload lulesh --cap 60 --plan flaky-rapl --seed 7 --timesteps 40",
        "run --workload lulesh --cap 60 --plan flaky-rapl --seed 7 --timesteps 40",
        &[
            (Part::TraceBeforeCacheStats, 0xdf36_e0f9_2789_f94f),
            (Part::FaultLines, 0x846a_abf7_95ee_8dca),
        ],
    ),
    (
        "chaos.cap-storm",
        "chaos --workload lulesh --cap 60 --plan cap-storm --seed 7 --timesteps 40",
        "run --workload lulesh --cap 60 --plan cap-storm --seed 7 --timesteps 40",
        &[
            (Part::TraceBeforeCacheStats, 0xd20f_fe19_6366_2e01),
            (Part::FaultLines, 0xba4b_8758_6f83_0ae5),
        ],
    ),
    (
        "schedule",
        "schedule --workload mc.B --cap 115 --out PATH",
        "run --workload mc.B --cap 115 --strategy adaptive",
        &[
            (Part::TraceBeforeCacheStats, 0x2c9a_548f_9be3_700c),
            (Part::Trace, 0xe3fa_272d_c63e_fa87),
            (Part::TraceWithoutPolicyFired, 0xe3fa_272d_c63e_fa87),
            (Part::TraceWithoutCache, 0x1834_f78d_e6eb_f85e),
        ],
    ),
    (
        "app.sp-offline",
        "sp --class B --cap 85 --strategy offline --timesteps 20 --json",
        "run --workload sp.B --cap 85 --strategy offline --timesteps 20 --json",
        &[(Part::Stdout, 0x07a8_474c_2a5e_96e3)],
    ),
    (
        "app.lulesh-online",
        "lulesh --strategy online --selective 0.03 --timesteps 20 --json",
        "run --workload lulesh --strategy online --selective 0.03 --timesteps 20 --json",
        &[(Part::Stdout, 0xfe72_2ac1_5294_44f4)],
    ),
];

/// `run` emits, byte for byte, what each retired subcommand did. On a
/// mismatch the output is left in `$TMPDIR/cli_golden.<cell>.<part>.jsonl`
/// (see `tests/golden/mod.rs`).
#[test]
fn run_reproduces_the_retired_subcommands_bytes() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli-retired");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for &(cell, retired, run, parts) in RETIRED {
        let trace = dir.join(format!("{cell}.jsonl"));
        let traced = parts.iter().any(|(p, _)| !matches!(p, Part::Stdout | Part::FaultLines));
        let mut argv: Vec<&str> = run.split_whitespace().collect();
        if traced {
            argv.extend(["--trace", trace.to_str().expect("UTF-8 temp path")]);
        }
        let out = arcs_sim(&argv);
        assert!(out.status.success(), "{argv:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
        let jsonl = if traced {
            std::fs::read_to_string(&trace).expect("--trace wrote")
        } else {
            String::new()
        };
        for &(part, expected) in parts {
            let stream = match part {
                Part::Trace => jsonl.clone(),
                Part::TraceBeforeCacheStats => {
                    let (head, last) = jsonl.trim_end().rsplit_once('\n').expect("two records");
                    assert!(last.contains("\"CacheStats\""), "{cell}: ends with {last}");
                    format!("{head}\n")
                }
                Part::TraceWithoutCache => jsonl
                    .lines()
                    .filter(|l| !l.contains("\"event\":{\"Cache"))
                    .map(|l| format!("{l}\n"))
                    .collect(),
                Part::TraceWithoutPolicyFired => jsonl
                    .lines()
                    .filter(|l| !l.contains("\"event\":{\"PolicyFired\""))
                    .enumerate()
                    .map(|(seq, l)| {
                        let (head, rest) = l.split_once("\"seq\":").expect("a sequence number");
                        let (_, tail) = rest.split_once(',').expect("fields after seq");
                        format!("{head}\"seq\":{seq},{tail}\n")
                    })
                    .collect(),
                Part::Stdout => stdout.clone(),
                Part::FaultLines => stdout
                    .lines()
                    .filter(|l| {
                        ["injected ", "recovered: ", "status "].iter().any(|p| l.starts_with(p))
                    })
                    .map(|l| format!("{l}\n"))
                    .collect(),
            };
            eprintln!("{cell}: `arcs-sim {retired}` ≡ `arcs-sim {}` ({part:?})", argv.join(" "));
            golden::pin("cli_golden", &format!("{cell}.{part:?}"), &stream, expected);
        }
    }
}

/// `--selective` thresholds the measured (replayed) run of `--strategy
/// offline`, not only its training, whether the history is trained or
/// loaded: lulesh's small regions are skipped, so they stop paying the
/// instrumentation and configuration-change costs the flag exempts.
#[test]
fn offline_selective_thresholds_the_replayed_run() {
    let history = Path::new(env!("CARGO_TARGET_TMPDIR")).join("offline_selective.history.json");
    let history = history.to_str().expect("UTF-8 temp path");
    let report = |extra: &[&str]| -> AppRunReport {
        let cell = ["run", "--workload", "lulesh", "--strategy", "offline", "--timesteps", "20"];
        let out = arcs_sim(&[&cell[..], extra, &["--json"]].concat());
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("a --json report")
    };
    let skipped = |r: &AppRunReport| r.tuner.expect("tuner stats").skipped_regions;
    let plain = report(&["--save-history", history]);
    assert_eq!(skipped(&plain), 0);
    for extra in [&["--selective", "0.03"][..], &["--selective", "0.03", "--load-history", history]]
    {
        let selective = report(extra);
        assert!(skipped(&selective) > 0, "{extra:?}: {:?}", selective.tuner);
        assert!(
            selective.instrumentation_overhead_s < plain.instrumentation_overhead_s,
            "{extra:?}: skipped regions are still measured"
        );
    }
}

#[test]
fn offline_training_too_short_to_converge_is_a_run_error() {
    let cell = |t: &str| {
        arcs_sim(&["run", "--workload", "sp.S", "--strategy", "offline", "--timesteps", t])
    };
    let short = cell("3");
    let stderr = String::from_utf8_lossy(&short.stderr);
    assert_eq!(short.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("5 region(s) still searching after 64 training passes"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(cell("4").status.success());
}
