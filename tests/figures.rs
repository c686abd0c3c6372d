//! `results/<id>.txt` is generated output: every row of
//! [`arcs_bench::FIGURES`] must render — twice, so any run-to-run variance
//! shows — exactly the bytes checked in under `results/`.

use arcs_bench::{Figure, FIGURES};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const REGENERATE: &str = "cargo run --release -p arcs-bench -- fig --all --out results";

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn render(fig: &Figure) -> String {
    let mut bytes = Vec::new();
    fig.render(&mut bytes).expect("rendering into memory");
    String::from_utf8(bytes).expect("figures are UTF-8")
}

/// Panic naming the figure and the first line where `rendered` departs
/// from `expected`.
fn assert_same(id: &str, expected_from: &str, expected: &str, rendered: &str) {
    if expected == rendered {
        return;
    }
    let same = expected.lines().zip(rendered.lines()).take_while(|(a, b)| a == b).count();
    let (want, got) = (expected.lines().nth(same), rendered.lines().nth(same));
    let line = same + 1;
    panic!(
        "figure `{id}` differs from {expected_from} at line {line}:\n  \
         expected: {want:?}\n  rendered: {got:?}\nregenerate with `{REGENERATE}`"
    );
}

#[test]
fn every_figure_renders_its_checked_in_bytes_every_time() {
    for fig in FIGURES {
        let first = render(fig);
        assert_same(fig.id, "its own second render", &first, &render(fig));
        let path = results_dir().join(format!("{}.txt", fig.id));
        let checked_in = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{path:?}: {e} — regenerate with `{REGENERATE}`"));
        assert_same(fig.id, &format!("results/{}.txt", fig.id), &checked_in, &first);
    }
}

#[test]
fn the_registry_and_the_results_directory_name_the_same_figures() {
    let ids: BTreeSet<String> = FIGURES.iter().map(|f| f.id.to_string()).collect();
    assert_eq!(ids.len(), FIGURES.len(), "figure ids must be unique");
    let stems: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .map(|p| p.file_stem().expect("a file name").to_string_lossy().into_owned())
        .collect();
    assert_eq!(ids, stems, "results/*.txt and FIGURES disagree — `{REGENERATE}`");
}

/// README.md quotes the scheduling-portfolio table of
/// `results/extension_schedule.txt`, as `# `-prefixed lines under the
/// `fig extension_schedule` command. The quote must be the file's table,
/// from its `schedule portfolio:` line to its end, so the sample cannot
/// drift from the byte-gated output.
#[test]
fn the_readme_portfolio_sample_is_the_checked_in_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md exists");
    let quoted: Vec<&str> = readme
        .lines()
        .skip_while(|l| !l.ends_with("fig extension_schedule"))
        .skip(1)
        .take_while(|l| *l != "```")
        .map(|l| l.strip_prefix("# ").unwrap_or_else(|| panic!("unquoted sample line {l:?}")))
        .collect();
    assert!(!quoted.is_empty(), "README.md quotes no `fig extension_schedule` sample");
    let checked_in = std::fs::read_to_string(results_dir().join("extension_schedule.txt"))
        .expect("results/extension_schedule.txt exists");
    let table: Vec<&str> =
        checked_in.lines().skip_while(|l| !l.starts_with("schedule portfolio:")).collect();
    assert_eq!(quoted, table, "README.md's portfolio sample differs from the checked-in table");
}
