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
