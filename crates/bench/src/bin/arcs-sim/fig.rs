//! `arcs-sim fig`: regenerate paper artefacts from the
//! [`arcs_bench::FIGURES`] registry — to stdout, or one `<id>.txt` per
//! figure under `--out DIR` (`fig --all --out results` rewrites the
//! checked-in files).

use crate::write_or_exit;
use arcs::cli::Flags;
use arcs_bench::{Figure, FIGURES};
use std::io::Write;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!("usage: arcs-sim fig <id>... | --all [--out DIR]");
    for fig in FIGURES {
        eprintln!("  {:16} {}", fig.id, fig.title);
    }
    exit(2)
}

pub fn main(argv: &[String]) {
    let mut ids: Vec<&str> = Vec::new();
    let mut all = false;
    let mut out: Option<PathBuf> = None;

    let mut flags = Flags::new(argv, usage);
    while let Some(arg) = flags.next() {
        match arg {
            "--all" => all = true,
            "--out" => out = Some(flags.value("--out")),
            flag if flag.starts_with("--") => flags.unknown(flag),
            _ => ids.push(arg),
        }
    }
    // Exactly one way of choosing: ids or `--all`.
    if all != ids.is_empty() {
        usage()
    }
    let chosen: Vec<&Figure> = if all {
        FIGURES.iter().collect()
    } else {
        ids.iter()
            .map(|id| {
                FIGURES.iter().find(|fig| fig.id == *id).unwrap_or_else(|| {
                    eprintln!("unknown figure {id}");
                    usage()
                })
            })
            .collect()
    };

    if let Some(dir) = &out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir:?}: {e}");
            exit(1)
        }
    }
    for fig in chosen {
        let mut bytes = Vec::new();
        fig.render(&mut bytes).expect("writing to memory cannot fail");
        match &out {
            Some(dir) => {
                let path = dir.join(format!("{}.txt", fig.id));
                write_or_exit(&path, &bytes, format_args!("{} written to {path:?}", fig.id));
            }
            None => {
                if let Err(e) = std::io::stdout().write_all(&bytes) {
                    eprintln!("cannot write to stdout: {e}");
                    exit(1)
                }
            }
        }
    }
}
