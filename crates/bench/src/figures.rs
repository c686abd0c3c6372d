//! The experiment registry: every table and figure of the paper's
//! evaluation (plus this repo's extensions) as one row of [`FIGURES`].
//!
//! Render functions are grouped by family (`regions`, `sweeps`,
//! `framework`, `extensions`) and hand-roll no experiment loop:
//! application-level figures build a [`arcs::SweepGrid`], run it on a
//! [`arcs::SweepEngine`] and read it back through shared row builders.
//! Every render is a pure function of the code; fig2's live invocation
//! counts go to stderr, never to the writer.

mod extensions;
mod framework;
mod regions;
mod sweeps;

use std::io::{self, Write};

/// One paper artefact: what it is, what the paper showed, and the pure
/// function that regenerates it. `id` is the `arcs-sim fig` argument and
/// the `results/<id>.txt` file stem.
pub struct Figure {
    pub id: &'static str,
    pub title: &'static str,
    /// What the paper reported, for the reader comparing against it.
    pub claim: &'static str,
    body: fn(&mut dyn Write) -> io::Result<()>,
}

impl Figure {
    /// Write the artefact: the standard header, then the figure's rows.
    /// The bytes are a pure function of the code — `tests/figures.rs`
    /// holds them equal to `results/<id>.txt`.
    pub fn render(&self, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "=== {} ===", self.title)?;
        writeln!(out, "paper: {}", self.claim)?;
        writeln!(out, "(simulated Crill/Minotaur; see EXPERIMENTS.md for the comparison)")?;
        (self.body)(out)
    }
}

/// Every artefact, in paper order.
pub const FIGURES: &[Figure] = &[
    Figure {
        id: "table1",
        title: "Table I",
        claim: "set of ARCS search parameters for OpenMP parallel regions",
        body: regions::table1,
    },
    Figure {
        id: "fig1",
        title: "Fig. 1",
        claim: "BT x_solve: optimal config differs from default at every power level; \
                optimal at 70W ~ beats default at TDP",
        body: regions::fig1,
    },
    Figure {
        id: "fig2",
        title: "Fig. 2",
        claim: "ARCS framework, based on the original APEX design",
        body: framework::fig2,
    },
    Figure {
        id: "table2",
        title: "Table II",
        claim: "optimal configs for SP regions at TDP, e.g. compute_rhs: 16,guided,8; \
                x_solve: 16,guided,1; y_solve: 8,static,default; z_solve: 4,static,32",
        body: regions::table2,
    },
    Figure {
        id: "fig3",
        title: "Fig. 3",
        claim: "SP regions: ARCS cuts OMP_BARRIER by >50% (up to >80% in z_solve) and \
                improves L1/L2/L3 miss rates, the largest gains in L3",
        body: regions::fig3,
    },
    Figure {
        id: "fig4",
        title: "Fig. 4",
        claim: "SP.B: ARCS beats default by 26-40% in time at every power level; \
                energy improves up to ~40%",
        body: sweeps::fig4,
    },
    Figure {
        id: "fig5",
        title: "Fig. 5",
        claim: "SP class C at TDP: time improves up to ~40%, energy up to ~42%; the \
                chosen configurations differ from class B (workload-dependence)",
        body: sweeps::fig5,
    },
    Figure {
        id: "fig6",
        title: "Fig. 6",
        claim: "BT compute_rhs (the only BT region with headroom): ~80% OMP_BARRIER \
                improvement and better L3 behaviour with the ARCS config",
        body: regions::fig6,
    },
    Figure {
        id: "fig7",
        title: "Fig. 7",
        claim: "BT.B: improvements are small at every power level (best ~3% offline); \
                ARCS-Online is sometimes WORSE than default (overhead offsets gains)",
        body: sweeps::fig7,
    },
    Figure {
        id: "fig8",
        title: "Fig. 8",
        claim: "LULESH on Crill: Offline wins slightly at 55W and TDP, loses in between; \
                Online loses everywhere; energy improves at all levels (max ~26%). \
                On Minotaur: Offline ~+14%, Online small gain",
        body: sweeps::fig8,
    },
    Figure {
        id: "fig9",
        title: "Fig. 9",
        claim: "LULESH top regions: EvalEOSForElems has the largest inclusive time but \
                spends most of it in OMP_BARRIER; Kinematics/MonotonicQ are near \
                perfectly balanced; per-call times of EvalEOS/CalcPressure are tiny",
        body: regions::fig9,
    },
    Figure {
        id: "fig10",
        title: "Fig. 10",
        claim: "CalcFBHourglassForceForElems: the ARCS config (paper: 4,guided,32) \
                drives OMP_BARRIER to ~zero and improves L1/L3 miss rates",
        body: regions::fig10,
    },
    Figure {
        id: "overheads",
        title: "§III-C overheads",
        claim: "config change ≈ 8 ms/region call on Crill; search overhead up to ~10% \
                of total execution time; overheads dominate tiny LULESH regions",
        body: framework::overheads,
    },
    Figure {
        id: "xarch",
        title: "§V cross-architecture (Minotaur, POWER8)",
        claim: "SP.B: ~37% execution-time improvement vs default; BT.B: only Offline \
                achieves ~8%; evaluation is time-only (no capping privilege)",
        body: sweeps::xarch,
    },
    Figure {
        id: "ablation",
        title: "Ablations",
        claim: "future work §VII: 'enable selective tuning for OpenMP regions to avoid \
                overheads on the smaller regions' — implemented and measured here",
        body: extensions::ablation,
    },
    Figure {
        id: "extension_dvfs",
        title: "Extension: per-region DVFS",
        claim: "§VII future work — 'we plan to include this [DVFS] policy'. \
                Memory-bound regions clock down below the cap at little time cost",
        body: extensions::dvfs,
    },
    Figure {
        id: "extension_noise",
        title: "Extension: measurement noise",
        claim: "near-tie argmins under 15% noise → the paper's config diversity; \
                regret of noisy-trained configs on the clean simulator",
        body: extensions::noise,
    },
    Figure {
        id: "extension_suite",
        title: "Extension: CG and EP",
        claim: "beyond the paper's three apps — the suite's extremes: irregular \
                CG (tiny regions: overhead pathology), embarrassingly-parallel EP \
                (no headroom: the negative control), and multigrid MG (one region \
                at many scales: coarse levels are pure overhead under ARCS)",
        body: sweeps::extension_suite,
    },
    Figure {
        id: "extension_schedule",
        title: "Extension: scheduling-policy portfolio",
        claim: "beyond the paper's static/dynamic/guided axis — trapezoid, factoring and \
                AWF as fixed policies, and an adaptive ladder that escalates a region's \
                policy mid-run when its measured imbalance persists",
        body: extensions::schedule,
    },
];

/// The four tuned SP regions (Table II, Figs. 3 and 5, the noise study).
const SP_REGIONS: [&str; 4] = ["sp/compute_rhs", "sp/x_solve", "sp/y_solve", "sp/z_solve"];
