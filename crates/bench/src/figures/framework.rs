//! The framework itself: the Fig. 2 wiring self-check and the §III-C
//! overhead characterisation.

use crate::{print_table, PAPER_STRATEGIES};
use arcs::{
    ArcsLive, ChunkChoice, ConfigSpace, OmpConfig, Runner, SimExecutor, SweepEngine, SweepGrid,
    ThreadChoice, TunerOptions,
};
use arcs_kernels::{model, Class};
use arcs_omprt::{Runtime, ScheduleKind};
use arcs_powersim::Machine;
use std::io::{self, Write};
use std::sync::Arc;

/// Fig. 2: the ARCS framework wiring — reproduced as an executable
/// self-check. Instead of a drawing, this drives one region through the
/// full chain (application → runtime → OMPT → APEX timers → policy engine
/// → Active Harmony session → runtime knobs) on real threads, asserts
/// every hop fired, then prints the verified diagram. What the live run
/// measured (how many invocations the search took, where it settled)
/// depends on the host's timing, so it goes to stderr, not into the
/// artefact.
pub fn fig2(out: &mut dyn Write) -> io::Result<()> {
    let rt = Arc::new(Runtime::new(2));
    let space = ConfigSpace {
        threads: vec![ThreadChoice::Count(1), ThreadChoice::Default],
        // Schedule axis from the centralized portfolio listing (first two
        // classic families — the 2-thread demo pool keeps the space tiny).
        schedules: ConfigSpace::schedule_choices(&ScheduleKind::CLASSIC[..2]),
        chunks: vec![ChunkChoice::Size(8), ChunkChoice::Default],
        default_threads: 2,
        freqs_ghz: Vec::new(),
    };
    let live = ArcsLive::attach(Arc::clone(&rt), TunerOptions::online(space));

    let region = rt.register_region("fig2/selfcheck");
    let mut invocations = 0;
    loop {
        rt.parallel_for(region, 0..64, |i| {
            std::hint::black_box(i);
        });
        invocations += 1;
        if live.converged() || invocations >= 60 {
            break;
        }
    }

    // Every hop of the chain observable from the outside:
    let stats = live.stats();
    assert_eq!(stats.invocations, invocations, "OMPT→APEX→policy→tuner saw every fork");
    assert!(stats.config_changes > 0, "the policy drove the runtime knobs");
    let task = live.apex().task("fig2/selfcheck");
    let profile = live.apex().profile(task).expect("APEX profiled the region");
    assert_eq!(profile.count as u64, invocations);
    assert!(live.converged(), "the Harmony session converged");
    let best = live.best_configs()["fig2/selfcheck"];
    eprintln!(
        "fig2: {invocations} invocations, {} configuration changes, converged on [{best}]",
        stats.config_changes
    );

    writeln!(
        out,
        r#"
 Application ──fork──► omprt Runtime ══events══► OMPT adapter
      ▲                     ▲                        │ start/stop
      │                     │ set_num_threads        ▼
   results                  │ set_schedule       APEX timers ──► profiles
      │                     │                        │
      └───────── join ◄─────┘           APEX Policy Engine (OnTimerStart/Stop)
                                                     │ ask/tell
                                                     ▼
                                        Active Harmony session (Nelder–Mead)
"#
    )?;
    writeln!(out, "self-check passed:")?;
    writeln!(out, "  every invocation observed at every hop")?;
    writeln!(out, "  configuration changes applied through the runtime knobs")?;
    writeln!(out, "  the Harmony session converged")
}

/// §III-C: overhead characterisation — configuration-change,
/// instrumentation, and search overheads.
pub fn overheads(out: &mut dyn Write) -> io::Result<()> {
    let m = Machine::crill();
    writeln!(
        out,
        "\nconfiguration-change overhead: {:.4}s per region invocation",
        m.config_change_s
    )?;
    writeln!(
        out,
        "instrumentation overhead:      {:.4}s per region invocation",
        m.instrumentation_s
    )?;

    let grid = SweepGrid::new(m.clone())
        .workload(model::bt(Class::B))
        .workload(model::sp(Class::B))
        .workload(model::lulesh(45))
        .caps(&[115.0])
        .strategies(&PAPER_STRATEGIES);
    let sweep = SweepEngine::new(m.clone()).run(&grid);
    let mut rows = Vec::new();
    // One cap, so each workload's cells are its three strategies in order.
    for (wl, cells) in grid.workloads.iter().zip(sweep.cells.chunks(PAPER_STRATEGIES.len())) {
        let [base, online, offline] = cells else { unreachable!("one cell per strategy") };
        let history = offline.history.as_ref().expect("offline cells carry their history");
        let (base, online, offline) = (&base.report, &online.report, &offline.report);
        // Search overhead: extra region time spent on sub-optimal configs,
        // relative to replaying the final configs for the whole run.
        let replay = Runner::new(&mut SimExecutor::new(m.clone(), 115.0))
            .workload(wl)
            .fixed(
                |r| history.get(r).map(|e| e.config).unwrap_or_else(|| OmpConfig::default_for(&m)),
                "oracle-replay",
            )
            .run()
            .expect("workload is set");
        let search_overhead = (online.time_s - online.total_overhead_s() - replay.time_s).max(0.0);
        let share = |part_s: f64, of: &arcs::AppRunReport| {
            format!("{:.2}s ({:.1}%)", part_s, 100.0 * part_s / of.time_s)
        };
        rows.push(vec![
            wl.name.clone(),
            format!("{:.1}s", base.time_s),
            share(online.config_change_overhead_s, online),
            share(online.instrumentation_overhead_s, online),
            share(search_overhead, online),
            share(offline.config_change_overhead_s, offline),
        ]);
    }
    print_table(
        out,
        "Overheads by application (ARCS-Online unless noted)",
        &[
            "App",
            "default time",
            "config-change",
            "instrumentation",
            "search",
            "offline cfg-change",
        ],
        &rows,
    )
}
