//! End-to-end contract of intra-run adaptive schedule switching
//! (`Runner::adaptive`): on the Monte-Carlo workload the ladder must
//! observe the default static partition's imbalance, escalate to a
//! self-scheduling policy mid-run with the full §III-C paper trail
//! (`ConfigSwitch` + overhead + `PolicySwitched`), decide exactly what an
//! independent ladder replaying the run's imbalances decides, and land
//! within reach of the best fixed policy — all byte-reproducibly.

use arcs::{OmpConfig, Runner, SimExecutor};
use arcs_apex::AdaptiveLadder;
use arcs_kernels::{model, Class};
use arcs_omprt::{Schedule, ScheduleKind};
use arcs_powersim::Machine;
use arcs_trace::{to_jsonl, TraceEvent, VecSink};
use std::sync::Arc;

fn mc() -> arcs_powersim::WorkloadDescriptor {
    model::mc(Class::B)
}

fn fixed_run(wl: &arcs_powersim::WorkloadDescriptor, kind: ScheduleKind) -> f64 {
    let mut exec = SimExecutor::new(Machine::crill(), 115.0);
    let cfg = OmpConfig { threads: 32, schedule: Schedule::new(kind, None) };
    Runner::new(&mut exec).workload(wl).fixed(move |_| cfg, kind.name()).run().unwrap().time_s
}

fn adaptive_run(
    wl: &arcs_powersim::WorkloadDescriptor,
) -> (arcs::AppRunReport, Vec<arcs_trace::TraceRecord>) {
    let sink = Arc::new(VecSink::new());
    let mut exec = SimExecutor::new(Machine::crill(), 115.0);
    let default_cfg = OmpConfig::default_for(&exec.machine);
    let rep = Runner::new(&mut exec)
        .workload(wl)
        .adaptive(move |_| default_cfg, "adaptive")
        .trace(sink.clone())
        .run()
        .unwrap();
    (rep, sink.drain())
}

/// The headline contract: an adaptive default run on MC discovers the
/// static block partition's front-loaded imbalance and escalates the
/// tracking region up the portfolio ladder, beating the plain default
/// run and landing within 10% of the best fixed policy (while clearing
/// the worst fixed policy by a wide margin).
#[test]
fn adaptive_schedule_escalates_and_beats_the_default() {
    let wl = mc();
    let mut exec = SimExecutor::new(Machine::crill(), 115.0);
    let base = Runner::new(&mut exec).workload(&wl).run().unwrap();
    let (adaptive, records) = adaptive_run(&wl);

    // The ladder must actually fire: at least one PolicySwitched on the
    // imbalanced tracking region, stepping off the configured policy.
    let switches: Vec<_> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::PolicySwitched { region, from, to, invocation, imbalance } => {
                Some((region.clone(), from.clone(), to.clone(), *invocation, *imbalance))
            }
            _ => None,
        })
        .collect();
    assert!(!switches.is_empty(), "the ladder never fired");
    let (region, from, to, invocation, imbalance) = &switches[0];
    assert_eq!(region, "mc/cycle_tracking");
    assert_eq!(from, "static");
    assert_eq!(to, ScheduleKind::SELF_SCHEDULING[0].name());
    assert!(*invocation >= 1, "needs at least one observation");
    assert!(*imbalance > 0.15, "switched below threshold: {imbalance}");
    // The balanced companion region must never escalate.
    assert!(switches.iter().all(|s| s.0 != "mc/population_control"));

    // Every switch is applied through the §III-C machinery.
    let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
    assert_eq!(count("ConfigSwitch"), switches.len());
    assert!(count("OverheadCharged") >= switches.len());
    assert!(adaptive.config_change_overhead_s > 0.0);

    // An independent replay: a fresh ladder fed each `RegionEnd`'s
    // barrier share, in trace order, takes exactly the recorded decisions.
    // Arm 0 is the configured (static) policy, arm k the k-th
    // self-scheduling family.
    let mut ladder = AdaptiveLadder::new(1 + ScheduleKind::SELF_SCHEDULING.len());
    let policy = |arm: usize| match arm {
        0 => "static".to_string(),
        k => ScheduleKind::SELF_SCHEDULING[k - 1].name().to_string(),
    };
    let mut replayed = Vec::new();
    for r in &records {
        if let TraceEvent::RegionEnd { region, busy_s, barrier_s, .. } = &r.event {
            if let Some(sw) = ladder.observe(region, barrier_s / (busy_s + barrier_s)) {
                let (from, to) = (policy(sw.from), policy(sw.to));
                replayed.push((region.clone(), from, to, sw.invocation, sw.imbalance.to_bits()));
            }
        }
    }
    let recorded: Vec<_> = switches
        .iter()
        .map(|(region, from, to, inv, imb)| {
            (region.clone(), from.clone(), to.clone(), *inv, imb.to_bits())
        })
        .collect();
    assert_eq!(replayed, recorded);

    // RegionBegin's chunk_policy narrates the journey: static at first,
    // the ladder's landing policy at the end.
    let policies: Vec<&str> = records
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::RegionBegin { region, chunk_policy, .. }
                if region == "mc/cycle_tracking" =>
            {
                Some(chunk_policy.as_str())
            }
            _ => None,
        })
        .collect();
    assert_eq!(policies.first(), Some(&"static"));
    assert_ne!(policies.last(), Some(&"static"));

    // Payoff: adaptive beats the un-adapted default run outright.
    assert!(
        adaptive.time_s < base.time_s * 0.95,
        "adaptive {} vs default {}",
        adaptive.time_s,
        base.time_s
    );
}

/// Against the fixed-policy portfolio: adaptive must match the best fixed
/// policy within 10% (it pays a few bad invocations plus switch overhead)
/// and beat the worst by at least 10%.
#[test]
fn adaptive_schedule_lands_near_the_best_fixed_policy() {
    let wl = mc();
    let times: Vec<(ScheduleKind, f64)> =
        ScheduleKind::ALL.iter().map(|&k| (k, fixed_run(&wl, k))).collect();
    let best = times.iter().map(|(_, t)| *t).fold(f64::INFINITY, f64::min);
    let worst = times.iter().map(|(_, t)| *t).fold(0.0, f64::max);
    let (adaptive, _) = adaptive_run(&wl);
    assert!(
        adaptive.time_s <= best * 1.10,
        "adaptive {} vs best fixed {best} ({times:?})",
        adaptive.time_s
    );
    assert!(
        adaptive.time_s <= worst * 0.90,
        "adaptive {} vs worst fixed {worst} ({times:?})",
        adaptive.time_s
    );
}

/// Ladder decisions are pure functions of the deterministic imbalance
/// stream: two identical adaptive runs serialize to byte-identical JSONL.
#[test]
fn adaptive_runs_are_byte_reproducible() {
    let wl = mc();
    let (a_rep, a) = adaptive_run(&wl);
    let (b_rep, b) = adaptive_run(&wl);
    assert_eq!(a_rep.time_s, b_rep.time_s);
    assert_eq!(to_jsonl(&a).unwrap(), to_jsonl(&b).unwrap());
}
