//! Pure arbitration: every *decision* the broker takes about admission,
//! placement, back-off and the division of the budget, as a function of
//! its arguments alone.
//!
//! Nothing here holds broker state, reads the virtual clock, records an
//! event or sees a job map: [`crate::broker`] gathers the inputs, calls
//! in, applies the answer and emits what happened. Each rule is therefore
//! stated once and can be checked directly — by the table tests below, by
//! the property test in `tests/serve_arbitration.rs`, and by a reference
//! broker that recomputes every decision from scratch.
//!
//! * **Admission** — [`admit`]: a job is refused only if it could *never*
//!   run.
//! * **Placement** — [`pick_node`] over [`effective_floor`]: the FIFO
//!   head takes the first free node that can host it within the budget.
//! * **Back-off** — [`backoff_s`]: how long a crash-requeued job sits out.
//! * **Fair share** — [`claims`] then [`water_fill`]: every floor first,
//!   the surplus by tenant weight.

use crate::job::JobSpec;
use arcs_powersim::{Fleet, FleetNode};
use std::collections::BTreeMap;

/// Node-level allocations move in steps of this many watts (above each
/// job's floor). Coarse steps keep reallocation churn out of the
/// simulator's per-cap memo-cache key space.
pub const ALLOC_QUANTUM_W: f64 = 0.25;

/// The most timesteps one job may ask for: 33× the longest default
/// workload (lulesh, 300). Without a bound one `submit` could admit a
/// job so long that draining the broker never ends.
pub const MAX_JOB_TIMESTEPS: usize = 10_000;

/// Tolerance for budget comparisons (float sums of quantized watts).
pub(crate) const EPS_W: f64 = 1e-6;

/// The node-level floor a job asking for `requested_w` would hold on
/// `node` — the larger of its request and the node's RAPL floor — or
/// `None` when the request tops what the node can absorb at all.
pub fn effective_floor(requested_w: f64, node: &FleetNode) -> Option<f64> {
    (requested_w <= node.max_cap_w() + EPS_W).then(|| requested_w.max(node.min_cap_w()))
}

/// Admission control: `(floor_w, verdict)`. `floor_w` is the cheapest
/// effective floor over the nodes that could host the job at all (the
/// bare request when none can) — what `JobSubmitted` records either way.
/// `resolves` says whether `spec.workload` names a workload: the broker
/// asks its quantum memo, which parses each spec once, so admission never
/// builds a workload model. The verdict refuses only what could never
/// run, most specific reason first: no fleet, unknown workload, more than
/// [`MAX_JOB_TIMESTEPS`] timesteps, a floor above every node's maximum, a
/// floor above the whole budget.
pub fn admit(
    spec: &JobSpec,
    resolves: bool,
    fleet: &Fleet,
    budget_w: f64,
) -> (f64, Result<(), String>) {
    let requested_w = spec.requested_floor_w();
    let min_floor =
        fleet.nodes().iter().filter_map(|n| effective_floor(requested_w, n)).reduce(f64::min);
    let floor_w = min_floor.unwrap_or(requested_w);
    let verdict = if fleet.is_empty() {
        Err("the fleet has no nodes".to_string())
    } else if !resolves {
        Err(format!("unknown workload {:?}", spec.workload))
    } else if spec.timesteps > MAX_JOB_TIMESTEPS {
        Err(format!("{} timesteps exceed the per-job limit of {MAX_JOB_TIMESTEPS}", spec.timesteps))
    } else if min_floor.is_none() {
        Err("floor cap exceeds every node's capacity".to_string())
    } else if floor_w > budget_w + EPS_W {
        Err("floor cap exceeds the global budget".to_string())
    } else {
        Ok(())
    };
    (floor_w, verdict)
}

/// Where the job at the head of the queue goes: the first of `free` (in
/// the order given) that can host `requested_w` with its effective floor
/// still inside the budget, `committed_w` being Σ running floors. `None`
/// means the head waits — the caller must not look past it (no skipping:
/// a large job is not starved by smaller ones slipping by).
pub fn pick_node<'a>(
    free: impl IntoIterator<Item = &'a FleetNode>,
    committed_w: f64,
    requested_w: f64,
    budget_w: f64,
) -> Option<u64> {
    free.into_iter()
        .find(|n| {
            effective_floor(requested_w, n)
                .is_some_and(|floor_w| committed_w + floor_w <= budget_w + EPS_W)
        })
        .map(|n| n.id)
}

/// Deterministic exponential back-off after a crash: `base_s` doubled per
/// placement already consumed (`attempts` counts the one just lost),
/// capped at 64× the base.
pub fn backoff_s(base_s: f64, attempts: u64) -> f64 {
    base_s * 2f64.powi(attempts.saturating_sub(1).min(6) as i32)
}

/// One running job's claim on the budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// Pinned minimum: the job never holds less.
    pub floor_w: f64,
    /// Node hardware maximum: the job never holds more.
    pub max_w: f64,
    /// Share of the surplus; 0 pins the job at its floor (degraded).
    pub weight: f64,
}

/// One [`Claim`] per running job, in the order given, written over
/// `claims`. `running` yields `(tenant, degraded, floor_w, max_w)`. A
/// tenant's weight (1 when `tenant_weights` does not know it) is split
/// evenly across its running jobs, so more jobs never buy a tenant more
/// aggregate share; a degraded job earns no surplus at all. The jobs are
/// counted into `tenant_jobs`, which keeps one entry per tenant it has
/// seen, so a caller that keeps it allocates only for a new tenant.
pub fn claims<'a>(
    tenant_weights: &BTreeMap<String, f64>,
    running: impl Iterator<Item = (&'a str, bool, f64, f64)> + Clone,
    tenant_jobs: &mut BTreeMap<String, f64>,
    claims: &mut Vec<Claim>,
) {
    tenant_jobs.values_mut().for_each(|n| *n = 0.0);
    for (tenant, ..) in running.clone() {
        match tenant_jobs.get_mut(tenant) {
            Some(n) => *n += 1.0,
            None => {
                tenant_jobs.insert(tenant.to_string(), 1.0);
            }
        }
    }
    claims.clear();
    claims.extend(running.map(|(tenant, degraded, floor_w, max_w)| Claim {
        floor_w,
        max_w,
        weight: if degraded {
            0.0
        } else {
            tenant_weights.get(tenant).copied().unwrap_or(1.0) / tenant_jobs[tenant]
        },
    }));
}

/// Split `budget_w` over `claims`: every floor first, then the surplus
/// water-filled by weight — each round shares what is left among the
/// unsaturated claims; a claim that reaches its maximum leaves the pool
/// and its leftover flows to the next round (a round either saturates
/// somebody or distributes everything, so this terminates). The surplus
/// part of each allocation is then quantized down to
/// [`ALLOC_QUANTUM_W`] steps, so Σ never creeps past the budget and
/// per-cap cache keys stay coarse. The result is written over `alloc`,
/// in claim order.
pub fn water_fill(budget_w: f64, claims: &[Claim], alloc: &mut Vec<f64>) {
    alloc.clear();
    alloc.extend(claims.iter().map(|c| c.floor_w));
    // A claim can take surplus while it earns some and sits below its
    // maximum; saturating sets it to exactly its maximum, which an
    // unsaturated claim never reaches.
    let unsat = |alloc: &[f64], i: usize| {
        let c = &claims[i];
        c.weight > 0.0 && c.max_w > c.floor_w + EPS_W && alloc[i] != c.max_w
    };
    loop {
        let used: f64 = alloc.iter().sum();
        let surplus = budget_w - used;
        if surplus <= ALLOC_QUANTUM_W / 2.0 || !(0..claims.len()).any(|i| unsat(alloc, i)) {
            break;
        }
        let total_weight: f64 =
            (0..claims.len()).filter(|&i| unsat(alloc, i)).map(|i| claims[i].weight).sum();
        let mut saturated = false;
        for i in 0..claims.len() {
            if unsat(alloc, i) {
                let give = surplus * claims[i].weight / total_weight;
                let saturates = alloc[i] + give >= claims[i].max_w - EPS_W;
                alloc[i] = if saturates { claims[i].max_w } else { alloc[i] + give };
                saturated |= saturates;
            }
        }
        if !saturated {
            break;
        }
    }
    for (a, c) in alloc.iter_mut().zip(claims) {
        *a = c.floor_w + ((*a - c.floor_w) / ALLOC_QUANTUM_W).floor() * ALLOC_QUANTUM_W;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_powersim::Machine;

    /// Crill nodes: 230 W maximum, 57.5 W RAPL floor.
    fn crill(nodes: usize) -> Fleet {
        Fleet::homogeneous(Machine::crill(), nodes)
    }

    fn job(floor_w: Option<f64>) -> JobSpec {
        JobSpec { floor_w, ..JobSpec::new("acme", "sp.S") }
    }

    /// [`admit`] with the workload resolved by parsing it afresh.
    fn admit(spec: &JobSpec, fleet: &Fleet, budget_w: f64) -> (f64, Result<(), String>) {
        let resolves = arcs_kernels::model::by_spec(&spec.workload).is_some();
        super::admit(spec, resolves, fleet, budget_w)
    }

    #[test]
    fn the_effective_floor_is_the_request_raised_to_the_nodes_floor() {
        let fleet = crill(1);
        let node = &fleet.nodes()[0];
        assert_eq!(effective_floor(0.0, node), Some(57.5));
        assert_eq!(effective_floor(100.0, node), Some(100.0));
        assert_eq!(effective_floor(230.0, node), Some(230.0));
        assert_eq!(effective_floor(230.1, node), None);
        // Placement used to spell the floor `floor_w.unwrap_or(0.0)
        // .max(min_cap)`, without the request's clamp to ≥ 0; the two
        // agree on every request, nonsensical ones included.
        for raw in [None, Some(-5.0), Some(f64::NAN), Some(-0.0), Some(60.0)] {
            let spec = job(raw);
            assert_eq!(
                effective_floor(spec.requested_floor_w(), node),
                Some(raw.unwrap_or(0.0).max(node.min_cap_w())),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn admission_gives_each_reason_and_the_most_specific_wins() {
        let reason = |spec: &JobSpec, fleet: &Fleet, budget_w: f64| {
            admit(spec, fleet, budget_w).1.expect_err("must be refused")
        };
        let unknown = JobSpec::new("acme", "nope.S");

        assert_eq!(admit(&job(None), &crill(2), 400.0), (57.5, Ok(())));
        assert_eq!(admit(&job(Some(90.0)), &crill(2), 400.0), (90.0, Ok(())));
        // At the boundary: a floor equal to the node maximum, or to the
        // budget, is still admissible.
        assert_eq!(admit(&job(Some(230.0)), &crill(2), 230.0), (230.0, Ok(())));

        assert!(reason(&job(None), &Fleet::new(), 400.0).contains("no nodes"));
        assert!(reason(&unknown, &crill(2), 400.0).contains("unknown workload \"nope.S\""));
        assert!(reason(&job(Some(500.0)), &crill(2), 400.0).contains("every node"));
        assert!(reason(&job(Some(200.0)), &crill(2), 150.0).contains("global budget"));
        let too_long = job(None).timesteps(MAX_JOB_TIMESTEPS + 1);
        assert!(reason(&too_long, &crill(2), 400.0).contains("exceed the per-job limit of 10000"));
        assert_eq!(admit(&job(None).timesteps(MAX_JOB_TIMESTEPS), &crill(2), 400.0).1, Ok(()));
        // A refused job still reports the floor admission reasoned about:
        // the bare request when no node could host it.
        assert_eq!(admit(&job(Some(500.0)), &crill(2), 400.0).0, 500.0);
        assert_eq!(admit(&job(Some(200.0)), &crill(2), 150.0).0, 200.0);

        // Priority when two apply: empty fleet over unknown workload,
        // unknown workload over length, length over either floor reason,
        // every-node over budget.
        assert!(reason(&unknown, &Fleet::new(), 400.0).contains("no nodes"));
        let unknown_and_long = unknown.clone().timesteps(1_000_000_000_000);
        assert!(reason(&unknown_and_long, &crill(2), 400.0).contains("unknown workload"));
        let long_and_huge = job(Some(9_000.0)).timesteps(MAX_JOB_TIMESTEPS + 1);
        assert!(reason(&long_and_huge, &crill(2), 400.0).contains("per-job limit"));
        let unknown_and_huge = JobSpec { floor_w: Some(9_000.0), ..unknown };
        assert!(reason(&unknown_and_huge, &crill(2), 400.0).contains("unknown workload"));
        assert!(reason(&job(Some(500.0)), &crill(2), 100.0).contains("every node"));
    }

    #[test]
    fn admission_takes_the_cheapest_floor_over_nodes_that_can_host() {
        let mut fleet = crill(1);
        fleet.push(Machine::minotaur());
        let floors: Vec<f64> = fleet.nodes().iter().map(FleetNode::min_cap_w).collect();
        let cheapest = floors.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(admit(&job(None), &fleet, 1e4).0, cheapest);
        // A request only the larger model can absorb is floored there.
        let (small, large) = {
            let caps: Vec<f64> = fleet.nodes().iter().map(FleetNode::max_cap_w).collect();
            (caps[0].min(caps[1]), caps[0].max(caps[1]))
        };
        assert!(small < large, "the two models must differ for this case to mean anything");
        let between = (small + large) / 2.0;
        assert_eq!(admit(&job(Some(between)), &fleet, 1e4), (between, Ok(())));
    }

    #[test]
    fn the_head_of_the_line_takes_the_first_node_that_fits_or_waits() {
        let fleet = crill(3);
        let free = |ids: &[usize]| ids.iter().map(|&i| &fleet.nodes()[i]).collect::<Vec<_>>();
        // First free node in the order given.
        assert_eq!(pick_node(free(&[1, 2]), 0.0, 0.0, 400.0), Some(1));
        assert_eq!(pick_node(free(&[]), 0.0, 0.0, 400.0), None);
        // A request above the node maximum fits nowhere.
        assert_eq!(pick_node(free(&[0, 1, 2]), 0.0, 231.0, 1e4), None);
        // Headroom is judged on the *effective* floor: a job asking for
        // 0 W still commits the node's 57.5 W, so 350 + 57.5 > 400 waits
        // although 350 + 0 would not.
        assert_eq!(pick_node(free(&[0]), 350.0, 0.0, 400.0), None);
        assert_eq!(pick_node(free(&[0]), 342.5, 0.0, 400.0), Some(0));
        // Head-of-line blocking is the caller's loop stopping on `None`:
        // the head (200 W) does not fit beside 250 W committed, and
        // although the next job (57.5 W) would, nobody asks for it.
        let queue = [200.0, 0.0];
        let placed: Vec<u64> = queue
            .iter()
            .map_while(|&requested_w| pick_node(free(&[2]), 250.0, requested_w, 400.0))
            .collect();
        assert!(placed.is_empty(), "the head blocks the line: {placed:?}");
        assert_eq!(pick_node(free(&[2]), 250.0, queue[1], 400.0), Some(2));
    }

    #[test]
    fn backoff_doubles_per_lost_placement_and_caps_at_64x() {
        let factors: Vec<f64> = (0..=9).map(|attempts| backoff_s(0.05, attempts) / 0.05).collect();
        assert_eq!(factors, [1.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 64.0, 64.0]);
        assert_eq!(backoff_s(0.05, u64::MAX), 0.05 * 64.0);
    }

    #[test]
    fn claims_split_a_tenants_weight_and_pin_the_degraded() {
        let weights: BTreeMap<String, f64> =
            [("heavy".to_string(), 2.0), ("light".to_string(), 1.0)].into();
        let running = [
            ("heavy", false, 57.5, 230.0),
            ("light", false, 60.0, 230.0),
            ("heavy", false, 57.5, 200.0),
            ("light", true, 57.5, 230.0),
            ("stranger", false, 57.5, 230.0),
        ];
        let (mut tenant_jobs, mut got) = (BTreeMap::new(), Vec::new());
        claims(&weights, running.iter().copied(), &mut tenant_jobs, &mut got);
        let weights_out: Vec<f64> = got.iter().map(|c| c.weight).collect();
        // Two jobs of one tenant halve its weight — a degraded job still
        // counts as one of them but earns nothing; an unknown tenant
        // weighs 1.
        assert_eq!(weights_out, [1.0, 0.5, 1.0, 0.0, 1.0]);
        // Floors and maxima pass through, in order.
        assert_eq!(got[1], Claim { floor_w: 60.0, max_w: 230.0, weight: 0.5 });
        assert_eq!(got[2].max_w, 200.0);
        // The counts start again from zero: one heavy job keeps its
        // tenant's whole weight.
        claims(&weights, running[..1].iter().copied(), &mut tenant_jobs, &mut got);
        assert_eq!(got[0].weight, 2.0);
        claims(&weights, std::iter::empty(), &mut tenant_jobs, &mut got);
        assert!(got.is_empty());
    }

    #[test]
    fn water_filling_respects_floors_maxima_weights_and_the_budget() {
        let claim = |floor_w, max_w, weight| Claim { floor_w, max_w, weight };
        let water_fill = |budget_w, claims: &[Claim]| {
            let mut caps = vec![f64::NAN; 7];
            super::water_fill(budget_w, claims, &mut caps);
            caps
        };
        // Surplus 185 split 2:1, nobody saturates.
        let caps = water_fill(300.0, &[claim(57.5, 230.0, 2.0), claim(57.5, 230.0, 1.0)]);
        assert!(((caps[0] - 57.5) / (caps[1] - 57.5) - 2.0).abs() < 0.02, "{caps:?}");
        // The first claim saturates at 100 W; its leftover flows to the
        // second. A zero-weight (degraded) claim holds exactly its floor.
        let caps = water_fill(
            400.0,
            &[claim(57.5, 100.0, 5.0), claim(57.5, 230.0, 1.0), claim(60.0, 230.0, 0.0)],
        );
        assert_eq!((caps[0], caps[2]), (100.0, 60.0));
        assert!(caps[1] > 200.0 && caps[1] <= 230.0, "{caps:?}");
        assert!(caps.iter().sum::<f64>() <= 400.0 + EPS_W);
        assert!(water_fill(100.0, &[]).is_empty());
    }
}
