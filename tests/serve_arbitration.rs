//! The broker's fair-share rule as a property of two pure functions:
//! whatever the running set, `water_fill` over its `claims` conserves the
//! budget, keeps every job between its floor and its node's maximum,
//! moves in whole quantization steps, pins degraded jobs, and does not
//! care in which order the jobs are listed. No broker is built here —
//! this is the first slice of a reference model for the arbitration
//! rules (`arcs_serve::arbitration`).

use arcs_serve::arbitration::{claims, water_fill, Claim};
use arcs_serve::ALLOC_QUANTUM_W;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One running job as `claims` takes it, over a pool of three tenants.
/// Floors and spans are multiples of the allocation quantum, as the
/// watts a fleet hands out are.
fn running_job() -> impl Strategy<Value = (usize, bool, f64, f64)> {
    (0usize..3, any::<bool>(), 80u32..480, 0u32..800).prop_map(|(tenant, degraded, floor, span)| {
        let floor_w = f64::from(floor) * ALLOC_QUANTUM_W;
        (tenant, degraded, floor_w, floor_w + f64::from(span) * ALLOC_QUANTUM_W)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn water_filling_over_claims_is_conservative_bounded_quantized_and_order_blind(
        jobs in proptest::collection::vec(running_job(), 0..9),
        weights in proptest::collection::vec(0.25f64..8.0, 3..4),
        headroom_w in 0.0f64..900.0,
        rotate in 0usize..8,
    ) {
        const TENANTS: [&str; 3] = ["acme", "umbrella", "initech"];
        // "initech" is left out of the weight table: it weighs the default 1.
        let tenant_weights: BTreeMap<String, f64> =
            TENANTS.iter().zip(&weights).take(2).map(|(t, &w)| (t.to_string(), w)).collect();
        let running: Vec<(&str, bool, f64, f64)> = jobs
            .iter()
            .map(|&(t, degraded, floor_w, max_w)| (TENANTS[t], degraded, floor_w, max_w))
            .collect();
        // The broker places a job only while Σ floors fits the budget.
        let budget_w = running.iter().map(|j| j.2).sum::<f64>() + headroom_w;

        let mut got: Vec<Claim> = Vec::new();
        claims(&tenant_weights, running.iter().copied(), &mut BTreeMap::new(), &mut got);
        prop_assert_eq!(got.len(), running.len());
        for (claim, &(tenant, degraded, floor_w, max_w)) in got.iter().zip(&running) {
            prop_assert_eq!((claim.floor_w, claim.max_w), (floor_w, max_w));
            let peers = running.iter().filter(|j| j.0 == tenant).count() as f64;
            let weight = tenant_weights.get(tenant).copied().unwrap_or(1.0);
            prop_assert_eq!(claim.weight, if degraded { 0.0 } else { weight / peers });
        }

        let mut caps = Vec::new();
        water_fill(budget_w, &got, &mut caps);
        prop_assert_eq!(caps.len(), got.len());
        prop_assert!(caps.iter().sum::<f64>() <= budget_w + 1e-6, "Σ {:?} > {}", caps, budget_w);
        for (&cap_w, claim) in caps.iter().zip(&got) {
            prop_assert!(
                cap_w >= claim.floor_w && cap_w <= claim.max_w + 1e-9,
                "{} ∉ {:?}", cap_w, claim
            );
            let steps = (cap_w - claim.floor_w) / ALLOC_QUANTUM_W;
            prop_assert!(
                (steps - steps.round()).abs() < 1e-9,
                "{} is not on a step above its floor", cap_w
            );
            if claim.weight == 0.0 {
                prop_assert_eq!(cap_w, claim.floor_w);
            }
        }

        // Listing the same jobs in another order gives each the same
        // allocation — to within one step: the rounds sum floats in claim
        // order, which can tip a value sitting exactly on a step boundary.
        let k = if got.is_empty() { 0 } else { rotate % got.len() };
        let mut rotated = got.clone();
        rotated.rotate_left(k);
        let mut expected = caps.clone();
        expected.rotate_left(k);
        let mut rotated_caps = Vec::new();
        water_fill(budget_w, &rotated, &mut rotated_caps);
        for (a, b) in rotated_caps.iter().zip(&expected) {
            prop_assert!(
                (a - b).abs() <= ALLOC_QUANTUM_W + 1e-9,
                "{} vs {} after rotating by {}", a, b, k
            );
        }
    }
}
