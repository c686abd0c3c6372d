//! Inputs generated from `--seed`: the only randomness in the benchmark.
//! The program under test receives the generated inputs, never the seed
//! itself — sweeps get their power-cap axis, the broker gets an arrival
//! stream.
//!
//! Sizes are fixed constants (recorded in `BENCHMARK.json` and the
//! README), not calibrated at run time, so a repetition is the same work
//! on every commit.

use arcs::{SweepGrid, SweepStrategy};
use arcs_kernels::{model, Class};
use arcs_powersim::Machine;
use arcs_serve::JobSpec;
use arcs_trace::Objective;

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const PAPER_STRATEGIES: [SweepStrategy; 3] =
    [SweepStrategy::Default, SweepStrategy::Online, SweepStrategy::Offline];

/// The cap axis `from_w..=to_w` in `step_w` steps, shifted down by the
/// seed's sub-watt offset (a multiple of 1/256 W). The sweeps are the paper's noise-free
/// experiment, so the seed moves *where* the caps fall (another seed,
/// another set of simulated cells), never how a cell is measured. Shifting
/// down keeps every cap at or below the 115 W TDP.
fn caps(seed: u64, from_w: u32, to_w: u32, step_w: u32) -> Vec<f64> {
    let mut state = seed;
    let shift_w = (splitmix64(&mut state) % 256) as f64 / 256.0;
    (from_w..=to_w).step_by(step_w as usize).map(|w| f64::from(w) - shift_w).collect()
}

/// sp.B + bt.B × 31 caps (55…115 W, 2 W steps) × 3 strategies × 3
/// objectives = 558 cells, all on the closed-form `simulate_region` path.
pub fn regular_grid(seed: u64) -> SweepGrid {
    SweepGrid::new(Machine::crill())
        .workload(model::sp(Class::B))
        .workload(model::bt(Class::B))
        .caps(&caps(seed, 55, 115, 2))
        .strategies(&PAPER_STRATEGIES)
        .objectives(&[Objective::Time, Objective::Energy, Objective::EnergyDelay])
}

/// lulesh.45 + cg.B × 3 caps × 3 strategies = 18 cells whose regions
/// carry per-iteration cost profiles (no closed form).
pub fn profiled_grid(seed: u64) -> SweepGrid {
    SweepGrid::new(Machine::crill())
        .workload(model::lulesh(45))
        .workload(model::cg(Class::B))
        .caps(&caps(seed, 55, 115, 30))
        .strategies(&PAPER_STRATEGIES)
}

/// mc.B at the top cap × {default, online} = 2 cells. The exhaustive offline
/// cell is left out: at ~5 ms per cold `simulate_region` its 252-point
/// training pass alone would outweigh the rest of the workload.
pub fn montecarlo_grid(seed: u64) -> SweepGrid {
    SweepGrid::new(Machine::crill())
        .workload(model::mc(Class::B))
        .caps(&caps(seed, 115, 115, 1))
        .strategies(&[SweepStrategy::Default, SweepStrategy::Online])
}

/// A small slice of the regular grid for the parallel-efficiency probe.
pub fn probe_grid(seed: u64) -> SweepGrid {
    SweepGrid::new(Machine::crill())
        .workload(model::sp(Class::B))
        .workload(model::bt(Class::B))
        .caps(&caps(seed, 55, 115, 10))
        .strategies(&PAPER_STRATEGIES)
}

/// The broker the serve workloads run: 8 crill nodes under 800 W.
pub const SERVE_NODES: usize = 8;
pub const SERVE_BUDGET_W: f64 = 800.0;
pub const SERVE_TENANTS: u64 = 4;
/// Every 97th job asks for a floor above the whole budget (admission
/// control must reject it); every 16th runs under a flaky-RAPL plan.
pub const REJECT_EVERY: usize = 97;
pub const FAULT_EVERY: usize = 16;
const SERVE_KERNELS: [&str; 5] = ["sp.S", "bt.S", "cg.S", "ep.S", "mg.S"];

/// The seeded arrival stream — `arcs-serve-loadgen`'s mix: a tenant, one
/// of five class-S kernels and 4–12 timesteps per job, with the planted
/// inadmissible and flaky jobs above.
pub fn arrival_stream(seed: u64, jobs: usize) -> Vec<JobSpec> {
    let mut rng = seed;
    (0..jobs)
        .map(|i| {
            let r = splitmix64(&mut rng);
            let tenant = format!("tenant{}", r % SERVE_TENANTS);
            let kernel = SERVE_KERNELS[(r >> 8) as usize % SERVE_KERNELS.len()];
            let mut spec = JobSpec::new(tenant, kernel).timesteps(4 + ((r >> 16) % 9) as usize);
            if (i + 1) % REJECT_EVERY == 0 {
                spec = spec.floor_w(SERVE_BUDGET_W * 2.0);
            }
            if (i + 1) % FAULT_EVERY == 0 {
                spec = spec.fault_seed(r >> 24);
            }
            spec
        })
        .collect()
}

/// How many `step()`s follow each submission (0–2), so reallocation
/// fires on live jobs rather than on an idle queue.
pub fn step_pattern(seed: u64, jobs: usize) -> Vec<u8> {
    let mut rng = seed ^ 0xA5A5_A5A5_A5A5_A5A5;
    (0..jobs).map(|_| (splitmix64(&mut rng) % 3) as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_stream_and_another_seed_another() {
        assert_eq!(arrival_stream(42, 300), arrival_stream(42, 300));
        assert_ne!(arrival_stream(42, 300), arrival_stream(1337, 300));
        assert_eq!(step_pattern(42, 300), step_pattern(42, 300));
        assert!(step_pattern(42, 300).iter().all(|&s| s <= 2));
    }

    #[test]
    fn planted_jobs_are_where_the_checks_expect_them() {
        let stream = arrival_stream(42, 200);
        let rejected: Vec<usize> =
            (0..200).filter(|&i| stream[i].floor_w == Some(SERVE_BUDGET_W * 2.0)).collect();
        assert_eq!(rejected, vec![96, 193]);
        assert_eq!(stream.iter().filter(|s| s.fault_seed.is_some()).count(), 200 / FAULT_EVERY);
        assert!(stream.iter().all(|s| (4..=12).contains(&s.timesteps)));
    }

    #[test]
    fn grid_shapes_are_the_documented_ones() {
        assert_eq!(regular_grid(1).cell_count(), 558);
        assert_eq!(profiled_grid(1).cell_count(), 18);
        assert_eq!(montecarlo_grid(1).cell_count(), 2);
        let axis = regular_grid(9).caps_w;
        assert!(axis.iter().all(|&c| (54.0..=115.0).contains(&c)), "{axis:?}");
        assert_eq!(axis, regular_grid(9).caps_w, "the same seed gives the same caps");
        assert!((0..8).any(|s| regular_grid(s).caps_w != axis), "seeds move the cap axis");
    }
}
