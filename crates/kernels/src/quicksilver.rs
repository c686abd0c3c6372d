//! Quicksilver-style Monte-Carlo particle transport.
//!
//! First slice of the workload-diversity roadmap item: a kernel with
//! *dynamic, front-loaded* imbalance — the signature the self-scheduling
//! policies (trapezoid/factoring/awf) are built for, and one no static
//! partition can predict.
//!
//! A one-dimensional two-material slab is swept by a census of particles.
//! Each particle is tracked segment by segment — distance to collision vs
//! distance to the next material interface vs the particle's remaining
//! census budget — over a counter-based random stream keyed by the
//! particle index, so every tally is an integer and the result is
//! *exactly* independent of thread count and schedule. Work per particle
//! varies wildly: source particles (the first 15% of the index space)
//! spawn hot inside the dense front material and rattle through many
//! short segments, while the streaming tail dies in a handful. This is
//! the live counterpart of [`crate::model::mc`]'s `Blocked` imbalance
//! profile.

use arcs_omprt::{RegionId, Runtime};
use std::sync::Arc;

use crate::npb::Class;

/// Interface between the dense front material and the light back one.
const INTERFACE: f64 = 0.3;
/// Macroscopic total cross-section of the dense front material (mean free
/// paths per unit slab length) and of the light back material. The dense
/// slab is ~9 mean free paths thick, so a source particle random-walks
/// through dozens of collisions before it can stream out to the right.
const SIGMA_DENSE: f64 = 30.0;
const SIGMA_LIGHT: f64 = 1.2;
/// Fraction of the particle population that is hot source (tracked long).
const SOURCE_FRACTION: f64 = 0.15;
/// Hard cap on segments per particle — a tracking-loop safety net, far
/// above anything the census budgets allow.
const MAX_SEGMENTS: u64 = 100_000;

/// Per-class particle counts. Scaled so the smoke classes run in
/// milliseconds on one core while class C still tracks ~10⁷ segments.
pub fn mc_particles(class: Class) -> usize {
    match class {
        Class::S => 1 << 11,
        Class::W => 1 << 12,
        Class::A => 1 << 13,
        Class::B => 1 << 14,
        Class::C => 1 << 15,
    }
}

/// Integer tallies of one cycle — exact across any schedule/thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct McTallies {
    /// Tracking segments processed (the work metric).
    pub segments: u64,
    /// Collision events (scatter + absorption).
    pub collisions: u64,
    /// Particles absorbed in-flight.
    pub absorbed: u64,
    /// Particles that leaked out of the slab.
    pub escaped: u64,
    /// Particles alive when their census budget ran out.
    pub census: u64,
}

impl McTallies {
    fn merge(mut a: McTallies, b: McTallies) -> McTallies {
        a.segments += b.segments;
        a.collisions += b.collisions;
        a.absorbed += b.absorbed;
        a.escaped += b.escaped;
        a.census += b.census;
        a
    }
}

/// The Monte-Carlo mini-app: one tracking cycle over a fixed census.
pub struct Quicksilver {
    rt: Arc<Runtime>,
    tracking: RegionId,
    population: RegionId,
    particles: usize,
}

impl Quicksilver {
    pub fn new(rt: Arc<Runtime>, class: Class) -> Self {
        let tracking = rt.register_region("mc/cycle_tracking");
        let population = rt.register_region("mc/population_control");
        Quicksilver { rt, tracking, population, particles: mc_particles(class) }
    }

    pub fn region_names() -> [&'static str; 2] {
        ["mc/cycle_tracking", "mc/population_control"]
    }

    pub fn particles(&self) -> usize {
        self.particles
    }

    /// Track every particle through one cycle and tally the outcome, then
    /// run population control (the cheap, perfectly balanced companion
    /// region: it decides the next cycle's source split from the fates).
    /// Returns the cycle tallies and the number of particles population
    /// control would re-source for the next cycle.
    pub fn run_cycle(&self) -> (McTallies, u64) {
        let n = self.particles;
        let (tallies, _rec) = self.rt.parallel_reduce(
            self.tracking,
            0..n,
            McTallies::default(),
            move |acc, i| McTallies::merge(acc, track_particle(i as u64, n)),
            McTallies::merge,
        );
        // Population control: one light pass over the census deciding which
        // particle slots re-source. Integer work per slot is constant —
        // the uniform negative-space region next to the imbalanced one.
        let (resourced, _rec) = self.rt.parallel_reduce(
            self.population,
            0..n,
            0u64,
            move |acc, i| {
                let fate = track_particle_fate(i as u64, n);
                acc + u64::from(fate != Fate::Census)
            },
            |a, b| a + b,
        );
        (tallies, resourced)
    }
}

/// How a particle history ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Absorbed,
    Escaped,
    Census,
}

/// Total cross-section at position `x`.
fn sigma_t(x: f64) -> f64 {
    if x < INTERFACE {
        SIGMA_DENSE
    } else {
        SIGMA_LIGHT
    }
}

/// Distance to the next material interface or slab edge along `dir`.
fn distance_to_boundary(x: f64, dir: f64) -> f64 {
    if dir > 0.0 {
        if x < INTERFACE {
            INTERFACE - x
        } else {
            1.0 - x
        }
    } else if x > INTERFACE {
        x - INTERFACE
    } else {
        x
    }
}

/// Track one particle; all tallies for it (each fate field is 0 or 1).
fn track_particle(i: u64, n: usize) -> McTallies {
    let source = (i as usize) < ((n as f64) * SOURCE_FRACTION) as usize;
    // Source particles spawn inside the dense slab with a deep census
    // budget (measured in mean free paths of flight); tail particles
    // spawn in the light material nearly spent.
    let mut x =
        if source { unit(i, 0) * INTERFACE } else { INTERFACE + unit(i, 0) * (1.0 - INTERFACE) };
    let mut budget = if source { 150.0 } else { 4.0 };
    let mut dir = if unit(i, 1) < 0.5 { -1.0 } else { 1.0 };
    let mut draw = 2u64;
    let mut t = McTallies::default();
    while t.segments < MAX_SEGMENTS {
        t.segments += 1;
        let sigma = sigma_t(x);
        let u = unit(i, draw);
        draw += 1;
        let d_coll = -u.ln() / sigma;
        let d_bound = distance_to_boundary(x, dir);
        let d_census = budget / sigma;
        if d_census <= d_coll && d_census <= d_bound {
            t.census = 1;
            return t;
        }
        if d_bound < d_coll {
            // Facet crossing: step just past the interface, leak out of
            // the right edge, or bounce off the reflective (symmetry)
            // left boundary.
            x += dir * d_bound;
            budget -= d_bound * sigma;
            if x >= 1.0 {
                t.escaped = 1;
                return t;
            }
            if x <= 0.0 {
                x = 0.0;
                dir = 1.0;
            }
            x += dir * 1e-9;
        } else {
            x += dir * d_coll;
            budget -= d_coll * sigma;
            t.collisions += 1;
            let u_react = unit(i, draw);
            draw += 1;
            // Absorption is rarer in the dense scatterer, so hot source
            // particles survive many collisions.
            let p_absorb = if x < INTERFACE { 0.02 } else { 0.22 };
            if u_react < p_absorb {
                t.absorbed = 1;
                return t;
            }
            // Isotropic (well, 1-D) scatter.
            dir = if unit(i, draw) < 0.5 { -1.0 } else { 1.0 };
            draw += 1;
        }
    }
    t.census = 1; // unreachable under the budgets; keeps the cap total
    t
}

/// The fate of particle `i`, re-derived cheaply: constant work per slot.
fn track_particle_fate(i: u64, n: usize) -> Fate {
    let t = track_particle(i, n);
    if t.absorbed == 1 {
        Fate::Absorbed
    } else if t.escaped == 1 {
        Fate::Escaped
    } else {
        Fate::Census
    }
}

/// Deterministic counter-based uniform in (0, 1): particle id × draw
/// counter through a splitmix-style mix (same construction as EP's
/// per-index streams).
#[inline]
fn unit(i: u64, draw: u64) -> f64 {
    let z = arcs_powersim::splitmix64(
        i.wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(draw.wrapping_mul(0xC2B2AE3D27D4EB4F))
            .wrapping_add(0xD6E8FEB86659FD93),
    );
    ((z >> 11) as f64 + 0.5) / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_omprt::Schedule;

    #[test]
    fn fates_conserve_the_census() {
        let rt = Arc::new(Runtime::new(4));
        let qs = Quicksilver::new(rt, Class::S);
        let (t, resourced) = qs.run_cycle();
        assert_eq!(
            t.absorbed + t.escaped + t.census,
            qs.particles() as u64,
            "every particle ends exactly one way: {t:?}"
        );
        assert!(t.segments >= t.collisions);
        assert_eq!(resourced, t.absorbed + t.escaped);
    }

    #[test]
    fn tallies_are_exactly_schedule_and_thread_independent() {
        let run = |threads: usize, sched: Schedule| {
            let rt = Arc::new(Runtime::new(threads));
            rt.set_schedule(sched);
            Quicksilver::new(rt, Class::S).run_cycle()
        };
        let a = run(1, Schedule::static_block());
        let b = run(4, Schedule::dynamic(16));
        let c = run(4, Schedule::factoring(8));
        let d = run(3, Schedule::trapezoid(4));
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert_eq!(a, d);
    }

    #[test]
    fn source_particles_dominate_the_work() {
        // The front 15% of the index space must carry several times the
        // per-particle segment load of the tail — the imbalance the
        // Blocked{0.15, …} descriptor models and the reason a block
        // partition loses here.
        let n = mc_particles(Class::S);
        let cut = ((n as f64) * SOURCE_FRACTION) as usize;
        let seg = |range: std::ops::Range<usize>| -> u64 {
            range.map(|i| track_particle(i as u64, n).segments).sum()
        };
        let front = seg(0..cut) as f64 / cut as f64;
        let tail = seg(cut..n) as f64 / (n - cut) as f64;
        assert!(
            front > 4.0 * tail,
            "front {front:.1} segments/particle vs tail {tail:.1}: imbalance too weak"
        );
    }

    #[test]
    fn histories_stay_finite() {
        let n = mc_particles(Class::S);
        for i in (0..n).step_by(97) {
            let t = track_particle(i as u64, n);
            assert!(t.segments < MAX_SEGMENTS, "particle {i} hit the segment cap");
        }
    }
}
