//! Simulator descriptors for the paper's three applications and the
//! suite's four extensions (CG, EP, MG and Monte-Carlo transport).
//!
//! Each function maps a real kernel of this crate to the analytic
//! [`WorkloadDescriptor`] the power simulator consumes. Iteration counts
//! and parallel shapes come directly from the loop structure of the real
//! implementations in this crate; per-iteration cycle counts and memory
//! profiles are calibrated so that default-configuration region times on
//! the Crill model land in the regime the paper reports (§V, Fig. 9).
//! The qualitative personalities are the load-bearing part:
//!
//! * **BT** — coarse 100-ish-iteration loops (granularity imbalance at 32
//!   threads emerges naturally), heavy block flops, good cache behaviour
//!   except `compute_rhs` (long-stride `rhsz`).
//! * **SP** — same shape but memory-hungrier, lower temporal reuse: good
//!   balance, *poor cache behaviour* → ARCS's big win.
//! * **LULESH** — fine-grained element loops (91 k iterations at mesh 45):
//!   near-perfect balance except the blast-centred `FBHourglass` and
//!   `EvalEOS` regions; two regions have per-call times so small that the
//!   ≈8 ms configuration-change overhead eats them.

use crate::npb::Class;
use arcs_powersim::{
    ImbalanceProfile, MemoryProfile, RegionModel, StrideClass, WorkloadDescriptor,
};

const MB: f64 = 1024.0 * 1024.0;

#[allow(clippy::too_many_arguments)]
fn region(
    name: &str,
    iterations: usize,
    cycles_per_iter: f64,
    imbalance: ImbalanceProfile,
    footprint_mb: f64,
    accesses_per_iter: f64,
    stride: StrideClass,
    temporal_reuse: f64,
    hot_kib: f64,
) -> RegionModel {
    RegionModel {
        name: name.into(),
        iterations,
        cycles_per_iter,
        imbalance,
        memory: MemoryProfile {
            footprint_bytes: footprint_mb * MB,
            accesses_per_iter,
            stride,
            temporal_reuse,
            hot_bytes_per_thread: hot_kib * 1024.0,
        },
        serial_s: 0.0,
        critical_s: 0.0,
    }
}

/// Attach a structural master-only section (see `RegionModel::critical_s`).
fn with_critical(mut r: RegionModel, critical_s: f64) -> RegionModel {
    r.critical_s = critical_s;
    r
}

/// Field bytes for an `n³` grid of 5-vectors.
fn field_mb(n: usize) -> f64 {
    (n * n * n * 5 * 8) as f64 / MB
}

/// NPB timestep counts (the paper uses "custom time steps"; these are the
/// official class values).
pub fn npb_timesteps(class: Class) -> usize {
    match class {
        Class::S | Class::W => 60,
        Class::A | Class::B => 200,
        Class::C => 250,
    }
}

/// BT descriptor: five regions per ADI step, parallel trip count `n − 2`.
pub fn bt(class: Class) -> WorkloadDescriptor {
    let n = class.grid_size();
    let ni = n - 2; // parallel iterations (interior planes)
    let plane = (ni * ni) as f64; // interior points per plane
    let f3 = field_mb(n) * 3.0; // u + rhs + forcing
    let f1 = field_mb(n);

    let step = vec![
        // Full stencil, three direction passes, k±2 reads: long stride.
        region(
            "bt/compute_rhs",
            ni,
            plane * 3100.0,
            ImbalanceProfile::Random { cv: 0.06, seed: 11 },
            f3,
            plane * 110.0,
            StrideClass::Long,
            0.50,
            16.0,
        ),
        // Block-tridiag sweeps: ~800 cycles/point of 5×5 algebra, working
        // line stays cache-resident (high temporal reuse), unit stride.
        region(
            "bt/x_solve",
            ni,
            plane * 4200.0,
            ImbalanceProfile::Uniform,
            f1,
            plane * 70.0,
            StrideClass::Unit,
            0.75,
            64.0,
        ),
        region(
            "bt/y_solve",
            ni,
            plane * 4200.0,
            ImbalanceProfile::Uniform,
            f1,
            plane * 70.0,
            StrideClass::Medium,
            0.70,
            64.0,
        ),
        region(
            "bt/z_solve",
            ni,
            plane * 4200.0,
            ImbalanceProfile::Uniform,
            f1,
            plane * 80.0,
            StrideClass::Medium,
            0.65,
            64.0,
        ),
        region(
            "bt/add",
            ni,
            plane * 70.0,
            ImbalanceProfile::Uniform,
            f1 * 2.0,
            plane * 50.0,
            StrideClass::Unit,
            0.10,
            4.0,
        ),
    ];
    WorkloadDescriptor {
        name: format!("bt.{}", class.name()),
        step,
        timesteps: npb_timesteps(class),
    }
}

/// SP descriptor: same region structure as BT, lighter flops, heavier and
/// less cache-friendly memory traffic (the scalar penta sweeps rebuild five
/// band systems per line).
pub fn sp(class: Class) -> WorkloadDescriptor {
    let n = class.grid_size();
    let ni = n - 2;
    let plane = (ni * ni) as f64;
    let f3 = field_mb(n) * 3.0;
    let f1 = field_mb(n);

    let step = vec![
        // Poor balance *and* poor cache (the paper's characterisation).
        region(
            "sp/compute_rhs",
            ni,
            plane * 1400.0,
            ImbalanceProfile::Blocked { heavy_fraction: 0.15, heavy_factor: 2.5 },
            f3,
            plane * 162.5,
            StrideClass::Long,
            0.40,
            16.0,
        ),
        // Good balance, poor cache: low reuse, heavy band traffic.
        region(
            "sp/x_solve",
            ni,
            plane * 825.0,
            ImbalanceProfile::Uniform,
            f1 * 2.0,
            plane * 150.0,
            StrideClass::Medium,
            0.45,
            24.0,
        ),
        region(
            "sp/y_solve",
            ni,
            plane * 825.0,
            ImbalanceProfile::Uniform,
            f1 * 2.0,
            plane * 150.0,
            StrideClass::Medium,
            0.40,
            24.0,
        ),
        region(
            "sp/z_solve",
            ni,
            plane * 825.0,
            ImbalanceProfile::Uniform,
            f1 * 2.0,
            plane * 187.5,
            StrideClass::Long,
            0.35,
            24.0,
        ),
        region(
            "sp/add",
            ni,
            plane * 35.0,
            ImbalanceProfile::Uniform,
            f1 * 2.0,
            plane * 25.0,
            StrideClass::Unit,
            0.10,
            4.0,
        ),
    ];
    WorkloadDescriptor {
        name: format!("sp.{}", class.name()),
        step,
        timesteps: npb_timesteps(class),
    }
}

/// LULESH descriptor for an edge size of `mesh` elements. The descriptor
/// models the regions the paper analyses (the Fig. 9 top five, with
/// `CalcPressureForElems` invoked three times per step from inside the
/// EOS evaluation); the live proxy in [`crate::lulesh`] runs a fuller
/// timestep (nine region types).
pub fn lulesh(mesh: usize) -> WorkloadDescriptor {
    let ne = mesh * mesh * mesh;
    let nef = ne as f64;
    // Element state: coords/vel/force on nodes + ~8 element fields.
    let elem_mb = (ne * 8 * 10) as f64 / MB;
    let scale = 91_125.0 / nef; // constants calibrated at mesh 45

    let step = vec![
        region(
            "lulesh/IntegrateStressForElems",
            ne,
            11_000.0 * scale.powf(0.0),
            ImbalanceProfile::Uniform,
            elem_mb,
            60.0,
            StrideClass::Unit,
            0.45,
            8.0,
        ),
        // Heaviest flops; blast-centre elements cost extra: ≈6% barrier at
        // the default configuration (Fig. 9 / Fig. 10) — the one region
        // ARCS can improve on Crill.
        region(
            "lulesh/CalcFBHourglassForceForElems",
            ne,
            21_000.0,
            ImbalanceProfile::Blocked { heavy_fraction: 0.10, heavy_factor: 1.8 },
            elem_mb * 1.4,
            95.0,
            StrideClass::Medium,
            0.40,
            12.0,
        ),
        // Near-perfect balance, good cache: 0.1% barrier (nothing for
        // ARCS to do — by design).
        region(
            "lulesh/CalcKinematicsForElems",
            ne,
            16_000.0,
            ImbalanceProfile::Uniform,
            elem_mb,
            70.0,
            StrideClass::Unit,
            0.55,
            8.0,
        ),
        region(
            "lulesh/CalcMonotonicQGradientsForElems",
            ne,
            12_500.0,
            ImbalanceProfile::Uniform,
            elem_mb,
            55.0,
            StrideClass::Unit,
            0.50,
            8.0,
        ),
        // Tiny per-call time (≈0.08 s at mesh 45 on Crill), most of it a
        // structural master-only section between the EOS sub-loops — it
        // shows up as OMP_BARRIER in Fig. 9 but no configuration removes
        // it, and the ≈8 ms config-change cost is ~10% of the region.
        with_critical(
            region(
                "lulesh/EvalEOSForElems",
                ne,
                14_000.0,
                ImbalanceProfile::Blocked { heavy_fraction: 0.12, heavy_factor: 1.5 },
                elem_mb * 0.5,
                28.0,
                StrideClass::Unit,
                0.35,
                6.0,
            ),
            0.045,
        ),
        with_critical(
            region(
                "lulesh/CalcPressureForElems",
                ne,
                3_600.0,
                ImbalanceProfile::Uniform,
                elem_mb * 0.3,
                10.0,
                StrideClass::Unit,
                0.30,
                4.0,
            ),
            0.006,
        ),
        with_critical(
            region(
                "lulesh/CalcPressureForElems",
                ne,
                3_600.0,
                ImbalanceProfile::Uniform,
                elem_mb * 0.3,
                10.0,
                StrideClass::Unit,
                0.30,
                4.0,
            ),
            0.006,
        ),
        with_critical(
            region(
                "lulesh/CalcPressureForElems",
                ne,
                3_600.0,
                ImbalanceProfile::Uniform,
                elem_mb * 0.3,
                10.0,
                StrideClass::Unit,
                0.30,
                4.0,
            ),
            0.006,
        ),
    ];
    WorkloadDescriptor { name: format!("lulesh.{mesh}"), step, timesteps: 300 }
}

/// CG descriptor: the irregular member of the suite — a sparse matvec
/// with indirect accesses (long effective strides, low reuse) plus
/// streaming dot/axpy loops. `outer` power iterations × 25 CG iterations
/// give the region call pattern: per CG iteration one matvec, three dots,
/// three axpys.
pub fn cg(class: Class) -> WorkloadDescriptor {
    let (n, row_nnz) = crate::npb::cg::cg_size(class);
    let nnz = (n * (row_nnz + 1)) as f64;
    let mat_mb = nnz * 16.0 / MB; // value + column index per entry
    let vec_mb = (n * 8) as f64 / MB;
    let matvec = region(
        "cg/matvec",
        n,
        (row_nnz as f64) * 9.0,
        // Row population varies: natural fine-grained imbalance.
        ImbalanceProfile::Random { cv: 0.35, seed: 0xC6 },
        mat_mb + 2.0 * vec_mb,
        (row_nnz as f64) * 3.0,
        StrideClass::Long,
        0.15,
        4.0,
    );
    let dot = region(
        "cg/dot",
        n,
        6.0,
        ImbalanceProfile::Uniform,
        2.0 * vec_mb,
        2.0,
        StrideClass::Unit,
        0.05,
        2.0,
    );
    let axpy = region(
        "cg/axpy",
        n,
        6.0,
        ImbalanceProfile::Uniform,
        2.0 * vec_mb,
        3.0,
        StrideClass::Unit,
        0.05,
        2.0,
    );
    let norm = region(
        "cg/norm",
        n,
        5.0,
        ImbalanceProfile::Uniform,
        2.0 * vec_mb,
        2.0,
        StrideClass::Unit,
        0.05,
        2.0,
    );
    // One conj_grad call with 25 inner iterations.
    let mut step = Vec::new();
    for _ in 0..25 {
        step.push(matvec.clone());
        step.push(dot.clone());
        step.push(axpy.clone());
        step.push(axpy.clone());
        step.push(dot.clone());
        step.push(axpy.clone());
    }
    step.push(norm.clone());
    WorkloadDescriptor { name: format!("cg.{}", class.name()), step, timesteps: 15 }
}

/// EP descriptor: one perfectly balanced, compute-only region — the
/// negative control (nothing for ARCS to find).
pub fn ep(class: Class) -> WorkloadDescriptor {
    // NPB EP work-shares *blocks* of pairs, not individual pairs; model
    // the class at full NPB scale (2^24..2^32 pairs) in 4096 blocks.
    let pairs = (1u64 << crate::npb::ep::ep_log2_pairs(class)) * 256;
    let blocks = 4096usize;
    let pairs_per_block = (pairs / blocks as u64) as f64;
    let step = vec![region(
        "ep/gaussian_pairs",
        blocks,
        pairs_per_block * 90.0,
        ImbalanceProfile::Uniform,
        1.0, // counter-based streams: essentially no memory footprint
        pairs_per_block * 0.5,
        StrideClass::Unit,
        0.0,
        1.0,
    )];
    WorkloadDescriptor { name: format!("ep.{}", class.name()), step, timesteps: 10 }
}

/// MG descriptor: each operator region appears once *per grid level* with
/// that level's trip count — one region name, wildly varying sizes. The
/// coarse-level invocations are microseconds: under per-invocation
/// reconfiguration they are pure overhead, which is why MG is the
/// selective-tuning stress case.
pub fn mg(class: Class) -> WorkloadDescriptor {
    let (n, cycles) = crate::npb::mg::mg_size(class);
    let mut step = Vec::new();
    let mut level_edges = Vec::new();
    let mut m = n;
    while m >= 5 {
        level_edges.push(m);
        m = (m - 1) / 2 + 1;
    }
    let op = |name: &str, edge: usize, cycles_pt: f64, acc_pt: f64, reuse: f64| {
        let ni = edge - 2;
        let plane = (ni * ni) as f64;
        let grid_mb = (edge.pow(3) * 8 * 3) as f64 / MB;
        region(
            name,
            ni,
            plane * cycles_pt,
            ImbalanceProfile::Uniform,
            grid_mb,
            plane * acc_pt,
            StrideClass::Medium,
            reuse,
            24.0,
        )
    };
    // Downstroke: 2 smooths + residual + restriction per level.
    for &e in &level_edges[..level_edges.len() - 1] {
        step.push(op("mg/psinv", e, 60.0, 8.0, 0.5));
        step.push(op("mg/psinv", e, 60.0, 8.0, 0.5));
        step.push(op("mg/resid", e, 50.0, 8.0, 0.45));
        step.push(op("mg/rprj3", (e - 1) / 2 + 1, 170.0, 28.0, 0.4));
    }
    // Coarsest solve: 20 smoothing sweeps on a ~5³ grid.
    let coarsest = *level_edges.last().unwrap();
    for _ in 0..20 {
        step.push(op("mg/psinv", coarsest, 60.0, 8.0, 0.5));
    }
    // Upstroke: prolongation + 2 smooths per level.
    for &e in level_edges[..level_edges.len() - 1].iter().rev() {
        step.push(op("mg/interp", e, 90.0, 10.0, 0.45));
        step.push(op("mg/psinv", e, 60.0, 8.0, 0.5));
        step.push(op("mg/psinv", e, 60.0, 8.0, 0.5));
    }
    step.push(op("mg/norm2u3", n, 25.0, 8.0, 0.3));
    let _ = cycles;
    WorkloadDescriptor { name: format!("mg.{}", class.name()), step, timesteps: 20 }
}

/// Quicksilver-style Monte-Carlo descriptor (see [`crate::quicksilver`]):
/// one heavy tracking region with *front-loaded* imbalance — the source
/// particles in the first 15% of the index space track ~6× the segments
/// of the streaming tail — plus a cheap, perfectly balanced population-
/// control companion. Per-particle state is small (fine-grained
/// iterations), so tiny chunks pay real locality costs: `dynamic,1`'s
/// perfect balance loses to the self-scheduling families' few large
/// chunks, `guided`'s huge front chunk strands the heavy block on one
/// thread, and a block partition drowns in the source imbalance. This is
/// the workload where the scheduling-policy portfolio separates.
pub fn mc(class: Class) -> WorkloadDescriptor {
    let particles = crate::quicksilver::mc_particles(class);
    // The work-shared loop is over *segment batches*, not particles: the
    // live kernel tracks ~128 segments per source particle, and segment
    // processing is the fine-grained unit (one table lookup bundle each).
    let n = particles * 128;
    let nf = n as f64;
    // Particle state + tally arrays + cross-section tables, ~100 B per
    // in-flight segment slot.
    let state_mb = nf * 100.0 / MB;
    let step = vec![
        region(
            "mc/cycle_tracking",
            n,
            1_500.0,
            ImbalanceProfile::Blocked { heavy_fraction: 0.15, heavy_factor: 2.2 },
            state_mb,
            10.0,
            StrideClass::Long,
            0.45,
            4.0,
        ),
        region(
            "mc/population_control",
            particles,
            900.0,
            ImbalanceProfile::Uniform,
            nf * 8.0 / MB,
            6.0,
            StrideClass::Unit,
            0.2,
            2.0,
        ),
    ];
    WorkloadDescriptor { name: format!("mc.{}", class.name()), step, timesteps: 30 }
}

/// Resolve a strict `<kernel>.<class>` workload spec — e.g. `sp.W`,
/// `cg.S`, `mc.B` — to its descriptor. Kernels: `sp`, `bt`, `cg`, `ep`,
/// `mg`, `mc`, `lulesh` (always the paper's mesh 45; the class is
/// required but unused); classes: `S`, `W`, `A`, `B`, `C`. `None` for
/// anything else — this is the check job submissions arriving over the
/// wire go through.
pub fn by_spec(spec: &str) -> Option<WorkloadDescriptor> {
    let (kernel, class) = spec.split_once('.')?;
    let class: Class = class.parse().ok()?;
    Some(match kernel {
        "sp" => sp(class),
        "bt" => bt(class),
        "cg" => cg(class),
        "ep" => ep(class),
        "mg" => mg(class),
        "mc" => mc(class),
        "lulesh" => lulesh(45),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_omprt::Schedule;
    use arcs_powersim::{simulate_region, Machine, SimConfig};

    fn default_cfg(m: &Machine) -> SimConfig {
        SimConfig { threads: m.hw_threads(), schedule: Schedule::static_block() }
    }

    #[test]
    fn bt_region_names_match_solver() {
        let d = bt(Class::B);
        let names: Vec<&str> = d.region_names();
        assert_eq!(names, crate::npb::bt::BtSolver::region_names().to_vec());
    }

    #[test]
    fn sp_region_names_match_solver() {
        let d = sp(Class::B);
        assert_eq!(d.region_names(), crate::npb::sp::SpSolver::region_names().to_vec());
    }

    #[test]
    fn lulesh_region_names_match_proxy() {
        // The descriptor models the paper's analysed top regions (Fig. 9);
        // the live proxy implements the fuller timestep.
        let d = lulesh(45);
        let names = d.region_names();
        assert_eq!(names, crate::lulesh::REGION_NAMES[..6].to_vec());
        for n in &names {
            assert!(crate::lulesh::REGION_NAMES.contains(n));
        }
        // Pressure appears three times per step.
        let pressure_count =
            d.step.iter().filter(|r| r.name == "lulesh/CalcPressureForElems").count();
        assert_eq!(pressure_count, 3);
    }

    #[test]
    fn lulesh_tiny_regions_are_overhead_scale() {
        // The paper's pivotal fact: EvalEOS ≈ 0.08 s/call and CalcPressure
        // ≈ 0.014 s/call on Crill at mesh 45, so the 8 ms config-change
        // overhead is ~10% resp. ~60% of them.
        let m = Machine::crill();
        let d = lulesh(45);
        let cfg = default_cfg(&m);
        let eos = d.step.iter().find(|r| r.name.ends_with("EvalEOSForElems")).unwrap();
        let t_eos = simulate_region(&m, 115.0, eos, cfg).time_s;
        assert!(
            (0.04..0.17).contains(&t_eos),
            "EvalEOS per-call {t_eos} outside the paper's regime"
        );
        let pres = d.step.iter().find(|r| r.name.ends_with("CalcPressureForElems")).unwrap();
        let t_p = simulate_region(&m, 115.0, pres, cfg).time_s;
        assert!((0.006..0.035).contains(&t_p), "CalcPressure per-call {t_p}");
        let overhead = m.config_change_s;
        assert!(overhead / t_eos > 0.05 && overhead / t_eos < 0.25);
        assert!(overhead / t_p > 0.3);
    }

    #[test]
    fn bt_class_b_app_time_is_plausible() {
        // Default config at TDP: tens of milliseconds per step region set,
        // tens of seconds for the whole run (NPB BT.B scale on 2012 HW).
        let m = Machine::crill();
        let d = bt(Class::B);
        let cfg = default_cfg(&m);
        let step_time: f64 = d.step.iter().map(|r| simulate_region(&m, 115.0, r, cfg).time_s).sum();
        let app = step_time * d.timesteps as f64;
        assert!((10.0..400.0).contains(&app), "BT.B app time {app}s");
    }

    #[test]
    fn coarse_bt_loops_have_granularity_imbalance_at_32_threads() {
        let m = Machine::crill();
        let d = bt(Class::B);
        let x = d.step.iter().find(|r| r.name.ends_with("x_solve")).unwrap();
        let rep = simulate_region(&m, 115.0, x, default_cfg(&m));
        // 100 iterations / 32 threads: 3 vs 4 iterations per thread. SMT
        // sibling overlap absorbs part of it; ~10–15% remains.
        assert!(rep.imbalance() > 0.08, "imbalance {}", rep.imbalance());
        // On a coarse *uniform* loop no schedule can beat the iteration
        // quantisation — the lever ARCS actually has is the thread count:
        // 16 threads divide 100 iterations far more evenly (6.25 → 7)
        // than 32 do (3.125 → 4).
        let rep16 = simulate_region(
            &m,
            115.0,
            x,
            SimConfig { threads: 16, schedule: Schedule::static_block() },
        );
        assert!(
            rep16.imbalance() < rep.imbalance() * 0.8,
            "16 threads {} vs 32 threads {}",
            rep16.imbalance(),
            rep.imbalance()
        );
    }

    #[test]
    fn lulesh_fine_loops_are_balanced_by_default() {
        let m = Machine::crill();
        let d = lulesh(45);
        let kin = d.step.iter().find(|r| r.name.ends_with("CalcKinematicsForElems")).unwrap();
        let rep = simulate_region(&m, 115.0, kin, default_cfg(&m));
        assert!(rep.imbalance() < 0.05, "kinematics imbalance {}", rep.imbalance());
    }

    #[test]
    fn sp_has_worse_cache_behaviour_than_bt() {
        let m = Machine::crill();
        let cfg = default_cfg(&m);
        let sp_x = sp(Class::B);
        let bt_x = bt(Class::B);
        let sp_x = sp_x.step.iter().find(|r| r.name.ends_with("x_solve")).unwrap();
        let bt_x = bt_x.step.iter().find(|r| r.name.ends_with("x_solve")).unwrap();
        let sp_rep = simulate_region(&m, 115.0, sp_x, cfg);
        let bt_rep = simulate_region(&m, 115.0, bt_x, cfg);
        assert!(sp_rep.cache.l3_miss_rate > bt_rep.cache.l3_miss_rate);
    }

    #[test]
    fn cg_descriptor_matches_solver_regions() {
        let d = cg(Class::B);
        let mut names = d.region_names();
        names.sort_unstable();
        let mut expect = crate::npb::cg::CgSolver::region_names().to_vec();
        expect.sort_unstable();
        assert_eq!(names, expect);
        // 25 CG iterations → 25 matvecs per step.
        let matvecs = d.step.iter().filter(|r| r.name == "cg/matvec").count();
        assert_eq!(matvecs, 25);
    }

    #[test]
    fn ep_has_no_tuning_headroom() {
        // The oracle over the whole Table I grid must essentially tie the
        // default: EP is the negative control.
        let m = Machine::crill();
        let d = ep(Class::B);
        let r = &d.step[0];
        let def = simulate_region(&m, 115.0, r, default_cfg(&m));
        let mut best = f64::INFINITY;
        for threads in [2usize, 4, 8, 16, 24, 32] {
            for sched in [Schedule::static_block(), Schedule::dynamic(64), Schedule::guided(8)] {
                let t =
                    simulate_region(&m, 115.0, r, SimConfig { threads, schedule: sched }).time_s;
                best = best.min(t);
            }
        }
        assert!(
            best >= def.time_s * 0.97,
            "EP should have ≤3% headroom: best {best} vs default {}",
            def.time_s
        );
    }

    #[test]
    fn mg_descriptor_is_multiscale() {
        let d = mg(Class::B); // 129 → 65 → 33 → 17 → 9 → 5
        let mut names = d.region_names();
        names.sort_unstable();
        let mut expect = crate::npb::mg::MgSolver::region_names().to_vec();
        expect.sort_unstable();
        assert_eq!(names, expect);
        // The psinv region appears at several distinct trip counts.
        let sizes: std::collections::BTreeSet<usize> =
            d.step.iter().filter(|r| r.name == "mg/psinv").map(|r| r.iterations).collect();
        assert!(sizes.len() >= 5, "expected multi-scale psinv, got {sizes:?}");
    }

    #[test]
    fn mc_descriptor_matches_kernel_regions() {
        let d = mc(Class::B);
        assert_eq!(d.region_names(), crate::quicksilver::Quicksilver::region_names().to_vec());
        // Segment-batch granularity: the tracking trip count is the live
        // kernel's particle census × ~128 segments.
        assert_eq!(d.step[0].iterations, crate::quicksilver::mc_particles(Class::B) * 128);
    }

    #[test]
    fn self_scheduling_beats_every_classic_config_on_mc_tracking() {
        // The portfolio's reason to exist, pinned: on the front-loaded MC
        // tracking region the *worst* self-scheduling family still beats
        // the *best* classic {static, dynamic, guided} configuration over
        // the full Table-I chunk axis, on time (and hence on EDP at the
        // same cap). The classic families are squeezed from both sides —
        // small chunks destroy locality (every thread streams the whole
        // footprint), large static/dynamic chunks quantise the heavy
        // source block, and guided strands its huge front chunk on one
        // thread — while the decreasing self-scheduling streams get both
        // ends right.
        use arcs_omprt::ScheduleKind;
        let m = Machine::crill();
        let d = mc(Class::B);
        let track = d.step.iter().find(|r| r.name.ends_with("cycle_tracking")).unwrap();
        let chunks =
            [None, Some(1), Some(8), Some(16), Some(32), Some(64), Some(128), Some(256), Some(512)];
        let time = |kind, chunk| {
            let cfg = SimConfig { threads: 32, schedule: Schedule::new(kind, chunk) };
            simulate_region(&m, 115.0, track, cfg).time_s
        };
        let over = |kinds: &[ScheduleKind], pick: fn(f64, f64) -> f64, init: f64| {
            kinds.iter().flat_map(|&k| chunks.iter().map(move |&c| time(k, c))).fold(init, pick)
        };
        let best_classic = over(&ScheduleKind::CLASSIC, f64::min, f64::INFINITY);
        let worst_self = over(&ScheduleKind::SELF_SCHEDULING, f64::max, 0.0);
        let best_self = over(&ScheduleKind::SELF_SCHEDULING, f64::min, f64::INFINITY);
        assert!(
            worst_self < best_classic,
            "worst self-scheduling {worst_self} should beat best classic {best_classic}"
        );
        assert!(
            best_self < best_classic * 0.97,
            "best self-scheduling {best_self} needs ≥3% on best classic {best_classic}"
        );
        // The default (static block) drowns in the source imbalance — the
        // signal the adaptive ladder keys on.
        let rep = simulate_region(&m, 115.0, track, default_cfg(&m));
        assert!(rep.imbalance() > 0.2, "default imbalance {}", rep.imbalance());
    }

    #[test]
    fn specs_resolve_strictly() {
        for name in ["sp.S", "bt.W", "cg.A", "ep.B", "mg.C", "mc.S", "lulesh.B"] {
            let wl = by_spec(name).unwrap_or_else(|| panic!("{name} must resolve"));
            assert!(wl.timesteps > 0);
            assert!(!wl.step.is_empty());
        }
        for bad in ["sp", "sp.X", "lu.S", "", "sp.S.extra", "lulesh", "lulesh.45"] {
            assert!(by_spec(bad).is_none(), "{bad} must not resolve");
        }
    }

    #[test]
    fn descriptors_scale_with_class() {
        let b = bt(Class::B);
        let c = bt(Class::C);
        assert!(c.step[0].iterations > b.step[0].iterations);
        assert!(c.step[0].cycles_per_iter > b.step[0].cycles_per_iter);
        assert!(c.step[0].memory.footprint_bytes > b.step[0].memory.footprint_bytes);
    }
}
