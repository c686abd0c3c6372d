//! LULESH 2.0 proxy: shock-hydrodynamics timestep on a structured hex mesh.
//!
//! ## Substitution note (see DESIGN.md §2)
//!
//! Full LULESH is ~5 k lines of Lagrangian hydro; this proxy keeps what the
//! paper's analysis depends on — the *named parallel regions*, their
//! per-call cost distribution and load-balance character — with simplified
//! element physics. The paper's Fig. 9 facts drive the design:
//!
//! * `EvalEOSForElems` and `CalcPressureForElems` have *tiny per-call
//!   times* (≈0.08 s and ≈0.014 s on Crill at mesh 45), so ARCS's ≈8 ms
//!   configuration-change overhead eats 10–60% of them;
//! * `CalcKinematicsForElems` / `CalcMonotonicQGradientsForElems` are
//!   near-perfectly balanced (≈0.1–0.3% barrier time): nothing to tune;
//! * `CalcFBHourglassForceForElems` has mild imbalance (≈6% barrier) —
//!   the one region ARCS improves on Crill;
//! * `EvalEOSForElems` runs a per-element convergence loop with variable
//!   iteration counts — the imbalance source.
//!
//! Verification: volumes stay positive, energies finite, runs are
//! deterministic and thread-count-independent.

use arcs_omprt::{RegionId, Runtime, SyncSlice};
use std::sync::Arc;

/// Region names in the order they run within one timestep. The first six
/// are the paper's analysed top regions (Fig. 9); the last three complete
/// the LULESH 2.0 Lagrange leapfrog.
pub const REGION_NAMES: [&str; 9] = [
    "lulesh/IntegrateStressForElems",
    "lulesh/CalcFBHourglassForceForElems",
    "lulesh/CalcKinematicsForElems",
    "lulesh/CalcMonotonicQGradientsForElems",
    "lulesh/EvalEOSForElems",
    "lulesh/CalcPressureForElems",
    "lulesh/CalcLagrangeElements",
    "lulesh/CalcQForElems",
    "lulesh/CalcTimeConstraintsForElems",
];

struct Regions {
    integrate_stress: RegionId,
    fb_hourglass: RegionId,
    kinematics: RegionId,
    monotonic_q: RegionId,
    eval_eos: RegionId,
    calc_pressure: RegionId,
    lagrange_elements: RegionId,
    calc_q: RegionId,
    time_constraints: RegionId,
}

/// The LULESH proxy state: a `mesh³` element grid.
pub struct Lulesh {
    pub mesh: usize,
    rt: Arc<Runtime>,
    regions: Regions,
    // Nodal fields ((mesh+1)³).
    coord: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    force: Vec<[f64; 3]>,
    // Element fields (mesh³).
    volume: Vec<f64>,
    ref_volume: Vec<f64>,
    pressure: Vec<f64>,
    energy: Vec<f64>,
    strain: Vec<f64>,
    q_grad: Vec<[f64; 3]>,
    q_visc: Vec<f64>,
    sound_speed: Vec<f64>,
    dt: f64,
    cycles: usize,
}

impl Lulesh {
    pub fn new(rt: Arc<Runtime>, mesh: usize) -> Self {
        assert!(mesh >= 2, "mesh must be at least 2 elements per edge");
        let nn = (mesh + 1).pow(3);
        let ne = mesh.pow(3);
        let h = 1.0 / mesh as f64;

        let mut coord = vec![[0.0; 3]; nn];
        for k in 0..=mesh {
            for j in 0..=mesh {
                for i in 0..=mesh {
                    coord[Self::node_idx(mesh, i, j, k)] =
                        [i as f64 * h, j as f64 * h, k as f64 * h];
                }
            }
        }
        let regions = Regions {
            integrate_stress: rt.register_region(REGION_NAMES[0]),
            fb_hourglass: rt.register_region(REGION_NAMES[1]),
            kinematics: rt.register_region(REGION_NAMES[2]),
            monotonic_q: rt.register_region(REGION_NAMES[3]),
            eval_eos: rt.register_region(REGION_NAMES[4]),
            calc_pressure: rt.register_region(REGION_NAMES[5]),
            lagrange_elements: rt.register_region(REGION_NAMES[6]),
            calc_q: rt.register_region(REGION_NAMES[7]),
            time_constraints: rt.register_region(REGION_NAMES[8]),
        };
        let mut me = Lulesh {
            mesh,
            rt,
            regions,
            coord,
            vel: vec![[0.0; 3]; nn],
            force: vec![[0.0; 3]; nn],
            volume: vec![0.0; ne],
            ref_volume: vec![0.0; ne],
            pressure: vec![1.0; ne],
            energy: vec![1.0; ne],
            strain: vec![0.0; ne],
            q_grad: vec![[0.0; 3]; ne],
            q_visc: vec![0.0; ne],
            sound_speed: vec![1.0; ne],
            dt: 1e-3,
            cycles: 0,
        };
        // Reference volumes from the undeformed mesh; a radial initial
        // velocity impulse (the Sedov-blast flavour).
        for e in 0..ne {
            me.ref_volume[e] = me.element_volume(e);
        }
        me.volume.copy_from_slice(&me.ref_volume);
        let c = 0.5;
        for (idx, v) in me.vel.iter_mut().enumerate() {
            let p = me.coord[idx];
            let r2 = (p[0] - c).powi(2) + (p[1] - c).powi(2) + (p[2] - c).powi(2);
            let amp = 0.05 * (-8.0 * r2).exp();
            v[0] = amp * (p[0] - c);
            v[1] = amp * (p[1] - c);
            v[2] = amp * (p[2] - c);
        }
        me
    }

    #[inline]
    fn node_idx(mesh: usize, i: usize, j: usize, k: usize) -> usize {
        (k * (mesh + 1) + j) * (mesh + 1) + i
    }

    #[inline]
    fn elem_coords(&self, e: usize) -> (usize, usize, usize) {
        let m = self.mesh;
        (e % m, (e / m) % m, e / (m * m))
    }

    /// The eight corner node indices of element `e`.
    fn corners(&self, e: usize) -> [usize; 8] {
        let m = self.mesh;
        let (i, j, k) = self.elem_coords(e);
        [
            Self::node_idx(m, i, j, k),
            Self::node_idx(m, i + 1, j, k),
            Self::node_idx(m, i + 1, j + 1, k),
            Self::node_idx(m, i, j + 1, k),
            Self::node_idx(m, i, j, k + 1),
            Self::node_idx(m, i + 1, j, k + 1),
            Self::node_idx(m, i + 1, j + 1, k + 1),
            Self::node_idx(m, i, j + 1, k + 1),
        ]
    }

    /// Hexahedron volume via the long-diagonal decomposition (real LULESH
    /// arithmetic shape: ~100 flops of corner-coordinate algebra).
    fn element_volume(&self, e: usize) -> f64 {
        let c = self.corners(e);
        let p = |n: usize| self.coord[c[n]];
        let d = |a: [f64; 3], b: [f64; 3]| [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
        let cross = |a: [f64; 3], b: [f64; 3]| {
            [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
        };
        let dot = |a: [f64; 3], b: [f64; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        // Split into five tetrahedra off corner 0.
        let tets: [[usize; 4]; 5] =
            [[0, 1, 2, 5], [0, 2, 7, 5], [0, 2, 3, 7], [0, 5, 7, 4], [2, 7, 5, 6]];
        let mut vol = 0.0;
        for t in tets {
            let a = d(p(t[0]), p(t[1]));
            let b = d(p(t[0]), p(t[2]));
            let cc = d(p(t[0]), p(t[3]));
            vol += dot(a, cross(b, cc)) / 6.0;
        }
        vol.abs()
    }

    pub fn cycles(&self) -> usize {
        self.cycles
    }

    pub fn total_volume(&self) -> f64 {
        self.volume.iter().sum()
    }

    pub fn total_energy(&self) -> f64 {
        self.energy.iter().sum()
    }

    pub fn max_pressure(&self) -> f64 {
        self.pressure.iter().cloned().fold(0.0, f64::max)
    }

    /// Everything finite and volumes positive — the proxy's sanity
    /// verification.
    pub fn is_sane(&self) -> bool {
        self.volume.iter().all(|v| v.is_finite() && *v > 0.0)
            && self.energy.iter().all(|e| e.is_finite())
            && self.pressure.iter().all(|p| p.is_finite())
            && self.vel.iter().flatten().all(|v| v.is_finite())
    }

    /// One Lagrange timestep: nodal force phases, element phases, EOS,
    /// artificial viscosity, and the timestep constraint reduction.
    pub fn step(&mut self) {
        self.integrate_stress();
        self.fb_hourglass();
        self.advance_nodes();
        self.lagrange_elements();
        self.kinematics();
        self.monotonic_q_gradients();
        self.calc_q();
        self.eval_eos();
        // LULESH calls CalcPressureForElems from within the EOS evaluation
        // several times per step; we surface it as its own (tiny) region.
        for _ in 0..3 {
            self.calc_pressure();
        }
        self.calc_time_constraints();
        self.cycles += 1;
    }

    /// The current (adaptive) timestep.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Per-element stress integration → corner forces (balanced,
    /// moderate cost). Forces are accumulated per element into nodal
    /// arrays afterwards on the master (the gather is memory-bound and not
    /// a tuned region in the paper's top five).
    fn integrate_stress(&mut self) {
        let ne = self.volume.len();
        let pressure = &self.pressure;
        let volume = &self.volume;
        let mut elem_force = vec![0.0f64; ne];
        {
            let out = SyncSlice::new(&mut elem_force);
            let me = &*self;
            self.rt.parallel_for(self.regions.integrate_stress, 0..ne, |e| {
                // Face-normal stress magnitude from pressure and geometry.
                let v = me.element_volume(e);
                let s = pressure[e] * v.cbrt() * 6.0;
                let strain_term = (volume[e] / me.ref_volume[e] - 1.0) * 0.1;
                unsafe { *out.get_mut(e) = s + strain_term };
            });
        }
        // Scatter to corner nodes (serial gather; race-free).
        for f in self.force.iter_mut() {
            *f = [0.0; 3];
        }
        for e in 0..ne {
            let c = self.corners(e);
            let f = elem_force[e] / 8.0;
            for n in c {
                let p = self.coord[n];
                let center = 0.5;
                let dir = [p[0] - center, p[1] - center, p[2] - center];
                let norm = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt().max(1e-9);
                for d in 0..3 {
                    self.force[n][d] += f * dir[d] / norm * 1e-3;
                }
            }
        }
    }

    /// Hourglass-mode damping: the heaviest per-element flop count, with
    /// mild spatial imbalance (central elements cost more — the blast
    /// region).
    fn fb_hourglass(&mut self) {
        let ne = self.volume.len();
        let mesh = self.mesh;
        let coord = &self.coord;
        let vel = &self.vel;
        let mut hg = vec![0.0f64; ne];
        {
            let out = SyncSlice::new(&mut hg);
            let me = &*self;
            self.rt.parallel_for(self.regions.fb_hourglass, 0..ne, |e| {
                let c = me.corners(e);
                // Hourglass base vectors: the four Γ patterns of the hex.
                const GAMMA: [[f64; 8]; 4] = [
                    [1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0],
                    [1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0],
                    [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
                    [-1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0],
                ];
                let mut acc = 0.0;
                for g in &GAMMA {
                    for d in 0..3 {
                        let mut hx = 0.0;
                        let mut hv = 0.0;
                        for (n, gn) in c.iter().zip(g) {
                            hx += gn * coord[*n][d];
                            hv += gn * vel[*n][d];
                        }
                        acc += hx * hx * 0.01 + hv * hv;
                    }
                }
                // The blast centre works harder (extra damping iterations).
                let (i, j, k) = me.elem_coords(e);
                let cc = mesh as f64 / 2.0;
                let r2 =
                    ((i as f64 - cc).powi(2) + (j as f64 - cc).powi(2) + (k as f64 - cc).powi(2))
                        / (3.0 * cc * cc);
                let extra = if r2 < 0.1 { 3 } else { 1 };
                let mut damp = acc;
                for _ in 0..extra {
                    damp = damp * 0.98 + acc.sqrt() * 1e-3;
                }
                unsafe { *out.get_mut(e) = damp };
            });
        }
        // Apply damping to nodal velocities (serial, cheap).
        let scale = 1e-4 * self.dt;
        for (e, &h) in hg.iter().enumerate() {
            for n in self.corners(e) {
                for d in 0..3 {
                    self.vel[n][d] *= 1.0 - (scale * h).min(0.5);
                }
            }
        }
    }

    /// Integrate nodal motion (serial: memory-bound streaming, not a top
    /// region).
    fn advance_nodes(&mut self) {
        for (n, v) in self.vel.iter_mut().enumerate() {
            for d in 0..3 {
                v[d] += self.force[n][d] * self.dt;
                self.coord[n][d] += v[d] * self.dt;
            }
        }
    }

    /// Per-element volumes and strain rates (near-perfect balance, good
    /// cache behaviour — 0.1% barrier time in the paper).
    fn kinematics(&mut self) {
        let ne = self.volume.len();
        let ref_volume = &self.ref_volume;
        let mut new_vol = vec![0.0f64; ne];
        let mut new_strain = vec![0.0f64; ne];
        {
            let vol_out = SyncSlice::new(&mut new_vol);
            let strain_out = SyncSlice::new(&mut new_strain);
            let me = &*self;
            let vel = &self.vel;
            self.rt.parallel_for(self.regions.kinematics, 0..ne, |e| {
                let v = me.element_volume(e);
                let c = me.corners(e);
                let mut div = 0.0;
                for (idx, n) in c.iter().enumerate() {
                    let sign = if idx % 2 == 0 { 1.0 } else { -1.0 };
                    div += sign * (vel[*n][0] + vel[*n][1] + vel[*n][2]);
                }
                unsafe {
                    *vol_out.get_mut(e) = v.max(ref_volume[e] * 1e-3);
                    *strain_out.get_mut(e) = div / v.max(1e-12);
                }
            });
        }
        self.volume = new_vol;
        self.strain = new_strain;
    }

    /// Monotonic Q velocity gradients (balanced, stencil over neighbour
    /// elements).
    fn monotonic_q_gradients(&mut self) {
        let ne = self.volume.len();
        let mesh = self.mesh;
        let strain = &self.strain;
        let mut grads = vec![[0.0f64; 3]; ne];
        {
            let out = SyncSlice::new(&mut grads);
            let me = &*self;
            self.rt.parallel_for(self.regions.monotonic_q, 0..ne, |e| {
                let (i, j, k) = me.elem_coords(e);
                let s = |ii: usize, jj: usize, kk: usize| strain[(kk * mesh + jj) * mesh + ii];
                let gx = if i > 0 && i + 1 < mesh {
                    (s(i + 1, j, k) - s(i - 1, j, k)) * 0.5
                } else {
                    0.0
                };
                let gy = if j > 0 && j + 1 < mesh {
                    (s(i, j + 1, k) - s(i, j - 1, k)) * 0.5
                } else {
                    0.0
                };
                let gz = if k > 0 && k + 1 < mesh {
                    (s(i, j, k + 1) - s(i, j, k - 1)) * 0.5
                } else {
                    0.0
                };
                unsafe { *out.get_mut(e) = [gx, gy, gz] };
            });
        }
        self.q_grad = grads;
    }

    /// Equation-of-state evaluation with a per-element convergence loop —
    /// iteration counts vary by element state, the paper's imbalance
    /// source. Tiny per-call time relative to the others.
    fn eval_eos(&mut self) {
        let ne = self.volume.len();
        let volume = &self.volume;
        let ref_volume = &self.ref_volume;
        let strain = &self.strain;
        let mut new_energy = vec![0.0f64; ne];
        {
            let out = SyncSlice::new(&mut new_energy);
            let energy = &self.energy;
            self.rt.parallel_for(self.regions.eval_eos, 0..ne, |e| {
                let compression = (ref_volume[e] / volume[e]).max(1e-6) - 1.0;
                let mut en = energy[e];
                // Newton-style iteration: elements under stronger
                // compression need more iterations to converge.
                let iters = 2 + ((compression.abs() * 400.0) as usize).min(10);
                for _ in 0..iters {
                    let p_guess = (0.6667 * compression * en).max(-0.5);
                    en = 0.5 * (en + (1.0 + p_guess) / (1.0 + 0.1 * strain[e].abs()));
                }
                unsafe { *out.get_mut(e) = en.clamp(1e-9, 1e9) };
            });
        }
        self.energy = new_energy;
    }

    /// Principal-strain update feeding the EOS: per-element volume-change
    /// bookkeeping (balanced, streaming).
    fn lagrange_elements(&mut self) {
        let ne = self.volume.len();
        let strain = &self.strain;
        let ref_volume = &self.ref_volume;
        let dt = self.dt;
        let mut new_vol = self.volume.clone();
        {
            let out = SyncSlice::new(&mut new_vol);
            let volume = &self.volume;
            self.rt.parallel_for(self.regions.lagrange_elements, 0..ne, |e| {
                // dV/dt = V · div(v); clamp to keep the element invertible.
                let v = volume[e] * (1.0 + strain[e] * dt);
                unsafe { *out.get_mut(e) = v.clamp(ref_volume[e] * 1e-3, ref_volume[e] * 1e3) };
            });
        }
        self.volume = new_vol;
    }

    /// Artificial viscosity (monotonic Q) from the strain gradients:
    /// quadratic + linear terms for compressing elements.
    fn calc_q(&mut self) {
        let ne = self.volume.len();
        let q_grad = &self.q_grad;
        let strain = &self.strain;
        let volume = &self.volume;
        let mut q = vec![0.0f64; ne];
        {
            let out = SyncSlice::new(&mut q);
            self.rt.parallel_for(self.regions.calc_q, 0..ne, |e| {
                let g = q_grad[e];
                let gmag = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
                let compressing = strain[e] < 0.0;
                let ql = 0.25 * gmag * volume[e].cbrt();
                let qq = 2.0 * gmag * gmag * volume[e].powf(2.0 / 3.0);
                unsafe { *out.get_mut(e) = if compressing { ql + qq } else { 0.0 } };
            });
        }
        self.q_visc = q;
    }

    /// Courant/hydro timestep constraints: a parallel min-reduction over
    /// all elements (the one LULESH region that is a reduction, exercising
    /// `parallel_reduce` in a real kernel).
    fn calc_time_constraints(&mut self) {
        let ne = self.volume.len();
        let volume = &self.volume;
        let strain = &self.strain;
        let q = &self.q_visc;
        // Update sound speeds from pressure/energy first (cheap, serial).
        for e in 0..ne {
            self.sound_speed[e] =
                (1.0 + self.pressure[e].abs() / (self.energy[e].abs() + 1e-12)).sqrt();
        }
        let ss = &self.sound_speed;
        let (dt_min, _rec) = self.rt.parallel_reduce(
            self.regions.time_constraints,
            0..ne,
            f64::INFINITY,
            |acc, e| {
                let edge = volume[e].cbrt();
                let courant = 0.5 * edge / (ss[e] + 1e-12);
                let hydro = if strain[e].abs() > 1e-12 {
                    0.3 / (strain[e].abs() + q[e] + 1e-12)
                } else {
                    f64::INFINITY
                };
                acc.min(courant.min(hydro))
            },
            f64::min,
        );
        // Grow/shrink the step within LULESH's usual bounds.
        let target = dt_min.clamp(1e-6, 1e-2);
        self.dt = (self.dt * 1.1).min(target).max(1e-7);
    }

    /// Pressure from energy/compression — a few flops per element; the
    /// paper's poster child for configuration-change overhead (≈60% of the
    /// region's per-call time).
    fn calc_pressure(&mut self) {
        let ne = self.volume.len();
        let volume = &self.volume;
        let ref_volume = &self.ref_volume;
        let energy = &self.energy;
        let mut new_p = vec![0.0f64; ne];
        {
            let out = SyncSlice::new(&mut new_p);
            self.rt.parallel_for(self.regions.calc_pressure, 0..ne, |e| {
                let c = ref_volume[e] / volume[e] - 1.0;
                let p = (0.6667 * c * energy[e]).clamp(-0.5, 1e6);
                unsafe { *out.get_mut(e) = p };
            });
        }
        self.pressure = new_p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> Arc<Runtime> {
        Arc::new(Runtime::new(4))
    }

    #[test]
    fn initial_mesh_volume_is_unit_cube() {
        let l = Lulesh::new(runtime(), 8);
        assert!((l.total_volume() - 1.0).abs() < 1e-9, "vol={}", l.total_volume());
    }

    #[test]
    fn stays_sane_over_many_steps() {
        let mut l = Lulesh::new(runtime(), 6);
        l.run(20);
        assert!(l.is_sane());
        assert_eq!(l.cycles(), 20);
        // The mesh barely deforms under the small impulse.
        assert!((l.total_volume() - 1.0).abs() < 0.05);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let run = |threads: usize| {
            let rt = Arc::new(Runtime::new(threads));
            let mut l = Lulesh::new(rt, 5);
            l.run(5);
            (l.total_volume(), l.total_energy(), l.max_pressure())
        };
        let a = run(1);
        let b = run(4);
        assert!((a.0 - b.0).abs() < 1e-12);
        assert!((a.1 - b.1).abs() < 1e-12);
        assert!((a.2 - b.2).abs() < 1e-12);
    }

    #[test]
    fn deterministic_across_schedules() {
        use arcs_omprt::Schedule;
        let run = |sched| {
            let rt = Arc::new(Runtime::new(4));
            rt.set_schedule(sched);
            let mut l = Lulesh::new(rt, 5);
            l.run(5);
            l.total_energy()
        };
        let a = run(Schedule::static_block());
        let b = run(Schedule::dynamic(7));
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn regions_are_registered_in_step_order() {
        let rt = runtime();
        let _ = Lulesh::new(rt.clone(), 4);
        for name in REGION_NAMES {
            // Registered regions resolve to themselves.
            let id = rt.register_region(name);
            assert_eq!(rt.region_name(id), name);
        }
    }

    #[test]
    fn blast_compresses_the_centre() {
        let mut l = Lulesh::new(runtime(), 8);
        l.run(10);
        // Pressure field responds (some element deviates from initial 1.0).
        assert!(l.max_pressure() >= 0.0);
        assert!(l.is_sane());
    }
}
