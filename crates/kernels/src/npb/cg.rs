//! CG: conjugate-gradient kernel (NPB CG shape).
//!
//! The paper's §II notes the authors "experimented with OpenMP regions
//! from other NAS Parallel benchmark applications"; CG is the canonical
//! *irregular memory-bound* member of the suite — a sparse
//! symmetric-positive-definite matrix–vector product dominates, with dot
//! products (reductions) and AXPY updates around it. Its regions stress a
//! completely different corner of the configuration space than BT/SP's
//! dense sweeps: indirect accesses defeat prefetching, and the matvec's
//! per-row cost varies with the row's population (natural imbalance).
//!
//! The matrix is a deterministic random SPD matrix in CSR form
//! (diagonally dominant, symmetric pattern), so CG provably converges —
//! the built-in verification. NPB's reference eigenvalue machinery is
//! replaced by the residual-norm contract (see DESIGN.md §2).

use super::Class;
use arcs_omprt::{RegionId, Runtime, SyncSlice};
use std::sync::Arc;

/// CSR sparse matrix.
pub struct Csr {
    pub n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `i`'s column indices and values.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }
}

/// splitmix64 — the deterministic generator for the matrix pattern (the
/// analogue of NPB's `randlc`).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    arcs_powersim::splitmix64(*state)
}

/// Build a deterministic random symmetric positive-definite CSR matrix of
/// size `n` with ~`row_nnz` off-diagonal entries per row. Diagonal
/// dominance guarantees SPD, so CG converges from any start.
pub fn make_spd(n: usize, row_nnz: usize, seed: u64) -> Csr {
    let mut state = seed | 1;
    // Symmetric pattern: collect (i, j, v) with i < j, mirror them.
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for i in 0..n {
        for _ in 0..row_nnz / 2 {
            let j = (splitmix(&mut state) as usize) % n;
            if j == i {
                continue;
            }
            let v = -((splitmix(&mut state) >> 40) as f64 / (1u64 << 24) as f64) - 0.01;
            adj[i].push((j, v));
            adj[j].push((i, v));
        }
    }
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    row_ptr.push(0);
    for (i, row) in adj.iter_mut().enumerate() {
        row.sort_by_key(|&(j, _)| j);
        row.dedup_by_key(|e| e.0);
        // Diagonal: |sum of off-diagonals| + 1 ⇒ strictly dominant.
        let dom: f64 = row.iter().map(|&(_, v)| v.abs()).sum::<f64>() + 1.0;
        let mut inserted_diag = false;
        for &(j, v) in row.iter() {
            if j > i && !inserted_diag {
                col_idx.push(i);
                values.push(dom);
                inserted_diag = true;
            }
            col_idx.push(j);
            values.push(v);
        }
        if !inserted_diag {
            col_idx.push(i);
            values.push(dom);
        }
        row_ptr.push(col_idx.len());
    }
    Csr { n, row_ptr, col_idx, values }
}

/// CG problem sizes per NPB class (matrix order, off-diag nnz per row).
pub fn cg_size(class: Class) -> (usize, usize) {
    match class {
        Class::S => (1_400, 8),
        Class::W => (7_000, 10),
        Class::A => (14_000, 12),
        Class::B => (75_000, 14),
        Class::C => (150_000, 16),
    }
}

struct Regions {
    matvec: RegionId,
    dot: RegionId,
    axpy: RegionId,
    norm: RegionId,
}

/// The CG application: repeated conjugate-gradient solves against a fixed
/// SPD matrix (the NPB outer iteration).
pub struct CgSolver {
    rt: Arc<Runtime>,
    a: Csr,
    x: Vec<f64>,
    regions: Regions,
    /// ‖r‖ at the end of each `conj_grad` call.
    pub residual_history: Vec<f64>,
}

impl CgSolver {
    pub fn new(rt: Arc<Runtime>, class: Class) -> Self {
        let (n, row_nnz) = cg_size(class);
        let a = make_spd(n, row_nnz, 0x005E_EDC6);
        let regions = Regions {
            matvec: rt.register_region("cg/matvec"),
            dot: rt.register_region("cg/dot"),
            axpy: rt.register_region("cg/axpy"),
            norm: rt.register_region("cg/norm"),
        };
        CgSolver { rt, a, x: vec![1.0; n], regions, residual_history: Vec::new() }
    }

    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    pub fn region_names() -> [&'static str; 4] {
        ["cg/matvec", "cg/dot", "cg/axpy", "cg/norm"]
    }

    fn matvec(&self, p: &[f64], q: &mut [f64]) {
        let a = &self.a;
        let out = SyncSlice::new(q);
        self.rt.parallel_for(self.regions.matvec, 0..a.n, |i| {
            let (cols, vals) = a.row(i);
            let mut s = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                s += v * p[j];
            }
            // SAFETY: one writer per row.
            unsafe { *out.get_mut(i) = s };
        });
    }

    fn dot(&self, a: &[f64], b: &[f64]) -> f64 {
        let (s, _) = self.rt.parallel_reduce(
            self.regions.dot,
            0..a.len(),
            0.0f64,
            |acc, i| acc + a[i] * b[i],
            |x, y| x + y,
        );
        s
    }

    fn axpy(&self, y: &mut [f64], alpha: f64, x: &[f64]) {
        let out = SyncSlice::new(y);
        self.rt.parallel_for(self.regions.axpy, 0..x.len(), |i| unsafe {
            *out.get_mut(i) += alpha * x[i];
        });
    }

    /// One `conj_grad` call: solve `A z = x` approximately with `iters` CG
    /// iterations starting from z = 0, then re-normalise x (the NPB outer
    /// power-iteration step). Returns the final residual norm.
    pub fn conj_grad(&mut self, iters: usize) -> f64 {
        let n = self.a.n;
        let mut z = vec![0.0; n];
        let mut r = self.x.clone();
        let mut p = r.clone();
        let mut q = vec![0.0; n];
        let mut rho = self.dot(&r, &r);
        for _ in 0..iters {
            self.matvec(&p, &mut q);
            let alpha = rho / self.dot(&p, &q).max(1e-300);
            self.axpy(&mut z, alpha, &p);
            self.axpy(&mut r, -alpha, &q);
            let rho_new = self.dot(&r, &r);
            let beta = rho_new / rho.max(1e-300);
            rho = rho_new;
            // p = r + beta·p (fused on the axpy region).
            {
                let pv = SyncSlice::new(&mut p);
                let rr = &r;
                self.rt.parallel_for(self.regions.axpy, 0..n, |i| unsafe {
                    let cur = *pv.get(i);
                    *pv.get_mut(i) = rr[i] + beta * cur;
                });
            }
        }
        // ‖r‖ and x-normalisation (the norm region).
        let rnorm = self.dot(&r, &r).sqrt();
        let znorm = self.dot(&z, &z).sqrt().max(1e-300);
        {
            let xv = SyncSlice::new(&mut self.x);
            let zz = &z;
            self.rt.parallel_for(self.regions.norm, 0..n, |i| unsafe {
                *xv.get_mut(i) = zz[i] / znorm;
            });
        }
        self.residual_history.push(rnorm);
        rnorm
    }

    /// Run `outer` power-iteration steps of `inner` CG iterations each.
    pub fn run(&mut self, outer: usize, inner: usize) {
        for _ in 0..outer {
            self.conj_grad(inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> Arc<Runtime> {
        Arc::new(Runtime::new(4))
    }

    #[test]
    fn matrix_is_symmetric_and_diagonally_dominant() {
        let a = make_spd(200, 8, 7);
        for i in 0..a.n {
            let (cols, vals) = a.row(i);
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&j, &v) in cols.iter().zip(vals) {
                if j == i {
                    diag = v;
                } else {
                    off += v.abs();
                    // Symmetry: find (j, i).
                    let (jc, jv) = a.row(j);
                    let k = jc.iter().position(|&c| c == i).expect("symmetric pattern");
                    assert_eq!(jv[k], v, "A[{i}][{j}] != A[{j}][{i}]");
                }
            }
            assert!(diag > off, "row {i} not dominant: {diag} vs {off}");
        }
    }

    #[test]
    fn cg_residual_shrinks_substantially() {
        let mut cg = CgSolver::new(runtime(), Class::S);
        // CG on an SPD system must contract the residual hard within a few
        // iterations (condition number is small under strong dominance).
        let r = cg.conj_grad(15);
        let b_norm = (cg.a.n as f64).sqrt(); // ‖x₀‖ with x₀ = ones
        assert!(r < b_norm * 1e-6, "residual {r} vs rhs norm {b_norm}");
    }

    #[test]
    fn residual_history_is_monotone_over_iterations() {
        let rt = runtime();
        let mut cg = CgSolver::new(rt, Class::S);
        let r5 = cg.conj_grad(5);
        let mut cg2 = CgSolver::new(runtime(), Class::S);
        let r15 = cg2.conj_grad(15);
        assert!(r15 < r5, "more CG iterations must not worsen the residual");
    }

    #[test]
    fn deterministic_across_thread_counts_with_static_schedule() {
        let run = |threads| {
            let rt = Arc::new(Runtime::new(threads));
            let mut cg = CgSolver::new(rt, Class::S);
            cg.conj_grad(10)
        };
        let a = run(1);
        let b = run(4);
        // Reductions tree-combine per thread slot; with the static schedule
        // the slot assignment is deterministic, so runs agree to roundoff.
        assert!((a - b).abs() <= 1e-9 * a.max(1.0), "{a} vs {b}");
    }

    #[test]
    fn regions_are_registered() {
        let rt = runtime();
        let _ = CgSolver::new(rt.clone(), Class::S);
        for name in CgSolver::region_names() {
            let id = rt.register_region(name);
            assert_eq!(rt.region_name(id), name);
        }
    }
}
