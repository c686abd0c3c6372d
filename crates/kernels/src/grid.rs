//! Structured-grid storage for the NPB-style solvers.
//!
//! NPB BT/SP keep their state in arrays shaped `(5, nx, ny, nz)` — five
//! conserved components per grid point. [`Field`] stores them as
//! `[k][j][i][m]` with the five components contiguous (the C-version
//! layout), so unit-stride sweeps run along `i` and the `K ± 2` accesses in
//! `rhsz` are plane-sized strides — the paper's canonical cache-hostile
//! pattern.

use arcs_omprt::SyncSlice;

/// Number of conserved components per grid point.
pub const NCOMP: usize = 5;

/// A `(nx, ny, nz)` grid of 5-vectors, laid out `[k][j][i][m]`.
#[derive(Debug, Clone)]
pub struct Field {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    data: Vec<f64>,
}

impl Field {
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Field { nx, ny, nz, data: vec![0.0; nx * ny * nz * NCOMP] }
    }

    #[inline]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        ((k * self.ny + j) * self.nx + i) * NCOMP
    }

    /// The 5-vector at a grid point.
    #[inline]
    pub fn at(&self, i: usize, j: usize, k: usize) -> &[f64; NCOMP] {
        let idx = self.idx(i, j, k);
        self.data[idx..idx + NCOMP].try_into().unwrap()
    }

    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize, k: usize) -> &mut [f64; NCOMP] {
        let idx = self.idx(i, j, k);
        (&mut self.data[idx..idx + NCOMP]).try_into().unwrap()
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize, m: usize) -> f64 {
        self.data[self.idx(i, j, k) + m]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, k: usize, m: usize, v: f64) {
        let idx = self.idx(i, j, k) + m;
        self.data[idx] = v;
    }

    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Shareable raw view for disjoint parallel writes (one thread per set
    /// of `k` planes — the NPB parallelisation).
    pub fn sync_view(&mut self) -> SyncSlice<'_, f64> {
        SyncSlice::new(&mut self.data)
    }

    /// Total bytes of the backing store.
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// L2 norm over all components, normalised per grid point.
    pub fn rms(&self) -> f64 {
        let ss: f64 = self.data.iter().map(|&x| x * x).sum();
        (ss / (self.nx * self.ny * self.nz) as f64).sqrt()
    }
}

/// Unsafe accessors over a raw field view, used inside parallel regions.
/// Mirrors `Field`'s indexing; the caller guarantees the k-planes written
/// by different threads are disjoint.
pub struct FieldView<'a> {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    slice: SyncSlice<'a, f64>,
}

impl<'a> FieldView<'a> {
    pub fn new(field: &'a mut Field) -> Self {
        let (nx, ny, nz) = (field.nx, field.ny, field.nz);
        FieldView { nx, ny, nz, slice: field.sync_view() }
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.nx && j < self.ny && k < self.nz);
        ((k * self.ny + j) * self.nx + i) * NCOMP
    }

    /// # Safety
    /// In-bounds point; no concurrent writer to this point.
    #[inline]
    pub unsafe fn get(&self, i: usize, j: usize, k: usize, m: usize) -> f64 {
        *self.slice.get(self.idx(i, j, k) + m)
    }

    /// # Safety
    /// In-bounds point; this thread is the unique accessor of the point
    /// during the region.
    #[inline]
    pub unsafe fn set(&self, i: usize, j: usize, k: usize, m: usize, v: f64) {
        *self.slice.get_mut(self.idx(i, j, k) + m) = v;
    }

    /// # Safety
    /// Same contract as [`FieldView::set`], for a whole 5-vector.
    // &self → &mut: aliasing is delegated to the work-sharing contract.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn point_mut(&self, i: usize, j: usize, k: usize) -> &mut [f64] {
        let idx = self.idx(i, j, k);
        self.slice.slice_mut(idx, idx + NCOMP)
    }

    /// # Safety
    /// In-bounds point; no concurrent writer.
    #[inline]
    pub unsafe fn point(&self, i: usize, j: usize, k: usize) -> &[f64] {
        let idx = self.idx(i, j, k);
        &*(self.slice.slice_mut(idx, idx + NCOMP) as *const [f64])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_component_contiguous() {
        let mut f = Field::new(4, 3, 2);
        f.set(1, 2, 1, 3, 7.5);
        let idx = f.idx(1, 2, 1);
        assert_eq!(f.as_slice()[idx + 3], 7.5);
        // i is the fastest-varying spatial index.
        assert_eq!(f.idx(2, 2, 1) - f.idx(1, 2, 1), NCOMP);
        // k stride is a whole plane.
        assert_eq!(f.idx(0, 0, 1) - f.idx(0, 0, 0), 4 * 3 * NCOMP);
    }

    #[test]
    fn at_roundtrips() {
        let mut f = Field::new(3, 3, 3);
        f.at_mut(1, 1, 1).copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(f.at(1, 1, 1), &[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(f.get(1, 1, 1, 4), 5.0);
    }

    #[test]
    fn rms_matches_manual() {
        let mut f = Field::new(2, 1, 1);
        f.at_mut(0, 0, 0).copy_from_slice(&[3.0, 0.0, 0.0, 0.0, 0.0]);
        f.at_mut(1, 0, 0).copy_from_slice(&[0.0, 4.0, 0.0, 0.0, 0.0]);
        // ss = 25, points = 2 → rms = sqrt(12.5)
        assert!((f.rms() - 12.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn parallel_plane_writes_are_disjoint() {
        use arcs_omprt::Runtime;
        let rt = Runtime::new(4);
        let region = rt.register_region("planes");
        let mut f = Field::new(8, 8, 16);
        {
            let view = FieldView::new(&mut f);
            rt.parallel_for(region, 0..16, |k| unsafe {
                for j in 0..8 {
                    for i in 0..8 {
                        view.set(i, j, k, 0, (i + j + k) as f64);
                    }
                }
            });
        }
        for k in 0..16 {
            for j in 0..8 {
                for i in 0..8 {
                    assert_eq!(f.get(i, j, k, 0), (i + j + k) as f64);
                }
            }
        }
    }
}
