//! Discrete search spaces.
//!
//! Active Harmony tunes over *enumerated* parameter domains: each parameter
//! has an ordered list of admissible values (e.g. thread counts
//! `{2,4,8,16,24,32}`). Search algorithms here work on the *index grid*: a
//! [`Point`] is one index per parameter. Continuous algorithms (Nelder–Mead,
//! PRO) relax indices to reals in `[0, levels-1]` and round to the nearest
//! grid point, which is exactly how Active Harmony handles enumerated
//! domains. The mapping from indices back to meaningful values (thread
//! counts, schedules, chunks) lives with the caller.
//!
//! Search state allocates nothing per step: a [`Point`] and a relaxed
//! [`Coords`] are both inline and `Copy`, and cloning a [`SearchSpace`]
//! shares its parameter list, so a tuner builds its space once and every
//! session and strategy holds that one.

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::sync::Arc;

/// One tunable parameter: a name and the number of admissible levels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Param {
    pub name: String,
    pub levels: usize,
}

impl Param {
    pub fn new(name: impl Into<String>, levels: usize) -> Self {
        assert!(levels >= 1, "a parameter needs at least one level");
        Param { name: name.into(), levels }
    }
}

/// The most parameters a [`SearchSpace`] may have: the three Table I
/// knobs (threads, schedule, chunk) plus the DVFS axis.
pub const MAX_DIM: usize = 4;

/// A point in the index grid: `point[i] < params[i].levels`.
///
/// Held inline and `Copy` (at most [`MAX_DIM`] indices), so asking,
/// caching and comparing points allocates nothing. It reads as a
/// `[usize]` slice, prints like one, and serialises as the same integer
/// sequence a `Vec<usize>` does.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Point {
    len: usize,
    /// Indices past `len` stay zero, so the derived equality and hash
    /// are the slice's.
    idx: [usize; MAX_DIM],
}

impl std::ops::Deref for Point {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        &self.idx[..self.len]
    }
}

impl FromIterator<usize> for Point {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut p = Point::default();
        for i in iter {
            p.idx[p.len] = i; // panics past MAX_DIM indices
            p.len += 1;
        }
        p
    }
}

impl From<Vec<usize>> for Point {
    fn from(indices: Vec<usize>) -> Self {
        indices.into_iter().collect()
    }
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

impl Serialize for Point {
    fn to_value(&self) -> Value {
        self.to_vec().to_value()
    }
}

impl Deserialize for Point {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let indices = Vec::<usize>::from_value(v)?;
        match indices.len() {
            0..=MAX_DIM => Ok(indices.into()),
            _ => Err(serde::Error::custom(format!("a point holds at most {MAX_DIM} indices"))),
        }
    }
}

/// A point of the relaxed index space: one real coordinate per
/// parameter, in `[0, levels-1]`, as Nelder–Mead and PRO move it before
/// rounding to a [`Point`].
///
/// Held inline and `Copy` like `Point` (at most [`MAX_DIM`] coordinates),
/// so vertices, centroids and proposals allocate nothing. It reads as a
/// `[f64]` slice and prints like one.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Coords {
    len: usize,
    x: [f64; MAX_DIM],
}

impl Coords {
    /// `len` zeros.
    pub fn zeros(len: usize) -> Self {
        assert!(len <= MAX_DIM, "at most {MAX_DIM} coordinates");
        Coords { len, x: [0.0; MAX_DIM] }
    }
}

impl std::ops::Deref for Coords {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.x[..self.len]
    }
}

impl std::ops::DerefMut for Coords {
    fn deref_mut(&mut self) -> &mut [f64] {
        &mut self.x[..self.len]
    }
}

impl FromIterator<f64> for Coords {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut c = Coords::default();
        for v in iter {
            c.x[c.len] = v; // panics past MAX_DIM coordinates
            c.len += 1;
        }
        c
    }
}

impl fmt::Debug for Coords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self[..].fmt(f)
    }
}

/// The Cartesian product of parameter domains. A clone shares the
/// parameter list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchSpace {
    params: Arc<Vec<Param>>,
}

impl SearchSpace {
    pub fn new(params: Vec<Param>) -> Self {
        assert!(!params.is_empty(), "search space needs at least one parameter");
        assert!(params.len() <= MAX_DIM, "a search space has at most {MAX_DIM} parameters");
        SearchSpace { params: Arc::new(params) }
    }

    pub fn params(&self) -> &[Param] {
        &self.params
    }

    pub fn dim(&self) -> usize {
        self.params.len()
    }

    /// Total number of grid points.
    pub fn size(&self) -> usize {
        self.params.iter().map(|p| p.levels).product()
    }

    /// Is `point` inside the grid?
    pub fn contains(&self, point: &[usize]) -> bool {
        point.len() == self.dim()
            && point.iter().zip(self.params.iter()).all(|(&i, p)| i < p.levels)
    }

    /// Decode a flat rank in `[0, size)` into a point (row-major order:
    /// the last parameter varies fastest).
    pub fn unrank(&self, mut rank: usize) -> Point {
        assert!(rank < self.size(), "rank out of range");
        let mut point = Point { len: self.dim(), idx: [0; MAX_DIM] };
        for (i, p) in self.params.iter().enumerate().rev() {
            point.idx[i] = rank % p.levels;
            rank /= p.levels;
        }
        point
    }

    /// Inverse of [`SearchSpace::unrank`].
    pub fn rank(&self, point: &[usize]) -> usize {
        debug_assert!(self.contains(point));
        let mut rank = 0;
        for (i, p) in self.params.iter().enumerate() {
            rank = rank * p.levels + point[i];
        }
        rank
    }

    /// Iterate every grid point in rank order.
    pub fn iter_points(&self) -> impl Iterator<Item = Point> + '_ {
        (0..self.size()).map(|r| self.unrank(r))
    }

    /// Round a continuous relaxation to the nearest grid point, clamping to
    /// the domain.
    pub fn round(&self, x: &[f64]) -> Point {
        debug_assert_eq!(x.len(), self.dim());
        x.iter()
            .zip(self.params.iter())
            .map(|(&v, p)| {
                let hi = (p.levels - 1) as f64;
                (v.clamp(0.0, hi) + 0.5).floor() as usize
            })
            .collect()
    }

    /// Clamp a continuous vector into the relaxed domain `[0, levels-1]^d`.
    pub fn clamp(&self, x: &mut [f64]) {
        for (v, p) in x.iter_mut().zip(self.params.iter()) {
            *v = v.clamp(0.0, (p.levels - 1) as f64);
        }
    }

    /// The continuous-domain upper bound per dimension.
    pub fn upper(&self) -> Coords {
        self.params.iter().map(|p| (p.levels - 1) as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> SearchSpace {
        SearchSpace::new(vec![
            Param::new("threads", 7),
            Param::new("schedule", 4),
            Param::new("chunk", 9),
        ])
    }

    #[test]
    fn size_is_product() {
        assert_eq!(space().size(), 7 * 4 * 9);
    }

    #[test]
    fn rank_unrank_roundtrip() {
        let s = space();
        for r in 0..s.size() {
            let p = s.unrank(r);
            assert!(s.contains(&p));
            assert_eq!(s.rank(&p), r);
        }
    }

    #[test]
    fn iter_visits_all_points_once() {
        let s = space();
        let pts: Vec<Point> = s.iter_points().collect();
        assert_eq!(pts.len(), s.size());
        let mut ranks: Vec<usize> = pts.iter().map(|p| s.rank(p)).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..s.size()).collect::<Vec<_>>());
    }

    #[test]
    fn round_clamps_and_rounds() {
        let s = space();
        assert_eq!(s.round(&[-3.0, 1.4, 100.0])[..], [0, 1, 8]);
        assert_eq!(s.round(&[2.5, 2.51, 2.49])[..], [3, 3, 2]);
    }

    #[test]
    fn contains_rejects_bad_points() {
        let s = space();
        assert!(!s.contains(&[7, 0, 0]));
        assert!(!s.contains(&[0, 0]));
        assert!(s.contains(&[6, 3, 8]));
    }

    #[test]
    fn a_point_serialises_and_prints_as_the_vec_it_reads_as() {
        let s = space();
        for p in s.iter_points() {
            let json = serde_json::to_string(&p).unwrap();
            assert_eq!(json, serde_json::to_string(&p.to_vec()).unwrap());
            assert_eq!(serde_json::from_str::<Point>(&json).unwrap(), p);
            assert_eq!(format!("{p:?}"), format!("{:?}", p.to_vec()));
        }
        assert!(serde_json::from_str::<Point>("[0,1,2,3,4]").is_err());
    }

    #[test]
    #[should_panic(expected = "at most 4 parameters")]
    fn a_fifth_parameter_is_rejected() {
        SearchSpace::new((0..5).map(|i| Param::new(format!("p{i}"), 2)).collect());
    }

    #[test]
    #[should_panic]
    fn zero_level_param_rejected() {
        Param::new("bad", 0);
    }
}
