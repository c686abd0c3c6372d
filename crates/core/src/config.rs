//! OpenMP runtime configurations and the ARCS search space (Table I).
//!
//! A configuration is the paper's triple: **number of threads**,
//! **scheduling policy**, **chunk size** — plus, in the DVFS extension
//! (§VII future work), an optional per-region **frequency limit**. The
//! search space is the reduced grid of Table I; "default" entries map to
//! the runtime defaults (all hardware threads / `static` / block
//! chunking). [`ConfigSpace`] is the one mapping between Harmony's
//! index-grid [`Point`]s and concrete [`TunedConfig`]s.
//!
//! Decoding is total over the grid but **not injective**: `Default`
//! choices alias explicit entries (e.g. Crill's `Count(32)` and `Default`
//! both decode to 32 threads) and the implementation-default schedule
//! ignores the chunk knob. [`ConfigSpace::encode`] therefore guarantees
//! only `decode(encode(cfg)) == cfg` for decodable configurations, which
//! is the invariant the property tests pin.
//!
//! Garbled-source note: the paper's Table I lost the characters `0` and
//! `1` in transcription. The values below reconstruct it under that
//! pattern: Crill threads {2,4,8,**16**,24,32,default}, Minotaur threads
//! {**20,40,80,120,160**,default}, chunks {**1**,8,**16**,32,64,**128**,
//! 256,**512**,default} — flagged in EXPERIMENTS.md.

use arcs_harmony::{Param, Point, SearchSpace};
use arcs_omprt::{Schedule, ScheduleKind};
use arcs_powersim::{Machine, SimConfig};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One concrete runtime configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OmpConfig {
    pub threads: usize,
    pub schedule: Schedule,
}

impl OmpConfig {
    /// The paper's baseline: "maximum number of available threads, static
    /// scheduling, and chunk sizes calculated dynamically by dividing total
    /// number of loop iterations by number of threads".
    pub fn default_for(machine: &Machine) -> Self {
        OmpConfig { threads: machine.hw_threads(), schedule: Schedule::static_block() }
    }

    pub fn as_sim(&self) -> SimConfig {
        SimConfig { threads: self.threads, schedule: self.schedule }
    }
}

impl fmt::Display for OmpConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}, {}", self.threads, self.schedule)
    }
}

/// A concrete configuration across every tunable knob: the paper's OpenMP
/// triple plus the optional frequency limit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TunedConfig {
    pub omp: OmpConfig,
    /// `None` = run at whatever the power cap allows (the base ARCS
    /// behaviour); `Some(f)` = additionally clamp the cores to `f` GHz.
    pub freq_ghz: Option<f64>,
}

impl From<OmpConfig> for TunedConfig {
    fn from(omp: OmpConfig) -> Self {
        TunedConfig { omp, freq_ghz: None }
    }
}

impl fmt::Display for TunedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.freq_ghz {
            Some(g) => write!(f, "{}, {:.2}GHz", self.omp, g),
            None => write!(f, "{}, fmax", self.omp),
        }
    }
}

/// A thread-count choice: explicit or the runtime default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadChoice {
    Count(usize),
    Default,
}

/// A schedule-kind choice, `Default` meaning the implementation default
/// (`static` block partition, chunk entry ignored).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScheduleChoice {
    Kind(ScheduleKind),
    Default,
}

/// A chunk-size choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkChoice {
    Size(usize),
    Default,
}

/// The discrete grid ARCS searches per region: the Table I triple
/// (threads × schedule × chunk) with an optional fourth axis, a
/// frequency limit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigSpace {
    pub threads: Vec<ThreadChoice>,
    pub schedules: Vec<ScheduleChoice>,
    pub chunks: Vec<ChunkChoice>,
    /// What `ThreadChoice::Default` resolves to (the machine's hardware
    /// thread count).
    pub default_threads: usize,
    /// Frequency choices in GHz; `None` = uncapped (run at the cap's f).
    /// An *empty* ladder removes the knob entirely — points are 3-long and
    /// every decoded configuration has `freq_ghz: None`.
    pub freqs_ghz: Vec<Option<f64>>,
}

impl ConfigSpace {
    /// Table I row for the Sandy Bridge machine.
    pub fn crill() -> Self {
        Self::with_threads(&[2, 4, 8, 16, 24, 32], 32)
    }

    /// Table I row for the POWER8 machine.
    pub fn minotaur() -> Self {
        Self::with_threads(&[20, 40, 80, 120, 160], 160)
    }

    /// The appropriate Table I row for a machine model.
    pub fn for_machine(machine: &Machine) -> Self {
        match machine.name.as_str() {
            "crill" => Self::crill(),
            "minotaur" => Self::minotaur(),
            _ => {
                // Generic fallback: powers of two up to the HW thread count.
                let max = machine.hw_threads();
                let mut t = Vec::new();
                let mut v = 2;
                while v < max {
                    t.push(v);
                    v *= 2;
                }
                t.push(max);
                Self::with_threads(&t, max)
            }
        }
    }

    fn with_threads(counts: &[usize], default_threads: usize) -> Self {
        let mut threads: Vec<ThreadChoice> =
            counts.iter().map(|&c| ThreadChoice::Count(c)).collect();
        threads.push(ThreadChoice::Default);
        ConfigSpace {
            threads,
            schedules: Self::schedule_choices(&ScheduleKind::CLASSIC),
            chunks: vec![
                ChunkChoice::Size(1),
                ChunkChoice::Size(8),
                ChunkChoice::Size(16),
                ChunkChoice::Size(32),
                ChunkChoice::Size(64),
                ChunkChoice::Size(128),
                ChunkChoice::Size(256),
                ChunkChoice::Size(512),
                ChunkChoice::Default,
            ],
            default_threads,
            freqs_ghz: Vec::new(),
        }
    }

    /// The DVFS-extended space: the Table I row for `machine` plus `steps`
    /// frequency limits evenly spaced between the machine's floor and base
    /// clock, then the "uncapped" choice (which is also the search start
    /// point).
    pub fn with_dvfs(machine: &Machine, steps: usize) -> Self {
        assert!(steps >= 1);
        let mut freqs: Vec<Option<f64>> = (0..steps)
            .map(|i| {
                let t = i as f64 / steps as f64;
                Some(machine.f_min_ghz + t * (machine.f_base_ghz - machine.f_min_ghz))
            })
            .collect();
        freqs.push(None);
        ConfigSpace { freqs_ghz: freqs, ..Self::for_machine(machine) }
    }

    /// The schedule axis for a list of policy families, `Default` last —
    /// the single source for the Table-I listing, so figure bins and sweep
    /// specs pick up new families without per-bin edits.
    pub fn schedule_choices(kinds: &[ScheduleKind]) -> Vec<ScheduleChoice> {
        kinds
            .iter()
            .map(|&k| ScheduleChoice::Kind(k))
            .chain(std::iter::once(ScheduleChoice::Default))
            .collect()
    }

    /// Widen the schedule axis to the full portfolio: the classic Table I
    /// families plus the self-scheduling extensions (trapezoid, factoring,
    /// awf), `Default` still last so [`default_point`](Self::default_point)
    /// keeps decoding to the paper's baseline. Crill grows 252 → 441
    /// points; the stock [`crill`](Self::crill) grid is unchanged.
    pub fn with_portfolio(mut self) -> Self {
        self.schedules = Self::schedule_choices(&ScheduleKind::ALL);
        self
    }

    /// Does this space expose the frequency knob?
    pub fn has_freq_knob(&self) -> bool {
        !self.freqs_ghz.is_empty()
    }

    /// Number of knobs (3, or 4 with a frequency ladder).
    pub fn dim(&self) -> usize {
        if self.has_freq_knob() {
            4
        } else {
            3
        }
    }

    /// The Harmony search space: one parameter per knob.
    pub fn to_search_space(&self) -> SearchSpace {
        let mut params = vec![
            Param::new("threads", self.threads.len()),
            Param::new("schedule", self.schedules.len()),
            Param::new("chunk", self.chunks.len()),
        ];
        if self.has_freq_knob() {
            params.push(Param::new("freq", self.freqs_ghz.len()));
        }
        SearchSpace::new(params)
    }

    /// Total number of grid points.
    pub fn size(&self) -> usize {
        self.threads.len() * self.schedules.len() * self.chunks.len() * self.freqs_ghz.len().max(1)
    }

    /// Decode a Harmony grid point into a concrete configuration.
    pub fn decode(&self, point: &[usize]) -> TunedConfig {
        assert_eq!(point.len(), self.dim(), "points in this space are {}-dimensional", self.dim());
        let threads = match self.threads[point[0]] {
            ThreadChoice::Count(n) => n,
            ThreadChoice::Default => self.default_threads,
        };
        let chunk = match self.chunks[point[2]] {
            ChunkChoice::Size(c) => Some(c),
            ChunkChoice::Default => None,
        };
        let schedule = match self.schedules[point[1]] {
            ScheduleChoice::Kind(kind) => Schedule::new(kind, chunk),
            // The implementation-default schedule ignores the chunk knob.
            ScheduleChoice::Default => Schedule::runtime_default(),
        };
        let freq_ghz = if self.has_freq_knob() { self.freqs_ghz[point[3]] } else { None };
        TunedConfig { omp: OmpConfig { threads, schedule }, freq_ghz }
    }

    /// Encode a configuration back into a grid point, or `None` if no grid
    /// point decodes to it. Decoding is not injective, so the round-trip
    /// guarantee is `decode(encode(cfg)) == cfg`, not point equality; the
    /// first matching point in grid order is returned. O(grid size).
    pub fn encode(&self, cfg: &TunedConfig) -> Option<Point> {
        self.to_search_space().iter_points().find(|p| self.decode(p) == *cfg)
    }

    /// The grid point encoding the paper's default configuration (default
    /// threads / schedule / chunk, uncapped frequency) — the start point
    /// for simplex searches.
    pub fn default_point(&self) -> Point {
        // The ladders built here always end with the uncapped choice;
        // hand-built ladders should follow the same convention so the
        // search starts from the paper's baseline.
        let freq = self.has_freq_knob().then(|| self.freqs_ghz.len() - 1);
        [self.threads.len() - 1, self.schedules.len() - 1, self.chunks.len() - 1]
            .into_iter()
            .chain(freq)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_sizes() {
        let c = ConfigSpace::crill();
        assert_eq!(c.threads.len(), 7);
        assert_eq!(c.schedules.len(), 4);
        assert_eq!(c.chunks.len(), 9);
        assert_eq!(c.size(), 252);
        assert_eq!(ConfigSpace::minotaur().threads.len(), 6);
    }

    #[test]
    fn decode_explicit_point() {
        let c = ConfigSpace::crill();
        // threads=8 (idx 2), guided (idx 2), chunk=32 (idx 3)
        let cfg = c.decode(&[2, 2, 3]).omp;
        assert_eq!(cfg.threads, 8);
        assert_eq!(cfg.schedule, Schedule::guided(32));
    }

    #[test]
    fn decode_default_point_is_paper_baseline() {
        let c = ConfigSpace::crill();
        let cfg = c.decode(&c.default_point()).omp;
        let m = Machine::crill();
        assert_eq!(cfg, OmpConfig::default_for(&m));
        assert_eq!(cfg.threads, 32);
        assert_eq!(cfg.schedule, Schedule::static_block());
    }

    #[test]
    fn default_schedule_ignores_chunk() {
        let c = ConfigSpace::crill();
        let a = c.decode(&[0, 3, 0]).omp;
        let b = c.decode(&[0, 3, 7]).omp;
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.schedule, Schedule::runtime_default());
    }

    #[test]
    fn every_grid_point_decodes() {
        let c = ConfigSpace::crill();
        let space = c.to_search_space();
        assert_eq!(space.size(), c.size());
        for p in space.iter_points() {
            let cfg = c.decode(&p).omp;
            assert!(cfg.threads >= 2 && cfg.threads <= 32);
        }
    }

    #[test]
    fn portfolio_widens_only_the_schedule_axis() {
        let c = ConfigSpace::crill().with_portfolio();
        assert_eq!(c.threads.len(), 7);
        assert_eq!(c.schedules.len(), 7);
        assert_eq!(c.chunks.len(), 9);
        assert_eq!(c.size(), 441);
        // Default stays last: the search still starts at the baseline.
        assert_eq!(*c.schedules.last().unwrap(), ScheduleChoice::Default);
        let m = Machine::crill();
        assert_eq!(c.decode(&c.default_point()).omp, OmpConfig::default_for(&m));
        // The new families decode; trapezoid is axis index 3 (Table-I
        // order first, then the survey extensions).
        let cfg = c.decode(&[2, 3, 3]).omp;
        assert_eq!(cfg.schedule, Schedule::trapezoid(32));
    }

    #[test]
    fn for_machine_dispatch() {
        assert_eq!(ConfigSpace::for_machine(&Machine::crill()), ConfigSpace::crill());
        assert_eq!(ConfigSpace::for_machine(&Machine::minotaur()), ConfigSpace::minotaur());
    }

    #[test]
    fn display_matches_paper_notation() {
        let cfg = OmpConfig { threads: 16, schedule: Schedule::guided(8) };
        assert_eq!(cfg.to_string(), "16, guided,8");
    }

    #[test]
    fn plain_space_has_no_freq_knob() {
        let m = Machine::crill();
        let s = ConfigSpace::for_machine(&m);
        assert!(!s.has_freq_knob());
        assert_eq!(s.dim(), 3);
        assert_eq!(s.to_search_space().dim(), 3);
        let d = s.decode(&s.default_point());
        assert_eq!(d.freq_ghz, None);
        assert_eq!(d.omp, OmpConfig::default_for(&m));
    }

    #[test]
    fn dvfs_space_adds_the_fourth_axis() {
        let m = Machine::crill();
        let s = ConfigSpace::with_dvfs(&m, 4);
        assert!(s.has_freq_knob());
        assert_eq!(s.to_search_space().dim(), 4);
        assert_eq!(s.freqs_ghz.len(), 5);
        assert_eq!(s.freqs_ghz[4], None);
        assert_eq!(s.size(), ConfigSpace::crill().size() * 5);
        let d = s.decode(&s.default_point());
        assert_eq!(d.freq_ghz, None);
        assert_eq!(d.omp, OmpConfig::default_for(&m));
        // Ladder frequencies stay inside the machine's DVFS range.
        for f in s.freqs_ghz.iter().flatten() {
            assert!(*f >= m.f_min_ghz && *f <= m.f_base_ghz);
        }
    }

    #[test]
    fn portfolio_space_covers_the_new_families() {
        let m = Machine::crill();
        let s = ConfigSpace::for_machine(&m).with_portfolio();
        // Every self-scheduling family is reachable from the grid.
        for kind in ScheduleKind::SELF_SCHEDULING {
            let want = TunedConfig {
                omp: OmpConfig { threads: 8, schedule: Schedule::new(kind, Some(16)) },
                freq_ghz: None,
            };
            let p = s.encode(&want).expect("portfolio configs are encodable");
            assert_eq!(s.decode(&p), want);
        }
    }

    #[test]
    fn encode_round_trips_decoded_configs() {
        let m = Machine::crill();
        for s in [ConfigSpace::for_machine(&m), ConfigSpace::with_dvfs(&m, 2)] {
            let grid = s.to_search_space();
            for p in grid.iter_points() {
                let cfg = s.decode(&p);
                let q = s.encode(&cfg).expect("decoded configs are encodable");
                assert_eq!(s.decode(&q), cfg, "round trip diverged at {p:?}");
            }
        }
    }

    #[test]
    fn encode_rejects_foreign_configs() {
        let m = Machine::crill();
        let s = ConfigSpace::for_machine(&m);
        let alien = TunedConfig {
            omp: OmpConfig { threads: 7, schedule: Schedule::static_block() },
            freq_ghz: None,
        };
        assert_eq!(s.encode(&alien), None);
    }

    #[test]
    fn from_omp_config_is_uncapped() {
        let m = Machine::crill();
        let cfg: TunedConfig = OmpConfig::default_for(&m).into();
        assert_eq!(cfg.freq_ghz, None);
        assert_eq!(cfg.to_string(), format!("{}, fmax", OmpConfig::default_for(&m)));
    }
}
