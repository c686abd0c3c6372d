//! Machine models: topology, caches, frequency and power.
//!
//! Two presets mirror the paper's testbeds:
//!
//! * [`Machine::crill`] — dual-socket Intel Xeon E5-2665 (Sandy Bridge):
//!   2 × 8 cores @ 2.4 GHz, 2-way hyper-threading (32 hardware threads),
//!   20 MiB shared L3 per socket, package TDP 115 W. The machine the paper
//!   power-caps at 55/70/85/100/115 W via RAPL.
//! * [`Machine::minotaur`] — IBM S822LC: 2 × 10 POWER8 cores @ 2.92 GHz,
//!   SMT8 (160 hardware threads), 8 MiB L3 per core (80 MiB/socket).
//!
//! ## Power model
//!
//! Package power is `P_uncore + Σ_active_cores (c0 + c1·f³)` plus a small
//! idle floor for inactive cores. Under a RAPL-style package cap the
//! effective core frequency is the largest `f ∈ [f_min, f_base]` satisfying
//! the cap — the cubic dynamic-power law (`P_dyn ∝ C·V²·f` with `V ∝ f`)
//! every DVFS governor is built on. Two consequences the paper's results
//! hinge on fall out directly:
//!
//! 1. lower cap ⇒ lower `f` ⇒ *compute* stretches while *memory latency*
//!    (wall-clock) does not, shifting the compute/memory balance;
//! 2. fewer active cores under the same cap ⇒ higher per-core `f`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a machine description failed to load: either the JSON itself was
/// malformed, or it described a machine the simulator cannot model.
#[derive(Debug)]
pub enum MachineLoadError {
    /// The JSON did not parse as a [`Machine`].
    Parse(serde_json::Error),
    /// The JSON parsed but failed a physical-validity check.
    Invalid(&'static str),
}

impl fmt::Display for MachineLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineLoadError::Parse(e) => write!(f, "machine JSON did not parse: {e}"),
            MachineLoadError::Invalid(why) => write!(f, "machine description invalid: {why}"),
        }
    }
}

impl std::error::Error for MachineLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MachineLoadError::Parse(e) => Some(e),
            MachineLoadError::Invalid(_) => None,
        }
    }
}

impl From<serde_json::Error> for MachineLoadError {
    fn from(e: serde_json::Error) -> Self {
        MachineLoadError::Parse(e)
    }
}

/// Cache geometry and latencies. Latencies are wall-clock nanoseconds
/// (they do not scale with the core clock — the essential reason power
/// capping hurts compute-bound code more than memory-bound code).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheGeometry {
    pub line_bytes: usize,
    /// Per-core L1D capacity.
    pub l1_kib: usize,
    /// Per-core private L2 capacity.
    pub l2_kib: usize,
    /// Shared last-level cache per socket.
    pub l3_mib: usize,
    /// L2 hit latency (ns) charged to an L1 miss.
    pub lat_l2_ns: f64,
    /// L3 hit latency (ns) charged to an L2 miss.
    pub lat_l3_ns: f64,
    /// DRAM latency (ns) charged to an L3 miss.
    pub lat_mem_ns: f64,
    /// Sustainable DRAM bandwidth per socket, GB/s. Regions whose L3 miss
    /// traffic exceeds it are bandwidth-bound: beyond saturation, extra
    /// threads stop helping (and cache-friendlier configurations win by
    /// *reducing traffic* — the SP story).
    pub dram_bw_gbs: f64,
    /// L3 capacity each concurrently streaming thread claims for its
    /// in-flight/victim lines, KiB.
    pub stream_claim_kib: f64,
    /// Upper bound on the total streaming claim, as a fraction of L3
    /// (LRU retains the rest for reuse).
    pub claim_cap_frac: f64,
    /// Working-set inflation per extra SMT sibling (conflict thrash in the
    /// shared L3): `x3 ×= 1 + smt_thrash × (k − 1)`.
    pub smt_thrash: f64,
    /// Uncore DVFS coupling: under a power cap the L3/memory path slows
    /// with the cores. Effective miss latencies scale by
    /// `1 + uncore_slowdown × (f_base/f_eff − 1)`. This is what makes the
    /// *optimal* configuration cap-dependent: at deep caps a leaner team
    /// (fewer active cores) keeps both core and uncore clocks higher.
    pub uncore_slowdown: f64,
}

/// Package power model coefficients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerModel {
    /// Manufacturer package TDP (watts) — the uncapped power level.
    pub tdp_w: f64,
    /// Always-on per-package power: uncore, L3, memory controller (W).
    pub p_uncore_w: f64,
    /// Power of a powered-but-idle core (W).
    pub p_core_idle_w: f64,
    /// Static per-active-core power (W): `P_core(f) = c0 + c1·f³`.
    pub c0: f64,
    /// Dynamic coefficient (W/GHz³).
    pub c1: f64,
    /// Energy per L3 hit (nJ) — extra cache/interconnect activity.
    pub e_l3_nj: f64,
    /// Energy per DRAM access (nJ) — the paper's "bad cache behaviour
    /// costs energy" effect.
    pub e_mem_nj: f64,
    /// DRAM background power per socket (W). Outside the package cap
    /// (the paper could only cap the package) but part of node energy —
    /// the paper's future work "account for memory power in addition to
    /// processor power".
    pub p_dram_background_w: f64,
}

/// SMT efficiency: per-thread throughput multiplier when `k` hardware
/// threads share a core. `total throughput = k × eff(k)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmtModel {
    /// `eff[k-1]` = per-thread efficiency with k threads per core.
    pub per_thread_efficiency: Vec<f64>,
}

impl SmtModel {
    pub fn efficiency(&self, threads_on_core: usize) -> f64 {
        if threads_on_core == 0 {
            return 1.0;
        }
        let idx = (threads_on_core - 1).min(self.per_thread_efficiency.len() - 1);
        self.per_thread_efficiency[idx]
    }
}

/// A simulated shared-memory node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Machine {
    pub name: String,
    pub sockets: usize,
    pub cores_per_socket: usize,
    pub smt_per_core: usize,
    pub f_base_ghz: f64,
    pub f_min_ghz: f64,
    pub placement: PlacementPolicy,
    pub caches: CacheGeometry,
    pub power: PowerModel,
    pub smt: SmtModel,
    /// Fork/join broadcast cost: `fork_base_ns + threads × fork_per_thread_ns`.
    pub fork_base_ns: f64,
    pub fork_per_thread_ns: f64,
    /// Tree-barrier cost per synchronisation: `barrier_ns × log2(threads)`.
    pub barrier_ns: f64,
    /// Cost of one on-demand chunk dispatch (uncontended atomic), ns.
    pub dispatch_ns: f64,
    /// Additional dispatch cost per contending thread, ns.
    pub dispatch_contention_ns: f64,
    /// Per-chunk loop bookkeeping even for static schedules, ns.
    pub chunk_setup_ns: f64,
    /// Wall time of `omp_set_num_threads` + `omp_set_schedule` (the paper
    /// measured ≈ 0.008 s per region invocation on Crill).
    pub config_change_s: f64,
    /// Per-region-invocation instrumentation cost of the measurement layer
    /// (OMPT + APEX timers).
    pub instrumentation_s: f64,
}

/// Where a team thread lands: socket, core-within-socket, SMT slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    pub socket: usize,
    pub core: usize,
    pub smt_slot: usize,
}

/// How consecutive thread ids map to hardware threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Threads round-robin across sockets, then cores; SMT slots fill only
    /// once every core is busy. Matches Linux CPU enumeration on Intel
    /// (hyper-thread siblings get the high logical ids) — the effective
    /// unbound behaviour on Crill.
    Scatter,
    /// SMT siblings are adjacent ids: a core fills all its hardware
    /// threads before the next core. Matches POWER8 CPU enumeration
    /// (cpu0-7 = core 0) — the effective behaviour on Minotaur.
    Compact,
}

impl Machine {
    pub fn total_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    pub fn hw_threads(&self) -> usize {
        self.total_cores() * self.smt_per_core
    }

    /// Map a team thread to hardware according to the machine's
    /// [`PlacementPolicy`].
    pub fn place(&self, thread: usize, team: usize) -> Placement {
        debug_assert!(thread < team && team <= self.hw_threads());
        match self.placement {
            PlacementPolicy::Scatter => {
                let socket = thread % self.sockets;
                let per_socket_rank = thread / self.sockets;
                let core = per_socket_rank % self.cores_per_socket;
                let smt_slot = per_socket_rank / self.cores_per_socket;
                Placement { socket, core, smt_slot }
            }
            PlacementPolicy::Compact => {
                let global_core = thread / self.smt_per_core;
                Placement {
                    socket: global_core / self.cores_per_socket,
                    core: global_core % self.cores_per_socket,
                    smt_slot: thread % self.smt_per_core,
                }
            }
        }
    }

    /// Largest number of team threads sharing any one core — the SMT
    /// occupancy the cache model and sibling-overlap model key on.
    /// Closed form for both placement policies (cross-checked against
    /// [`Machine::threads_on_core_of`] in tests): Scatter fills every
    /// core before reusing SMT slots, so the fullest core holds
    /// `⌈team / total_cores⌉` threads; Compact fills a core's SMT slots
    /// before moving on, so the first core is fullest at
    /// `min(team, smt_per_core)`.
    pub fn max_smt_occupancy(&self, team: usize) -> usize {
        if team == 0 {
            return 0;
        }
        match self.placement {
            PlacementPolicy::Scatter => team.div_ceil(self.total_cores()),
            PlacementPolicy::Compact => team.min(self.smt_per_core),
        }
    }

    /// How many of the team's threads share the core that `thread` is on.
    pub fn threads_on_core_of(&self, thread: usize, team: usize) -> usize {
        let p = self.place(thread, team);
        (0..team)
            .filter(|&t| {
                let q = self.place(t, team);
                q.socket == p.socket && q.core == p.core
            })
            .count()
    }

    /// Active cores per socket for a team of `n` threads.
    pub fn active_cores_per_socket(&self, team: usize) -> Vec<usize> {
        let mut seen = vec![std::collections::HashSet::new(); self.sockets];
        for t in 0..team {
            let p = self.place(t, team);
            seen[p.socket].insert(p.core);
        }
        seen.into_iter().map(|s| s.len()).collect()
    }

    /// `(max active cores on any socket, sockets with ≥1 active core)` for
    /// a team — the two numbers the simulator needs per invocation —
    /// without allocating. Falls back to
    /// [`Machine::active_cores_per_socket`] for geometries too wide for
    /// the bitmask fast path.
    pub fn active_core_summary(&self, team: usize) -> (usize, usize) {
        const MAX_SOCKETS: usize = 8;
        if self.cores_per_socket <= 64 && self.sockets <= MAX_SOCKETS {
            let mut masks = [0u64; MAX_SOCKETS];
            for t in 0..team {
                let p = self.place(t, team);
                masks[p.socket] |= 1 << p.core;
            }
            let mut max_active = 0;
            let mut used = 0;
            for mask in &masks[..self.sockets] {
                let active = mask.count_ones() as usize;
                if active > 0 {
                    used += 1;
                }
                max_active = max_active.max(active);
            }
            (max_active, used)
        } else {
            let active = self.active_cores_per_socket(team);
            let max_active = active.iter().copied().max().unwrap_or(0);
            let used = active.iter().filter(|&&c| c > 0).count();
            (max_active, used)
        }
    }

    /// Package power (W) with `active` busy cores at frequency `f` GHz.
    pub fn package_power(&self, active: usize, f_ghz: f64) -> f64 {
        let idle = self.cores_per_socket.saturating_sub(active);
        self.power.p_uncore_w
            + active as f64 * (self.power.c0 + self.power.c1 * f_ghz.powi(3))
            + idle as f64 * self.power.p_core_idle_w
    }

    /// Effective core frequency (GHz) under a package power cap with
    /// `active` busy cores on the socket. Solves the cubic power balance
    /// and clamps to `[f_min, f_base]` (no turbo modelled).
    pub fn frequency_under_cap(&self, cap_w: f64, active: usize) -> f64 {
        if active == 0 {
            return self.f_base_ghz;
        }
        let idle = self.cores_per_socket.saturating_sub(active);
        let static_w = self.power.p_uncore_w
            + idle as f64 * self.power.p_core_idle_w
            + active as f64 * self.power.c0;
        let dyn_budget = cap_w - static_w;
        if dyn_budget <= 0.0 {
            return self.f_min_ghz;
        }
        let f = (dyn_budget / (active as f64 * self.power.c1)).cbrt();
        f.clamp(self.f_min_ghz, self.f_base_ghz)
    }

    /// The frequency (GHz) a team of `threads` runs at under `cap_w`: the
    /// busiest socket's [`Machine::frequency_under_cap`] (threads
    /// synchronise at the barrier, so the slower socket sets the pace),
    /// lowered to a DVFS limit but never below `f_min`. The integrator
    /// reads the cap through this function and nowhere else, so two
    /// (cap, limit) pairs that give the same bits here simulate the same
    /// report — see [`Machine::operating_point`].
    pub fn team_frequency(&self, cap_w: f64, threads: usize, freq_limit_ghz: Option<f64>) -> f64 {
        let (max_active, _) = self.active_core_summary(threads.clamp(1, self.hw_threads()));
        let f = self.frequency_under_cap(cap_w, max_active);
        match freq_limit_ghz {
            Some(limit) => f.min(limit).max(self.f_min_ghz),
            None => f,
        }
    }

    /// The canonical (cap, DVFS limit) pair of an operating point, given
    /// the cap's unlimited team frequency `f_cap` (that is,
    /// `team_frequency(cap_w, threads, None)`). Every pair a team can be
    /// asked to run at maps to one that [`Machine::team_frequency`] turns
    /// into the same bits, and pairs that clamp to the same frequency map
    /// to the same pair, so a memo keyed by it prices each operating point
    /// once:
    /// - a binding limit (`limit ≤ f_cap`) alone sets the frequency:
    ///   `(+∞, Some(limit))`;
    /// - a cap that clamps at `f_base` is any cap that does: `(+∞, None)`;
    /// - a cap that clamps at `f_min` is any cap that does: `(0, None)`;
    /// - otherwise the cap stands and a limit that does not bind is
    ///   dropped: `(cap_w, None)`.
    ///
    /// A NaN cap has no operating point and keys as itself.
    pub fn operating_point(
        &self,
        cap_w: f64,
        f_cap: f64,
        freq_limit_ghz: Option<f64>,
    ) -> (f64, Option<f64>) {
        match freq_limit_ghz {
            _ if f_cap.is_nan() => (cap_w, freq_limit_ghz),
            Some(limit) if limit <= f_cap => (f64::INFINITY, Some(limit)),
            _ if f_cap == self.f_base_ghz => (f64::INFINITY, None),
            _ if f_cap == self.f_min_ghz => (0.0, None),
            _ => (cap_w, None),
        }
    }

    /// Load a machine description from JSON (all fields of [`Machine`]).
    /// Lets downstream users model their own nodes without recompiling:
    /// start from `Machine::crill().to_json()`, edit, and load.
    ///
    /// Malformed JSON and physically impossible topologies both come
    /// back as typed [`MachineLoadError`]s — user-supplied machine
    /// files must never panic the library.
    pub fn from_json(json: &str) -> Result<Machine, MachineLoadError> {
        let m: Machine = serde_json::from_str(json)?;
        if m.sockets < 1 || m.cores_per_socket < 1 || m.smt_per_core < 1 {
            return Err(MachineLoadError::Invalid(
                "sockets, cores_per_socket and smt_per_core must all be >= 1",
            ));
        }
        if !(m.f_min_ghz > 0.0 && m.f_min_ghz <= m.f_base_ghz) {
            return Err(MachineLoadError::Invalid(
                "frequency range must satisfy 0 < f_min_ghz <= f_base_ghz",
            ));
        }
        Ok(m)
    }

    /// Serialise this machine description to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("machine serialises")
    }

    /// The built-in model called `name` (`crill` or `minotaur`) — the one
    /// place a machine name on a command line, in a config or in a
    /// journal header becomes a [`Machine`].
    pub fn by_name(name: &str) -> Option<Machine> {
        match name {
            "crill" => Some(Machine::crill()),
            "minotaur" => Some(Machine::minotaur()),
            _ => None,
        }
    }

    /// Dual-socket Sandy Bridge "Crill" (University of Houston).
    ///
    /// Coefficients are calibrated so that 8 busy cores at the 2.4 GHz base
    /// clock draw exactly the 115 W TDP:
    /// `18 + 8·(2 + 0.7326·2.4³) ≈ 115`.
    pub fn crill() -> Machine {
        Machine {
            name: "crill".into(),
            sockets: 2,
            cores_per_socket: 8,
            smt_per_core: 2,
            f_base_ghz: 2.4,
            f_min_ghz: 1.2,
            placement: PlacementPolicy::Scatter,
            caches: CacheGeometry {
                line_bytes: 64,
                l1_kib: 32,
                l2_kib: 256,
                l3_mib: 20,
                lat_l2_ns: 4.0,
                lat_l3_ns: 13.0,
                lat_mem_ns: 80.0,
                dram_bw_gbs: 35.0,
                stream_claim_kib: 512.0,
                claim_cap_frac: 0.45,
                smt_thrash: 0.5,
                uncore_slowdown: 0.45,
            },
            power: PowerModel {
                tdp_w: 115.0,
                p_uncore_w: 18.0,
                p_core_idle_w: 0.8,
                c0: 2.0,
                // 81 W dynamic budget across 8 cores at 2.4 GHz: exactly TDP.
                c1: 81.0 / (8.0 * 2.4f64 * 2.4 * 2.4) - 1e-6,
                e_l3_nj: 2.0,
                e_mem_nj: 22.0,
                p_dram_background_w: 6.0,
            },
            smt: SmtModel { per_thread_efficiency: vec![1.0, 0.62] },
            fork_base_ns: 1_500.0,
            fork_per_thread_ns: 250.0,
            barrier_ns: 300.0,
            dispatch_ns: 110.0,
            dispatch_contention_ns: 18.0,
            chunk_setup_ns: 25.0,
            config_change_s: 0.008,
            instrumentation_s: 5.0e-5,
        }
    }

    /// Dual-socket POWER8 "Minotaur" (University of Oregon). No power
    /// capping privilege in the paper — experiments run at TDP.
    pub fn minotaur() -> Machine {
        Machine {
            name: "minotaur".into(),
            sockets: 2,
            cores_per_socket: 10,
            smt_per_core: 8,
            f_base_ghz: 2.92,
            f_min_ghz: 2.0,
            // Unbound threads are load-balanced across cores by the OS.
            placement: PlacementPolicy::Scatter,
            caches: CacheGeometry {
                line_bytes: 128,
                l1_kib: 64,
                l2_kib: 512,
                l3_mib: 80,
                lat_l2_ns: 4.0,
                lat_l3_ns: 10.0,
                lat_mem_ns: 90.0,
                dram_bw_gbs: 115.0,
                // POWER8's L3 is a non-inclusive NUCA victim cache with an
                // 8 MiB local region per core: streams pollute it far less
                // than Sandy Bridge's inclusive L3, and SMT siblings
                // thrash mostly their own local region.
                stream_claim_kib: 256.0,
                claim_cap_frac: 0.3,
                smt_thrash: 0.1,
                uncore_slowdown: 0.3,
            },
            power: PowerModel {
                tdp_w: 190.0,
                p_uncore_w: 40.0,
                p_core_idle_w: 1.5,
                c0: 4.0,
                c1: 0.44,
                e_l3_nj: 2.5,
                e_mem_nj: 25.0,
                p_dram_background_w: 18.0,
            },
            smt: SmtModel {
                // POWER8's SMT8 mode targets commercial workloads; for
                // FP-heavy HPC code total core throughput *peaks at SMT4*
                // (8 × 0.17 < 4 × 0.40) — which is why the paper's default
                // of all 160 hardware threads leaves ARCS real headroom.
                per_thread_efficiency: vec![1.0, 0.68, 0.52, 0.42, 0.33, 0.27, 0.23, 0.20],
            },
            fork_base_ns: 2_000.0,
            fork_per_thread_ns: 180.0,
            barrier_ns: 350.0,
            dispatch_ns: 120.0,
            dispatch_contention_ns: 14.0,
            chunk_setup_ns: 25.0,
            config_change_s: 0.006,
            instrumentation_s: 5.0e-5,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crill_topology() {
        let m = Machine::crill();
        assert_eq!(m.total_cores(), 16);
        assert_eq!(m.hw_threads(), 32);
        let minotaur = Machine::minotaur();
        assert_eq!(minotaur.hw_threads(), 160);
    }

    #[test]
    fn tdp_is_consistent_with_full_load() {
        let m = Machine::crill();
        let p = m.package_power(8, m.f_base_ghz);
        assert!((p - m.power.tdp_w).abs() < 2.0, "full-load power {p} vs TDP {}", m.power.tdp_w);
    }

    #[test]
    fn frequency_monotone_in_cap() {
        let m = Machine::crill();
        let mut prev = 0.0;
        for cap in [40.0, 55.0, 70.0, 85.0, 100.0, 115.0] {
            let f = m.frequency_under_cap(cap, 8);
            assert!(f >= prev, "f({cap}) = {f} < {prev}");
            prev = f;
        }
        assert_eq!(m.frequency_under_cap(115.0, 8), m.f_base_ghz);
    }

    #[test]
    fn fewer_active_cores_run_faster_under_cap() {
        let m = Machine::crill();
        let f8 = m.frequency_under_cap(55.0, 8);
        let f4 = m.frequency_under_cap(55.0, 4);
        let f2 = m.frequency_under_cap(55.0, 2);
        assert!(f4 > f8, "f4={f4} f8={f8}");
        assert!(f2 >= f4);
    }

    #[test]
    fn deep_caps_hit_the_floor() {
        let m = Machine::crill();
        assert_eq!(m.frequency_under_cap(10.0, 8), m.f_min_ghz);
    }

    #[test]
    fn operating_points_name_each_frequency_once() {
        let m = Machine::crill();
        let point = |cap: f64, threads: usize, limit: Option<f64>| {
            m.operating_point(cap, m.team_frequency(cap, threads, None), limit)
        };
        let inf = f64::INFINITY;
        // A small team runs at the base clock at every cap in the range.
        assert_eq!(point(55.0, 2, None), (inf, None));
        assert_eq!(point(115.0, 4, Some(3.0)), (inf, None), "a limit above f_base never binds");
        // Deep caps sit at the floor, in-range caps stand as themselves.
        assert_eq!(point(10.0, 16, None), (0.0, None));
        assert_eq!(point(85.0, 32, Some(2.39)), (85.0, None), "the limit is above f_cap");
        // A binding limit alone sets the frequency.
        assert_eq!(point(85.0, 32, Some(1.5)), (inf, Some(1.5)));
        assert_eq!(m.team_frequency(inf, 32, Some(1.5)), m.team_frequency(85.0, 32, Some(1.5)));
        let (cap, limit) = point(f64::NAN, 8, Some(1.5));
        assert!(cap.is_nan() && limit == Some(1.5), "a NaN cap keys as itself");
    }

    #[test]
    fn scatter_placement_spreads_sockets_first() {
        let m = Machine::crill();
        // 2 threads: one per socket.
        assert_eq!(m.place(0, 2).socket, 0);
        assert_eq!(m.place(1, 2).socket, 1);
        // 16 threads: all on distinct cores, no SMT.
        for t in 0..16 {
            assert_eq!(m.place(t, 16).smt_slot, 0);
            assert_eq!(m.threads_on_core_of(t, 16), 1);
        }
        // 32 threads: every core runs 2 SMT threads.
        for t in 0..32 {
            assert_eq!(m.threads_on_core_of(t, 32), 2);
        }
    }

    #[test]
    fn active_core_counts() {
        let m = Machine::crill();
        assert_eq!(m.active_cores_per_socket(2), vec![1, 1]);
        assert_eq!(m.active_cores_per_socket(16), vec![8, 8]);
        assert_eq!(m.active_cores_per_socket(32), vec![8, 8]);
        assert_eq!(m.active_cores_per_socket(3), vec![2, 1]);
    }

    #[test]
    fn max_smt_occupancy_matches_per_thread_scan() {
        for m in [Machine::crill(), Machine::minotaur()] {
            for team in 1..=m.hw_threads() {
                let scan = (0..team).map(|t| m.threads_on_core_of(t, team)).max().unwrap_or(0);
                assert_eq!(m.max_smt_occupancy(team), scan, "{} team {team}", m.name);
            }
        }
        assert_eq!(Machine::crill().max_smt_occupancy(0), 0);
    }

    #[test]
    fn smt_efficiency_declines() {
        let m = Machine::minotaur();
        let e1 = m.smt.efficiency(1);
        let e8 = m.smt.efficiency(8);
        assert_eq!(e1, 1.0);
        assert!(e8 < e1 && e8 > 0.0);
        // Total core throughput still grows with SMT.
        assert!(8.0 * e8 > 1.0);
        // Out-of-range occupancy clamps to the last entry.
        assert_eq!(m.smt.efficiency(20), e8);
    }

    #[test]
    fn placement_within_capacity() {
        let m = Machine::minotaur();
        for t in 0..160 {
            let p = m.place(t, 160);
            assert!(p.socket < 2 && p.core < 10 && p.smt_slot < 8);
        }
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;

    #[test]
    fn machine_json_roundtrip() {
        let m = Machine::crill();
        let back = Machine::from_json(&m.to_json()).unwrap();
        assert_eq!(back.name, m.name);
        assert_eq!(back.hw_threads(), m.hw_threads());
        assert_eq!(back.power.tdp_w, m.power.tdp_w);
        assert_eq!(back.caches.l3_mib, m.caches.l3_mib);
        assert_eq!(back.placement, m.placement);
    }

    #[test]
    fn custom_machine_from_edited_json() {
        // A user models a bigger node by editing the preset's JSON.
        let mut json = Machine::minotaur().to_json();
        json = json.replace("\"cores_per_socket\": 10", "\"cores_per_socket\": 12");
        let m = Machine::from_json(&json).unwrap();
        assert_eq!(m.total_cores(), 24);
        assert_eq!(m.hw_threads(), 192);
    }

    #[test]
    fn invalid_json_is_an_error() {
        match Machine::from_json("{oops") {
            Err(MachineLoadError::Parse(_)) => {}
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn impossible_topology_is_a_typed_error_not_a_panic() {
        let json = Machine::crill().to_json().replace("\"sockets\": 2", "\"sockets\": 0");
        match Machine::from_json(&json) {
            Err(MachineLoadError::Invalid(why)) => assert!(why.contains("sockets")),
            other => panic!("expected a validity error, got {other:?}"),
        }
        let json = Machine::crill().to_json().replace("\"f_min_ghz\": 1.2", "\"f_min_ghz\": -1.0");
        assert!(matches!(Machine::from_json(&json), Err(MachineLoadError::Invalid(_))));
    }
}
