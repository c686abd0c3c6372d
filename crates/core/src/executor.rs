//! Simulator-backed application execution.
//!
//! [`SimExecutor`] runs a workload on a simulated power-capped machine,
//! either at the paper's default configuration or under an ARCS
//! [`RegionTuner`](crate::tuner::RegionTuner), through a
//! [`Runner`](crate::backend::Runner). It implements [`Backend`], so the
//! run loop itself — §III-C overhead charging, energy metering, report
//! assembly — lives once in [`crate::backend`] and is shared verbatim with
//! the live path.
//!
//! Region results are memoised per (region, trip count, configuration,
//! operating point) in a [`SharedSimCache`] — the simulator is
//! deterministic, so repeated invocations at the same configuration are
//! identical, which makes whole-application sweeps cheap. The operating
//! point is the (cap, DVFS limit) pair canonicalised by
//! [`Machine::operating_point`]: a cap reaches the simulation only through
//! the team's frequency, so caps that clamp it to `f_base` or `f_min` (and
//! limits that do not bind) share one cell. The schedule is keyed by
//! [`Schedule::canonical`](arcs_omprt::Schedule::canonical) for the
//! region's trip count and the clamped team, so schedules that dispatch
//! one chunk stream (`dynamic,128` and `dynamic,256` on a 100-iteration
//! loop, `guided,c` with `c ≥ ⌈n/T⌉`) share one cell too. By default each
//! executor owns a private cache; [`SimExecutor::with_shared_cache`]
//! attaches a cache shared across executors (the sweep engine does this
//! so concurrent cells never re-simulate a configuration another cell
//! already priced).
//! Each region's slot also keeps the last cell it priced, so a settled
//! region's repeat invocations are answered by borrowing the slot's
//! report, with no cache probe and no refcount traffic — and counted as
//! the hits they would have been. Likewise a meter read samples RAPL
//! only when RAPL advanced since the last sample; otherwise the
//! unchanged register would add nothing, and the read answers the
//! meter's total (DESIGN.md §3.4).

use crate::backend::{self, Backend, RegionFeatures, RegionRun, RunError};
use crate::cap::CapHandle;
use crate::config::TunedConfig;
use crate::faults::Perturbation;
use arcs_powersim::{
    simulate_region_with_table, CacheBindError, FaultPlan, FxBuildHasher, Machine, MeasureError,
    PackageEnergy, Rapl, RegionId, RegionModel, SharedSimCache, SimConfig, SimReport, SimScratch,
    WeightTable,
};
use arcs_trace::TraceSink;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-region executor state, one per region name: the cache-interned id
/// (resolved once, not per lookup), the cache's shared weight table
/// (resolved on the first miss), the invocation ordinal feeding the noise
/// model, and the last cell the region priced.
struct RegionSlot {
    name: String,
    id: RegionId,
    table: Option<Arc<WeightTable>>,
    invocations: u64,
    last: Option<(CellInputs, Arc<SimReport>)>,
}

impl RegionSlot {
    /// The report of the cell [`SimExecutor::price`] left in the slot.
    fn report(&self) -> &Arc<SimReport> {
        &self.last.as_ref().expect("a priced slot remembers its cell").1
    }
}

/// Everything a memo-cache key holds besides the region id. A settled
/// region asks for the same cell on every invocation, so the slot keeps
/// the last one and answers a repeat without probing the shared cache.
/// The trip count is part of it because one name can run at several
/// sizes (MG's grid levels), the cap because a handle move or a cap fault
/// reprices the invocation. Cap and limit are compared as raw bits, not
/// as an operating point: a repeat stays one comparison, and a move to a
/// cap at the same operating point costs one memo hit.
#[derive(PartialEq)]
struct CellInputs {
    iterations: usize,
    cfg: SimConfig,
    cap_bits: u64,
    freq_bits: Option<u64>,
}

/// `Machine::team_frequency(cap, threads, None)` per clamped thread count,
/// for the cap whose bits it was filled under: what a lookup needs to find
/// its operating point, computed once per team size per cap. A DVFS limit
/// does not enter it, so a limit moving every invocation costs nothing.
#[derive(Default)]
struct CapFrequencies {
    cap_bits: u64,
    by_threads: Vec<Option<f64>>,
}

impl CapFrequencies {
    fn get(&mut self, machine: &Machine, cap_w: f64, threads: usize) -> f64 {
        if cap_w.to_bits() != self.cap_bits {
            self.cap_bits = cap_w.to_bits();
            self.by_threads.clear();
        }
        let threads = threads.clamp(1, machine.hw_threads());
        if self.by_threads.len() <= threads {
            self.by_threads.resize(threads + 1, None);
        }
        *self.by_threads[threads]
            .get_or_insert_with(|| machine.team_frequency(cap_w, threads, None))
    }
}

/// Executes workloads on the simulated machine under a power cap.
pub struct SimExecutor {
    pub machine: Machine,
    rapl: Rapl,
    cache: Arc<SharedSimCache>,
    /// Reusable simulation working memory (miss path only).
    scratch: SimScratch,
    /// The effective cap's team frequencies (memo-probe path only).
    f_caps: CapFrequencies,
    noise: Option<NoiseModel>,
    energy_meter: PackageEnergy,
    /// Has RAPL advanced since `energy_meter` last sampled it? Until it
    /// has, a read answers the meter's total without sampling.
    resample: bool,
    /// Per-region slots, in first-seen order. The invocation ordinal
    /// feeds the stateless noise model and persists across runs, so
    /// repeated training passes see fresh noise.
    slots: Vec<RegionSlot>,
    /// Region name → slot: the cold path, once per name per cache bind.
    by_name: HashMap<String, usize, FxBuildHasher>,
    /// This run's call positions: the address of each `RegionModel`
    /// [`Backend::run_region`] was handed, and its slot. The driver walks
    /// the workload's step in order, timestep after timestep, so a warm
    /// call is found at `cursor` (or at position 0 once a timestep wraps).
    positions: Vec<(usize, usize)>,
    cursor: usize,
    /// The cap (requested and RAPL-clamped), the watched handle, the
    /// fault plan, and the sink — shared with the live path.
    perturb: Perturbation,
}

/// Multiplicative measurement noise: real testbeds never return the same
/// region time twice (OS jitter, cache state, DVFS transients). The model
/// is *stateless*: the factor for an invocation is a pure function of
/// (seed, region name, invocation ordinal), so it does not depend on the
/// order in which other regions run — two executors replaying the same
/// region sequence agree factor-for-factor even if interleaved
/// differently. Runs are reproducible, but the *tuner* sees
/// per-invocation perturbations, which is what resolves near-tie argmins
/// differently across power caps and workloads on the paper's machines
/// (see EXPERIMENTS.md deviations D2/D3).
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Coefficient of variation of the multiplicative factor.
    pub cv: f64,
    pub seed: u64,
}

impl NoiseModel {
    pub fn new(cv: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&cv));
        NoiseModel { cv, seed }
    }

    /// Multiplicative factor for one invocation (mean 1, cv ≈ `cv`,
    /// strictly positive). Pure: same (seed, region, invocation) → same
    /// factor, regardless of what ran before.
    pub fn factor(&self, region: &str, invocation: u64) -> f64 {
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in region.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        h ^= invocation.wrapping_mul(0xA24B_AED4_963E_E407);
        let z = arcs_powersim::splitmix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15));
        let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
        let a = (self.cv * 3f64.sqrt()).min(0.95);
        1.0 - a + 2.0 * a * u
    }
}

impl SimExecutor {
    pub fn new(machine: Machine, cap_w: f64) -> Self {
        let mut rapl = Rapl::new(&machine);
        let perturb = Perturbation::new(cap_w, rapl.set_package_cap(cap_w));
        let cache = Arc::new(SharedSimCache::new(&machine.name));
        SimExecutor {
            machine,
            rapl,
            cache,
            scratch: SimScratch::default(),
            f_caps: CapFrequencies::default(),
            noise: None,
            energy_meter: PackageEnergy::new(),
            resample: true,
            slots: Vec::new(),
            by_name: HashMap::default(),
            positions: Vec::new(),
            cursor: 0,
            perturb,
        }
    }

    /// Watch an externally-owned [`CapHandle`]: every `set` on the handle
    /// is applied — clamped, traced as a `CapChange` — immediately before
    /// the next region invocation, exactly like a scheduled cap fault.
    /// The handle's current value replaces the constructor cap at attach
    /// time.
    pub fn with_cap_handle(mut self, handle: CapHandle) -> Self {
        Backend::attach_cap_handle(&mut self, handle);
        self
    }

    /// Perturb every region invocation's measured time (and energy) by
    /// deterministic multiplicative noise.
    pub fn with_noise(mut self, cv: f64, seed: u64) -> Self {
        self.noise = Some(NoiseModel::new(cv, seed));
        self
    }

    /// Attach a deterministic [`FaultPlan`]: meter reads and region
    /// invocations are perturbed per the plan's seeded schedule. Every
    /// injected fault is traced as a `FaultInjected` event.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        Backend::attach_faults(&mut self, plan);
        self
    }

    /// Attach a trace sink: the driver's region/power events and the memo
    /// cache's hit/miss events both flow into it.
    pub fn with_trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        Backend::attach_trace(&mut self, sink);
        self
    }

    /// Attach a memo cache shared with other executors. Reports are
    /// machine-dependent and the machine is not part of the cache key, so
    /// a cache of another machine model panics; a run that should surface
    /// the mismatch as a typed error binds through
    /// [`Runner::shared_cache`](crate::backend::Runner::shared_cache)
    /// ([`RunError::CacheBind`]).
    pub fn with_shared_cache(mut self, cache: Arc<SharedSimCache>) -> Self {
        self.bind_cache(cache).unwrap_or_else(|e| panic!("{e}"));
        self
    }

    fn bind_cache(&mut self, cache: Arc<SharedSimCache>) -> Result<(), CacheBindError> {
        cache.check_machine(&self.machine.name)?;
        if let Some(sink) = &self.perturb.trace {
            cache.attach_trace(Arc::clone(sink));
        }
        // Interned ids (and the reports the slots remember) belong to the
        // cache that issued them — re-resolve lazily against the new one.
        self.slots.clear();
        self.by_name.clear();
        self.positions.clear();
        self.cache = cache;
        Ok(())
    }

    /// The memo cache this executor reads and writes.
    pub fn shared_cache(&self) -> &Arc<SharedSimCache> {
        &self.cache
    }

    pub fn power_cap_w(&self) -> f64 {
        self.perturb.cap_w()
    }

    /// Memoised single-region simulation.
    pub fn simulate(&mut self, region: &RegionModel, cfg: SimConfig) -> Arc<SimReport> {
        self.simulate_at(region, cfg, None)
    }

    /// [`SimExecutor::simulate`] with an optional per-region frequency
    /// limit (the DVFS knob); `None` is exactly the unclamped path.
    pub fn simulate_at(
        &mut self,
        region: &RegionModel,
        cfg: SimConfig,
        freq_limit_ghz: Option<f64>,
    ) -> Arc<SimReport> {
        let slot = self.slot(&region.name);
        self.price(slot, region, cfg, freq_limit_ghz);
        Arc::clone(self.slots[slot].report())
    }

    /// The slot of the region called `name`, made on first sight.
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.by_name.get(name) {
            return slot;
        }
        let id = self.cache.intern(name);
        let slot = self.slots.len();
        self.slots.push(RegionSlot {
            name: name.to_string(),
            id,
            table: None,
            invocations: 0,
            last: None,
        });
        self.by_name.insert(name.to_string(), slot);
        slot
    }

    /// The slot of the region [`Backend::run_region`] was handed: one
    /// comparison when the call is at the position after the previous
    /// call's, the name map otherwise (once per position per run). The
    /// name is checked too, so a `RegionModel` that reuses a freed one's
    /// address is never mistaken for it.
    fn slot_at(&mut self, region: &RegionModel) -> usize {
        let addr = region as *const RegionModel as usize;
        let is = |&(a, slot): &(usize, usize)| a == addr && self.slots[slot].name == region.name;
        let at = if self.cursor < self.positions.len() { self.cursor } else { 0 };
        let at = match self.positions.get(at) {
            Some(p) if is(p) => at,
            _ => match self.positions.iter().position(is) {
                Some(at) => at,
                None => {
                    let slot = self.slot(&region.name);
                    self.positions.push((addr, slot));
                    self.positions.len() - 1
                }
            },
        };
        self.cursor = at + 1;
        self.positions[at].1
    }

    /// Price `region` at `cfg` for the slot's region under the current
    /// cap, leaving the report as the slot's last cell for the caller to
    /// borrow ([`RegionSlot::report`]). A repeat of that cell is counted
    /// as a cache hit and touches nothing else — no probe, no refcount.
    /// Any other cell comes from the shared memo cache — keyed, and
    /// simulated, at the cell's operating point and canonical schedule,
    /// so every cap that clamps the team to one frequency, and every
    /// schedule that dispatches one chunk stream, shares one cell.
    fn price(
        &mut self,
        slot: usize,
        region: &RegionModel,
        cfg: SimConfig,
        freq_limit_ghz: Option<f64>,
    ) {
        let SimExecutor { machine, perturb, cache, scratch, f_caps, slots, .. } = self;
        let cap_w = perturb.cap_w();
        let slot = &mut slots[slot];
        let inputs = CellInputs {
            iterations: region.iterations,
            cfg,
            cap_bits: cap_w.to_bits(),
            freq_bits: freq_limit_ghz.map(f64::to_bits),
        };
        if matches!(&slot.last, Some((last, _)) if *last == inputs) {
            cache.note_hit(slot.id);
            return;
        }
        let f_cap = f_caps.get(machine, cap_w, cfg.threads);
        let (key_cap_w, key_limit_ghz) = machine.operating_point(cap_w, f_cap, freq_limit_ghz);
        let team = cfg.threads.clamp(1, machine.hw_threads());
        let cfg = SimConfig { schedule: cfg.schedule.canonical(region.iterations, team), ..cfg };
        let table = &mut slot.table;
        let rep = cache.get_or_insert_id(
            &mut cache.reader(),
            slot.id,
            region.iterations,
            cfg,
            key_cap_w,
            key_limit_ghz,
            || {
                // A name does not identify a model: re-resolve if the
                // slot's table was built for another trip count or profile.
                let table = match table {
                    Some(table) if table.matches(region) => table,
                    _ => table.insert(cache.weight_table(region)),
                };
                simulate_region_with_table(
                    machine,
                    key_cap_w,
                    region,
                    table,
                    cfg,
                    key_limit_ghz,
                    scratch,
                )
            },
        );
        debug_assert_eq!(
            rep.f_ghz.to_bits(),
            machine.team_frequency(cap_w, cfg.threads, freq_limit_ghz).to_bits(),
            "the cell at ({key_cap_w} W, {key_limit_ghz:?}) runs at another frequency than \
             ({cap_w} W, {freq_limit_ghz:?})"
        );
        slot.last = Some((inputs, rep));
    }
}

impl Backend for SimExecutor {
    fn machine(&self) -> &Machine {
        &self.machine
    }

    fn power_cap_w(&self) -> f64 {
        self.perturb.cap_w()
    }

    fn requested_power_cap_w(&self) -> f64 {
        self.perturb.requested_cap_w()
    }

    fn begin_run(&mut self) {
        self.energy_meter = PackageEnergy::new();
        self.energy_meter.sample(&self.rapl); // prime against the current counter
        self.resample = false;
        self.perturb.begin_run();
        self.positions.clear();
    }

    fn charge_overhead(&mut self, dt_s: f64) {
        let p = backend::overhead_power_w(&self.machine);
        self.rapl.advance(dt_s, p);
        self.resample = true;
    }

    fn run_region(&mut self, region: &RegionModel, cfg: TunedConfig) -> RegionRun {
        let slot = self.slot_at(region);
        let inv = self.slots[slot].invocations;
        self.slots[slot].invocations += 1;
        // A cap move — broker reallocation or scheduled fault — reprograms
        // RAPL before the invocation, so the simulation (and the memo
        // cache key) see the new envelope.
        let faults =
            self.perturb.before_invocation(&region.name, inv, |w| self.rapl.set_package_cap(w));
        self.price(slot, region, cfg.omp.as_sim(), cfg.freq_ghz);
        let rep = self.slots[slot].report();
        let rep = match faults.filter(|f| f.straggler_factor > 1.0) {
            // A real slowdown: machine state (time and energy) grows,
            // not just the observation.
            Some(f) => Cow::Owned(rep.with_straggler(&self.machine, f.straggler_factor)),
            None => Cow::Borrowed(&**rep),
        };
        let fnoise = match &self.noise {
            Some(n) => n.factor(&region.name, inv),
            None => 1.0,
        };
        self.rapl.advance(rep.time_s * fnoise, rep.avg_power_w());
        self.resample = true;
        RegionRun {
            time_s: self.perturb.after_invocation(&region.name, faults, rep.time_s * fnoise),
            features: RegionFeatures {
                busy_s: rep.busy_total_s(),
                barrier_s: rep.barrier_total_s(),
                l1_miss_rate: rep.cache.l1_miss_rate,
                l2_miss_rate: rep.cache.l2_miss_rate,
                l3_miss_rate: rep.cache.l3_miss_rate,
            },
        }
    }

    fn energy_j(&mut self) -> Result<f64, MeasureError> {
        // A dropped sample answers the stale counter value without
        // resampling RAPL, and so does a read with no RAPL advance since
        // the last sample: the unchanged register would add `+0.0` to the
        // total. The fault plan sees every read either way.
        let fresh = !self.perturb.meter_read()? && std::mem::take(&mut self.resample);
        Ok(if fresh { self.energy_meter.sample(&self.rapl) } else { self.energy_meter.total_j() })
    }

    fn attach_faults(&mut self, plan: FaultPlan) {
        self.perturb.attach_faults(plan);
    }

    fn attach_cap_handle(&mut self, handle: CapHandle) {
        self.perturb.watch_cap(handle, |w| self.rapl.set_package_cap(w));
    }

    fn trace(&self) -> Option<&Arc<dyn TraceSink>> {
        self.perturb.trace.as_ref()
    }

    fn attach_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.cache.attach_trace(Arc::clone(&sink));
        self.perturb.trace = Some(sink);
    }

    fn bind_shared_cache(&mut self, cache: Arc<SharedSimCache>) -> Result<(), RunError> {
        self.bind_cache(cache).map_err(RunError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Runner;
    use crate::config::{ConfigSpace, OmpConfig};
    use crate::sweep::{SweepEngine, SweepGrid, SweepReport, SweepStrategy};
    use crate::tuner::{RegionTuner, TunerOptions};
    use arcs_kernels::model;
    use arcs_kernels::Class;
    use arcs_powersim::WorkloadDescriptor;

    fn small_bt() -> WorkloadDescriptor {
        let mut wl = model::bt(Class::W);
        wl.timesteps = 30;
        wl
    }

    #[test]
    fn default_run_is_reproducible() {
        let m = Machine::crill();
        let wl = small_bt();
        let a = Runner::new(&mut SimExecutor::new(m.clone(), 85.0)).workload(&wl).run().unwrap();
        let b = Runner::new(&mut SimExecutor::new(m, 85.0)).workload(&wl).run().unwrap();
        assert_eq!(a.time_s, b.time_s);
        assert!((a.energy_j - b.energy_j).abs() < 1e-9);
        assert_eq!(a.per_region.len(), 5);
        assert_eq!(a.per_region["bt/x_solve"].invocations, 30);
    }

    #[test]
    fn default_run_has_no_overheads() {
        let mut exec = SimExecutor::new(Machine::crill(), 115.0);
        let rep = Runner::new(&mut exec).workload(&small_bt()).run().unwrap();
        assert_eq!(rep.config_change_overhead_s, 0.0);
        assert_eq!(rep.instrumentation_overhead_s, 0.0);
        assert!(rep.tuner.is_none());
    }

    #[test]
    fn energy_counter_path_matches_simulated_energy_roughly() {
        // The RAPL path quantises at 1 ms but must track total energy.
        let m = Machine::crill();
        let wl = small_bt();
        let rep = Runner::new(&mut SimExecutor::new(m.clone(), 115.0)).workload(&wl).run().unwrap();
        assert!(rep.energy_j > 0.0);
        // Cross-check against direct integration of the region reports.
        let mut exec = SimExecutor::new(m.clone(), 115.0);
        let cfg = OmpConfig::default_for(&m).as_sim();
        let direct: f64 =
            wl.step.iter().map(|r| exec.simulate(r, cfg).energy_j * wl.timesteps as f64).sum();
        let err = (rep.energy_j - direct).abs() / direct;
        assert!(err < 0.02, "counter {} vs direct {direct}", rep.energy_j);
    }

    /// The default cell and the `strategy` cell of `wl` at `cap_w`.
    fn against_default(
        m: &Machine,
        cap_w: f64,
        wl: WorkloadDescriptor,
        strategy: SweepStrategy,
    ) -> SweepReport {
        let grid = SweepGrid::new(m.clone())
            .workload(wl)
            .caps(&[cap_w])
            .strategies(&[SweepStrategy::Default, strategy]);
        SweepEngine::new(m.clone()).run(&grid)
    }

    #[test]
    fn offline_beats_default_on_sp() {
        let m = Machine::crill();
        let mut wl = model::sp(Class::B);
        wl.timesteps = 20; // replay length doesn't change per-invocation ratios
        let sweep = against_default(&m, 115.0, wl, SweepStrategy::Offline);
        let base = &sweep.cells[0].report;
        let off = &sweep.cells[1].report;
        assert!(
            off.time_s < base.time_s,
            "offline {} should beat default {}",
            off.time_s,
            base.time_s
        );
        assert_eq!(sweep.cells[1].history.as_ref().map(|h| h.len()), Some(5));
        // Energy improves too (the paper's headline).
        assert!(off.energy_j < base.energy_j);
    }

    #[test]
    fn online_pays_search_overhead_but_still_helps_sp() {
        let m = Machine::crill();
        let mut wl = model::sp(Class::B);
        wl.timesteps = 200;
        let sweep = against_default(&m, 85.0, wl, SweepStrategy::Online);
        let (base, on) = (&sweep.cells[0].report, &sweep.cells[1].report);
        assert!(on.time_s < base.time_s, "online {} vs default {}", on.time_s, base.time_s);
        assert!(on.tuner.unwrap().config_changes > 0);
    }

    #[test]
    fn tuned_runs_account_overheads() {
        let m = Machine::crill();
        let mut wl = model::bt(Class::W);
        wl.timesteps = 10;
        let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
        let mut exec = SimExecutor::new(m.clone(), 115.0);
        let on = Runner::new(&mut exec).workload(&wl).tuner(&mut tuner).run().unwrap();
        // Instrumentation is per-tuned-invocation; configuration changes
        // fire whenever the global ICVs move.
        assert!(on.config_change_overhead_s > 0.0);
        assert!(on.config_change_overhead_s <= 50.0 * m.config_change_s);
        assert!((on.instrumentation_overhead_s - 50.0 * m.instrumentation_s).abs() < 1e-9);
    }

    #[test]
    fn training_converges_and_exports_all_regions() {
        let m = Machine::crill();
        let mut wl = model::bt(Class::W);
        wl.timesteps = 60;
        let mut exec = SimExecutor::new(m.clone(), 115.0);
        let space = ConfigSpace::crill();
        let h = Runner::new(&mut exec)
            .workload(&wl)
            .train(TunerOptions::offline_train(space), "bt.W.test")
            .unwrap();
        assert_eq!(h.len(), 5);
        for (_, entry) in h.entries.iter() {
            assert_eq!(entry.evaluations, 252);
        }
    }

    #[test]
    fn shared_cache_is_reused_across_executors() {
        let m = Machine::crill();
        let cache = Arc::new(SharedSimCache::new(&m.name));
        let wl = small_bt();
        let run = || {
            let mut exec = SimExecutor::new(m.clone(), 85.0);
            Runner::new(&mut exec).workload(&wl).shared_cache(Arc::clone(&cache)).run().unwrap()
        };
        let a = run();
        let warm = cache.stats();
        assert_eq!(warm.hits, 5 * 29); // 5 regions × (30 − first) invocations
        let b = run();
        assert_eq!(a, b);
        // The second executor never missed: all its lookups hit.
        let after = cache.stats();
        assert_eq!(after.misses, warm.misses);
        assert_eq!(after.hits, warm.hits + 5 * 30);
    }

    #[test]
    fn a_zero_timestep_run_reports_no_regions() {
        let mut wl = small_bt();
        wl.timesteps = 0;
        let mut exec = SimExecutor::new(Machine::crill(), 85.0);
        assert!(Runner::new(&mut exec).workload(&wl).run().unwrap().per_region.is_empty());
    }

    #[test]
    fn a_zero_timestep_workload_trains_to_an_empty_history() {
        let mut wl = small_bt();
        wl.timesteps = 0;
        let mut exec = SimExecutor::new(Machine::crill(), 85.0);
        let options = TunerOptions::offline_train(ConfigSpace::crill());
        let h = Runner::new(&mut exec).workload(&wl).train(options, "bt.empty").unwrap();
        assert_eq!((h.len(), h.context.as_str()), (0, "bt.empty"));
    }

    #[test]
    fn slots_follow_region_names_not_addresses() {
        // Swapping two regions in place puts another region at an
        // address the executor has already resolved: it must be priced,
        // counted and noised as itself.
        let m = Machine::crill();
        let cfg = TunedConfig::from(OmpConfig::default_for(&m));
        let mut step = small_bt().step;
        let mut exec = SimExecutor::new(m.clone(), 85.0).with_noise(0.1, 4);
        let _ = exec.run_region(&step[0], cfg);
        step.swap(0, 1);
        let moved = exec.run_region(&step[0], cfg);
        let fresh = SimExecutor::new(m, 85.0).with_noise(0.1, 4).run_region(&step[0], cfg);
        assert_eq!(moved, fresh);
        assert_eq!(exec.shared_cache().stats().misses, 2);
    }

    #[test]
    fn repeated_cells_count_as_cache_hits_until_the_cap_moves() {
        let m = Machine::crill();
        let cfg = TunedConfig::from(OmpConfig::default_for(&m));
        let region = &small_bt().step[0];
        let handle = CapHandle::new(85.0);
        let mut exec = SimExecutor::new(m, 85.0).with_cap_handle(handle.clone());
        let first = exec.run_region(region, cfg);
        assert_eq!(exec.run_region(region, cfg), first);
        handle.set(60.0);
        assert_ne!(exec.run_region(region, cfg), first, "the cap is part of the cell");
        let s = exec.shared_cache().stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn caps_at_one_operating_point_share_a_cell() {
        // A 4-thread team runs at the base clock at all three caps: each
        // move misses the slot's last cell (kept by raw cap) and hits the
        // memo's, which prices what a fresh executor at that cap does.
        let m = Machine::crill();
        let omp = OmpConfig { threads: 4, schedule: arcs_omprt::Schedule::dynamic(4) };
        let cfg = TunedConfig::from(omp);
        let region = &small_bt().step[0];
        let handle = CapHandle::new(85.0);
        let mut exec = SimExecutor::new(m.clone(), 85.0).with_cap_handle(handle.clone());
        for cap in [85.0, 100.0, 115.0] {
            handle.set(cap);
            let fresh = SimExecutor::new(m.clone(), cap).run_region(region, cfg);
            assert_eq!(exec.run_region(region, cfg), fresh, "{cap} W");
        }
        let s = exec.shared_cache().stats();
        assert_eq!((s.hits, s.misses), (2, 1));
    }

    #[test]
    fn unmoved_meter_reads_keep_the_sampled_bits_and_the_plans_read_ordinals() {
        // `old` resamples RAPL on every read, as the meter did before it
        // skipped samples of a register nothing has advanced; `new` must
        // answer each read with the same bits, and fail the same reads.
        let m = Machine::crill();
        let plan = FaultPlan {
            rapl_fault_rate: 0.2,
            rapl_burst_len: 1,
            sample_drop_rate: 0.3,
            straggler_rate: 0.2,
            straggler_factor: 1.8,
            ..FaultPlan::new(11)
        };
        let sink = Arc::new(arcs_trace::VecSink::new());
        let mut new =
            SimExecutor::new(m.clone(), 85.0).with_faults(plan.clone()).with_trace(sink.clone());
        let mut old = SimExecutor::new(m.clone(), 85.0).with_faults(plan.clone());
        let cfg = TunedConfig::from(OmpConfig::default_for(&m));
        let (mut reads, mut failed) = (0, 0);
        let mut read_both = |new: &mut SimExecutor, old: &mut SimExecutor, n: usize| {
            for _ in 0..n {
                old.resample = true;
                let (a, b) = (new.energy_j(), old.energy_j());
                assert_eq!(a.is_err(), plan.rapl_read_fails(reads), "read {reads}");
                failed += usize::from(a.is_err());
                assert_eq!(a.ok().map(f64::to_bits), b.ok().map(f64::to_bits), "read {reads}");
                reads += 1;
            }
        };
        new.begin_run();
        old.begin_run();
        read_both(&mut new, &mut old, 2);
        for (i, region) in small_bt().step.iter().cycle().take(40).enumerate() {
            if i % 3 == 0 {
                new.charge_overhead(1e-3);
                old.charge_overhead(1e-3);
                read_both(&mut new, &mut old, 2);
            }
            assert_eq!(new.run_region(region, cfg), old.run_region(region, cfg));
            read_both(&mut new, &mut old, 3);
        }
        let kinds: Vec<_> = sink
            .drain()
            .into_iter()
            .filter_map(|r| match r.event {
                arcs_trace::TraceEvent::FaultInjected { kind, .. } => Some(kind),
                _ => None,
            })
            .collect();
        assert!(failed > 0, "the plan fails some reads");
        assert!(kinds.iter().any(|k| k == "sample_drop"), "the plan drops some samples");
        assert!(kinds.iter().any(|k| k == "straggler"), "the plan straggles some invocations");
    }

    #[test]
    fn shared_cache_rejects_wrong_machine() {
        let mut wl = model::sp(Class::B);
        wl.timesteps = 4;
        let mut exec = SimExecutor::new(Machine::crill(), 85.0);
        let err = Runner::new(&mut exec)
            .workload(&wl)
            .shared_cache(Arc::new(SharedSimCache::new("minotaur")))
            .run()
            .map(|_| ())
            .unwrap_err();
        let RunError::CacheBind(bind) = &err else { panic!("got {err:?}") };
        assert_eq!(bind.cache_machine, "minotaur");
        assert_eq!(bind.machine, "crill");
        assert!(err.to_string().contains("different machine model"), "{err}");
    }

    #[test]
    #[should_panic(expected = "different machine model")]
    fn shared_cache_mismatch_panics() {
        let cache = Arc::new(SharedSimCache::new("minotaur"));
        let _ = SimExecutor::new(Machine::crill(), 85.0).with_shared_cache(cache);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::backend::Runner;
    use crate::config::ConfigSpace;
    use crate::tuner::{RegionTuner, TunerOptions};
    use arcs_kernels::{model, Class};
    use arcs_powersim::WorkloadDescriptor;
    use arcs_trace::{NullSink, TraceEvent, VecSink};

    fn tiny_sp() -> WorkloadDescriptor {
        let mut wl = model::sp(Class::B);
        wl.timesteps = 4;
        wl
    }

    #[test]
    fn traced_online_run_emits_the_full_event_taxonomy() {
        let m = Machine::crill();
        let wl = tiny_sp();
        let sink = Arc::new(VecSink::new());
        let mut tuner = RegionTuner::new(TunerOptions::online(ConfigSpace::for_machine(&m)));
        let mut exec = SimExecutor::new(m, 80.0).with_trace(sink.clone());
        Runner::new(&mut exec).workload(&wl).tuner(&mut tuner).run().unwrap();

        let records = sink.drain();
        let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
        assert_eq!(count("CapChange"), 1);
        assert_eq!(count("RegionBegin"), 20); // 5 regions × 4 timesteps
        assert_eq!(count("RegionEnd"), 20);
        assert_eq!(count("PowerSample"), 20);
        assert!(count("SearchIteration") > 0, "tuner must report search steps");
        assert!(count("ConfigSwitch") > 0);
        assert!(count("OverheadCharged") > 0);
        assert!(count("CacheMiss") > 0);
        // The cap is below Crill's RAPL floor? No — 80 W is in range, so
        // requested == effective.
        let cap = records.iter().find(|r| r.event.kind() == "CapChange").unwrap();
        assert!(matches!(
            cap.event,
            TraceEvent::CapChange { requested_w, effective_w }
                if requested_w == 80.0 && effective_w == 80.0
        ));
        // Sequence numbers are unique and drain() sorts them.
        for w in records.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn cap_handle_moves_apply_at_region_boundaries_and_trace_cap_changes() {
        let m = Machine::crill();
        let wl = tiny_sp();
        let handle = crate::cap::CapHandle::new(100.0);
        let sink = Arc::new(VecSink::new());
        let mut exec = SimExecutor::new(m.clone(), 85.0)
            .with_cap_handle(handle.clone())
            .with_trace(sink.clone());
        assert_eq!(exec.power_cap_w(), 100.0, "the handle replaces the constructor cap");

        // Reallocate mid-run: the driver's next region boundary applies it.
        handle.set(60.0);
        let rep = Runner::new(&mut exec).workload(&wl).run().unwrap();
        assert_eq!(rep.power_cap_w, 60.0);
        let records = sink.drain();
        let caps: Vec<(f64, f64)> = records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::CapChange { requested_w, effective_w } => {
                    Some((requested_w, effective_w))
                }
                _ => None,
            })
            .collect();
        // Run-start CapChange at the attach-time value, then the mid-run
        // move traced through the same path a scheduled cap fault uses.
        assert_eq!(caps, vec![(100.0, 100.0), (60.0, 60.0)]);
        // No FaultInjected breadcrumb: a reallocation is not a fault.
        assert_eq!(records.iter().filter(|r| r.event.kind() == "FaultInjected").count(), 0);

        // An identical run at a fixed 60 W cap prices the post-move
        // regions identically (the memo cache key follows the envelope).
        let fixed = Runner::new(&mut SimExecutor::new(m, 60.0)).workload(&wl).run().unwrap();
        assert_eq!(
            rep.per_region["sp/x_solve"].total_time_s,
            fixed.per_region["sp/x_solve"].total_time_s
        );
    }

    #[test]
    fn null_sink_runs_bit_identical_to_untraced_runs() {
        let m = Machine::crill();
        let wl = tiny_sp();
        let mut plain = SimExecutor::new(m.clone(), 85.0).with_noise(0.1, 9);
        let mut nulled =
            SimExecutor::new(m, 85.0).with_noise(0.1, 9).with_trace(Arc::new(NullSink));
        assert_eq!(
            Runner::new(&mut plain).workload(&wl).run().unwrap(),
            Runner::new(&mut nulled).workload(&wl).run().unwrap()
        );
    }

    #[test]
    fn runner_surfaces_cache_bind_errors() {
        let m = Machine::crill();
        let wl = tiny_sp();
        let mut exec = SimExecutor::new(m, 85.0);
        let err = Runner::new(&mut exec)
            .workload(&wl)
            .shared_cache(Arc::new(SharedSimCache::new("minotaur")))
            .run()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, RunError::CacheBind(_)), "got {err:?}");
    }

    #[test]
    fn runner_requires_a_workload() {
        let mut exec = SimExecutor::new(Machine::crill(), 85.0);
        let err = Runner::new(&mut exec).run().map(|_| ()).unwrap_err();
        assert!(matches!(err, RunError::MissingWorkload));
    }
}

#[cfg(test)]
mod noise_tests {
    use super::*;
    use crate::backend::Runner;
    use crate::config::ConfigSpace;
    use crate::tuner::{RegionTuner, TunerOptions};
    use arcs_kernels::{model, Class};

    #[test]
    fn noise_is_reproducible_and_mean_preserving() {
        let m = Machine::crill();
        let mut wl = model::bt(Class::W);
        wl.timesteps = 40;
        let run = |mut exec: SimExecutor| Runner::new(&mut exec).workload(&wl).run().unwrap();
        let clean = run(SimExecutor::new(m.clone(), 115.0));
        let a = run(SimExecutor::new(m.clone(), 115.0).with_noise(0.2, 7));
        let b = run(SimExecutor::new(m.clone(), 115.0).with_noise(0.2, 7));
        assert_eq!(a.time_s, b.time_s, "same seed ⇒ same run");
        let c = run(SimExecutor::new(m.clone(), 115.0).with_noise(0.2, 8));
        assert_ne!(a.time_s, c.time_s, "different seed ⇒ different run");
        // Mean-1 noise over 200 invocations: totals within a few percent.
        let rel = (a.time_s - clean.time_s).abs() / clean.time_s;
        assert!(rel < 0.05, "noise must be mean-preserving: {rel}");
    }

    #[test]
    fn noise_factors_do_not_depend_on_interleaving() {
        // The stateless model: a region's k-th invocation draws the same
        // factor whether or not other regions ran in between.
        let n = NoiseModel::new(0.2, 41);
        let alone: Vec<f64> = (0..10).map(|i| n.factor("sp/x_solve", i)).collect();
        let interleaved: Vec<f64> = (0..10)
            .map(|i| {
                let _ = n.factor("sp/y_solve", i); // unrelated draws
                let _ = n.factor("sp/z_solve", i);
                n.factor("sp/x_solve", i)
            })
            .collect();
        assert_eq!(alone, interleaved);
        // Distinct regions and ordinals decorrelate.
        assert_ne!(n.factor("sp/x_solve", 0), n.factor("sp/y_solve", 0));
        assert_ne!(n.factor("sp/x_solve", 0), n.factor("sp/x_solve", 1));
    }

    #[test]
    fn noise_factor_mean_is_one() {
        let n = NoiseModel::new(0.15, 3);
        let mean: f64 = (0..10_000).map(|i| n.factor("r", i)).sum::<f64>() / 10_000.0;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn noisy_training_still_finds_good_configs() {
        // Offline training under 15% measurement noise must still deliver
        // most of SP's improvement when its history is replayed on the
        // clean simulator (the train→test gap stays small).
        let m = Machine::crill();
        let mut wl = model::sp(Class::B);
        wl.timesteps = 60;
        let clean_base =
            Runner::new(&mut SimExecutor::new(m.clone(), 115.0)).workload(&wl).run().unwrap();
        let space = ConfigSpace::for_machine(&m);
        let history = Runner::new(&mut SimExecutor::new(m.clone(), 115.0).with_noise(0.15, 42))
            .workload(&wl)
            .train(TunerOptions::offline_train(space.clone()), "noisy")
            .unwrap();
        let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space, history));
        let replay = Runner::new(&mut SimExecutor::new(m.clone(), 115.0))
            .workload(&wl)
            .tuner(&mut tuner)
            .run()
            .unwrap();
        let ratio = replay.time_s / clean_base.time_s;
        assert!(ratio < 0.85, "noisy-trained configs must still win: {ratio}");
    }
}
