//! The per-region tuning brain — and the one selector every run goes
//! through.
//!
//! [`RegionTuner`] is backend-agnostic: both the live runtime adapter and
//! the simulator executor drive it through the same two calls —
//! [`begin`](RegionTuner::begin) when a region is about to fork (returns
//! the configuration to apply and whether that is a change), and
//! [`end_measured`](RegionTuner::end_measured) when the region's duration
//! and energy are known. The run driver calls their slot-indexed forms,
//! resolving a region's name to its slot once per run instead of once
//! per invocation.
//!
//! Per the paper (§III-B): a tuning session is created lazily the first
//! time a region is encountered; while un-converged, each invocation runs
//! the next configuration the search requests; after convergence the
//! converged values are used. In replay mode (ARCS-Offline's measured
//! run), configurations come from the history file and no search happens.
//!
//! The tuner searches a [`ConfigSpace`] — the paper's 3-knob grid or the
//! DVFS-extended 4-knob grid ([`ConfigSpace::with_dvfs`]) — and scores
//! each invocation by its [`Objective`]: `Time` reproduces the paper,
//! `Energy`/`EnergyDelay` optimise the same search machinery toward
//! joules or the energy-delay product.
//!
//! ## Searching and pinned regions
//!
//! Each region is one record in one of two states. *Searching*, it owns
//! a session and the resilience buffers that feed it. *Pinned*, it runs
//! one configuration: replayed from a history, frozen at its best, or
//! first seen after the tuner degraded. A pinned region may also be
//! *untuned*: not instrumented, and never paying the configuration-change
//! cost against the global ICVs. Two things put a region there:
//!
//! * the *selective tuning* extension from the paper's future work
//!   ("enable selective tuning for OpenMP regions to avoid overheads on
//!   the smaller regions"), [`TunerOptions::min_region_time_s`]: a region
//!   in either state whose observed mean duration falls below the
//!   threshold is pinned to the default configuration mid-run;
//! * a fixed run ([`Runner::fixed`](crate::backend::Runner::fixed), the
//!   default run, [`Runner::adaptive`](crate::backend::Runner::adaptive)):
//!   its selector is a tuner whose every region starts pinned to the
//!   run's map, so the driver has one selector loop for every flavour.
//!
//! A region's slot in the tuner is its key for the whole run: the driver
//! indexes its own per-region tables by it.
//!
//! ## The portfolio ladder
//!
//! An adaptive run's regions also carry the ladder: per region,
//! an EWMA (α = 0.5) of the invocation's imbalance signal
//! `barrier / (busy + barrier)`; once it stays above 0.15 for 3
//! consecutive invocations, the region escalates one rung — configured
//! schedule → trapezoid → factoring → awf, the configured chunk kept as
//! the minimum — from its next invocation, with a fresh EWMA. The ladder
//! never descends. A rung move is a knob change against the region's
//! own last schedule, and each escalation is recorded as a
//! [`TraceEvent::PolicySwitched`]. Every decision is a pure function of
//! the imbalance stream, so adaptive runs are byte-reproducible.

use crate::backend::RegionFeatures;
use crate::config::{ConfigSpace, OmpConfig, TunedConfig};
use crate::resilience::{median_and_mad, ResilienceOptions};
use arcs_harmony::{History, Session, StrategyKind};
use arcs_omprt::{Schedule, ScheduleKind};
use arcs_powersim::{FxBuildHasher, Machine};
use arcs_trace::{Objective, SearchCandidate, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Accepted scores a region must hold before MAD rejection can fire —
/// below this the median/MAD are too unstable to call anything an
/// outlier, so the warmup measurements are always accepted.
const MIN_WINDOW_FOR_REJECTION: usize = 5;

/// Accepted scores a region keeps for the MAD outlier test: the median
/// and MAD are computed over its last this many.
const OUTLIER_WINDOW: usize = 16;

/// The portfolio ladder's rule: smoothing of the imbalance EWMA, the
/// level (≥ 15 % of thread time waiting at the barrier) above which an
/// invocation counts against patience, and the consecutive
/// over-threshold invocations that escalate a region one rung.
const LADDER_ALPHA: f64 = 0.5;
const LADDER_THRESHOLD: f64 = 0.15;
const LADDER_PATIENCE: u32 = 3;

/// How a tuner chooses configurations.
#[derive(Debug, Clone)]
pub enum TuningMode {
    /// Exhaustive sweep per region (the ARCS-Offline *training* run).
    OfflineTrain,
    /// Replay the best configurations saved by a training run (the
    /// ARCS-Offline *measured* run).
    OfflineReplay(History<OmpConfig>),
    /// Nelder–Mead search within the run (ARCS-Online).
    Online,
    /// Parallel Rank Order search within the run.
    OnlinePro,
    /// Uniform random sampling within the run (ablation baseline).
    OnlineRandom { seed: u64, max_evals: usize },
}

/// Tuner construction options.
#[derive(Debug, Clone)]
pub struct TunerOptions {
    pub space: ConfigSpace,
    pub mode: TuningMode,
    /// What each invocation is scored by. `Time` is the paper's evaluated
    /// objective and the default.
    pub objective: Objective,
    /// Selective-tuning threshold (seconds of mean region time). 0 tunes
    /// everything — the paper's evaluated behaviour.
    pub min_region_time_s: f64,
}

impl TunerOptions {
    pub fn new(space: ConfigSpace, mode: TuningMode) -> Self {
        TunerOptions { space, mode, objective: Objective::Time, min_region_time_s: 0.0 }
    }

    pub fn online(space: ConfigSpace) -> Self {
        TunerOptions::new(space, TuningMode::Online)
    }

    pub fn offline_train(space: ConfigSpace) -> Self {
        TunerOptions::new(space, TuningMode::OfflineTrain)
    }

    pub fn offline_replay(space: ConfigSpace, history: History<OmpConfig>) -> Self {
        TunerOptions::new(space, TuningMode::OfflineReplay(history))
    }

    pub fn with_min_region_time(mut self, seconds: f64) -> Self {
        self.min_region_time_s = seconds;
        self
    }

    /// Score sessions by `objective` instead of wall-clock time.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }
}

/// What `begin` tells the caller to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunerDecision {
    pub config: TunedConfig,
    /// Whether the configuration differs from the previously applied one.
    pub changed: bool,
    /// Whether ARCS actively manages this region. When true, the policy
    /// calls `omp_set_num_threads`/`omp_set_schedule` at *every* region
    /// entry (§III-C: the configuration-change overhead "is present in
    /// both Online and Offline strategies"). Regions excluded by selective
    /// tuning run untouched and pay nothing.
    pub tuned: bool,
}

/// Aggregate overhead/bookkeeping counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TunerStats {
    pub invocations: u64,
    pub config_changes: u64,
    pub regions: u64,
    pub skipped_regions: u64,
    /// Measurements discarded by MAD outlier rejection (absent — zero —
    /// in stats recorded before the resilience layer).
    #[serde(default)]
    pub rejected: u64,
    /// Search-session restarts triggered by rejection streaks.
    #[serde(default)]
    pub restarts: u64,
    /// Regions frozen to their best-known configuration (by the
    /// degradation ladder or by [`RegionTuner::freeze_all`]).
    #[serde(default)]
    pub frozen_regions: u64,
}

/// One region of the run, found by its slot.
struct RegionState {
    name: String,
    invocations: u64,
    total_time_s: f64,
    mode: Mode,
}

/// A region either replays one configuration or searches for one.
enum Mode {
    /// Runs `config` on every invocation. `tuned` is false for regions
    /// skipped by selective tuning and for a fixed run's regions, which
    /// alone walk the portfolio ladder (adaptive runs).
    Pinned {
        config: TunedConfig,
        tuned: bool,
        ladder: Option<Ladder>,
    },
    Searching(Box<Search>),
}

impl RegionState {
    fn converged(&self) -> bool {
        match &self.mode {
            Mode::Pinned { .. } => true,
            Mode::Searching(search) => search.session.converged(),
        }
    }

    /// The configuration the region runs (pinned) or the best its search
    /// has measured — what freezing pins and what a run reports.
    fn best(&self, space: &ConfigSpace) -> TunedConfig {
        match &self.mode {
            Mode::Pinned { config, .. } => *config,
            Mode::Searching(search) => space.decode(&search.session.best_point()),
        }
    }
}

/// A searching region's session and the resilience state that feeds it.
struct Search {
    session: Session,
    /// Converged-session fast path: once the search settles, every
    /// invocation replays the same best point, so the decoded config is
    /// cached here instead of cloning/decoding it again per entry. Only
    /// set when the session is converged with no report outstanding
    /// (post-convergence `next_point` has no side effects), so serving
    /// from the cache is observationally identical.
    settled: Option<TunedConfig>,
    /// The last handed-out point waits for its measurement.
    awaiting: bool,
    /// Window of accepted scores (resilience only): what the MAD
    /// outlier test compares a new measurement against.
    accepted: VecDeque<f64>,
    /// The score the last rejection discarded: a re-measurement that
    /// reproduces it is accepted (consistent means real).
    last_rejected: Option<f64>,
    /// Rejections since the last session restart — the ladder's trigger
    /// for restarting and eventually freezing.
    rejections_since_restart: u32,
}

impl Search {
    fn new(session: Session) -> Self {
        Search {
            session,
            settled: None,
            awaiting: false,
            accepted: VecDeque::new(),
            last_rejected: None,
            rejections_since_restart: 0,
        }
    }

    /// The configuration the session asks for next.
    fn next(&mut self, space: &ConfigSpace) -> TunedConfig {
        if let Some(settled) = self.settled {
            return settled;
        }
        let point = self.session.next_point();
        self.awaiting = self.session.awaiting_report();
        let cfg = space.decode(&point);
        if !self.awaiting && self.session.converged() {
            self.settled = Some(cfg);
        }
        cfg
    }
}

/// A pinned region's portfolio-ladder state. Its observation count is
/// the region's `invocations`: the driver reports every invocation
/// ([`RegionTuner::end_at`]) before the ladder observes it.
#[derive(Default)]
struct Ladder {
    ewma: Option<f64>,
    /// Consecutive invocations with the EWMA above threshold.
    over: u32,
    /// 0 is the configured schedule, `k` the `k`-th self-scheduling kind.
    arm: usize,
    /// The schedule the region last ran with — what a rung move is a
    /// knob change against.
    applied: Option<Schedule>,
}

impl Ladder {
    /// The schedule arm `arm` maps to for a region configured with `base`:
    /// `base` itself, or the `arm`-th self-scheduling kind with `base`'s
    /// chunk as its minimum chunk.
    fn rung(base: Schedule, arm: usize) -> Schedule {
        match arm {
            0 => base,
            arm => Schedule::new(ScheduleKind::SELF_SCHEDULING[arm - 1], base.chunk),
        }
    }

    /// Move `schedule` (the configured one) to the current rung. True when
    /// that differs from what the region last ran with.
    fn apply(&mut self, schedule: &mut Schedule) -> bool {
        *schedule = Self::rung(*schedule, self.arm);
        self.applied.replace(*schedule).is_some_and(|prev| prev != *schedule)
    }

    /// Feed one invocation's imbalance. On escalation the EWMA restarts,
    /// so residual imbalance measured under the old rung cannot trip an
    /// immediate second move; returns the EWMA that tripped it.
    fn observe(&mut self, imbalance: f64) -> Option<f64> {
        let ewma = match self.ewma {
            None => imbalance,
            Some(prev) => LADDER_ALPHA * imbalance + (1.0 - LADDER_ALPHA) * prev,
        };
        self.ewma = Some(ewma);
        self.over = if ewma > LADDER_THRESHOLD { self.over + 1 } else { 0 };
        if self.over < LADDER_PATIENCE || self.arm == ScheduleKind::SELF_SCHEDULING.len() {
            return None;
        }
        self.arm += 1;
        self.over = 0;
        self.ewma = None;
        Some(ewma)
    }
}

/// Pin `state` to its best-known configuration and emit
/// [`TraceEvent::TunerDegraded`]. Free function so callers holding
/// disjoint field borrows of [`RegionTuner`] can use it.
fn freeze_region(
    space: &ConfigSpace,
    trace: &Option<Arc<dyn TraceSink>>,
    stats: &mut TunerStats,
    state: &mut RegionState,
) {
    let cfg = state.best(space);
    state.mode = Mode::Pinned { config: cfg, tuned: true, ladder: None };
    stats.frozen_regions += 1;
    if let Some(sink) = trace {
        if sink.enabled() {
            sink.record(
                None,
                TraceEvent::TunerDegraded {
                    region: state.name.clone(),
                    threads: cfg.omp.threads,
                    schedule: cfg.omp.schedule.to_string(),
                },
            );
        }
    }
}

/// Per-region adaptive configuration selection.
pub struct RegionTuner {
    options: TunerOptions,
    /// Decoded once at construction: `begin` needs it on every invocation
    /// and the space never changes after the tuner is built.
    default_cfg: TunedConfig,
    /// Per-region state, one slot per region, made at its first `begin`.
    regions: Vec<RegionState>,
    /// Region name → slot. Its iteration order is the order
    /// `freeze_all`, `best_tuned_configs` and `export_history` visit
    /// regions in.
    slots: HashMap<String, usize, FxBuildHasher>,
    /// Reused by the outlier test, so a searching invocation allocates
    /// nothing to take the window's median and MAD.
    window: Vec<f64>,
    /// The configuration currently held by the runtime's global ICVs.
    /// `omp_set_num_threads`/`omp_set_schedule` are process-global, so a
    /// region whose configuration differs from the *previously executed*
    /// region's pays the change cost on every entry — which is how the
    /// paper's per-region-invocation overhead arises (§III-C).
    last_applied: Option<TunedConfig>,
    /// Counters; [`RegionTuner::stats`] reads `regions` off the records.
    stats: TunerStats,
    trace: Option<Arc<dyn TraceSink>>,
    /// Self-healing policy. The default disables every rung, so every
    /// measurement is accepted and reported as it arrives.
    resilience: ResilienceOptions,
    /// Set by [`RegionTuner::freeze_all`] when the run's error budget
    /// was exhausted.
    degraded: bool,
    /// Built by [`RegionTuner::fixed`]: every region pinned and untuned.
    fixed: bool,
}

impl RegionTuner {
    pub fn new(options: TunerOptions) -> Self {
        let default_cfg = options.space.decode(&options.space.default_point());
        RegionTuner {
            options,
            default_cfg,
            regions: Vec::new(),
            slots: HashMap::default(),
            window: Vec::new(),
            last_applied: None,
            stats: TunerStats::default(),
            trace: None,
            resilience: ResilienceOptions::default(),
            degraded: false,
            fixed: false,
        }
    }

    /// The selector of a fixed run: each distinct name in `regions` pinned
    /// to `config_for(name)` — called once per name — and untuned, the
    /// state selective tuning leaves a skipped region in; with `ladder`,
    /// each region also walks the portfolio ladder. The space and mode are
    /// placeholders: no region searches or replays.
    pub(crate) fn fixed<'n>(
        machine: &Machine,
        regions: impl IntoIterator<Item = &'n str>,
        config_for: &dyn Fn(&str) -> OmpConfig,
        ladder: bool,
    ) -> Self {
        let space = ConfigSpace::for_machine(machine);
        let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space, History::new("")));
        tuner.fixed = true;
        for name in regions {
            tuner.slot_of(name, |_| Mode::Pinned {
                config: config_for(name).into(),
                tuned: false,
                ladder: ladder.then(Ladder::default),
            });
        }
        tuner
    }

    /// Emit a [`TraceEvent::SearchIteration`] per search step. Only
    /// affects regions first encountered *after* the call (sessions are
    /// created lazily and observers bind at creation); the run drivers
    /// call this before the first invocation, so every region is covered.
    pub fn set_trace(&mut self, sink: Arc<dyn TraceSink>) {
        self.trace = Some(sink);
    }

    /// Enable the self-healing ladder (outlier rejection, re-measurement,
    /// session restart, freezing) on every region encountered from now
    /// on. The run drivers call this before the first invocation.
    pub fn set_resilience(&mut self, options: ResilienceOptions) {
        self.resilience = options;
    }

    /// Freeze every region to its best-known configuration (graceful
    /// degradation: the measurement error budget is exhausted, so no
    /// further search decisions can be trusted). Idempotent. A fixed run's
    /// selector has nothing to freeze, so there it does nothing: no
    /// `TunerDegraded` — the run degrades through its meter alone.
    pub fn freeze_all(&mut self) {
        if self.degraded || self.fixed {
            return;
        }
        self.degraded = true;
        for &slot in self.slots.values() {
            let state = &mut self.regions[slot];
            if let Mode::Searching(_) = state.mode {
                freeze_region(&self.options.space, &self.trace, &mut self.stats, state);
            }
        }
    }

    /// Did [`RegionTuner::freeze_all`] fire?
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    pub fn stats(&self) -> TunerStats {
        TunerStats { regions: self.regions.len() as u64, ..self.stats }
    }

    /// What a run report shows as its `tuner`: nothing for a fixed run.
    pub(crate) fn run_stats(&self) -> Option<TunerStats> {
        (!self.fixed).then(|| self.stats())
    }

    /// The name of the region at `slot`.
    pub(crate) fn name(&self, slot: usize) -> &str {
        &self.regions[slot].name
    }

    pub fn space(&self) -> &ConfigSpace {
        &self.options.space
    }

    /// The objective sessions are scored by.
    pub fn objective(&self) -> Objective {
        self.options.objective
    }

    /// Change the scoring objective. Must be called before the first
    /// invocation: sessions already searching keep comparing values they
    /// scored under the previous objective.
    pub fn set_objective(&mut self, objective: Objective) {
        self.options.objective = objective;
    }

    /// Search evaluations spent on `region` so far (0 for pinned or
    /// unknown regions).
    pub fn evaluations(&self, region: &str) -> usize {
        match self.state(region).map(|s| &s.mode) {
            Some(Mode::Searching(search)) => search.session.evaluations(),
            _ => 0,
        }
    }

    fn state(&self, region: &str) -> Option<&RegionState> {
        self.slots.get(region).map(|&slot| &self.regions[slot])
    }

    /// Called at region fork. Returns the configuration to apply.
    pub fn begin(&mut self, region: &str) -> TunerDecision {
        let slot = self.resolve(region);
        self.begin_at(slot)
    }

    /// The slot of `region`, creating its state on first sight. The run
    /// driver resolves each position of a workload's step once per run,
    /// immediately before that position's first
    /// [`RegionTuner::begin_at`], so a region's state is still created at
    /// its first `begin`.
    pub(crate) fn resolve(&mut self, region: &str) -> usize {
        self.slot_of(region, |tuner| tuner.new_mode(region))
    }

    /// The slot of `region`; on first sight a new record in state
    /// `mode(self)`. The one way a region enters the tuner.
    fn slot_of(&mut self, region: &str, mode: impl FnOnce(&Self) -> Mode) -> usize {
        if let Some(&slot) = self.slots.get(region) {
            return slot;
        }
        let mode = mode(self);
        let slot = self.regions.len();
        self.regions.push(RegionState {
            name: region.to_owned(),
            invocations: 0,
            total_time_s: 0.0,
            mode,
        });
        self.slots.insert(region.to_owned(), slot);
        slot
    }

    /// [`RegionTuner::begin`] for a resolved slot.
    pub(crate) fn begin_at(&mut self, slot: usize) -> TunerDecision {
        self.stats.invocations += 1;
        let threshold = self.options.min_region_time_s;
        let state = &mut self.regions[slot];

        // Selective tuning: once a region has a few samples and its mean
        // time is below the threshold, pin it to the default configuration
        // and drop any search point in flight.
        if threshold > 0.0
            && state.invocations >= 3
            && state.total_time_s / state.invocations as f64 + 1e-12 < threshold
            && !matches!(state.mode, Mode::Pinned { tuned: false, .. })
        {
            state.mode = Mode::Pinned { config: self.default_cfg, tuned: false, ladder: None };
            self.stats.skipped_regions += 1;
        }

        let (mut config, tuned, ladder) = match &mut state.mode {
            Mode::Pinned { config, tuned, ladder } => (*config, *tuned, ladder.as_mut()),
            Mode::Searching(search) => (search.next(&self.options.space), true, None),
        };
        let changed = match ladder {
            // A rung move is a change against the region's own last run.
            Some(ladder) => ladder.apply(&mut config.omp.schedule),
            // Compare against the *global* runtime state, not this
            // region's last configuration: the ICVs are process-wide.
            None => tuned && self.last_applied != Some(config),
        };
        if changed {
            self.stats.config_changes += 1;
        }
        if tuned {
            self.last_applied = Some(config);
        }
        TunerDecision { config, changed, tuned }
    }

    /// Called at region join with the measured duration. Scores the
    /// session as if the invocation consumed no energy — exact for the
    /// `Time` objective; energy-aware callers use
    /// [`end_measured`](RegionTuner::end_measured).
    pub fn end(&mut self, region: &str, duration_s: f64) {
        self.end_measured(region, duration_s, 0.0);
    }

    /// Called at region join with the measured duration and the package
    /// energy attributed to the invocation. The session is scored by
    /// [`TunerOptions::objective`] over the pair.
    pub fn end_measured(&mut self, region: &str, time_s: f64, energy_j: f64) {
        if let Some(&slot) = self.slots.get(region) {
            self.end_at(slot, time_s, energy_j);
        }
    }

    /// [`RegionTuner::end_measured`] for a resolved slot.
    pub(crate) fn end_at(&mut self, slot: usize, time_s: f64, energy_j: f64) {
        let score = self.options.objective.score(time_s, energy_j);
        let state = &mut self.regions[slot];
        state.invocations += 1;
        state.total_time_s += time_s;
        let Mode::Searching(search) = &mut state.mode else { return };
        if !std::mem::take(&mut search.awaiting) {
            return;
        }
        let res = self.resilience;

        // Rung 2 of the ladder: MAD outlier rejection. A rejected point
        // stays pending, so `begin` hands out the same configuration
        // again — except that a value which *reproduces* the one just
        // rejected is accepted: consistent across re-measurement means
        // the configuration really is that bad, not that a timer
        // glitched.
        if res.mad_threshold > 0.0 && search.accepted.len() >= MIN_WINDOW_FOR_REJECTION {
            self.window.clear();
            self.window.extend(search.accepted.iter().copied());
            let (median, mad) = median_and_mad(&mut self.window);
            let spread = (res.mad_threshold * mad).max(1e-3 * median.abs());
            let deviant = (score - median).abs() > spread;
            let confirmed = search
                .last_rejected
                .is_some_and(|r| (score - r).abs() <= 0.05 * r.abs().max(f64::MIN_POSITIVE));
            if deviant && !confirmed {
                search.last_rejected = Some(score);
                search.rejections_since_restart += 1;
                self.stats.rejected += 1;
                if let Some(sink) = &self.trace {
                    if sink.enabled() {
                        sink.record(
                            None,
                            TraceEvent::MeasurementRejected {
                                region: state.name.clone(),
                                value: score,
                                median,
                                mad,
                            },
                        );
                    }
                }
                // Rungs 3–4: a rejection streak means the search is
                // poisoned — restart it at its best-known point, and
                // freeze the region once the restart budget is spent.
                if res.restart_after_rejections > 0
                    && search.rejections_since_restart >= res.restart_after_rejections
                {
                    search.rejections_since_restart = 0;
                    search.last_rejected = None;
                    if search.session.restarts() < res.max_restarts {
                        search.session.restart();
                        self.stats.restarts += 1;
                    } else {
                        freeze_region(&self.options.space, &self.trace, &mut self.stats, state);
                    }
                }
                return;
            }
        }

        search.last_rejected = None;
        if search.accepted.len() >= OUTLIER_WINDOW {
            search.accepted.pop_front();
        }
        search.accepted.push_back(score);
        search.session.report(score);
    }

    /// Feed the portfolio ladder (a no-op for regions off it) the
    /// invocation's imbalance. An escalation applies from the region's next
    /// invocation and is recorded as a `PolicySwitched` stamped `t_s`, the
    /// post-region clock. Inlined: for every region off the ladder it is
    /// one branch on the driver's per-invocation path.
    #[inline]
    pub(crate) fn observe_at(&mut self, slot: usize, features: &RegionFeatures, t_s: f64) {
        let state = &mut self.regions[slot];
        let Mode::Pinned { config, ladder: Some(ladder), .. } = &mut state.mode else { return };
        let denom = features.busy_s + features.barrier_s;
        let imbalance = if denom > 0.0 { features.barrier_s / denom } else { 0.0 };
        let from = ladder.arm;
        let Some(ewma) = ladder.observe(imbalance) else { return };
        if let Some(sink) = &self.trace {
            let policy = |arm| Ladder::rung(config.omp.schedule, arm).kind.name().to_string();
            sink.record(
                Some(t_s),
                TraceEvent::PolicySwitched {
                    region: state.name.clone(),
                    from: policy(from),
                    to: policy(ladder.arm),
                    invocation: state.invocations,
                    imbalance: ewma,
                },
            );
        }
    }

    /// The state `region` starts in, at its first `begin`.
    fn new_mode(&self, region: &str) -> Mode {
        let space = &self.options.space;
        let strategy = match &self.options.mode {
            // A frozen tuner makes no new search decisions: regions
            // first seen after degradation run the default configuration.
            _ if self.degraded => {
                return Mode::Pinned { config: self.default_cfg, tuned: true, ladder: None };
            }
            TuningMode::OfflineReplay(history) => {
                // "The saved values can be used instead of repeating the
                // search process." Unknown regions fall back to default.
                // Histories store the paper's 3 knobs; replayed configs
                // run at the uncapped frequency.
                let config = history
                    .get(region)
                    .map(|e| TunedConfig { omp: e.config, freq_ghz: None })
                    .unwrap_or(self.default_cfg);
                return Mode::Pinned { config, tuned: true, ladder: None };
            }
            TuningMode::OfflineTrain => StrategyKind::exhaustive(),
            TuningMode::Online => StrategyKind::nelder_mead(),
            TuningMode::OnlinePro => StrategyKind::parallel_rank_order(),
            TuningMode::OnlineRandom { seed, max_evals } => StrategyKind::random(*seed, *max_evals),
        };
        let mut session = Session::new(space.to_search_space(), strategy, space.default_point());
        if let Some(sink) = &self.trace {
            if sink.enabled() {
                let sink = Arc::clone(sink);
                let region_name = region.to_owned();
                let objective = self.options.objective;
                session = session.with_observer(move |step| {
                    sink.record(
                        None,
                        TraceEvent::SearchIteration {
                            region: region_name.clone(),
                            evaluations: step.evaluations as u64,
                            point: step.point.to_vec(),
                            value: step.value,
                            best_point: step.best_point.to_vec(),
                            best_value: step.best_value,
                            converged: step.converged,
                            simplex: step
                                .candidates
                                .iter()
                                .map(|c| SearchCandidate {
                                    point: c.point.to_vec(),
                                    value: c.value,
                                })
                                .collect(),
                            objective,
                        },
                    );
                });
            }
        }
        Mode::Searching(Box::new(Search::new(session)))
    }

    /// Are all (non-pinned) sessions converged? False until at least one
    /// region has been encountered (so callers can loop on `!converged()`
    /// from a cold start).
    pub fn converged(&self) -> bool {
        !self.regions.is_empty() && self.regions.iter().all(RegionState::converged)
    }

    /// How many regions have not converged.
    pub(crate) fn searching(&self) -> usize {
        self.regions.iter().filter(|r| !r.converged()).count()
    }

    /// Has `region` converged (or is it pinned)?
    pub fn region_converged(&self, region: &str) -> bool {
        self.state(region).is_some_and(RegionState::converged)
    }

    /// Region states in `slots` order (see [`RegionTuner::freeze_all`]).
    fn states(&self) -> impl Iterator<Item = &RegionState> {
        self.slots.values().map(|&slot| &self.regions[slot])
    }

    /// Best configuration found (or pinned) per region, across every knob.
    pub fn best_tuned_configs(&self) -> HashMap<String, TunedConfig> {
        self.states().map(|st| (st.name.clone(), st.best(&self.options.space))).collect()
    }

    /// Best OpenMP triple found (or pinned) per region — the paper's view
    /// of [`best_tuned_configs`](RegionTuner::best_tuned_configs), with
    /// any frequency knob dropped.
    pub fn best_configs(&self) -> HashMap<String, OmpConfig> {
        self.best_tuned_configs().into_iter().map(|(name, cfg)| (name, cfg.omp)).collect()
    }

    /// Export the per-region best configurations as a history file (the
    /// paper: "when the program completes, the policy saves the best
    /// parameters found during the search"). Histories keep the on-disk
    /// 3-knob layout, so a frequency knob (if tuned) is not persisted.
    pub fn export_history(&self, context: impl Into<String>) -> History<OmpConfig> {
        let mut h = History::new(context);
        for st in self.states() {
            match &st.mode {
                Mode::Searching(search) => {
                    if let Some((point, value)) = search.session.best() {
                        let config = self.options.space.decode(&point).omp;
                        h.insert(st.name.clone(), config, value, search.session.evaluations());
                    }
                }
                Mode::Pinned { config, .. } => h.insert(st.name.clone(), config.omp, f64::NAN, 0),
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigSpace;
    use arcs_omprt::Schedule;

    fn space() -> ConfigSpace {
        ConfigSpace::crill()
    }

    /// Synthetic objective: best at 16 threads + guided; default is slow.
    fn measure(cfg: &OmpConfig) -> f64 {
        let t_penalty = ((cfg.threads as f64).log2() - 4.0).abs() * 0.1;
        let s_penalty = match cfg.schedule.kind {
            arcs_omprt::ScheduleKind::Guided => 0.0,
            arcs_omprt::ScheduleKind::Dynamic => 0.05,
            arcs_omprt::ScheduleKind::Static => 0.15,
            // Self-scheduling families sit between dynamic and static in
            // this synthetic landscape; guided stays the optimum.
            _ => 0.10,
        };
        1.0 + t_penalty + s_penalty
    }

    fn drive(tuner: &mut RegionTuner, region: &str, n: usize) {
        for _ in 0..n {
            let d = tuner.begin(region);
            tuner.end(region, measure(&d.config.omp));
        }
    }

    #[test]
    fn offline_train_finds_the_optimum() {
        let mut tuner = RegionTuner::new(TunerOptions::offline_train(space()));
        drive(&mut tuner, "r", 300); // 252 configs + slack
        assert!(tuner.converged());
        let best = tuner.best_configs()["r"];
        assert_eq!(best.threads, 16);
        assert_eq!(best.schedule.kind, arcs_omprt::ScheduleKind::Guided);
    }

    #[test]
    fn online_converges_with_far_fewer_measurements() {
        let mut tuner = RegionTuner::new(TunerOptions::online(space()));
        let mut measured = 0;
        loop {
            let d = tuner.begin("r");
            measured += 1;
            tuner.end("r", measure(&d.config.omp));
            if tuner.converged() || measured >= 252 {
                break;
            }
        }
        assert!(tuner.converged(), "online should converge in < 252 runs");
        let best = tuner.best_configs()["r"];
        // Near-optimal: within one thread step and a non-static schedule.
        assert!(
            measure(&best) < measure(&OmpConfig::default_for(&arcs_powersim::Machine::crill()))
        );
    }

    #[test]
    fn energy_objective_minimises_energy_not_time() {
        // Synthetic region where more threads are always faster but the
        // energy sweet spot is 8 threads: time and energy argmins differ.
        // With power ∝ (8 + threads), energy = 2(8 + t)/√t has its
        // continuous minimum exactly at t = 8.
        let time_of = |cfg: &OmpConfig| 2.0 / (cfg.threads as f64).sqrt();
        let energy_of = |cfg: &OmpConfig| time_of(cfg) * (8.0 + cfg.threads as f64);

        let run = |objective: Objective| {
            let mut tuner =
                RegionTuner::new(TunerOptions::offline_train(space()).with_objective(objective));
            assert_eq!(tuner.objective(), objective);
            for _ in 0..300 {
                let d = tuner.begin("r");
                tuner.end_measured("r", time_of(&d.config.omp), energy_of(&d.config.omp));
            }
            assert!(tuner.converged());
            tuner.best_configs()["r"]
        };

        let by_time = run(Objective::Time);
        let by_energy = run(Objective::Energy);
        assert_eq!(by_time.threads, 32, "time objective wants max threads");
        assert_eq!(by_energy.threads, 8, "energy objective wants the sweet spot");
    }

    #[test]
    fn replay_pins_saved_configs_without_searching() {
        let mut h = History::new("test");
        let saved = OmpConfig { threads: 8, schedule: Schedule::dynamic(16) };
        h.insert("r", saved, 0.5, 252);
        let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space(), h));
        for _ in 0..10 {
            let d = tuner.begin("r");
            assert_eq!(d.config.omp, saved);
            assert_eq!(d.config.freq_ghz, None);
            tuner.end("r", 0.5);
        }
        // Only the first invocation is a configuration change: the global
        // ICVs already hold the replayed value afterwards.
        assert_eq!(tuner.stats().config_changes, 1);
        assert!(tuner.converged());
        assert_eq!(tuner.evaluations("r"), 0);
    }

    #[test]
    fn replay_of_unknown_region_uses_default() {
        let h = History::new("empty");
        let mut tuner = RegionTuner::new(TunerOptions::offline_replay(space(), h));
        let d = tuner.begin("mystery");
        assert_eq!(d.config.omp, OmpConfig::default_for(&arcs_powersim::Machine::crill()));
    }

    #[test]
    fn config_changes_counted_only_on_change() {
        let mut tuner = RegionTuner::new(TunerOptions::offline_train(space()));
        // During an exhaustive sweep nearly every invocation changes config.
        drive(&mut tuner, "r", 20);
        let st = tuner.stats();
        assert!(st.config_changes > 15);
        assert_eq!(st.invocations, 20);
    }

    #[test]
    fn selective_tuning_skips_tiny_regions() {
        let opts = TunerOptions::online(space()).with_min_region_time(0.05);
        let mut tuner = RegionTuner::new(opts);
        for _ in 0..20 {
            let _ = tuner.begin("tiny");
            tuner.end("tiny", 0.001); // far below the threshold
        }
        assert_eq!(tuner.stats().skipped_regions, 1);
        // After skipping, the config is pinned to default: no more changes.
        let before = tuner.stats().config_changes;
        for _ in 0..10 {
            let d = tuner.begin("tiny");
            assert_eq!(d.config.omp, tuner.best_configs()["tiny"]);
            tuner.end("tiny", 0.001);
        }
        assert_eq!(tuner.stats().config_changes, before);
    }

    #[test]
    fn selective_tuning_unpins_a_small_replayed_region_to_the_untuned_default() {
        let saved = OmpConfig { threads: 8, schedule: Schedule::dynamic(16) };
        let default = OmpConfig::default_for(&arcs_powersim::Machine::crill());
        let mut h = History::new("test");
        h.insert("small", saved, 0.001, 252);
        h.insert("big", saved, 1.0, 252);
        let opts = TunerOptions::offline_replay(space(), h).with_min_region_time(0.05);
        let mut tuner = RegionTuner::new(opts);
        let mut invoke = |region: &str, time_s: f64| {
            let d = tuner.begin(region);
            tuner.end(region, time_s);
            (d.config.omp, d.changed, d.tuned)
        };
        // Replayed and tuned until three samples show the mean is small.
        // Both replay one config, so only the very first entry moves the ICVs.
        for i in 0..3 {
            assert_eq!(invoke("small", 0.001), (saved, i == 0, true));
            assert_eq!(invoke("big", 1.0), (saved, false, true));
        }
        // From the fourth invocation on, the default runs untouched.
        for _ in 0..5 {
            assert_eq!(invoke("small", 0.001), (default, false, false));
            assert_eq!(invoke("big", 1.0), (saved, false, true));
        }
        assert_eq!(tuner.stats().skipped_regions, 1);
        assert_eq!(tuner.best_configs()["small"], default);
        assert!(tuner.export_history("replayed").get("small").unwrap().value.is_nan());
    }

    #[test]
    fn big_regions_survive_selective_tuning() {
        let opts = TunerOptions::online(space()).with_min_region_time(0.05);
        let mut tuner = RegionTuner::new(opts);
        for _ in 0..30 {
            let d = tuner.begin("big");
            tuner.end("big", measure(&d.config.omp)); // ~1s, above threshold
        }
        assert_eq!(tuner.stats().skipped_regions, 0);
    }

    #[test]
    fn history_roundtrip_through_json() {
        let mut tuner = RegionTuner::new(TunerOptions::offline_train(space()));
        drive(&mut tuner, "a", 300);
        drive(&mut tuner, "b", 300);
        let h = tuner.export_history("app.B.crill.115W");
        assert_eq!(h.len(), 2);
        let json = h.to_json();
        let back: History<OmpConfig> = History::from_json(&json).unwrap();
        assert_eq!(h, back);
        assert_eq!(back.context, "app.B.crill.115W");
    }

    #[test]
    fn traced_tuner_reports_search_iterations() {
        use arcs_trace::{TraceEvent, VecSink};
        use std::sync::Arc;

        let sink = Arc::new(VecSink::new());
        let mut tuner = RegionTuner::new(TunerOptions::online(space()));
        tuner.set_trace(sink.clone());
        drive(&mut tuner, "r", 40);
        let records = sink.drain();
        assert!(!records.is_empty(), "search steps must reach the sink");
        let mut last_evals = 0;
        for r in &records {
            let TraceEvent::SearchIteration {
                region,
                evaluations,
                best_value,
                value,
                objective,
                ..
            } = &r.event
            else {
                panic!("unexpected event {:?}", r.event);
            };
            assert_eq!(region, "r");
            assert_eq!(*objective, Objective::Time);
            assert!(*evaluations > last_evals);
            last_evals = *evaluations;
            assert!(best_value <= value);
        }
    }

    #[test]
    fn multiple_regions_tune_independently() {
        let mut tuner = RegionTuner::new(TunerOptions::offline_train(space()));
        drive(&mut tuner, "a", 10);
        drive(&mut tuner, "b", 10);
        assert_eq!(tuner.stats().regions, 2);
        assert!(!tuner.converged());
    }
}

#[cfg(test)]
mod ladder_tests {
    use super::*;
    use arcs_trace::VecSink;

    const TOP: usize = ScheduleKind::SELF_SCHEDULING.len();

    #[test]
    fn ladder_escalates_after_patience() {
        let mut ladder = Ladder::default();
        for _ in 1..LADDER_PATIENCE {
            assert!(ladder.observe(0.5).is_none(), "patience not yet exhausted");
        }
        let ewma = ladder.observe(0.5).expect("the third over-threshold invocation escalates");
        assert!(ewma > LADDER_THRESHOLD);
        assert_eq!(ladder.arm, 1);
        // The EWMA restarted: the next rung needs a full streak again.
        for _ in 1..LADDER_PATIENCE {
            assert!(ladder.observe(0.9).is_none());
        }
        assert!(ladder.observe(0.9).is_some());
        assert_eq!(ladder.arm, 2);
        while ladder.arm < TOP {
            ladder.observe(1.0);
        }
        // Top rung reached — no further escalation no matter the signal.
        for _ in 0..10 {
            assert!(ladder.observe(1.0).is_none());
        }
        assert_eq!(ladder.arm, TOP);
    }

    #[test]
    fn balanced_observations_reset_patience() {
        let mut ladder = Ladder::default();
        // Alternating over/under never strings LADDER_PATIENCE
        // over-threshold EWMAs together (α = 0.5 pulls the average back
        // to the threshold or below every second invocation).
        for _ in 0..8 {
            assert!(ladder.observe(0.3).is_none());
            assert!(ladder.observe(0.0).is_none());
        }
        assert_eq!(ladder.arm, 0);
        // A persistently high signal still escalates.
        for _ in 1..LADDER_PATIENCE {
            ladder.observe(0.9);
        }
        assert!(ladder.observe(0.9).is_some());
    }

    /// Drive one invocation of `slot` with barrier share `imbalance`.
    fn invoke(tuner: &mut RegionTuner, slot: usize, imbalance: f64) -> TunerDecision {
        let d = tuner.begin_at(slot);
        tuner.end_at(slot, 1.0, 1.0);
        let features =
            RegionFeatures { busy_s: 1.0 - imbalance, barrier_s: imbalance, ..Default::default() };
        tuner.observe_at(slot, &features, 0.0);
        d
    }

    #[test]
    fn a_fixed_selector_pins_untuned_regions_and_ladders_them_independently() {
        let m = Machine::crill();
        let base = OmpConfig { threads: 32, schedule: Schedule::static_block() };
        let sink = Arc::new(VecSink::new());
        let mut tuner = RegionTuner::fixed(&m, ["hot", "cold", "hot"], &|_| base, true);
        tuner.set_trace(sink.clone());
        let (hot, cold) = (tuner.resolve("hot"), tuner.resolve("cold"));
        for _ in 0..LADDER_PATIENCE {
            let d = invoke(&mut tuner, hot, 0.8);
            assert_eq!((d.config.omp, d.changed, d.tuned), (base, false, false));
            assert_eq!(invoke(&mut tuner, cold, 0.0).config.omp, base);
        }
        // The escalation applies from the next invocation, as a change.
        let d = invoke(&mut tuner, hot, 0.0);
        assert!(d.changed && !d.tuned);
        assert_eq!(d.config.omp.schedule.kind, ScheduleKind::SELF_SCHEDULING[0]);
        assert!(!invoke(&mut tuner, hot, 0.0).changed, "the rung did not move again");
        assert_eq!(invoke(&mut tuner, cold, 0.0).config.omp, base);
        let switched: Vec<_> = sink
            .drain()
            .into_iter()
            .map(|r| match r.event {
                TraceEvent::PolicySwitched { region, from, to, invocation, .. } => {
                    (region, from, to, invocation)
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        let to = ScheduleKind::SELF_SCHEDULING[0].name().to_string();
        assert_eq!(switched, vec![("hot".into(), "static".into(), to, 3)]);
        // Nothing searches, so nothing freezes and no stats are reported.
        tuner.freeze_all();
        assert!(!tuner.degraded());
        assert_eq!(tuner.run_stats(), None);
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;
    use crate::config::ConfigSpace;
    use crate::resilience::ResilienceOptions;
    use arcs_trace::VecSink;

    fn space() -> ConfigSpace {
        ConfigSpace::crill()
    }

    fn measure(cfg: &OmpConfig) -> f64 {
        let t_penalty = ((cfg.threads as f64).log2() - 4.0).abs() * 0.1;
        1.0 + t_penalty
    }

    #[test]
    fn spiked_measurements_are_rejected_and_remeasured() {
        let sink = Arc::new(VecSink::new());
        // Exhaustive mode keeps the session awaiting for every
        // invocation, so the spike is guaranteed to hit a live search.
        let mut tuner = RegionTuner::new(TunerOptions::offline_train(space()));
        tuner.set_resilience(ResilienceOptions::standard());
        tuner.set_trace(sink.clone());
        // Warm the accepted window with consistent scores, inject one
        // 10× timer spike, then return to clean measurements.
        let mut spiked_config = None;
        for i in 0..16 {
            let d = tuner.begin("r");
            let v = if i == 10 {
                spiked_config = Some(d.config);
                10.0
            } else {
                1.0
            };
            tuner.end("r", v);
        }
        assert_eq!(tuner.stats().rejected, 1, "exactly the spike is rejected");
        let rejected: Vec<_> = sink
            .drain()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::MeasurementRejected { value, median, .. } => Some((value, median)),
                _ => None,
            })
            .collect();
        assert_eq!(rejected, vec![(10.0, 1.0)]);
        // The spiked point was re-measured, not skipped: invocation 11
        // handed out the same configuration again, whose clean score was
        // then accepted (16 invocations still report 15 evaluations).
        assert!(spiked_config.is_some());
        assert_eq!(tuner.evaluations("r"), 15);
    }

    #[test]
    fn reproducible_bad_scores_are_accepted_not_rejected_forever() {
        // A configuration that really is 10× worse keeps returning the
        // same score: the first measurement is rejected, the identical
        // re-measurement is accepted (consistent means real).
        let res = ResilienceOptions { mad_threshold: 3.0, ..ResilienceOptions::standard() };
        let mut tuner = RegionTuner::new(TunerOptions::online(space()));
        tuner.set_resilience(res);
        for _ in 0..60 {
            let d = tuner.begin("r");
            let v = if d.config.omp.threads == 1 { 12.0 } else { measure(&d.config.omp) };
            tuner.end("r", v);
        }
        // The search made progress despite the pathological corner: it
        // converged or is still measuring, but never wedged on one point.
        assert!(tuner.stats().rejected < 30, "rejections must not dominate the run");
        assert!(tuner.evaluations("r") > 5, "the session kept learning");
    }

    #[test]
    fn rejection_streak_restarts_then_freezes() {
        let res = ResilienceOptions {
            mad_threshold: 2.0,
            restart_after_rejections: 3,
            max_restarts: 1,
            ..ResilienceOptions::standard()
        };
        let sink = Arc::new(VecSink::new());
        let mut tuner = RegionTuner::new(TunerOptions::offline_train(space()));
        tuner.set_resilience(res);
        tuner.set_trace(sink.clone());
        // Warm the window with consistent scores, then feed garbage that
        // never reproduces (a fresh random-looking value each time).
        for _ in 0..8 {
            let _ = tuner.begin("r");
            tuner.end("r", 1.0);
        }
        let mut v = 50.0;
        for _ in 0..20 {
            let _ = tuner.begin("r");
            tuner.end("r", v);
            v = v * 1.37 + 3.0; // never within 5% of the last rejection
        }
        let st = tuner.stats();
        assert!(st.restarts >= 1, "streak must restart the session: {st:?}");
        assert_eq!(st.frozen_regions, 1, "then freeze the region: {st:?}");
        assert!(tuner.region_converged("r"), "frozen regions count as converged");
        let degraded: Vec<_> = sink
            .drain()
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::TunerDegraded { .. }))
            .collect();
        assert_eq!(degraded.len(), 1);
    }

    #[test]
    fn freeze_all_pins_every_region_and_marks_degraded() {
        let sink = Arc::new(VecSink::new());
        let mut tuner = RegionTuner::new(TunerOptions::online(space()));
        tuner.set_resilience(ResilienceOptions::standard());
        tuner.set_trace(sink.clone());
        for _ in 0..10 {
            for r in ["a", "b"] {
                let d = tuner.begin(r);
                tuner.end(r, measure(&d.config.omp));
            }
        }
        assert!(!tuner.degraded());
        tuner.freeze_all();
        tuner.freeze_all(); // idempotent
        assert!(tuner.degraded());
        assert!(tuner.converged(), "a frozen tuner is converged");
        assert_eq!(tuner.stats().frozen_regions, 2);
        let degraded = sink
            .drain()
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::TunerDegraded { .. }))
            .count();
        assert_eq!(degraded, 2);
        // Frozen regions keep serving their pinned config; new regions
        // run the default.
        let before = tuner.best_configs()["a"];
        let d = tuner.begin("a");
        assert_eq!(d.config.omp, before);
        let fresh = tuner.begin("new-after-freeze");
        assert_eq!(fresh.config.omp, OmpConfig::default_for(&arcs_powersim::Machine::crill()));
    }

    #[test]
    fn resilience_off_is_bit_identical_to_the_old_path() {
        // The old path reported every measurement straight to the
        // session; a bare session driven that way is the reference.
        let space = space();
        let mut session = Session::new(
            space.to_search_space(),
            StrategyKind::nelder_mead(),
            space.default_point(),
        );
        let mut tuner = RegionTuner::new(TunerOptions::online(space.clone()));
        for _ in 0..60 {
            let d = tuner.begin("r");
            let point = session.next_point();
            assert_eq!(d.config, space.decode(&point));
            let score = measure(&d.config.omp);
            tuner.end("r", score);
            if session.awaiting_report() {
                session.report(score);
            }
        }
        assert_eq!(tuner.best_configs()["r"], space.decode(&session.best_point()).omp);
        assert_eq!(tuner.evaluations("r"), session.evaluations());
        assert_eq!(tuner.stats().rejected, 0);
    }
}
