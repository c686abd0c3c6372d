//! The execution backend abstraction and the single run driver.
//!
//! Live and simulated execution share one run loop — §III-C overhead
//! charging, energy metering, [`AppRunReport`] assembly. A [`Backend`]
//! only knows how to run one region invocation at one configuration (and
//! how to account idle-ish overhead time), while the [`Runner`] builder
//! feeds every run flavour — default, [fixed](Runner::fixed),
//! [adaptive](Runner::adaptive), [tuned](Runner::tuner),
//! [training](Runner::train) — through one private `drive` loop for *any*
//! backend. Every flavour reaches that loop as one [`RegionTuner`]: a
//! fixed run's is built from its per-region map, with every region pinned
//! and untuned (and, when adaptive, on the portfolio ladder), so the loop
//! never asks which flavour it runs and neither the backends nor the
//! strategies can drift: the baseline and every selected strategy are
//! measured by the same harness.
//!
//! A run reads `Runner::new(backend).workload(wl)`, then at most one of
//! `.fixed(..)`, `.adaptive(..)` and `.tuner(..)`, then options, then
//! [`run`](Runner::run) or [`train`](Runner::train). The strategy field
//! is private, so those three calls are the one way to choose it, and a
//! tuner run with the portfolio ladder switched on cannot be written.
//! `run`'s tuner arm and `train` share one wiring helper (objective
//! override, sink, resilience). Misconfiguration is a typed [`RunError`],
//! never a panic.
//!
//! ## Energy attribution
//!
//! Backends expose one cumulative package meter ([`Backend::energy_j`]).
//! The driver differences it around every invocation (and around every
//! overhead charge), so per-region energy is attributed identically on the
//! simulated and live paths — the [`Measurement`] a tuner scores and the
//! `RegionEnd`/`OverheadCharged` trace events all carry meter deltas, and
//! their sum telescopes to the run total. Scoring is objective-aware:
//! [`Runner::objective`] selects whether sessions minimise time, energy or
//! energy-delay ([`Objective`]).
//!
//! Overheads follow §III-C: every tuned invocation pays the
//! instrumentation cost (OMPT + APEX); every *configuration change* pays
//! the `omp_set_num_threads`/`omp_set_schedule` cost (≈8 ms on Crill) —
//! present in both Online and Offline strategies because ARCS applies the
//! configuration at region entry. Overhead time is charged at near-idle
//! package power ([`overhead_power_w`]; the paper: "these overheads are
//! not energy hungry computation").
//!
//! ## Tracing
//!
//! When a [`TraceSink`] is attached (via [`Runner::trace`] or a backend's
//! own builder), the driver emits [`arcs_trace::TraceEvent`]s along the
//! run's simulated timeline (the driver's accumulated time): `CapChange`
//! once at run start, `RegionBegin`/`RegionEnd` + `PowerSample` per
//! invocation, and `ConfigSwitch`/`OverheadCharged` when a tuner moves the
//! ICVs. Emission is guarded by [`TraceSink::enabled`], so a
//! [`arcs_trace::NullSink`] costs one branch per invocation and the
//! untraced path allocates nothing. The runner hands the backend's sink
//! to the tuner (`SearchIteration`) and to the shared memo (`CacheHit` /
//! `CacheMiss`), so one attachment traces every layer.
//!
//! ## Settled replay
//!
//! The driver keeps, per step position and across runs of the same step,
//! the tuner slot, and for a settled region the decision and the
//! [`PricedCell`] its last invocation resolved. An untraced invocation
//! that repeats them counts the decision, charges and meters exactly as
//! any other, and has the backend replay the cell
//! ([`Backend::replay_region`]) instead of running it (DESIGN.md §3.2).

use crate::cap::CapHandle;
use crate::config::OmpConfig;
use crate::config::TunedConfig;
use crate::report::{AppRunReport, FaultRecovery, RegionSummary, RunStatus};
use crate::resilience::ResilienceOptions;
use crate::tuner::{RegionTuner, Settled, TunerOptions, TuningMode};
use arcs_harmony::History;
use arcs_metrics::MetricsRegistry;
use arcs_powersim::{
    CacheBindError, FaultPlan, Machine, MeasureError, RegionModel, SharedSimCache,
    WorkloadDescriptor,
};
use arcs_trace::{Objective, TraceEvent, TraceSink};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Per-thread aggregates of one region invocation, unscaled by measurement
/// noise (the profile metrics the paper reads through OMPT + TAU).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RegionFeatures {
    /// Total per-thread loop-body time (OMPT `OpenMP_LOOP`), seconds.
    pub busy_s: f64,
    /// Total per-thread barrier wait (OMPT `OpenMP_BARRIER`), seconds.
    pub barrier_s: f64,
    pub l1_miss_rate: f64,
    pub l2_miss_rate: f64,
    pub l3_miss_rate: f64,
}

/// What a [`Backend`] reports for one region invocation. Energy is *not*
/// part of this: the driver attributes it by differencing the package
/// meter around the call, so both backends charge identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionRun {
    /// Wall-clock duration as the instrumentation saw it — including
    /// measurement noise where the backend models it, seconds.
    pub time_s: f64,
    pub features: RegionFeatures,
}

/// What one region invocation measured, as assembled by the driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Wall-clock duration as the instrumentation saw it — including
    /// measurement noise where the backend models it, seconds.
    pub time_s: f64,
    /// Package energy attributed to the invocation: the meter delta
    /// across the [`Backend::run_region`] call, joules.
    pub energy_j: f64,
    pub features: RegionFeatures,
}

/// What a backend priced for one region invocation, as [`Backend::priced`]
/// hands it to the driver: the backend's own key for the cell, and what a
/// repeat of the invocation measures. The driver keeps one per step
/// position and offers it back to [`Backend::replay_region`]. Only the
/// backend that priced it can read or replay it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PricedCell {
    /// The pricing executor's stamp, its slot for the region, and how
    /// often that slot had priced a new cell.
    pub(crate) owner: u64,
    pub(crate) slot: usize,
    pub(crate) repriced: u64,
    /// The invocation's time, and the package power RAPL advanced at.
    pub(crate) time_s: f64,
    pub(crate) power_w: f64,
    pub(crate) features: RegionFeatures,
}

/// An execution substrate: something that can run one parallel region at
/// one configuration and account for time and energy.
///
/// Implementations: [`crate::executor::SimExecutor`] (deterministic
/// power-capped machine simulator) and [`crate::live::LiveExecutor`] (real
/// `arcs-omprt` threads). The [`Runner`] owns everything else.
pub trait Backend {
    /// The machine model being executed on (source of §III-C constants).
    fn machine(&self) -> &Machine;

    /// Effective package power cap, watts.
    fn power_cap_w(&self) -> f64;

    /// The cap the caller requested, before any hardware clamping.
    /// Defaults to the effective cap.
    fn requested_power_cap_w(&self) -> f64 {
        self.power_cap_w()
    }

    /// Reset per-run energy accounting; called once at run start.
    fn begin_run(&mut self);

    /// Charge `dt_s` seconds of tuning overhead at near-idle package power
    /// (§III-C). Only called with `dt_s > 0`.
    fn charge_overhead(&mut self, dt_s: f64);

    /// Execute one invocation of `region` at `cfg`, advancing the
    /// backend's clock and energy meter. Backends without frequency
    /// control ignore `cfg.freq_ghz`.
    fn run_region(&mut self, region: &RegionModel, cfg: TunedConfig) -> RegionRun;

    /// The cell the last [`Backend::run_region`] priced, when a repeat of
    /// that invocation can be replayed ([`Backend::replay_region`]). The
    /// default has none, so the driver runs every invocation.
    fn priced(&self) -> Option<PricedCell> {
        None
    }

    /// Replay an invocation of `region` at `cfg` that repeats `cell`: do to
    /// the backend exactly what [`Backend::run_region`] would do, and
    /// return true; the invocation measured `cell`'s time and features.
    /// Return false, having changed nothing, when the invocation would
    /// price something else or be perturbed. The default replays nothing.
    fn replay_region(
        &mut self,
        _region: &RegionModel,
        _cfg: TunedConfig,
        _cell: &PricedCell,
    ) -> bool {
        false
    }

    /// Cumulative package energy since [`begin_run`](Backend::begin_run),
    /// joules. The driver differences this meter around every invocation
    /// and overhead charge, so sampling must be idempotent (no time
    /// advance). Reads are fallible: with an attached [`FaultPlan`] a
    /// backend returns [`MeasureError`] instead of a value — the driver's
    /// resilience layer decides whether to retry, absorb or abort.
    fn energy_j(&mut self) -> Result<f64, MeasureError>;

    /// Attach a deterministic fault plan: subsequent meter reads and
    /// region invocations are perturbed per the plan's seeded schedule.
    /// The default ignores the plan (the backend is then fault-free).
    fn attach_faults(&mut self, _plan: FaultPlan) {}

    /// Watch an externally-owned [`CapHandle`]: the handle's current
    /// value replaces the backend's cap now, and every later
    /// [`CapHandle::set`] is applied at the next region boundary through
    /// the backend's cap-change path (clamped and traced like a
    /// scheduled cap fault). The default ignores the handle — the
    /// backend's cap then stays run-constant.
    fn attach_cap_handle(&mut self, _handle: CapHandle) {}

    /// A per-invocation introspection hook the driver does not call. It
    /// is a no-op kept only because the benchmark's forwarding backend
    /// implements it, and goes with the next change to the benchmark.
    fn record_sample(&mut self, _region: &str, _time_s: f64, _energy_total_j: f64) {}

    /// The trace sink attached to this backend, if any. The driver reads
    /// it once per run to decide whether to emit events.
    fn trace(&self) -> Option<&Arc<dyn TraceSink>> {
        None
    }

    /// Attach a trace sink. Backends without trace support ignore the
    /// sink; both shipped backends store it.
    fn attach_trace(&mut self, _sink: Arc<dyn TraceSink>) {}

    /// A registry hook nothing reads: a run reports through its trace
    /// alone. Like [`Backend::record_sample`] it is kept only because the
    /// benchmark's forwarding backend implements it, and goes with the
    /// next change to the benchmark.
    fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        None
    }

    /// A no-op kept beside [`Backend::metrics`], for the same reason.
    fn attach_metrics(&mut self, _registry: Arc<MetricsRegistry>) {}

    /// Bind a memo cache shared with other executors. Only meaningful for
    /// simulated backends; the default reports
    /// [`RunError::CacheUnsupported`].
    fn bind_shared_cache(&mut self, _cache: Arc<SharedSimCache>) -> Result<(), RunError> {
        Err(RunError::CacheUnsupported)
    }
}

/// Package power during tuning overheads: uncore + idle cores + a
/// lightly-busy master core. The single definition shared by every
/// backend.
pub fn overhead_power_w(m: &Machine) -> f64 {
    let p_core_base = m.power.c0 + m.power.c1 * m.f_base_ghz.powi(3);
    m.sockets as f64 * m.power.p_uncore_w
        + m.total_cores() as f64 * m.power.p_core_idle_w
        + 0.3 * p_core_base
}

/// Why a [`Runner`] could not run.
#[derive(Debug)]
pub enum RunError {
    /// [`Runner::workload`] was never called.
    MissingWorkload,
    /// The shared memo cache belongs to a different machine model.
    CacheBind(CacheBindError),
    /// The backend has no memo cache to share (e.g. the live path).
    CacheUnsupported,
    /// [`Runner::train`] needs [`TuningMode::OfflineTrain`] options.
    NotOfflineTrain,
    /// A package-meter read failed past the retry budget and no error
    /// budget was configured to absorb it.
    Measure(MeasureError),
    /// [`Runner::train`] ran out of passes with regions still searching.
    Untrained { passes: usize, searching: usize },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MissingWorkload => write!(f, "no workload set on the runner"),
            RunError::CacheBind(e) => write!(f, "{e}"),
            RunError::CacheUnsupported => {
                write!(f, "this backend does not support a shared simulation cache")
            }
            RunError::NotOfflineTrain => {
                write!(f, "training requires TuningMode::OfflineTrain options")
            }
            RunError::Measure(e) => {
                write!(f, "unrecoverable measurement failure: {e}")
            }
            RunError::Untrained { passes, searching } => {
                write!(f, "{searching} region(s) still searching after {passes} training passes")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::CacheBind(e) => Some(e),
            RunError::Measure(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CacheBindError> for RunError {
    fn from(e: CacheBindError) -> Self {
        RunError::CacheBind(e)
    }
}

impl From<MeasureError> for RunError {
    fn from(e: MeasureError) -> Self {
        RunError::Measure(e)
    }
}

/// A fixed run's per-region configuration map.
type ConfigFor<'a> = Box<dyn Fn(&str) -> OmpConfig + 'a>;

/// Builder unifying every run flavour over any [`Backend`].
///
/// ```
/// use arcs::backend::Runner;
/// use arcs::executor::SimExecutor;
/// use arcs_powersim::Machine;
/// use arcs_kernels::{model, Class};
///
/// let mut wl = model::sp(Class::B);
/// wl.timesteps = 5;
/// let mut exec = SimExecutor::new(Machine::crill(), 85.0);
/// let report = Runner::new(&mut exec).workload(&wl).run().unwrap();
/// assert_eq!(report.strategy, "default");
/// ```
pub struct Runner<'a, B: Backend> {
    backend: &'a mut B,
    workload: Option<&'a WorkloadDescriptor>,
    /// The selector [`Runner::tuner`] set; without one the run builds a
    /// fixed selector from `config_for` and `ladder`.
    tuner: Option<&'a mut RegionTuner>,
    /// Each region's configuration on a fixed run, as [`Runner::fixed`] or
    /// [`Runner::adaptive`] set it; the paper's baseline when `None`.
    config_for: Option<ConfigFor<'a>>,
    /// Walk each region of a fixed run up the portfolio ladder.
    ladder: bool,
    /// What the report calls that strategy unless [`Runner::label`]
    /// overrides it.
    strategy: Cow<'a, str>,
    objective: Option<Objective>,
    trace: Option<Arc<dyn TraceSink>>,
    cache: Option<Arc<SharedSimCache>>,
    label: Option<String>,
    faults: Option<FaultPlan>,
    cap: Option<CapHandle>,
    resilience: Option<ResilienceOptions>,
    self_profile: bool,
}

impl<'a, B: Backend> Runner<'a, B> {
    pub fn new(backend: &'a mut B) -> Self {
        Runner {
            backend,
            workload: None,
            tuner: None,
            config_for: None,
            ladder: false,
            strategy: Cow::Borrowed("default"),
            objective: None,
            trace: None,
            cache: None,
            label: None,
            faults: None,
            cap: None,
            resilience: None,
            self_profile: false,
        }
    }

    /// The workload to execute (required).
    pub fn workload(mut self, wl: &'a WorkloadDescriptor) -> Self {
        self.workload = Some(wl);
        self
    }

    /// Run every region at `config_for(region)`, reported as `label`:
    /// every region untuned, so no §III-C overheads — used for
    /// oracle/ablation comparisons. Unset, the run uses the paper's
    /// baseline configuration for the backend's machine, reported as
    /// `default`. `config_for` is called once per distinct region per run,
    /// so it must be a pure map.
    pub fn fixed(
        mut self,
        config_for: impl Fn(&str) -> OmpConfig + 'a,
        label: impl Into<String>,
    ) -> Self {
        self.tuner = None;
        self.config_for = Some(Box::new(config_for));
        self.ladder = false;
        self.strategy = Cow::Owned(label.into());
        self
    }

    /// [`Runner::fixed`], with each region's chunk policy adapted *within*
    /// the run by the portfolio ladder (see [`crate::tuner`]): when the
    /// EWMA of the region's imbalance signal `barrier/(busy+barrier)`
    /// persists above threshold, the region escalates one rung —
    /// configured policy → trapezoid → factoring → awf — starting from the
    /// next invocation. Each knob move fires the usual `ConfigSwitch` +
    /// §III-C config-change overhead, plus a [`TraceEvent::PolicySwitched`]
    /// record explaining the decision. Decisions are pure functions of the
    /// (deterministic) imbalance stream, so same-seed adaptive runs remain
    /// byte-reproducible.
    pub fn adaptive(
        mut self,
        config_for: impl Fn(&str) -> OmpConfig + 'a,
        label: impl Into<String>,
    ) -> Self {
        self = self.fixed(config_for, label);
        self.ladder = true;
        self
    }

    /// Choose configurations with an ARCS tuner (Online, Offline-train or
    /// Offline-replay, depending on the tuner's mode), reported as `arcs`.
    pub fn tuner(mut self, tuner: &'a mut RegionTuner) -> Self {
        self.tuner = Some(tuner);
        self.strategy = Cow::Borrowed("arcs");
        self
    }

    /// Score the run (and any attached tuner) by `objective` instead of
    /// wall-clock time. Unset, tuner runs inherit the tuner's own
    /// objective and fixed runs report `Time`.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = Some(objective);
        self
    }

    /// Attach a trace sink to the backend before running. The sink also
    /// reaches the tuner (for `SearchIteration` events) and, on simulated
    /// backends, the memo cache (for `CacheHit`/`CacheMiss`).
    pub fn trace(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Bind a shared memo cache before running. Machine mismatches surface
    /// as [`RunError::CacheBind`] instead of a panic.
    pub fn shared_cache(mut self, cache: Arc<SharedSimCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Override the report's strategy label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Attach a deterministic fault plan to the backend before running
    /// (see [`FaultPlan`]): meter reads and region invocations are
    /// perturbed per the plan's seeded schedule.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Configure the self-healing ladder (retry, outlier rejection,
    /// restart, degradation) the driver and any attached tuner apply.
    /// Without this, faults surface raw: a failed meter read is a
    /// [`RunError::Measure`].
    pub fn resilience(mut self, options: ResilienceOptions) -> Self {
        self.resilience = Some(options);
        self
    }

    /// Self-profile the driver itself: time the tool's own phases
    /// (tuning bookkeeping, region execution, overhead charging, meter
    /// reads) with the wall clock and emit a
    /// [`TraceEvent::DriverPhases`] summary at run end when a trace sink
    /// is attached. Off by default — the spans are real elapsed times
    /// that vary run to run, so deterministic byte-compared traces must
    /// not opt in. Without an enabled sink no span is taken.
    pub fn self_profile(mut self, on: bool) -> Self {
        self.self_profile = on;
        self
    }

    /// Run under an externally-owned cap: the handle's current value
    /// replaces the backend's cap at run start, and every later
    /// [`CapHandle::set`] — from a broker reallocation, another thread,
    /// anywhere — is applied at the next region boundary as a mid-run
    /// `CapChange`. The tuner is not told: the move reprices the next
    /// invocation, settled regions keep their configuration, and MAD
    /// rejection may treat the step as noise.
    pub fn cap(mut self, handle: CapHandle) -> Self {
        self.cap = Some(handle);
        self
    }

    fn prepare(&mut self) -> Result<&'a WorkloadDescriptor, RunError> {
        if let Some(cache) = self.cache.take() {
            self.backend.bind_shared_cache(cache)?;
        }
        if let Some(sink) = self.trace.take() {
            self.backend.attach_trace(sink);
        }
        if let Some(plan) = self.faults.take() {
            self.backend.attach_faults(plan);
        }
        if let Some(handle) = self.cap.take() {
            self.backend.attach_cap_handle(handle);
        }
        self.workload.ok_or(RunError::MissingWorkload)
    }

    /// Execute the workload and assemble the report.
    pub fn run(self) -> Result<AppRunReport, RunError> {
        let mut report = AppRunReport::default();
        self.run_into(&mut report)?;
        Ok(report)
    }

    /// [`Runner::run`] into `report`, which it overwrites, reusing what
    /// `report` already holds: its strings, and the per-region entries
    /// when this run invokes the same regions. A caller that runs one
    /// workload again and again (the broker runs a job quantum by
    /// quantum) allocates nothing to report it. On an error `report` is
    /// left as it was.
    pub fn run_into(mut self, report: &mut AppRunReport) -> Result<(), RunError> {
        let wl = self.prepare()?;
        let mut fixed;
        let tuner = match self.tuner.take() {
            Some(tuner) => tuner,
            None => {
                let regions = wl.step.iter().map(|r| r.name.as_str());
                let machine = self.backend.machine();
                let default_cfg = OmpConfig::default_for(machine);
                let default_for = move |_: &str| default_cfg;
                let config_for = self.config_for.as_deref().unwrap_or(&default_for);
                fixed = RegionTuner::fixed(machine, regions, config_for, self.ladder);
                &mut fixed
            }
        };
        wire_tuner(self.backend, tuner, self.objective, self.resilience);
        let label = self.label.as_deref().unwrap_or(&self.strategy);
        drive(self.backend, wl, tuner, label, self.resilience, self.self_profile, report)
    }

    /// ARCS-Offline training: repeat the application until every region's
    /// exhaustive sweep has converged, then export the history file. The
    /// training executions are not measured (the paper measures only the
    /// second execution, which replays the saved optimum). Any strategy
    /// set on the builder is ignored; [`Runner::objective`] (if set)
    /// overrides the options' objective. A workload that invokes no region
    /// trains nothing and returns an empty history; one too short for its
    /// sweeps to finish in the pass budget is [`RunError::Untrained`].
    pub fn train(
        mut self,
        options: TunerOptions,
        context: &str,
    ) -> Result<History<OmpConfig>, RunError> {
        if !matches!(options.mode, TuningMode::OfflineTrain) {
            return Err(RunError::NotOfflineTrain);
        }
        let wl = self.prepare()?;
        let b = self.backend;
        let mut tuner = RegionTuner::new(options);
        wire_tuner(b, &mut tuner, self.objective, self.resilience);
        let mut report = AppRunReport::default();
        // Bound the number of training executions; each pass offers
        // `timesteps` measurements per region against a 252-point space,
        // so a handful of passes suffices unless the run is very short.
        const PASSES: usize = 64;
        for _pass in 0..PASSES {
            drive(b, wl, &mut tuner, "arcs-offline-train", self.resilience, false, &mut report)?;
            // A workload that invokes no region has nothing to train.
            if tuner.converged() || tuner.stats().regions == 0 {
                return Ok(tuner.export_history(context));
            }
        }
        Err(RunError::Untrained { passes: PASSES, searching: tuner.searching() })
    }
}

/// Point `tuner` at what the run was built with — the objective override,
/// the backend's sink (when enabled), the self-healing ladder — before its
/// first invocation. The one wiring behind [`Runner::run`] and
/// [`Runner::train`].
fn wire_tuner<B: Backend>(
    b: &B,
    tuner: &mut RegionTuner,
    objective: Option<Objective>,
    res: Option<ResilienceOptions>,
) {
    if let Some(objective) = objective {
        tuner.set_objective(objective);
    }
    if let Some(sink) = b.trace().filter(|sink| sink.enabled()) {
        tuner.set_trace(Arc::clone(sink));
    }
    if let Some(res) = res {
        tuner.set_resilience(res);
    }
}

/// The driver's fault-absorbing view of [`Backend::energy_j`]: retries
/// failed reads with linear §III-C backoff, and past the retry budget
/// either spends the error budget (answering with the last good value)
/// or surfaces [`RunError::Measure`]. One `Meter` lives per run; its
/// counters feed [`FaultRecovery`].
struct Meter {
    res: ResilienceOptions,
    /// Last successfully-read meter value — the stand-in answer for a
    /// budget-absorbed hard fault.
    last_j: f64,
    retries: u64,
    hard_faults: u64,
    budget_left: Option<u64>,
    degraded: bool,
}

impl Meter {
    fn new(res: Option<ResilienceOptions>) -> Self {
        let res = res.unwrap_or_default();
        Meter {
            res,
            last_j: 0.0,
            retries: 0,
            hard_faults: 0,
            budget_left: res.error_budget,
            degraded: false,
        }
    }

    #[inline]
    fn read<B: Backend>(&mut self, b: &mut B) -> Result<f64, RunError> {
        match b.energy_j() {
            Ok(j) => {
                self.last_j = j;
                Ok(j)
            }
            Err(e) => self.retry(b, e),
        }
    }

    /// The rest of [`Meter::read`] once its first attempt failed with `e`.
    #[cold]
    fn retry<B: Backend>(&mut self, b: &mut B, mut e: MeasureError) -> Result<f64, RunError> {
        let mut attempts: u32 = 1;
        loop {
            if attempts <= self.res.max_read_retries {
                self.retries += 1;
                // Linear backoff, charged as overhead *energy* only: the
                // driver clock does not advance, so trace timelines stay
                // comparable to clean runs.
                if self.res.retry_backoff_s > 0.0 {
                    b.charge_overhead(self.res.retry_backoff_s * attempts as f64);
                }
                match b.energy_j() {
                    Ok(j) => {
                        self.last_j = j;
                        return Ok(j);
                    }
                    Err(next) => {
                        e = next;
                        attempts += 1;
                        continue;
                    }
                }
            }
            self.hard_faults += 1;
            return match &mut self.budget_left {
                Some(0) => {
                    self.degraded = true;
                    Ok(self.last_j)
                }
                Some(n) => {
                    *n -= 1;
                    if *n == 0 {
                        self.degraded = true;
                    }
                    Ok(self.last_j)
                }
                None => Err(RunError::Measure(e)),
            };
        }
    }
}

/// What the run driver keeps per step position: the tuner slot it
/// resolved, and what its last invocation resolved when the next one may
/// repeat it.
#[derive(Clone, Copy)]
struct Position {
    slot: usize,
    replay: Option<Replay>,
}

/// A settled invocation, resolved: the tuner's decision and the cell the
/// backend priced for it.
#[derive(Clone, Copy)]
struct Replay {
    settled: Settled,
    cell: PricedCell,
}

/// What the run driver indexes per run: each step position, and each
/// slot's summary. The tuner keeps them between runs, so a tuner that
/// drives one step run after run (the broker's quanta, training passes)
/// neither resolves its positions again nor re-prices what they settled on.
#[derive(Default)]
pub(crate) struct RunTables {
    positions: Vec<Option<Position>>,
    per_region: Vec<RegionSummary>,
}

/// The run loop — the only caller of [`Backend::run_region`]. Every run
/// flavour on every backend is this choreography, and both its meter-read
/// order and its event order are contract (DESIGN.md §3.2): each
/// [`Backend::energy_j`] attempt advances an attached fault plan's read
/// ordinal, so one read more or fewer moves every later fault.
///
/// Per-region tables are indexed by the tuner's slot, not by region name:
/// each step position resolves to its slot at its first `begin`, and keeps
/// it for every later run of a step with the same region names. The
/// executor finds its own slot from the order of its calls (DESIGN.md
/// §3.2). An invocation that repeats the cell its position priced last is
/// replayed ([`Backend::replay_region`]) instead of run, with every other
/// step of the choreography unchanged. The run's report is written into
/// `report`.
fn drive<B: Backend>(
    b: &mut B,
    wl: &WorkloadDescriptor,
    tuner: &mut RegionTuner,
    strategy: &str,
    res: Option<ResilienceOptions>,
    self_profile: bool,
    report: &mut AppRunReport,
) -> Result<(), RunError> {
    let mut tables = std::mem::take(&mut tuner.run_tables);
    let RunTables { positions, per_region } = &mut tables;
    let same_step = positions.len() == wl.step.len()
        && positions
            .iter()
            .zip(&wl.step)
            .all(|(at, region)| at.as_ref().is_none_or(|at| tuner.name(at.slot) == region.name));
    if !same_step {
        positions.clear();
        positions.resize(wl.step.len(), None);
    }
    per_region.clear();
    per_region.resize_with(tuner.stats().regions as usize, Default::default);
    let mut acc = Accum::new(b, wl, strategy, tuner.objective(), self_profile, per_region);
    // A sink sees every invocation the backend runs, so a traced run
    // replays nothing.
    let replay = acc.sink.is_none();
    let mut meter = Meter::new(res);
    for _ts in 0..wl.timesteps {
        for (pos, region) in wl.step.iter().enumerate() {
            let at = positions[pos].get_or_insert_with(|| Position {
                slot: acc.track(tuner.resolve(&region.name)),
                replay: None,
            });
            let slot = at.slot;
            let replayed = at.replay.filter(|_| replay);
            let decision = match &replayed {
                Some(r) => tuner.repeat_begin(r.settled),
                None => acc.timed(Phase::Tune, || tuner.begin_at(slot)),
            };
            let cfg = decision.config;
            // The change cost fires whenever the global ICVs must move —
            // with per-region configurations that is typically on every
            // entry of every region whose config differs from its
            // predecessor's, reproducing the paper's per-invocation
            // overhead on the tiny LULESH regions (§III-C).
            let change_s = if decision.changed { b.machine().config_change_s } else { 0.0 };
            // Selective tuning detaches the region from measurement as
            // well ("avoid overheads on the smaller regions").
            let instr_s = if decision.tuned { b.machine().instrumentation_s } else { 0.0 };
            let overhead_s = change_s + instr_s;
            if decision.changed {
                if let Some(sink) = &acc.sink {
                    sink.record(
                        Some(acc.time_s),
                        TraceEvent::ConfigSwitch {
                            region: region.name.clone(),
                            threads: cfg.omp.threads,
                            schedule: cfg.omp.schedule.to_string(),
                        },
                    );
                }
            }
            // Overhead energy is differenced off the same package meter as
            // region energy, so the two charge streams telescope to the
            // run total on every backend.
            let overhead_j = if overhead_s > 0.0 {
                acc.timed(Phase::Overhead, || -> Result<f64, RunError> {
                    let e0 = meter.read(b)?;
                    b.charge_overhead(overhead_s);
                    Ok(meter.read(b)? - e0)
                })?
            } else {
                0.0
            };
            if let Some(sink) = &acc.sink {
                if overhead_s > 0.0 {
                    sink.record(
                        Some(acc.time_s),
                        TraceEvent::OverheadCharged {
                            region: region.name.clone(),
                            config_change_s: change_s,
                            instrumentation_s: instr_s,
                            energy_j: overhead_j,
                        },
                    );
                }
                sink.record(
                    Some(acc.time_s + overhead_s),
                    TraceEvent::RegionBegin {
                        region: region.name.clone(),
                        threads: cfg.omp.threads,
                        schedule: cfg.omp.schedule.to_string(),
                        chunk_policy: cfg.omp.schedule.kind.name().to_string(),
                    },
                );
            }
            let e_pre = acc.timed(Phase::Meter, || meter.read(b))?;
            let run = match &replayed {
                Some(r) if b.replay_region(region, cfg, &r.cell) => {
                    RegionRun { time_s: r.cell.time_s, features: r.cell.features }
                }
                _ => {
                    let run = acc.timed(Phase::Measure, || b.run_region(region, cfg));
                    if replay {
                        at.replay = tuner
                            .settled(slot)
                            .and_then(|settled| b.priced().map(|cell| Replay { settled, cell }));
                    }
                    run
                }
            };
            let e_post = acc.timed(Phase::Meter, || meter.read(b))?;
            let meas = Measurement {
                time_s: run.time_s,
                energy_j: e_post - e_pre,
                features: run.features,
            };
            // The tuner optimises what the instrumentation saw — the noisy
            // APEX timer and the differenced package meter — scored by its
            // objective. Its search events precede the region's end.
            match replayed {
                Some(_) => tuner.repeat_end(slot, meas.time_s),
                None => acc.timed(Phase::Tune, || tuner.end_at(slot, meas.time_s, meas.energy_j)),
            }
            let energy_total_j = acc.timed(Phase::Meter, || meter.read(b))?;
            acc.region(slot, &region.name, cfg, &meas, change_s, instr_s, energy_total_j);
            // A settled region is off the ladder.
            if replayed.is_none() {
                tuner.observe_at(slot, &meas.features, acc.time_s);
            }
            // Error budget exhausted: freeze every region to its best-known
            // configuration and ride the run out (final rung of the
            // degradation ladder — the run completes `Degraded` rather
            // than erroring).
            if meter.degraded && !tuner.degraded() {
                tuner.freeze_all();
            }
        }
    }
    acc.finish(b, tuner, &mut meter, report)?;
    tuner.run_tables = tables;
    Ok(())
}

/// Which driver phase a wall-clock span belongs to.
#[derive(Clone, Copy)]
enum Phase {
    /// Choosing the configuration: the tuner's `begin` decisions and
    /// `end_measured` scoring; on fixed runs the pinned lookup.
    Tune,
    /// The backend's region execution ([`Backend::run_region`]).
    Measure,
    /// §III-C overhead charging ([`Backend::charge_overhead`]).
    Overhead,
    /// Package-meter reads, including retry backoff.
    Meter,
}

/// Wall-clock totals of the driver's own phases for one run. Present only
/// when the run self-profiles into an enabled sink — the plain path never
/// calls [`Instant::now`].
#[derive(Default)]
struct Spans {
    tune_s: f64,
    measure_s: f64,
    overhead_s: f64,
    meter_s: f64,
}

impl Spans {
    fn add(&mut self, phase: Phase, dt_s: f64) {
        match phase {
            Phase::Tune => self.tune_s += dt_s,
            Phase::Measure => self.measure_s += dt_s,
            Phase::Overhead => self.overhead_s += dt_s,
            Phase::Meter => self.meter_s += dt_s,
        }
    }
}

/// Shared accumulation for all run flavours: the ONE place overheads,
/// per-region aggregates, trace emission and report assembly live.
struct Accum<'w> {
    app: &'w str,
    strategy: &'w str,
    objective: Objective,
    time_s: f64,
    config_overhead_s: f64,
    instr_overhead_s: f64,
    /// One summary per tuner slot, named and sorted into the report's
    /// `BTreeMap` once, at `finish`.
    per_region: &'w mut Vec<RegionSummary>,
    /// Present only when the backend carries an *enabled* sink, so the
    /// untraced and `NullSink` paths skip all event construction.
    sink: Option<Arc<dyn TraceSink>>,
    /// Emitted as [`TraceEvent::DriverPhases`] at `finish` (explicit
    /// opt-in: wall-clock spans would break byte-compared traces).
    spans: Option<Spans>,
}

impl<'w> Accum<'w> {
    fn new<B: Backend>(
        b: &mut B,
        wl: &'w WorkloadDescriptor,
        strategy: &'w str,
        objective: Objective,
        self_profile: bool,
        per_region: &'w mut Vec<RegionSummary>,
    ) -> Self {
        b.begin_run();
        let sink = b.trace().filter(|s| s.enabled()).map(Arc::clone);
        let spans = (self_profile && sink.is_some()).then(Spans::default);
        if let Some(s) = &sink {
            s.record(
                Some(0.0),
                TraceEvent::CapChange {
                    requested_w: b.requested_power_cap_w(),
                    effective_w: b.power_cap_w(),
                },
            );
        }
        Accum {
            app: &wl.name,
            strategy,
            objective,
            time_s: 0.0,
            config_overhead_s: 0.0,
            instr_overhead_s: 0.0,
            per_region,
            sink,
            spans,
        }
    }

    /// Run `f` as a wall-clock span of `phase`. The clock is read only
    /// when phase accounting is on: the plain path pays one branch.
    fn timed<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let Some(spans) = &mut self.spans else {
            return f();
        };
        let t0 = Instant::now();
        let out = f();
        spans.add(phase, t0.elapsed().as_secs_f64());
        out
    }

    /// Give the region at tuner slot `slot` a summary; returns `slot`.
    fn track(&mut self, slot: usize) -> usize {
        self.per_region.resize_with(self.per_region.len().max(slot + 1), Default::default);
        slot
    }

    /// Account one invocation of region `name`, at tuner slot `slot`.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn region(
        &mut self,
        slot: usize,
        name: &str,
        cfg: TunedConfig,
        meas: &Measurement,
        change_s: f64,
        instr_s: f64,
        energy_total_j: f64,
    ) {
        let overhead_s = change_s + instr_s;
        self.time_s += meas.time_s + overhead_s;
        self.config_overhead_s += change_s;
        self.instr_overhead_s += instr_s;

        let entry = &mut self.per_region[slot];
        entry.invocations += 1;
        entry.total_time_s += meas.time_s;
        entry.busy_s += meas.features.busy_s;
        entry.barrier_s += meas.features.barrier_s;
        let k = entry.invocations as f64;
        entry.l1_miss_rate += (meas.features.l1_miss_rate - entry.l1_miss_rate) / k;
        entry.l2_miss_rate += (meas.features.l2_miss_rate - entry.l2_miss_rate) / k;
        entry.l3_miss_rate += (meas.features.l3_miss_rate - entry.l3_miss_rate) / k;
        entry.final_config = Some(cfg.omp);

        if let Some(sink) = &self.sink {
            sink.record(
                Some(self.time_s),
                TraceEvent::RegionEnd {
                    region: name.to_string(),
                    time_s: meas.time_s,
                    energy_j: meas.energy_j,
                    busy_s: meas.features.busy_s,
                    barrier_s: meas.features.barrier_s,
                    objective_value: Some(self.objective.score(meas.time_s, meas.energy_j)),
                },
            );
            if meas.time_s > 0.0 {
                sink.record(
                    Some(self.time_s),
                    TraceEvent::PowerSample {
                        power_w: meas.energy_j / meas.time_s,
                        energy_total_j,
                    },
                );
            }
        }
    }

    fn finish<B: Backend>(
        self,
        b: &mut B,
        tuner: &RegionTuner,
        meter: &mut Meter,
        report: &mut AppRunReport,
    ) -> Result<(), RunError> {
        let energy_j = meter.read(b)?;
        if let (Some(spans), Some(sink)) = (&self.spans, &self.sink) {
            let invocations = self.per_region.iter().map(|r| r.invocations).sum();
            sink.record(
                None,
                TraceEvent::DriverPhases {
                    workload: self.app.to_string(),
                    invocations,
                    tune_s: spans.tune_s,
                    measure_s: spans.measure_s,
                    overhead_s: spans.overhead_s,
                    meter_s: spans.meter_s,
                },
            );
        }
        let tuner_stats = tuner.run_stats();
        let degraded = meter.degraded || tuner.degraded();
        let faults = FaultRecovery {
            meter_retries: meter.retries,
            hard_faults: meter.hard_faults,
            rejected: tuner_stats.map_or(0, |s| s.rejected),
            restarts: tuner_stats.map_or(0, |s| s.restarts),
            frozen_regions: tuner_stats.map_or(0, |s| s.frozen_regions),
        };
        let overwrite = |field: &mut String, value: &str| {
            field.clear();
            field.push_str(value);
        };
        overwrite(&mut report.app, self.app);
        overwrite(&mut report.machine, &b.machine().name);
        report.power_cap_w = b.power_cap_w();
        overwrite(&mut report.strategy, self.strategy);
        report.objective = self.objective;
        report.time_s = self.time_s;
        report.energy_j = energy_j;
        report.config_change_overhead_s = self.config_overhead_s;
        report.instrumentation_overhead_s = self.instr_overhead_s;
        // Regions never invoked (a zero-timestep run) stay out. A report
        // that holds exactly this run's regions keeps its entries and
        // their names; any other starts over.
        let invoked = || self.per_region.iter().enumerate().filter(|(_, r)| r.invocations > 0);
        let per_region = &mut report.per_region;
        if per_region.len() != invoked().count()
            || invoked().any(|(slot, _)| !per_region.contains_key(tuner.name(slot)))
        {
            per_region.clear();
        }
        for (slot, r) in invoked() {
            match per_region.get_mut(tuner.name(slot)) {
                Some(entry) => *entry = r.clone(),
                None => {
                    per_region.insert(tuner.name(slot).to_owned(), r.clone());
                }
            }
        }
        report.tuner = tuner_stats;
        report.status = if degraded { RunStatus::Degraded } else { RunStatus::Ok };
        report.faults = faults;
        Ok(())
    }
}

#[cfg(test)]
mod meter_tests {
    //! Edge cases of the [`Meter`] retry/backoff/error-budget contract
    //! the broker leans on: a read that only succeeds on the *final*
    //! allowed retry, a budget that runs out exactly when the last hard
    //! fault is absorbed, and a cap reallocation arriving while the
    //! driver is inside a retry window.

    use super::*;
    use crate::cap::{CapHandle, CapWatch};
    use arcs_powersim::Machine;

    /// Scripted backend: the meter fails for the next `fail_streak`
    /// reads, overhead charges are logged, and an externally-owned cap is
    /// polled at region boundaries — the same contract the real
    /// executors implement.
    struct FlakyBackend {
        machine: Machine,
        cap_w: f64,
        cap_watch: Option<CapWatch>,
        energy_j: f64,
        fail_streak: u32,
        reads_attempted: u32,
        backoff_charges: Vec<f64>,
        /// Set the watched handle to this value on the first backoff
        /// charge — a broker reallocating mid-retry-window.
        set_cap_on_backoff: Option<f64>,
    }

    impl FlakyBackend {
        fn new() -> Self {
            FlakyBackend {
                machine: Machine::crill(),
                cap_w: 80.0,
                cap_watch: None,
                energy_j: 10.0,
                fail_streak: 0,
                reads_attempted: 0,
                backoff_charges: Vec::new(),
                set_cap_on_backoff: None,
            }
        }
    }

    impl Backend for FlakyBackend {
        fn machine(&self) -> &Machine {
            &self.machine
        }

        fn power_cap_w(&self) -> f64 {
            self.cap_w
        }

        fn begin_run(&mut self) {}

        fn charge_overhead(&mut self, dt_s: f64) {
            self.backoff_charges.push(dt_s);
            if let Some(w) = self.set_cap_on_backoff.take() {
                if let Some(watch) = &self.cap_watch {
                    watch.handle().set(w);
                }
            }
        }

        fn run_region(&mut self, _region: &RegionModel, _cfg: TunedConfig) -> RegionRun {
            if let Some(cap) = self.cap_watch.as_mut().and_then(CapWatch::poll) {
                self.cap_w = cap.clamp(self.machine.power.tdp_w * 0.25, self.machine.power.tdp_w);
            }
            RegionRun { time_s: 0.1, features: RegionFeatures::default() }
        }

        fn energy_j(&mut self) -> Result<f64, MeasureError> {
            self.reads_attempted += 1;
            if self.fail_streak > 0 {
                self.fail_streak -= 1;
                return Err(MeasureError::RaplRead { attempts: 1 });
            }
            self.energy_j += 1.0;
            Ok(self.energy_j)
        }

        fn attach_cap_handle(&mut self, handle: CapHandle) {
            self.cap_w = handle.get();
            self.cap_watch = Some(CapWatch::new(handle));
        }
    }

    fn retrying(budget: Option<u64>) -> ResilienceOptions {
        ResilienceOptions {
            max_read_retries: 3,
            retry_backoff_s: 1e-4,
            error_budget: budget,
            ..ResilienceOptions::default()
        }
    }

    #[test]
    fn success_on_the_final_retry_spends_no_error_budget() {
        let mut b = FlakyBackend::new();
        b.fail_streak = 3; // attempts 1–3 fail; the 3rd retry succeeds
        let mut meter = Meter::new(Some(retrying(Some(1))));
        let j = meter.read(&mut b).expect("final retry succeeds");
        assert_eq!(j, 11.0);
        assert_eq!(meter.retries, 3);
        assert_eq!(meter.hard_faults, 0, "a recovered burst is not a hard fault");
        assert_eq!(meter.budget_left, Some(1), "the budget is untouched");
        assert!(!meter.degraded);
        // Linear backoff: the n-th retry charges n × retry_backoff_s.
        assert_eq!(b.backoff_charges, vec![1e-4, 2.0 * 1e-4, 3.0 * 1e-4]);
    }

    #[test]
    fn budget_exactly_exhausted_on_the_final_absorbed_fault_degrades() {
        let mut b = FlakyBackend::new();
        let mut meter = Meter::new(Some(retrying(Some(1))));
        let before = meter.read(&mut b).expect("clean read seeds last_j");

        // One burst longer than the retry allowance: a hard fault that
        // consumes the last budget unit. The run degrades but answers
        // with the stand-in value instead of erroring.
        b.fail_streak = 4; // 1 initial + 3 retries, all failing
        let j = meter.read(&mut b).expect("budget absorbs the hard fault");
        assert_eq!(j, before, "the stand-in answer is the last good value");
        assert_eq!(meter.hard_faults, 1);
        assert_eq!(meter.budget_left, Some(0));
        assert!(meter.degraded, "hitting zero degrades immediately, not one fault later");

        // Past exhaustion the meter keeps absorbing (the run completes
        // Degraded; it does not start erroring mid-flight).
        b.fail_streak = 4;
        let j2 = meter.read(&mut b).expect("exhausted budget still absorbs");
        assert_eq!(j2, before);
        assert_eq!(meter.hard_faults, 2);
    }

    #[test]
    fn exhausted_burst_without_budget_is_a_run_error() {
        let mut b = FlakyBackend::new();
        b.fail_streak = 4;
        let mut meter = Meter::new(Some(retrying(None)));
        let err = meter.read(&mut b).map(|_| ()).unwrap_err();
        assert!(matches!(err, RunError::Measure(_)), "got {err:?}");
        assert_eq!(meter.hard_faults, 1);
    }

    #[test]
    fn cap_change_during_a_retry_window_applies_at_the_next_boundary() {
        let mut b = FlakyBackend::new();
        let handle = CapHandle::new(80.0);
        b.attach_cap_handle(handle.clone());
        assert_eq!(b.power_cap_w(), 80.0);

        // The broker reallocates while the driver is inside the retry
        // loop: the first backoff charge sets the handle to 60 W.
        b.fail_streak = 2;
        b.set_cap_on_backoff = Some(60.0);
        let mut meter = Meter::new(Some(retrying(Some(4))));
        let j = meter.read(&mut b).expect("second retry succeeds");
        assert_eq!(j, 11.0);
        assert_eq!(meter.retries, 2);

        // The retry window neither applied the cap early nor lost it:
        // it lands exactly at the next region boundary.
        assert_eq!(b.power_cap_w(), 80.0, "no mid-read application");
        let region = RegionModel {
            name: "meter/kernel".into(),
            iterations: 8,
            cycles_per_iter: 1000.0,
            imbalance: arcs_powersim::ImbalanceProfile::Uniform,
            memory: arcs_powersim::MemoryProfile {
                footprint_bytes: 1e4,
                accesses_per_iter: 1.0,
                stride: arcs_powersim::StrideClass::Unit,
                temporal_reuse: 0.5,
                hot_bytes_per_thread: 1024.0,
            },
            serial_s: 0.0,
            critical_s: 0.0,
        };
        let _ = b.run_region(&region, TunedConfig::from(OmpConfig::default_for(&b.machine)));
        assert_eq!(b.power_cap_w(), 60.0, "applied at the region boundary");

        // And the meter's accounting was untouched by the cap move.
        assert_eq!(meter.hard_faults, 0);
        assert!(!meter.degraded);
    }
}
