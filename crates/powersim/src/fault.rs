//! Deterministic fault injection for the measurement stack.
//!
//! A [`FaultPlan`] is a *seeded, stateless* description of every
//! perturbation a run will experience: transient RAPL read failures,
//! dropped energy samples, region-timer spikes, per-thread straggler
//! slowdowns and scheduled mid-run cap changes. Every decision is a pure
//! function of `(seed, fault class, key, ordinal)` using the same
//! FNV-mix + splitmix64 construction as the executor's noise model, so
//!
//! * the same seed produces a bit-identical fault schedule regardless of
//!   wall-clock time, thread interleaving or host;
//! * the simulator and the live backend can be perturbed *identically* by
//!   attaching the same plan to both;
//! * replaying a run replays its faults.
//!
//! The plan only *decides*; injection happens in the executors (which own
//! the clocks and meters) and recovery happens in the run driver and
//! tuner. [`MeasureError`] is the typed failure the measurement stack
//! returns instead of panicking; see `arcs-core`'s resilience layer for
//! the retry/budget policy on top.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A typed measurement failure (the thing that used to be a panic or an
/// impossible case in the meter path).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MeasureError {
    /// The RAPL package-energy read failed. `attempts` is how many
    /// consecutive reads were tried before giving up (1 for a raw,
    /// unretried failure).
    RaplRead { attempts: u32 },
}

impl fmt::Display for MeasureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MeasureError::RaplRead { attempts } => {
                write!(f, "RAPL energy read failed after {attempts} attempt(s)")
            }
        }
    }
}

impl std::error::Error for MeasureError {}

/// A scheduled mid-run power-cap change, keyed on the global region
/// invocation ordinal (the run driver's monotonic region counter).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapFault {
    /// Fires just before the `at_invocation`-th region invocation
    /// (0-based, counted across all regions).
    pub at_invocation: u64,
    /// Requested new package cap, watts (clamped by RAPL as usual).
    pub cap_w: f64,
}

/// Per-invocation fault decision for one region invocation, as computed
/// by [`FaultPlan::invocation_faults`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InvocationFaults {
    /// Real slowdown multiplier (≥ 1): one straggling thread stretches
    /// the region, so simulated time *and* energy grow, with the extra
    /// time showing up as barrier wait for the rest of the team.
    pub straggler_factor: f64,
    /// Measurement-only multiplier (≥ 1) on the reported region time: a
    /// timer spike inflates the observation but not the machine state.
    pub spike_factor: f64,
    /// The energy sample bracketing this invocation is dropped: the
    /// meter returns a stale value, so the invocation appears to cost
    /// ~zero energy.
    pub drop_sample: bool,
    /// A scheduled cap change fires before this invocation.
    pub cap_change_w: Option<f64>,
}

/// Seeded, fully deterministic fault schedule. All rates are per-event
/// probabilities in `[0, 1)`; a default plan injects nothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master seed; two plans with equal fields produce identical
    /// schedules.
    pub seed: u64,
    /// Probability that a given meter read *starts* a failure burst.
    pub rapl_fault_rate: f64,
    /// Consecutive reads that fail once a burst starts (bursts longer
    /// than the retry budget become hard faults).
    pub rapl_burst_len: u32,
    /// Probability an invocation's energy sample is dropped (stale
    /// counter read).
    pub sample_drop_rate: f64,
    /// Probability of a measurement-only region-timer spike.
    pub spike_rate: f64,
    /// Timer-spike multiplier on the reported time (> 1).
    pub spike_factor: f64,
    /// Probability one thread of an invocation straggles.
    pub straggler_rate: f64,
    /// Straggler wall-time multiplier (> 1).
    pub straggler_factor: f64,
    /// Scheduled mid-run cap changes, keyed on the global invocation
    /// ordinal.
    pub cap_schedule: Vec<CapFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            rapl_fault_rate: 0.0,
            rapl_burst_len: 0,
            sample_drop_rate: 0.0,
            spike_rate: 0.0,
            spike_factor: 1.0,
            straggler_rate: 0.0,
            straggler_factor: 1.0,
            cap_schedule: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// The reference chaos plan: recoverable RAPL read bursts (shorter
    /// than the standard retry budget), dropped samples, timer spikes
    /// and occasional stragglers. A self-healing run should complete
    /// `Ok` or `Degraded` under it, never panic.
    pub fn flaky_rapl(seed: u64) -> Self {
        FaultPlan {
            seed,
            rapl_fault_rate: 0.04,
            rapl_burst_len: 2,
            sample_drop_rate: 0.05,
            spike_rate: 0.10,
            spike_factor: 8.0,
            straggler_rate: 0.06,
            straggler_factor: 1.8,
            ..FaultPlan::default()
        }
    }

    /// A hard-outage plan: read bursts far longer than any reasonable
    /// retry budget, so every burst is a hard fault. Without an error
    /// budget this plan must surface as a run error; with one it drives
    /// the run to `Degraded`.
    pub fn rapl_outage(seed: u64) -> Self {
        FaultPlan { seed, rapl_fault_rate: 0.05, rapl_burst_len: 1024, ..FaultPlan::default() }
    }

    /// Mid-run cap swings on top of light measurement noise — exercises
    /// the tuner's reaction to a moving power envelope.
    pub fn cap_storm(seed: u64) -> Self {
        FaultPlan {
            seed,
            spike_rate: 0.05,
            spike_factor: 5.0,
            cap_schedule: vec![
                CapFault { at_invocation: 8, cap_w: 45.0 },
                CapFault { at_invocation: 24, cap_w: 90.0 },
            ],
            ..FaultPlan::default()
        }
    }

    /// Look up a named plan (`flaky-rapl`, `rapl-outage`, `cap-storm`).
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            "flaky-rapl" => Some(Self::flaky_rapl(seed)),
            "rapl-outage" => Some(Self::rapl_outage(seed)),
            "cap-storm" => Some(Self::cap_storm(seed)),
            _ => None,
        }
    }

    /// The plan names [`FaultPlan::by_name`] accepts.
    pub fn names() -> &'static [&'static str] {
        &["flaky-rapl", "rapl-outage", "cap-storm"]
    }

    /// Does the meter read with this ordinal fail? A read fails when any
    /// of the previous `rapl_burst_len - 1` ordinals (or itself) started
    /// a burst, so failures arrive in deterministic consecutive runs.
    pub fn rapl_read_fails(&self, read_ordinal: u64) -> bool {
        if self.rapl_fault_rate <= 0.0 || self.rapl_burst_len == 0 {
            return false;
        }
        let lo = read_ordinal.saturating_sub(u64::from(self.rapl_burst_len) - 1);
        (lo..=read_ordinal).any(|s| unit(mix(self.seed, b'r', "", s)) < self.rapl_fault_rate)
    }

    /// Fault decision for the `invocation`-th call of `region`
    /// (0-based), with `global_ordinal` the run-wide invocation counter
    /// (used only for the cap schedule). Pure: independent of call
    /// order and of which other regions ran in between.
    pub fn invocation_faults(
        &self,
        region: &str,
        invocation: u64,
        global_ordinal: u64,
    ) -> InvocationFaults {
        let straggles = self.straggler_rate > 0.0
            && unit(mix(self.seed, b's', region, invocation)) < self.straggler_rate;
        let spikes = self.spike_rate > 0.0
            && unit(mix(self.seed, b't', region, invocation)) < self.spike_rate;
        let drops = self.sample_drop_rate > 0.0
            && unit(mix(self.seed, b'd', region, invocation)) < self.sample_drop_rate;
        InvocationFaults {
            straggler_factor: if straggles { self.straggler_factor.max(1.0) } else { 1.0 },
            spike_factor: if spikes { self.spike_factor.max(1.0) } else { 1.0 },
            drop_sample: drops,
            cap_change_w: self
                .cap_schedule
                .iter()
                .find(|c| c.at_invocation == global_ordinal)
                .map(|c| c.cap_w),
        }
    }
}

/// How a node leaves service, as decided by a [`NodeFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeFaultClass {
    /// Immediate loss: whatever quantum was in flight on the node is
    /// discarded and its job pays a retry.
    Crash,
    /// Graceful exit: the in-flight quantum finishes, the job requeues
    /// for free, then the node goes down.
    Drain,
}

impl NodeFaultClass {
    /// Short lowercase label, as carried by `NodeFailed` trace events.
    pub fn label(&self) -> &'static str {
        match self {
            NodeFaultClass::Crash => "crash",
            NodeFaultClass::Drain => "drain",
        }
    }
}

/// One scheduled outage of one fleet node, in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFault {
    /// Nominal failure instant, virtual seconds from broker start.
    pub at_s: f64,
    pub class: NodeFaultClass,
    /// Outage duration; `None` means the node never comes back.
    pub down_s: Option<f64>,
}

/// Seeded, stateless outage schedule for a whole fleet — the
/// [`FaultPlan`] idea lifted one layer up, from meter reads to nodes.
/// Every decision is a pure hash of `(seed, class, node, ordinal)`
/// through the same FNV-mix + splitmix64 construction, so the same seed
/// produces a bit-identical fault schedule (and therefore bit-identical
/// broker traces) on any host. A default plan fails nothing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NodeFaultPlan {
    /// Master seed; equal plans produce identical schedules.
    pub seed: u64,
    /// Warmup before the first outage can fire, virtual seconds.
    pub start_s: f64,
    /// Mean virtual seconds between a node's outages (uniform in
    /// `[0.5, 1.5) ×` this). `0` disables the plan.
    pub mtbf_s: f64,
    /// Mean outage duration (uniform in `[0.5, 1.5) ×` this).
    pub mttr_s: f64,
    /// Probability an outage is a graceful drain rather than a crash.
    pub drain_rate: f64,
    /// Probability an outage is permanent — the node never recovers and
    /// schedules no further faults.
    pub permanent_rate: f64,
    /// Hard bound on outages per node, so every schedule is finite.
    pub max_faults_per_node: u32,
}

// Hand-written so sparse inline specs (the `--node-faults` JSON form)
// fill every unnamed field from `NodeFaultPlan::default()` — the derive's
// per-field `#[serde(default)]` would zero them instead, which disables
// recovery (`mttr_s: 0`) and outage bounds (`max_faults_per_node: 0`).
impl Deserialize for NodeFaultPlan {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if !matches!(v, serde::Value::Map(_)) {
            return Err(serde::Error::custom(format!(
                "expected map for NodeFaultPlan, found {v:?}"
            )));
        }
        fn field<T: Deserialize>(
            v: &serde::Value,
            name: &str,
            fallback: T,
        ) -> Result<T, serde::Error> {
            match v.get(name) {
                Some(f) => T::from_value(f)
                    .map_err(|e| serde::Error::custom(format!("NodeFaultPlan.{name}: {e}"))),
                None => Ok(fallback),
            }
        }
        let d = NodeFaultPlan::default();
        Ok(NodeFaultPlan {
            seed: field(v, "seed", d.seed)?,
            start_s: field(v, "start_s", d.start_s)?,
            mtbf_s: field(v, "mtbf_s", d.mtbf_s)?,
            mttr_s: field(v, "mttr_s", d.mttr_s)?,
            drain_rate: field(v, "drain_rate", d.drain_rate)?,
            permanent_rate: field(v, "permanent_rate", d.permanent_rate)?,
            max_faults_per_node: field(v, "max_faults_per_node", d.max_faults_per_node)?,
        })
    }
}

impl Default for NodeFaultPlan {
    fn default() -> Self {
        NodeFaultPlan {
            seed: 0,
            start_s: 0.5,
            mtbf_s: 0.0,
            mttr_s: 2.0,
            drain_rate: 0.0,
            permanent_rate: 0.0,
            max_faults_per_node: 8,
        }
    }
}

impl NodeFaultPlan {
    /// An empty plan (no outages) with the given seed.
    pub fn new(seed: u64) -> Self {
        NodeFaultPlan { seed, ..NodeFaultPlan::default() }
    }

    /// Occasional crashes with outages long enough to force requeues,
    /// and a small chance a node is lost for good.
    pub fn node_crash(seed: u64) -> Self {
        NodeFaultPlan {
            seed,
            mtbf_s: 6.0,
            mttr_s: 2.0,
            permanent_rate: 0.15,
            max_faults_per_node: 8,
            ..NodeFaultPlan::default()
        }
    }

    /// Rapid up/down cycling: short mean time between crashes, short
    /// outages, many cycles — the reference chaos preset for broker
    /// runs (retries and backoff get exercised hard, nothing may be
    /// lost).
    pub fn node_flap(seed: u64) -> Self {
        NodeFaultPlan {
            seed,
            mtbf_s: 2.0,
            mttr_s: 0.6,
            max_faults_per_node: 64,
            ..NodeFaultPlan::default()
        }
    }

    /// Graceful drains only: in-flight quanta finish, jobs requeue for
    /// free, nodes come back after maintenance-sized outages.
    pub fn node_drain(seed: u64) -> Self {
        NodeFaultPlan {
            seed,
            mtbf_s: 5.0,
            mttr_s: 2.5,
            drain_rate: 1.0,
            max_faults_per_node: 8,
            ..NodeFaultPlan::default()
        }
    }

    /// Look up a named plan (`node-crash`, `node-flap`, `node-drain`).
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            "node-crash" => Some(Self::node_crash(seed)),
            "node-flap" => Some(Self::node_flap(seed)),
            "node-drain" => Some(Self::node_drain(seed)),
            _ => None,
        }
    }

    /// The plan names [`NodeFaultPlan::by_name`] accepts.
    pub fn names() -> &'static [&'static str] {
        &["node-crash", "node-flap", "node-drain"]
    }

    /// Parse a command-line plan: a JSON `NodeFaultPlan` if `spec` starts
    /// with `{` (absent fields take their defaults), otherwise a preset
    /// name with an optional `:SEED` suffix (seed 0 without one). The
    /// error is the message to show the user.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        if spec.trim_start().starts_with('{') {
            return serde_json::from_str(spec).map_err(|err| format!("bad node-fault JSON: {err}"));
        }
        let (name, seed) = match spec.split_once(':') {
            Some((name, seed)) => {
                (name, seed.parse().map_err(|_| format!("bad node-fault seed {seed:?}"))?)
            }
            None => (spec, 0),
        };
        Self::by_name(name, seed).ok_or_else(|| {
            format!("unknown node-fault preset {name:?} ({})", Self::names().join(", "))
        })
    }

    /// True when this plan can ever take a node down.
    pub fn is_active(&self) -> bool {
        self.mtbf_s > 0.0 && self.max_faults_per_node > 0
    }

    /// The node's complete outage schedule, generated eagerly — pure in
    /// `(plan, node)`, independent of call order and of every other
    /// node. Nominal failure instants advance past each outage, so a
    /// node's scheduled outages never overlap; a permanent outage ends
    /// the schedule.
    pub fn schedule_for(&self, node: u64) -> Vec<NodeFault> {
        if !self.is_active() {
            return Vec::new();
        }
        let key = format!("node{node}");
        let mut out = Vec::new();
        let mut t = self.start_s.max(0.0);
        for k in 0..u64::from(self.max_faults_per_node) {
            t += self.mtbf_s * (0.5 + unit(mix(self.seed, b'G', &key, k)));
            let class = if unit(mix(self.seed, b'C', &key, k)) < self.drain_rate {
                NodeFaultClass::Drain
            } else {
                NodeFaultClass::Crash
            };
            let permanent = unit(mix(self.seed, b'P', &key, k)) < self.permanent_rate;
            let down_s = self.mttr_s.max(0.0) * (0.5 + unit(mix(self.seed, b'M', &key, k)));
            out.push(NodeFault {
                at_s: t,
                class,
                down_s: if permanent { None } else { Some(down_s) },
            });
            if permanent {
                break;
            }
            t += down_s;
        }
        out
    }
}

/// FNV-style byte mix over `(tag, key)` xor-folded with the ordinal,
/// finished with splitmix64 — the same construction as the executor's
/// noise model, so fault decisions share its independence properties.
fn mix(seed: u64, tag: u8, key: &str, ordinal: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    h = (h ^ u64::from(tag)).wrapping_mul(0x100_0000_01B3);
    for b in key.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    h ^= ordinal.wrapping_mul(0xA24B_AED4_963E_E407);
    crate::splitmix64(h.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Map a hash to `[0, 1)` with 53 bits of precision.
fn unit(z: u64) -> f64 {
    (z >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_clean() {
        let p = FaultPlan::new(7);
        for read in 0..10_000 {
            assert!(!p.rapl_read_fails(read));
        }
        let clean = InvocationFaults {
            straggler_factor: 1.0,
            spike_factor: 1.0,
            drop_sample: false,
            cap_change_w: None,
        };
        for inv in 0..1000 {
            assert_eq!(p.invocation_faults("sp/x_solve", inv, inv), clean);
        }
    }

    #[test]
    fn schedule_is_deterministic_across_clones() {
        let a = FaultPlan::flaky_rapl(42);
        let b = FaultPlan::flaky_rapl(42);
        for read in 0..5000 {
            assert_eq!(a.rapl_read_fails(read), b.rapl_read_fails(read));
        }
        for inv in 0..500 {
            assert_eq!(
                a.invocation_faults("lulesh/calc_fb_hourglass", inv, inv),
                b.invocation_faults("lulesh/calc_fb_hourglass", inv, inv)
            );
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::flaky_rapl(1);
        let b = FaultPlan::flaky_rapl(2);
        let differs = (0..2000).any(|r| a.rapl_read_fails(r) != b.rapl_read_fails(r));
        assert!(differs, "seeds 1 and 2 produced identical read schedules");
    }

    #[test]
    fn read_failures_come_in_bursts() {
        let p = FaultPlan::flaky_rapl(9);
        // Every burst start implies `rapl_burst_len` consecutive failures.
        for s in 0..5000u64 {
            if unit(mix(p.seed, b'r', "", s)) < p.rapl_fault_rate {
                for k in 0..u64::from(p.rapl_burst_len) {
                    assert!(p.rapl_read_fails(s + k), "read {} should fail", s + k);
                }
            }
        }
    }

    #[test]
    fn fault_rates_are_roughly_honoured() {
        let p = FaultPlan::flaky_rapl(3);
        let n = 20_000u64;
        let spikes =
            (0..n).filter(|&i| p.invocation_faults("r", i, i).spike_factor > 1.0).count() as f64;
        let observed = spikes / n as f64;
        assert!(
            (observed - p.spike_rate).abs() < 0.01,
            "spike rate {observed} vs configured {}",
            p.spike_rate
        );
    }

    #[test]
    fn decisions_do_not_depend_on_interleaving() {
        let p = FaultPlan::flaky_rapl(5);
        let fwd: Vec<_> = (0..100).map(|i| p.invocation_faults("a/b", i, i)).collect();
        let rev: Vec<_> = (0..100).rev().map(|i| p.invocation_faults("a/b", i, i)).collect();
        for (i, f) in fwd.iter().enumerate() {
            assert_eq!(*f, rev[99 - i]);
        }
    }

    #[test]
    fn cap_schedule_fires_on_global_ordinal_only() {
        let p = FaultPlan::cap_storm(0);
        assert_eq!(p.invocation_faults("r", 0, 8).cap_change_w, Some(45.0));
        assert_eq!(p.invocation_faults("r", 8, 9).cap_change_w, None);
        assert_eq!(p.invocation_faults("q", 3, 24).cap_change_w, Some(90.0));
    }

    #[test]
    fn named_plans_resolve() {
        for name in FaultPlan::names() {
            assert!(FaultPlan::by_name(name, 1).is_some(), "{name} missing");
        }
        assert!(FaultPlan::by_name("no-such-plan", 1).is_none());
    }

    #[test]
    fn outage_plan_exceeds_any_retry_budget() {
        let p = FaultPlan::rapl_outage(11);
        // Find a burst start, then confirm a long consecutive failure run.
        let start = (0..10_000).find(|&r| p.rapl_read_fails(r)).expect("no burst");
        for k in 0..64 {
            assert!(p.rapl_read_fails(start + k));
        }
    }

    #[test]
    fn measure_error_displays_attempts() {
        let e = MeasureError::RaplRead { attempts: 4 };
        assert!(e.to_string().contains("4 attempt(s)"));
    }

    #[test]
    fn plan_round_trips_through_json() {
        let p = FaultPlan::cap_storm(77);
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn default_node_plan_fails_nothing() {
        let p = NodeFaultPlan::new(4);
        assert!(!p.is_active());
        for node in 0..64 {
            assert!(p.schedule_for(node).is_empty());
        }
    }

    #[test]
    fn node_schedules_are_deterministic_and_per_node_independent() {
        let a = NodeFaultPlan::node_flap(42);
        let b = NodeFaultPlan::node_flap(42);
        for node in 0..16 {
            assert_eq!(a.schedule_for(node), b.schedule_for(node));
        }
        // Reverse generation order changes nothing (pure in (plan, node)).
        let fwd: Vec<_> = (0..16).map(|n| a.schedule_for(n)).collect();
        let rev: Vec<_> = (0..16).rev().map(|n| a.schedule_for(n)).collect();
        for (n, s) in fwd.iter().enumerate() {
            assert_eq!(*s, rev[15 - n]);
        }
        // Different nodes (and different seeds) diverge.
        assert_ne!(a.schedule_for(0), a.schedule_for(1));
        assert_ne!(a.schedule_for(0), NodeFaultPlan::node_flap(43).schedule_for(0));
    }

    #[test]
    fn node_outages_are_bounded_ordered_and_non_overlapping() {
        for seed in [1, 9, 77] {
            let p = NodeFaultPlan::node_crash(seed);
            for node in 0..8 {
                let sched = p.schedule_for(node);
                assert!(sched.len() <= p.max_faults_per_node as usize);
                assert!(!sched.is_empty());
                let mut up_since = p.start_s;
                for f in &sched {
                    assert!(f.at_s >= up_since + 0.5 * p.mtbf_s - 1e-9, "outages overlap");
                    assert!(f.at_s.is_finite());
                    match f.down_s {
                        Some(d) => {
                            assert!(d >= 0.5 * p.mttr_s - 1e-9 && d < 1.5 * p.mttr_s + 1e-9);
                            up_since = f.at_s + d;
                        }
                        None => up_since = f64::INFINITY,
                    }
                }
                // A permanent outage, if any, is the last entry.
                for f in &sched[..sched.len() - 1] {
                    assert!(f.down_s.is_some());
                }
            }
        }
    }

    #[test]
    fn node_fault_presets_have_their_shapes() {
        let drain = NodeFaultPlan::node_drain(3);
        assert!(drain.schedule_for(2).iter().all(|f| f.class == NodeFaultClass::Drain));
        let flap = NodeFaultPlan::node_flap(3);
        assert!(flap.schedule_for(2).len() > NodeFaultPlan::node_crash(3).schedule_for(2).len());
        for name in NodeFaultPlan::names() {
            assert!(NodeFaultPlan::by_name(name, 1).unwrap().is_active(), "{name}");
        }
        assert!(NodeFaultPlan::by_name("flaky-rapl", 1).is_none());
    }

    #[test]
    fn node_plan_round_trips_through_json_with_defaults() {
        let p = NodeFaultPlan::node_flap(11);
        let back: NodeFaultPlan =
            serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        assert_eq!(p, back);
        // Sparse inline specs (the `--node-faults` JSON form) fill in
        // defaults for everything unnamed.
        let sparse: NodeFaultPlan = serde_json::from_str(r#"{"seed":7,"mtbf_s":3.0}"#).unwrap();
        assert_eq!(sparse.seed, 7);
        assert_eq!(sparse.mtbf_s, 3.0);
        assert_eq!(sparse.max_faults_per_node, NodeFaultPlan::default().max_faults_per_node);
        assert!(sparse.is_active());
    }

    #[test]
    fn node_plan_specs_parse_presets_seeds_and_json() {
        assert_eq!(NodeFaultPlan::from_spec("node-flap"), Ok(NodeFaultPlan::node_flap(0)));
        assert_eq!(NodeFaultPlan::from_spec("node-crash:7"), Ok(NodeFaultPlan::node_crash(7)));
        let json = NodeFaultPlan::from_spec(r#" {"seed":7,"mtbf_s":3.0}"#).unwrap();
        assert_eq!((json.seed, json.mtbf_s), (7, 3.0));
        // Each failure names what was wrong with the spec.
        let err = |spec: &str| NodeFaultPlan::from_spec(spec).unwrap_err();
        assert_eq!(err("node-flap:x7"), r#"bad node-fault seed "x7""#);
        assert_eq!(
            err("flaky-rapl"),
            r#"unknown node-fault preset "flaky-rapl" (node-crash, node-flap, node-drain)"#
        );
        assert!(err(r#"{"seed":"#).starts_with("bad node-fault JSON: "), "{}", err(r#"{"seed":"#));
    }
}
