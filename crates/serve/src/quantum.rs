//! The broker's quantum memo: a job whose quanta retrace an earlier
//! job's path recalls that job's outcomes instead of simulating them
//! again. It is ARCS-Offline's observation (§III-B) turned on the broker
//! itself: a run is deterministic given its inputs, so a second one can
//! replay the first one's outcome instead of measuring it.
//!
//! # The key
//!
//! The memo is a trie. A **root** holds everything a fresh placement's
//! simulation depends on:
//!
//! * the node's machine *model*: it sets the physics, the tuner's search
//!   space and which shared memo cache prices the job. It is keyed by
//!   name, the identity under which the fleet already shares one cache
//!   per model, so nodes of one model are interchangeable;
//! * the workload spec: the regions every quantum runs;
//! * the fault seed: a seeded job runs under
//!   [`FaultPlan::flaky_rapl`], whose every decision is a pure function
//!   of (seed, region, ordinal), on the standard self-healing ladder the
//!   seed also implies;
//! * the timesteps the placement starts from. A requeued job resumes
//!   from its banked boundary on a fresh executor and tuner, which is
//!   exactly a fresh job of that length.
//!
//! Everything else a quantum depends on is a broker constant, which is
//! sound because the memo lives and dies with one broker:
//! [`BrokerConfig::resilience`](crate::BrokerConfig::resilience), the
//! quantum size, and the ladder forced onto faulted jobs. The floor,
//! the node id and the tenant are not inputs: the floor only seeds the
//! cap handle, whose value replaces it before the first invocation.
//!
//! An **edge** is one quantum: the requested package cap at its start
//! and its steps. The cap is the [`CapHandle`]'s value, not the floor or
//! the node allocation. The handle is last-writer-wins and applies at a
//! region boundary, a whole quantum is simulated inside one call so no
//! move can land inside it, and `flaky_rapl` schedules no cap faults, so
//! the value at the quantum's start is the cap for all of it. Each node
//! holds its quantum's [`QuantumResult`].
//!
//! # Lazy executors
//!
//! A running job keeps only its position in the trie. It builds its
//! executor and tuner the first time its next edge is missing: it replays
//! its recorded path through a fresh pair, setting the handle to each
//! quantum's cap first, sets the current cap, and simulates the new
//! quantum. Debug builds check every replayed quantum against its
//! memoised result, bit for bit. A job whose every quantum is memoised
//! never builds either. A live job keeps simulating, since its executor
//! carries the fault clock and the tuner state forward, and still walks
//! the trie so later jobs can recall what it ran.
//!
//! A rebuild copies nothing the memo already holds. Each workload spec
//! resolves once (admission asks the same table, [`QuantumMemo::resolve`]),
//! and its descriptor is kept once per quantum length, shared by every
//! executor that runs a quantum of that length; every quantum of a
//! workload is reported into one report the memo keeps, of which only
//! the totals are read. Each machine model's [`ConfigSpace`] is built
//! once. The executor is built on its node's shared memo cache, with no
//! private cache of its own.
//!
//! Outcomes are exact, so every trace, journal and digest is what
//! simulating every quantum gives. Only the node memo cache's hit count
//! falls, because a recalled quantum prices nothing.
//!
//! # Bound
//!
//! At [`MAX_NODES`] the memo stops inserting: existing paths keep
//! answering, and a job that steps off the trie runs live to its end.
//! Insertion follows the broker's event order, so a journal replay
//! rebuilds the identical memo.

use crate::job::JobSpec;
use arcs::backend::Runner;
use arcs::{
    AppRunReport, CapHandle, ConfigSpace, RegionTuner, ResilienceOptions, RunStatus, SimExecutor,
    TunerOptions,
};
use arcs_kernels::model;
use arcs_powersim::{FaultPlan, FleetNode, WorkloadDescriptor};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Most trie nodes (roots included) one broker keeps. 5 000 jobs of the
/// benchmark stream make about 3.6 k; each node costs under 100 bytes.
const MAX_NODES: usize = 1 << 16;

/// What one quantum did, known when it starts and applied when its
/// completion event fires.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuantumResult {
    pub(crate) steps: usize,
    pub(crate) time_s: f64,
    pub(crate) energy_j: f64,
    pub(crate) degraded: bool,
}

impl QuantumResult {
    fn bits(&self) -> (usize, u64, u64, bool) {
        (self.steps, self.time_s.to_bits(), self.energy_j.to_bits(), self.degraded)
    }
}

/// A root: interned model and workload ids, the fault seed, and the
/// timesteps the placement starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RootKey {
    model: u32,
    workload: u32,
    fault_seed: Option<u64>,
    remaining: usize,
}

/// A quantum node: the node it continued from, the cap it ran under,
/// and what it did. Roots carry none.
#[derive(Debug, Clone, Copy)]
struct Quantum {
    parent: u32,
    cap_w: f64,
    result: QuantumResult,
}

/// Counters the broker's tests read; nothing reports them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MemoCounters {
    /// Quanta answered from the memo without simulating.
    pub(crate) recalled: u64,
    /// Of those, the first quantum of a placement.
    pub(crate) recalled_first: u64,
    /// Quanta a live executor simulated, replays not included.
    pub(crate) simulated: u64,
    /// Executors built lazily, and the quanta replayed to build them.
    pub(crate) rebuilds: u64,
    pub(crate) replayed: u64,
    /// Placements rooted at a requeued job's banked boundary.
    pub(crate) resumed: u64,
    /// Workload specs parsed: each one that resolves once, each one that
    /// does not every time it is asked.
    pub(crate) parsed: u64,
}

/// The per-broker quantum memo (see the module docs).
#[derive(Default)]
pub(crate) struct QuantumMemo {
    /// Interned model names, so a root key holds no string, and each
    /// model's search space.
    models: BTreeMap<String, u32>,
    spaces: Vec<ConfigSpace>,
    /// Interned workload specs, and what each resolved one keeps.
    workload_ids: BTreeMap<String, u32>,
    workloads: Vec<Workload>,
    /// A rebuild's replay path, kept for the next rebuild.
    path: Vec<Quantum>,
    roots: BTreeMap<RootKey, u32>,
    /// (node, cap bits, steps) → the node that quantum leads to.
    edges: BTreeMap<(u32, u64, usize), u32>,
    /// Every node, roots as `None`.
    nodes: Vec<Option<Quantum>>,
    limit: usize,
    pub(crate) counters: MemoCounters,
}

/// A resolved workload spec: its descriptor at the spec's own length
/// first, then one per quantum length run so far, and the report every
/// quantum of it is written into (only its totals are read).
struct Workload {
    lengths: Vec<Arc<WorkloadDescriptor>>,
    report: AppRunReport,
}

/// One placement's walk through the memo.
pub(crate) struct JobPath {
    root: RootKey,
    /// The node the last quantum reached; `None` once the walk left the
    /// trie at its bound.
    at: Option<u32>,
    live: Option<Box<Live>>,
}

/// A job's executor and tuner, built on its first memo miss.
struct Live {
    exec: SimExecutor,
    tuner: RegionTuner,
    resilience: Option<ResilienceOptions>,
}

impl Live {
    /// Run one quantum of `workload` at `steps` timesteps.
    fn run(&mut self, workload: &mut Workload, steps: usize) -> QuantumResult {
        let wl = workload.at(steps);
        let mut runner = Runner::new(&mut self.exec).workload(&wl).tuner(&mut self.tuner);
        if let Some(res) = self.resilience {
            runner = runner.resilience(res);
        }
        let report = &mut workload.report;
        runner.run_into(report).expect("a resilient simulated quantum cannot error");
        QuantumResult {
            steps: wl.timesteps,
            time_s: report.time_s,
            energy_j: report.energy_j,
            degraded: report.status == RunStatus::Degraded,
        }
    }
}

impl QuantumMemo {
    pub(crate) fn new() -> Self {
        QuantumMemo { limit: MAX_NODES, ..QuantumMemo::default() }
    }

    #[cfg(test)]
    fn with_limit(limit: usize) -> Self {
        QuantumMemo { limit, ..QuantumMemo::default() }
    }

    fn insert(&mut self, node: Option<Quantum>) -> Option<u32> {
        (self.nodes.len() < self.limit).then(|| {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        })
    }

    /// The id of workload `spec`, or `None` when it names no workload.
    /// A spec is parsed ([`model::by_spec`]) the first time it resolves,
    /// and its descriptor kept from then on. One that does not resolve is
    /// not remembered, so unknown names cannot grow the table.
    pub(crate) fn resolve(&mut self, spec: &str) -> Option<u32> {
        if let Some(&id) = self.workload_ids.get(spec) {
            return Some(id);
        }
        self.counters.parsed += 1;
        let wl = model::by_spec(spec)?;
        let id = intern(&mut self.workload_ids, spec);
        let report = AppRunReport::default();
        self.workloads.push(Workload { lengths: vec![Arc::new(wl)], report });
        Some(id)
    }

    /// Root a placement of `spec` on `node`. `banked` is a requeued job's
    /// remaining timesteps (`None` for a fresh job, which runs the spec's
    /// length or the workload's default). Returns the walk and the
    /// timesteps it starts from.
    pub(crate) fn root(
        &mut self,
        node: &FleetNode,
        spec: &JobSpec,
        banked: Option<usize>,
    ) -> (JobPath, usize) {
        let model = intern(&mut self.models, &node.machine.name);
        if model as usize == self.spaces.len() {
            self.spaces.push(ConfigSpace::for_machine(&node.machine));
        }
        let workload = self.resolve(&spec.workload).expect("admission resolved the workload");
        let remaining = match banked {
            Some(banked) => {
                self.counters.resumed += 1;
                banked
            }
            None if spec.timesteps > 0 => spec.timesteps,
            None => self.workloads[workload as usize].lengths[0].timesteps,
        };
        let root = RootKey { model, workload, fault_seed: spec.fault_seed, remaining };
        let at = match self.roots.get(&root) {
            Some(&id) => Some(id),
            None => {
                let id = self.insert(None);
                if let Some(id) = id {
                    self.roots.insert(root, id);
                }
                id
            }
        };
        (JobPath { root, at, live: None }, remaining)
    }

    /// The job's next quantum of `steps` under `handle`'s current cap:
    /// recalled when the memo has it and the job is not live, simulated
    /// otherwise. `node` is the job's node, `resilience` the broker's.
    pub(crate) fn next(
        &mut self,
        job: &mut JobPath,
        node: &FleetNode,
        handle: &CapHandle,
        steps: usize,
        resilience: Option<ResilienceOptions>,
    ) -> QuantumResult {
        let cap_w = handle.get();
        let edge = job.at.map(|at| (at, cap_w.to_bits(), steps));
        let known = edge.and_then(|e| self.edges.get(&e).copied());
        let known_result = known.and_then(|id| self.nodes[id as usize].map(|q| q.result));
        let result = match (&mut job.live, known_result) {
            (None, Some(result)) => {
                self.counters.recalled += 1;
                if self.nodes[job.at.expect("a known edge has a source") as usize].is_none() {
                    self.counters.recalled_first += 1;
                }
                result
            }
            (live, known_result) => {
                let live = match live {
                    Some(live) => live,
                    None => live.insert(self.rebuild(job.root, job.at, node, handle, resilience)),
                };
                let result = live.run(&mut self.workloads[job.root.workload as usize], steps);
                self.counters.simulated += 1;
                if let Some(known) = known_result {
                    debug_assert_eq!(result.bits(), known.bits(), "a live quantum left its memo");
                }
                result
            }
        };
        job.at = match (known, edge) {
            (Some(id), _) => Some(id),
            (None, Some((at, bits, steps))) => {
                let id = self.insert(Some(Quantum { parent: at, cap_w, result }));
                if let Some(id) = id {
                    self.edges.insert((at, bits, steps), id);
                }
                id
            }
            (None, None) => None,
        };
        result
    }

    /// A fresh executor and tuner for `root`, brought to node `at` by
    /// replaying the quanta that led there; the handle ends at the cap it
    /// held on entry.
    fn rebuild(
        &mut self,
        root: RootKey,
        at: Option<u32>,
        node: &FleetNode,
        handle: &CapHandle,
        resilience: Option<ResilienceOptions>,
    ) -> Box<Live> {
        let cap_w = handle.get();
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let mut cursor = at;
        while let Some(q) = cursor.and_then(|id| self.nodes[id as usize]) {
            path.push(q);
            cursor = Some(q.parent);
        }
        path.reverse();

        let mut exec = SimExecutor::on_cache(node.machine.clone(), cap_w, Arc::clone(&node.cache))
            .with_cap_handle(handle.clone());
        let mut resilience = resilience;
        if let Some(seed) = root.fault_seed {
            let plan = FaultPlan::flaky_rapl(seed);
            debug_assert!(plan.cap_schedule.is_empty(), "the memo keys quanta by the handle's cap");
            exec = exec.with_faults(plan);
            // A faulted job without a self-healing ladder would turn
            // hard meter faults into run errors; force the standard one.
            resilience = Some(resilience.unwrap_or_else(ResilienceOptions::standard));
        }
        let tuner =
            RegionTuner::new(TunerOptions::online(self.spaces[root.model as usize].clone()));
        let mut live = Box::new(Live { exec, tuner, resilience });
        let workload = &mut self.workloads[root.workload as usize];
        for q in &path {
            handle.set(q.cap_w);
            let replayed = live.run(workload, q.result.steps);
            debug_assert_eq!(replayed.bits(), q.result.bits(), "a replayed quantum left its memo");
        }
        handle.set(cap_w);
        self.counters.rebuilds += 1;
        self.counters.replayed += path.len() as u64;
        self.path = path;
        live
    }
}

impl Workload {
    /// The workload at `steps` timesteps, shared: built from the spec's
    /// descriptor the first time a quantum of that length runs.
    fn at(&mut self, steps: usize) -> Arc<WorkloadDescriptor> {
        if let Some(wl) = self.lengths.iter().find(|wl| wl.timesteps == steps) {
            return Arc::clone(wl);
        }
        let wl = Arc::new(WorkloadDescriptor { timesteps: steps, ..(*self.lengths[0]).clone() });
        self.lengths.push(Arc::clone(&wl));
        wl
    }
}

/// `name`'s id in `ids`, a new one for a new name.
fn intern(ids: &mut BTreeMap<String, u32>, name: &str) -> u32 {
    if let Some(&id) = ids.get(name) {
        return id;
    }
    let id = ids.len() as u32;
    ids.insert(name.to_string(), id);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcs_powersim::{Fleet, Machine};

    /// At the bound the memo stops inserting — roots and quanta alike —
    /// yet every path it already holds keeps answering, and a walk that
    /// steps off the trie simulates the rest exactly.
    #[test]
    fn a_full_memo_stops_inserting_and_still_answers() {
        let fleet = Fleet::homogeneous(Machine::crill(), 1);
        let node = fleet.node(0).unwrap();
        let spec = JobSpec::new("acme", "sp.S").timesteps(6);
        // A root and two quanta: the third quantum of a 6-step job does
        // not fit.
        let mut memo = QuantumMemo::with_limit(3);
        let walk = |memo: &mut QuantumMemo, spec: &JobSpec| {
            let (mut path, remaining) = memo.root(node, spec, None);
            let handle = CapHandle::new(node.package_cap_w(200.0));
            let results: Vec<_> = (0..remaining / 2)
                .map(|i| {
                    handle.set(node.package_cap_w(200.0 - 20.0 * i as f64));
                    memo.next(&mut path, node, &handle, 2, None).bits()
                })
                .collect();
            (results, path.at)
        };
        let (first, at) = walk(&mut memo, &spec);
        assert_eq!((memo.nodes.len(), at), (3, None), "the third quantum left the trie");
        assert_eq!((memo.counters.simulated, memo.counters.rebuilds), (3, 1));

        let (again, _) = walk(&mut memo, &spec);
        assert_eq!(again, first, "recalled and resimulated quanta are the originals");
        assert_eq!(memo.nodes.len(), 3);
        assert_eq!(memo.counters.recalled, 2, "both memoised quanta answered");
        assert_eq!(memo.counters.recalled_first, 1);
        assert_eq!((memo.counters.rebuilds, memo.counters.replayed), (2, 2));

        // No room for a new root: the walk is off the trie from the start.
        let (_, at) = walk(&mut memo, &JobSpec::new("acme", "cg.S").timesteps(2));
        assert_eq!((memo.nodes.len(), memo.roots.len(), at), (3, 1, None));
    }
}
