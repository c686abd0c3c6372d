//! A pool of simulated nodes for the broker layer.
//!
//! The broker schedules one tuning job per node and moves node-level
//! power allocations between them; this module owns the node inventory
//! and the cache-sharing discipline underneath it. Every node of the
//! same machine *model* shares one [`SharedSimCache`] — the simulator is
//! deterministic per model, so a region evaluated on node 0 never needs
//! re-simulating on node 5 — while distinct models keep distinct caches
//! (reports depend on the machine, see [`SharedSimCache::check_machine`]).
//!
//! Power units: the executors and [`Rapl`](crate::Rapl) reason in
//! *package* (per-socket) watts; the broker hands out *node-level*
//! watts. [`FleetNode::package_cap_w`] is the bridge — divide a node
//! allocation evenly across the node's sockets before programming it.

use crate::machine::Machine;
use crate::memo::SharedSimCache;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One schedulable node: a machine model instance plus the memo cache
/// shared by every node of the same model.
#[derive(Clone)]
pub struct FleetNode {
    /// Fleet-assigned node id, dense from 0 in insertion order.
    pub id: u64,
    pub machine: Machine,
    /// The model-wide shared cache (same `Arc` for every node of this
    /// model).
    pub cache: Arc<SharedSimCache>,
}

impl FleetNode {
    /// Highest node-level allocation this node can absorb: every socket
    /// at manufacturer TDP.
    pub fn max_cap_w(&self) -> f64 {
        self.machine.power.tdp_w * self.machine.sockets as f64
    }

    /// Lowest node-level allocation the node can run under — the RAPL
    /// clamp floor (25 % of TDP, see [`Rapl::new`](crate::Rapl::new))
    /// summed over sockets. Jobs whose floor cap exceeds the budget are
    /// never admissible.
    pub fn min_cap_w(&self) -> f64 {
        self.max_cap_w() * 0.25
    }

    /// Translate a node-level allocation into the per-socket package cap
    /// the executor programs (even split across sockets).
    pub fn package_cap_w(&self, node_w: f64) -> f64 {
        node_w / self.machine.sockets as f64
    }
}

/// The node inventory the broker schedules onto.
///
/// Construction is explicit and ordered — node ids are dense and stable
/// in insertion order, so a fleet built from the same spec is always the
/// same fleet (the broker's determinism leans on this).
#[derive(Clone, Default)]
pub struct Fleet {
    nodes: Vec<FleetNode>,
    /// Model name → the cache all nodes of that model share.
    caches: BTreeMap<String, Arc<SharedSimCache>>,
}

impl Fleet {
    pub fn new() -> Self {
        Fleet::default()
    }

    /// `count` identical nodes of one model.
    pub fn homogeneous(machine: Machine, count: usize) -> Self {
        let mut fleet = Fleet::new();
        for _ in 0..count {
            fleet.push(machine.clone());
        }
        fleet
    }

    /// Add a node; returns its id. Nodes of a model seen before share
    /// that model's cache.
    pub fn push(&mut self, machine: Machine) -> u64 {
        let id = self.nodes.len() as u64;
        let cache = Arc::clone(
            self.caches
                .entry(machine.name.clone())
                .or_insert_with(|| Arc::new(SharedSimCache::new(&machine.name))),
        );
        self.nodes.push(FleetNode { id, machine, cache });
        id
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn nodes(&self) -> &[FleetNode] {
        &self.nodes
    }

    pub fn node(&self, id: u64) -> Option<&FleetNode> {
        self.nodes.get(id as usize)
    }

    /// The shared cache for a machine model, if any node of that model
    /// is in the fleet.
    pub fn cache_for(&self, model: &str) -> Option<&Arc<SharedSimCache>> {
        self.caches.get(model)
    }

    /// Distinct machine models in the fleet, in name order.
    pub fn models(&self) -> impl Iterator<Item = &str> {
        self.caches.keys().map(String::as_str)
    }

    /// Σ node max caps — the most power the fleet could ever draw under
    /// RAPL control. A global budget at or above this never constrains
    /// anyone.
    pub fn total_max_cap_w(&self) -> f64 {
        self.nodes.iter().map(FleetNode::max_cap_w).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_model_nodes_share_one_cache() {
        let mut fleet = Fleet::homogeneous(Machine::crill(), 3);
        fleet.push(Machine::minotaur());
        assert_eq!(fleet.len(), 4);
        assert_eq!(fleet.models().collect::<Vec<_>>(), ["crill", "minotaur"]);

        let crill_cache = Arc::clone(&fleet.node(0).unwrap().cache);
        assert!(Arc::ptr_eq(&crill_cache, &fleet.node(1).unwrap().cache));
        assert!(Arc::ptr_eq(&crill_cache, &fleet.node(2).unwrap().cache));
        assert!(!Arc::ptr_eq(&crill_cache, &fleet.node(3).unwrap().cache));
        assert!(Arc::ptr_eq(&crill_cache, fleet.cache_for("crill").unwrap()));
        // Caches stay bound to their model.
        assert!(crill_cache.check_machine("crill").is_ok());
        assert!(crill_cache.check_machine("minotaur").is_err());
    }

    #[test]
    fn node_ids_are_dense_and_stable() {
        let mut fleet = Fleet::new();
        assert!(fleet.is_empty());
        assert_eq!(fleet.push(Machine::crill()), 0);
        assert_eq!(fleet.push(Machine::crill()), 1);
        assert_eq!(fleet.push(Machine::minotaur()), 2);
        for (i, node) in fleet.nodes().iter().enumerate() {
            assert_eq!(node.id, i as u64);
        }
        assert!(fleet.node(3).is_none());
    }

    #[test]
    fn power_arithmetic_follows_the_machine_models() {
        let fleet = Fleet::homogeneous(Machine::crill(), 2);
        let node = fleet.node(0).unwrap();
        // Crill: 2 sockets × 115 W TDP.
        assert!((node.max_cap_w() - 230.0).abs() < 1e-12);
        assert!((node.min_cap_w() - 57.5).abs() < 1e-12);
        assert!((node.package_cap_w(200.0) - 100.0).abs() < 1e-12);
        assert!((fleet.total_max_cap_w() - 460.0).abs() < 1e-12);
    }
}
