//! What a workload hands back to the harness.

use crate::spans::SpanLog;
use std::collections::BTreeMap;

/// The outcome of one repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the whole repetition, seconds.
    pub wall_s: f64,
    /// Wall time of the phase `items` were processed in, seconds.
    pub main_s: f64,
    /// Cells executed or jobs completed.
    pub items: u64,
    /// Operations whose outcome was checked (cells; submitted jobs +
    /// requests).
    pub attempted: u64,
    /// One line per operation or check that failed.
    pub failures: Vec<String>,
    /// Digest of the simulated outputs; equal across repetitions.
    pub digest: u64,
    /// Further named values: workload-specific end-to-end metrics and
    /// layer counts. Collected per name across repetitions.
    pub values: Vec<(&'static str, f64)>,
}

impl Rep {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Samples per metric name, in the order they were measured.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn extend(&mut self, values: &[(&'static str, f64)]) {
        for &(name, value) in values {
            self.push(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.0.get(name).map(Vec::as_slice)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &[f64])> {
        self.0.iter().map(|(k, v)| (*k, v.as_slice()))
    }
}

/// One of the six workloads, set up and warmed.
pub trait Workload {
    /// Run one repetition. With a span log, drive the same work through
    /// the decorated layers and record spans; the simulated outputs (the
    /// digest) must not change.
    fn rep(&mut self, log: Option<&mut SpanLog>) -> Rep;

    /// Fixed-input probes around single public functions of the layers
    /// this workload exercises, and by-difference attribution. Traced
    /// runs only.
    fn probes(&mut self, out: &mut Samples);
}
