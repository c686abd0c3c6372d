//! Text layouts of the report model: [`TraceReport`] as an aligned table
//! or GitHub-flavoured markdown (`arcs-sim report`), and [`Comparison`] as
//! the gate's verdict table (`arcs-sim compare`). Both formats of a report
//! come from one `render`, so a section is worded once; its bytes are
//! pinned by `crates/bench/tests/cli.rs`.

use crate::analysis::TraceReport;
use crate::compare::Comparison;

/// The Regions table's numeric columns: title and plain-text width. The
/// markdown framing pads nothing but the region name.
const REGION_COLUMNS: [(&str, usize); 7] = [
    ("calls", 6),
    ("wall s", 10),
    ("mean s", 10),
    ("loop s", 10),
    ("barrier s", 10),
    ("energy J", 10),
    ("switches", 8),
];

/// One line of the Regions table — header or region — in either framing.
fn region_line(out: &mut String, md: bool, name_w: usize, name: &str, cells: [String; 7]) {
    if md {
        out.push_str(&format!("| {name:<name_w$} |"));
        for cell in &cells {
            out.push_str(&format!(" {cell} |"));
        }
    } else {
        out.push_str(&format!("{name:<name_w$}"));
        for (cell, (_, w)) in cells.iter().zip(REGION_COLUMNS) {
            out.push_str(&format!("  {cell:>w$}"));
        }
    }
    out.push('\n');
}

impl TraceReport {
    /// Aligned plain-text rendering (the `arcs-sim report` default).
    pub fn to_table(&self) -> String {
        self.render(false)
    }

    /// GitHub-flavoured markdown rendering.
    pub fn to_markdown(&self) -> String {
        self.render(true)
    }

    fn render(&self, md: bool) -> String {
        let mut out = String::new();
        let h = |out: &mut String, title: &str| {
            if md {
                out.push_str(&format!("\n## {title}\n\n"));
            } else {
                out.push_str(&format!("\n=== {title} ===\n"));
            }
        };

        out.push_str(&format!(
            "trace: schema v{}, {} records, {} seq gap(s), objective {}\n",
            self.schema, self.records, self.seq_gaps, self.objective
        ));
        out.push_str(&format!(
            "wall {:.4} s | region {:.4} s | overhead {:.4} s | energy {:.1} J\n",
            self.wall_s,
            self.total_region_s,
            self.overhead.total_s(),
            self.total_energy_j
        ));

        h(&mut out, "Regions");
        let name_w = self.regions.keys().map(|k| k.len()).max().unwrap_or(6).max("region".len());
        region_line(&mut out, md, name_w, "region", REGION_COLUMNS.map(|(title, _)| title.into()));
        if md {
            out.push_str(&format!("|{:-<w$}|", "", w = name_w + 2));
            for (title, _) in REGION_COLUMNS {
                out.push_str(&format!("{:-<w$}:|", "", w = title.len() + 1));
            }
            out.push('\n');
        }
        for (name, r) in &self.regions {
            let cells = [
                r.invocations.to_string(),
                format!("{:.4}", r.wall_s),
                format!("{:.6}", r.mean_call_s()),
                format!("{:.4}", r.busy_s),
                format!("{:.4}", r.barrier_s),
                format!("{:.1}", r.energy_j),
                r.config_switches.to_string(),
            ];
            region_line(&mut out, md, name_w, name, cells);
        }

        if !self.policies.is_empty() {
            h(&mut out, "Scheduling policies");
            if self.policy_switches > 0 {
                out.push_str(&format!("{} intra-run policy switch(es)\n", self.policy_switches));
            }
            for (policy, p) in &self.policies {
                out.push_str(&format!(
                    "{}{policy}: {} invocation(s), {:.4} s ({:.6} s/call), {:.1} J{}\n",
                    if md { "- " } else { "  " },
                    p.invocations,
                    p.wall_s,
                    p.mean_call_s(),
                    p.energy_j,
                    if p.switches_in > 0 {
                        format!(", switched-to {}×", p.switches_in)
                    } else {
                        String::new()
                    }
                ));
            }
            // Timeline lines only for regions that actually switched —
            // single-policy regions are fully described by the table above.
            for (region, segs) in &self.policy_timeline {
                if segs.len() > 1 {
                    let spans: Vec<String> = segs
                        .iter()
                        .map(|s| format!("{}@{}..+{}", s.policy, s.from_invocation, s.invocations))
                        .collect();
                    out.push_str(&format!(
                        "{}{region}: {}\n",
                        if md { "- timeline " } else { "  timeline " },
                        spans.join(" → ")
                    ));
                }
            }
        }

        h(&mut out, "Power caps");
        for c in &self.caps {
            out.push_str(&format!(
                "{}cap {:.0} W (effective {:.1} W): {} invocation(s), {:.4} s, {:.1} J, EDP {:.2}\n",
                if md { "- " } else { "" },
                c.requested_w,
                c.effective_w,
                c.invocations,
                c.region_s,
                c.energy_j,
                c.edp()
            ));
        }

        if !self.convergence.is_empty() {
            h(&mut out, "Search convergence");
            for (region, curve) in &self.convergence {
                let last = curve.last().expect("curves are non-empty");
                out.push_str(&format!(
                    "{}{region}: {} evaluation(s), best {:.6} {}{}\n",
                    if md { "- " } else { "" },
                    last.evaluations,
                    last.best_value,
                    self.objective.unit(),
                    if last.converged { ", converged" } else { "" }
                ));
                let steps: Vec<String> = decimate(curve, 8)
                    .iter()
                    .map(|p| format!("{}:{:.4}", p.evaluations, p.best_value))
                    .collect();
                out.push_str(&format!(
                    "{}best-so-far  {}\n",
                    if md { "  " } else { "    " },
                    steps.join(" → ")
                ));
            }
        }

        h(&mut out, "Sim cache");
        out.push_str(&format!(
            "{} hit(s), {} miss(es), hit rate {:.1}%\n",
            self.cache.hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate()
        ));
        if self.cache.entries > 0 {
            let occ = &self.cache.shard_occupancy;
            let (min, max) =
                (occ.iter().min().copied().unwrap_or(0), occ.iter().max().copied().unwrap_or(0));
            out.push_str(&format!(
                "{} distinct cell(s) across {} shard(s) (occupancy {min}–{max}), \
                 {} region name(s) interned\n",
                self.cache.entries,
                occ.len(),
                self.cache.interner_size
            ));
        }

        h(&mut out, "Overhead (§III-C)");
        out.push_str(&format!(
            "{} event(s): config change {:.4} s + instrumentation {:.4} s = {:.4} s\n",
            self.overhead.events,
            self.overhead.config_change_s,
            self.overhead.instrumentation_s,
            self.overhead.total_s()
        ));
        out.push_str(&format!(
            "cross-check: wall − region − overhead = {:+.3e} s ({})\n",
            self.overhead_residual_s(),
            if self.overhead_consistent() { "consistent" } else { "INCONSISTENT" }
        ));
        if let Some(res) = self.energy_residual_j() {
            out.push_str(&format!(
                "energy ledger: meter − region − overhead = {:+.3e} J ({})\n",
                res,
                if self.energy_consistent() { "consistent" } else { "INCONSISTENT" }
            ));
        }

        if let Some(p) = &self.self_profile {
            h(&mut out, "Self-profile (where did the time go)");
            let total = p.total_s();
            out.push_str(&format!(
                "{} run(s), {} invocation(s): driver wall {:.4} s\n",
                p.runs, p.invocations, total
            ));
            let pct = |s: f64| if total > 0.0 { 100.0 * s / total } else { 0.0 };
            for (name, s) in [
                ("measure", p.measure_s),
                ("tune", p.tune_s),
                ("overhead", p.overhead_s),
                ("meter", p.meter_s),
            ] {
                out.push_str(&format!(
                    "{}{:<8}  {:>10.6} s  ({:>5.1}%)\n",
                    if md { "- " } else { "  " },
                    name,
                    s,
                    pct(s)
                ));
            }
            if p.invocations > 0 {
                out.push_str(&format!(
                    "per invocation: {:.1} µs\n",
                    1e6 * total / p.invocations as f64
                ));
            }
        }

        if self.faults.any() {
            h(&mut out, "Faults & recovery");
            let classes: Vec<String> =
                self.faults.injected.iter().map(|(k, n)| format!("{k} ×{n}")).collect();
            out.push_str(&format!(
                "{} fault(s) injected ({}), {} measurement(s) rejected\n",
                self.faults.injected_total(),
                if classes.is_empty() { "none".to_string() } else { classes.join(", ") },
                self.faults.rejected
            ));
            if self.faults.degraded_regions.is_empty() {
                out.push_str("tuner degraded: no\n");
            } else {
                out.push_str(&format!(
                    "tuner degraded: {} region(s) frozen ({})\n",
                    self.faults.degraded_regions.len(),
                    self.faults.degraded_regions.join(", ")
                ));
            }
        }

        if self.broker.any() {
            h(&mut out, "Broker");
            out.push_str(&format!(
                "{} submitted, {} scheduled, {} completed, {} rejected, {} failed, {} shed, \
                 {} lost\n",
                self.broker.submitted,
                self.broker.scheduled,
                self.broker.completed,
                self.broker.rejected,
                self.broker.failed,
                self.broker.shed,
                self.broker.lost_jobs()
            ));
            out.push_str(&format!(
                "budget {:.1} W, peak allocation {:.1} W, {} reallocation(s), {}\n",
                self.broker.budget_w,
                self.broker.max_total_w,
                self.broker.reallocations,
                if self.broker.over_budget_events == 0 {
                    "budget conserved".to_string()
                } else {
                    format!("{} OVER-BUDGET event(s)", self.broker.over_budget_events)
                }
            ));
            if let Some(ratio) = self.broker.fairness_ratio() {
                out.push_str(&format!("fairness (max/min mean tenant share): {ratio:.3}\n"));
            }
            for (name, t) in &self.broker.tenants {
                out.push_str(&format!(
                    "{}{name}: {}/{} job(s) completed ({} degraded, {} rejected), \
                     mean share {:.1} W, {:.2} s, {:.0} J\n",
                    if md { "- " } else { "  " },
                    t.completed,
                    t.submitted,
                    t.degraded,
                    t.rejected,
                    t.mean_allocated_w(),
                    t.time_s,
                    t.energy_j
                ));
            }
        }

        if self.recovery.any() {
            h(&mut out, "Resilience");
            let classes: Vec<String> =
                self.recovery.failures_by_class.iter().map(|(k, n)| format!("{k} ×{n}")).collect();
            out.push_str(&format!(
                "{} node failure(s) ({}), {} permanent, {} recover(ies)\n",
                self.recovery.node_failures,
                if classes.is_empty() { "none".to_string() } else { classes.join(", ") },
                self.recovery.permanent_failures,
                self.recovery.node_recoveries
            ));
            match self.recovery.mttr_s() {
                Some(mttr) => out.push_str(&format!("MTTR: {mttr:.3} s (virtual)\n")),
                None => out.push_str("MTTR: n/a (no recoveries observed)\n"),
            }
            out.push_str(&format!(
                "{} requeue(s), shed rate {:.1}%, {} checkpoint recover(ies)\n",
                self.recovery.requeues,
                100.0 * self.broker.shed_rate(),
                self.recovery.checkpoint_recoveries
            ));
        }
        out
    }
}

/// Evenly sample at most `max` points from a curve, always keeping the
/// last point.
fn decimate<T: Copy>(curve: &[T], max: usize) -> Vec<T> {
    if curve.len() <= max {
        return curve.to_vec();
    }
    let step = curve.len().div_ceil(max);
    let mut out: Vec<T> = curve.iter().copied().step_by(step).collect();
    if let Some(&last) = curve.last() {
        out.push(last);
    }
    out
}

impl Comparison {
    pub fn to_table(&self) -> String {
        let name_w = self.rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max("name".len());
        let unit = self.objective.unit();
        let mut out = format!(
            "objective: {}\n{:<name_w$}  {:>12}  {:>12}  {:>8}  verdict\n",
            self.objective,
            "name",
            format!("baseline {unit}"),
            format!("candidate {unit}"),
            "delta"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<name_w$}  {:>12.6}  {:>12.6}  {:>+7.2}%  {}\n",
                r.name,
                r.baseline_s,
                r.candidate_s,
                r.delta_pct,
                if r.regression { "REGRESSION" } else { "ok" }
            ));
        }
        for m in &self.missing_in_candidate {
            out.push_str(&format!("{m}: missing in candidate\n"));
        }
        for m in &self.new_in_candidate {
            out.push_str(&format!("{m}: new in candidate\n"));
        }
        out.push_str(&format!(
            "threshold {}%: {}\n",
            self.fail_on_pct,
            if self.regressed() { "FAIL" } else { "pass" }
        ));
        out
    }
}
