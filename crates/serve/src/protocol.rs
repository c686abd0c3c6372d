//! The broker's wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one response line back, connection stays open
//! for pipelining. Requests carry a flat `op` discriminator plus
//! whichever fields that op needs (the vendored serde has no adjacent
//! tagging, and a flat shape keeps hand-written clients — `nc`, shell
//! scripts — honest anyway).
//!
//! Ops:
//!
//! | op         | fields in                                         | fields out                          |
//! |------------|---------------------------------------------------|-------------------------------------|
//! | `submit`   | `tenant`, `workload`, `timesteps?`, `floor_w?`, `weight?`, `fault_seed?` | `job`, `accepted`, `reason?`; on shed also `retry_after_s`, `queue_depth` |
//! | `status`   | `job`                                             | `state`, completion detail          |
//! | `stats`    | —                                                 | `stats` counters + `telemetry` snapshot |
//! | `metrics`  | —                                                 | `metrics`: Prometheus text exposition |
//! | `watch`    | `every?` (virtual-time quanta, default 1)         | stream: one NDJSON telemetry snapshot line per interval (no `Response` wrapper) |
//! | `shutdown` | —                                                 | ack; server drains and exits        |
//!
//! `watch` is the one op that changes the framing contract: after the
//! request line the server stops speaking `Response` and pushes raw
//! [`TelemetrySnapshot`] lines until the client hangs up or the server
//! drains. Everything else stays strict request/response.

use crate::broker::BrokerCounters;
use crate::job::JobSpec;
use crate::telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Request {
    pub op: String,
    #[serde(default)]
    pub tenant: Option<String>,
    #[serde(default)]
    pub workload: Option<String>,
    #[serde(default)]
    pub timesteps: Option<usize>,
    #[serde(default)]
    pub floor_w: Option<f64>,
    #[serde(default)]
    pub weight: Option<f64>,
    #[serde(default)]
    pub fault_seed: Option<u64>,
    /// Target job id for `status`.
    #[serde(default)]
    pub job: Option<u64>,
    /// `watch`: push a snapshot every N virtual-time quanta (default 1).
    #[serde(default)]
    pub every: Option<u64>,
}

impl Request {
    pub fn submit(spec: &JobSpec) -> Self {
        Request {
            tenant: Some(spec.tenant.clone()),
            workload: Some(spec.workload.clone()),
            timesteps: (spec.timesteps > 0).then_some(spec.timesteps),
            floor_w: spec.floor_w,
            weight: (spec.weight > 0.0 && spec.weight != 1.0).then_some(spec.weight),
            fault_seed: spec.fault_seed,
            ..Request::op_only("submit")
        }
    }

    pub fn status(job: u64) -> Self {
        Request { job: Some(job), ..Request::op_only("status") }
    }

    pub fn op_only(op: &str) -> Self {
        Request { op: op.into(), ..Default::default() }
    }

    /// Build the broker-side job spec from a `submit` request, or say
    /// what is wrong with it: a required field is missing, or `floor_w` /
    /// `weight` is not a finite number (JSON parses `1e999` as infinity,
    /// which no journal record can carry).
    pub fn to_spec(&self) -> Result<JobSpec, String> {
        let (Some(tenant), Some(workload)) = (&self.tenant, &self.workload) else {
            return Err("submit requires tenant and workload".into());
        };
        for (field, value) in [("floor_w", self.floor_w), ("weight", self.weight)] {
            if value.is_some_and(|v| !v.is_finite()) {
                return Err(format!("submit field {field} must be a finite number"));
            }
        }
        let mut spec = JobSpec::new(tenant.clone(), workload.clone());
        spec.timesteps = self.timesteps.unwrap_or(0);
        spec.floor_w = self.floor_w;
        spec.weight = self.weight.unwrap_or(1.0);
        spec.fault_seed = self.fault_seed;
        Ok(spec)
    }
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Response {
    pub ok: bool,
    #[serde(default)]
    pub error: Option<String>,
    /// `submit`: the assigned job id (also set on rejection).
    #[serde(default)]
    pub job: Option<u64>,
    /// `submit`: whether admission control let the job in.
    #[serde(default)]
    pub accepted: Option<bool>,
    /// `submit` rejection or shed reason.
    #[serde(default)]
    pub reason: Option<String>,
    /// `submit` under load shedding: backpressure hint — virtual
    /// seconds before resubmitting has any chance (v9).
    #[serde(default)]
    pub retry_after_s: Option<f64>,
    /// `submit` under load shedding: admission-queue depth at the
    /// moment the job was turned away (v9).
    #[serde(default)]
    pub queue_depth: Option<u64>,
    /// `status`: `queued` / `running` / `completed` / `rejected` /
    /// `failed` / `shed`.
    #[serde(default)]
    pub state: Option<String>,
    /// `status` of a completed job: `ok` / `degraded`.
    #[serde(default)]
    pub status: Option<String>,
    #[serde(default)]
    pub time_s: Option<f64>,
    #[serde(default)]
    pub energy_j: Option<f64>,
    #[serde(default)]
    pub stats: Option<BrokerCounters>,
    /// `stats`: one telemetry snapshot taken at the same instant as the
    /// counters, so the two cannot disagree about queue depths.
    #[serde(default)]
    pub telemetry: Option<TelemetrySnapshot>,
    /// `metrics`: the full registry in Prometheus text exposition format.
    #[serde(default)]
    pub metrics: Option<String>,
}

impl Response {
    pub fn empty_ok() -> Self {
        Response { ok: true, ..Default::default() }
    }

    pub fn err(message: impl Into<String>) -> Self {
        Response { ok: false, error: Some(message.into()), ..Response::empty_ok() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_request_round_trips_and_rebuilds_the_spec() {
        let spec = JobSpec::new("acme", "sp.W").timesteps(6).floor_w(80.0).weight(2.0);
        let req = Request::submit(&spec);
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.to_spec().unwrap(), spec);

        // Hand-written minimal submit: optional fields default sanely.
        let minimal: Request =
            serde_json::from_str(r#"{"op":"submit","tenant":"t0","workload":"cg.S"}"#).unwrap();
        let spec = minimal.to_spec().unwrap();
        assert_eq!(spec.timesteps, 0);
        assert_eq!(spec.weight, 1.0);
        assert_eq!(spec.floor_w, None);

        // A submit with no tenant cannot build a spec.
        assert!(Request::op_only("submit").to_spec().is_err());

        // Nor can one whose floor or weight overflowed to infinity.
        for field in ["floor_w", "weight"] {
            let line =
                format!(r#"{{"op":"submit","tenant":"t0","workload":"cg.S","{field}":1e999}}"#);
            let req: Request = serde_json::from_str(&line).unwrap();
            let err = req.to_spec().unwrap_err();
            assert!(err.contains(field), "{err}");
        }
    }

    #[test]
    fn responses_round_trip_with_sparse_fields() {
        let mut resp = Response::empty_ok();
        resp.job = Some(7);
        resp.accepted = Some(false);
        resp.reason = Some("floor cap exceeds the global budget".into());
        let line = serde_json::to_string(&resp).unwrap();
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back, resp);

        let err: Response = serde_json::from_str(r#"{"ok":false,"error":"bad op"}"#).unwrap();
        assert!(!err.ok);
        assert_eq!(err.error.as_deref(), Some("bad op"));
        assert_eq!(err.stats, None);
    }

    /// The `stats` body is `BrokerCounters` itself: its keys, in order,
    /// are the wire shape, and a reply from before v9 still decodes.
    #[test]
    fn the_stats_body_keeps_its_wire_shape() {
        // Every value is a number, so the flat object splits on , and :.
        let line = serde_json::to_string(&BrokerCounters::default()).unwrap();
        let keys: Vec<&str> = line
            .trim_matches(|c| c == '{' || c == '}')
            .split(',')
            .map(|field| field.split(':').next().unwrap().trim_matches('"'))
            .collect();
        assert_eq!(
            keys,
            [
                "submitted",
                "queued",
                "running",
                "completed",
                "rejected",
                "degraded",
                "failed",
                "shed",
                "requeued",
                "nodes_down",
                "budget_w",
                "now_s"
            ]
        );
        let pre_v9 = r#"{"submitted":5,"queued":1,"running":2,"completed":1,"rejected":1,"degraded":0,"budget_w":400.0,"now_s":3.5}"#;
        let old: BrokerCounters = serde_json::from_str(pre_v9).unwrap();
        assert_eq!(
            old,
            BrokerCounters {
                submitted: 5,
                queued: 1,
                running: 2,
                completed: 1,
                rejected: 1,
                budget_w: 400.0,
                now_s: 3.5,
                ..Default::default()
            }
        );
        assert_eq!((old.failed, old.shed, old.requeued, old.nodes_down), (0, 0, 0, 0));
    }

    /// A client reading a reply cut short (a dropped connection) gets a
    /// parse error, never a shorter reply: no proper prefix of a `stats`
    /// reply parses.
    #[test]
    fn every_proper_prefix_of_a_stats_reply_fails_to_parse() {
        let tenant = arcs_metrics::TenantTelemetry { weight: 2.0, queued: 3, ..Default::default() };
        let telemetry = TelemetrySnapshot {
            now_s: 12.5,
            budget_w: 400.0,
            tenants: [("acme".to_string(), tenant), ("t\"é✓".to_string(), Default::default())]
                .into(),
            events: vec!["t=1.000 submit acme#0 \"sp.W\"".into(), "t=2.5e-3 done\n".into()],
            ..Default::default()
        };
        let mut resp = Response::empty_ok();
        resp.stats =
            Some(BrokerCounters { submitted: 4, queued: 3, budget_w: 400.0, ..Default::default() });
        resp.telemetry = Some(telemetry);
        let line = serde_json::to_string(&resp).unwrap();
        assert_eq!(serde_json::from_str::<Response>(&line).unwrap(), resp);
        for (cut, _) in line.char_indices() {
            let torn = &line[..cut];
            assert!(serde_json::from_str::<Response>(torn).is_err(), "{torn} parsed");
        }
    }
}
