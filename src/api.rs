//! The versioned wire API — one schema for the CLI and the serve daemon.
//!
//! Before this module the machine interface was whatever the CLI happened
//! to print. [`Request`]/[`Response`] replace that: a `v: 1` envelope with
//! `deny_unknown_fields` throughout, spoken verbatim on `vtrain serve`'s
//! newline-delimited JSON connections and emitted byte-identically by
//! `vtrain <predict|sweep|validate> --json` (pinned by integration test).
//! Downstream tooling parses one schema regardless of transport.
//!
//! # Wire format
//!
//! One JSON document per line. Field names are the Rust identifiers;
//! enums are externally tagged, so a request kind is the bare string
//! `"Sweep"` and an outcome is `{"Ok": {...}}` or `{"Err": {...}}`.
//! Serialized envelopes are key-sorted ([`to_stable_json`]) so equal
//! values are equal bytes, whoever produced them.
//!
//! ```json
//! {"id": "r1", "kind": "Sweep", "scenario": { ... }, "v": 1}
//! {"id": "r1", "outcome": {"Ok": {"Sweep": { ... }}}, "v": 1}
//! ```
//!
//! # Error codes and exit codes
//!
//! [`ErrorCode`] is the single `Error -> (code, exit)` table both the CLI
//! and the server map through: bad input exits 2, an admission rejection
//! exits 3, a blown deadline/point budget exits 4, anything internal
//! exits 1.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize, Value};
use vtrain_core::search::{AbortReason, CancelToken, DesignPoint, Sweep, SweepGoal, SweepRun};
use vtrain_core::{IterationEstimate, TrainingProjection};
use vtrain_profile::ProfileCache;

use crate::description::Scenario;
use crate::error::Error;

/// The wire-envelope version this build speaks.
pub const WIRE_VERSION: u64 = 1;

/// One request frame.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Request {
    /// Envelope version; must equal [`WIRE_VERSION`].
    pub v: u64,
    /// Caller-chosen correlation id, echoed verbatim in the [`Response`].
    pub id: String,
    /// What to do.
    pub kind: RequestKind,
    /// The scenario to run (required for `Predict`/`Sweep`/`Validate`,
    /// ignored by the server-state kinds).
    #[serde(default)]
    pub scenario: Option<Scenario>,
    /// Per-request limits; absent means the server's defaults.
    #[serde(default)]
    pub budget: Option<Budget>,
    /// Delivery attempt of this request, counted from 1 by retrying
    /// clients re-sending the same idempotent `id`; `0` (the wire
    /// default) means the sender does not track attempts. The server
    /// tallies `attempt > 1` into its `retries_observed` counter.
    #[serde(default)]
    pub attempt: u64,
}

impl Request {
    /// A version-1 request over `scenario` with no budget.
    pub fn new(id: impl Into<String>, kind: RequestKind, scenario: Scenario) -> Request {
        Request {
            v: WIRE_VERSION,
            id: id.into(),
            kind,
            scenario: Some(scenario),
            budget: None,
            attempt: 0,
        }
    }

    /// Serializes the request as one key-sorted wire frame (newline
    /// terminated).
    pub fn to_frame(&self) -> String {
        let mut frame = to_stable_json(self);
        frame.push('\n');
        frame
    }
}

/// The operation a [`Request`] asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestKind {
    /// Simulate the scenario's concrete plan.
    Predict,
    /// Explore the scenario's design space.
    Sweep,
    /// Parse and resolve every section without simulating.
    Validate,
    /// Report the server's aggregate counters (serve only).
    Stats,
    /// Drain in-flight work, then stop accepting (serve only).
    Shutdown,
}

/// Per-request execution limits, enforced cooperatively by the sweep
/// executor's candidate loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Budget {
    /// Wall-clock deadline, milliseconds from admission.
    #[serde(default)]
    pub deadline_ms: Option<u64>,
    /// Maximum design points evaluated before the sweep must stop.
    #[serde(default)]
    pub max_points: Option<u64>,
}

impl Budget {
    /// True if neither limit is set.
    pub fn is_empty(&self) -> bool {
        self.deadline_ms.is_none() && self.max_points.is_none()
    }

    /// The instant the deadline falls on for a budget that starts now
    /// (`None` without a deadline).
    pub fn deadline_from_now(&self) -> Option<Instant> {
        self.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
    }
}

/// One response frame: the request's `id` plus its outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Response {
    /// Envelope version (always [`WIRE_VERSION`]).
    pub v: u64,
    /// The request's correlation id, echoed verbatim.
    pub id: String,
    /// The result or the failure.
    pub outcome: Outcome,
}

impl Response {
    /// A success response.
    pub fn ok(id: impl Into<String>, report: Report) -> Response {
        Response { v: WIRE_VERSION, id: id.into(), outcome: Outcome::Ok(report) }
    }

    /// A failure response.
    pub fn err(id: impl Into<String>, body: ErrorBody) -> Response {
        Response { v: WIRE_VERSION, id: id.into(), outcome: Outcome::Err(body) }
    }

    /// Serializes the response as stable (key-sorted) JSON — the exact
    /// bytes the server writes and `--json` prints.
    pub fn to_json(&self) -> String {
        to_stable_json(self)
    }

    /// [`to_json`](Response::to_json) plus the frame-terminating newline.
    pub fn to_frame(&self) -> String {
        let mut frame = self.to_json();
        frame.push('\n');
        frame
    }
}

/// Success or failure of one request.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Outcome {
    /// The request ran to completion.
    Ok(Report),
    /// The request was rejected or failed.
    Err(ErrorBody),
}

/// The payload of a successful [`Response`], tagged by request kind.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Report {
    /// `Predict` result.
    Predict(PredictReport),
    /// `Sweep` result.
    Sweep(SweepReport),
    /// `Validate` result.
    Validate(ValidateReport),
    /// `Stats` result.
    Stats(ServerStats),
    /// `Shutdown` acknowledgement, sent after the drain completes.
    Shutdown(ShutdownReport),
}

/// A predicted iteration: the resolved model/plan labels, the estimate,
/// and (when the scenario carries a token budget) the end-to-end
/// projection.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PredictReport {
    /// Resolved model display label.
    pub model: String,
    /// Resolved plan display label.
    pub plan: String,
    /// The predicted iteration.
    pub estimate: IterationEstimate,
    /// End-to-end projection over the scenario's token budget, if any.
    #[serde(default)]
    pub projection: Option<TrainingProjection>,
}

/// A sweep's deterministic result: per-variant winner points, without
/// the timing/cache counters of `SweepStats` (those are host- and
/// run-dependent, which would break the byte-identity pin between CLI
/// and server; ask the server's `Stats` kind for aggregate counters).
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepReport {
    /// The goal the sweep guaranteed.
    pub goal: SweepGoal,
    /// One entry per placement variant (exactly one without a placement
    /// axis, labelled `""`).
    pub variants: Vec<SweepVariant>,
    /// True when the server answered in degraded bound-only mode
    /// (`--degrade bound-only` under overload): point `iteration_time`s
    /// are admissible busy floors, not simulated estimates, and
    /// utilization/occupancy/busy fields are zeroed.
    #[serde(default)]
    pub degraded: bool,
}

/// One placement variant of a [`SweepReport`].
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepVariant {
    /// The variant's label (empty without a placement axis).
    pub label: String,
    /// Candidate plans submitted.
    pub candidates: usize,
    /// Candidates pruned as infeasible before lowering.
    pub pruned: usize,
    /// The goal's winner points, in candidate order.
    pub points: Vec<DesignPoint>,
    /// Why the sweep stopped early, if it did.
    #[serde(default)]
    pub aborted: Option<AbortReason>,
}

impl SweepReport {
    /// Builds the wire report of a finished [`SweepRun`].
    pub fn from_run(goal: SweepGoal, run: &SweepRun) -> SweepReport {
        SweepReport {
            goal,
            degraded: false,
            variants: run
                .variants()
                .iter()
                .map(|v| SweepVariant {
                    label: v.label.clone(),
                    candidates: v.outcome.stats.candidates,
                    pruned: v.outcome.stats.pruned,
                    points: v.outcome.points.clone(),
                    aborted: v.outcome.aborted,
                })
                .collect(),
        }
    }
}

/// A validated scenario's resolved summary.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ValidateReport {
    /// Resolved model display label.
    pub model: String,
    /// GPUs in the resolved cluster.
    pub cluster_gpus: usize,
    /// The cluster's GPU name.
    pub gpu: String,
    /// Resolved plan display label, when the scenario has one.
    #[serde(default)]
    pub plan: Option<String>,
    /// The sweep goal, when the scenario has a sweep section.
    #[serde(default)]
    pub sweep_goal: Option<SweepGoal>,
}

/// Aggregate serve-daemon counters, reported by the `Stats` kind.
///
/// Counters are monotonic over the daemon's lifetime; clients diff two
/// reports to attribute traffic to an interval (e.g. the cache hit-rate
/// of one repeated scenario).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ServerStats {
    /// Frames admitted (parsed and queued or answered), including
    /// rejected ones.
    pub requests: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests rejected at admission with `Busy`.
    pub busy_rejections: u64,
    /// Requests that blew their deadline or point budget.
    pub deadline_exceeded: u64,
    /// Requests queued but not yet executing, at report time.
    pub queue_depth: u64,
    /// Requests executing at report time.
    pub executing: u64,
    /// Shared profile-cache hits over the daemon's lifetime.
    pub cache_hits: u64,
    /// Shared profile-cache misses over the daemon's lifetime.
    pub cache_misses: u64,
    /// Profiles currently cached.
    pub cache_entries: u64,
    /// Profiles evicted by the capacity bound.
    pub cache_evictions: u64,
    /// Median request latency, ms (admission to response write; the µs
    /// quantile below, truncated).
    pub latency_p50_ms: u64,
    /// 95th-percentile request latency, ms.
    pub latency_p95_ms: u64,
    /// 99th-percentile request latency, ms.
    pub latency_p99_ms: u64,
    /// Median request latency, µs (admission to response write; the
    /// upper bound of its log₂ histogram bucket).
    #[serde(default)]
    pub latency_p50_us: u64,
    /// 95th-percentile request latency, µs.
    #[serde(default)]
    pub latency_p95_us: u64,
    /// 99th-percentile request latency, µs.
    #[serde(default)]
    pub latency_p99_us: u64,
    /// Requests whose execution panicked; each was answered `Internal`
    /// with the panic message while the worker respawned.
    #[serde(default)]
    pub panics: u64,
    /// Requests carrying a client-reported `attempt > 1` — retries the
    /// server actually saw again.
    #[serde(default)]
    pub retries_observed: u64,
    /// Sweep requests answered from the busy floor because the
    /// queue was past its degrade high-water mark.
    #[serde(default)]
    pub degraded_responses: u64,
    /// Profile-cache snapshots persisted (tmp-file + atomic rename).
    #[serde(default)]
    pub snapshot_saves: u64,
    /// Snapshots successfully restored at startup (0 or 1).
    #[serde(default)]
    pub snapshot_loads: u64,
    /// Startup snapshot restores rejected (missing, truncated, corrupt,
    /// or version-mismatched) — each one a logged cold start.
    #[serde(default)]
    pub snapshot_load_failures: u64,
}

/// Acknowledgement of a `Shutdown` frame, sent once the queue has
/// drained and no request is executing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ShutdownReport {
    /// Requests completed over the daemon's lifetime, including those
    /// drained after the shutdown frame arrived.
    pub completed: u64,
}

/// The stable error classification shared by the CLI's exit codes and
/// the server's wire errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorCode {
    /// The request or scenario is malformed or infeasible (exit 2).
    BadRequest,
    /// The admission queue was full or the server is draining (exit 3).
    Busy,
    /// The deadline or point budget was exceeded (exit 4).
    DeadlineExceeded,
    /// An internal or I/O failure (exit 1).
    Internal,
}

impl ErrorCode {
    /// The one `Error -> code` table (the CLI and the server must never
    /// disagree on classification).
    pub fn classify(error: &Error) -> ErrorCode {
        match error {
            Error::Model(_)
            | Error::Plan(_)
            | Error::Estimate(_)
            | Error::Parse(_)
            | Error::Scenario(_) => ErrorCode::BadRequest,
            Error::Busy(_) => ErrorCode::Busy,
            Error::Deadline(_) => ErrorCode::DeadlineExceeded,
            Error::Io(_) | Error::Server(_) => ErrorCode::Internal,
        }
    }

    /// The CLI process exit code of this classification.
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 2,
            ErrorCode::Busy => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Internal => 1,
        }
    }
}

/// The failure payload of a [`Response`]: classification, the display
/// message, and — when the message carries parser position context —
/// the structured line/column.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ErrorBody {
    /// Stable classification (drives the CLI exit code).
    pub code: ErrorCode,
    /// Human-readable description.
    pub message: String,
    /// Source line of a parse failure, when known.
    #[serde(default)]
    pub line: Option<u64>,
    /// Source column of a parse failure, when known.
    #[serde(default)]
    pub column: Option<u64>,
    /// On a `Busy` rejection: the server's backoff hint, derived from
    /// queue depth and observed service time. Retrying clients should
    /// wait at least this long before re-sending.
    #[serde(default)]
    pub retry_after_ms: Option<u64>,
}

impl ErrorBody {
    /// Classifies `error` and extracts any `line N column M` context
    /// from its message.
    pub fn from_error(error: &Error) -> ErrorBody {
        let message = error.to_string();
        let (line, column) = match error {
            Error::Parse(_) => (number_after(&message, "line "), number_after(&message, "column ")),
            _ => (None, None),
        };
        ErrorBody { code: ErrorCode::classify(error), message, line, column, retry_after_ms: None }
    }

    /// A bare classified message (no position context).
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorBody {
        ErrorBody { code, message: message.into(), line: None, column: None, retry_after_ms: None }
    }

    /// Attaches a backoff hint (the `Busy` rejection path).
    pub fn with_retry_after(mut self, ms: u64) -> ErrorBody {
        self.retry_after_ms = Some(ms);
        self
    }
}

/// The first unsigned integer directly after `prefix` in `text`.
fn number_after(text: &str, prefix: &str) -> Option<u64> {
    let rest = &text[text.find(prefix)? + prefix.len()..];
    let digits: &str =
        &rest[..rest.len() - rest.trim_start_matches(|c: char| c.is_ascii_digit()).len()];
    digits.parse().ok()
}

/// Serializes any [`Serialize`] value with every object's keys sorted —
/// the stable form in which equal values are equal bytes regardless of
/// field declaration order or producer.
pub fn to_stable_json<T: Serialize>(value: &T) -> String {
    let mut v = value.to_value();
    sort_keys(&mut v);
    serde_json::to_string(&v).expect("stable serialization is infallible")
}

fn sort_keys(value: &mut Value) {
    match value {
        Value::Object(fields) => {
            for (_, v) in fields.iter_mut() {
                sort_keys(v);
            }
            fields.sort_by(|a, b| a.0.cmp(&b.0));
        }
        Value::Array(items) => {
            for v in items.iter_mut() {
                sort_keys(v);
            }
        }
        _ => {}
    }
}

/// Executes one request against a shared profile cache and wraps the
/// result (or failure) in a [`Response`] — the single execution path
/// behind both `vtrain serve` and the CLI's `--json` mode, which is what
/// makes their bytes identical for the same scenario.
///
/// `threads` overrides the sweep worker count (`None` = all cores);
/// sweep results are thread-count-independent, so this never changes
/// response bytes. The server-state kinds (`Stats`, `Shutdown`) are
/// answered by the daemon before reaching this function and report
/// `BadRequest` here.
pub fn execute(request: &Request, cache: &Arc<ProfileCache>, threads: Option<usize>) -> Response {
    match run(request, cache, threads) {
        Ok(report) => Response::ok(request.id.clone(), report),
        Err(e) => Response::err(request.id.clone(), ErrorBody::from_error(&e)),
    }
}

/// [`execute`] in degraded bound-only mode — the load-shedding answer a
/// saturated `vtrain serve --degrade bound-only` hands out instead of a
/// `Busy` rejection. A `Sweep` request is priced at each candidate's
/// admissible busy floor ([`Sweep::bound_only`](vtrain_core::search::Sweep::bound_only)),
/// which prices each candidate's slot table through the shared profile
/// cache, and flagged `degraded: true` in its report; every other kind
/// runs exactly as [`execute`] (prediction and validation are already
/// cheap).
///
/// Point budgets do not apply (floors are not evaluations); a deadline
/// is still honored.
pub fn execute_degraded(
    request: &Request,
    cache: &Arc<ProfileCache>,
    threads: Option<usize>,
) -> Response {
    if request.kind != RequestKind::Sweep {
        return execute(request, cache, threads);
    }
    match run_degraded(request, cache) {
        Ok(report) => Response::ok(request.id.clone(), report),
        Err(e) => Response::err(request.id.clone(), ErrorBody::from_error(&e)),
    }
}

fn run_degraded(request: &Request, cache: &Arc<ProfileCache>) -> Result<Report, Error> {
    let (budget, deadline, scenario) = preamble(request)?;
    let scenario = scenario?;
    scenario.check()?;
    let goal = scenario.goal()?;
    let run = scenario.sweep()?.cache(Arc::clone(cache)).bound_only();
    if deadline.is_some_and(|d| Instant::now() >= d) {
        return Err(Error::deadline(format!(
            "degraded sweep finished after its {} ms deadline",
            budget.deadline_ms.unwrap_or(0)
        )));
    }
    let mut report = SweepReport::from_run(goal, &run);
    report.degraded = true;
    Ok(Report::Sweep(report))
}

/// Runs `sweep` within `budget`, whose deadline falls on `deadline` (its
/// [`Budget::deadline_from_now`] at a request's entry on the wire, at the
/// sweep's start in the CLI). A blown limit fails the sweep rather than
/// truncating it: a budgeted caller asked for an answer within the
/// budget, and a partial winner set is not one. A blown deadline or point
/// budget maps to [`ErrorCode::DeadlineExceeded`], a cancellation to an
/// internal error. The wire API and the CLI's text sweeps both run here,
/// so they fail with the same message.
///
/// # Errors
///
/// The first aborted placement variant's limit, as above.
pub fn run_within_budget(
    mut sweep: Sweep,
    budget: &Budget,
    deadline: Option<Instant>,
) -> Result<SweepRun, Error> {
    if !budget.is_empty() {
        sweep = sweep.cancel(CancelToken::with_limits(deadline, budget.max_points));
    }
    let run = sweep.run();
    for variant in run.variants() {
        let message = match variant.outcome.aborted {
            None => continue,
            Some(AbortReason::Deadline) => format!(
                "sweep exceeded its {} ms deadline after {} evaluated points",
                budget.deadline_ms.unwrap_or(0),
                variant.outcome.stats.evaluated
            ),
            Some(AbortReason::Budget) => {
                format!("sweep exceeded its {}-point budget", budget.max_points.unwrap_or(0))
            }
            Some(AbortReason::Cancelled) => return Err(Error::server("sweep cancelled")),
        };
        return Err(Error::deadline(message));
    }
    Ok(run)
}

/// A request's budget, the deadline that budget sets from its entry, and
/// its scenario, or the error a request that needs one gets without it (a
/// server-state request never reads it).
type Preamble<'a> = (Budget, Option<Instant>, Result<&'a Scenario, Error>);

/// What every executed request starts with: its wire-version check, then
/// its [`Preamble`].
///
/// # Errors
///
/// An unsupported wire version.
fn preamble(request: &Request) -> Result<Preamble<'_>, Error> {
    if request.v != WIRE_VERSION {
        return Err(Error::scenario(format!(
            "unsupported wire version {} (this build speaks v{WIRE_VERSION})",
            request.v
        )));
    }
    let budget = request.budget.unwrap_or_default();
    let deadline = budget.deadline_from_now();
    let scenario = request
        .scenario
        .as_ref()
        .ok_or_else(|| Error::scenario(format!("{:?} request needs a `scenario`", request.kind)));
    Ok((budget, deadline, scenario))
}

fn run(
    request: &Request,
    cache: &Arc<ProfileCache>,
    threads: Option<usize>,
) -> Result<Report, Error> {
    let (budget, deadline, scenario) = preamble(request)?;
    match request.kind {
        RequestKind::Predict => {
            let scenario = scenario?;
            scenario.check()?;
            let model = scenario.model()?;
            let plan = scenario.plan()?;
            let cost = scenario.cost_model()?;
            let estimate = scenario.estimator_with(Arc::clone(cache))?.estimate(&model, &plan)?;
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(Error::deadline(format!(
                    "prediction finished after its {} ms deadline",
                    budget.deadline_ms.unwrap_or(0)
                )));
            }
            let projection = scenario.tokens.map(|tokens| {
                TrainingProjection::project(
                    estimate.iteration_time,
                    estimate.tokens_per_iteration,
                    tokens,
                    estimate.num_gpus,
                    &cost,
                )
            });
            Ok(Report::Predict(PredictReport {
                model: model.to_string(),
                plan: plan.to_string(),
                estimate,
                projection,
            }))
        }
        RequestKind::Sweep => {
            let scenario = scenario?;
            scenario.check()?;
            let goal = scenario.goal()?;
            let mut builder = scenario.sweep()?.cache(Arc::clone(cache));
            if let Some(threads) = threads {
                builder = builder.threads(threads);
            }
            let run = run_within_budget(builder, &budget, deadline)?;
            Ok(Report::Sweep(SweepReport::from_run(goal, &run)))
        }
        RequestKind::Validate => {
            let scenario = scenario?;
            scenario.check()?;
            let model = scenario.model()?;
            let cluster = scenario.cluster()?;
            let plan = scenario
                .parallelism
                .as_ref()
                .map(|_| scenario.plan().map(|p| p.to_string()))
                .transpose()?;
            let sweep_goal = scenario.sweep.as_ref().map(|_| scenario.goal()).transpose()?;
            Ok(Report::Validate(ValidateReport {
                model: model.to_string(),
                cluster_gpus: cluster.total_gpus,
                gpu: cluster.gpu.name.clone(),
                plan,
                sweep_goal,
            }))
        }
        RequestKind::Stats | RequestKind::Shutdown => Err(Error::scenario(format!(
            "{:?} is a server-state request; only `vtrain serve` answers it",
            request.kind
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_scenario() -> Scenario {
        Scenario::from_json(
            r#"{
                "model": { "preset": "megatron-1.7B" },
                "cluster": { "preset": "aws-p4d", "total_gpus": 16 },
                "sweep": { "global_batch": 16,
                           "limits": { "max_tensor": 2, "max_data": 2,
                                       "max_pipeline": 2, "max_micro_batch": 1 } }
            }"#,
        )
        .expect("test scenario parses")
    }

    #[test]
    fn stable_json_sorts_keys_recursively() {
        let req = Request::new("r-1", RequestKind::Sweep, sweep_scenario());
        let json = to_stable_json(&req);
        let v = json.find("\"v\":").unwrap();
        let id = json.find("\"id\":").unwrap();
        let kind = json.find("\"kind\":").unwrap();
        assert!(id < kind && kind < v, "top-level keys sorted: {json}");
        // Nested scenario keys sort too.
        let cluster = json.find("\"cluster\":").unwrap();
        let model = json.find("\"model\":").unwrap();
        assert!(cluster < model);
        // And the value round-trips from the sorted form.
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, "r-1");
        assert_eq!(back.kind, RequestKind::Sweep);
    }

    #[test]
    fn stats_without_microsecond_latency_still_parse() {
        // A v1 `Stats` payload from before the µs quantiles existed.
        let old = r#"{"requests": 3, "completed": 3, "busy_rejections": 0,
            "deadline_exceeded": 0, "queue_depth": 0, "executing": 0, "cache_hits": 1,
            "cache_misses": 2, "cache_entries": 2, "cache_evictions": 0,
            "latency_p50_ms": 1, "latency_p95_ms": 3, "latency_p99_ms": 7}"#;
        let stats: ServerStats = serde_json::from_str(old).expect("old stats parse");
        assert_eq!((stats.latency_p50_ms, stats.latency_p99_ms), (1, 7));
        assert_eq!((stats.latency_p50_us, stats.latency_p95_us, stats.latency_p99_us), (0, 0, 0));
    }

    #[test]
    fn envelope_rejects_unknown_fields_and_wrong_version() {
        assert!(serde_json::from_str::<Request>(
            r#"{"v": 1, "id": "x", "kind": "Stats", "extra": true}"#
        )
        .is_err());
        let req: Request = serde_json::from_str(r#"{"v": 9, "id": "x", "kind": "Predict"}"#)
            .expect("future versions parse; execution rejects them");
        let resp = execute(&req, &Arc::new(ProfileCache::new()), Some(1));
        match resp.outcome {
            Outcome::Err(body) => {
                assert_eq!(body.code, ErrorCode::BadRequest);
                assert!(body.message.contains("wire version"), "{}", body.message);
            }
            Outcome::Ok(_) => panic!("v9 must be rejected"),
        }
    }

    #[test]
    fn execute_sweep_returns_points_and_echoes_id() {
        let cache = Arc::new(ProfileCache::new());
        let req = Request::new("sweep-42", RequestKind::Sweep, sweep_scenario());
        let resp = execute(&req, &cache, Some(2));
        assert_eq!(resp.id, "sweep-42");
        assert_eq!(resp.v, WIRE_VERSION);
        match resp.outcome {
            Outcome::Ok(Report::Sweep(report)) => {
                assert_eq!(report.variants.len(), 1);
                assert!(!report.variants[0].points.is_empty());
                assert!(report.variants[0].aborted.is_none());
            }
            other => panic!("expected a sweep report, got {other:?}"),
        }
    }

    #[test]
    fn degraded_execution_floors_the_sweep_and_flags_it() {
        let cache = Arc::new(ProfileCache::new());
        let req = Request::new("deg-1", RequestKind::Sweep, sweep_scenario());
        let full = execute(&req, &cache, Some(1));
        let degraded = execute_degraded(&req, &cache, Some(1));
        let report = |resp: &Response| match &resp.outcome {
            Outcome::Ok(Report::Sweep(r)) => r.clone(),
            other => panic!("expected sweep report, got {other:?}"),
        };
        let (full, degraded) = (report(&full), report(&degraded));
        assert!(degraded.degraded && !full.degraded);
        assert_eq!(degraded.variants.len(), full.variants.len());
        let (fv, dv) = (&full.variants[0], &degraded.variants[0]);
        assert_eq!(fv.points.len(), dv.points.len(), "same feasible set");
        for (f, d) in fv.points.iter().zip(&dv.points) {
            assert_eq!(f.plan, d.plan);
            assert!(d.estimate.iteration_time <= f.estimate.iteration_time, "floors floor");
        }
        // Non-sweep kinds pass through undegraded.
        let validate = Request::new("v-1", RequestKind::Validate, sweep_scenario());
        assert!(matches!(
            execute_degraded(&validate, &cache, Some(1)).outcome,
            Outcome::Ok(Report::Validate(_))
        ));
    }

    #[test]
    fn zero_point_budget_maps_to_deadline_code() {
        let cache = Arc::new(ProfileCache::new());
        let mut req = Request::new("tight", RequestKind::Sweep, sweep_scenario());
        req.budget = Some(Budget { deadline_ms: None, max_points: Some(0) });
        let resp = execute(&req, &cache, Some(1));
        match resp.outcome {
            Outcome::Err(body) => {
                assert_eq!(body.code, ErrorCode::DeadlineExceeded);
                assert_eq!(body.code.exit_code(), 4);
            }
            Outcome::Ok(_) => panic!("a 0-point budget cannot succeed"),
        }
    }

    #[test]
    fn parse_errors_carry_structured_position() {
        let err = Scenario::from_json("{\n  \"model\": nope").unwrap_err();
        let body = ErrorBody::from_error(&err);
        assert_eq!(body.code, ErrorCode::BadRequest);
        assert_eq!(body.line, Some(2));
        assert!(body.column.is_some());
    }

    #[test]
    fn exit_codes_follow_the_documented_table() {
        assert_eq!(ErrorCode::classify(&Error::scenario("x")).exit_code(), 2);
        assert_eq!(ErrorCode::classify(&Error::busy("x")).exit_code(), 3);
        assert_eq!(ErrorCode::classify(&Error::deadline("x")).exit_code(), 4);
        assert_eq!(ErrorCode::classify(&Error::io("x")).exit_code(), 1);
        assert_eq!(ErrorCode::classify(&Error::server("x")).exit_code(), 1);
    }
}
