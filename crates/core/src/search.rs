//! Design-space exploration over `(t, d, p, m)` 3D-parallelism plans
//! (paper §V-A, Figs. 10/11, Tables I/II).
//!
//! Every simulation point is independent, so the sweep fans out over a
//! work-stealing pool of scoped threads — the software analogue of the
//! paper's "completely parallelizable over multiple CPU cores"
//! observation (§III-F). Infeasible candidates are pruned by the cheap
//! validation stage before any lowering work; feasible points share the
//! estimator's profile cache, so each unique operator signature is
//! profiled once per sweep rather than once per plan.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use vtrain_model::ModelConfig;
use vtrain_net::{NetworkBackend, Topology};
use vtrain_parallel::{ClusterSpec, ParallelConfig, PipelineSchedule};
use vtrain_profile::ProfileCache;

use crate::cost::{CostModel, TrainingProjection};
use crate::estimate::{Estimator, EstimatorScratch, IterationEstimate, StageNanos};
use crate::sim::BusyBreakdown;

/// Bounds of the exhaustive sweep (paper §V-A sweeps `t ≤ 16`, `d ≤ 32`,
/// `p ≤ 105`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchLimits {
    /// Maximum tensor-parallel degree.
    pub max_tensor: usize,
    /// Maximum data-parallel degree.
    pub max_data: usize,
    /// Maximum pipeline depth.
    pub max_pipeline: usize,
    /// Maximum micro-batch size.
    pub max_micro_batch: usize,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits { max_tensor: 16, max_data: 32, max_pipeline: 105, max_micro_batch: 8 }
    }
}

/// One evaluated design point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct DesignPoint {
    /// The plan.
    pub plan: ParallelConfig,
    /// Its simulated verdict.
    pub estimate: IterationEstimate,
}

impl DesignPoint {
    /// End-to-end projection of this point over a token budget.
    pub fn project(&self, total_tokens: u64, cost: &CostModel) -> TrainingProjection {
        TrainingProjection::project(
            self.estimate.iteration_time,
            self.estimate.tokens_per_iteration,
            total_tokens,
            self.estimate.num_gpus,
            cost,
        )
    }
}

/// What a sweep must guarantee about its result (and, for `Best`, the
/// license for bound-guided pruning).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepGoal {
    /// Evaluate every feasible candidate and return all of them. No
    /// bounds are computed.
    #[default]
    Exhaustive,
    /// Return exactly the Pareto frontier minimizing
    /// `(iteration_time, num_gpus)`: the exhaustive sweep, filtered. No
    /// bounds are computed: on the Fig. 10 grids a frontier dominates
    /// few or no candidates early, so pricing floors (and visiting by GPU
    /// count rather than by graph shape) costs more than it saves.
    Front,
    /// Return exactly the single fastest feasible point (earliest
    /// candidate on ties). Candidates whose busy floor — the busiest
    /// stream's exact busy time, from the priced slot table — is
    /// strictly slower than the incumbent best are skipped without
    /// lowering.
    Best,
}

/// Why a sweep stopped before visiting every candidate.
///
/// Attached to [`SweepOutcome::aborted`] when a [`CancelToken`] fired
/// mid-sweep; `None` means the sweep ran to completion and its points
/// are the full (goal-filtered) result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortReason {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The token's deadline passed.
    Deadline,
    /// The token's evaluated-point budget was exhausted.
    Budget,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    /// Evaluation permits remaining; `None` means unbudgeted.
    permits: Option<AtomicU64>,
}

/// A cooperative cancellation handle threaded into the sweep executor's
/// candidate loop (the `vtrain serve` per-request budget mechanism).
///
/// Workers poll the token once per claimed candidate: an explicit
/// [`cancel`](CancelToken::cancel), an elapsed deadline, or an exhausted
/// point budget stops every worker at the next claim. The outcome then
/// carries the points evaluated so far plus the
/// [`AbortReason`](SweepOutcome::aborted) — a truncated result, *not*
/// the goal's guaranteed winner set.
///
/// Clones share one state, so a server can hand the executor a token and
/// keep a handle to fire it from another thread.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl CancelToken {
    /// A token that never fires on its own (cancellable only via
    /// [`cancel`](CancelToken::cancel)).
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token with an optional wall-clock deadline and an optional
    /// budget of evaluated points — the serve-request shape.
    pub fn with_limits(deadline: Option<Instant>, max_points: Option<u64>) -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline,
                permits: max_points.map(AtomicU64::new),
            }),
        }
    }

    /// A token that fires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> CancelToken {
        CancelToken::with_limits(Instant::now().checked_add(timeout), None)
    }

    /// Requests cancellation; every sweep polling this token stops at
    /// its next candidate claim.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// The reason work should stop right now, if any (explicit
    /// cancellation wins over an elapsed deadline).
    fn should_stop(&self) -> Option<AbortReason> {
        if self.is_cancelled() {
            return Some(AbortReason::Cancelled);
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(AbortReason::Deadline),
            _ => None,
        }
    }

    /// Claims one evaluation permit; `false` means the point budget is
    /// spent and the caller must stop instead of evaluating.
    fn claim_permit(&self) -> bool {
        let Some(permits) = &self.inner.permits else { return true };
        permits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |left| left.checked_sub(1))
            .is_ok()
    }
}

/// Execution report of one sweep.
///
/// Cache counters are tallied per worker at each lookup and summed, so
/// they attribute exactly this sweep's traffic even when other work
/// (another sweep, ad-hoc estimates) drives the same shared cache
/// concurrently.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct SweepStats {
    /// Candidate plans submitted.
    pub candidates: usize,
    /// Candidates pruned by the validation stage before lowering.
    pub pruned: usize,
    /// Feasible candidates skipped because their busy floor already
    /// lost to the incumbent (only nonzero under [`SweepGoal::Best`]).
    pub bound_pruned: usize,
    /// Candidates lowered and simulated
    /// (`candidates − pruned − bound_pruned` for a completed sweep;
    /// fewer when a [`CancelToken`] aborted it).
    pub evaluated: usize,
    /// Profile-cache hits attributed to this sweep.
    pub cache_hits: u64,
    /// Profile-cache misses (signatures profiled) during this sweep.
    pub cache_misses: u64,
    /// Evaluated points lowered from scratch through the graph builder.
    #[serde(default)]
    pub delta_fresh: u64,
    /// Evaluated points delta-patched from a shape-compatible neighbor's
    /// cached graph structure (under either network backend).
    #[serde(default)]
    pub delta_patched: u64,
    /// Worker threads used: the requested count, capped at the number of
    /// candidates.
    pub threads: usize,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

impl SweepStats {
    /// Fraction of profile lookups served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Evaluated (feasible) design points per wall-clock second.
    ///
    /// Guarded against degenerate timers: a zero (or non-finite) wall
    /// clock reports 0 instead of leaking `inf`/`NaN` into serialized
    /// benchmark records.
    pub fn points_per_sec(&self) -> f64 {
        if self.wall_s.is_finite() && self.wall_s > 0.0 {
            self.evaluated as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Wall-clock attribution of one sweep across the estimation pipeline's
/// stages, captured when [`Sweep::stage_profile`] is enabled.
///
/// Stage times are summed over all workers, so on a multi-threaded sweep
/// `stages.total_ns()` approaches `wall_ns × threads` (CPU time, not
/// elapsed time); [`StageProfile::attributed_fraction`] normalizes by
/// the thread count.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct StageProfile {
    /// Per-stage time (validate / lower / simulate / summarize), summed
    /// over workers.
    pub stages: StageNanos,
    /// Time spent on the busy floors (only nonzero under
    /// [`SweepGoal::Best`]), summed over workers: the slot pricing and
    /// the floor of every visited point, pruned or not. A surviving
    /// point's estimate reuses the pricing, so its `lower_ns` covers
    /// only the lowering itself; under every other goal the pricing is
    /// part of `lower_ns`.
    pub bound_ns: u64,
    /// Time spent ordering the candidate visit — GPU-count sorting under
    /// `Best`, shape-key grouping otherwise (a once-per-sweep driver
    /// pass, not per-point work).
    #[serde(default)]
    pub order_ns: u64,
    /// Elapsed wall-clock time of the whole sweep.
    pub wall_ns: u64,
    /// Worker threads the attribution is summed over.
    pub threads: usize,
}

impl StageProfile {
    /// Total time attributed to a named stage (the four pipeline stages
    /// plus bound pricing and candidate ordering).
    pub fn attributed_ns(&self) -> u64 {
        self.stages.total_ns() + self.bound_ns + self.order_ns
    }

    /// Fraction of the sweep's total CPU budget
    /// (`wall_ns × threads`) attributed to named stages — the remainder
    /// is scheduling, stealing, and merge overhead.
    pub fn attributed_fraction(&self) -> f64 {
        let budget = self.wall_ns.saturating_mul(self.threads.max(1) as u64);
        if budget == 0 {
            0.0
        } else {
            self.attributed_ns() as f64 / budget as f64
        }
    }
}

/// The result of a sweep: feasible design points in candidate order plus
/// the execution report.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepOutcome {
    /// Feasible points, in candidate order (deterministic for a given
    /// candidate list regardless of thread count).
    pub points: Vec<DesignPoint>,
    /// Execution report.
    pub stats: SweepStats,
    /// Per-stage wall-clock attribution; `Some` iff the sweep ran with
    /// [`Sweep::stage_profile`] enabled.
    pub stage_profile: Option<StageProfile>,
    /// Why the sweep stopped early, if it did; `None` for a completed
    /// sweep. (Defaulted on deserialization so records predating
    /// cancellation still parse.)
    #[serde(default)]
    pub aborted: Option<AbortReason>,
}

/// Enumerates the candidate plans of an exhaustive `(t, d, p, m)` sweep.
///
/// Tensor degrees are powers of two within the NVLink domain; pipeline
/// depths divide the layer count evenly (the paper's design methodology of
/// identically-shaped stages); `d·m` must divide the global batch.
pub fn enumerate_candidates(
    model: &ModelConfig,
    cluster: &ClusterSpec,
    global_batch: usize,
    schedule: PipelineSchedule,
    limits: &SearchLimits,
) -> Vec<ParallelConfig> {
    let mut tensors = Vec::new();
    let mut t = 1;
    while t <= limits.max_tensor.min(cluster.gpus_per_node) {
        if model.num_heads().is_multiple_of(t) && model.hidden_size().is_multiple_of(t) {
            tensors.push(t);
        }
        t *= 2;
    }
    let pipelines: Vec<usize> = (1..=limits.max_pipeline.min(model.num_layers()))
        .filter(|&p| model.num_layers().is_multiple_of(p))
        .collect();
    let mut out = Vec::new();
    for &t in &tensors {
        for d in 1..=limits.max_data {
            if !global_batch.is_multiple_of(d) {
                continue;
            }
            for &p in &pipelines {
                if t * d * p > cluster.total_gpus {
                    continue;
                }
                let mut m = 1;
                while m <= limits.max_micro_batch {
                    if (global_batch / d).is_multiple_of(m) {
                        let plan = ParallelConfig::builder()
                            .tensor(t)
                            .data(d)
                            .pipeline(p)
                            .micro_batch(m)
                            .global_batch(global_batch)
                            .schedule(schedule)
                            .build()
                            .expect("enumerated divisibility holds");
                        out.push(plan);
                    }
                    m *= 2;
                }
            }
        }
    }
    out
}

/// The sweep executor: evaluates candidates on a work-stealing thread
/// pool, pruning infeasible plans with the cheap validation stage and
/// sharing the estimator's profile cache across workers.
///
/// Each worker owns a contiguous candidate range with an atomic cursor,
/// a private result buffer, and a private [`EstimatorScratch`] (so
/// steady-state evaluation allocates nothing per point); exhausted
/// workers steal from the cursors of loaded neighbours, and buffers
/// merge once at the end — no per-result lock anywhere. Results are
/// returned in candidate order, so sweeps are deterministic regardless
/// of thread count or interleaving.
///
/// Under [`SweepGoal::Best`], candidates whose
/// [busy floor](Estimator::lower_bound) is strictly slower than the
/// fastest evaluated point so far (one atomic incumbent shared across
/// workers) are skipped after their slot pricing, before lowering. The
/// outcome is then filtered to exactly the goal's winners — provably the
/// same winners the exhaustive sweep returns.
///
/// Workers split the candidate axis only: threads beyond the candidate
/// count stay idle.
fn run_sweep(
    estimator: &Estimator,
    model: &ModelConfig,
    candidates: &[ParallelConfig],
    threads: usize,
    goal: SweepGoal,
    profile: bool,
    cancel: Option<&CancelToken>,
) -> SweepOutcome {
    let started = Instant::now();
    let _sweep_span = vtrain_obs::span!("sweep.run", candidates = candidates.len() as u64);
    let threads = threads.clamp(1, candidates.len().max(1));
    let pruned = AtomicUsize::new(0);
    let bound_pruned = AtomicUsize::new(0);
    // First abort reason wins; 0 = running. Workers poll this (and the
    // token) once per claimed candidate, so a fired token stops every
    // worker within one evaluation.
    let abort = AtomicUsize::new(0);
    let flag_abort = |reason: AbortReason| {
        let code = match reason {
            AbortReason::Cancelled => 1,
            AbortReason::Deadline => 2,
            AbortReason::Budget => 3,
        };
        let _ = abort.compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
    };
    // Only `Best` prunes by bound: the fastest evaluated iteration time
    // so far, in nanoseconds. A candidate whose admissible floor is
    // strictly slower can neither win nor tie the winner, so the result
    // is the exhaustive sweep's regardless of thread timing.
    let prune = goal == SweepGoal::Best;
    let incumbent_ns = AtomicU64::new(u64::MAX);

    // `Best` visits likely-fastest points first (more GPUs → shorter
    // iterations in the bulk of the space): the incumbent tightens
    // immediately and the slow small-GPU tail prunes instead of being
    // evaluated. The stable sort keeps candidate order within a GPU count.
    //
    // Every other goal groups candidates by graph shape (stable within a
    // group), so shape-compatible neighbors land back to back in each
    // worker's scratch and lower as patches rather than from scratch.
    // Either reordering only changes *visit* order: results are re-sorted
    // by candidate index below, so the outcome is byte-identical to the
    // unordered sweep.
    let order_t0 = profile.then(Instant::now);
    let mut order: Vec<u32> = (0..candidates.len() as u32).collect();
    if prune {
        order.sort_by_key(|&i| std::cmp::Reverse(candidates[i as usize].num_gpus()));
    } else {
        let mut group_of = HashMap::new();
        let groups: Vec<u32> = candidates
            .iter()
            .map(|c| {
                let next = group_of.len() as u32;
                *group_of.entry(estimator.shape_key(model, c)).or_insert(next)
            })
            .collect();
        order.sort_by_key(|&i| groups[i as usize]);
    }
    let order_ns = order_t0.map_or(0, |t| t.elapsed().as_nanos() as u64);

    // Contiguous per-worker ranges: (cursor, end). A worker drains its own
    // range, then scans the others for leftover work; `fetch_add` claims
    // are exclusive, so every index is evaluated exactly once.
    let chunk = candidates.len().div_ceil(threads);
    let ranges: Vec<(AtomicUsize, usize)> = (0..threads)
        .map(|w| (AtomicUsize::new(w * chunk), ((w + 1) * chunk).min(candidates.len())))
        .collect();

    struct WorkerYield {
        buf: Vec<(u32, DesignPoint)>,
        cache: vtrain_profile::CacheStats,
        delta_counts: (u64, u64),
        stages: StageNanos,
        bound_ns: u64,
    }
    let run_worker = |w: usize| -> WorkerYield {
        let mut buf: Vec<(u32, DesignPoint)> = Vec::new();
        let mut scratch = EstimatorScratch::default();
        let mut stages = StageNanos::default();
        let mut bound_ns = 0u64;
        'steal: for victim in 0..threads {
            let (cursor, end) = &ranges[(w + victim) % threads];
            loop {
                if abort.load(Ordering::Relaxed) != 0 {
                    break 'steal;
                }
                if let Some(reason) = cancel.and_then(CancelToken::should_stop) {
                    flag_abort(reason);
                    break 'steal;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= *end {
                    break;
                }
                let i = order[i] as usize;
                let plan = candidates[i];
                let t0 = profile.then(Instant::now);
                let feasible = estimator.validate(model, &plan).is_ok();
                if let Some(t0) = t0 {
                    stages.validate_ns += t0.elapsed().as_nanos() as u64;
                }
                if !feasible {
                    pruned.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Slot pricing comes first. `Best` tests the floor between
                // pricing and lowering, so a point that survives prices
                // once. There the pricing and the floor are a stage of
                // their own: folding them into lowering would hide the
                // cost of pruning from the attribution table. Elsewhere
                // the pricing is part of lowering.
                let t0 = profile.then(Instant::now);
                estimator.price_compact(model, &plan, &mut scratch);
                let mut lower_from = t0;
                if prune {
                    let floor = estimator.busy_floor(&plan, &mut scratch);
                    lower_from = profile.then(Instant::now);
                    if let (Some(t0), Some(t1)) = (t0, lower_from) {
                        bound_ns += (t1 - t0).as_nanos() as u64;
                    }
                    if incumbent_ns.load(Ordering::Relaxed) < floor.as_nanos() {
                        bound_pruned.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                }
                // The point budget is spent per *evaluation*: pruned
                // candidates cost nothing against it.
                if let Some(token) = cancel {
                    if !token.claim_permit() {
                        flag_abort(AbortReason::Budget);
                        break 'steal;
                    }
                }
                // Both paths run the same fused compact pipeline; the
                // profiled variant times lower/simulate/summarize from
                // inside it, so delta patches show up as shrunken
                // `lower_ns` rather than a separate path.
                let estimate = estimator.estimate_priced(
                    model,
                    &plan,
                    &mut scratch,
                    profile.then_some(&mut stages).zip(lower_from),
                );
                if prune {
                    incumbent_ns.fetch_min(estimate.iteration_time.as_nanos(), Ordering::Relaxed);
                }
                buf.push((i as u32, DesignPoint { plan, estimate }));
            }
        }
        WorkerYield {
            buf,
            cache: scratch.cache_stats(),
            delta_counts: scratch.delta_counts(),
            stages,
            bound_ns,
        }
    };
    // One worker needs no pool: run inline, skipping thread spawn/join
    // (this also keeps single-threaded stage profiles nearly 100%
    // attributable to the pipeline stages).
    let results: Vec<WorkerYield> = if threads == 1 {
        vec![run_worker(0)]
    } else {
        crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let run_worker = &run_worker;
                    scope.spawn(move |_| run_worker(w))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("sweep worker panicked")).collect()
        })
        .expect("sweep scope")
    };

    let mut indexed: Vec<(u32, DesignPoint)> = Vec::new();
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    let mut delta_fresh = 0u64;
    let mut delta_patched = 0u64;
    let mut stages = StageNanos::default();
    let mut bound_ns = 0u64;
    for worker in results {
        indexed.extend(worker.buf);
        cache_hits += worker.cache.hits;
        cache_misses += worker.cache.misses;
        delta_fresh += worker.delta_counts.0;
        delta_patched += worker.delta_counts.1;
        stages.merge(&worker.stages);
        bound_ns += worker.bound_ns;
    }
    indexed.sort_unstable_by_key(|(i, _)| *i);
    // Equals `candidates − pruned − bound_pruned` for a completed sweep;
    // counting the merged buffers stays correct when a token aborted the
    // sweep with candidates unvisited.
    let evaluated = indexed.len();
    let mut points: Vec<DesignPoint> = indexed.into_iter().map(|(_, p)| p).collect();

    // Filter to the goal's winners: pruning guarantees every winner was
    // evaluated, so these are exactly the exhaustive sweep's winners —
    // unless a token aborted the sweep, in which case they are the best
    // of the points visited so far (flagged via `aborted`).
    apply_goal(goal, &mut points);

    let pruned = pruned.into_inner();
    let bound_pruned = bound_pruned.into_inner();
    let aborted = match abort.into_inner() {
        0 => None,
        1 => Some(AbortReason::Cancelled),
        2 => Some(AbortReason::Deadline),
        _ => Some(AbortReason::Budget),
    };
    let stats = SweepStats {
        candidates: candidates.len(),
        pruned,
        bound_pruned,
        evaluated,
        cache_hits,
        cache_misses,
        delta_fresh,
        delta_patched,
        threads,
        wall_s: started.elapsed().as_secs_f64(),
    };
    if vtrain_obs::enabled() {
        let reg = vtrain_obs::global();
        reg.counter("sweep.runs").inc();
        reg.counter("sweep.candidates").add(stats.candidates as u64);
        reg.counter("sweep.evaluated").add(stats.evaluated as u64);
        reg.counter("sweep.pruned").add(stats.pruned as u64);
        reg.counter("sweep.bound_pruned").add(stats.bound_pruned as u64);
        reg.counter("sweep.cache_hits").add(stats.cache_hits);
        reg.counter("sweep.cache_misses").add(stats.cache_misses);
        reg.counter("lower.delta.fresh").add(stats.delta_fresh);
        reg.counter("lower.delta.patched").add(stats.delta_patched);
        reg.histogram("sweep.wall_ms").record((stats.wall_s * 1e3) as u64);
    }
    let stage_profile = profile.then_some(StageProfile {
        stages,
        bound_ns,
        order_ns,
        wall_ns: (stats.wall_s * 1e9) as u64,
        threads,
    });
    SweepOutcome { points, stats, stage_profile, aborted }
}

/// Filters `points` down to exactly what `goal` promises: everything
/// (`Exhaustive`), the `(iteration_time, num_gpus)` Pareto frontier
/// (`Front`), or the single fastest point (`Best`, earliest on ties).
fn apply_goal(goal: SweepGoal, points: &mut Vec<DesignPoint>) {
    match goal {
        SweepGoal::Exhaustive => {}
        SweepGoal::Front => {
            // `pareto_front` returns members in input order; match them
            // back by identity with one forward pass.
            let keep: Vec<bool> = {
                let front = pareto_front(points);
                let mut fi = 0;
                points
                    .iter()
                    .map(|p| {
                        let on_front = fi < front.len() && std::ptr::eq(p, front[fi]);
                        fi += usize::from(on_front);
                        on_front
                    })
                    .collect()
            };
            let mut it = keep.into_iter();
            points.retain(|_| it.next().expect("keep mask covers points"));
        }
        SweepGoal::Best => {
            let best = points
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| p.estimate.iteration_time)
                .map(|(i, _)| i);
            *points = best.map(|i| vec![points[i].clone()]).unwrap_or_default();
        }
    }
}

/// The degraded-mode executor: prices every feasible candidate at its
/// [admissible busy floor](Estimator::lower_bound) instead of lowering
/// and simulating it — one slot pricing per candidate on one reused
/// scratch, no threads. The pricing reads the shared profile cache, so a
/// cold cache profiles each signature it is missing once. The floor is a
/// true lower bound on iteration time, so relative ordering is
/// meaningful even though the returned "estimates" carry zero
/// utilization/occupancy and an empty busy breakdown (nothing was
/// simulated to attribute).
fn bound_only_sweep(
    estimator: &Estimator,
    model: &ModelConfig,
    candidates: &[ParallelConfig],
    goal: SweepGoal,
) -> SweepOutcome {
    let started = Instant::now();
    let mut points: Vec<DesignPoint> = Vec::new();
    let mut pruned = 0;
    let mut scratch = EstimatorScratch::default();
    for plan in candidates {
        if estimator.validate(model, plan).is_err() {
            pruned += 1;
            continue;
        }
        estimator.price_compact(model, plan, &mut scratch);
        let floor = estimator.busy_floor(plan, &mut scratch);
        points.push(DesignPoint {
            plan: *plan,
            estimate: IterationEstimate {
                iteration_time: floor,
                utilization: 0.0,
                busy: BusyBreakdown::default(),
                occupancy: 0.0,
                num_gpus: plan.num_gpus(),
                tokens_per_iteration: model.tokens_per_iteration(plan.global_batch()),
            },
        });
    }
    let evaluated = points.len();
    apply_goal(goal, &mut points);
    let cache = scratch.cache_stats();
    SweepOutcome {
        points,
        stats: SweepStats {
            candidates: candidates.len(),
            pruned,
            bound_pruned: 0,
            evaluated,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            delta_fresh: 0,
            delta_patched: 0,
            threads: 1,
            wall_s: started.elapsed().as_secs_f64(),
        },
        stage_profile: None,
        aborted: None,
    }
}

/// One topology variant's outcome in a placement sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct PlacementSweep {
    /// The variant's label (e.g. `"two-tier"`, `"multi-rack/4"`).
    pub label: String,
    /// The sweep over this placement.
    pub outcome: SweepOutcome,
}

/// Declarative design-space sweep — the one entry point (the former
/// free-function `sweep` / `sweep_with_goal` / `sweep_topologies` /
/// `sweep_topologies_with_goal` / `explore` shims were removed after a
/// deprecation cycle; the builder drives the exact same executor they
/// did).
///
/// A sweep needs a model, a cluster, and a candidate grid (either
/// [enumerated](Sweep::batch) from a batch size + [`SearchLimits`] or
/// [given explicitly](Sweep::candidates)); everything else — goal,
/// threads, `α`, a shared cache, a topology, a placement axis — is an
/// optional axis with the flat exhaustive sweep as the default. Results
/// are bit-identical to the deprecated entry points by construction:
/// the builder drives the exact same executor.
///
/// ```
/// use vtrain_core::search::{SearchLimits, Sweep, SweepGoal};
/// use vtrain_model::presets;
/// use vtrain_parallel::ClusterSpec;
///
/// let model = presets::megatron("1.7B");
/// let cluster = ClusterSpec::aws_p4d(16);
/// let limits = SearchLimits { max_tensor: 4, max_data: 4, max_pipeline: 2, max_micro_batch: 2 };
/// let run = Sweep::over(&model, &cluster)
///     .batch(16)
///     .limits(limits)
///     .goal(SweepGoal::Best)
///     .threads(2)
///     .run();
/// assert_eq!(run.outcome().points.len(), 1, "Best returns exactly the winner");
/// ```
#[derive(Clone, Debug)]
pub struct Sweep {
    model: ModelConfig,
    cluster: ClusterSpec,
    /// `None` until [`Sweep::alpha`] is called: unset, the topology's
    /// own inter-node tier α is inherited (see [`EstimatorBuilder`](crate::EstimatorBuilder)).
    alpha: Option<f64>,
    cache: Option<Arc<ProfileCache>>,
    topology: Option<Topology>,
    network: NetworkBackend,
    placements: Vec<(String, Topology)>,
    batch: Option<usize>,
    schedule: PipelineSchedule,
    limits: SearchLimits,
    goal: SweepGoal,
    threads: Option<usize>,
    stage_profile: bool,
    cancel: Option<CancelToken>,
    /// Shared, not owned: cloning a configured sweep (e.g. to re-run it
    /// under another goal) must not copy the candidate grid.
    candidates: Option<Arc<[ParallelConfig]>>,
}

impl Sweep {
    /// Starts a sweep of `model` over `cluster` with default axes
    /// (`α = 1.0`, fresh cache, flat interconnect, exhaustive goal,
    /// 1F1B schedule, default [`SearchLimits`], all CPU cores).
    pub fn over(model: &ModelConfig, cluster: &ClusterSpec) -> Sweep {
        Sweep {
            model: model.clone(),
            cluster: cluster.clone(),
            alpha: None,
            cache: None,
            topology: None,
            network: NetworkBackend::default(),
            placements: Vec::new(),
            batch: None,
            schedule: PipelineSchedule::OneFOneB,
            limits: SearchLimits::default(),
            goal: SweepGoal::default(),
            threads: None,
            stage_profile: false,
            cancel: None,
            candidates: None,
        }
    }

    /// Starts a sweep reusing an existing estimator's configuration —
    /// its cluster, `α`, topology, and (shared) profile cache — so ad-hoc
    /// estimates and the sweep deduplicate profiling work.
    pub fn on(estimator: &Estimator, model: &ModelConfig) -> Sweep {
        let mut sweep = Sweep::over(model, estimator.cluster());
        sweep.cache = Some(Arc::clone(estimator.cache()));
        sweep.network = estimator.network();
        if estimator.is_topology_aware() {
            // The estimator's topology already carries its resolved
            // per-tier αs; leaving `alpha` unset reuses them exactly.
            sweep.topology = Some(estimator.topology().clone());
        } else {
            sweep.alpha = Some(estimator.alpha());
        }
        sweep
    }

    /// Sets the global batch (sequences per iteration) the candidate
    /// grid is enumerated for. Required unless
    /// [`candidates`](Sweep::candidates) supplies the grid directly.
    pub fn batch(mut self, global_batch: usize) -> Self {
        self.batch = Some(global_batch);
        self
    }

    /// Sets the pipeline schedule of enumerated candidates (default
    /// [`PipelineSchedule::OneFOneB`]).
    pub fn schedule(mut self, schedule: PipelineSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Bounds the enumerated `(t, d, p, m)` grid (default
    /// [`SearchLimits::default`], the paper's §V-A axes).
    pub fn limits(mut self, limits: SearchLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Sets what the sweep must guarantee (default
    /// [`SweepGoal::Exhaustive`]). `Front` filters the exhaustive sweep
    /// to its Pareto frontier; `Best` licenses bound-guided pruning.
    /// Both return exactly the exhaustive winners.
    pub fn goal(mut self, goal: SweepGoal) -> Self {
        self.goal = goal;
        self
    }

    /// Sets the worker-thread count (default: all available cores).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Enables per-stage wall-clock attribution: the outcome carries a
    /// [`StageProfile`] splitting the sweep's CPU time across
    /// validate / bound / lower / simulate / summarize.
    ///
    /// Profiled sweeps run the same fused compact pipeline as
    /// unprofiled ones, timed from inside — results are bit-identical
    /// and delta-patched points show up as shrunken `lower_ns`. The
    /// only cost is the per-stage clock reads.
    pub fn stage_profile(mut self, enabled: bool) -> Self {
        self.stage_profile = enabled;
        self
    }

    /// Threads a [`CancelToken`] into the executor's candidate loop:
    /// explicit cancellation, an elapsed deadline, or an exhausted point
    /// budget stops every worker at its next candidate claim, and the
    /// outcome reports the [`AbortReason`](SweepOutcome::aborted)
    /// alongside the points evaluated so far.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets the bandwidth-effectiveness factor `α` (default `1.0`).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Shares an existing profile cache across this sweep (and anything
    /// else holding it). Without this, the sweep creates a fresh cache —
    /// still shared across its workers and placement variants.
    pub fn cache(mut self, cache: Arc<ProfileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Prices communication on a hierarchical topology instead of the
    /// flat Equation (1) model. For sweeping *several* topologies, use
    /// [`placements`](Sweep::placements).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Selects the network-cost regime every evaluated point runs
    /// under (default [`NetworkBackend::ClosedForm`]). Under
    /// [`NetworkBackend::FairSharing`] each point is priced by the
    /// physical-time contention replay over the compact graph unrolled
    /// into one task per (section copy, run). Delta patches apply under
    /// both backends; the fair-sharing replay walks every section copy,
    /// so its cost grows with the micro-batch count.
    pub fn network(mut self, network: NetworkBackend) -> Self {
        self.network = network;
        self
    }

    /// Adds a placement axis: the same candidate grid is priced under
    /// every `(label, topology)` variant, all variants sharing one
    /// profile cache. Supersedes [`topology`](Sweep::topology).
    pub fn placements(mut self, placements: impl IntoIterator<Item = (String, Topology)>) -> Self {
        self.placements = placements.into_iter().collect();
        self
    }

    /// Supplies the candidate grid explicitly instead of enumerating it
    /// from [`batch`](Sweep::batch) + [`limits`](Sweep::limits).
    ///
    /// Accepts a `Vec`, an `Arc<[_]>`, or a slice; pass an
    /// `Arc<[ParallelConfig]>` (cloned per sweep, O(1)) to share one
    /// grid across several sweeps without copying it.
    pub fn candidates(mut self, candidates: impl Into<Arc<[ParallelConfig]>>) -> Self {
        self.candidates = Some(candidates.into());
        self
    }

    /// Enumerates (if needed) and evaluates the grid.
    ///
    /// # Panics
    ///
    /// Panics if neither [`batch`](Sweep::batch) nor
    /// [`candidates`](Sweep::candidates) was set — there is no grid to
    /// sweep.
    pub fn run(self) -> SweepRun {
        let threads = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map(Into::into).unwrap_or(8));
        let candidates = self.grid("run");
        self.run_placements(|estimator| {
            run_sweep(
                estimator,
                &self.model,
                &candidates,
                threads,
                self.goal,
                self.stage_profile,
                self.cancel.as_ref(),
            )
        })
    }

    /// Degraded bound-only evaluation: enumerates (if needed) and prices
    /// the grid at each candidate's admissible busy floor
    /// ([`Estimator::lower_bound`]) instead of lowering and simulating —
    /// the load-shedding answer a saturated `vtrain serve` hands out
    /// under `--degrade bound-only`, much cheaper than
    /// [`run`](Sweep::run). Each floor costs one slot pricing, which
    /// reads the shared profile cache.
    ///
    /// Floor points carry the true lower bound as their
    /// `iteration_time`, the plan's GPU/token accounting, and zeroed
    /// utilization/occupancy/busy fields (nothing was simulated). The
    /// configured [`goal`](Sweep::goal) and placement axis apply exactly
    /// as in a full run; cancellation tokens are ignored — a floor
    /// costs microseconds per candidate.
    ///
    /// # Panics
    ///
    /// Panics if neither [`batch`](Sweep::batch) nor
    /// [`candidates`](Sweep::candidates) was set, like [`run`](Sweep::run).
    pub fn bound_only(self) -> SweepRun {
        let candidates = self.grid("bound_only");
        self.run_placements(|estimator| {
            bound_only_sweep(estimator, &self.model, &candidates, self.goal)
        })
    }

    /// The candidate grid: the explicit one, or the enumeration of
    /// [`batch`](Sweep::batch) under [`limits`](Sweep::limits).
    fn grid(&self, entry: &str) -> Arc<[ParallelConfig]> {
        match &self.candidates {
            Some(c) => Arc::clone(c),
            None => {
                let batch = self.batch.unwrap_or_else(|| {
                    panic!("Sweep: set .batch(..) or .candidates(..) before .{entry}()")
                });
                enumerate_candidates(&self.model, &self.cluster, batch, self.schedule, &self.limits)
                    .into()
            }
        }
    }

    /// The placement-axis executor: prices the grid with `evaluate` once
    /// per topology variant, all variants sharing one profile cache
    /// (compute profiles are topology-independent, so every unique
    /// operator signature is profiled once for the *entire* placement
    /// sweep; floors are priced per variant — communication costs differ
    /// between placements). A sweep without a placement axis is the one
    /// variant labelled `""` under its optional
    /// [`topology`](Sweep::topology).
    fn run_placements(&self, evaluate: impl Fn(&Estimator) -> SweepOutcome) -> SweepRun {
        let cache = self.cache.clone().unwrap_or_default();
        let variants: Vec<(&str, Option<&Topology>)> = if self.placements.is_empty() {
            vec![("", self.topology.as_ref())]
        } else {
            self.placements.iter().map(|(label, topo)| (label.as_str(), Some(topo))).collect()
        };
        let mut sweeps = Vec::with_capacity(variants.len());
        for (label, topology) in variants {
            let mut builder = Estimator::builder(self.cluster.clone())
                .network(self.network)
                .cache(Arc::clone(&cache));
            if let Some(alpha) = self.alpha {
                builder = builder.alpha(alpha);
            }
            if let Some(topology) = topology {
                builder = builder.topology(topology.clone());
            }
            let outcome = evaluate(&builder.build());
            let stop = outcome.aborted.is_some();
            sweeps.push(PlacementSweep { label: label.to_owned(), outcome });
            if stop {
                // A fired token stops the placement axis too: later
                // variants are omitted entirely rather than returned
                // empty-but-unlabeled-as-aborted.
                break;
            }
        }
        SweepRun { sweeps }
    }
}

/// The result of a [`Sweep`]: one [`PlacementSweep`] per topology
/// variant (exactly one for a sweep without a placement axis).
///
/// Serializes field-for-field (the stable machine form lives in the
/// `vtrain::api` wire envelope, which versions and key-sorts it);
/// deserialization rejects unknown fields so schema drift is loud.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SweepRun {
    sweeps: Vec<PlacementSweep>,
}

impl SweepRun {
    /// The (first) variant's outcome — the whole result for a sweep
    /// without a placement axis.
    pub fn outcome(&self) -> &SweepOutcome {
        &self.sweeps[0].outcome
    }

    /// Consumes the run into the first variant's outcome.
    pub fn into_outcome(self) -> SweepOutcome {
        self.sweeps.into_iter().next().expect("a sweep always has at least one variant").outcome
    }

    /// All placement variants, in the order they were declared.
    pub fn variants(&self) -> &[PlacementSweep] {
        &self.sweeps
    }

    /// Consumes the run into its placement variants.
    pub fn into_variants(self) -> Vec<PlacementSweep> {
        self.sweeps
    }
}

/// The fastest feasible plan using at most `max_gpus` GPUs.
pub fn fastest_within_gpu_budget(points: &[DesignPoint], max_gpus: usize) -> Option<&DesignPoint> {
    points
        .iter()
        .filter(|p| p.estimate.num_gpus <= max_gpus)
        .min_by(|a, b| a.estimate.iteration_time.cmp(&b.estimate.iteration_time))
}

/// The cheapest end-to-end plan (total dollars over `total_tokens`) using at
/// most `max_gpus` GPUs — the paper's cost-effectiveness criterion
/// (Table I).
pub fn most_cost_effective<'a>(
    points: &'a [DesignPoint],
    total_tokens: u64,
    cost: &CostModel,
    max_gpus: usize,
) -> Option<(&'a DesignPoint, TrainingProjection)> {
    points
        .iter()
        .filter(|p| p.estimate.num_gpus <= max_gpus)
        .map(|p| (p, p.project(total_tokens, cost)))
        .min_by(|a, b| a.1.total_dollars.total_cmp(&b.1.total_dollars))
}

/// Pareto frontier minimizing `(iteration_time, num_gpus)`, in input
/// order.
///
/// Sort-based `O(n log n)`: after ordering by `(time, gpus)`, a point
/// survives iff it has the fewest GPUs within its exact iteration time
/// *and* strictly fewer GPUs than every strictly-faster point. Exact
/// duplicates are mutually non-dominating and all survive, matching the
/// quadratic definition (see the agreement property test).
pub fn pareto_front(points: &[DesignPoint]) -> Vec<&DesignPoint> {
    let key = |i: usize| (points[i].estimate.iteration_time, points[i].estimate.num_gpus);
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_unstable_by_key(|&i| key(i));

    let mut keep = vec![false; points.len()];
    let mut best_gpus = usize::MAX;
    let mut at = 0;
    while at < order.len() {
        let time = key(order[at]).0;
        let mut end = at;
        let mut group_min = usize::MAX;
        while end < order.len() && key(order[end]).0 == time {
            group_min = group_min.min(key(order[end]).1);
            end += 1;
        }
        if group_min < best_gpus {
            for &idx in &order[at..end] {
                keep[idx] = key(idx).1 == group_min;
            }
            best_gpus = group_min;
        }
        at = end;
    }
    points.iter().enumerate().filter_map(|(i, p)| keep[i].then_some(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vtrain_model::{presets, TimeNs};

    fn small_points() -> Vec<DesignPoint> {
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        Sweep::over(&model, &cluster)
            .batch(16)
            .limits(SearchLimits {
                max_tensor: 4,
                max_data: 4,
                max_pipeline: 4,
                max_micro_batch: 4,
            })
            .threads(4)
            .run()
            .into_outcome()
            .points
    }

    #[test]
    fn bound_only_floors_every_full_estimate() {
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        let limits =
            SearchLimits { max_tensor: 2, max_data: 2, max_pipeline: 2, max_micro_batch: 1 };
        let sweep = Sweep::over(&model, &cluster).batch(16).limits(limits).threads(2);
        let full = sweep.clone().run().into_outcome();
        let floors = sweep.clone().bound_only().into_outcome();
        // Same feasible set, in the same candidate order...
        assert_eq!(full.points.len(), floors.points.len());
        assert_eq!(full.stats.pruned, floors.stats.pruned);
        for (f, b) in full.points.iter().zip(&floors.points) {
            assert_eq!(f.plan, b.plan);
            // ...and every floor is admissible: never above the
            // simulated iteration time.
            assert!(b.estimate.iteration_time <= f.estimate.iteration_time);
            assert!(b.estimate.iteration_time > TimeNs::ZERO);
            assert_eq!(b.estimate.num_gpus, f.estimate.num_gpus);
            assert_eq!(b.estimate.tokens_per_iteration, f.estimate.tokens_per_iteration);
            assert_eq!(b.estimate.utilization, 0.0, "nothing simulated, nothing attributed");
        }
        // The goal filter applies to floor points exactly as to full ones.
        let best = sweep.goal(SweepGoal::Best).bound_only().into_outcome();
        assert_eq!(best.points.len(), 1);
        let min = floors.points.iter().map(|p| p.estimate.iteration_time).min().unwrap();
        assert_eq!(best.points[0].estimate.iteration_time, min);
    }

    /// The original quadratic frontier, kept as the oracle for the
    /// sort-based implementation.
    fn pareto_front_naive(points: &[DesignPoint]) -> Vec<&DesignPoint> {
        let mut front: Vec<&DesignPoint> = Vec::new();
        for p in points {
            let dominated = points.iter().any(|q| {
                (q.estimate.iteration_time < p.estimate.iteration_time
                    && q.estimate.num_gpus <= p.estimate.num_gpus)
                    || (q.estimate.iteration_time <= p.estimate.iteration_time
                        && q.estimate.num_gpus < p.estimate.num_gpus)
            });
            if !dominated {
                front.push(p);
            }
        }
        front
    }

    fn synthetic_point(time_us: u64, gpus: usize) -> DesignPoint {
        DesignPoint {
            plan: ParallelConfig::builder().global_batch(1).build().unwrap(),
            estimate: IterationEstimate {
                iteration_time: TimeNs::from_micros(time_us),
                utilization: 0.5,
                busy: Default::default(),
                occupancy: 0.5,
                num_gpus: gpus,
                tokens_per_iteration: 1,
            },
        }
    }

    #[test]
    fn enumeration_respects_constraints() {
        let model = presets::megatron("1.7B"); // 24 layers
        let cluster = ClusterSpec::aws_p4d(64);
        let limits =
            SearchLimits { max_tensor: 16, max_data: 8, max_pipeline: 8, max_micro_batch: 4 };
        let cands = enumerate_candidates(&model, &cluster, 32, PipelineSchedule::OneFOneB, &limits);
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.tensor() <= 8, "tensor capped by node size");
            assert_eq!(24 % c.pipeline(), 0, "even stage partition");
            assert_eq!(32 % (c.data() * c.micro_batch()), 0);
            assert!(c.num_gpus() <= 64);
        }
    }

    #[test]
    fn sweep_returns_feasible_points_deterministically() {
        let a = small_points();
        let b = small_points();
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.plan, y.plan);
            assert_eq!(x.estimate.iteration_time, y.estimate.iteration_time);
        }
    }

    #[test]
    fn parallel_and_serial_sweeps_agree() {
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        let limits =
            SearchLimits { max_tensor: 2, max_data: 2, max_pipeline: 2, max_micro_batch: 2 };
        let cands = enumerate_candidates(&model, &cluster, 8, PipelineSchedule::OneFOneB, &limits);
        // Fresh cache per thread count: the executor must be
        // deterministic at 1 vs N threads with hot *or* cold caches.
        let serial =
            Sweep::over(&model, &cluster).candidates(cands.clone()).threads(1).run().into_outcome();
        let parallel =
            Sweep::over(&model, &cluster).candidates(cands).threads(8).run().into_outcome();
        assert_eq!(serial.points.len(), parallel.points.len());
        for (a, b) in serial.points.iter().zip(&parallel.points) {
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.estimate.iteration_time, b.estimate.iteration_time);
        }
        assert_eq!(serial.stats.pruned, parallel.stats.pruned);
        assert_eq!(serial.stats.evaluated, parallel.stats.evaluated);
        assert_eq!(serial.stats.threads, 1);
    }

    #[test]
    fn exhaustive_sweep_points_equal_fresh_estimates_and_patch() {
        let cluster = ClusterSpec::aws_p4d(32);
        let model = presets::megatron("1.7B");
        let limits =
            SearchLimits { max_tensor: 4, max_data: 8, max_pipeline: 4, max_micro_batch: 4 };
        let cands = enumerate_candidates(&model, &cluster, 32, PipelineSchedule::OneFOneB, &limits);
        let estimator = Estimator::builder(cluster).build();
        let outcome =
            Sweep::on(&estimator, &model).candidates(cands.clone()).threads(1).run().into_outcome();
        assert!(
            outcome.stats.delta_patched > 0,
            "shape-grouped visit order must produce patches on a {}-point grid",
            outcome.stats.evaluated
        );
        assert_eq!(
            outcome.stats.delta_fresh + outcome.stats.delta_patched,
            outcome.stats.evaluated as u64
        );
        // Every feasible candidate, in candidate order, priced exactly as
        // a from-scratch estimate prices it: patching must not change a
        // single bit.
        let feasible: Vec<_> =
            cands.iter().filter(|c| estimator.validate(&model, c).is_ok()).collect();
        assert_eq!(outcome.points.len(), feasible.len());
        for (point, plan) in outcome.points.iter().zip(feasible) {
            assert_eq!(&point.plan, plan);
            let fresh = estimator.estimate(&model, plan).unwrap();
            assert_eq!(point.estimate, fresh, "{plan}");
            assert_eq!(point.estimate.utilization.to_bits(), fresh.utilization.to_bits());
            assert_eq!(point.estimate.occupancy.to_bits(), fresh.occupancy.to_bits());
        }
    }

    #[test]
    fn threads_beyond_the_candidate_count_stay_idle() {
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        let plan = |t: usize, d: usize, p: usize| {
            ParallelConfig::builder()
                .tensor(t)
                .data(d)
                .pipeline(p)
                .micro_batch(1)
                .global_batch(8)
                .build()
                .unwrap()
        };
        let cands = vec![plan(1, 2, 2), plan(2, 2, 2), plan(2, 4, 1)];
        let serial =
            Sweep::over(&model, &cluster).candidates(cands.clone()).threads(1).run().into_outcome();
        let wide = Sweep::over(&model, &cluster).candidates(cands).threads(16).run().into_outcome();
        assert_eq!(serial.stats.threads, 1);
        assert_eq!(wide.stats.threads, 3, "one worker per candidate, the rest idle");
        assert_eq!(serial.points.len(), wide.points.len());
        for (a, b) in serial.points.iter().zip(&wide.points) {
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.estimate.utilization.to_bits(), b.estimate.utilization.to_bits());
        }
    }

    #[test]
    fn goal_guided_stage_profiles_attribute_bound_time() {
        // Regression test: under `Best`, `bound_ns` is a stage window of
        // its own, covering the slot pricing and the floor of every
        // visited point, and `lower_ns` covers the lowering that reuses
        // the pricing. Under `Front`, which prices no floor, `bound_ns`
        // is zero and the pricing is part of `lower_ns`.
        let cluster = ClusterSpec::aws_p4d(32);
        let model = presets::megatron("1.7B");
        let limits =
            SearchLimits { max_tensor: 4, max_data: 8, max_pipeline: 4, max_micro_batch: 4 };
        let cands = enumerate_candidates(&model, &cluster, 32, PipelineSchedule::OneFOneB, &limits);
        let sweep = Sweep::over(&model, &cluster).candidates(cands).threads(1).stage_profile(true);
        let outcome = sweep.clone().goal(SweepGoal::Best).run().into_outcome();
        let profile = outcome.stage_profile.expect("requested profile must be attached");
        assert!(
            outcome.stats.evaluated + outcome.stats.bound_pruned > 0,
            "grid must reach the bound stage"
        );
        assert!(profile.bound_ns > 0, "`Best` prices floors, so bound time must be attributed");
        assert!(outcome.stats.evaluated > 0);
        assert!(profile.stages.lower_ns > 0, "surviving points still lower");
        assert!(profile.attributed_ns() <= profile.wall_ns);

        let front = sweep.goal(SweepGoal::Front).run().into_outcome();
        let profile = front.stage_profile.expect("requested profile must be attached");
        assert!(front.stats.evaluated > 0);
        assert_eq!(profile.bound_ns, 0, "`Front` never prices floors");
    }

    #[test]
    fn sweep_stats_account_for_every_candidate() {
        // 18.4B on 32 GPUs: low-parallelism candidates exceed HBM and must
        // be pruned by the validation stage before any lowering work.
        let cluster = ClusterSpec::aws_p4d(32);
        let estimator = Estimator::builder(cluster.clone()).build();
        let model = presets::megatron("18.4B");
        let limits =
            SearchLimits { max_tensor: 8, max_data: 8, max_pipeline: 8, max_micro_batch: 1 };
        let cands = enumerate_candidates(&model, &cluster, 32, PipelineSchedule::OneFOneB, &limits);
        let outcome =
            Sweep::on(&estimator, &model).candidates(cands.clone()).threads(4).run().into_outcome();
        let s = outcome.stats;
        assert_eq!(s.candidates, cands.len());
        assert_eq!(s.pruned + s.evaluated, s.candidates);
        assert_eq!(outcome.points.len(), s.evaluated);
        assert!(s.pruned > 0, "memory-infeasible plans must be pruned");
        assert!(s.evaluated > 0, "some plans must survive");
        assert!(s.wall_s > 0.0);
        assert!(s.points_per_sec() > 0.0);
        assert_eq!(s.threads, 4);
        // The sweep shares one cache: far more lookups hit than miss.
        assert!(
            s.cache_hit_rate() > 0.8,
            "hit rate {:.3} (hits {}, misses {})",
            s.cache_hit_rate(),
            s.cache_hits,
            s.cache_misses
        );
    }

    #[test]
    fn stage_profiling_is_observation_only_and_accounts_for_the_wall_clock() {
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        let limits =
            SearchLimits { max_tensor: 4, max_data: 4, max_pipeline: 4, max_micro_batch: 4 };
        let cands = enumerate_candidates(&model, &cluster, 16, PipelineSchedule::OneFOneB, &limits);
        let plain =
            Sweep::over(&model, &cluster).candidates(cands.clone()).threads(1).run().into_outcome();
        let profiled = Sweep::over(&model, &cluster)
            .candidates(cands)
            .threads(1)
            .stage_profile(true)
            .run()
            .into_outcome();
        assert!(plain.stage_profile.is_none(), "profiling is opt-in");

        // Profiling must not change a single bit of any estimate.
        assert_eq!(plain.points.len(), profiled.points.len());
        for (a, b) in plain.points.iter().zip(&profiled.points) {
            assert_eq!(a.plan, b.plan);
            assert_eq!(a.estimate.iteration_time, b.estimate.iteration_time);
            assert_eq!(a.estimate.utilization.to_bits(), b.estimate.utilization.to_bits());
            assert_eq!(a.estimate.occupancy.to_bits(), b.estimate.occupancy.to_bits());
        }

        let profile = profiled.stage_profile.expect("requested profile must be attached");
        assert_eq!(profile.threads, 1);
        assert!(profile.stages.simulate_ns > 0, "replay time must be attributed");
        assert!(profile.stages.lower_ns > 0, "lowering time must be attributed");
        assert_eq!(profile.bound_ns, 0, "exhaustive sweeps never price bounds");
        assert!(profile.attributed_ns() <= profile.wall_ns, "stages nest inside the wall clock");
        // On one thread, named stages dominate the wall clock: the
        // executor's own overhead (cursor claims, buffer merge) is noise.
        assert!(
            profile.attributed_fraction() > 0.9,
            "stage attribution covers only {:.1}% of the wall clock",
            profile.attributed_fraction() * 100.0
        );
    }

    #[test]
    fn placement_sweep_shares_one_cache_and_orders_topologies() {
        let cluster = ClusterSpec::aws_p4d(32);
        let model = presets::megatron("1.7B");
        let limits =
            SearchLimits { max_tensor: 4, max_data: 8, max_pipeline: 2, max_micro_batch: 2 };
        let cands = enumerate_candidates(&model, &cluster, 16, PipelineSchedule::OneFOneB, &limits);
        let spine = vtrain_net::TierSpec::new(25e9, vtrain_model::TimeNs::from_micros(35), 1.0);
        let topologies = vec![
            ("two-tier".to_owned(), cluster.topology(1.0)),
            ("multi-rack/2".to_owned(), cluster.topology(1.0).with_rack_tier(2, spine)),
        ];
        let sweeps = Sweep::over(&model, &cluster)
            .candidates(cands)
            .placements(topologies)
            .threads(4)
            .run()
            .into_variants();
        assert_eq!(sweeps.len(), 2);
        assert_eq!(sweeps[0].label, "two-tier");
        // Identical candidate grids: the same plans are feasible under
        // every placement (feasibility never depends on the topology).
        assert_eq!(sweeps[0].outcome.points.len(), sweeps[1].outcome.points.len());
        // The second variant re-used every compute profile of the first.
        assert_eq!(sweeps[1].outcome.stats.cache_misses, 0, "placement sweeps share one cache");
        // A slower spine can only slow points down.
        for (a, b) in sweeps[0].outcome.points.iter().zip(&sweeps[1].outcome.points) {
            assert_eq!(a.plan, b.plan);
            assert!(b.estimate.iteration_time >= a.estimate.iteration_time);
        }
    }

    #[test]
    fn budget_filters_apply() {
        let points = small_points();
        let best = fastest_within_gpu_budget(&points, 8).unwrap();
        assert!(best.estimate.num_gpus <= 8);
        // No point under the budget beats it.
        for p in points.iter().filter(|p| p.estimate.num_gpus <= 8) {
            assert!(best.estimate.iteration_time <= p.estimate.iteration_time);
        }
    }

    #[test]
    fn cost_optimum_is_cheapest() {
        let points = small_points();
        let cost = CostModel::default();
        let (_, proj) = most_cost_effective(&points, 1_000_000_000, &cost, 16).unwrap();
        for p in &points {
            let other = p.project(1_000_000_000, &cost);
            assert!(proj.total_dollars <= other.total_dollars + 1e-9);
        }
    }

    #[test]
    fn pareto_points_are_mutually_nondominated() {
        let points = small_points();
        let front = pareto_front(&points);
        assert!(!front.is_empty());
        for a in &front {
            for b in &front {
                let strictly_better = b.estimate.iteration_time < a.estimate.iteration_time
                    && b.estimate.num_gpus <= a.estimate.num_gpus;
                assert!(!strictly_better, "front contains dominated point");
            }
        }
    }

    #[test]
    fn pareto_matches_naive_on_swept_points() {
        let points = small_points();
        let fast: Vec<*const DesignPoint> =
            pareto_front(&points).into_iter().map(|p| p as *const _).collect();
        let naive: Vec<*const DesignPoint> =
            pareto_front_naive(&points).into_iter().map(|p| p as *const _).collect();
        assert_eq!(fast, naive, "sort-based front must equal the quadratic oracle");
    }

    #[test]
    fn pareto_keeps_exact_duplicates_and_time_ties() {
        let points = vec![
            synthetic_point(10, 4),
            synthetic_point(10, 4), // exact duplicate: kept
            synthetic_point(10, 8), // same time, more GPUs: dominated
            synthetic_point(5, 8),
            synthetic_point(20, 2),
            synthetic_point(20, 4), // slower and ≥ GPUs than (10, 4): dominated
        ];
        let front = pareto_front(&points);
        let naive = pareto_front_naive(&points);
        assert_eq!(
            front.iter().map(|p| p.estimate.num_gpus).collect::<Vec<_>>(),
            naive.iter().map(|p| p.estimate.num_gpus).collect::<Vec<_>>()
        );
        assert_eq!(front.len(), 4, "duplicates of (10, 4) both survive alongside (5,8), (20,2)");
    }

    #[test]
    fn points_per_sec_guards_degenerate_wall_clocks() {
        let stats = SweepStats { evaluated: 5, wall_s: 0.0, ..SweepStats::default() };
        assert_eq!(stats.points_per_sec(), 0.0, "zero wall must not emit inf");
        let stats = SweepStats { evaluated: 5, wall_s: f64::NAN, ..SweepStats::default() };
        assert_eq!(stats.points_per_sec(), 0.0, "NaN wall must not propagate");
        let stats = SweepStats { evaluated: 4, wall_s: 2.0, ..SweepStats::default() };
        assert!((stats.points_per_sec() - 2.0).abs() < 1e-12);
    }

    /// Winners of each goal derived from an exhaustive sweep's points —
    /// the oracle the pruned sweeps must reproduce exactly.
    fn assert_goal_outcomes_match(
        estimator: &Estimator,
        model: &ModelConfig,
        cands: &[ParallelConfig],
        threads: usize,
    ) -> SweepStats {
        let run_goal = |goal: SweepGoal| {
            Sweep::on(estimator, model)
                .candidates(cands.to_vec())
                .threads(threads)
                .goal(goal)
                .run()
                .into_outcome()
        };
        let exhaustive = run_goal(SweepGoal::Exhaustive);
        assert_eq!(exhaustive.stats.bound_pruned, 0, "exhaustive mode never computes bounds");

        let best = run_goal(SweepGoal::Best);
        let want_best = exhaustive.points.iter().min_by_key(|p| p.estimate.iteration_time);
        match want_best {
            None => assert!(best.points.is_empty()),
            Some(want) => {
                assert_eq!(best.points.len(), 1);
                assert_eq!(best.points[0].plan, want.plan);
                assert_eq!(best.points[0].estimate.iteration_time, want.estimate.iteration_time);
                assert_eq!(
                    best.points[0].estimate.utilization.to_bits(),
                    want.estimate.utilization.to_bits(),
                    "winners must be bit-identical, not merely equal"
                );
            }
        }

        // `Front` is the exhaustive sweep, filtered: same evaluations,
        // no bounds, and (on one thread, where no steal reorders the
        // visit) the same fresh/patched split.
        let front = run_goal(SweepGoal::Front);
        assert_eq!(front.stats.bound_pruned, 0, "`Front` never prunes by bound");
        assert_eq!(front.stats.evaluated, exhaustive.stats.evaluated);
        if threads == 1 {
            assert_eq!(
                (front.stats.delta_fresh, front.stats.delta_patched),
                (exhaustive.stats.delta_fresh, exhaustive.stats.delta_patched)
            );
        }
        let want_front: Vec<&DesignPoint> = pareto_front(&exhaustive.points);
        assert_eq!(front.points.len(), want_front.len());
        for (got, want) in front.points.iter().zip(&want_front) {
            assert_eq!(got.plan, want.plan);
            assert_eq!(got.estimate.iteration_time, want.estimate.iteration_time);
            assert_eq!(got.estimate.num_gpus, want.estimate.num_gpus);
        }

        for outcome in [&best, &front] {
            let s = outcome.stats;
            assert_eq!(s.pruned + s.bound_pruned + s.evaluated, s.candidates);
            assert!(outcome.points.len() <= s.evaluated);
        }
        best.stats
    }

    #[test]
    fn goal_modes_return_exhaustive_winners_and_prune() {
        let cluster = ClusterSpec::aws_p4d(32);
        let estimator = Estimator::builder(cluster.clone()).build();
        let model = presets::megatron("1.7B");
        let limits =
            SearchLimits { max_tensor: 4, max_data: 8, max_pipeline: 4, max_micro_batch: 4 };
        let cands = enumerate_candidates(&model, &cluster, 32, PipelineSchedule::OneFOneB, &limits);
        assert!(cands.len() > 20, "grid too small to be meaningful");
        let best_stats = assert_goal_outcomes_match(&estimator, &model, &cands, 1);
        // On a single thread the incumbent is established early, so the
        // bound must actually skip work (the point of the feature).
        assert!(
            best_stats.bound_pruned > 0,
            "Best goal pruned nothing on {} candidates",
            cands.len()
        );
    }

    #[test]
    fn pre_cancelled_token_stops_before_any_evaluation() {
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        let token = CancelToken::new();
        token.cancel();
        let outcome =
            Sweep::over(&model, &cluster).batch(16).threads(2).cancel(token).run().into_outcome();
        assert_eq!(outcome.aborted, Some(AbortReason::Cancelled));
        assert_eq!(outcome.stats.evaluated, 0, "no candidate may run after cancellation");
        assert!(outcome.points.is_empty());
    }

    #[test]
    fn point_budget_aborts_and_reports_budget() {
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        let limits =
            SearchLimits { max_tensor: 4, max_data: 4, max_pipeline: 4, max_micro_batch: 4 };
        let full =
            Sweep::over(&model, &cluster).batch(16).limits(limits).threads(2).run().into_outcome();
        assert!(full.aborted.is_none());
        assert!(full.stats.evaluated > 3, "grid too small to exercise the budget");

        let budget = 3;
        let token = CancelToken::with_limits(None, Some(budget));
        let bounded = Sweep::over(&model, &cluster)
            .batch(16)
            .limits(limits)
            .threads(2)
            .cancel(token)
            .run()
            .into_outcome();
        assert_eq!(bounded.aborted, Some(AbortReason::Budget));
        assert!(
            bounded.stats.evaluated <= budget as usize,
            "claimed permits bound evaluations: {} > {budget}",
            bounded.stats.evaluated
        );
        // Whatever did run is a subset of the full sweep's results —
        // cancellation truncates, never corrupts.
        for point in &bounded.points {
            assert!(full.points.contains(point), "budgeted point not in full sweep");
        }
    }

    #[test]
    fn expired_deadline_aborts_with_deadline_reason() {
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        let token = CancelToken::with_timeout(std::time::Duration::ZERO);
        let outcome =
            Sweep::over(&model, &cluster).batch(16).threads(2).cancel(token).run().into_outcome();
        assert_eq!(outcome.aborted, Some(AbortReason::Deadline));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The sort-based frontier agrees with the quadratic oracle on
        /// random point clouds (including heavy tie collisions).
        #[test]
        fn pareto_agrees_with_naive(raw in proptest::collection::vec((1u64..20, 1usize..20), 0..60)) {
            let points: Vec<DesignPoint> =
                raw.into_iter().map(|(t, g)| synthetic_point(t, g)).collect();
            let fast: Vec<*const DesignPoint> =
                pareto_front(&points).into_iter().map(|p| p as *const _).collect();
            let naive: Vec<*const DesignPoint> =
                pareto_front_naive(&points).into_iter().map(|p| p as *const _).collect();
            prop_assert_eq!(fast, naive);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// Determinism under pruning: `Best`/`Front` return exactly the
        /// exhaustive sweep's winners across random grids, batch sizes,
        /// and thread counts — regardless of incumbent race timing.
        #[test]
        fn goal_pruning_never_changes_winners(
            max_tensor_exp in 0usize..=2,
            max_data in 1usize..=6,
            max_pipeline in 1usize..=4,
            batch_exp in 3usize..=5,
            threads in 1usize..=6,
            big_model in proptest::bool::ANY,
        ) {
            let cluster = ClusterSpec::aws_p4d(64);
            let estimator = Estimator::builder(cluster.clone()).build();
            let model =
                if big_model { presets::megatron("3.6B") } else { presets::megatron("1.7B") };
            let limits = SearchLimits {
                max_tensor: 1 << max_tensor_exp,
                max_data,
                max_pipeline,
                max_micro_batch: 2,
            };
            let cands = enumerate_candidates(
                &model,
                &cluster,
                1 << batch_exp,
                PipelineSchedule::OneFOneB,
                &limits,
            );
            assert_goal_outcomes_match(&estimator, &model, &cands, threads);
        }
    }
}
