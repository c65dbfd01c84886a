//! The end-to-end estimation pipeline: model + plan + cluster → iteration
//! time, utilization, and breakdown.
//!
//! [`Estimator`] is a staged pipeline with an explicit, individually
//! reusable stage per concern:
//!
//! 1. **validate** — feasibility and memory checks, no allocation
//!    (`O(1)`; this is also the sweep executor's pruning predicate);
//! 2. **lower** — price the plan's latency slots once (compute operators
//!    through the shared [`ProfileCache`]), then stream graph construction
//!    into tasks that take their slots' latencies and kinds;
//! 3. **simulate** — the Algorithm 1 replay ([`simulate`]);
//! 4. **summarize** — fold a [`SimReport`] into an [`IterationEstimate`].
//!
//! [`Estimator::measure`] and [`Estimator::timeline`] are thin
//! compositions of the stages over the full task graph: measured-mode
//! noise is a per-task duration keyed on task ids, which `measure` writes
//! into the graph's durations before a Predicted replay, and a timeline
//! needs one span per task. The full graph and the compact graph below
//! read one slot table, which records each slot's latency, task kind and
//! flow program, so an operator has one price whichever graph replays it;
//! the timeline labels each span and finds each flow program through its
//! task's slot.
//! [`Estimator::estimate`] fuses lowering and replay instead: it lowers
//! straight into the run-aggregated compact graph the sweep uses and
//! replays that, never materializing the task graph — by the max-plus
//! walk under the closed-form network, and under fair sharing by the flow
//! replay over the graph unrolled into one task per (section copy, run),
//! or by the same walk when no collective leaves a node.
//! The report is bit-identical to the full-graph replay (pinned by the
//! equivalence tests below and in `compact`), at a fraction of the time
//! and memory. Profiles are memoized in a concurrent
//! cache keyed by `(GpuKey, OpSignature)` shared across clones of the
//! estimator — a design-space sweep profiles each unique signature once,
//! not once per plan (§III-C, §III-F) — and cached results are
//! bit-identical to uncached ones (profiling is deterministic).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};
use vtrain_gpu::NoiseModel;
use vtrain_graph::{
    plan_shape_key, plan_task_count, visit_plan_slots, CommKind, CommOp, CompKind, GraphOptions,
    OpSignature, PlanShapeKey, SlotOp,
};
use vtrain_model::{ModelConfig, TimeNs};
use vtrain_net::{NetworkBackend, Topology};
use vtrain_obs::{CounterSample, TimelineRecorder, TraceSpan};
use vtrain_parallel::{ClusterSpec, ParallelConfig, PipelineSchedule, PlanError};
use vtrain_profile::{CacheStats, CommModel, GpuKey, ProfileCache, Profiler};

use crate::bounds::busy_floor;
use crate::compact::{
    lower_plan, lower_unrolled, price_plan, replay_lowered, replay_unrolled, CompactScratch,
    LowerOutcome, ProfileSource, Unrolled,
};
use crate::flow_replay::{replay, Programs};
use crate::sim::{simulate, with_noise, BusyBreakdown, SimMode, SimReport, SimScratch};
use crate::task_graph::{TaskGraph, TaskKind};

/// The most tasks a full task graph may hold. [`Estimator::timeline`]
/// and [`Estimator::measure`] materialize one task per operator, so their
/// memory grows with the micro-batch count (about 40 B per task for a
/// `measure`, about 800 B with a timeline's spans; flow programs are
/// shared per operator, not held per task).
/// Plans above this bound are refused with
/// [`EstimateError::GraphTooLarge`] before any lowering. Estimates under
/// the fair-sharing network keep the same bound, so their feasible set is
/// unchanged, although they replay the unrolled compact graph, which
/// holds at most as many tasks; closed-form predictions use the periodic
/// compact graph and have no such bound.
pub const MAX_FULL_GRAPH_TASKS: u64 = 1 << 22;

/// Error produced by [`Estimator::estimate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EstimateError {
    /// The plan is malformed or infeasible on this cluster.
    InvalidPlan(PlanError),
    /// The request needs a full task graph larger than
    /// [`MAX_FULL_GRAPH_TASKS`].
    GraphTooLarge {
        /// Tasks the full graph would hold.
        tasks: u64,
        /// The bound it exceeds.
        limit: u64,
    },
}

impl fmt::Display for EstimateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimateError::InvalidPlan(e) => write!(f, "invalid training plan: {e}"),
            EstimateError::GraphTooLarge { tasks, limit } => write!(
                f,
                "the full task graph of this plan would hold {tasks} tasks, above the limit of \
                 {limit}; timelines and measured runs need one task per operator, and \
                 fair-sharing estimates keep the same bound (closed-form predictions do not)"
            ),
        }
    }
}

impl std::error::Error for EstimateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimateError::InvalidPlan(e) => Some(e),
            EstimateError::GraphTooLarge { .. } => None,
        }
    }
}

impl From<PlanError> for EstimateError {
    fn from(e: PlanError) -> Self {
        EstimateError::InvalidPlan(e)
    }
}

/// The simulator's verdict on one `(model, plan)` point.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IterationEstimate {
    /// Single-iteration training time.
    pub iteration_time: TimeNs,
    /// Achieved FLOPS relative to peak across all `t·d·p` GPUs
    /// (the paper's GPU compute utilization, Fig. 1/10).
    pub utilization: f64,
    /// Busy time by category summed over simulated devices.
    pub busy: BusyBreakdown,
    /// Mean compute-stream occupancy (1 − bubble fraction).
    pub occupancy: f64,
    /// GPUs occupied by the plan.
    pub num_gpus: usize,
    /// Tokens consumed per iteration.
    pub tokens_per_iteration: u64,
}

/// Wall-clock nanoseconds attributed to each pipeline stage across one
/// or more estimates — the unit [`Estimator::estimate_staged`] fills and
/// the sweep's `--stage-profile` mode aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageNanos {
    /// Stage 1 — feasibility/memory validation.
    pub validate_ns: u64,
    /// Stage 2 — signature resolution + graph construction + lowering.
    pub lower_ns: u64,
    /// Stage 3 — the Algorithm 1 replay.
    pub simulate_ns: u64,
    /// Stage 4 — folding the report into the estimate.
    pub summarize_ns: u64,
}

impl StageNanos {
    /// Total attributed time across all four stages.
    pub fn total_ns(&self) -> u64 {
        self.validate_ns + self.lower_ns + self.simulate_ns + self.summarize_ns
    }

    /// Accumulates another attribution into this one.
    pub fn merge(&mut self, other: &StageNanos) {
        self.validate_ns += other.validate_ns;
        self.lower_ns += other.lower_ns;
        self.simulate_ns += other.simulate_ns;
        self.summarize_ns += other.summarize_ns;
    }

    /// Adds the lower, simulate and summarize windows between four
    /// consecutive clock reads.
    fn add_laps(&mut self, [t0, t1, t2, t3]: [Instant; 4]) {
        self.lower_ns += (t1 - t0).as_nanos() as u64;
        self.simulate_ns += (t2 - t1).as_nanos() as u64;
        self.summarize_ns += (t3 - t2).as_nanos() as u64;
    }
}

/// A fully-labeled per-stream execution timeline of one predicted
/// iteration — [`Estimator::timeline`]'s result.
#[derive(Debug)]
pub struct IterationTimeline {
    /// The recorded timeline: one track per simulated device (each
    /// pipeline stage's representative GPU), streams 0/1 = compute/comm,
    /// spans labeled with operator kinds and per-tier communication
    /// costs. Export with [`TimelineRecorder::to_chrome_trace`].
    pub recorder: TimelineRecorder,
    /// The replay report the timeline was captured from (bit-identical
    /// to the untraced replay).
    pub report: SimReport,
}

/// The vTrain estimation front-end: a staged `validate → lower →
/// simulate → summarize` pipeline over a shared profile cache.
///
/// Built declaratively with [`Estimator::builder`]; clones share the
/// cache (it sits behind an [`Arc`]), so handing clones to sweep worker
/// threads deduplicates profiling across the whole sweep.
#[derive(Clone, Debug)]
pub struct Estimator {
    cluster: ClusterSpec,
    comm: CommModel,
    graph_opts: GraphOptions,
    profiler: Profiler,
    cache: Arc<ProfileCache>,
    /// The profiler GPU's cache key, derived once per estimator instead
    /// of once per lookup.
    gpu_key: GpuKey,
    /// The §IV bandwidth-effectiveness calibration factor this estimator
    /// was built with (kept so derived estimators — sweeps over the same
    /// platform — can reproduce the configuration).
    alpha: f64,
    /// Ground-truth emulation oracle for [`Estimator::measure`].
    noise: NoiseModel,
    /// Process-unique identity of `comm`'s prices, assigned by
    /// [`EstimatorBuilder::build`] and shared by clones: an
    /// [`EstimatorScratch`] keeps the operators it priced only while the
    /// estimators it serves carry the same identity.
    pricing_id: u64,
}

/// The next [`Estimator::pricing_id`]; 0 is no estimator's, so a fresh
/// scratch matches none.
static NEXT_PRICING_ID: AtomicU64 = AtomicU64::new(1);

/// Declarative constructor for [`Estimator`] — one builder instead of a
/// constructor per configuration axis.
///
/// Every axis is optional: the default is the paper's calibrated flat
/// model (`α = 1.0`, fresh profile cache, Equation (1) communication,
/// default measurement noise).
///
/// ```
/// use std::sync::Arc;
/// use vtrain_core::Estimator;
/// use vtrain_parallel::ClusterSpec;
/// use vtrain_profile::ProfileCache;
///
/// let cluster = ClusterSpec::aws_p4d(64);
/// let estimator = Estimator::builder(cluster.clone())
///     .alpha(0.9)
///     .topology(cluster.topology(0.9))
///     .cache(Arc::new(ProfileCache::new()))
///     .build();
/// assert!(estimator.is_topology_aware());
/// ```
#[derive(Clone, Debug)]
pub struct EstimatorBuilder {
    cluster: ClusterSpec,
    /// `None` until [`EstimatorBuilder::alpha`] is called: unset, the
    /// topology's own per-tier αs are used exactly as declared instead
    /// of being silently reset to 1.0.
    alpha: Option<f64>,
    cache: Option<Arc<ProfileCache>>,
    topology: Option<Topology>,
    noise: Option<vtrain_gpu::NoiseConfig>,
    network: Option<NetworkBackend>,
}

impl EstimatorBuilder {
    /// Sets the bandwidth-effectiveness factor `α ∈ (0, 1]` applied to
    /// inter-node communication (paper §IV; default `1.0`, the value
    /// found optimal on the paper's 512-GPU platform).
    ///
    /// With a [`topology`](EstimatorBuilder::topology), an explicit
    /// `alpha` supersedes any per-tier `alpha` set on the topology's
    /// inter-node tiers — it is the one §IV calibration knob, applied
    /// uniformly above the node level (encode per-tier effectiveness
    /// differences in tier bandwidths instead). When *not* called, the
    /// topology's own per-tier `α`s are used exactly as declared.
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Shares an existing profile cache instead of creating a fresh one
    /// — e.g. one cache across estimators for several cluster sizes of
    /// the same GPU. Compute profiles are topology-independent, so
    /// estimators for different placements can share a cache soundly.
    pub fn cache(mut self, cache: Arc<ProfileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Prices collectives on a hierarchical `topology` (which may add a
    /// rack tier via
    /// [`Topology::with_rack_tier`](vtrain_net::Topology::with_rack_tier))
    /// via the `vtrain-net` algorithm library instead of the flat
    /// Equation (1) model.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Configures the ground-truth emulation effects
    /// [`Estimator::measure`] injects (default
    /// [`NoiseConfig::default`](vtrain_gpu::NoiseConfig), the paper's
    /// §IV error decomposition).
    pub fn noise(mut self, noise: vtrain_gpu::NoiseConfig) -> Self {
        self.noise = Some(noise);
        self
    }

    /// Selects the network-cost regime (default
    /// [`NetworkBackend::ClosedForm`], the paper's per-collective
    /// Equation (1) pricing). Under
    /// [`NetworkBackend::FairSharing`] the Predicted replay runs in
    /// physical time with link-crossing collectives as flows that
    /// max-min share each tier's effective bandwidth, so overlapping
    /// DP/TP/PP communication contends instead of being priced in
    /// isolation.
    pub fn network(mut self, network: NetworkBackend) -> Self {
        self.network = Some(network);
        self
    }

    /// Finalizes the estimator.
    pub fn build(self) -> Estimator {
        let EstimatorBuilder { cluster, alpha, cache, topology, noise, network } = self;
        let cache = cache.unwrap_or_default();
        let (comm, graph_opts) = match topology {
            None => {
                let comm = CommModel::new(&cluster, alpha.unwrap_or(1.0));
                let graph_opts = GraphOptions {
                    gpus_per_node: cluster.gpus_per_node,
                    ..GraphOptions::default()
                };
                (comm, graph_opts)
            }
            Some(topology) => {
                // An explicit α is the §IV supersede; unset, the
                // topology's own per-tier αs are used exactly as
                // declared (so `cluster.topology(0.8)` keeps its 0.8
                // and a heterogeneous rack spine keeps its own value).
                let comm = match alpha {
                    Some(alpha) => CommModel::with_topology(&cluster, alpha, topology.clone()),
                    None => CommModel::with_topology_tiers(&cluster, topology.clone()),
                };
                // Graph placement geometry follows the topology's node
                // shape (falling back to the cluster's for a flat
                // topology's unbounded node).
                let gpus_per_node = if topology.gpus_per_node() == usize::MAX {
                    cluster.gpus_per_node
                } else {
                    topology.gpus_per_node()
                };
                let nodes_per_rack = (topology.num_tiers() == 3).then(|| topology.nodes_per_rack());
                let graph_opts =
                    GraphOptions { gpus_per_node, nodes_per_rack, ..GraphOptions::default() };
                (comm, graph_opts)
            }
        };
        let comm = comm.with_backend(network.unwrap_or_default());
        let profiler = Profiler::new(cluster.gpu.clone());
        let gpu_key = GpuKey::of(&cluster.gpu);
        let noise = NoiseModel::new(noise.unwrap_or_default());
        let alpha = comm.alpha();
        let pricing_id = NEXT_PRICING_ID.fetch_add(1, Ordering::Relaxed);
        Estimator { cluster, comm, graph_opts, profiler, cache, gpu_key, alpha, noise, pricing_id }
    }
}

/// Reusable per-thread state of the sweep's evaluation hot path: the
/// compact lowering/replay buffers, the report whose vectors are
/// recycled, and this thread's exact share of profile-cache traffic.
///
/// Thread one of these through [`Estimator::estimate_validated_with`] and
/// steady-state closed-form evaluation performs no per-point heap
/// allocation; under fair sharing the unrolled graph and the flow
/// replay's vectors, join heap and flow simulator are reused too. The
/// scratch also keeps a table of the distinct communication operators it
/// has priced, with their latencies and flow programs, across points: a
/// worker prices each operator once, and allocates a flow program's phase
/// list only then. The table belongs to one estimator and its clones,
/// and is cleared when the scratch serves another.
#[derive(Default)]
pub struct EstimatorScratch {
    /// The [`Estimator::pricing_id`] of the estimator whose operators
    /// the compact scratch's table holds (0: none yet).
    pricing_id: u64,
    compact: CompactScratch,
    /// The fair-sharing network's per-slot flow programs and unrolled
    /// graph (untouched under the closed form).
    unrolled: Unrolled,
    /// The flow replay's working state.
    flows: SimScratch,
    report: SimReport,
    /// Profile-cache hits/misses attributable to this scratch's owner.
    cache_stats: CacheStats,
    /// Points lowered from scratch through the graph builder (monotonic).
    delta_fresh: u64,
    /// Points delta-patched from a shape-compatible neighbor (monotonic).
    delta_patched: u64,
    /// Each stage's `[compute, communication]` stream busy nanoseconds
    /// of the latest busy floor.
    floor: Vec<[u64; 2]>,
}

impl EstimatorScratch {
    /// This scratch's exact profile-cache hit/miss tally (monotonic).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    /// `(fresh, patched)` lowering counts of this scratch: how many
    /// points were lowered from scratch vs. delta-patched from a
    /// shape-compatible neighbor's cached graph (monotonic).
    pub fn delta_counts(&self) -> (u64, u64) {
        (self.delta_fresh, self.delta_patched)
    }
}

/// [`ProfileSource`] over the estimator's shared cache: weight updates
/// (near-unique parameter counts) are evaluated closed-form inline;
/// everything else goes through the cache with exact hit/miss
/// attribution into the scratch's local tally.
struct CacheSource<'a> {
    cache: &'a ProfileCache,
    profiler: &'a Profiler,
    gpu_key: &'a GpuKey,
    stats: &'a mut CacheStats,
}

impl ProfileSource for CacheSource<'_> {
    fn op_latency(&mut self, sig: &OpSignature) -> (TimeNs, u32) {
        if sig.kind == CompKind::WeightUpdate {
            return self.profiler.operator_latency(sig);
        }
        let profile = self.cache.get_with(self.gpu_key, self.profiler, sig, self.stats);
        (profile.total(), profile.kernel_count() as u32)
    }
}

impl Estimator {
    /// Starts building an estimator for `cluster` — the one constructor.
    ///
    /// Defaults: `α = 1.0` (the value §IV found optimal on the paper's
    /// 512-GPU platform), a fresh profile cache, the flat Equation (1)
    /// communication model, and the paper's default measurement noise.
    pub fn builder(cluster: ClusterSpec) -> EstimatorBuilder {
        EstimatorBuilder {
            cluster,
            alpha: None,
            cache: None,
            topology: None,
            noise: None,
            network: None,
        }
    }

    /// The network-cost regime this estimator replays communication
    /// under.
    pub fn network(&self) -> NetworkBackend {
        self.comm.backend()
    }

    /// The bandwidth-effectiveness factor this estimator was built with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The ground-truth emulation oracle [`Estimator::measure`] uses.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The interconnect topology communication is priced against.
    pub fn topology(&self) -> &Topology {
        self.comm.topology()
    }

    /// True if this estimator routes collectives through the
    /// topology-aware algorithm library.
    pub fn is_topology_aware(&self) -> bool {
        self.comm.is_topology_aware()
    }

    /// The cluster being modeled.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The shared profile cache.
    pub fn cache(&self) -> &Arc<ProfileCache> {
        &self.cache
    }

    /// Lifetime hit/miss counters of the shared profile cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// **Stage 1 — validate.** Checks the plan against the model and
    /// cluster (divisibility, NVLink domain, pipeline depth, GPU count,
    /// per-GPU memory). Cheap: no profiling, and no allocation under the
    /// closed-form network — the sweep executor uses this as its pruning
    /// predicate. Under the fair-sharing network it also admits the full
    /// task graph's size (see [`MAX_FULL_GRAPH_TASKS`]), so the feasible
    /// fair-sharing plans stay those the full-graph replay accepted.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::InvalidPlan`] with the first violated
    /// constraint, or [`EstimateError::GraphTooLarge`] for a fair-sharing
    /// estimator and a plan whose full graph exceeds the bound.
    pub fn validate(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
    ) -> Result<(), EstimateError> {
        plan.validate(model, &self.cluster)?;
        if self.network() == NetworkBackend::FairSharing {
            self.admit_full_graph(model, plan)?;
        }
        Ok(())
    }

    /// Refuses a validated plan whose full task graph would exceed
    /// [`MAX_FULL_GRAPH_TASKS`]. The exact task count is a closed-form
    /// sum over the stages ([`plan_task_count`]), in time independent of
    /// the micro-batch count.
    fn admit_full_graph(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
    ) -> Result<(), EstimateError> {
        let tasks = plan_task_count(model, plan, &self.graph_opts);
        if tasks > MAX_FULL_GRAPH_TASKS {
            count_full_lowering("refused");
            return Err(EstimateError::GraphTooLarge { tasks, limit: MAX_FULL_GRAPH_TASKS });
        }
        Ok(())
    }

    /// **Stage 2 — lower.** Prices the plan's latency slots once, the
    /// slot table the compact path prices too (compute operators through
    /// the shared profile cache, which profiles only signatures no
    /// previous query has seen; each distinct communication operator
    /// once), then streams the execution graph directly into a lowered
    /// [`TaskGraph`], each task taking its slot's latency and kind.
    ///
    /// Weight updates are the one exception to cache residency: they
    /// decompose to a single fused Adam kernel whose latency is a
    /// closed-form function of the per-stage parameter count, so they are
    /// evaluated inline — per-stage parameter counts are nearly unique
    /// across `(t, p)` and would dilute the cache with unshareable
    /// entries.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid for the model (run
    /// [`Estimator::validate`] first).
    pub fn lower(&self, model: &ModelConfig, plan: &ParallelConfig) -> TaskGraph {
        self.lower_full(model, plan, &mut CompactScratch::default(), None)
    }

    /// [`Estimator::lower`] on `compact`'s slot table, with `task_slots`
    /// pushing each task's slot onto it.
    fn lower_full(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        compact: &mut CompactScratch,
        task_slots: Option<&mut Vec<u32>>,
    ) -> TaskGraph {
        let mut stats = CacheStats::default();
        let mut source = CacheSource {
            cache: &self.cache,
            profiler: &self.profiler,
            gpu_key: &self.gpu_key,
            stats: &mut stats,
        };
        let opts = &self.graph_opts;
        price_plan(model, plan, opts, &mut source, &self.comm, compact);
        TaskGraph::lower_slots(model, plan, opts, compact, task_slots)
    }

    /// **Stage 3 — simulate.** Replays a lowered task graph (Algorithm 1).
    pub fn simulate(&self, task_graph: &TaskGraph, mode: SimMode<'_>) -> SimReport {
        simulate(task_graph, mode)
    }

    /// **Stage 4 — summarize.** Folds a replay report into the
    /// user-facing estimate (utilization, occupancy, token accounting).
    pub fn summarize(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        report: &SimReport,
    ) -> IterationEstimate {
        let flops = model.flops_per_iteration(plan.global_batch(), self.graph_opts.recompute);
        let peak = self.cluster.gpu.peak_fp16_flops * plan.num_gpus() as f64;
        let utilization = (flops.as_f64() / (peak * report.iteration_time.as_secs_f64())).min(1.0);
        IterationEstimate {
            iteration_time: report.iteration_time,
            utilization,
            occupancy: report.mean_device_occupancy(),
            busy: report.busy,
            num_gpus: plan.num_gpus(),
            tokens_per_iteration: model.tokens_per_iteration(plan.global_batch()),
        }
    }

    /// vTrain's prediction for one design point: `validate → lower →
    /// simulate → summarize`, with lowering and replay fused on the
    /// compact graph under the closed-form network (bit-identical to
    /// running [`Estimator::lower`] and [`Estimator::simulate`] by hand).
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::InvalidPlan`] if the plan fails
    /// [`ParallelConfig::validate`] against the model and cluster.
    pub fn estimate(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
    ) -> Result<IterationEstimate, EstimateError> {
        self.validate(model, plan)?;
        let mut scratch = EstimatorScratch::default();
        Ok(self.estimate_compact(model, plan, &mut scratch, None))
    }

    /// The sweep's hot path (allocation-free under the closed-form
    /// network, see [`EstimatorScratch`]): lowers `(model, plan)`
    /// straight into the scratch's aggregated replay graph and replays it
    /// in Predicted mode, reusing every buffer point to point. The result
    /// is bit-identical to [`Estimator::estimate`] (equivalence proven by
    /// the compact-replay property tests and the sweep golden tests); the
    /// plan must already be validated.
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid for the model (run
    /// [`Estimator::validate`] first).
    pub fn estimate_validated_with(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        scratch: &mut EstimatorScratch,
    ) -> IterationEstimate {
        self.estimate_compact(model, plan, scratch, None)
    }

    /// The one compact path behind [`Estimator::estimate`],
    /// [`Estimator::estimate_validated_with`],
    /// [`Estimator::estimate_staged`] and the sweep executor: prices the
    /// plan's slot table ([`Estimator::price_compact`]), then lowers,
    /// replays and summarizes it ([`Estimator::estimate_priced`]). With
    /// `stages`, the pricing counts as lowering.
    pub(crate) fn estimate_compact(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        scratch: &mut EstimatorScratch,
        stages: Option<&mut StageNanos>,
    ) -> IterationEstimate {
        let t0 = stages.is_some().then(Instant::now);
        self.price_compact(model, plan, scratch);
        self.estimate_priced(model, plan, scratch, stages.zip(t0))
    }

    /// The first step of the compact path: prices every latency slot of
    /// `(model, plan)` into the scratch's slot table — compute operators
    /// through the shared profile cache, each distinct communication
    /// operator once per scratch — with the period count of every
    /// section. The busy floor ([`Estimator::busy_floor`]) and the rest
    /// of the estimate ([`Estimator::estimate_priced`]) both read it, so
    /// a `Best` sweep prices a surviving point once. The communication
    /// slots, and the operators priced for them that the scratch's table
    /// did not hold yet, add to the `estimate.comm.slots` and
    /// `estimate.comm.priced` counters.
    pub(crate) fn price_compact(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        scratch: &mut EstimatorScratch,
    ) {
        let EstimatorScratch { pricing_id, compact, cache_stats, .. } = scratch;
        if *pricing_id != self.pricing_id {
            compact.forget_prices();
            *pricing_id = self.pricing_id;
        }
        let mut source = CacheSource {
            cache: &self.cache,
            profiler: &self.profiler,
            gpu_key: &self.gpu_key,
            stats: cache_stats,
        };
        price_plan(model, plan, &self.graph_opts, &mut source, &self.comm, compact);
        if vtrain_obs::enabled() {
            let metrics = vtrain_obs::global();
            let (slots, priced) = compact.comm_pricings();
            metrics.counter("estimate.comm.slots").add(slots);
            metrics.counter("estimate.comm.priced").add(priced);
        }
    }

    /// The admissible floor on the iteration time of the plan
    /// [`Estimator::price_compact`] priced into `scratch`: its busiest
    /// stream's exact busy time (see [`bounds`](crate::bounds)).
    pub(crate) fn busy_floor(
        &self,
        plan: &ParallelConfig,
        scratch: &mut EstimatorScratch,
    ) -> TimeNs {
        busy_floor(&scratch.compact, plan.pipeline(), &mut scratch.floor)
    }

    /// The rest of the compact path, on a scratch
    /// [`Estimator::price_compact`] priced for `(model, plan)`: lowers
    /// the plan into the scratch's aggregated replay graph (a delta patch
    /// when the scratch already holds a graph of the same shape key),
    /// replays it and summarizes. Under the closed-form network the
    /// replay is the max-plus walk of the periodic graph. Under fair
    /// sharing the same walk prices a plan whose collectives all stay
    /// inside a node, since no slot carries a flow program; any other plan
    /// is unrolled into one task per (section copy, run), and the replay
    /// is the flow replay over those instances. Neither the operator graph
    /// nor the full task graph is built. With `stages` and the instant
    /// the lowering window opened, the three steps are timed from inside
    /// the fused pipeline, so a patch shows up as a shrunken `lower_ns`;
    /// without, no clock is read. The estimate is
    /// bit-identical whether the graph was patched or built, and to the
    /// full-graph replay, proven by the compact A/B property tests.
    pub(crate) fn estimate_priced(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        scratch: &mut EstimatorScratch,
        stages: Option<(&mut StageNanos, Instant)>,
    ) -> IterationEstimate {
        let EstimatorScratch {
            compact, unrolled, flows, report, delta_fresh, delta_patched, ..
        } = scratch;
        let fair = self.network() == NetworkBackend::FairSharing;
        let opts = &self.graph_opts;
        let timed = stages.is_some();
        let clock = || timed.then(Instant::now);
        let outcome = if fair {
            lower_unrolled(model, plan, opts, compact, unrolled)
        } else {
            lower_plan(model, plan, opts, compact)
        };
        let t1 = clock();
        // Only fair sharing prices flow programs: without one, nothing
        // shares a link and the closed-form walk is exact.
        if compact.has_flows() {
            replay_unrolled(compact, unrolled, self.topology(), flows, report);
        } else {
            replay_lowered(compact, plan.pipeline(), report);
        }
        let t2 = clock();
        let estimate = self.summarize(model, plan, report);
        if let (Some((stages, t0)), Some(t1), Some(t2)) = (stages, t1, t2) {
            stages.add_laps([t0, t1, t2, Instant::now()]);
        }
        let counter = match outcome {
            LowerOutcome::Fresh => {
                *delta_fresh += 1;
                "estimate.compact.fresh"
            }
            LowerOutcome::Patched => {
                *delta_patched += 1;
                "estimate.compact.patched"
            }
        };
        if vtrain_obs::enabled() {
            let metrics = vtrain_obs::global();
            metrics.counter(counter).inc();
            if fair && !compact.has_flows() {
                metrics.counter("estimate.fair.flow_free").inc();
            }
            record_compact_size(compact);
        }
        estimate
    }

    /// The structural shape key of `(model, plan)` under this
    /// estimator's graph options: equal keys guarantee identical compact
    /// graph structure, licensing a delta patch between the two plans.
    /// The sweep executor groups candidates by this key so
    /// shape-compatible neighbors are visited back to back.
    pub(crate) fn shape_key(&self, model: &ModelConfig, plan: &ParallelConfig) -> PlanShapeKey {
        plan_shape_key(model, plan, &self.graph_opts)
    }

    /// An admissible lower bound on the plan's Predicted iteration time,
    /// computed without lowering: the busiest stream's exact busy time,
    /// from the plan's slot table priced into a fresh scratch. A
    /// [`SweepGoal::Best`](crate::search::SweepGoal::Best) sweep tests
    /// the same floor, on its worker's scratch, to skip points that
    /// provably lose to its incumbent.
    ///
    /// # Panics
    ///
    /// Same preconditions as [`Estimator::lower`]: the plan must be valid
    /// for the model.
    pub fn lower_bound(&self, model: &ModelConfig, plan: &ParallelConfig) -> TimeNs {
        let mut scratch = EstimatorScratch::default();
        self.price_compact(model, plan, &mut scratch);
        self.busy_floor(plan, &mut scratch)
    }

    /// Ground-truth emulated "measurement" of the same design point — the
    /// stand-in for the real training runs of the paper's validation
    /// (Fig. 9, Table II). The same staged composition, with the noise
    /// model's perturbations written into the task graph's durations
    /// before the replay, plus a configuration-level iteration bias. The
    /// straggler pool counts the nodes of the graph's placement.
    ///
    /// The noisy graph is replayed without a network: every communication
    /// task runs for its closed-form latency. Under
    /// [`NetworkBackend::FairSharing`] the emulated ground truth therefore
    /// sees no link contention, and equals what a closed-form estimator
    /// on the same topology measures, while [`Estimator::estimate`]
    /// prices the contention. Giving it contention needs a rule for how
    /// noise applies to a contended flow.
    ///
    /// Uses the noise the estimator was
    /// [built with](EstimatorBuilder::noise) (the paper's §IV error
    /// decomposition by default); [`Estimator::measure_with`] accepts an
    /// explicit oracle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn measure(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
    ) -> Result<IterationEstimate, EstimateError> {
        self.measure_with(model, plan, &self.noise)
    }

    /// [`Estimator::measure`] under an explicit noise oracle. Like it, the
    /// noisy graph is replayed without a network, so under
    /// [`NetworkBackend::FairSharing`] the measurement has no link
    /// contention and equals the closed-form one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn measure_with(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        noise: &NoiseModel,
    ) -> Result<IterationEstimate, EstimateError> {
        plan.validate(model, &self.cluster)?;
        self.admit_full_graph(model, plan)?;
        count_full_lowering("measured");
        let nodes = plan.num_gpus().div_ceil(self.graph_opts.gpus_per_node);
        let tg = with_noise(self.lower(model, plan), SimMode::Measured { noise, nodes });
        let mut report = self.simulate(&tg, SimMode::Predicted);
        // Configuration-level runtime bias a kernel replay cannot see
        // (framework effects); keyed deterministically on the config via a
        // toolchain-stable hash.
        let key = stable_config_key(model, plan);
        report.iteration_time = report.iteration_time.scale(noise.iteration_bias(key, nodes));
        Ok(self.summarize(model, plan, &report))
    }

    /// [`Estimator::estimate`] with wall-clock stage attribution: each of
    /// the four pipeline stages is timed individually and accumulated
    /// into `stages`, on the same path [`Estimator::estimate`] takes (the
    /// compact path under either network), so the estimate is
    /// bit-identical and the attribution describes what a prediction
    /// actually costs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn estimate_staged(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
        stages: &mut StageNanos,
    ) -> Result<IterationEstimate, EstimateError> {
        let t0 = Instant::now();
        self.validate(model, plan)?;
        stages.validate_ns += t0.elapsed().as_nanos() as u64;
        let mut scratch = EstimatorScratch::default();
        let estimate = self.estimate_compact(model, plan, &mut scratch, Some(stages));
        // Teardown is attributed to the stage that allocated the buffers
        // (lowering); otherwise per-estimate deallocation leaks out of
        // the attribution.
        let t1 = Instant::now();
        drop(scratch);
        stages.lower_ns += t1.elapsed().as_nanos() as u64;
        Ok(estimate)
    }

    /// Captures a fully-labeled per-stream execution timeline of one
    /// predicted iteration: the traced Algorithm 1 replay, each span
    /// labeled through its task's latency slot, with per-tier
    /// communication costs from the estimator's [`CommModel`] (computed
    /// once per slot) attached as span args. Under fair sharing the flow
    /// tasks drain their slots' programs from the slot table's operator
    /// table.
    ///
    /// The returned recorder has one track per simulated device (each
    /// pipeline stage's representative GPU) with `compute`/`comm` stream
    /// lanes; the report is bit-identical to [`Estimator::estimate`]'s
    /// underlying replay, and the latest span end equals
    /// `report.iteration_time` exactly.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Estimator::estimate`].
    pub fn timeline(
        &self,
        model: &ModelConfig,
        plan: &ParallelConfig,
    ) -> Result<IterationTimeline, EstimateError> {
        plan.validate(model, &self.cluster)?;
        self.admit_full_graph(model, plan)?;
        count_full_lowering("timeline");
        let (mut compact, mut slots) = (CompactScratch::default(), Vec::new());
        let tg = self.lower_full(model, plan, &mut compact, Some(&mut slots));
        // One label per latency slot, its tier breakdown computed once: a
        // span takes the label of its task's slot.
        let mut labels = Vec::new();
        visit_plan_slots(model, plan, &self.graph_opts, |op| {
            labels.push(slot_label(&op, compact.task_kind(labels.len()), &self.comm));
        });

        let mut recorder = TimelineRecorder::new();
        for dev in 0..u64::from(tg.num_devices()) {
            recorder.set_track_name(dev, format!("stage {dev} rank group"));
            recorder.set_stream_name(dev, 0, "compute");
            recorder.set_stream_name(dev, 1, "comm");
        }

        let (devices, streams) = (tg.devices(), tg.streams());
        let mut report = SimReport::default();
        let mut record = |id: u32, start: TimeNs, finish: TimeNs| {
            let i = id as usize;
            let (name, cat, args) = &labels[slots[i] as usize];
            recorder.record(TraceSpan {
                pid: u64::from(devices[i]),
                tid: u64::from(streams[i]),
                name: (*name).to_owned(),
                cat: (*cat).to_owned(),
                start_ns: start.as_nanos(),
                dur_ns: (finish - start).as_nanos(),
                args: args.clone(),
            });
        };
        let mut entries = Vec::new();
        let programs = match self.network() {
            NetworkBackend::ClosedForm => Programs::Fixed,
            NetworkBackend::FairSharing => {
                compact.task_programs(self.topology(), &slots, &mut entries)
            }
        };
        // Counter samples are buffered and attached after the replay: the
        // span-recording closure holds the recorder borrow.
        let mut samples: Vec<(TimeNs, Vec<f64>)> = Vec::new();
        let mut net_trace = |t: TimeNs, util: &[f64]| samples.push((t, util.to_vec()));
        let mut scratch = SimScratch::default();
        replay(&tg, programs, Some(&mut record), Some(&mut net_trace), &mut scratch, &mut report);
        for (t, util) in samples {
            recorder.record_counter(CounterSample {
                pid: 0,
                name: "net.link_utilization".to_owned(),
                ts_ns: t.as_nanos(),
                values: util
                    .iter()
                    .enumerate()
                    .map(|(tier, u)| (format!("tier{tier}_pct"), (u * 100.0).round() as u64))
                    .collect(),
            });
        }
        Ok(IterationTimeline { recorder, report })
    }
}

/// Counts one estimate that left the compact fast path for a full task
/// graph, as `estimate.full_lowering.<reason>` in the metrics registry
/// (a no-op while observability is disabled).
fn count_full_lowering(reason: &str) {
    if vtrain_obs::enabled() {
        vtrain_obs::global().counter(&format!("estimate.full_lowering.{reason}")).inc();
    }
}

/// Records the size of the compact graph one estimate replayed: its run
/// count into the `estimate.compact.runs` histogram, the section copies
/// the plan runs and those the replay walked into
/// `estimate.compact.periods_total` / `estimate.compact.periods_walked`
/// (equal when no section's common shift showed), and the
/// scratch's reserved bytes into the `estimate.compact.scratch_bytes`
/// high-water gauge.
fn record_compact_size(compact: &CompactScratch) {
    let metrics = vtrain_obs::global();
    metrics.histogram("estimate.compact.runs").record(compact.num_runs() as u64);
    let (walked, total) = compact.periods();
    metrics.histogram("estimate.compact.periods_total").record(total);
    metrics.histogram("estimate.compact.periods_walked").record(walked);
    metrics.gauge("estimate.compact.scratch_bytes").set_max(compact.capacity_bytes() as u64);
}

/// `(name, category, args)` of the spans of latency slot `op`, whose
/// recorded task kind is `kind`.
fn slot_label(
    op: &SlotOp,
    kind: TaskKind,
    comm: &CommModel,
) -> (&'static str, &'static str, Vec<(String, u64)>) {
    match (op, kind) {
        (SlotOp::Compute(sig), TaskKind::Compute { kernels }) => {
            let (name, cat) = compute_label(sig.kind);
            (name, cat, vec![("kernels".to_owned(), u64::from(kernels))])
        }
        (SlotOp::Comm(c), _) => comm_label(c, comm),
        (SlotOp::Compute(_), TaskKind::Comm { .. }) => unreachable!("a compute slot's kind"),
    }
}

/// `(name, category)` of a compute span.
fn compute_label(kind: CompKind) -> (&'static str, &'static str) {
    match kind {
        CompKind::EmbeddingFwd => ("EmbeddingFwd", "Fwd"),
        CompKind::MhaFwd => ("MhaFwd", "Fwd"),
        CompKind::FfnFwd => ("FfnFwd", "Fwd"),
        CompKind::LmHeadFwd => ("LmHeadFwd", "Fwd"),
        CompKind::EmbeddingBwd => ("EmbeddingBwd", "Bwd"),
        CompKind::MhaBwd => ("MhaBwd", "Bwd"),
        CompKind::FfnBwd => ("FfnBwd", "Bwd"),
        CompKind::LmHeadBwd => ("LmHeadBwd", "Bwd"),
        CompKind::WeightUpdate => ("WeightUpdate", "WeightUpdate"),
    }
}

/// `(name, category, args)` of a communication span: payload geometry
/// plus the comm model's per-tier cost attribution ([`CostBreakdown`](vtrain_net::collective::CostBreakdown)
/// phases summed by tier).
fn comm_label(op: &CommOp, comm: &CommModel) -> (&'static str, &'static str, Vec<(String, u64)>) {
    let name = match op.kind {
        CommKind::TpAllReduce => "TpAllReduce",
        CommKind::DpAllReduce => "DpAllReduce",
        CommKind::PpSendRecv => "PpSendRecv",
    };
    let mut args =
        vec![("bytes".to_owned(), op.bytes.as_u64()), ("ranks".to_owned(), op.ranks as u64)];
    let breakdown = comm.breakdown(op);
    let mut tiers: Vec<(usize, u64)> = Vec::new();
    for phase in &breakdown.phases {
        match tiers.iter_mut().find(|(t, _)| *t == phase.tier) {
            Some((_, ns)) => *ns += phase.time.as_nanos(),
            None => tiers.push((phase.tier, phase.time.as_nanos())),
        }
    }
    tiers.sort_by_key(|&(t, _)| t);
    for (tier, ns) in tiers {
        args.push((format!("tier{tier}_ns"), ns));
    }
    (name, "Comm", args)
}

/// FNV-1a accumulator for the measured-mode configuration key.
///
/// `std::collections::hash_map::DefaultHasher` makes no cross-release
/// stability promise, and "measured" runs must reproduce across
/// toolchains, so the key is an explicit FNV-1a over an explicit field
/// serialization (see [`stable_config_key`]).
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Toolchain-stable 64-bit identity of a `(model, plan)` configuration.
///
/// Every field is serialized explicitly (name bytes length-prefixed,
/// numerics as little-endian `u64`), so the value depends only on this
/// function — never on `#[derive(Hash)]` layout or the standard hasher.
///
/// Maintenance note: unlike the `#[derive(Hash)]` it replaced, this list
/// does NOT extend itself when `ModelConfig` or `ParallelConfig` grow a
/// field — add new fields here (and to
/// `stable_config_key_separates_configurations`) or two configurations
/// differing only in the new field will share a measured-mode bias.
fn stable_config_key(model: &ModelConfig, plan: &ParallelConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(model.name().len() as u64);
    h.write_bytes(model.name().as_bytes());
    for dim in [
        model.hidden_size(),
        model.num_layers(),
        model.seq_len(),
        model.num_heads(),
        model.vocab_size(),
        model.ffn_expansion(),
    ] {
        h.write_u64(dim as u64);
    }
    for dim in
        [plan.tensor(), plan.data(), plan.pipeline(), plan.micro_batch(), plan.global_batch()]
    {
        h.write_u64(dim as u64);
    }
    h.write_u64(match plan.schedule() {
        PipelineSchedule::GPipe => 0,
        PipelineSchedule::OneFOneB => 1,
    });
    h.write_u64(u64::from(plan.gradient_bucketing()));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtrain_gpu::NoiseConfig;
    use vtrain_graph::{build_op_graph, Op};
    use vtrain_model::presets;
    use vtrain_net::flow::FlowProgram;

    /// A full task graph with one flow program per task, and the identity
    /// index that replays it.
    struct NodePrograms {
        graph: TaskGraph,
        programs: Vec<Option<FlowProgram>>,
        identity: Vec<u32>,
    }

    impl NodePrograms {
        /// The graph's flow programs on `topology`.
        fn programs<'a>(&'a self, topology: &'a Topology) -> Programs<'a> {
            Programs::Indexed { topology, table: &self.programs, index: &self.identity }
        }
    }

    /// [`Estimator::lower`] plus the per-task flow programs the
    /// fair-sharing replay consumes, priced per operator-graph node with
    /// [`CommModel::flow_program`], independently of the slot table:
    /// `Some` exactly for the link-crossing communication tasks (one task
    /// per node in node order, so task id == node index). The full-graph
    /// oracle of the fair-sharing estimate.
    fn lower_with_programs(
        est: &Estimator,
        model: &ModelConfig,
        plan: &ParallelConfig,
    ) -> NodePrograms {
        let graph = build_op_graph(model, plan, &est.graph_opts);
        let tg = est.lower(model, plan);
        assert_eq!(tg.len(), graph.num_nodes(), "lowering preserves node count and order");
        let programs = graph
            .nodes()
            .iter()
            .map(|node| match &node.op {
                Op::Comm(c) => est.comm.flow_program(c),
                Op::Compute(_) => None,
            })
            .collect();
        let identity = (0..tg.len() as u32).collect();
        NodePrograms { graph: tg, programs, identity }
    }

    fn plan(t: usize, d: usize, p: usize, m: usize, b: usize) -> ParallelConfig {
        ParallelConfig::builder()
            .tensor(t)
            .data(d)
            .pipeline(p)
            .micro_batch(m)
            .global_batch(b)
            .build()
            .unwrap()
    }

    #[test]
    fn estimate_rejects_invalid_plans() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(8)).build();
        let err = est.estimate(&presets::megatron("1.7B"), &plan(16, 1, 1, 1, 8)).unwrap_err();
        assert!(matches!(err, EstimateError::InvalidPlan(_)));
        assert!(err.to_string().contains("invalid training plan"));
    }

    #[test]
    fn utilization_in_plausible_band() {
        // A reasonable plan for 18.4B on 64 GPUs should land in the
        // 25–60 % utilization band the paper reports for A100 systems.
        let est = Estimator::builder(ClusterSpec::aws_p4d(64)).build();
        let e = est.estimate(&presets::megatron("18.4B"), &plan(8, 8, 1, 2, 128)).unwrap();
        assert!(e.utilization > 0.25 && e.utilization < 0.65, "utilization {:.3}", e.utilization);
    }

    #[test]
    fn tensor_parallel_beats_single_gpu_latency() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(8)).build();
        let model = presets::megatron("1.7B");
        let t1 = est.estimate(&model, &plan(1, 1, 1, 1, 8)).unwrap();
        let t8 = est.estimate(&model, &plan(8, 1, 1, 1, 8)).unwrap();
        assert!(t8.iteration_time < t1.iteration_time);
        // ... at lower utilization (All-Reduce overhead + smaller GEMMs).
        assert!(t8.utilization < t1.utilization);
    }

    #[test]
    fn measured_is_slower_on_average_and_close() {
        // Counts full-graph exits: keep out of the counter test's window.
        let _flag = OBS_FLAG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Any single configuration's iteration-level bias may scatter
        // below 1 (the paper's Fig. 9 points sit on both sides of the
        // diagonal), so assert the ensemble behaviour: each ratio stays in
        // a sane envelope and the mean shows the systematic slow-down.
        let est = Estimator::builder(ClusterSpec::aws_p4d(16)).build();
        let model = presets::megatron("1.7B");
        let noise = NoiseModel::new(NoiseConfig::default());
        let plans =
            [plan(4, 2, 2, 1, 8), plan(2, 2, 2, 1, 8), plan(2, 4, 2, 1, 8), plan(8, 2, 1, 1, 8)];
        let mut ratios = Vec::new();
        for p in &plans {
            let predicted = est.estimate(&model, p).unwrap();
            let measured = est.measure_with(&model, p, &noise).unwrap();
            let ratio =
                measured.iteration_time.as_secs_f64() / predicted.iteration_time.as_secs_f64();
            assert!(ratio > 0.8 && ratio < 1.7, "measured/predicted ratio {ratio} for {p}");
            ratios.push(ratio);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean > 1.0, "mean measured/predicted ratio {mean:.3} should exceed 1");
    }

    #[test]
    fn measure_counts_the_nodes_of_the_graphs_placement() {
        // Counts full-graph exits: keep out of the counter test's window.
        let _flag = OBS_FLAG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // A topology of 4-GPU nodes on a cluster of 8-GPU nodes: the
        // graph's communication scopes follow the topology, and so must
        // the straggler pool and the iteration bias.
        let cluster = ClusterSpec::aws_p4d(64);
        let tier = |bandwidth, latency| vtrain_net::TierSpec::new(bandwidth, latency, 1.0);
        let topology = Topology::two_tier(
            4,
            tier(cluster.nvlink_bus_bandwidth, cluster.nvlink_latency),
            tier(cluster.internode_bandwidth, cluster.internode_latency),
        );
        let est = Estimator::builder(cluster).topology(topology).build();
        let model = presets::megatron("1.7B");
        let p = plan(4, 4, 2, 1, 16);
        let noise = NoiseModel::new(NoiseConfig::default());
        let compose = |gpus_per_node: usize| {
            let nodes = p.num_gpus().div_ceil(gpus_per_node);
            let measured = SimMode::Measured { noise: &noise, nodes };
            let mut report = simulate(&est.lower(&model, &p), measured);
            let bias = noise.iteration_bias(stable_config_key(&model, &p), nodes);
            report.iteration_time = report.iteration_time.scale(bias);
            est.summarize(&model, &p, &report)
        };
        let measured = est.measure_with(&model, &p, &noise).unwrap();
        assert_eq!(measured, compose(4));
        assert_ne!(measured, compose(8), "the node count moves the measurement");
    }

    #[test]
    fn data_parallel_scales_throughput() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(64)).build();
        let model = presets::megatron("1.7B");
        // Same per-replica work, 8× replicas consume 8× tokens per
        // iteration in comparable time.
        let one = est.estimate(&model, &plan(2, 1, 1, 2, 16)).unwrap();
        let eight = est.estimate(&model, &plan(2, 8, 1, 2, 128)).unwrap();
        let slowdown = eight.iteration_time.as_secs_f64() / one.iteration_time.as_secs_f64();
        assert!(slowdown < 1.4, "DP iteration slowdown {slowdown}");
        assert_eq!(eight.tokens_per_iteration, 8 * one.tokens_per_iteration);
    }

    /// Serializes the tests that switch the process-wide observability
    /// flag, so one test's `set_enabled(false)` cannot land inside
    /// another's enabled window.
    static OBS_FLAG: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn full_lowering_paths_are_counted() {
        let _flag = OBS_FLAG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let counter = |reason: &str| {
            vtrain_obs::global().counter(&format!("estimate.full_lowering.{reason}"))
        };
        let reasons = ["measured", "timeline", "refused"];
        let read = || reasons.map(|r| counter(r).get());
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        let p = plan(2, 4, 2, 1, 8);
        let closed = Estimator::builder(cluster.clone()).build();
        let fair = Estimator::builder(cluster).network(NetworkBackend::FairSharing).build();
        vtrain_obs::set_enabled(true);
        // A fair-sharing estimate stays on the compact graph.
        let before = read();
        fair.estimate(&model, &p).unwrap();
        let after_fair = read();
        closed.measure(&model, &p).unwrap();
        fair.timeline(&model, &p).unwrap();
        let after = read();
        vtrain_obs::set_enabled(false);
        assert_eq!(after_fair, before, "a fair-sharing estimate left the compact graph");
        assert!(after[0] > before[0], "measured exit not counted");
        assert!(after[1] > before[1], "fair-sharing timeline exit not counted");
    }

    #[test]
    fn compact_graph_size_is_recorded() {
        let _flag = OBS_FLAG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let metrics = vtrain_obs::global();
        let runs = metrics.histogram("estimate.compact.runs");
        let bytes = metrics.gauge("estimate.compact.scratch_bytes");
        let slots = metrics.counter("estimate.comm.slots");
        let priced = metrics.counter("estimate.comm.priced");
        let est = Estimator::builder(ClusterSpec::aws_p4d(16)).build();
        let model = presets::megatron("1.7B");
        let p = plan(2, 4, 2, 1, 8);
        let mut scratch = EstimatorScratch::default();
        let before = (runs.count(), slots.get(), priced.get());
        vtrain_obs::set_enabled(true);
        est.estimate_validated_with(&model, &p, &mut scratch);
        vtrain_obs::set_enabled(false);
        assert!(runs.count() > before.0, "run count not recorded");
        // A stage's DP buckets repeat one payload: fewer pricings than
        // slots. Other tests may record concurrently while obs is on.
        let (comm_slots, comm_priced) = scratch.compact.comm_pricings();
        assert!(0 < comm_priced && comm_priced < comm_slots, "{comm_priced} of {comm_slots}");
        assert!(slots.get() >= before.1 + comm_slots, "communication slots not recorded");
        assert!(priced.get() >= before.2 + comm_priced, "communication pricings not recorded");
        assert!(scratch.compact.num_runs() > 0);
        let reserved = scratch.compact.capacity_bytes() as u64;
        assert!(reserved > 0);
        assert!(bytes.get() >= reserved, "gauge {} below the scratch's {reserved} B", bytes.get());
    }

    #[test]
    fn full_graph_paths_refuse_oversized_plans() {
        // Counts full-graph exits: keep out of the counter test's window.
        let _flag = OBS_FLAG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // 10M sequences: far past what a full task graph can hold, yet a
        // closed-form prediction on the periodic compact graph is cheap.
        let cluster = ClusterSpec::aws_p4d(512);
        let model = presets::megatron("18.4B");
        let p = plan(8, 8, 8, 1, 10_000_000);
        let closed = Estimator::builder(cluster.clone()).build();
        let fair = Estimator::builder(cluster).network(NetworkBackend::FairSharing).build();
        assert!(closed.estimate(&model, &p).is_ok());
        let tasks = plan_task_count(&model, &p, &closed.graph_opts);
        let refused = EstimateError::GraphTooLarge { tasks, limit: MAX_FULL_GRAPH_TASKS };
        assert!(tasks > MAX_FULL_GRAPH_TASKS);
        assert_eq!(fair.estimate(&model, &p).unwrap_err(), refused);
        assert_eq!(fair.validate(&model, &p).unwrap_err(), refused);
        assert_eq!(closed.measure(&model, &p).unwrap_err(), refused);
        assert_eq!(closed.timeline(&model, &p).err(), Some(refused));
        // Small plans still pass admission on every path.
        let small = plan(8, 8, 8, 1, 512);
        assert!(fair.estimate(&model, &small).is_ok());
        assert!(closed.measure(&model, &small).is_ok());
    }

    #[test]
    fn compact_periods_are_recorded() {
        // A long 1F1B pipeline skips most copies of its steady template,
        // and a deep one most copies of its warm-up, remaining pairs and
        // drain too; a GPipe plan with uneven stages walks every copy,
        // and the two histograms say so.
        let _flag = OBS_FLAG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let metrics = vtrain_obs::global();
        let total = metrics.histogram("estimate.compact.periods_total");
        let walked = metrics.histogram("estimate.compact.periods_walked");
        let est = Estimator::builder(ClusterSpec::aws_p4d(16)).build();
        let deep_est = Estimator::builder(ClusterSpec::dgx_a100_80gb(8 * 105)).build();
        let model = presets::megatron("1.7B");
        let mt_nlg = presets::mt_nlg_530b();
        let one_f_one_b = plan(2, 1, 4, 1, 4096);
        let gpipe = ParallelConfig::builder()
            .pipeline(5)
            .global_batch(300)
            .schedule(PipelineSchedule::GPipe)
            .build()
            .unwrap();
        let deep = plan(8, 1, 105, 1, 1920);
        let mut periods = Vec::new();
        for (est, model, p) in
            [(&est, &model, &one_f_one_b), (&est, &model, &gpipe), (&deep_est, &mt_nlg, &deep)]
        {
            // Other tests may record concurrently while obs is on, so the
            // exact numbers come from the scratch and the histograms are
            // only checked for having grown by at least this estimate.
            let before = (total.sum(), walked.sum(), total.count(), walked.count());
            let mut scratch = EstimatorScratch::default();
            vtrain_obs::set_enabled(true);
            est.estimate_validated_with(model, p, &mut scratch);
            vtrain_obs::set_enabled(false);
            let (w, t) = scratch.compact.periods();
            assert!(total.count() > before.2 && walked.count() > before.3, "periods not recorded");
            assert!(total.sum() >= before.0 + t && walked.sum() >= before.1 + w);
            periods.push((w, t));
        }
        let (w, t) = periods[0];
        // Warm-up, steady, remaining pairs, last forward, drain, final.
        assert_eq!(t, 3 + (4096 - 4) + 3 + 1 + 2 + 1);
        assert!(w < t / 100, "1F1B walked {w} of {t} copies");
        assert_eq!(periods[1], (600, 600), "GPipe walks every copy");
        let (w, t) = periods[2];
        // 104 warm-up, 1,815 steady, 104 remaining-pair, 1 last-forward,
        // 103 drain and 1 final copies.
        assert_eq!(t, 104 + (1920 - 105) + 104 + 1 + 103 + 1);
        assert!(w < 12, "p = 105 walked {w} of {t} copies");
    }

    #[test]
    fn repeated_estimates_hit_the_cache_and_agree_exactly() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(16)).build();
        let model = presets::megatron("1.7B");
        let p = plan(2, 2, 2, 1, 8);
        let cold = est.estimate(&model, &p).unwrap();
        let cold_stats = est.cache_stats();
        assert_eq!(cold_stats.hits, 0, "first query profiles everything");
        let warm = est.estimate(&model, &p).unwrap();
        let warm_stats = est.cache_stats();
        assert_eq!(warm_stats.misses, cold_stats.misses, "second query profiles nothing");
        assert!(warm_stats.hits >= cold_stats.misses);
        assert_eq!(cold.iteration_time, warm.iteration_time);
        assert_eq!(cold.busy, warm.busy);
        assert_eq!(cold.utilization.to_bits(), warm.utilization.to_bits());
        assert_eq!(cold.occupancy.to_bits(), warm.occupancy.to_bits());
    }

    #[test]
    fn clones_share_one_cache() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(16)).build();
        let clone = est.clone();
        let model = presets::megatron("1.7B");
        let p = plan(2, 2, 2, 1, 8);
        est.estimate(&model, &p).unwrap();
        let misses_before = clone.cache_stats().misses;
        clone.estimate(&model, &p).unwrap();
        assert_eq!(clone.cache_stats().misses, misses_before, "clone reuses shared profiles");
    }

    #[test]
    fn unset_alpha_inherits_the_topology_tier_alpha() {
        // `.topology(cluster.topology(0.8))` without `.alpha(..)` must
        // keep the declared 0.8, not silently reset tiers to 1.0.
        let cluster = ClusterSpec::aws_p4d(32);
        let inherited = Estimator::builder(cluster.clone()).topology(cluster.topology(0.8)).build();
        assert_eq!(inherited.alpha(), 0.8);
        assert_eq!(inherited.topology().tier(1).alpha, 0.8);
        let explicit =
            Estimator::builder(cluster.clone()).alpha(0.8).topology(cluster.topology(0.8)).build();
        let model = presets::megatron("1.7B");
        let p = plan(2, 8, 1, 1, 16);
        let a = inherited.estimate(&model, &p).unwrap();
        let b = explicit.estimate(&model, &p).unwrap();
        assert_eq!(a.iteration_time, b.iteration_time);
        // An explicit α still supersedes the tiers, as documented.
        let overridden =
            Estimator::builder(cluster.clone()).alpha(1.0).topology(cluster.topology(0.8)).build();
        assert_eq!(overridden.topology().tier(1).alpha, 1.0);
        // Heterogeneous tiers survive too: a rack spine declared at
        // α = 0.5 keeps its own value when no explicit α is set.
        let spine = vtrain_net::TierSpec::new(25e9, TimeNs::from_micros(35), 0.5);
        let racked = Estimator::builder(cluster.clone())
            .topology(cluster.topology(0.8).with_rack_tier(2, spine))
            .build();
        assert_eq!(racked.topology().tier(1).alpha, 0.8);
        assert_eq!(racked.topology().tier(2).alpha, 0.5);
    }

    #[test]
    fn topology_estimator_agrees_with_flat_on_spread_groups() {
        // t = 8 fills each node, so every DP group has one rank per node:
        // the selector degenerates to the flat ring and the topology-aware
        // estimate must be bit-identical to the legacy model.
        let cluster = ClusterSpec::aws_p4d(64);
        let flat = Estimator::builder(cluster.clone()).build();
        let aware = Estimator::builder(cluster.clone()).topology(cluster.topology(1.0)).build();
        assert!(aware.is_topology_aware() && !flat.is_topology_aware());
        let model = presets::megatron("18.4B");
        let p = plan(8, 8, 1, 2, 128);
        let a = flat.estimate(&model, &p).unwrap();
        let b = aware.estimate(&model, &p).unwrap();
        assert_eq!(a.iteration_time, b.iteration_time);
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
    }

    #[test]
    fn topology_estimator_speeds_up_node_packed_gradients() {
        // t = 2 leaves 4 DP ranks per node: hierarchical gradient
        // All-Reduce sends only S/4 over InfiniBand, so the topology-aware
        // estimate must be at least as fast as the flat Equation (1).
        let cluster = ClusterSpec::aws_p4d(32);
        let flat = Estimator::builder(cluster.clone()).build();
        let aware = Estimator::builder(cluster.clone()).topology(cluster.topology(1.0)).build();
        let model = presets::megatron("1.7B");
        let p = plan(2, 16, 1, 1, 16);
        let a = flat.estimate(&model, &p).unwrap();
        let b = aware.estimate(&model, &p).unwrap();
        assert!(
            b.iteration_time <= a.iteration_time,
            "topology-aware {} vs flat {}",
            b.iteration_time,
            a.iteration_time
        );
    }

    #[test]
    fn rack_tier_slows_cross_rack_placements() {
        // Same plan, same cluster; adding a rack tier with a slower spine
        // can only lengthen communication.
        let cluster = ClusterSpec::aws_p4d(64);
        let two_tier = Estimator::builder(cluster.clone()).topology(cluster.topology(1.0)).build();
        let spine = vtrain_net::TierSpec::new(25e9, TimeNs::from_micros(35), 1.0);
        let racked = Estimator::builder(cluster.clone())
            .topology(cluster.topology(1.0).with_rack_tier(2, spine))
            .build();
        assert_eq!(racked.topology().num_tiers(), 3);
        let model = presets::megatron("1.7B");
        let p = plan(2, 16, 2, 1, 16); // 64 GPUs: spans all 4 racks of 16.
        let fast = two_tier.estimate(&model, &p).unwrap();
        let slow = racked.estimate(&model, &p).unwrap();
        assert!(
            slow.iteration_time >= fast.iteration_time,
            "racked {} vs two-tier {}",
            slow.iteration_time,
            fast.iteration_time
        );
    }

    #[test]
    fn fair_sharing_defaults_off_and_is_selectable() {
        let cluster = ClusterSpec::aws_p4d(8);
        let est = Estimator::builder(cluster.clone()).build();
        assert_eq!(est.network(), NetworkBackend::ClosedForm);
        let est = Estimator::builder(cluster).network(NetworkBackend::FairSharing).build();
        assert_eq!(est.network(), NetworkBackend::FairSharing);
    }

    #[test]
    fn fair_sharing_solo_flows_match_closed_form_exactly() {
        // p = 1 → one simulated device → the comm stream serialises its
        // transfers, so every flow drains alone. A solo drain is
        // bit-identical to the closed-form cost, and therefore so is the
        // whole iteration.
        let cluster = ClusterSpec::aws_p4d(16);
        let model = presets::megatron("1.7B");
        let p = plan(8, 2, 1, 1, 8);
        let closed = Estimator::builder(cluster.clone()).build().estimate(&model, &p).unwrap();
        let fair = Estimator::builder(cluster)
            .network(NetworkBackend::FairSharing)
            .build()
            .estimate(&model, &p)
            .unwrap();
        assert_eq!(closed.iteration_time, fair.iteration_time);
        assert_eq!(closed.busy, fair.busy);
        assert_eq!(closed.utilization.to_bits(), fair.utilization.to_bits());
    }

    #[test]
    fn fair_sharing_intra_node_plans_are_untouched() {
        // All communication on one node rides NVLink; nothing becomes a
        // flow, so the physical-time replay coincides with Algorithm 1.
        let cluster = ClusterSpec::aws_p4d(8);
        let model = presets::megatron("1.7B");
        let p = plan(8, 1, 1, 1, 8);
        let closed = Estimator::builder(cluster.clone()).build().estimate(&model, &p).unwrap();
        let fair = Estimator::builder(cluster)
            .network(NetworkBackend::FairSharing)
            .build()
            .estimate(&model, &p)
            .unwrap();
        assert_eq!(closed.iteration_time, fair.iteration_time);
        assert_eq!(closed.busy, fair.busy);
    }

    #[test]
    fn flow_free_fair_points_take_the_closed_form_walk() {
        // On 64 GPUs, (1, 2, 4) keeps every collective inside one node:
        // no flow program, so the point is walked like the closed form
        // and counted as flow-free. (2, 4, 4) crosses nodes and is
        // unrolled. Other tests may count concurrently while obs is on.
        let _flag = OBS_FLAG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let flow_free = vtrain_obs::global().counter("estimate.fair.flow_free");
        let cluster = ClusterSpec::aws_p4d(64);
        let model = presets::megatron("1.7B");
        let closed = Estimator::builder(cluster.clone()).build();
        let fair = Estimator::builder(cluster).network(NetworkBackend::FairSharing).build();
        let mut scratch = EstimatorScratch::default();
        for (p, flows) in [(plan(1, 2, 4, 1, 64), false), (plan(2, 4, 4, 1, 64), true)] {
            let before = flow_free.get();
            vtrain_obs::set_enabled(true);
            assert_fair_matches_full(&fair, &model, &p, &mut scratch);
            vtrain_obs::set_enabled(false);
            assert_eq!(scratch.compact.has_flows(), flows, "{p}");
            let (walked, total) = scratch.compact.periods();
            if flows {
                assert_eq!(walked, total, "{p}: the unrolled graph has every copy");
                continue;
            }
            assert!(flow_free.get() > before, "{p}: flow-free point not counted");
            assert!(walked < total, "{p}: the walk jumped no copy ({walked} of {total})");
            let closed = closed.estimate(&model, &p).unwrap();
            assert_eq!(closed.iteration_time, scratch.report.iteration_time, "{p}");
        }
    }

    #[test]
    fn fair_sharing_contention_lengthens_overlapping_communication() {
        // p = 4 keeps several pipeline boundaries' inter-node transfers
        // and the stages' gradient All-Reduces in flight at once on the
        // shared inter-node tier. Under fair sharing the overlapping
        // transfers split the link, so the iteration must come out
        // strictly longer than the closed form, which prices every
        // transfer against the full link.
        let cluster = ClusterSpec::aws_p4d(32);
        let model = presets::megatron("1.7B");
        let p = plan(2, 4, 4, 1, 32);
        let closed = Estimator::builder(cluster.clone()).build().estimate(&model, &p).unwrap();
        let fair = Estimator::builder(cluster)
            .network(NetworkBackend::FairSharing)
            .build()
            .estimate(&model, &p)
            .unwrap();
        assert!(
            fair.iteration_time > closed.iteration_time,
            "fair sharing {} should exceed closed form {}",
            fair.iteration_time,
            closed.iteration_time
        );
    }

    #[test]
    fn one_sim_scratch_serves_every_replay() {
        // One scratch runs a contended flow replay, then a Predicted and a
        // Measured replay of the same graph, twice over: every report
        // equals a fresh scratch's, and the second round allocates nothing.
        let est = Estimator::builder(ClusterSpec::aws_p4d(32))
            .network(NetworkBackend::FairSharing)
            .build();
        let (model, p) = (presets::megatron("1.7B"), plan(2, 4, 4, 1, 32));
        let full = lower_with_programs(&est, &model, &p);
        let noise = NoiseModel::new(NoiseConfig::default());
        let run = |mode: Option<SimMode<'_>>, scratch: &mut SimScratch, report: &mut SimReport| {
            match mode {
                None => {
                    let programs = full.programs(est.topology());
                    replay(&full.graph, programs, None, None, scratch, report);
                }
                Some(mode) => crate::sim::simulate_into(&full.graph, mode, scratch, report),
            }
        };
        let modes =
            [None, Some(SimMode::Predicted), Some(SimMode::Measured { noise: &noise, nodes: 4 })];
        let (mut scratch, mut report) = (SimScratch::default(), SimReport::default());
        let mut capacities = None;
        for round in 0..2 {
            for mode in modes {
                run(mode, &mut scratch, &mut report);
                let mut fresh = SimReport::default();
                run(mode, &mut SimScratch::default(), &mut fresh);
                assert_eq!(report, fresh, "round {round}");
                if mode.is_none() {
                    assert!(scratch.net_counters().1 > 1, "the overlap plan's flows contend");
                }
                let now = (scratch.capacities(), report.device_busy.capacity());
                if round == 1 {
                    assert_eq!(Some(now), capacities, "a repeated replay grew a buffer");
                }
                capacities = Some(now);
            }
        }
    }

    /// The full-graph flow replay of `plan`: the oracle of the compact
    /// fair-sharing path.
    fn full_flow_report(est: &Estimator, model: &ModelConfig, plan: &ParallelConfig) -> SimReport {
        let full = lower_with_programs(est, model, plan);
        let programs = full.programs(est.topology());
        let mut report = SimReport::default();
        replay(&full.graph, programs, None, None, &mut SimScratch::default(), &mut report);
        report
    }

    /// Prices `plan` on `scratch` and asserts the compact fair-sharing
    /// report equals the full-graph flow replay in every field, in `u64`.
    fn assert_fair_matches_full(
        est: &Estimator,
        model: &ModelConfig,
        plan: &ParallelConfig,
        scratch: &mut EstimatorScratch,
    ) {
        let estimate = est.estimate_validated_with(model, plan, scratch);
        let (got, want) = (&scratch.report, full_flow_report(est, model, plan));
        let nanos =
            |b: &BusyBreakdown| [b.compute, b.tp_comm, b.dp_comm, b.pp_comm].map(|t| t.as_nanos());
        assert_eq!(got.iteration_time.as_nanos(), want.iteration_time.as_nanos(), "{plan}");
        assert_eq!(nanos(&got.busy), nanos(&want.busy), "{plan}");
        let device = |r: &SimReport| r.device_busy.iter().map(|t| t.as_nanos()).collect::<Vec<_>>();
        assert_eq!(device(got), device(&want), "{plan}");
        assert_eq!(got.tasks_executed as u64, want.tasks_executed as u64, "{plan}");
        assert_eq!(estimate.iteration_time, want.iteration_time, "{plan}");
    }

    #[test]
    fn fair_sharing_compact_path_matches_the_full_replay() {
        // The sweep hot path prices fair sharing on the unrolled compact
        // graph: bit-identical to the full lowering + physical replay,
        // fresh and patched alike.
        let cluster = ClusterSpec::aws_p4d(32);
        let model = presets::megatron("1.7B");
        let p = plan(2, 8, 2, 1, 16);
        let est = Estimator::builder(cluster).network(NetworkBackend::FairSharing).build();
        let composed = est.estimate(&model, &p).unwrap();
        let mut scratch = EstimatorScratch::default();
        assert_fair_matches_full(&est, &model, &p, &mut scratch);
        assert!(
            scratch.unrolled.num_tasks() < plan_task_count(&model, &p, &est.graph_opts) as usize
        );
        // The compact lowering's profile lookups land in the worker's
        // tally (the estimate above warmed the cache, so all of them hit).
        let stats = scratch.cache_stats();
        assert!(stats.hits > 0 && stats.misses == 0, "fair-sharing lookups tallied: {stats:?}");
        // A shape-equal neighbour (same micro-batch count, twice the
        // micro-batch size) patches the cached graph.
        let neighbour = plan(2, 8, 2, 2, 32);
        assert_fair_matches_full(&est, &model, &neighbour, &mut scratch);
        assert_eq!(scratch.delta_counts(), (1, 1), "shape-equal fair-sharing plans patch");
        let mut stages = StageNanos::default();
        let staged = est.estimate_staged(&model, &p, &mut stages).unwrap();
        assert_eq!(composed.iteration_time, staged.iteration_time);
        assert!(stages.simulate_ns > 0);
    }

    #[test]
    fn fair_sharing_timeline_carries_link_utilization_counters() {
        // Counts full-graph exits: keep out of the counter test's window.
        let _flag = OBS_FLAG.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let cluster = ClusterSpec::aws_p4d(32);
        let model = presets::megatron("1.7B");
        let p = plan(2, 8, 2, 1, 16);
        let est = Estimator::builder(cluster.clone()).network(NetworkBackend::FairSharing).build();
        let timeline = est.timeline(&model, &p).unwrap();
        let estimate = est.estimate(&model, &p).unwrap();
        assert_eq!(
            timeline.recorder.max_end_ns(),
            estimate.iteration_time.as_nanos(),
            "traced replay is bit-identical to the untraced one"
        );
        assert_eq!(timeline.report.iteration_time, estimate.iteration_time);
        let counters = timeline.recorder.counters();
        assert!(!counters.is_empty(), "refills should leave utilization samples");
        assert!(counters.iter().all(|c| c.name == "net.link_utilization"));
        assert!(
            counters
                .iter()
                .flat_map(|c| &c.values)
                .any(|(series, pct)| series == "tier1_pct" && *pct > 0),
            "the inter-node tier should see traffic"
        );
        let json = timeline.recorder.to_chrome_trace();
        assert!(json.contains("\"ph\":\"C\""), "counters export as Chrome counter events");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 16,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Running the stages by hand must equal the composed call: the
        /// fused `estimate` (compact lowering + aggregated replay through
        /// the estimator's own profile source) reproduces `lower →
        /// simulate → summarize` on the full task graph bit for bit, on
        /// flat, two-tier and racked interconnects; `estimate_staged`
        /// agrees with both.
        #[test]
        fn staged_pipeline_composes_to_estimate(
            t_exp in 0usize..=3,
            d_exp in 0usize..=3,
            p in 1usize..=6,
            m_exp in 0usize..=1,
            n_micro in 1usize..=24,
            flags in 0u32..12,
        ) {
            let (gpipe, bucketing, net) = (flags & 1 != 0, flags & 2 != 0, flags >> 2);
            let (t, d, m) = (1usize << t_exp, 1 << d_exp, 1 << m_exp);
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let p = ParallelConfig::builder()
                .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(d * m * n_micro)
                .schedule(sched).gradient_bucketing(bucketing).build().unwrap();
            let cluster = ClusterSpec::aws_p4d(512);
            let spine = vtrain_net::TierSpec::new(25e9, TimeNs::from_micros(35), 1.0);
            let est = match net {
                0 => Estimator::builder(cluster).build(),
                1 => Estimator::builder(cluster.clone()).topology(cluster.topology(0.9)).build(),
                _ => Estimator::builder(cluster.clone())
                    .topology(cluster.topology(1.0).with_rack_tier(2, spine))
                    .build(),
            };
            let model = presets::megatron("1.7B");
            if est.validate(&model, &p).is_err() {
                return Ok(());
            }
            let report = est.simulate(&est.lower(&model, &p), SimMode::Predicted);
            let full = est.summarize(&model, &p, &report);
            let staged = est.estimate_staged(&model, &p, &mut StageNanos::default()).unwrap();
            for fused in [est.estimate(&model, &p).unwrap(), staged] {
                proptest::prop_assert_eq!(fused.iteration_time, full.iteration_time);
                proptest::prop_assert_eq!(fused.busy, full.busy);
                proptest::prop_assert_eq!(fused.utilization.to_bits(), full.utilization.to_bits());
                proptest::prop_assert_eq!(fused.occupancy.to_bits(), full.occupancy.to_bits());
                proptest::prop_assert_eq!(fused.num_gpus, full.num_gpus);
                proptest::prop_assert_eq!(fused.tokens_per_iteration, full.tokens_per_iteration);
            }
        }
    }

    /// A fair-sharing estimator over the `net`-th of four interconnects:
    /// flat, two-tier with α = 0.8, racked behind a 25 GB/s spine, and
    /// racked behind a 12.5 GB/s spine.
    fn fair_estimator(net: u32) -> Estimator {
        let cluster = ClusterSpec::aws_p4d(512);
        let spine = |bandwidth| vtrain_net::TierSpec::new(bandwidth, TimeNs::from_micros(35), 1.0);
        let builder = Estimator::builder(cluster.clone()).network(NetworkBackend::FairSharing);
        match net {
            0 => builder.build(),
            1 => builder.topology(cluster.topology(0.8)).build(),
            2 => builder.topology(cluster.topology(1.0).with_rack_tier(2, spine(25e9))).build(),
            _ => builder.topology(cluster.topology(1.0).with_rack_tier(2, spine(12.5e9))).build(),
        }
    }

    /// What one flow replay shows: the report, each task's span, the
    /// last network sample at each timestamp (utilization bits), and the
    /// flow simulator's refill count and flow high-water mark.
    type FlowReplayView = (SimReport, Vec<(u64, u64)>, Vec<(u64, Vec<u64>)>, (u64, usize));

    /// Replays `graph` with both observers attached, on the engine
    /// oracle if `engine`.
    fn observe_flow_replay(
        graph: &TaskGraph,
        programs: Programs<'_>,
        engine: bool,
    ) -> FlowReplayView {
        let mut spans = vec![(u64::MAX, u64::MAX); graph.len()];
        let mut samples: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        let (mut scratch, mut report) = (SimScratch::default(), SimReport::default());
        let mut trace = |task: u32, start: TimeNs, finish: TimeNs| {
            assert_eq!(spans[task as usize].0, u64::MAX, "task {task} booked twice");
            spans[task as usize] = (start.as_nanos(), finish.as_nanos());
        };
        let mut last = TimeNs::ZERO;
        let mut net_trace = |at: TimeNs, util: &[f64]| {
            assert!(at >= last, "network samples run forward in time");
            last = at;
            samples.insert(at.as_nanos(), util.iter().map(|u| u.to_bits()).collect());
        };
        let (trace, net_trace) = (Some(&mut trace as _), Some(&mut net_trace as _));
        if engine {
            crate::flow_replay::engine_oracle::replay_on_engine(
                graph,
                programs,
                trace,
                net_trace,
                &mut scratch,
                &mut report,
            );
        } else {
            replay(graph, programs, trace, net_trace, &mut scratch, &mut report);
        }
        let net = scratch.net_counters();
        (report, spans, samples.into_iter().collect(), net)
    }

    /// Asserts the dataflow flow replay of `graph` matches the engine
    /// oracle in every report field (in `u64`), every task's span, the
    /// last network sample at each timestamp and the refill count.
    fn assert_flow_replay_matches_engine(graph: &TaskGraph, programs: Programs<'_>) {
        let got = observe_flow_replay(graph, programs, false);
        let want = observe_flow_replay(graph, programs, true);
        let nanos =
            |b: &BusyBreakdown| [b.compute, b.tp_comm, b.dp_comm, b.pp_comm].map(|t| t.as_nanos());
        let device = |r: &SimReport| r.device_busy.iter().map(|t| t.as_nanos()).collect::<Vec<_>>();
        let (r, w) = (&got.0, &want.0);
        assert_eq!(r.iteration_time.as_nanos(), w.iteration_time.as_nanos());
        assert_eq!(nanos(&r.busy), nanos(&w.busy));
        assert_eq!(device(r), device(w));
        assert_eq!(r.tasks_executed as u64, w.tasks_executed as u64);
        assert_eq!(got.1, want.1, "task spans");
        assert_eq!(got.2, want.2, "last network sample at each timestamp");
        assert_eq!(got.3, want.3, "refills and flow high-water mark");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Differential test of the dataflow flow replay against the
        /// discrete-event engine replay it replaced, on random plans over
        /// the four interconnects of [`fair_estimator`], on both inputs the
        /// replay takes: the full task graph (one program per task) and the
        /// unrolled compact graph (programs by latency slot).
        #[test]
        fn flow_replay_matches_the_engine_oracle(
            t_exp in 0usize..=3,
            d_exp in 0usize..=3,
            p in 1usize..=6,
            m_exp in 0usize..=1,
            n_micro in 1usize..=16,
            flags in 0u32..16,
        ) {
            let (gpipe, bucketing, net) = (flags & 1 != 0, flags & 2 != 0, flags >> 2);
            let (t, d, m) = (1usize << t_exp, 1 << d_exp, 1 << m_exp);
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let plan = ParallelConfig::builder()
                .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(d * m * n_micro)
                .schedule(sched).gradient_bucketing(bucketing).build().unwrap();
            let est = fair_estimator(net);
            let model = presets::megatron("1.7B");
            if est.validate(&model, &plan).is_err() {
                return Ok(());
            }
            let full = lower_with_programs(&est, &model, &plan);
            let topology = est.topology();
            assert_flow_replay_matches_engine(&full.graph, full.programs(topology));
            let mut scratch = EstimatorScratch::default();
            est.estimate_validated_with(&model, &plan, &mut scratch);
            let (unrolled, programs) = scratch.unrolled.replay_input(&scratch.compact, topology);
            assert_flow_replay_matches_engine(unrolled, programs);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Differential test of the compact fair-sharing path against the
        /// full-graph flow replay on random plans over four interconnects
        /// (flat, two-tier with α < 1, racked, and racked behind a
        /// 12.5 GB/s spine): every report field agrees in `u64`, and a
        /// shape-equal neighbour priced next on the same scratch patches
        /// and agrees too.
        #[test]
        fn fair_sharing_compact_matches_full_flow_replay(
            t_exp in 0usize..=3,
            d_exp in 0usize..=3,
            p in 1usize..=6,
            m_exp in 0usize..=1,
            n_micro in 1usize..=16,
            flags in 0u32..16,
        ) {
            let (gpipe, bucketing, net) = (flags & 1 != 0, flags & 2 != 0, flags >> 2);
            let (t, d, m) = (1usize << t_exp, 1 << d_exp, 1 << m_exp);
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let plan_m = |m: usize| {
                ParallelConfig::builder()
                    .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(d * m * n_micro)
                    .schedule(sched).gradient_bucketing(bucketing).build().unwrap()
            };
            let est = fair_estimator(net);
            let model = presets::megatron("1.7B");
            let (first, second) = (plan_m(m), plan_m(3 - m));
            if est.validate(&model, &first).is_err() {
                return Ok(());
            }
            let mut scratch = EstimatorScratch::default();
            assert_fair_matches_full(&est, &model, &first, &mut scratch);
            if est.validate(&model, &second).is_ok() {
                assert_fair_matches_full(&est, &model, &second, &mut scratch);
                proptest::prop_assert_eq!(scratch.delta_counts(), (1, 1));
            }
        }
    }

    /// An estimator over the `net`-th of the interconnects of
    /// [`fair_estimator`], under fair sharing if `fair`, with the given
    /// recomputation and DP bucket size.
    fn varied_estimator(net: u32, fair: bool, recompute: bool, bucket_mib: u64) -> Estimator {
        let cluster = ClusterSpec::aws_p4d(512);
        let spine = |bandwidth| vtrain_net::TierSpec::new(bandwidth, TimeNs::from_micros(35), 1.0);
        let backend = if fair { NetworkBackend::FairSharing } else { NetworkBackend::ClosedForm };
        let builder = Estimator::builder(cluster.clone()).network(backend);
        let mut est = match net {
            0 => builder.build(),
            1 => builder.topology(cluster.topology(0.8)).build(),
            2 => builder.topology(cluster.topology(1.0).with_rack_tier(2, spine(25e9))).build(),
            _ => builder.topology(cluster.topology(1.0).with_rack_tier(2, spine(12.5e9))).build(),
        };
        est.graph_opts.recompute = recompute;
        est.graph_opts.dp_bucket_bytes = vtrain_model::Bytes::from_mib(bucket_mib);
        est
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 32,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// One scratch serving a pair of estimators that differ in
        /// network, topology, recomputation and DP bucket size (A, then
        /// B, then A again, on one plan or two) gives every estimate
        /// bit-identical to a fresh scratch's: the operator table and a
        /// delta patch never carry one estimator's prices into another's
        /// estimate.
        #[test]
        fn one_scratch_serves_any_pair_of_estimators(
            setup_a in (0u32..16, 1u64..=100),
            setup_b in (0u32..16, 1u64..=100),
            plan_a in (0usize..=3, 0usize..=3, 1usize..=6, 0usize..=1, 1usize..=16, 0u32..4),
            plan_b in (0usize..=3, 0usize..=3, 1usize..=6, 0usize..=1, 1usize..=16, 0u32..4),
            same_plan in proptest::bool::ANY,
        ) {
            let [a, b] = [setup_a, setup_b].map(|(bits, mib)| {
                varied_estimator(bits & 3, bits & 4 != 0, bits & 8 != 0, mib)
            });
            let [first, second] = [plan_a, plan_b].map(|(t_exp, d_exp, p, m_exp, n_micro, flags)| {
                let (t, d, m) = (1usize << t_exp, 1 << d_exp, 1 << m_exp);
                let sched =
                    if flags & 1 != 0 { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
                ParallelConfig::builder()
                    .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(d * m * n_micro)
                    .schedule(sched).gradient_bucketing(flags & 2 != 0).build().unwrap()
            });
            let second = if same_plan { first } else { second };
            let model = presets::megatron("1.7B");
            let nanos =
                |b: &BusyBreakdown| [b.compute, b.tp_comm, b.dp_comm, b.pp_comm].map(|t| t.as_nanos());
            let device = |r: &SimReport| r.device_busy.iter().map(|t| t.as_nanos()).collect::<Vec<_>>();
            let mut scratch = EstimatorScratch::default();
            for (est, plan) in [(&a, &first), (&b, &second), (&a, &first)] {
                if est.validate(&model, plan).is_err() {
                    continue;
                }
                let got = est.estimate_validated_with(&model, plan, &mut scratch);
                let mut fresh = EstimatorScratch::default();
                let want = est.estimate_validated_with(&model, plan, &mut fresh);
                let (r, w) = (&scratch.report, &fresh.report);
                proptest::prop_assert_eq!(r.iteration_time.as_nanos(), w.iteration_time.as_nanos());
                proptest::prop_assert_eq!(nanos(&r.busy), nanos(&w.busy));
                proptest::prop_assert_eq!(device(r), device(w));
                proptest::prop_assert_eq!(r.tasks_executed as u64, w.tasks_executed as u64);
                proptest::prop_assert_eq!(got.utilization.to_bits(), want.utilization.to_bits());
                proptest::prop_assert_eq!(got.occupancy.to_bits(), want.occupancy.to_bits());
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 24,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The slot-priced lowering behind `lower`, `measure` and
        /// `timeline` equals the independently priced two-phase reference,
        /// `TaskGraph::lower` over the materialized operator graph and an
        /// operator table profiled from it: every column (device, stream,
        /// duration, full task kind) and the CSR, on random plans under
        /// both schedules, with bucketing and recomputation on or off, on
        /// flat, two-tier and racked interconnects, under both networks.
        /// The per-task flow programs the fair-sharing timeline replays
        /// from the operator table equal a per-node
        /// [`CommModel::flow_program`].
        #[test]
        fn slot_priced_lowering_matches_the_two_phase_reference(
            t_exp in 0usize..=3,
            d_exp in 0usize..=3,
            p in 1usize..=6,
            m_exp in 0usize..=1,
            n_micro in 1usize..=16,
            setup in (0u32..64, 1u64..=100),
        ) {
            let (flags, bucket_mib) = setup;
            let (gpipe, bucketing, recompute) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let (fair, net) = (flags & 8 != 0, flags >> 4);
            let (t, d, m) = (1usize << t_exp, 1 << d_exp, 1 << m_exp);
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let plan = ParallelConfig::builder()
                .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(d * m * n_micro)
                .schedule(sched).gradient_bucketing(bucketing).build().unwrap();
            let est = varied_estimator(net, fair, recompute, bucket_mib);
            let model = presets::megatron("1.7B");
            if est.validate(&model, &plan).is_err() {
                return Ok(());
            }
            let graph = build_op_graph(&model, &plan, &est.graph_opts);
            let table = est.profiler.profile(&graph.necessary_operators());
            let reference = TaskGraph::lower(&graph, &table, &est.comm).unwrap();
            let mut compact = CompactScratch::default();
            let mut slots = Vec::new();
            let tg = est.lower_full(&model, &plan, &mut compact, Some(&mut slots));
            proptest::prop_assert_eq!(tg.len(), reference.len());
            proptest::prop_assert_eq!(tg.num_devices(), reference.num_devices());
            for i in 0..tg.len() as u32 {
                let (a, b) = (tg.task(i), reference.task(i));
                assert_eq!(
                    (a.device, a.stream, a.duration.as_nanos(), a.kind),
                    (b.device, b.stream, b.duration.as_nanos(), b.kind),
                    "task {i}"
                );
                assert_eq!(tg.children(i), reference.children(i), "children of {i}");
            }
            let mut entries = Vec::new();
            let Programs::Indexed { table, index, .. } =
                compact.task_programs(est.topology(), &slots, &mut entries)
            else {
                unreachable!("task programs index the operator table")
            };
            let got: Vec<_> = index.iter().map(|&e| table[e as usize].as_ref()).collect();
            let want: Vec<_> = graph
                .nodes()
                .iter()
                .map(|node| match &node.op {
                    Op::Comm(c) => est.comm.flow_program(c),
                    Op::Compute(_) => None,
                })
                .collect();
            proptest::prop_assert_eq!(got, want.iter().map(Option::as_ref).collect::<Vec<_>>());
            let flows = want.iter().any(Option::is_some);
            proptest::prop_assert_eq!(flows, fair && compact.has_flows());
        }
    }

    #[test]
    fn stable_config_key_is_pinned() {
        // Regression pin: the measured-mode bias key must be identical
        // across Rust releases and platforms. If this value ever changes,
        // "measured" runs stop being reproducible — do not update the
        // constant without understanding why it moved.
        let model = presets::megatron("1.7B");
        let p = plan(4, 2, 2, 1, 8);
        assert_eq!(stable_config_key(&model, &p), 0x1b33_83be_ce30_35d7);
    }

    #[test]
    fn stable_config_key_separates_configurations() {
        // Every hashed field must flip the key on its own (keep this list
        // in sync with `stable_config_key`).
        let model = presets::megatron("1.7B");
        let base = stable_config_key(&model, &plan(4, 2, 2, 1, 8));
        // Plan fields.
        assert_ne!(base, stable_config_key(&model, &plan(2, 4, 2, 1, 8)), "tensor/data");
        assert_ne!(base, stable_config_key(&model, &plan(4, 2, 1, 1, 8)), "pipeline");
        assert_ne!(base, stable_config_key(&model, &plan(4, 2, 2, 2, 8)), "micro_batch");
        assert_ne!(base, stable_config_key(&model, &plan(4, 2, 2, 1, 16)), "global_batch");
        let gpipe = ParallelConfig::builder()
            .tensor(4)
            .data(2)
            .pipeline(2)
            .micro_batch(1)
            .global_batch(8)
            .schedule(PipelineSchedule::GPipe)
            .build()
            .unwrap();
        assert_ne!(base, stable_config_key(&model, &gpipe), "schedule");
        let unbucketed = ParallelConfig::builder()
            .tensor(4)
            .data(2)
            .pipeline(2)
            .micro_batch(1)
            .global_batch(8)
            .gradient_bucketing(false)
            .build()
            .unwrap();
        assert_ne!(base, stable_config_key(&model, &unbucketed), "bucketing");
        // Model fields: a different preset flips the numeric dims; a pure
        // rename flips only the name bytes.
        assert_ne!(base, stable_config_key(&presets::megatron("18.4B"), &plan(4, 2, 2, 1, 8)));
        let renamed = model.clone().with_name("renamed");
        assert_ne!(base, stable_config_key(&renamed, &plan(4, 2, 2, 1, 8)), "name");
    }
}
