//! Constructs the operator-granularity execution graph from a model and a
//! 3D-parallelism plan (paper §III-B, Figs. 5/6/8).

use vtrain_model::{Bytes, ModelConfig, TimeNs};
use vtrain_net::{GroupPlacement, TierSpec, Topology};
use vtrain_parallel::{layer_partition, ParallelConfig, Pass, ProcessGroups, Section};

use crate::graph::{OpGraph, OpNode, StreamKind};
use crate::ops::{CommKind, CommOp, CommScope, CompKind, ComputeOp, Op, OpSignature};

/// Receives the nodes and edges of graph construction.
///
/// [`OpGraph`] is the canonical sink; consumers that only need a derived
/// artifact (e.g. a lowered task graph) can implement this to skip
/// materializing the operator graph entirely.
pub trait GraphSink {
    /// Appends a node, returning its index (dense, starting at 0), with
    /// its *latency slot*: the index into the plan's canonical slot
    /// enumeration ([`visit_plan_slots`]) identifying which latency
    /// source prices this node. Sinks that don't track slots ignore it.
    ///
    /// Slot ids are *structural*: two plans with equal
    /// [`plan_shape_key`]s assign the same slot to the node at the same
    /// index, which is what licenses delta-lowering (re-pricing a cached
    /// graph by refreshing slot values only).
    fn push(&mut self, node: OpNode, slot: u32) -> u32;
    /// Adds a dependency edge `from → to` between already-pushed nodes.
    fn add_edge(&mut self, from: u32, to: u32);
    /// Marks a chain-aggregation boundary on `device`'s compute stream.
    ///
    /// The builder guarantees that between two consecutive `cut` calls the
    /// compute-stream nodes of `device` form a pure program-order chain:
    /// no node other than the first receives an edge from outside the
    /// chain, and no node other than the last (at the moment the edge is
    /// added) sources an edge to outside it. Sinks that aggregate chains
    /// into single tasks (the sweep's compact replay) close their open run
    /// here; graph-materializing sinks ignore it.
    fn cut(&mut self, device: u32) {
        let _ = device;
    }
    /// Bulk emission of `pattern` repeated `repeat` times on `device`'s
    /// compute stream — the builder's layer-loop fast path. Returns the
    /// first node's index.
    ///
    /// The default expands to exactly the per-node calls the builder
    /// would otherwise make: each node goes through [`push`] and
    /// is chained after its predecessor (starting from `prev`, the last
    /// compute-stream node of `device`, if any) with [`add_edge`] — so
    /// graph-materializing sinks see an unchanged node/edge sequence.
    /// Aggregating sinks may instead account for the whole block in
    /// `O(pattern.len())`, provided they consume exactly
    /// `pattern.len() * repeat` node indices and treat the implied
    /// program-order chain as internal.
    ///
    /// `pattern` must be non-empty and `repeat >= 1`; the builder never
    /// issues empty blocks.
    ///
    /// [`push`]: GraphSink::push
    /// [`add_edge`]: GraphSink::add_edge
    fn push_chain(
        &mut self,
        device: u32,
        prev: Option<u32>,
        pattern: &[ChainOp],
        repeat: u32,
    ) -> u32 {
        let mut prev = prev;
        let mut first = None;
        for _ in 0..repeat {
            for item in pattern {
                let id = self
                    .push(OpNode { device, stream: StreamKind::Compute, op: item.op }, item.slot);
                if first.is_none() {
                    first = Some(id);
                }
                if let Some(p) = prev {
                    self.add_edge(p, id);
                }
                prev = Some(id);
            }
        }
        first.expect("chain patterns emit at least one node")
    }
    /// Whether this sink takes the *periodic* form of the graph.
    ///
    /// Graph-materializing sinks keep the default (`false`) and receive
    /// every schedule slot of every micro-batch. A periodic sink instead
    /// receives each stage program as the sections of
    /// [`PipelineSchedule::stage_sections`], section-major (all stages'
    /// section 0, then all stages' section 1, ...). Each section with at
    /// least one period on a stage is opened with
    /// [`GraphSink::begin_section`] and emitted once, standing for its
    /// `periods` identical copies; a section without periods emits
    /// nothing. An edge between two nodes of one section joins them in
    /// every copy; an edge from one copy into the next arrives through
    /// [`GraphSink::add_carried_edge`]. Every other edge leaves an
    /// earlier section's *last* copy (on the source's stage) and enters
    /// copy 0 of a later section.
    ///
    /// [`PipelineSchedule::stage_sections`]: vtrain_parallel::PipelineSchedule::stage_sections
    fn periodic(&self) -> bool {
        false
    }

    /// Opens section `section` (0-based, ascending) of `device`'s
    /// program: every node pushed until the next call belongs to it.
    /// `periods` (at least 1) is the section's repeat count on `device`.
    /// Only periodic sinks receive this.
    fn begin_section(&mut self, device: u32, section: u32, periods: u64) {
        let _ = (device, section, periods);
    }

    /// Adds a loop-carried edge of distance 1 between two nodes of one
    /// section repeated more than once: `from` in copy `k - 1` precedes
    /// `to` in copy `k`. Copy 0 instead waits for `init`, a node of an
    /// earlier section (its last copy), when there is one. Only periodic
    /// sinks receive this.
    fn add_carried_edge(&mut self, from: u32, to: u32, init: Option<u32>) {
        let _ = (from, to, init);
        unreachable!("only periodic sinks receive loop-carried edges")
    }
}

/// One operator of a repeated compute-stream emission pattern (see
/// [`GraphSink::push_chain`]).
#[derive(Clone, Copy, Debug)]
pub struct ChainOp {
    /// The operator each repetition emits.
    pub op: Op,
    /// Its latency slot (see [`GraphSink::push`]).
    pub slot: u32,
}

impl GraphSink for OpGraph {
    fn push(&mut self, node: OpNode, _slot: u32) -> u32 {
        OpGraph::push(self, node)
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        OpGraph::add_edge(self, from, to)
    }
}

/// Tunables of graph construction.
#[derive(Clone, Debug)]
pub struct GraphOptions {
    /// GPUs per server node (decides which collectives cross nodes).
    pub gpus_per_node: usize,
    /// Nodes per rack, when the cluster has a rack tier (`None` places
    /// every node in one rack). Only affects the [`CommOp::placement`]
    /// geometry consumed by topology-aware communication models.
    pub nodes_per_rack: Option<usize>,
    /// Target gradient-bucket payload for DP bucketing (PyTorch DDP defaults
    /// to 25 MiB).
    pub dp_bucket_bytes: Bytes,
    /// Whether activation recomputation replays the forward inside each
    /// backward block.
    pub recompute: bool,
}

impl Default for GraphOptions {
    fn default() -> Self {
        GraphOptions {
            gpus_per_node: 8,
            nodes_per_rack: None,
            dp_bucket_bytes: Bytes::from_mib(25),
            recompute: true,
        }
    }
}

impl GraphOptions {
    /// The shape-only topology placements are computed against (tier
    /// bandwidths are irrelevant to geometry and set to placeholders).
    fn shape_topology(&self) -> Topology {
        let unit = TierSpec::new(1.0, TimeNs::ZERO, 1.0);
        let topo = Topology::two_tier(self.gpus_per_node, unit, unit);
        match self.nodes_per_rack {
            Some(npr) => topo.with_rack_tier(npr, unit),
            None => topo,
        }
    }
}

/// Builds the execution graph of one training iteration for one pipeline
/// replica (TP ranks and DP replicas are symmetric; DP is represented by
/// its gradient All-Reduce operators).
///
/// # Panics
///
/// Panics if the plan's pipeline depth exceeds the model's layer count
/// (call [`ParallelConfig::validate`] first).
pub fn build_op_graph(model: &ModelConfig, plan: &ParallelConfig, opts: &GraphOptions) -> OpGraph {
    let mut graph = OpGraph::new(plan.pipeline() as u32);
    build_op_graph_into(model, plan, opts, &mut graph);
    debug_assert!(graph.is_acyclic(), "execution graph must be a DAG");
    graph
}

/// Streams one training iteration's nodes and edges into `sink` without
/// requiring an [`OpGraph`] — the allocation-free entry point for fused
/// lowering (the estimator maps nodes straight to tasks).
///
/// Emission order, node indices, and per-node edge order are identical to
/// [`build_op_graph`].
///
/// # Panics
///
/// Same conditions as [`build_op_graph`].
pub fn build_op_graph_into<S: GraphSink>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    sink: &mut S,
) {
    Builder::new(model, plan, opts, sink).build();
}

/// One entry of a plan's canonical latency-slot enumeration: the operator
/// a slot prices (see [`visit_plan_slots`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SlotOp {
    /// A compute-operator slot (priced via the profile cache).
    Compute(OpSignature),
    /// A communication-operator slot (priced analytically).
    Comm(CommOp),
}

/// Number of fixed layer/vocab compute slots heading every enumeration.
const FIXED_COMP_SLOTS: u32 = 8;

/// Slot index of a fixed layer/vocab compute kind (canonical order; the
/// per-stage `WeightUpdate` slots follow at `8 + stage`).
fn fixed_comp_slot(kind: CompKind) -> u32 {
    match kind {
        CompKind::EmbeddingFwd => 0,
        CompKind::LmHeadFwd => 1,
        CompKind::MhaFwd => 2,
        CompKind::FfnFwd => 3,
        CompKind::EmbeddingBwd => 4,
        CompKind::LmHeadBwd => 5,
        CompKind::MhaBwd => 6,
        CompKind::FfnBwd => 7,
        CompKind::WeightUpdate => unreachable!("weight updates use per-stage slots"),
    }
}

/// Enumerates the plan's latency slots in canonical order, calling `f`
/// with the operator each slot prices.
///
/// A *slot* is one distinct latency source of the lowered graph: every
/// node the builder emits carries a slot id (via
/// [`GraphSink::push`]) that indexes into this enumeration, and
/// two plans with equal [`plan_shape_key`]s assign identical slot ids to
/// positionally corresponding nodes. Re-pricing a cached graph for a new
/// plan therefore only requires re-running this enumeration — the basis
/// of delta-lowering across design-grid neighbors.
///
/// Canonical order (`p = plan.pipeline()`):
/// 1. the 8 fixed layer/vocab compute kinds (`fixed_comp_slot` order),
/// 2. `p` per-stage `WeightUpdate` signatures,
/// 3. the TP All-Reduce (only when `t > 1`),
/// 4. `p - 1` pipeline sends, by boundary,
/// 5. per-stage DP gradient All-Reduces in emission order (only when
///    `d > 1`; one per stage unbucketed, the `DpBuckets` sequence
///    otherwise).
///
/// # Panics
///
/// Panics if the pipeline is deeper than the model's layer count (call
/// [`ParallelConfig::validate`] first).
pub fn visit_plan_slots<F: FnMut(SlotOp)>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    mut f: F,
) {
    let sigs = SigFactory { model, plan, opts };
    let comms = CommFactory::new(model, plan, opts);
    let p = plan.pipeline();
    let partition = layer_partition(model.num_layers(), p);
    f(SlotOp::Compute(sigs.vocab(CompKind::EmbeddingFwd)));
    f(SlotOp::Compute(sigs.vocab(CompKind::LmHeadFwd)));
    f(SlotOp::Compute(sigs.layer(CompKind::MhaFwd)));
    f(SlotOp::Compute(sigs.layer(CompKind::FfnFwd)));
    f(SlotOp::Compute(sigs.vocab(CompKind::EmbeddingBwd)));
    f(SlotOp::Compute(sigs.vocab(CompKind::LmHeadBwd)));
    f(SlotOp::Compute(sigs.layer(CompKind::MhaBwd)));
    f(SlotOp::Compute(sigs.layer(CompKind::FfnBwd)));
    for (stage, layers) in partition.iter().enumerate() {
        f(SlotOp::Compute(sigs.weight_update(sigs.stage_local_params(stage, layers.len()))));
    }
    if let Some(op) = comms.tp_all_reduce {
        f(SlotOp::Comm(op));
    }
    for boundary in 0..p.saturating_sub(1) {
        f(SlotOp::Comm(comms.pp_send(plan, boundary)));
    }
    if plan.data() > 1 {
        for (stage, layers) in partition.iter().enumerate() {
            for (_, bytes) in DpBuckets::new(model, plan, opts, stage, layers.len()) {
                f(SlotOp::Comm(comms.dp_all_reduce(bytes)));
            }
        }
    }
}

/// Enumerates how many nodes of each latency slot every pipeline stage
/// runs in one iteration, calling `f(slot, stage, count)` slot by slot in
/// [`visit_plan_slots`]'s canonical order — in closed form, whatever the
/// micro-batch count, with no graph built.
///
/// Stage `s` with `L_s` layers runs `n` forward and `n` backward slots. A
/// forward slot emits the embedding on stage 0, an MHA and an FFN block
/// per layer, each followed by a TP All-Reduce when `t > 1`, and the LM
/// head on the last stage or a send on any other. A backward slot mirrors
/// it, with the embedding's backward on stage 0 or a send on any other;
/// boundary `b`'s send slot thus runs `n` times on stage `b` and `n` times
/// on stage `b + 1`. After the last slot come the stage's DP All-Reduces
/// and its weight update, once each.
///
/// A (stage, slot) pair that emits nothing may be reported with count 0.
///
/// # Panics
///
/// Same conditions as [`visit_plan_slots`].
pub fn visit_slot_multiplicities<F: FnMut(u32, usize, u64)>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    mut f: F,
) {
    let p = plan.pipeline();
    let n = plan.num_micro_batches() as u64;
    let partition = layer_partition(model.num_layers(), p);
    // The fixed kinds, forward then backward: embedding, LM head, then
    // MHA and FFN once per layer.
    for pass in [0, 4] {
        f(pass, 0, n);
        f(pass + 1, p - 1, n);
        for slot in pass + 2..pass + 4 {
            for (stage, layers) in partition.iter().enumerate() {
                f(slot, stage, n * layers.len() as u64);
            }
        }
    }
    let mut slot = FIXED_COMP_SLOTS;
    for stage in 0..p {
        f(slot, stage, 1);
        slot += 1;
    }
    if plan.tensor() > 1 {
        for (stage, layers) in partition.iter().enumerate() {
            f(slot, stage, 4 * n * layers.len() as u64);
        }
        slot += 1;
    }
    for boundary in 0..p - 1 {
        f(slot, boundary, n);
        f(slot, boundary + 1, n);
        slot += 1;
    }
    if plan.data() > 1 {
        for (stage, layers) in partition.iter().enumerate() {
            for _ in 0..DpBuckets::new(model, plan, opts, stage, layers.len()).len() {
                f(slot, stage, 1);
                slot += 1;
            }
        }
    }
}

/// The structural fingerprint of a lowered graph: two `(model, plan)`
/// pairs with equal keys (under the same [`GraphOptions`]) produce
/// periodic graphs ([`GraphSink::periodic`]) with identical node counts
/// per copy, edge lists, slot assignments, and chain-aggregation cuts —
/// only the slot *values* and the sections' period counts differ. This
/// is the applicability test for delta-lowering.
///
/// The key captures exactly what the builder's periodic emission
/// structure reads: the layer partition (`num_layers`, `pipeline`), the
/// per-stage sections (`schedule`, and the micro-batch count only up to
/// [`PipelineSchedule::sections_stable_from`] — beyond it the
/// sections keep their shape and only their period counts grow), whether
/// TP/DP operators exist at all, and the DP bucket geometry (`per_bucket`
/// layers per bucket, which depends on the gradient bytes per layer and
/// hence on `t`). Everything else — micro-batch size and count, hidden
/// dims, topology tiers — only moves slot values and period counts, which
/// delta-lowering re-prices anyway.
///
/// [`PipelineSchedule::sections_stable_from`]: vtrain_parallel::PipelineSchedule::sections_stable_from
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanShapeKey {
    num_layers: usize,
    pipeline: usize,
    schedule: vtrain_parallel::PipelineSchedule,
    /// The micro-batch count, capped where the sections stop changing
    /// shape.
    n_micro: usize,
    tensor_parallel: bool,
    data_parallel: bool,
    /// Layers per DP gradient bucket; 0 when DP sync is absent or
    /// unbucketed (a single per-stage All-Reduce either way).
    per_bucket: usize,
}

/// Computes the [`PlanShapeKey`] of `(model, plan)` in O(1).
pub fn plan_shape_key(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
) -> PlanShapeKey {
    let bucketed = plan.data() > 1 && plan.gradient_bucketing();
    let per_bucket = if bucketed { layers_per_bucket(model, plan, opts) } else { 0 };
    PlanShapeKey {
        num_layers: model.num_layers(),
        pipeline: plan.pipeline(),
        schedule: plan.schedule(),
        n_micro: plan
            .num_micro_batches()
            .min(plan.schedule().sections_stable_from(plan.pipeline())),
        tensor_parallel: plan.tensor() > 1,
        data_parallel: plan.data() > 1,
        per_bucket,
    }
}

/// The exact node count of [`build_op_graph`]'s graph — one task per node
/// once lowered: the sum of [`visit_slot_multiplicities`], whatever the
/// micro-batch count. Paths that materialize the full graph check it
/// before they do.
///
/// # Panics
///
/// Same conditions as [`build_op_graph`].
pub fn plan_task_count(model: &ModelConfig, plan: &ParallelConfig, opts: &GraphOptions) -> u64 {
    let mut tasks = 0;
    visit_slot_multiplicities(model, plan, opts, |_, _, count| tasks += count);
    tasks
}

/// Layers per DP gradient bucket: as many layers' gradients as fit in
/// [`GraphOptions::dp_bucket_bytes`], at least one.
fn layers_per_bucket(model: &ModelConfig, plan: &ParallelConfig, opts: &GraphOptions) -> usize {
    let grad_bytes_per_layer = 2 * model.params_per_layer() / plan.tensor() as u64;
    (opts.dp_bucket_bytes.as_u64() / grad_bytes_per_layer.max(1)).max(1) as usize
}

/// Shared constructor of compute-operator signatures, used by both the
/// graph builder and [`visit_plan_slots`] so the two can never disagree.
struct SigFactory<'a> {
    model: &'a ModelConfig,
    plan: &'a ParallelConfig,
    opts: &'a GraphOptions,
}

/// The DP gradient All-Reduce payloads of one stage, yielding
/// `(shallowest local layer of the bucket, payload bytes)` in emission
/// (deepest-first) order: the bucket sequence under DP bucketing, one
/// bucket of the whole stage without. Shared by the builder's
/// gradient-sync emission, [`visit_plan_slots`] and
/// [`visit_slot_multiplicities`] so bucket shapes can never diverge.
struct DpBuckets {
    layer: usize,
    per_bucket: usize,
    grad_bytes_per_layer: u64,
    endpoint_grad_bytes: u64,
}

impl DpBuckets {
    fn new(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        stage: usize,
        layers_here: usize,
    ) -> Self {
        let sigs = SigFactory { model, plan, opts };
        let t = plan.tensor() as u64;
        let grad_bytes_per_layer = 2 * model.params_per_layer() / t;
        let endpoint_extra = sigs.stage_local_params(stage, layers_here)
            - layers_here as u64 * model.params_per_layer() / t;
        let per_bucket = if plan.gradient_bucketing() {
            layers_per_bucket(model, plan, opts)
        } else {
            usize::MAX
        };
        DpBuckets {
            layer: layers_here,
            per_bucket,
            grad_bytes_per_layer,
            endpoint_grad_bytes: 2 * endpoint_extra,
        }
    }

    /// Buckets left to yield.
    fn len(&self) -> usize {
        self.layer.div_ceil(self.per_bucket)
    }
}

impl Iterator for DpBuckets {
    type Item = (usize, Bytes);

    fn next(&mut self) -> Option<(usize, Bytes)> {
        if self.layer == 0 {
            return None;
        }
        let lo = self.layer.saturating_sub(self.per_bucket);
        let n_layers = self.layer - lo;
        let mut bytes = Bytes::from_bytes(self.grad_bytes_per_layer * n_layers as u64);
        if lo == 0 {
            bytes += Bytes::from_bytes(self.endpoint_grad_bytes);
        }
        self.layer = lo;
        Some((lo, bytes))
    }
}

/// Shared constructor of communication operators, used by both the graph
/// builder and [`visit_plan_slots`] so the two can never disagree. The TP
/// All-Reduce (one shape per plan) is precomputed; pipeline sends and DP
/// All-Reduces are derived per boundary / payload.
struct CommFactory {
    topo: Topology,
    data_placement: GroupPlacement,
    boundary_bytes: Bytes,
    tensor: usize,
    data: usize,
    gpus_per_node: usize,
    /// The plan's TP All-Reduce operator, `None` when `t == 1`.
    tp_all_reduce: Option<CommOp>,
}

impl CommFactory {
    fn new(model: &ModelConfig, plan: &ParallelConfig, opts: &GraphOptions) -> Self {
        let topo = opts.shape_topology();
        let groups = ProcessGroups::new(plan, &topo);
        let boundary_bytes = model.boundary_activation_bytes(plan.micro_batch());
        let t = plan.tensor();
        let tp_all_reduce = (t > 1).then_some(CommOp {
            kind: CommKind::TpAllReduce,
            bytes: boundary_bytes,
            ranks: t,
            scope: CommScope::IntraNode,
            placement: groups.tensor,
            overlappable: false,
            concurrent_groups: 1,
        });
        CommFactory {
            topo,
            data_placement: groups.data,
            boundary_bytes,
            tensor: t,
            data: plan.data(),
            gpus_per_node: opts.gpus_per_node,
            tp_all_reduce,
        }
    }

    /// The pipeline send crossing `boundary` (between stages `boundary`
    /// and `boundary + 1`).
    fn pp_send(&self, plan: &ParallelConfig, boundary: usize) -> CommOp {
        let tier = ProcessGroups::pipeline_boundary_tier(plan, &self.topo, boundary);
        CommOp {
            kind: CommKind::PpSendRecv,
            bytes: self.boundary_bytes,
            ranks: 2,
            scope: if tier > 0 { CommScope::InterNode } else { CommScope::IntraNode },
            placement: GroupPlacement::pair(tier),
            overlappable: false,
            concurrent_groups: 1,
        }
    }

    fn dp_all_reduce(&self, bytes: Bytes) -> CommOp {
        let inter_node = self.tensor * self.data > self.gpus_per_node;
        CommOp {
            kind: CommKind::DpAllReduce,
            bytes,
            ranks: self.data,
            scope: if inter_node { CommScope::InterNode } else { CommScope::IntraNode },
            placement: self.data_placement,
            overlappable: true,
            concurrent_groups: if inter_node {
                self.gpus_per_node / self.tensor.min(self.gpus_per_node)
            } else {
                1
            },
        }
    }
}

impl SigFactory<'_> {
    fn layer(&self, kind: CompKind) -> OpSignature {
        let recompute = self.opts.recompute && matches!(kind, CompKind::MhaBwd | CompKind::FfnBwd);
        OpSignature {
            kind,
            hidden: self.model.hidden_size(),
            heads: self.model.num_heads(),
            seq: self.model.seq_len(),
            micro_batch: self.plan.micro_batch(),
            tensor: self.plan.tensor(),
            ffn_expansion: self.model.ffn_expansion(),
            vocab: 0,
            params: 0,
            recompute,
        }
    }

    fn vocab(&self, kind: CompKind) -> OpSignature {
        OpSignature { vocab: self.model.vocab_size(), ..self.layer(kind) }
    }

    fn weight_update(&self, params: u64) -> OpSignature {
        OpSignature { params, ..self.layer(CompKind::WeightUpdate) }
    }

    /// Parameters held by one GPU of `stage` (layer share + endpoint
    /// extras), matching the weight-update and DP-gradient volume.
    fn stage_local_params(&self, stage: usize, num_layers_here: usize) -> u64 {
        let t = self.plan.tensor() as u64;
        let mut params = num_layers_here as u64 * self.model.params_per_layer() / t;
        if stage == 0 {
            params += self.model.embedding_params() / t;
        }
        if stage == self.plan.pipeline() - 1 {
            params += 2 * self.model.hidden_size() as u64;
        }
        params
    }
}

/// Where `(pass, micro_batch)` sits in one stage's periodic form:
/// `(section, slot, period)`.
fn locate(sections: &[Section], pass: Pass, micro_batch: usize) -> (usize, usize, usize) {
    sections
        .iter()
        .enumerate()
        .find_map(|(section, s)| {
            s.slots.iter().enumerate().find_map(|(slot, pattern)| {
                let period = pattern.period_of(micro_batch, s.periods)?;
                (pattern.pass == pass).then_some((section, slot, period))
            })
        })
        .expect("every slot of the program lies in a section")
}

struct Builder<'a, S: GraphSink> {
    model: &'a ModelConfig,
    plan: &'a ParallelConfig,
    opts: &'a GraphOptions,
    sigs: SigFactory<'a>,
    sink: &'a mut S,
    /// Shared communication-operator constructor (placement geometry
    /// computed once, not per node).
    comms: CommFactory,
    /// Precomputed pipeline sends, indexed by boundary (`p - 1` entries).
    pp_sends: Vec<CommOp>,
    /// Precomputed backward layer signatures for the final backward
    /// slot's per-layer emission (all other layer loops go through the
    /// chain patterns below).
    sig_mha_bwd: OpSignature,
    sig_ffn_bwd: OpSignature,
    /// The per-layer forward/backward emission patterns
    /// (`[Mha, TpAR?, Ffn, TpAR?]` and `[FfnBwd, TpAR?, MhaBwd, TpAR?]`),
    /// precomputed so slot bodies emit whole layer loops as one
    /// [`GraphSink::push_chain`] block.
    fwd_chain: Vec<ChainOp>,
    bwd_chain: Vec<ChainOp>,
    /// Last node per (device, stream) for program-order chaining.
    last_compute: Vec<Option<u32>>,
    last_comm: Vec<Option<u32>>,
    /// First compute- and comm-stream node emitted since the device's
    /// chain cursors were last cleared (the heads of a periodic section).
    head_compute: Option<u32>,
    head_comm: Option<u32>,
    /// Latency-slot ids (see [`visit_plan_slots`]): the TP All-Reduce
    /// slot (meaningful only when `t > 1`), the first pipeline-send slot
    /// (boundary 0), and the next DP All-Reduce slot to hand out (DP
    /// slots are consumed in emission order, which is stage-major in both
    /// emission forms and so identical to enumeration order).
    slot_tp: u32,
    slot_send_base: u32,
    next_dp_slot: u32,
}

/// The endpoints of one emitted schedule slot that cross-stage edges
/// attach to.
#[derive(Clone, Copy)]
struct SlotEnds {
    /// The slot's first node (receives the upstream stage's send).
    first: u32,
    /// Its pipeline send, if the slot has one.
    send: Option<u32>,
}

/// What the final backward slot leaves behind for the stage's gradient
/// synchronization.
#[derive(Clone, Default)]
struct SyncRecord {
    /// Node after which each local layer's gradient is final (recorded
    /// while walking the final backward slot), indexed by position within
    /// the stage.
    grad_ready: Vec<Option<u32>>,
    /// Embedding-backward node (stage 0 only).
    embedding_bwd: Option<u32>,
    /// DP All-Reduce nodes of this stage.
    dp_all_reduces: Vec<u32>,
}

/// Per-stage bookkeeping of the plain form: the endpoints of every
/// micro-batch's forward and backward slot.
#[derive(Clone, Default)]
struct StageRecord {
    fwd: Vec<Option<SlotEnds>>,
    bwd: Vec<Option<SlotEnds>>,
    sync: SyncRecord,
}

/// Per-stage bookkeeping of the periodic form, constant-size whatever
/// the micro-batch count.
#[derive(Clone, Default)]
struct PeriodicRecord {
    /// The single emitted copy of each section's slots, by section then
    /// slot (empty for a section without periods on this stage).
    ends: Vec<Vec<SlotEnds>>,
    sync: SyncRecord,
}

impl<'a, S: GraphSink> Builder<'a, S> {
    fn new(
        model: &'a ModelConfig,
        plan: &'a ParallelConfig,
        opts: &'a GraphOptions,
        sink: &'a mut S,
    ) -> Self {
        let p = plan.pipeline();
        let comms = CommFactory::new(model, plan, opts);
        let pp_sends = (0..p.saturating_sub(1)).map(|b| comms.pp_send(plan, b)).collect();
        let sigs = SigFactory { model, plan, opts };
        let slot_tp = FIXED_COMP_SLOTS + p as u32;
        let slot_send_base = slot_tp + (plan.tensor() > 1) as u32;
        let next_dp_slot = slot_send_base + p.saturating_sub(1) as u32;
        let layer_chain = |a: OpSignature, b: OpSignature| {
            let mut chain = Vec::with_capacity(4);
            for sig in [a, b] {
                chain.push(ChainOp {
                    op: Op::Compute(ComputeOp { sig }),
                    slot: fixed_comp_slot(sig.kind),
                });
                if let Some(tp) = comms.tp_all_reduce {
                    chain.push(ChainOp { op: Op::Comm(tp), slot: slot_tp });
                }
            }
            chain
        };
        let sig_mha_fwd = sigs.layer(CompKind::MhaFwd);
        let sig_ffn_fwd = sigs.layer(CompKind::FfnFwd);
        let sig_mha_bwd = sigs.layer(CompKind::MhaBwd);
        let sig_ffn_bwd = sigs.layer(CompKind::FfnBwd);
        Builder {
            model,
            plan,
            opts,
            sig_mha_bwd,
            sig_ffn_bwd,
            fwd_chain: layer_chain(sig_mha_fwd, sig_ffn_fwd),
            bwd_chain: layer_chain(sig_ffn_bwd, sig_mha_bwd),
            sigs,
            sink,
            comms,
            pp_sends,
            last_compute: vec![None; p],
            last_comm: vec![None; p],
            head_compute: None,
            head_comm: None,
            slot_tp,
            slot_send_base,
            next_dp_slot,
        }
    }

    /// Appends a node with its latency slot, chaining it after the
    /// previous node on the same (device, stream) to enforce program
    /// order.
    fn emit(&mut self, device: usize, stream: StreamKind, op: Op, latency_slot: u32) -> u32 {
        let idx = self.sink.push(OpNode { device: device as u32, stream, op }, latency_slot);
        let (last, head) = match stream {
            StreamKind::Compute => (&mut self.last_compute[device], &mut self.head_compute),
            StreamKind::Comm => (&mut self.last_comm[device], &mut self.head_comm),
        };
        match last.replace(idx) {
            Some(prev) => self.sink.add_edge(prev, idx),
            None => *head = Some(idx),
        }
        idx
    }

    fn vocab_sig(&self, kind: CompKind) -> OpSignature {
        self.sigs.vocab(kind)
    }

    fn weight_update_sig(&self, params: u64) -> OpSignature {
        self.sigs.weight_update(params)
    }

    /// Emits a fixed layer/vocab compute node (slot from the kind).
    fn compute(&mut self, device: usize, sig: OpSignature) -> u32 {
        let slot = fixed_comp_slot(sig.kind);
        self.emit(device, StreamKind::Compute, Op::Compute(ComputeOp { sig }), slot)
    }

    /// Emits one of the precomputed per-layer patterns `repeat` times as a
    /// single [`GraphSink::push_chain`] block, chained after the device's
    /// previous compute-stream node. Returns the first node; `repeat` must
    /// be at least 1.
    fn compute_chain(&mut self, device: usize, backward: bool, repeat: usize) -> u32 {
        let pattern = if backward { &self.bwd_chain } else { &self.fwd_chain };
        let prev = self.last_compute[device];
        let first = self.sink.push_chain(device as u32, prev, pattern, repeat as u32);
        if prev.is_none() {
            self.head_compute = Some(first);
        }
        self.last_compute[device] = Some(first + (pattern.len() * repeat) as u32 - 1);
        first
    }

    /// TP All-Reduce node on the compute stream (sequential dependency with
    /// the surrounding blocks, Fig. 6). No-op when `t == 1`.
    fn tp_all_reduce(&mut self, device: usize) -> Option<u32> {
        let op = self.comms.tp_all_reduce?;
        let slot = self.slot_tp;
        Some(self.emit(device, StreamKind::Compute, Op::Comm(op), slot))
    }

    fn pp_send(&mut self, device: usize, boundary: usize) -> u32 {
        let op = self.pp_sends[boundary];
        let slot = self.slot_send_base + boundary as u32;
        self.emit(device, StreamKind::Comm, Op::Comm(op), slot)
    }

    /// DP gradient All-Reduce over `bytes` of this rank's gradients.
    fn dp_all_reduce(&mut self, device: usize, bytes: Bytes) -> u32 {
        let op = self.comms.dp_all_reduce(bytes);
        let slot = self.next_dp_slot;
        self.next_dp_slot += 1;
        self.emit(device, StreamKind::Comm, Op::Comm(op), slot)
    }

    fn stage_local_params(&self, stage: usize, num_layers_here: usize) -> u64 {
        self.sigs.stage_local_params(stage, num_layers_here)
    }

    fn build(self) {
        if self.sink.periodic() {
            self.build_periodic();
        } else {
            self.build_plain();
        }
    }

    /// The plain form: every slot of every stage program, stage-major,
    /// then the cross-stage pipeline edges (same micro-batch precedence,
    /// Fig. 7 / §III-B) boundary by boundary in micro-batch order.
    fn build_plain(mut self) {
        let p = self.plan.pipeline();
        let n_micro = self.plan.num_micro_batches();
        let partition = layer_partition(self.model.num_layers(), p);
        let mut records: Vec<StageRecord> = partition
            .iter()
            .map(|layers| StageRecord {
                fwd: vec![None; n_micro],
                bwd: vec![None; n_micro],
                sync: SyncRecord { grad_ready: vec![None; layers.len()], ..SyncRecord::default() },
            })
            .collect();
        for stage in 0..p {
            let layers_here = partition[stage].len();
            let program = self.plan.schedule().stage_program(stage, p, n_micro);
            let record = &mut records[stage];
            for (i, slot) in program.iter().enumerate() {
                let is_final = i + 1 == program.len();
                let ends =
                    self.emit_slot(stage, slot.pass, layers_here, is_final, &mut record.sync);
                match slot.pass {
                    Pass::Forward => record.fwd[slot.micro_batch] = Some(ends),
                    Pass::Backward => record.bwd[slot.micro_batch] = Some(ends),
                }
            }
            self.emit_gradient_sync_and_update(stage, layers_here, &mut record.sync);
        }
        let link = |from: &[Option<SlotEnds>], to: &[Option<SlotEnds>], sink: &mut S| {
            for (from, to) in from.iter().zip(to) {
                let (from, to) = (from.expect("slot emitted"), to.expect("slot emitted"));
                sink.add_edge(from.send.expect("cross-stage slot sends"), to.first);
            }
        };
        for stage in 1..p {
            link(&records[stage - 1].fwd, &records[stage].fwd, self.sink);
        }
        for stage in 0..p.saturating_sub(1) {
            link(&records[stage + 1].bwd, &records[stage].bwd, self.sink);
        }
    }

    /// The periodic form (see [`GraphSink::periodic`]): each stage's
    /// [`PipelineSchedule::stage_sections`], section-major, every section
    /// emitted once with its program-order wrap-around as loop-carried
    /// edges; then the cross-stage edges, resolved per section slot.
    ///
    /// [`PipelineSchedule::stage_sections`]: vtrain_parallel::PipelineSchedule::stage_sections
    fn build_periodic(mut self) {
        let p = self.plan.pipeline();
        let n_micro = self.plan.num_micro_batches();
        let partition = layer_partition(self.model.num_layers(), p);
        let sections: Vec<_> =
            (0..p).map(|s| self.plan.schedule().stage_sections(s, p, n_micro)).collect();
        let mut records: Vec<PeriodicRecord> = partition
            .iter()
            .map(|layers| PeriodicRecord {
                ends: vec![Vec::new(); sections[0].len()],
                sync: SyncRecord { grad_ready: vec![None; layers.len()], ..SyncRecord::default() },
            })
            .collect();
        for si in 0..sections[0].len() {
            for (stage, record) in records.iter_mut().enumerate() {
                let layers_here = partition[stage].len();
                self.emit_section(stage, si, &sections[stage], layers_here, record);
            }
        }
        for stage in 1..p {
            self.link_periodic(&sections, &records, stage - 1, stage, Pass::Forward);
        }
        for stage in 0..p.saturating_sub(1) {
            self.link_periodic(&sections, &records, stage + 1, stage, Pass::Backward);
        }
    }

    /// Emits section `si` of `stage`'s program once (and, in the final
    /// section, the stage's gradient sync and weight update). A stream's
    /// first node in the section follows the stream's last node of the
    /// previous copy — a loop-carried edge — and, in copy 0, the
    /// stream's tail before the section.
    fn emit_section(
        &mut self,
        stage: usize,
        si: usize,
        sections: &[Section],
        layers_here: usize,
        record: &mut PeriodicRecord,
    ) {
        let section = &sections[si];
        if section.periods == 0 {
            return;
        }
        let last_section = si + 1 == sections.len();
        self.sink.begin_section(stage as u32, si as u32, section.periods as u64);
        let before = [self.last_compute[stage].take(), self.last_comm[stage].take()];
        self.head_compute = None;
        self.head_comm = None;
        for (j, slot) in section.slots.iter().enumerate() {
            let is_final = last_section && j + 1 == section.slots.len();
            let ends = self.emit_slot(stage, slot.pass, layers_here, is_final, &mut record.sync);
            record.ends[si].push(ends);
        }
        if last_section {
            self.emit_gradient_sync_and_update(stage, layers_here, &mut record.sync);
        }
        let heads = [self.head_compute, self.head_comm];
        let lasts = [&mut self.last_compute[stage], &mut self.last_comm[stage]];
        for ((last, head), before) in lasts.into_iter().zip(heads).zip(before) {
            match (*last, head) {
                (Some(tail), Some(head)) if section.periods > 1 => {
                    self.sink.add_carried_edge(tail, head, before);
                }
                (Some(_), Some(head)) => {
                    if let Some(before) = before {
                        self.sink.add_edge(before, head);
                    }
                }
                // The stream has no node in this section.
                _ => *last = before,
            }
        }
    }

    /// Emits the `pass` edges from `src` stage's sends into `dst` stage's
    /// slots of the same micro-batch, in periodic form. A slot's source
    /// is either in the same copy of the same section (an ordinary edge)
    /// or, for copy 0, in the last copy of an earlier section; the later
    /// copies of a repeated section then take it from the previous copy
    /// (a loop-carried edge).
    fn link_periodic(
        &mut self,
        sections: &[Vec<Section>],
        records: &[PeriodicRecord],
        src: usize,
        dst: usize,
        pass: Pass,
    ) {
        let send_of = |(section, slot, _): (usize, usize, usize)| {
            records[src].ends[section][slot].send.expect("cross-stage slot sends")
        };
        for (si, section) in sections[dst].iter().enumerate() {
            for (j, slot) in section.slots.iter().enumerate() {
                if slot.pass != pass || section.periods == 0 {
                    continue;
                }
                let to = records[dst].ends[si][j].first;
                let at0 = locate(&sections[src], pass, slot.at(0).micro_batch);
                if at0.0 == si {
                    // Same copy: the source repeats alongside the target.
                    let last = section.periods - 1;
                    debug_assert_eq!(
                        locate(&sections[src], pass, slot.at(last).micro_batch),
                        (si, at0.1, last),
                        "a same-copy edge in every copy"
                    );
                    self.sink.add_edge(send_of(at0), to);
                    continue;
                }
                assert!(at0.0 < si, "pipeline edges never point back a section");
                debug_assert_eq!(at0.2 + 1, sections[src][at0.0].periods, "reads the last copy");
                if section.periods == 1 {
                    self.sink.add_edge(send_of(at0), to);
                } else {
                    let at1 = locate(&sections[src], pass, slot.at(1).micro_batch);
                    assert_eq!((at1.0, at1.2), (si, 0), "pipeline edges span at most one copy");
                    self.sink.add_carried_edge(send_of(at1), to, Some(send_of(at0)));
                }
            }
        }
    }

    /// Emits one schedule slot (with its aggregation cut); when it is the
    /// stage's final backward, records its gradient anchors in `sync`.
    fn emit_slot(
        &mut self,
        stage: usize,
        pass: Pass,
        layers_here: usize,
        is_final: bool,
        sync: &mut SyncRecord,
    ) -> SlotEnds {
        // Every slot's first node can receive a cross-stage edge.
        self.sink.cut(stage as u32);
        let p = self.plan.pipeline();
        let (first, send) = match pass {
            Pass::Forward => self.emit_forward_slot(stage, layers_here, p),
            Pass::Backward => self.emit_backward_slot(stage, layers_here, p, is_final, sync),
        };
        debug_assert!(!is_final || pass == Pass::Backward, "programs end with a backward");
        SlotEnds { first, send }
    }

    /// Emits one forward slot; returns (first node, optional activation
    /// send).
    fn emit_forward_slot(
        &mut self,
        stage: usize,
        layers_here: usize,
        p: usize,
    ) -> (u32, Option<u32>) {
        let mut first = None;
        let track = |idx: u32, first: &mut Option<u32>| {
            if first.is_none() {
                *first = Some(idx);
            }
        };
        if stage == 0 {
            let idx = self.compute(stage, self.vocab_sig(CompKind::EmbeddingFwd));
            track(idx, &mut first);
        }
        if layers_here > 0 {
            let idx = self.compute_chain(stage, false, layers_here);
            track(idx, &mut first);
        }
        let send = if stage == p - 1 {
            self.compute(stage, self.vocab_sig(CompKind::LmHeadFwd));
            None
        } else {
            // The send waits for the last compute node via an explicit edge
            // (it lives on the comm stream).
            let last_compute = self.last_compute[stage].expect("forward emitted compute");
            let send = self.pp_send(stage, stage);
            self.sink.add_edge(last_compute, send);
            Some(send)
        };
        (first.expect("forward slot emits at least one node"), send)
    }

    /// Emits one backward slot; returns (first node, optional gradient
    /// send). When `is_final_bwd`, records per-layer gradient-ready nodes.
    fn emit_backward_slot(
        &mut self,
        stage: usize,
        layers_here: usize,
        p: usize,
        is_final_bwd: bool,
        sync: &mut SyncRecord,
    ) -> (u32, Option<u32>) {
        let mut first = None;
        let track = |idx: u32, first: &mut Option<u32>| {
            if first.is_none() {
                *first = Some(idx);
            }
        };
        if stage == p - 1 {
            let idx = self.compute(stage, self.vocab_sig(CompKind::LmHeadBwd));
            track(idx, &mut first);
        }
        // Backward visits layers deepest-first. Only the final backward
        // slot needs per-layer emission (its gradient anchors receive
        // cuts and late DP edges); every other slot is one pure chain.
        if is_final_bwd {
            for local_layer in (0..layers_here).rev() {
                let idx = self.compute(stage, self.sig_ffn_bwd);
                track(idx, &mut first);
                self.tp_all_reduce(stage);
                let mha = self.compute(stage, self.sig_mha_bwd);
                let last = self.tp_all_reduce(stage).unwrap_or(mha);
                // The per-layer gradient anchor sources a late edge to its
                // DP bucket: close the aggregation run at the anchor.
                sync.grad_ready[local_layer] = Some(last);
                self.sink.cut(stage as u32);
            }
        } else if layers_here > 0 {
            let idx = self.compute_chain(stage, true, layers_here);
            track(idx, &mut first);
        }
        let send = if stage == 0 {
            let idx = self.compute(stage, self.vocab_sig(CompKind::EmbeddingBwd));
            track(idx, &mut first);
            if is_final_bwd {
                sync.embedding_bwd = Some(idx);
                self.sink.cut(stage as u32);
            }
            None
        } else {
            let last_compute = self.last_compute[stage].expect("backward emitted compute");
            let send = self.pp_send(stage, stage - 1);
            self.sink.add_edge(last_compute, send);
            Some(send)
        };
        (first.expect("backward slot emits at least one node"), send)
    }

    /// Emits the stage's DP gradient All-Reduces (bucketed or single,
    /// Fig. 5) and its weight-update node.
    fn emit_gradient_sync_and_update(
        &mut self,
        stage: usize,
        layers_here: usize,
        record: &mut SyncRecord,
    ) {
        if self.plan.data() > 1 {
            // Bucketed, the buckets group layers in gradient-readiness
            // order (deepest local layer first), each ready when its
            // shallowest layer is done. Unbucketed, the single
            // All-Reduce runs strictly after the entire backward pass
            // (Fig. 5(b)).
            let buckets = DpBuckets::new(self.model, self.plan, self.opts, stage, layers_here);
            for (lo, bytes) in buckets {
                let ar = self.dp_all_reduce(stage, bytes);
                if self.plan.gradient_bucketing() {
                    let ready = record.grad_ready[lo].expect("final backward recorded");
                    self.sink.add_edge(ready, ar);
                    if let Some(emb) = record.embedding_bwd.filter(|_| lo == 0) {
                        self.sink.add_edge(emb, ar);
                    }
                } else {
                    let last_compute = self.last_compute[stage].expect("stage has compute nodes");
                    self.sink.add_edge(last_compute, ar);
                }
                record.dp_all_reduces.push(ar);
            }
        }

        // The weight update receives late edges from the All-Reduces: it
        // must head its own aggregation run.
        self.sink.cut(stage as u32);
        let params = self.stage_local_params(stage, layers_here);
        let sig = self.weight_update_sig(params);
        let wu = self.emit(
            stage,
            StreamKind::Compute,
            Op::Compute(ComputeOp { sig }),
            FIXED_COMP_SLOTS + stage as u32,
        );
        for &ar in &record.dp_all_reduces {
            self.sink.add_edge(ar, wu);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtrain_model::presets;
    use vtrain_parallel::PipelineSchedule as Sched;

    fn plan(t: usize, d: usize, p: usize, m: usize, b: usize, sched: Sched) -> ParallelConfig {
        ParallelConfig::builder()
            .tensor(t)
            .data(d)
            .pipeline(p)
            .micro_batch(m)
            .global_batch(b)
            .schedule(sched)
            .build()
            .unwrap()
    }

    fn count_kind(g: &OpGraph, kind: CompKind) -> usize {
        g.nodes().iter().filter(|n| n.op.signature().is_some_and(|s| s.kind == kind)).count()
    }

    fn count_comm(g: &OpGraph, kind: CommKind) -> usize {
        g.nodes().iter().filter(|n| n.op.comm().is_some_and(|c| c.kind == kind)).count()
    }

    #[test]
    fn single_gpu_graph_shape() {
        let model = presets::megatron("1.7B"); // 24 layers
        let p = plan(1, 1, 1, 2, 8, Sched::OneFOneB); // 4 micro-batches
        let g = build_op_graph(&model, &p, &GraphOptions::default());
        assert!(g.is_acyclic());
        // 4 micro-batches × 24 layers of MHA fwd.
        assert_eq!(count_kind(&g, CompKind::MhaFwd), 96);
        assert_eq!(count_kind(&g, CompKind::MhaBwd), 96);
        assert_eq!(count_kind(&g, CompKind::EmbeddingFwd), 4);
        assert_eq!(count_kind(&g, CompKind::LmHeadFwd), 4);
        assert_eq!(count_kind(&g, CompKind::WeightUpdate), 1);
        // No parallelism ⇒ no communication at all.
        assert_eq!(count_comm(&g, CommKind::TpAllReduce), 0);
        assert_eq!(count_comm(&g, CommKind::DpAllReduce), 0);
        assert_eq!(count_comm(&g, CommKind::PpSendRecv), 0);
    }

    #[test]
    fn tensor_parallel_inserts_two_all_reduces_per_layer_per_pass() {
        let model = presets::megatron("1.7B");
        let p = plan(2, 1, 1, 2, 4, Sched::OneFOneB); // 2 micro-batches
        let g = build_op_graph(&model, &p, &GraphOptions::default());
        // 2 mb × 24 layers × 2 passes × 2 All-Reduces (Fig. 6).
        assert_eq!(count_comm(&g, CommKind::TpAllReduce), 2 * 24 * 2 * 2);
    }

    #[test]
    fn pipeline_inserts_send_recv_at_boundaries() {
        let model = presets::megatron("1.7B");
        let p = plan(1, 1, 3, 1, 6, Sched::OneFOneB); // 6 micro-batches, 3 stages
        let g = build_op_graph(&model, &p, &GraphOptions::default());
        // fwd: stages 0,1 send (2 boundaries × 6 mb); bwd: stages 2,1 send.
        assert_eq!(count_comm(&g, CommKind::PpSendRecv), 2 * 6 + 2 * 6);
        assert!(g.is_acyclic());
    }

    #[test]
    fn data_parallel_bucketing_bounds_bucket_count() {
        let model = presets::megatron("1.7B");
        let with = plan(1, 4, 1, 1, 8, Sched::OneFOneB);
        let g = build_op_graph(&model, &with, &GraphOptions::default());
        let buckets = count_comm(&g, CommKind::DpAllReduce);
        assert!((1..=24).contains(&buckets), "buckets = {buckets}");
        // Disabling bucketing collapses to exactly one All-Reduce (Fig. 5b).
        let without = ParallelConfig::builder()
            .data(4)
            .global_batch(8)
            .gradient_bucketing(false)
            .build()
            .unwrap();
        let g2 = build_op_graph(&model, &without, &GraphOptions::default());
        assert_eq!(count_comm(&g2, CommKind::DpAllReduce), 1);
    }

    #[test]
    fn necessary_operators_independent_of_scale() {
        let small = presets::megatron("1.7B");
        let big = {
            // Same shape hyperparameters, more layers.
            vtrain_model::ModelConfig::builder()
                .name("deep")
                .hidden_size(small.hidden_size())
                .num_layers(96)
                .num_heads(small.num_heads())
                .seq_len(small.seq_len())
                .vocab_size(small.vocab_size())
                .build()
                .unwrap()
        };
        let p_small = plan(2, 2, 2, 1, 8, Sched::OneFOneB);
        let p_big = plan(2, 2, 2, 1, 32, Sched::OneFOneB);
        let ops_small =
            build_op_graph(&small, &p_small, &GraphOptions::default()).necessary_operators();
        let ops_big = build_op_graph(&big, &p_big, &GraphOptions::default()).necessary_operators();
        // Layer ops share signatures; only WeightUpdate params differ.
        let non_wu = |s: &OpSignature| s.kind != CompKind::WeightUpdate;
        let a: std::collections::HashSet<_> = ops_small.iter().copied().filter(non_wu).collect();
        let b: std::collections::HashSet<_> = ops_big.iter().copied().filter(non_wu).collect();
        assert_eq!(a, b, "layer signatures must be scale-invariant");
        assert!(ops_small.len() <= 12);
    }

    #[test]
    fn gpipe_and_1f1b_have_identical_node_multisets() {
        let model = presets::megatron("1.7B");
        let a =
            build_op_graph(&model, &plan(2, 2, 2, 1, 16, Sched::GPipe), &GraphOptions::default());
        let b = build_op_graph(
            &model,
            &plan(2, 2, 2, 1, 16, Sched::OneFOneB),
            &GraphOptions::default(),
        );
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert!(a.is_acyclic() && b.is_acyclic());
    }

    #[test]
    fn dp_scope_follows_rank_layout() {
        let model = presets::megatron("1.7B");
        // t·d = 4 ≤ 8 ⇒ DP stays intra-node.
        let intra =
            build_op_graph(&model, &plan(2, 2, 1, 1, 4, Sched::OneFOneB), &GraphOptions::default());
        let scope = intra
            .nodes()
            .iter()
            .find_map(|n| n.op.comm().filter(|c| c.kind == CommKind::DpAllReduce))
            .unwrap()
            .scope;
        assert_eq!(scope, CommScope::IntraNode);
        // t·d = 32 > 8 ⇒ inter-node, with 8/8 = 1… use t = 2, d = 16:
        // 4 concurrent DP groups per node.
        let inter = build_op_graph(
            &model,
            &plan(2, 16, 1, 1, 16, Sched::OneFOneB),
            &GraphOptions::default(),
        );
        let op = inter
            .nodes()
            .iter()
            .find_map(|n| n.op.comm().filter(|c| c.kind == CommKind::DpAllReduce))
            .unwrap();
        assert_eq!(op.scope, CommScope::InterNode);
        assert_eq!(op.concurrent_groups, 4);
    }

    #[test]
    fn comm_placements_follow_the_rack_shape() {
        let model = presets::megatron("1.7B");
        let cfg = plan(8, 8, 1, 1, 8, Sched::OneFOneB);
        // 8 GPUs per node, 4 nodes per rack: each DP replica owns a node,
        // the 8 replicas span 2 racks.
        let opts = GraphOptions { nodes_per_rack: Some(4), ..GraphOptions::default() };
        let g = build_op_graph(&model, &cfg, &opts);
        let dp = g
            .nodes()
            .iter()
            .find_map(|n| n.op.comm().filter(|c| c.kind == CommKind::DpAllReduce))
            .unwrap();
        assert_eq!(
            dp.placement,
            vtrain_net::GroupPlacement { ranks_per_node: 1, nodes_per_rack: 4, racks: 2 }
        );
        let tp = g
            .nodes()
            .iter()
            .find_map(|n| n.op.comm().filter(|c| c.kind == CommKind::TpAllReduce))
            .unwrap();
        assert_eq!(tp.placement, vtrain_net::GroupPlacement::intra_node(8));
        // Without a rack tier the same plan spans one logical rack.
        let flat = build_op_graph(&model, &cfg, &GraphOptions::default());
        let dp_flat = flat
            .nodes()
            .iter()
            .find_map(|n| n.op.comm().filter(|c| c.kind == CommKind::DpAllReduce))
            .unwrap();
        assert_eq!(dp_flat.placement.racks, 1);
        assert_eq!(dp_flat.placement.nodes_per_rack, 8);
    }

    #[test]
    fn pp_placement_tier_matches_scope() {
        let model = presets::megatron("1.7B");
        let cfg = plan(2, 2, 3, 1, 6, Sched::OneFOneB); // 4-rank stages
        let g = build_op_graph(&model, &cfg, &GraphOptions::default());
        for n in g.nodes() {
            if let Some(c) = n.op.comm().filter(|c| c.kind == CommKind::PpSendRecv) {
                match c.scope {
                    CommScope::IntraNode => assert_eq!(c.placement.top_tier(), 0),
                    CommScope::InterNode => assert!(c.placement.top_tier() >= 1),
                }
            }
        }
    }

    #[test]
    fn weight_update_params_cover_model() {
        let model = presets::megatron("1.7B");
        let cfg = plan(2, 2, 4, 1, 8, Sched::OneFOneB);
        let g = build_op_graph(&model, &cfg, &GraphOptions::default());
        let total: u64 = g
            .nodes()
            .iter()
            .filter_map(|n| n.op.signature())
            .filter(|s| s.kind == CompKind::WeightUpdate)
            .map(|s| s.params)
            .sum();
        // Sum over stages × t ranks ≈ full model.
        let covered = total * cfg.tensor() as u64;
        let full = model.num_parameters();
        let rel = (covered as f64 - full as f64).abs() / full as f64;
        assert!(rel < 0.01, "weight updates cover {covered} of {full}");
    }

    #[test]
    fn node_slots_resolve_to_the_canonical_enumeration() {
        // Every node's latency slot must price exactly the operator the
        // builder emitted there, across grid corners covering all slot
        // families (fixed kinds, per-stage WU, TP, sends, DP buckets).
        #[derive(Default)]
        struct SlotRecorder {
            ops: Vec<(Op, u32)>,
        }
        impl crate::GraphSink for SlotRecorder {
            fn push(&mut self, node: OpNode, slot: u32) -> u32 {
                let idx = self.ops.len() as u32;
                self.ops.push((node.op, slot));
                idx
            }
            fn add_edge(&mut self, _from: u32, _to: u32) {}
        }

        let models = [presets::megatron("1.7B"), presets::megatron("18.4B")];
        for model in &models {
            for (t, d, p, m, b) in [
                (1, 1, 1, 1, 4),
                (2, 2, 2, 2, 8),
                (4, 1, 3, 1, 6),
                (2, 4, 5, 1, 8),
                (8, 2, 4, 2, 16),
                (1, 8, 1, 1, 16),
                // Deep micro-batch counts: periodic sections in both
                // schedules (GPipe F/B-trains, 1F1B steady state).
                (1, 1, 4, 1, 24),
                (2, 1, 3, 1, 32),
            ] {
                if model.num_layers() < p {
                    continue;
                }
                for sched in [Sched::OneFOneB, Sched::GPipe] {
                    for bucketing in [true, false] {
                        let cfg = ParallelConfig::builder()
                            .tensor(t)
                            .data(d)
                            .pipeline(p)
                            .micro_batch(m)
                            .global_batch(b)
                            .schedule(sched)
                            .gradient_bucketing(bucketing)
                            .build()
                            .unwrap();
                        let opts = GraphOptions::default();
                        let mut slots = Vec::new();
                        visit_plan_slots(model, &cfg, &opts, |op| slots.push(op));
                        let mut rec = SlotRecorder::default();
                        build_op_graph_into(model, &cfg, &opts, &mut rec);
                        let ctx = format!(
                            "t={t} d={d} p={p} m={m} {sched:?} bucketing={bucketing} on {}",
                            model.name()
                        );
                        let mut used = vec![false; slots.len()];
                        for (i, &(op, slot)) in rec.ops.iter().enumerate() {
                            let expect = slots.get(slot as usize).unwrap_or_else(|| {
                                panic!("node {i} slot {slot} out of range ({ctx})")
                            });
                            let actual = match op {
                                Op::Compute(c) => SlotOp::Compute(c.sig),
                                Op::Comm(c) => SlotOp::Comm(c),
                            };
                            assert_eq!(actual, *expect, "node {i} slot {slot} mismatch ({ctx})");
                            used[slot as usize] = true;
                        }
                        assert!(
                            used.iter().all(|&u| u),
                            "every slot must price at least one node ({ctx})"
                        );
                    }
                }
            }
        }
    }

    /// The node count of the builder's periodic emission per (device,
    /// latency slot), each node weighted by its section's period count:
    /// the walk the closed-form [`visit_slot_multiplicities`] replaced,
    /// kept as its oracle.
    fn walked_slot_counts(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
    ) -> std::collections::BTreeMap<(usize, u32), u64> {
        #[derive(Default)]
        struct SlotCounter {
            next: u32,
            periods: u64,
            counts: std::collections::BTreeMap<(usize, u32), u64>,
        }
        impl GraphSink for SlotCounter {
            fn push(&mut self, node: OpNode, slot: u32) -> u32 {
                *self.counts.entry((node.device as usize, slot)).or_default() += self.periods;
                self.next += 1;
                self.next - 1
            }
            fn push_chain(
                &mut self,
                device: u32,
                _: Option<u32>,
                pattern: &[ChainOp],
                repeat: u32,
            ) -> u32 {
                for op in pattern {
                    *self.counts.entry((device as usize, op.slot)).or_default() +=
                        u64::from(repeat) * self.periods;
                }
                let n = pattern.len() as u32 * repeat;
                self.next += n;
                self.next - n
            }
            fn add_edge(&mut self, _from: u32, _to: u32) {}
            fn periodic(&self) -> bool {
                true
            }
            fn begin_section(&mut self, _device: u32, _section: u32, periods: u64) {
                self.periods = periods;
            }
            fn add_carried_edge(&mut self, _from: u32, _to: u32, _init: Option<u32>) {}
        }
        let mut counter = SlotCounter::default();
        build_op_graph_into(model, plan, opts, &mut counter);
        counter.counts
    }

    /// The builder walk's total node count.
    fn walked_task_count(model: &ModelConfig, plan: &ParallelConfig, opts: &GraphOptions) -> u64 {
        walked_slot_counts(model, plan, opts).values().sum()
    }

    /// A random plan and graph options for the closed-form oracles: both
    /// schedules, bucketing on and off under bucket sizes from one layer
    /// per bucket to whole stages, `t = 1` and `t > 1`, `d = 1` and
    /// `d > 1`, recompute, uneven partitions up to one layer per stage,
    /// and micro-batch counts on either side of the periodic threshold.
    fn random_plan(
        exps: (usize, usize, usize),
        p_pick: usize,
        n_micro: usize,
        bucket_mib: u64,
        flags: u32,
    ) -> (ModelConfig, ParallelConfig, GraphOptions) {
        let (gpipe, bucketing, recompute, large) =
            (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0, flags & 8 != 0);
        let model = presets::megatron(if large { "18.4B" } else { "1.7B" });
        let p = 1 + (p_pick - 1) % model.num_layers();
        let (t, d, m) = (1usize << exps.0, 1 << exps.1, 1 << exps.2);
        let sched = if gpipe { Sched::GPipe } else { Sched::OneFOneB };
        let cfg = ParallelConfig::builder()
            .tensor(t)
            .data(d)
            .pipeline(p)
            .micro_batch(m)
            .global_batch(d * m * n_micro)
            .schedule(sched)
            .gradient_bucketing(bucketing)
            .build()
            .unwrap();
        let opts = GraphOptions {
            recompute,
            dp_bucket_bytes: Bytes::from_mib(bucket_mib),
            ..GraphOptions::default()
        };
        (model, cfg, opts)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The closed-form task count equals the builder walk on random
        /// plans (see [`random_plan`]).
        #[test]
        fn closed_form_task_count_matches_the_builder_walk(
            exps in (0usize..=3, 0usize..=3, 0usize..=1),
            p_pick in 1usize..=40,
            n_micro in 1usize..=300,
            bucket_mib in 1u64..=2_000,
            flags in 0u32..16,
        ) {
            let (model, cfg, opts) = random_plan(exps, p_pick, n_micro, bucket_mib, flags);
            let walked = walked_task_count(&model, &cfg, &opts);
            assert_eq!(plan_task_count(&model, &cfg, &opts), walked, "{cfg} {opts:?}");
        }

        /// The closed-form multiplicities equal the builder walk's node
        /// count per (device, latency slot) on random plans, arrive in
        /// canonical slot order, and cover exactly the enumerated slots.
        #[test]
        fn closed_form_multiplicities_match_the_builder_walk(
            exps in (0usize..=3, 0usize..=3, 0usize..=1),
            p_pick in 1usize..=40,
            n_micro in 1usize..=300,
            bucket_mib in 1u64..=2_000,
            flags in 0u32..16,
        ) {
            let (model, cfg, opts) = random_plan(exps, p_pick, n_micro, bucket_mib, flags);
            let mut closed = std::collections::BTreeMap::new();
            let mut last_slot = 0;
            visit_slot_multiplicities(&model, &cfg, &opts, |slot, stage, count| {
                assert!(slot >= last_slot, "slots arrive in canonical order");
                last_slot = slot;
                if count > 0 {
                    assert!(closed.insert((stage, slot), count).is_none(), "one visit per pair");
                }
            });
            let mut slots = 0;
            visit_plan_slots(&model, &cfg, &opts, |_| slots += 1);
            assert_eq!(last_slot + 1, slots, "{cfg} {opts:?}");
            let walked = walked_slot_counts(&model, &cfg, &opts);
            assert_eq!(closed, walked, "{cfg} {opts:?}");
            assert_eq!(walked.values().sum::<u64>(), walked_task_count(&model, &cfg, &opts));
        }
    }

    #[test]
    fn periodic_task_count_matches_the_full_graph() {
        // Plain and periodic sections, both schedules, micro-batch counts
        // on either side of the periodic threshold, uneven partitions.
        let model = presets::megatron("1.7B");
        for (t, d, p, m, b) in
            [(1, 1, 1, 1, 4), (2, 2, 3, 1, 8), (2, 1, 3, 1, 40), (1, 2, 5, 2, 64), (4, 1, 8, 1, 11)]
        {
            for sched in [Sched::OneFOneB, Sched::GPipe] {
                for bucketing in [true, false] {
                    let cfg = ParallelConfig::builder()
                        .tensor(t)
                        .data(d)
                        .pipeline(p)
                        .micro_batch(m)
                        .global_batch(b)
                        .schedule(sched)
                        .gradient_bucketing(bucketing)
                        .build()
                        .unwrap();
                    let opts = GraphOptions::default();
                    let full = build_op_graph(&model, &cfg, &opts).num_nodes() as u64;
                    assert_eq!(plan_task_count(&model, &cfg, &opts), full, "{cfg}");
                }
            }
        }
        // Far beyond what a full graph can hold, the count is still exact
        // arithmetic: affine in the micro-batch count.
        let big = |b| {
            plan_task_count(&model, &plan(2, 1, 4, 1, b, Sched::OneFOneB), &GraphOptions::default())
        };
        assert_eq!(big(30_000_000) - big(20_000_000), big(20_000_000) - big(10_000_000));
        assert!(big(30_000_000) > u64::from(u32::MAX));
    }

    #[test]
    fn sink_stream_receives_same_nodes_and_edges_as_op_graph() {
        #[derive(Default)]
        struct Recorder {
            nodes: Vec<(u32, StreamKind)>,
            edges: Vec<(u32, u32)>,
        }
        impl crate::GraphSink for Recorder {
            fn push(&mut self, node: OpNode, _slot: u32) -> u32 {
                let idx = self.nodes.len() as u32;
                self.nodes.push((node.device, node.stream));
                idx
            }
            fn add_edge(&mut self, from: u32, to: u32) {
                self.edges.push((from, to));
            }
        }

        let model = presets::megatron("1.7B");
        let cfg = plan(2, 2, 2, 1, 8, Sched::OneFOneB);
        let opts = GraphOptions::default();
        let graph = build_op_graph(&model, &cfg, &opts);
        let mut rec = Recorder::default();
        build_op_graph_into(&model, &cfg, &opts, &mut rec);

        assert_eq!(rec.nodes.len(), graph.num_nodes());
        assert_eq!(rec.edges.len(), graph.num_edges());
        for (i, &(device, stream)) in rec.nodes.iter().enumerate() {
            let n = graph.node(i as u32);
            assert_eq!((n.device, n.stream), (device, stream));
        }
        // Edge multiset and per-node ordering must agree: group recorder
        // edges by source in insertion order and compare child lists.
        let mut children = vec![Vec::new(); rec.nodes.len()];
        for &(from, to) in &rec.edges {
            children[from as usize].push(to);
        }
        for i in 0..rec.nodes.len() as u32 {
            assert_eq!(children[i as usize].as_slice(), graph.children(i));
        }
    }
}
