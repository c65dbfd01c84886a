//! The sweep's compact replay: run-aggregated lowering fused with the
//! Predicted-mode Algorithm 1 traversal, plus the delta-lowering path
//! that re-prices a cached graph for a shape-compatible neighbor.
//!
//! The graph builder emits long program-order chains per (device, stream)
//! whose interior nodes never source or receive cross edges — whole
//! forward/backward slots between [`GraphSink::cut`] boundaries. Because
//! the Predicted replay applies no per-task perturbation, such a chain is
//! lossless to aggregate: its start is its head's ready time, its finish
//! is `start + Σ durations` (exact `u64` arithmetic), and every quantity
//! the report accumulates (category busy sums, device busy, task counts,
//! the finish-time maximum) distributes over the chain. The compact graph
//! is therefore one-to-two orders of magnitude smaller than the full task
//! graph while producing a **bit-identical** [`SimReport`] — proven
//! against the full lowering + replay by the equivalence property test
//! below and by the sweep's golden grid A/B.
//!
//! # Slots and delta-lowering
//!
//! Every node the builder emits carries a *latency slot*
//! ([`vtrain_graph::visit_plan_slots`]): an index into the plan's
//! canonical enumeration of distinct latency sources (8 fixed layer/vocab
//! kinds, per-stage weight updates, the TP All-Reduce, per-boundary
//! pipeline sends, per-stage DP buckets). Lowering prices all slots
//! first (`slot_values`), then each node is an O(1) table lookup instead
//! of a signature-memo probe.
//!
//! Two plans with equal [`PlanShapeKey`]s produce graphs with identical
//! structure — node counts, run boundaries, edges, and slot assignments —
//! differing only in slot *values*. Everything that depends on structure
//! alone is derived once per fresh build, right after the CSR: the
//! topological order of the runs, each slot's total multiplicity, the
//! per-device `(slot, multiplicity)` tallies of the compute and TP slots,
//! and the task count. When the scratch already holds a graph for the
//! same key, [`simulate_plan_delta`] skips the builder and all of that
//! derivation, and only refills the one value column — each run's
//! duration — from the re-priced slot table and the cached run
//! *compositions* (`(slot, multiplicity)` pairs per run, a handful of
//! entries even for thousand-node chains).
//!
//! The replay is then value-only: one `ready_at` pass over the stored
//! order yields the iteration time; the busy breakdown and per-device
//! busy time are `Σ slot_value · multiplicity` over the stored tallies;
//! the task count is the stored node count. Exact integer sums make both
//! the patched graph and the tally-derived report bit-identical to a
//! fresh lowering and to the full replay (proven by the property tests
//! below).
//!
//! The refill distributes over disjoint run ranges, so a single
//! candidate's patch can be split across `shards` threads (two-level
//! sweep parallelism); shard boundaries never change the values, so
//! N-way output is byte-identical to serial.
//!
//! Measured mode keys noise on task ids and must replay the full graph;
//! this path is Predicted-only by construction.
//!
//! All buffers live in a caller-owned [`CompactScratch`], so steady-state
//! sweep evaluation performs no per-point heap allocation here.

use vtrain_graph::{
    build_op_graph_into, plan_shape_key, visit_plan_slots, ChainOp, CommKind, GraphOptions,
    GraphSink, OpNode, OpSignature, PlanShapeKey, SlotOp, StreamKind,
};
use vtrain_model::{ModelConfig, TimeNs};
use vtrain_parallel::ParallelConfig;
use vtrain_profile::CommModel;

use crate::sim::{BusyBreakdown, SimReport};
use crate::task_graph::MissingProfile;

/// Resolves compute-operator signatures to `(total latency, kernel
/// count)` during compact lowering. Implemented by the estimator over the
/// shared profile cache (with per-sweep hit/miss attribution) and by
/// profile-set adapters in tests.
pub(crate) trait ProfileSource {
    /// The profiled `(total latency, kernel count)` of `sig`, or `None`
    /// if the signature cannot be resolved.
    fn op_latency(&mut self, sig: &OpSignature) -> Option<(TimeNs, u32)>;
}

/// How [`simulate_plan_delta`] obtained the replayed graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LowerOutcome {
    /// Built from scratch through the graph builder.
    Fresh,
    /// Re-priced the cached graph of a shape-compatible previous plan.
    Patched,
}

/// No open run on this device's compute stream.
const NONE: u32 = u32::MAX;

/// Busy-category codes of `slot_cat` (which [`BusyBreakdown`] field a
/// slot's latency lands in).
const CAT_COMPUTE: u8 = 0;
const CAT_TP: u8 = 1;
const CAT_DP: u8 = 2;
const CAT_PP: u8 = 3;

/// One accepted block replication: `periods` copies (including the
/// original) of `node_stride` nodes / `run_stride` runs starting at
/// builder node `start` and run `r0`.
#[derive(Clone, Copy)]
struct Rep {
    start: u32,
    node_stride: u32,
    periods: u32,
    run_stride: u32,
}

/// Reusable buffers of the compact lowering + replay, columnar throughout.
///
/// The buffers split into *structure* (run boundaries, compositions,
/// edges, CSR, topological order, multiplicity tallies), which survives
/// across points and is what delta-lowering reuses, and *values* (the
/// slot table and the runs' duration column), which are refilled per
/// point.
#[derive(Default)]
pub struct CompactScratch {
    // --- structure: valid for `base_key`, reused by the delta path ---
    /// Builder node ids consumed so far (nodes are never stored
    /// individually: each belongs to a run, and its latency slot lands in
    /// the run's composition). Equals the graph's task count.
    nodes: u32,
    /// Run compositions — `(owning run, latency slot, multiplicity)`
    /// triples, in emission order (so `comp_run` is non-decreasing: runs
    /// own consecutive node-id ranges and close before the next run
    /// opens). The builder's bulk layer chains land here as one triple
    /// per pattern op regardless of layer count, which is what makes
    /// lowering and the delta refill O(runs), not O(nodes).
    comp_run: Vec<u32>,
    comp_slot: Vec<u32>,
    comp_count: Vec<u32>,
    run_device: Vec<u32>,
    /// Builder node ids of each run's chain endpoints.
    run_head: Vec<u32>,
    run_tail: Vec<u32>,
    /// Inter-run edges as collected (source-run, target-run).
    edges: Vec<(u32, u32)>,
    /// Counting-sort cursor for the CSR build.
    counts: Vec<u32>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// In-degree countdown and ready stack of the topological sort.
    in_degree: Vec<u32>,
    stack: Vec<u32>,
    /// Kahn topological order of the runs: the replay walks it as is.
    order: Vec<u32>,
    /// Total multiplicity of each slot over the whole graph.
    slot_mult: Vec<u64>,
    /// `(device, slot, multiplicity)` of every compute and TP slot a
    /// device runs — the terms of its busy time.
    device_tally: Vec<(u32, u32, u64)>,
    /// Dense `device × slot` accumulator behind `device_tally`, over the
    /// compute/TP prefix of the slot table.
    tally_dense: Vec<u64>,
    /// The shape key the structure buffers were built for.
    base_key: Option<PlanShapeKey>,
    /// Moving cursors of [`CompactScratch::run_of_seq`] for edge
    /// endpoints that miss the recency fast path (the builder's pass-2
    /// cross-stage edges, whose sources and targets each arrive in
    /// near-ascending node order).
    hint_from: u32,
    hint_to: u32,
    /// Replicated block regions of the current build, in ascending node
    /// order. Arithmetic edge trains whose endpoints stay inside one
    /// region resolve their run ids by stride instead of per-edge
    /// lookups.
    reps: Vec<Rep>,
    /// Open (extendable) compute-stream run per device while building.
    open: Vec<u32>,
    // --- values: refilled per point ---
    /// Latency of each slot of the canonical enumeration.
    slot_values: Vec<TimeNs>,
    /// Busy category of each slot (`CAT_*`).
    slot_cat: Vec<u8>,
    /// Total chain duration per run (sum of member durations).
    run_duration: Vec<TimeNs>,
    // --- replay working state ---
    ready_at: Vec<TimeNs>,
}

impl CompactScratch {
    /// Number of aggregated runs of the currently lowered graph.
    pub(crate) fn num_runs(&self) -> usize {
        self.run_device.len()
    }

    /// Bytes reserved by every column of this scratch (capacities, not
    /// lengths: what the buffers hold on to between points).
    pub(crate) fn capacity_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.comp_run)
            + bytes(&self.comp_slot)
            + bytes(&self.comp_count)
            + bytes(&self.run_device)
            + bytes(&self.run_head)
            + bytes(&self.run_tail)
            + bytes(&self.edges)
            + bytes(&self.counts)
            + bytes(&self.offsets)
            + bytes(&self.targets)
            + bytes(&self.in_degree)
            + bytes(&self.stack)
            + bytes(&self.order)
            + bytes(&self.slot_mult)
            + bytes(&self.device_tally)
            + bytes(&self.tally_dense)
            + bytes(&self.reps)
            + bytes(&self.open)
            + bytes(&self.slot_values)
            + bytes(&self.slot_cat)
            + bytes(&self.run_duration)
            + bytes(&self.ready_at)
    }

    /// Maps a builder node id back to its owning run. Runs own
    /// consecutive, strictly increasing node-id ranges (asserted at every
    /// extension), so the owner is the last run whose head is at most
    /// `id`. Only edge endpoints ever need this mapping — chain interiors
    /// are implicit. Pass-1 edges (chain links across cuts, send
    /// attachments, comm-stream program order) always touch one of the
    /// few most recent runs, so they resolve with a short backward scan;
    /// only pass-2 cross-stage edges fall through to the binary search.
    fn run_of(&self, id: u32, hint: u32) -> (u32, u32) {
        let n = self.run_head.len();
        let recent = n.saturating_sub(4);
        if id >= self.run_head[recent] {
            let mut r = n - 1;
            while self.run_head[r] > id {
                r -= 1;
            }
            return (r as u32, hint);
        }
        let r = self.run_of_seq(id, hint);
        (r, r)
    }

    /// The cold half of [`CompactScratch::run_of`]: resolves `id` near a
    /// moving cursor — a short forward scan when queries ascend (the
    /// pass-2 sequences), falling back to binary search on a miss.
    fn run_of_seq(&self, id: u32, hint: u32) -> u32 {
        let heads = &self.run_head;
        let n = heads.len();
        let mut r = (hint as usize).min(n - 1);
        if heads[r] <= id {
            for _ in 0..32 {
                if r + 1 >= n || heads[r + 1] > id {
                    return r as u32;
                }
                r += 1;
            }
        }
        (heads.partition_point(|&h| h <= id) - 1) as u32
    }

    /// Per-step run-id stride of an arithmetic node train `base + i *
    /// node_stride` (`i < count`), provided the whole train lies inside a
    /// single replicated block region advancing by that node stride —
    /// then consecutive train members land in consecutive copies, whose
    /// runs are exactly `run_stride` apart. `None` when no region covers
    /// the train (the caller falls back to per-edge resolution).
    fn train_run_stride(&self, base: u32, node_stride: u32, count: u32) -> Option<u32> {
        let i = self.reps.partition_point(|rep| rep.start <= base).checked_sub(1)?;
        let rep = self.reps[i];
        let in_region = node_stride == rep.node_stride
            && base - rep.start + node_stride * (count - 1) < node_stride * rep.periods;
        in_region.then_some(rep.run_stride)
    }

    /// Appends `count` nodes of `slot` to `run`'s composition, merging
    /// with the previous triple when it matches.
    fn push_comp(&mut self, run: u32, slot: u32, count: u32) {
        if let (Some(&r), Some(&s)) = (self.comp_run.last(), self.comp_slot.last()) {
            if r == run && s == slot {
                *self.comp_count.last_mut().expect("parallel comp columns") += count;
                return;
            }
            debug_assert!(r <= run, "composition touched a closed run");
        }
        self.comp_run.push(run);
        self.comp_slot.push(slot);
        self.comp_count.push(count);
    }

    /// Opens a new run headed by node `first` on `device`, or returns the
    /// device's open compute run (which `first` must extend contiguously).
    fn open_or_extend(&mut self, device: u32, first: u32, compute_stream: bool) -> u32 {
        let dev = device as usize;
        if compute_stream && self.open[dev] != NONE {
            let r = self.open[dev];
            // `run_of` relies on runs owning contiguous id ranges.
            assert_eq!(self.run_tail[r as usize], first - 1, "run extended non-contiguously");
            return r;
        }
        let r = self.run_device.len() as u32;
        self.run_device.push(device);
        self.run_head.push(first);
        self.run_tail.push(first);
        // Communication nodes join at cross-stream edges, so they are
        // never extendable; compute chains stay open until cut.
        if compute_stream {
            self.open[dev] = r;
        }
        r
    }
}

struct CompactSink<'a> {
    s: &'a mut CompactScratch,
}

impl GraphSink for CompactSink<'_> {
    fn push(&mut self, _node: OpNode) -> u32 {
        unreachable!("the builder emits every node through push_slotted")
    }

    fn push_slotted(&mut self, node: OpNode, slot: u32) -> u32 {
        let id = self.s.nodes;
        self.s.nodes += 1;
        let compute = node.stream == StreamKind::Compute;
        let run_id = self.s.open_or_extend(node.device, id, compute);
        self.s.run_tail[run_id as usize] = id;
        self.s.push_comp(run_id, slot, 1);
        id
    }

    fn push_chain(
        &mut self,
        device: u32,
        prev: Option<u32>,
        pattern: &[ChainOp],
        repeat: u32,
    ) -> u32 {
        let first = self.s.nodes;
        let n_new = pattern.len() as u32 * repeat;
        self.s.nodes += n_new;
        let was_open = self.s.open[device as usize] != NONE;
        let run_id = self.s.open_or_extend(device, first, true);
        self.s.run_tail[run_id as usize] = first + n_new - 1;
        // The whole block is one composition entry per pattern op — the
        // interior program-order chain is implicit in the run.
        for item in pattern {
            self.s.push_comp(run_id, item.slot, repeat);
        }
        if !was_open {
            // The chain edge from the device's previous compute node
            // enters a fresh run: record it (and seal the source run),
            // exactly as the per-node expansion would.
            if let Some(p) = prev {
                self.add_edge(p, first);
            }
        }
        first
    }

    fn replicate_block(&mut self, start_node: u32, copies: u32) -> bool {
        let s = &mut *self.s;
        // The block began at a cut, so its first node heads the first
        // block run; everything at or after it belongs to the block.
        let r0 = s.run_head.partition_point(|&h| h < start_node);
        assert_eq!(s.run_head[r0], start_node, "replicated block is not cut-aligned");
        let node_stride = s.nodes - start_node;
        let run_stride = (s.run_device.len() - r0) as u32;
        let comp0 = s.comp_run.partition_point(|&r| (r as usize) < r0);
        // The block's edges are the list's suffix targeting block runs.
        // Sources before the block are the chain links into the block
        // head — the builder re-emits those per copy, so skip them here.
        let mut edge0 = s.edges.len();
        while edge0 > 0 && s.edges[edge0 - 1].1 as usize >= r0 {
            edge0 -= 1;
        }
        let (run_end, comp_end) = (s.run_device.len(), s.comp_run.len());
        // The index ranges below keep pointing at period 0 as the
        // vectors grow, so each extend_from_within is a straight memcpy
        // of the original block; only the node/run-indexed columns need
        // an offset fixup afterwards (a vectorizable add-scalar pass).
        let (n_runs, n_comp) = (run_end - r0, comp_end - comp0);
        s.run_device.reserve(n_runs * copies as usize);
        s.run_head.reserve(n_runs * copies as usize);
        s.run_tail.reserve(n_runs * copies as usize);
        s.comp_run.reserve(n_comp * copies as usize);
        s.comp_slot.reserve(n_comp * copies as usize);
        s.comp_count.reserve(n_comp * copies as usize);
        let block_edges: Vec<(u32, u32)> =
            s.edges[edge0..].iter().copied().filter(|&(from, _)| from as usize >= r0).collect();
        s.edges.reserve(block_edges.len() * copies as usize);
        for q in 1..=copies {
            let node_off = node_stride * q;
            let run_off = run_stride * q;
            s.run_device.extend_from_within(r0..run_end);
            let base = s.run_head.len();
            s.run_head.extend_from_within(r0..run_end);
            for v in &mut s.run_head[base..] {
                *v += node_off;
            }
            s.run_tail.extend_from_within(r0..run_end);
            for v in &mut s.run_tail[base..] {
                *v += node_off;
            }
            let cbase = s.comp_run.len();
            s.comp_run.extend_from_within(comp0..comp_end);
            for v in &mut s.comp_run[cbase..] {
                *v += run_off;
            }
            s.comp_slot.extend_from_within(comp0..comp_end);
            s.comp_count.extend_from_within(comp0..comp_end);
            s.edges.extend(block_edges.iter().map(|&(from, to)| (from + run_off, to + run_off)));
        }
        s.nodes += node_stride * copies;
        s.reps.push(Rep { start: start_node, node_stride, periods: copies + 1, run_stride });
        // Copies carry the block's internal cut structure; nothing stays
        // extendable across the replication boundary.
        s.open[s.run_device[r0] as usize] = NONE;
        true
    }

    fn add_edge_train(&mut self, from: u32, from_stride: u32, to: u32, to_stride: u32, count: u32) {
        if count == 0 {
            return;
        }
        // The first edge takes the ordinary checked path (sealing the
        // source run if it was still open).
        self.add_edge(from, to);
        if count == 1 {
            return;
        }
        let strides = Option::zip(
            self.s.train_run_stride(from, from_stride, count),
            self.s.train_run_stride(to, to_stride, count),
        );
        let Some((frs, trs)) = strides else {
            for i in 1..count {
                self.add_edge(from + i * from_stride, to + i * to_stride);
            }
            return;
        };
        let s = &mut *self.s;
        let (rf0, _) = s.run_of(from, s.hint_from);
        let (rt0, _) = s.run_of(to, s.hint_to);
        if rf0 == rt0 {
            // An intra-run chain link — and so are all its copies:
            // nothing to store (mirrors the `add_edge` early return).
            debug_assert_eq!(to, from + 1, "non-chain edge inside an aggregation run");
            return;
        }
        s.edges.reserve((count - 1) as usize);
        for i in 1..count {
            let (rf, rt) = (rf0 + i * frs, rt0 + i * trs);
            debug_assert_eq!(
                s.run_tail[rf as usize],
                from + i * from_stride,
                "train edge from the interior of a run"
            );
            debug_assert_eq!(
                s.run_head[rt as usize],
                to + i * to_stride,
                "train edge into the interior of a run"
            );
            debug_assert_ne!(
                s.open[s.run_device[rf as usize] as usize], rf,
                "replicated runs never stay open"
            );
            s.edges.push((rf, rt));
        }
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        let (rf, hint_from) = self.s.run_of(from, self.s.hint_from);
        let (rt, hint_to) = self.s.run_of(to, self.s.hint_to);
        self.s.hint_from = hint_from;
        self.s.hint_to = hint_to;
        if rf == rt {
            // The only intra-run edges are the builder's program-order
            // chain links between consecutive members.
            assert_eq!(to, from + 1, "non-chain edge inside an aggregation run");
            return;
        }
        // An edge may only leave a run at its (current) tail; once it
        // does, the run must not grow past the tail, so seal it.
        assert_eq!(self.s.run_tail[rf as usize], from, "edge from the interior of a run");
        let src_dev = self.s.run_device[rf as usize] as usize;
        if self.s.open[src_dev] == rf {
            self.s.open[src_dev] = NONE;
        }
        assert_eq!(self.s.run_head[rt as usize], to, "edge into the interior of a run");
        self.s.edges.push((rf, rt));
    }

    fn cut(&mut self, device: u32) {
        self.s.open[device as usize] = NONE;
    }
}

/// Prices every slot of the plan's canonical enumeration into
/// `slot_values`/`slot_cat`. Returns `true` if any compute signature
/// could not be resolved.
fn resolve_slots<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    slot_values: &mut Vec<TimeNs>,
    slot_cat: &mut Vec<u8>,
) -> bool {
    slot_values.clear();
    slot_cat.clear();
    let mut missing = false;
    visit_plan_slots(model, plan, opts, |op| match op {
        SlotOp::Compute(sig) => {
            let total = match profiles.op_latency(&sig) {
                Some((total, _)) => total,
                None => {
                    missing = true;
                    TimeNs::ZERO
                }
            };
            slot_values.push(total);
            slot_cat.push(CAT_COMPUTE);
        }
        SlotOp::Comm(c) => {
            slot_values.push(comm.latency(&c));
            slot_cat.push(match c.kind {
                CommKind::TpAllReduce => CAT_TP,
                CommKind::DpAllReduce => CAT_DP,
                CommKind::PpSendRecv => CAT_PP,
            });
        }
    });
    missing
}

/// Lowers `(model, plan)` straight into an aggregated replay graph and
/// replays it in Predicted mode, writing the result into `report` — the
/// sweep's fused lower + simulate hot path. Produces a report
/// bit-identical to `simulate(&TaskGraph::lower_fused(..)?,
/// SimMode::Predicted)`. Always lowers from scratch; see
/// [`simulate_plan_delta`] for the neighbor-patching variant.
///
/// # Errors
///
/// Returns [`MissingProfile`] if `profiles` cannot resolve a signature
/// the builder emits.
///
/// # Panics
///
/// Same conditions as [`vtrain_graph::build_op_graph`], or if the builder
/// violates its [`GraphSink::cut`] aggregation contract (a bug, caught by
/// the equivalence property tests).
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) fn simulate_plan_compact<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    scratch: &mut CompactScratch,
    report: &mut SimReport,
) -> Result<(), MissingProfile> {
    simulate_plan_delta(model, plan, opts, profiles, comm, scratch, report, false, 1).map(|_| ())
}

/// [`simulate_plan_compact`] with delta-lowering: when `delta` is set and
/// `scratch` holds the graph of a plan with the same [`PlanShapeKey`],
/// the builder and CSR construction are skipped and only the slot table
/// and the runs' value columns are recomputed (optionally split across
/// `shards` threads). The patched graph — and hence the report — is
/// bit-identical to a fresh lowering.
#[cfg_attr(not(test), allow(dead_code))]
#[allow(clippy::too_many_arguments)]
pub(crate) fn simulate_plan_delta<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    scratch: &mut CompactScratch,
    report: &mut SimReport,
    delta: bool,
    shards: usize,
) -> Result<LowerOutcome, MissingProfile> {
    let outcome = lower_plan_delta(model, plan, opts, profiles, comm, scratch, delta, shards)?;
    replay_lowered(scratch, plan.pipeline(), report);
    Ok(outcome)
}

/// The lowering half of [`simulate_plan_delta`]: prices the slot table
/// and either patches the cached graph (same shape key) or rebuilds it.
/// Split from the replay so the sweep's stage profiler can attribute
/// lower vs. simulate time on the compact path.
#[allow(clippy::too_many_arguments)]
pub(crate) fn lower_plan_delta<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    scratch: &mut CompactScratch,
    delta: bool,
    shards: usize,
) -> Result<LowerOutcome, MissingProfile> {
    if resolve_slots(
        model,
        plan,
        opts,
        profiles,
        comm,
        &mut scratch.slot_values,
        &mut scratch.slot_cat,
    ) {
        return Err(MissingProfile);
    }

    let key = plan_shape_key(model, plan, opts);
    if delta && scratch.base_key == Some(key) {
        debug_assert_eq!(scratch.slot_mult.len(), scratch.slot_values.len(), "slot table shape");
        refill_runs(scratch, shards);
        return Ok(LowerOutcome::Patched);
    }
    build_graph(model, plan, opts, scratch);
    build_csr(scratch);
    build_order(scratch);
    build_tallies(scratch, plan.pipeline());
    // Fresh builds price their duration column through the same
    // composition refill the patch path uses — one value computation,
    // shared and equally sharded on both paths.
    refill_runs(scratch, shards);
    scratch.base_key = Some(key);
    Ok(LowerOutcome::Fresh)
}

/// Clears the structure buffers and streams the builder's graph into
/// them as aggregated runs, compositions and inter-run edges.
fn build_graph(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    s: &mut CompactScratch,
) {
    s.base_key = None;
    s.nodes = 0;
    s.comp_run.clear();
    s.comp_slot.clear();
    s.comp_count.clear();
    s.run_device.clear();
    s.run_head.clear();
    s.run_tail.clear();
    s.edges.clear();
    s.hint_from = 0;
    s.hint_to = 0;
    s.reps.clear();
    s.open.clear();
    s.open.resize(plan.pipeline(), NONE);
    build_op_graph_into(model, plan, opts, &mut CompactSink { s });
}

/// Builds the inter-run CSR (per-source insertion order preserved) and
/// the runs' in-degrees from the collected edge list.
fn build_csr(s: &mut CompactScratch) {
    let n = s.run_device.len();
    s.counts.clear();
    s.counts.resize(n + 1, 0);
    s.in_degree.clear();
    s.in_degree.resize(n, 0);
    for &(from, to) in &s.edges {
        s.counts[from as usize + 1] += 1;
        s.in_degree[to as usize] += 1;
    }
    for i in 0..n {
        s.counts[i + 1] += s.counts[i];
    }
    s.offsets.clear();
    s.offsets.extend_from_slice(&s.counts);
    s.targets.clear();
    s.targets.resize(s.edges.len(), 0);
    for &(from, to) in &s.edges {
        let slot = &mut s.counts[from as usize];
        s.targets[*slot as usize] = to;
        *slot += 1;
    }
}

/// Stores a Kahn topological order of the runs in `order`. The ready
/// set is a stack, so the order follows chains depth-first and the
/// replay's walk touches neighbouring runs back to back.
///
/// # Panics
///
/// If the run graph contains a cycle (a builder bug: the aggregation of a
/// valid plan is always acyclic).
fn build_order(s: &mut CompactScratch) {
    let n = s.run_device.len();
    let CompactScratch { in_degree, stack, offsets, targets, order, .. } = s;
    order.clear();
    stack.clear();
    stack.extend((0..n as u32).filter(|&i| in_degree[i as usize] == 0));
    while let Some(u) = stack.pop() {
        order.push(u);
        let i = u as usize;
        for &c in &targets[offsets[i] as usize..offsets[i + 1] as usize] {
            in_degree[c as usize] -= 1;
            if in_degree[c as usize] == 0 {
                stack.push(c);
            }
        }
    }
    let ordered = order.len();
    assert_eq!(ordered, n, "compact graph contains a cycle: {ordered} of {n} runs ordered");
}

/// Sums the compositions into each slot's total multiplicity and each
/// device's compute/TP `(slot, multiplicity)` tallies — the structure
/// half of the report's busy sums, which the replay scales by the slot
/// values.
fn build_tallies(s: &mut CompactScratch, devices: usize) {
    let n_slots = s.slot_cat.len();
    // The canonical enumeration lists every compute and TP slot before
    // the pipeline and DP slots, so device busy time only reads a prefix.
    let n_busy = s.slot_cat.iter().take_while(|&&c| matches!(c, CAT_COMPUTE | CAT_TP)).count();
    assert!(
        s.slot_cat[n_busy..].iter().all(|&c| matches!(c, CAT_DP | CAT_PP)),
        "compute/TP slots must precede the pipeline and DP slots"
    );
    s.slot_mult.clear();
    s.slot_mult.resize(n_slots, 0);
    s.tally_dense.clear();
    s.tally_dense.resize(devices * n_busy, 0);
    for ((&r, &slot), &count) in s.comp_run.iter().zip(&s.comp_slot).zip(&s.comp_count) {
        let slot = slot as usize;
        s.slot_mult[slot] += u64::from(count);
        if slot < n_busy {
            let device = s.run_device[r as usize] as usize;
            s.tally_dense[device * n_busy + slot] += u64::from(count);
        }
    }
    s.device_tally.clear();
    for device in 0..devices {
        let row = &s.tally_dense[device * n_busy..(device + 1) * n_busy];
        for (slot, &mult) in row.iter().enumerate() {
            if mult != 0 {
                s.device_tally.push((device as u32, slot as u32, mult));
            }
        }
    }
}

/// (Re)computes the runs' durations from the (re-priced) slot table and
/// the run compositions, leaving all structure untouched — the value
/// half of a fresh lowering and the entirety of a delta patch. With
/// `shards > 1` the work splits across disjoint contiguous run ranges on
/// scoped threads; each run's duration is the exact integer sum
/// `Σ slot_value · multiplicity` either way, so the result is independent
/// of the split (and equals per-node accumulation: `u64` addition is
/// associative).
fn refill_runs(s: &mut CompactScratch, shards: usize) {
    let n_runs = s.run_device.len();
    s.run_duration.clear();
    s.run_duration.resize(n_runs, TimeNs::ZERO);
    if n_runs == 0 {
        return;
    }
    let shards = shards.clamp(1, n_runs);
    if shards == 1 {
        refill_range(
            0,
            &mut s.run_duration,
            &s.comp_run,
            &s.comp_slot,
            &s.comp_count,
            &s.slot_values,
        );
        return;
    }
    // Deterministic split: ceil(n_runs / shards) runs per shard.
    // `comp_run` is non-decreasing, so each shard owns one contiguous
    // composition range, found by binary search at the run boundary.
    let chunk = n_runs.div_ceil(shards);
    let (comp_run, comp_slot, comp_count) = (&s.comp_run, &s.comp_slot, &s.comp_count);
    let slot_values = &s.slot_values;
    std::thread::scope(|scope| {
        let mut run_lo = 0usize;
        let mut comp_lo = 0usize;
        for dur in s.run_duration.chunks_mut(chunk) {
            let run_hi = run_lo + dur.len();
            let comp_hi = comp_lo + comp_run[comp_lo..].partition_point(|&r| (r as usize) < run_hi);
            let (runs, slots, counts) = (
                &comp_run[comp_lo..comp_hi],
                &comp_slot[comp_lo..comp_hi],
                &comp_count[comp_lo..comp_hi],
            );
            scope.spawn(move || refill_range(run_lo as u32, dur, runs, slots, counts, slot_values));
            run_lo = run_hi;
            comp_lo = comp_hi;
        }
    });
}

/// Accumulates the durations of runs `[run_base, run_base + dur.len())`
/// (already zeroed) from their composition triples.
fn refill_range(
    run_base: u32,
    dur: &mut [TimeNs],
    comp_run: &[u32],
    comp_slot: &[u32],
    comp_count: &[u32],
    slot_values: &[TimeNs],
) {
    for ((&r, &slot), &count) in comp_run.iter().zip(comp_slot).zip(comp_count) {
        dur[(r - run_base) as usize] += scale(slot_values[slot as usize], u64::from(count));
    }
}

/// `value · multiplicity`, exact in integer nanoseconds.
fn scale(value: TimeNs, multiplicity: u64) -> TimeNs {
    TimeNs::from_nanos(value.as_nanos() * multiplicity)
}

/// The value-only replay over the lowered graph. Compact graphs are
/// stream-chained by construction (the builder chains consecutive runs on
/// every slot), so the dataflow traversal reproduces the FIFO replay —
/// the same argument as `simulate`'s fast path, proven bit-identical by
/// the equivalence tests. It walks the stored topological order once,
/// propagating finish times into `ready_at`; the busy breakdown, the
/// per-device busy time and the task count come from the structure
/// tallies ([`build_tallies`]) scaled by the current slot values, so a
/// patched graph replays without touching any structure.
pub(crate) fn replay_lowered(s: &mut CompactScratch, devices: usize, report: &mut SimReport) {
    let CompactScratch { order, offsets, targets, run_duration, ready_at, .. } = s;
    ready_at.clear();
    ready_at.resize(run_duration.len(), TimeNs::ZERO);
    let mut iteration_time = TimeNs::ZERO;
    for &u in order.iter() {
        let i = u as usize;
        let finish = ready_at[i] + run_duration[i];
        iteration_time = iteration_time.max(finish);
        for &c in &targets[offsets[i] as usize..offsets[i + 1] as usize] {
            let ready = &mut ready_at[c as usize];
            *ready = (*ready).max(finish);
        }
    }

    let mut busy = BusyBreakdown::default();
    for ((&value, &cat), &mult) in s.slot_values.iter().zip(&s.slot_cat).zip(&s.slot_mult) {
        let total = scale(value, mult);
        match cat {
            CAT_COMPUTE => busy.compute += total,
            CAT_TP => busy.tp_comm += total,
            CAT_DP => busy.dp_comm += total,
            _ => busy.pp_comm += total,
        }
    }
    report.device_busy.clear();
    report.device_busy.resize(devices, TimeNs::ZERO);
    for &(device, slot, mult) in &s.device_tally {
        report.device_busy[device as usize] += scale(s.slot_values[slot as usize], mult);
    }
    report.iteration_time = iteration_time;
    report.busy = busy;
    report.tasks_executed = s.nodes as usize;
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use vtrain_model::presets;
    use vtrain_parallel::{ClusterSpec, GpuSpec, ParallelConfig, PipelineSchedule};
    use vtrain_profile::{ProfileSet, Profiler};

    use super::*;
    use crate::sim::{simulate, SimMode};
    use crate::task_graph::TaskGraph;

    /// `ProfileSet` adapter for tests.
    struct SetSource<'a>(&'a ProfileSet);

    impl ProfileSource for SetSource<'_> {
        fn op_latency(&mut self, sig: &OpSignature) -> Option<(TimeNs, u32)> {
            self.0.lookup(sig)
        }
    }

    fn compare_point(
        model: &vtrain_model::ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        scratch: &mut CompactScratch,
    ) {
        let cluster = ClusterSpec::aws_p4d(512);
        let comm = CommModel::new(&cluster, 1.0);
        let cache = vtrain_profile::ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let sigs = vtrain_graph::plan_signatures(model, plan, opts);
        let profiles = cache.resolve(&profiler, &sigs);

        let full = TaskGraph::lower_fused(model, plan, opts, &profiles, &comm).unwrap();
        let expect = simulate(&full, SimMode::Predicted);

        let mut report = SimReport::default();
        let mut source = SetSource(&profiles);
        simulate_plan_compact(model, plan, opts, &mut source, &comm, scratch, &mut report).unwrap();

        assert_eq!(report.iteration_time, expect.iteration_time, "{plan}");
        assert_eq!(report.busy, expect.busy, "{plan}");
        assert_eq!(report.device_busy, expect.device_busy, "{plan}");
        assert_eq!(report.tasks_executed, expect.tasks_executed, "{plan}");
        // The aggregation must actually shrink the graph whenever a stage
        // holds more than one operator.
        assert!(scratch.num_runs() <= full.len());
    }

    #[test]
    fn compact_replay_matches_full_on_grid_corners() {
        let model = presets::megatron("1.7B");
        let mut scratch = CompactScratch::default();
        for (t, d, p, m, b) in
            [(1, 1, 1, 1, 4), (2, 2, 2, 1, 8), (2, 4, 3, 2, 16), (1, 8, 1, 1, 16), (4, 1, 6, 1, 6)]
        {
            for sched in [PipelineSchedule::OneFOneB, PipelineSchedule::GPipe] {
                for bucketing in [true, false] {
                    let plan = ParallelConfig::builder()
                        .tensor(t)
                        .data(d)
                        .pipeline(p)
                        .micro_batch(m)
                        .global_batch(b)
                        .schedule(sched)
                        .gradient_bucketing(bucketing)
                        .build()
                        .unwrap();
                    compare_point(&model, &plan, &GraphOptions::default(), &mut scratch);
                }
            }
        }
    }

    #[test]
    fn missing_profile_reported() {
        let model = presets::megatron("1.7B");
        let plan = ParallelConfig::builder().global_batch(4).build().unwrap();
        let comm = CommModel::new(&ClusterSpec::aws_p4d(8), 1.0);
        let empty = ProfileSet::default();
        let mut source = SetSource(&empty);
        let err = simulate_plan_compact(
            &model,
            &plan,
            &GraphOptions::default(),
            &mut source,
            &comm,
            &mut CompactScratch::default(),
            &mut SimReport::default(),
        )
        .unwrap_err();
        assert_eq!(err, MissingProfile);
    }

    /// Runs `plan` through the delta-enabled path on `walk_scratch` and
    /// through a from-scratch lowering on a throwaway scratch, asserting
    /// bit-identical reports. Returns the walk path's outcome.
    fn compare_delta_step(
        model: &vtrain_model::ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        walk_scratch: &mut CompactScratch,
        shards: usize,
    ) -> LowerOutcome {
        let cluster = ClusterSpec::aws_p4d(512);
        let comm = CommModel::new(&cluster, 1.0);
        let cache = vtrain_profile::ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let sigs = vtrain_graph::plan_signatures(model, plan, opts);
        let profiles = cache.resolve(&profiler, &sigs);

        let mut fresh_report = SimReport::default();
        let mut fresh_scratch = CompactScratch::default();
        let mut source = SetSource(&profiles);
        simulate_plan_compact(
            model,
            plan,
            opts,
            &mut source,
            &comm,
            &mut fresh_scratch,
            &mut fresh_report,
        )
        .unwrap();

        let mut walk_report = SimReport::default();
        let mut source = SetSource(&profiles);
        let outcome = simulate_plan_delta(
            model,
            plan,
            opts,
            &mut source,
            &comm,
            walk_scratch,
            &mut walk_report,
            true,
            shards,
        )
        .unwrap();

        assert_eq!(walk_report.iteration_time, fresh_report.iteration_time, "{plan}");
        assert_eq!(walk_report.busy, fresh_report.busy, "{plan}");
        assert_eq!(walk_report.device_busy, fresh_report.device_busy, "{plan}");
        assert_eq!(walk_report.tasks_executed, fresh_report.tasks_executed, "{plan}");
        outcome
    }

    #[test]
    fn delta_patch_covers_shape_compatible_neighbors() {
        // A deterministic neighbor walk that must exercise the patch
        // path: t changes move slot values (boundary bytes per rank,
        // WU params) but not the shape; so do micro-batch changes with
        // n_micro held fixed.
        let model = presets::megatron("1.7B");
        let mut scratch = CompactScratch::default();
        let step = |t, m, b, scratch: &mut CompactScratch, shards| {
            let plan = ParallelConfig::builder()
                .tensor(t)
                .data(2)
                .pipeline(3)
                .micro_batch(m)
                .global_batch(b)
                .build()
                .unwrap();
            compare_delta_step(&model, &plan, &GraphOptions::default(), scratch, shards)
        };
        assert_eq!(step(2, 1, 8, &mut scratch, 1), LowerOutcome::Fresh);
        // t changes within t > 1 keep the shape (the TP slot exists
        // either way); only slot values move.
        assert_eq!(step(4, 1, 8, &mut scratch, 3), LowerOutcome::Patched);
        // Same n_micro (4), larger micro-batch: still a patch.
        assert_eq!(step(4, 2, 16, &mut scratch, 2), LowerOutcome::Patched);
        // n_micro changes (8): the stage programs differ, so re-lower.
        assert_eq!(step(4, 1, 16, &mut scratch, 1), LowerOutcome::Fresh);
        assert_eq!(step(2, 1, 16, &mut scratch, 4), LowerOutcome::Patched);
        // Dropping to t = 1 removes the TP slot: re-lower again.
        assert_eq!(step(1, 1, 16, &mut scratch, 1), LowerOutcome::Fresh);
    }

    /// Runs `plan` through the delta-enabled path on `walk_scratch` and
    /// through the full lowering + Predicted replay under the same
    /// communication model, asserting every report field bit for bit.
    /// Returns the walk path's outcome.
    fn compare_walk_step_to_full(
        model: &vtrain_model::ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        comm: &CommModel,
        walk_scratch: &mut CompactScratch,
        shards: usize,
    ) -> LowerOutcome {
        let cache = vtrain_profile::ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let sigs = vtrain_graph::plan_signatures(model, plan, opts);
        let profiles = cache.resolve(&profiler, &sigs);
        let full = TaskGraph::lower_fused(model, plan, opts, &profiles, comm).unwrap();
        let expect = simulate(&full, SimMode::Predicted);

        let mut report = SimReport::default();
        let mut source = SetSource(&profiles);
        let outcome = simulate_plan_delta(
            model,
            plan,
            opts,
            &mut source,
            comm,
            walk_scratch,
            &mut report,
            true,
            shards,
        )
        .unwrap();
        assert_eq!(report.iteration_time, expect.iteration_time, "{plan}");
        assert_eq!(report.busy, expect.busy, "{plan}");
        assert_eq!(report.device_busy, expect.device_busy, "{plan}");
        assert_eq!(report.tasks_executed, expect.tasks_executed, "{plan}");
        outcome
    }

    #[test]
    #[should_panic(expected = "compact graph contains a cycle")]
    fn cyclic_compact_graph_panics() {
        // Three runs where 1 -> 2 -> 1 loops behind the source run 0.
        let mut scratch = CompactScratch::default();
        scratch.run_device.extend([0, 0, 0]);
        scratch.edges.extend([(0, 1), (1, 2), (2, 1)]);
        build_csr(&mut scratch);
        build_order(&mut scratch);
    }

    #[test]
    #[ignore = "manual profiling aid"]
    fn profile_lower_breakdown() {
        let model = presets::mt_nlg_530b();
        let plan = ParallelConfig::builder()
            .tensor(8)
            .data(1)
            .pipeline(21)
            .micro_batch(1)
            .global_batch(1920)
            .build()
            .unwrap();
        let opts = GraphOptions::default();
        let cluster = ClusterSpec::aws_p4d(21 * 8);
        let comm = CommModel::new(&cluster, 1.0);
        let cache = vtrain_profile::ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let sigs = vtrain_graph::plan_signatures(&model, &plan, &opts);
        let profiles = cache.resolve(&profiler, &sigs);
        let mut scratch = CompactScratch::default();
        let mut report = SimReport::default();
        for round in 0..3 {
            let t0 = std::time::Instant::now();
            let mut source = SetSource(&profiles);
            resolve_slots(
                &model,
                &plan,
                &opts,
                &mut source,
                &comm,
                &mut scratch.slot_values,
                &mut scratch.slot_cat,
            );
            let t1 = std::time::Instant::now();
            build_graph(&model, &plan, &opts, &mut scratch);
            let t2 = std::time::Instant::now();
            build_csr(&mut scratch);
            let t3 = std::time::Instant::now();
            build_order(&mut scratch);
            build_tallies(&mut scratch, plan.pipeline());
            let t4 = std::time::Instant::now();
            refill_runs(&mut scratch, 1);
            let t5 = std::time::Instant::now();
            replay_lowered(&mut scratch, plan.pipeline(), &mut report);
            let t6 = std::time::Instant::now();
            eprintln!(
                "round {round}: slots {:?} build {:?} csr {:?} order+tallies {:?} refill {:?} \
                 replay {:?} | nodes {} runs {} comp {} edges {}",
                t1 - t0,
                t2 - t1,
                t3 - t2,
                t4 - t3,
                t5 - t4,
                t6 - t5,
                scratch.nodes,
                scratch.run_device.len(),
                scratch.comp_run.len(),
                scratch.edges.len(),
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// Golden equivalence: the aggregated replay reproduces the full
        /// lowering + Predicted replay bit for bit on sampled design
        /// points — schedules, bucketing, recompute, uneven partitions.
        #[test]
        fn compact_replay_is_bit_identical_to_full(
            t_exp in 0usize..=2,
            d_exp in 0usize..=2,
            p in 1usize..=5,
            m_exp in 0usize..=1,
            n_micro in 1usize..=24,
            flags in 0u32..8,
        ) {
            let (gpipe, bucketing, recompute) =
                (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let (t, d, m) = (1usize << t_exp, 1 << d_exp, 1 << m_exp);
            // Large-ish micro-batch counts exercise the builder's
            // periodic block replication (warmup/steady/drain splits).
            let b = d * m * n_micro;
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let plan = ParallelConfig::builder()
                .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(b)
                .schedule(sched).gradient_bucketing(bucketing).build().unwrap();
            let opts = GraphOptions { recompute, ..GraphOptions::default() };
            compare_point(&presets::megatron("1.7B"), &plan, &opts, &mut CompactScratch::default());
        }

        /// Delta A/B: walking random neighbors with one shared scratch —
        /// patched whenever shapes line up, re-lowered otherwise, with
        /// random shard splits — always reproduces a from-scratch
        /// lowering bit for bit.
        #[test]
        fn delta_lowering_matches_fresh_on_random_walks(
            walk in proptest::collection::vec(
                (0usize..=2, 0usize..=2, 1usize..=4, 0usize..=1, 0u32..4,
                 (1usize..=4, 1usize..=12)),
                2..6,
            ),
        ) {
            let model = presets::megatron("1.7B");
            let mut scratch = CompactScratch::default();
            for (t_exp, d_exp, p, m_exp, flags, (shards, n_micro)) in walk {
                let (gpipe, bucketing) = (flags & 1 != 0, flags & 2 != 0);
                let (t, d, m) = (1usize << t_exp, 1 << d_exp, 1 << m_exp);
                let b = d * m * n_micro;
                let sched =
                    if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
                let plan = ParallelConfig::builder()
                    .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(b)
                    .schedule(sched).gradient_bucketing(bucketing).build().unwrap();
                compare_delta_step(
                    &model, &plan, &GraphOptions::default(), &mut scratch, shards,
                );
            }
        }

        /// Differential delta walk against the reference: from one base
        /// `(d, p, n_micro, schedule, bucketing)`, random steps over `t`
        /// and the micro-batch size (shape-compatible whenever `t > 1` on
        /// both sides) with random shard splits, on a flat or a two-tier
        /// interconnect. Every patched and fresh report must equal the
        /// full lowering's Predicted replay, and the walk must patch
        /// exactly when the shape keys of consecutive steps agree.
        #[test]
        fn delta_walks_match_full_replay(
            d_exp in 0usize..=1,
            p in 1usize..=4,
            n_micro in 1usize..=12,
            flags in 0u32..8,
            walk in proptest::collection::vec((0usize..=2, 0usize..=1, 1usize..=4), 2..6),
        ) {
            let (gpipe, bucketing, two_tier) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let model = presets::megatron("1.7B");
            let cluster = ClusterSpec::aws_p4d(512);
            let comm = if two_tier {
                CommModel::with_topology_tiers(&cluster, cluster.topology(1.0))
            } else {
                CommModel::new(&cluster, 1.0)
            };
            let opts = GraphOptions { gpus_per_node: cluster.gpus_per_node, ..GraphOptions::default() };
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let d = 1usize << d_exp;
            let mut scratch = CompactScratch::default();
            let mut prev_key = None;
            for (t_exp, m_exp, shards) in walk {
                let (t, m) = (1usize << t_exp, 1usize << m_exp);
                let plan = ParallelConfig::builder()
                    .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(d * m * n_micro)
                    .schedule(sched).gradient_bucketing(bucketing).build().unwrap();
                let key = plan_shape_key(&model, &plan, &opts);
                let outcome =
                    compare_walk_step_to_full(&model, &plan, &opts, &comm, &mut scratch, shards);
                let expect =
                    if prev_key == Some(key) { LowerOutcome::Patched } else { LowerOutcome::Fresh };
                prop_assert_eq!(outcome, expect);
                prev_key = Some(key);
            }
        }
    }
}
