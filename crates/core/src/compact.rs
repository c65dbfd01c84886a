//! The sweep's compact replay: run-aggregated, periodic lowering fused
//! with the Predicted-mode Algorithm 1 traversal, which re-prices a
//! cached graph in place whenever the next plan has the same shape.
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
//! against the full lowering + replay by the equivalence property tests
//! below and by the sweep's golden grid A/B.
//!
//! # Periodic graph and max-plus replay
//!
//! vTrain's iteration graph repeats each micro-batch's operator sequence
//! (§III-C), so a stage program is a handful of *sections*, each one slot
//! block repeated some number of times on that stage — 1F1B's warm-up
//! forwards, steady pairs, remaining pairs, drain and final backward
//! ([`PipelineSchedule::stage_sections`]). This sink takes the builder's
//! periodic form ([`GraphSink::periodic`]): each section is emitted once
//! per stage, standing for all its copies, and edges from one copy into
//! the next are *loop-carried*. The structure is `O(p)` slots, however
//! many micro-batches the plan has.
//!
//! The replay walks the sections in order and each section copy by copy.
//! A run takes part in the first `P` copies of its section, where `P` is
//! the section's *period count* on the run's device; a run that sits a
//! copy out keeps its last finish time. Copy 0 waits on the earlier
//! sections' final finish times (`entry` edges), copy `k ≥ 1` on copy
//! `k − 1`'s finish times (`carried` edges), and the finish times of the
//! runs *active* in copy `k` (those with `P > k`) are the state vector
//! `x[k]`.
//!
//! **Nested sections.** A section is nested when no run reads a run that
//! stopped earlier than it: `P(u) ≥ P(v)` for every intra-copy edge
//! `u → v`, and `P(u) + 1 ≥ P(v)` for every carried one ([`nested`],
//! checked per point in O(edges)). A section every device repeats
//! equally often (1F1B's steady pairs, GPipe's trains) is nested
//! trivially. So are 1F1B's warm-up, remaining pairs and drain, whose
//! period counts step by one from stage to stage: in the warm-up each
//! stage's forwards feed the next stage, which runs one copy fewer, and
//! in the remaining pairs and the drain every edge into a stage with one
//! copy more than its source's is carried. In a nested section an active
//! run of copy `k ≥ 1` reads only runs active in copy `k` (intra-copy)
//! and copy `k − 1` (carried), never a stale finish time, so `x[k]` is
//! one fixed map `A` of `x[k − 1]`, restricted to the rows still active.
//! `A` is built from `max` and `+ d` only.
//!
//! **Induction.** Suppose `x[k] = x[k − c] + D` holds on every run active
//! in copy `k`, for some `c ≤ k` and integer `D ≥ 0`. Take a run `v`
//! active in copy `k + 1`, and its inputs in topological order: a
//! carried predecessor `u` has `P(u) ≥ P(v) − 1 > k`, so it is active in
//! copy `k` and the hypothesis covers it; an intra-copy predecessor is
//! active in copy `k + 1` and comes earlier in the order. So
//! `x[k + 1]_v = (A x[k])_v = (A (x[k − c] + D))_v = x[k + 1 − c]_v + D`.
//! The last step is max-plus homogeneity, `A(x + μ) = A x + μ`
//! (Baccelli, Cohen, Olsder & Quadrat, *Synchronization and Linearity*,
//! 1992), which needs every active run to wait on some predecessor. A
//! run without one finishes at its constant duration in every copy, so a
//! positive common shift never holds on it; with `D = 0` the step needs
//! no homogeneity at all. By induction, `x[m] = x[m − c] + D` on the
//! runs active in copy `m`, for every `m > k`.
//!
//! **Per-run extrapolation.** The walk keeps the last [`MAX_CYCLICITY`]
//! state vectors and stops at the first copy `k` where such a shift
//! shows ([`common_shift`]). A run whose last copy `L = P − 1` lies past
//! `k` then finishes last at `x[k′] + ((L − k′) / c)·D`, where `k′` is
//! the walked copy in `(k − c, k]` congruent to `L` mod `c`. The graph
//! is stream-chained, so a run's copy `k + 1` waits on its copy `k` and
//! a run's last copy is its latest. The section's latest finish time is
//! therefore the maximum of these last finishes and of the copies
//! walked. A section thus costs `k + 1` walked copies, however often it
//! repeats on each device: O(p) for a plan of depth `p`, not O(p²). If
//! no shift shows (GPipe's reducible trains, or a transient longer than
//! the section), or the section is not nested, every copy is walked,
//! which is still exact.
//!
//! # Slots and delta patching
//!
//! Every node the builder emits carries a *latency slot*
//! ([`vtrain_graph::visit_plan_slots`]): an index into the plan's
//! canonical enumeration of distinct latency sources (8 fixed layer/vocab
//! kinds, per-stage weight updates, the TP All-Reduce, per-boundary
//! pipeline sends, per-stage DP buckets). Lowering prices all slots
//! first (`slot_values`), then each node is an O(1) table lookup instead
//! of a signature-memo probe.
//!
//! Two plans with equal [`PlanShapeKey`]s produce periodic graphs with
//! identical structure — runs, edges, sections and slot assignments —
//! differing only in slot *values* and section period counts (the key
//! ignores the micro-batch count once it passes
//! [`PipelineSchedule::sections_stable_from`]). Everything that
//! depends on structure alone is derived once per fresh build, right after
//! the CSR: each section's topological order, its loop-carried and entry
//! edges, and the `(section, device, slot, multiplicity)` tallies of one
//! copy. Whether a section is nested depends on the period counts too,
//! so the replay checks it per point.
//! When the scratch already holds a graph for the same key,
//! [`lower_plan`] skips the builder and all of that derivation, and only
//! refills the value columns — each run's duration, from the re-priced
//! slot table and the cached run *compositions* (`(slot, multiplicity)`
//! pairs per run), and the period counts. A fresh scratch always
//! builds, and a sweep worker patches whenever its previous candidate
//! shares the key, which the executor's shape-grouped visit order makes
//! the common case.
//!
//! The busy breakdown and per-device busy time are
//! `Σ slot_value · multiplicity · periods` over the stored tallies and the
//! task count is `Σ nodes per copy · periods`, all in `u64`, so neither
//! the periodic replay nor a patched graph changes a bit of the report.
//!
//! Measured mode keys noise on task ids and must replay the full graph;
//! this path is Predicted-only by construction.
//!
//! # Fair sharing: the unrolled graph
//!
//! Under the fair-sharing network, lowering is the same [`lower_plan`]
//! (so shape-equal plans patch), plus each slot's flow program, priced
//! next to the slot table. The replay cannot take the common shift:
//! concurrent flows split a link's bandwidth, so a flow's duration
//! depends on which other flows overlap it, and the copy-to-copy map is no
//! longer built from `max` and `+ d` alone. It is not max-plus linear, and
//! `x[k] = x[k − c] + D` no longer licenses a jump. Instead
//! [`lower_unrolled`] unrolls the periodic graph into one task per
//! (section copy, run), with exactly the edges [`walk_section`] relaxes,
//! and [`replay_unrolled`] runs the flow replay over it. Compute runs stay
//! aggregated, and only communication-stream runs, one node each, become
//! flows. The unrolled graph has one task per run of every section copy
//! (~215 on the shipped 1.7B sweep's plans, against ~3,700 in the full
//! task graph), and the report is bit-identical to the full graph's flow
//! replay. That replay resolves the ~175 fixed-duration instances by
//! dataflow as their parents finish; only the ~40 flow instances wait in
//! its heap of pending joins, time-ordered against the network's
//! boundaries ([`crate::flow_replay`]). The unrolled graph's buffers live
//! in an [`Unrolled`] reused point to point; unlike the periodic graph's,
//! they grow with the number of section copies, and each point's flow
//! programs are priced afresh.
//!
//! All buffers live in a caller-owned [`CompactScratch`], so steady-state
//! sweep evaluation performs no per-point heap allocation here, and none
//! of them grows with the micro-batch count.
//!
//! [`PipelineSchedule::stage_sections`]: vtrain_parallel::PipelineSchedule::stage_sections
//! [`PipelineSchedule::sections_stable_from`]: vtrain_parallel::PipelineSchedule::sections_stable_from

use vtrain_graph::{
    build_op_graph_into, plan_shape_key, visit_plan_slots, ChainOp, CommKind, GraphOptions,
    GraphSink, OpNode, OpSignature, PlanShapeKey, SlotOp, StreamKind,
};
use vtrain_model::{ModelConfig, TimeNs};
use vtrain_net::flow::FlowProgram;
use vtrain_net::Topology;
use vtrain_parallel::ParallelConfig;
use vtrain_profile::CommModel;

use crate::flow_replay::{simulate_flows, FlowScratch, Programs};
use crate::sim::{BusyBreakdown, SimReport};
use crate::task_graph::{comm_kind, MissingProfile, TaskGraph, TaskKind};

/// Resolves compute-operator signatures to `(total latency, kernel
/// count)` during compact lowering. Implemented by the estimator over the
/// shared profile cache (with per-sweep hit/miss attribution) and by
/// profile-set adapters in tests.
pub(crate) trait ProfileSource {
    /// The profiled `(total latency, kernel count)` of `sig`, or `None`
    /// if the signature cannot be resolved.
    fn op_latency(&mut self, sig: &OpSignature) -> Option<(TimeNs, u32)>;
}

/// How [`lower_plan`] obtained the replayed graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum LowerOutcome {
    /// Built from scratch through the graph builder.
    Fresh,
    /// Re-priced the cached graph of a shape-compatible previous plan.
    Patched,
}

/// No open run on this device's compute stream.
const NONE: u32 = u32::MAX;

/// The largest period `c` of the common shift `x[k] = x[k − c] + D` the
/// section walk looks for (max-plus cyclicity). The walk keeps this many
/// past state vectors.
pub(crate) const MAX_CYCLICITY: usize = 4;

/// Busy-category codes of `slot_cat` (which [`BusyBreakdown`] field a
/// slot's latency lands in).
const CAT_COMPUTE: u8 = 0;
const CAT_TP: u8 = 1;
const CAT_DP: u8 = 2;
const CAT_PP: u8 = 3;

/// Reusable buffers of the compact lowering + replay, columnar throughout.
///
/// The buffers split into *structure* (run boundaries, compositions,
/// sections, edges, CSR, topological order, multiplicity tallies), which
/// survives across points and is what a delta patch reuses, and *values*
/// (the slot table, the runs' duration column and the sections' period
/// counts), which are refilled per point. None of them grows with the
/// plan's micro-batch count.
#[derive(Default)]
pub struct CompactScratch {
    // --- structure: valid for `base_key`, reused by the delta path ---
    /// Builder node ids consumed so far (nodes are never stored
    /// individually: each belongs to a run, and its latency slot lands in
    /// the run's composition).
    nodes: u32,
    /// First run of each section, in section order, closed by the run
    /// count: section `s` owns runs `sec_runs[s]..sec_runs[s + 1]` (the
    /// builder emits section-major).
    sec_runs: Vec<u32>,
    /// Nodes one copy of each section holds on each device
    /// (`device × section`, like `sec_periods`).
    sec_nodes: Vec<u64>,
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
    /// Inter-run edges within one copy of a section (source, target).
    edges: Vec<(u32, u32)>,
    /// Loop-carried edges: source in copy `k − 1`, target in copy `k`
    /// of the same section; sorted by target after the build.
    carried: Vec<(u32, u32)>,
    /// Edges from an earlier section's final copy into copy 0 of a later
    /// section; sorted by target after the build.
    entry: Vec<(u32, u32)>,
    /// Counting-sort cursor for the CSR build.
    counts: Vec<u32>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// In-degree countdown and ready stack of the topological sort.
    in_degree: Vec<u32>,
    stack: Vec<u32>,
    /// Kahn topological order of each section's runs under the
    /// intra-copy edges, section by section (section `s` fills
    /// `order[sec_runs[s]..sec_runs[s + 1]]`).
    order: Vec<u32>,
    /// `(section, device, slot, multiplicity)` of every slot one copy of
    /// a section runs on a device — the terms of the busy sums.
    tally: Vec<(u32, u32, u32, u64)>,
    /// The shape key the structure buffers were built for.
    base_key: Option<PlanShapeKey>,
    /// Open (extendable) compute-stream run per device while building.
    open: Vec<u32>,
    // --- values: refilled per point ---
    /// Latency of each slot of the canonical enumeration.
    slot_values: Vec<TimeNs>,
    /// Busy category of each slot (`CAT_*`).
    slot_cat: Vec<u8>,
    /// Total chain duration per run (sum of member durations).
    run_duration: Vec<TimeNs>,
    /// How many copies of each section each device runs
    /// (`device × section`).
    sec_periods: Vec<u64>,
    // --- replay working state ---
    ready_at: Vec<TimeNs>,
    /// Finish time of each run in the latest walked copy of its section.
    finish: Vec<TimeNs>,
    /// The last `MAX_CYCLICITY + 1` state vectors of the section being
    /// walked (ring buffer, one section-sized row per copy).
    hist: Vec<TimeNs>,
    /// `(walked, total)` section copies of the latest replay.
    periods: (u64, u64),
}

impl CompactScratch {
    /// Number of aggregated runs of the currently lowered graph.
    pub(crate) fn num_runs(&self) -> usize {
        self.run_device.len()
    }

    /// `(walked, total)` section copies of the latest replay: the total
    /// counts every copy the plan runs, the walked ones are those the
    /// replay did not extrapolate by a common max-plus shift.
    pub(crate) fn periods(&self) -> (u64, u64) {
        self.periods
    }

    /// Bytes reserved by every column of this scratch (capacities, not
    /// lengths: what the buffers hold on to between points).
    pub(crate) fn capacity_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.sec_runs)
            + bytes(&self.sec_nodes)
            + bytes(&self.comp_run)
            + bytes(&self.comp_slot)
            + bytes(&self.comp_count)
            + bytes(&self.run_device)
            + bytes(&self.run_head)
            + bytes(&self.run_tail)
            + bytes(&self.edges)
            + bytes(&self.carried)
            + bytes(&self.entry)
            + bytes(&self.counts)
            + bytes(&self.offsets)
            + bytes(&self.targets)
            + bytes(&self.in_degree)
            + bytes(&self.stack)
            + bytes(&self.order)
            + bytes(&self.tally)
            + bytes(&self.open)
            + bytes(&self.slot_values)
            + bytes(&self.slot_cat)
            + bytes(&self.run_duration)
            + bytes(&self.sec_periods)
            + bytes(&self.ready_at)
            + bytes(&self.finish)
            + bytes(&self.hist)
    }

    /// Maps a builder node id back to its owning run. Runs own
    /// consecutive, strictly increasing node-id ranges (asserted at every
    /// extension), so the owner is the last run whose head is at most
    /// `id`. Only edge endpoints ever need this mapping — chain interiors
    /// are implicit. Program-order edges always touch one of the few most
    /// recent runs, so they resolve with a short backward scan; the
    /// cross-stage and loop-carried edges fall through to a binary search.
    fn run_of(&self, id: u32) -> u32 {
        let heads = &self.run_head;
        let n = heads.len();
        let recent = n.saturating_sub(4);
        if id >= heads[recent] {
            let mut r = n - 1;
            while heads[r] > id {
                r -= 1;
            }
            return r as u32;
        }
        (heads.partition_point(|&h| h <= id) - 1) as u32
    }

    /// The section owning `run`.
    fn section_of(&self, run: u32) -> usize {
        self.sec_runs.partition_point(|&start| start <= run) - 1
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

    /// Resolves the endpoints of an inter-run edge `from → to`: `from`
    /// must be its run's tail and `to` its run's head. The source run is
    /// sealed (it must not grow past the edge's source). `None` for a
    /// program-order link inside one run.
    fn edge_runs(&mut self, from: u32, to: u32) -> Option<(u32, u32)> {
        let (rf, rt) = (self.run_of(from), self.run_of(to));
        if rf == rt {
            // The only intra-run edges are the builder's program-order
            // chain links between consecutive members.
            assert_eq!(to, from + 1, "non-chain edge inside an aggregation run");
            return None;
        }
        assert_eq!(self.run_tail[rf as usize], from, "edge from the interior of a run");
        assert_eq!(self.run_head[rt as usize], to, "edge into the interior of a run");
        let src_dev = self.run_device[rf as usize] as usize;
        if self.open[src_dev] == rf {
            self.open[src_dev] = NONE;
        }
        Some((rf, rt))
    }
}

struct CompactSink<'a> {
    s: &'a mut CompactScratch,
}

impl CompactSink<'_> {
    /// Counts `n` new nodes on `device` into the open section's per-copy
    /// total.
    fn count_nodes(&mut self, device: u32, n: u32) {
        let s = &mut *self.s;
        let n_sections = s.sec_nodes.len() / s.open.len();
        let section = s.sec_runs.len() - 1;
        s.sec_nodes[device as usize * n_sections + section] += u64::from(n);
    }
}

impl GraphSink for CompactSink<'_> {
    fn push(&mut self, _node: OpNode) -> u32 {
        unreachable!("the builder emits every node through push_slotted")
    }

    fn push_slotted(&mut self, node: OpNode, slot: u32) -> u32 {
        let id = self.s.nodes;
        self.s.nodes += 1;
        self.count_nodes(node.device, 1);
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
        self.count_nodes(device, n_new);
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

    fn periodic(&self) -> bool {
        true
    }

    fn begin_section(&mut self, device: u32, section: u32, periods: u64) {
        let s = &mut *self.s;
        s.open[device as usize] = NONE;
        let n_sections = s.sec_nodes.len() / s.open.len();
        debug_assert_eq!(s.sec_periods[device as usize * n_sections + section as usize], periods);
        while s.sec_runs.len() <= section as usize {
            s.sec_runs.push(s.run_device.len() as u32);
        }
        assert_eq!(section as usize + 1, s.sec_runs.len(), "sections arrive section-major");
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        let Some((rf, rt)) = self.s.edge_runs(from, to) else {
            return;
        };
        let (sf, st) = (self.s.section_of(rf), self.s.section_of(rt));
        if sf == st {
            self.s.edges.push((rf, rt));
        } else {
            assert!(sf < st, "edge into an earlier section");
            self.s.entry.push((rf, rt));
        }
    }

    fn add_carried_edge(&mut self, from: u32, to: u32, init: Option<u32>) {
        let (rf, rt) = (self.s.run_of(from), self.s.run_of(to));
        assert_eq!(self.s.run_tail[rf as usize], from, "carried edge from the interior of a run");
        assert_eq!(self.s.run_head[rt as usize], to, "carried edge into the interior of a run");
        let st = self.s.section_of(rt);
        assert_eq!(self.s.section_of(rf), st, "carried edges join copies of one section");
        self.s.carried.push((rf, rt));
        if let Some(init) = init {
            let ri = self.s.run_of(init);
            assert_eq!(self.s.run_tail[ri as usize], init, "edge from the interior of a run");
            assert!(self.s.section_of(ri) < st, "a carried edge's copy-0 source precedes it");
            self.s.entry.push((ri, rt));
        }
    }

    fn cut(&mut self, device: u32) {
        self.s.open[device as usize] = NONE;
    }
}

/// Prices every slot of the plan's canonical enumeration into
/// `slot_values`/`slot_cat`, handing each slot's operator and kernel
/// count (0 for communication) to `on_slot` in slot order. Returns `true`
/// if any compute signature could not be resolved.
#[allow(clippy::too_many_arguments)]
fn resolve_slots<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    slot_values: &mut Vec<TimeNs>,
    slot_cat: &mut Vec<u8>,
    mut on_slot: impl FnMut(&SlotOp, u32),
) -> bool {
    slot_values.clear();
    slot_cat.clear();
    let mut missing = false;
    visit_plan_slots(model, plan, opts, |op| match op {
        SlotOp::Compute(sig) => {
            let total = match profiles.op_latency(&sig) {
                Some((total, kernels)) => {
                    on_slot(&op, kernels);
                    total
                }
                None => {
                    missing = true;
                    on_slot(&op, 0);
                    TimeNs::ZERO
                }
            };
            slot_values.push(total);
            slot_cat.push(CAT_COMPUTE);
        }
        SlotOp::Comm(c) => {
            on_slot(&op, 0);
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

/// The lowering half of the sweep's fused lower + simulate hot path:
/// prices the slot table and the period counts of `(model, plan)`, then
/// either patches the cached graph or builds it from scratch. When
/// `scratch` holds the graph of a plan with the same [`PlanShapeKey`],
/// the builder and all structure derivation are skipped and only the
/// runs' durations are refilled. Either way, [`replay_lowered`] then
/// produces a report bit-identical to
/// `simulate(&TaskGraph::lower_fused(..)?, SimMode::Predicted)`. Split
/// from the replay so the stage profiler can attribute lower vs.
/// simulate time.
///
/// # Errors
///
/// Returns [`MissingProfile`] if `profiles` cannot resolve a signature
/// the builder emits.
///
/// # Panics
///
/// Same conditions as [`vtrain_graph::build_op_graph`], or if the builder
/// violates its [`GraphSink::cut`] aggregation contract or its periodic
/// edge contract (a bug, caught by the equivalence property tests).
pub(crate) fn lower_plan<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    scratch: &mut CompactScratch,
) -> Result<LowerOutcome, MissingProfile> {
    lower_plan_with(model, plan, opts, profiles, comm, scratch, |_, _| {})
}

/// [`lower_plan`] handing every slot's operator and kernel count to
/// `on_slot` while the slot table is priced.
fn lower_plan_with<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    scratch: &mut CompactScratch,
    on_slot: impl FnMut(&SlotOp, u32),
) -> Result<LowerOutcome, MissingProfile> {
    if resolve_slots(
        model,
        plan,
        opts,
        profiles,
        comm,
        &mut scratch.slot_values,
        &mut scratch.slot_cat,
        on_slot,
    ) {
        return Err(MissingProfile);
    }
    scratch.sec_periods.clear();
    let (p, n) = (plan.pipeline(), plan.num_micro_batches());
    for stage in 0..p {
        let periods = plan.schedule().section_periods(stage, p, n);
        scratch.sec_periods.extend(periods.map(|n| n as u64));
    }

    let key = plan_shape_key(model, plan, opts);
    if scratch.base_key == Some(key) {
        debug_assert!(
            scratch
                .tally
                .iter()
                .all(|&(_, _, slot, _)| (slot as usize) < scratch.slot_values.len()),
            "slot table shape"
        );
        refill_runs(scratch);
        return Ok(LowerOutcome::Patched);
    }
    build_graph(model, plan, opts, scratch);
    build_csr(scratch);
    build_order(scratch);
    build_tallies(scratch);
    // Fresh builds price their duration column through the same
    // composition refill the patch path uses: one value computation,
    // shared by both paths.
    refill_runs(scratch);
    scratch.base_key = Some(key);
    Ok(LowerOutcome::Fresh)
}

/// Clears the structure buffers and streams the builder's periodic graph
/// into them as sections of aggregated runs, compositions and inter-run
/// edges.
fn build_graph(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    s: &mut CompactScratch,
) {
    s.base_key = None;
    s.nodes = 0;
    s.sec_runs.clear();
    s.sec_nodes.clear();
    s.sec_nodes.resize(s.sec_periods.len(), 0);
    s.comp_run.clear();
    s.comp_slot.clear();
    s.comp_count.clear();
    s.run_device.clear();
    s.run_head.clear();
    s.run_tail.clear();
    s.edges.clear();
    s.carried.clear();
    s.entry.clear();
    s.open.clear();
    s.open.resize(plan.pipeline(), NONE);
    build_op_graph_into(model, plan, opts, &mut CompactSink { s });
    let n_sections = s.sec_periods.len() / plan.pipeline();
    assert!(s.sec_runs.len() <= n_sections, "builder and schedule agree on sections");
    // Sections no device runs (and the closing bound) own no runs.
    s.sec_runs.resize(n_sections + 1, s.run_device.len() as u32);
    s.carried.sort_unstable_by_key(|&(_, to)| to);
    s.entry.sort_unstable_by_key(|&(_, to)| to);
}

/// Builds the CSR of the intra-copy edges (per-source insertion order
/// preserved) and the runs' in-degrees under them.
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

/// Stores a Kahn topological order of each section's runs in `order`.
/// The ready set is a stack, so the order follows chains depth-first and
/// the replay's walk touches neighbouring runs back to back.
///
/// # Panics
///
/// If a section's run graph contains a cycle (a builder bug: the
/// aggregation of a valid plan is always acyclic).
fn build_order(s: &mut CompactScratch) {
    let n = s.run_device.len();
    let CompactScratch { sec_runs, in_degree, stack, offsets, targets, order, .. } = s;
    order.clear();
    for bounds in sec_runs.windows(2) {
        stack.clear();
        stack.extend((bounds[0]..bounds[1]).filter(|&i| in_degree[i as usize] == 0));
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
        let expect = bounds[1] as usize;
        assert_eq!(
            ordered, expect,
            "compact graph contains a cycle: {ordered} of {n} runs ordered"
        );
    }
}

/// Sums the compositions into `(section, device, slot, multiplicity)`
/// tallies of one copy — the structure half of the report's busy sums,
/// which the replay scales by the slot values and the period counts.
fn build_tallies(s: &mut CompactScratch) {
    s.tally.clear();
    let mut group = (u32::MAX, u32::MAX);
    let mut group_start = 0;
    let mut sec = 0;
    for ((&r, &slot), &count) in s.comp_run.iter().zip(&s.comp_slot).zip(&s.comp_count) {
        // `comp_run` is non-decreasing and runs are grouped by section,
        // then by device.
        while r >= s.sec_runs[sec + 1] {
            sec += 1;
        }
        let key = (sec as u32, s.run_device[r as usize]);
        if key != group {
            (group, group_start) = (key, s.tally.len());
        }
        match s.tally[group_start..].iter_mut().find(|t| t.2 == slot) {
            Some(t) => t.3 += u64::from(count),
            None => s.tally.push((key.0, key.1, slot, u64::from(count))),
        }
    }
}

/// (Re)computes the runs' durations from the (re-priced) slot table and
/// the run compositions, leaving all structure untouched — the value
/// half of a fresh lowering and the entirety of a delta patch. Each run's
/// duration is the exact integer sum `Σ slot_value · multiplicity`, equal
/// to per-node accumulation (`u64` addition is associative).
fn refill_runs(s: &mut CompactScratch) {
    s.run_duration.clear();
    s.run_duration.resize(s.run_device.len(), TimeNs::ZERO);
    for ((&r, &slot), &count) in s.comp_run.iter().zip(&s.comp_slot).zip(&s.comp_count) {
        s.run_duration[r as usize] += scale(s.slot_values[slot as usize], u64::from(count));
    }
}

/// `value · multiplicity`, exact in integer nanoseconds.
fn scale(value: TimeNs, multiplicity: u64) -> TimeNs {
    TimeNs::from_nanos(value.as_nanos() * multiplicity)
}

/// The edges among `edges` (sorted by target) whose target lies in runs
/// `lo..hi`.
fn edges_into(edges: &[(u32, u32)], lo: u32, hi: u32) -> &[(u32, u32)] {
    let start = edges.partition_point(|&(_, to)| to < lo);
    let end = edges.partition_point(|&(_, to)| to < hi);
    &edges[start..end]
}

/// The value-only replay over the lowered periodic graph. Compact graphs
/// are stream-chained by construction (the builder chains consecutive
/// runs on every slot), so the dataflow traversal reproduces the FIFO
/// replay — the same argument as [`simulate`](crate::sim::simulate)'s
/// dataflow pass, proven bit-identical by the equivalence tests. Each
/// section is walked copy by copy over its stored order until a nested
/// section's common shift shows (see the module docs); the busy
/// breakdown, the per-device busy time and the task count come from the
/// structure tallies ([`build_tallies`]) scaled by the current slot
/// values and period counts, so a patched graph replays without touching
/// any structure.
pub(crate) fn replay_lowered(s: &mut CompactScratch, devices: usize, report: &mut SimReport) {
    let n_runs = s.run_duration.len();
    s.ready_at.clear();
    s.ready_at.resize(n_runs, TimeNs::ZERO);
    s.finish.clear();
    s.finish.resize(n_runs, TimeNs::ZERO);
    let n_sections = s.sec_periods.len() / devices;
    let mut iteration_time = TimeNs::ZERO;
    let (mut walked, mut total) = (0, 0);
    for sec in 0..n_sections {
        let (time, copies, sec_walked) = walk_section(s, sec, n_sections);
        iteration_time = iteration_time.max(time);
        total += copies;
        walked += sec_walked;
    }
    s.periods = (walked, total);
    fold_tallies(s, devices, report, |_| true);
    report.iteration_time = iteration_time;
}

/// Writes the report's busy breakdown, per-device busy time and task
/// count from the structure tallies: `Σ slot_value · multiplicity ·
/// periods` over the slots `fixed` admits, and `Σ nodes per copy ·
/// periods`, all in `u64`. The closed form admits every slot; the flow
/// replay adds the slots it drains as flows itself.
#[inline(always)]
fn fold_tallies(
    s: &CompactScratch,
    devices: usize,
    report: &mut SimReport,
    fixed: impl Fn(usize) -> bool,
) {
    let n_sections = s.sec_periods.len() / devices;
    let mut busy = BusyBreakdown::default();
    report.device_busy.clear();
    report.device_busy.resize(devices, TimeNs::ZERO);
    for &(sec, device, slot, mult) in &s.tally {
        if !fixed(slot as usize) {
            continue;
        }
        let periods = s.sec_periods[device as usize * n_sections + sec as usize];
        let total = scale(s.slot_values[slot as usize], mult * periods);
        let device_busy = &mut report.device_busy[device as usize];
        match s.slot_cat[slot as usize] {
            CAT_COMPUTE => {
                busy.compute += total;
                *device_busy += total;
            }
            CAT_TP => {
                busy.tp_comm += total;
                *device_busy += total;
            }
            CAT_DP => busy.dp_comm += total,
            _ => busy.pp_comm += total,
        }
    }
    let tasks: u64 = s.sec_nodes.iter().zip(&s.sec_periods).map(|(&n, &k)| n * k).sum();
    report.busy = busy;
    report.tasks_executed = tasks as usize;
}

/// Walks the copies of section `sec` — each device's runs take part in
/// its first `periods` copies — leaving each run's last finish time in
/// `finish`. In a [`nested`] section the walk stops at the first copy
/// whose active runs repeat an earlier copy's finish times shifted by one
/// `D`, and extrapolates every run still active to its last copy (see the
/// module docs). Returns the latest finish time over all copies, the
/// number of copies and the number walked.
fn walk_section(s: &mut CompactScratch, sec: usize, n_sections: usize) -> (TimeNs, u64, u64) {
    let CompactScratch {
        sec_runs,
        carried,
        entry,
        offsets,
        targets,
        order,
        run_device,
        run_duration,
        sec_periods,
        ready_at,
        finish,
        hist,
        ..
    } = s;
    let devices = sec_periods.len() / n_sections;
    let copies = (0..devices).map(|d| sec_periods[d * n_sections + sec]).max().unwrap_or(0);
    // How many copies of the section run `i` takes part in.
    let periods = |i: usize| sec_periods[run_device[i] as usize * n_sections + sec];
    let (lo, hi) = (sec_runs[sec], sec_runs[sec + 1]);
    let (lo_us, hi_us) = (lo as usize, hi as usize);
    let len = hi_us - lo_us;
    let carried = edges_into(carried, lo, hi);
    let entry = edges_into(entry, lo, hi);
    let order = &order[lo_us..hi_us];
    let ring = (MAX_CYCLICITY + 1) as u64;
    let detect = copies > 1 && nested(lo_us..hi_us, offsets, targets, carried, periods);
    if detect {
        hist.clear();
        hist.resize(ring as usize * len, TimeNs::ZERO);
    }
    let mut latest = TimeNs::ZERO;
    for k in 0..copies {
        ready_at[lo_us..hi_us].fill(TimeNs::ZERO);
        for &(from, to) in if k == 0 { entry } else { carried } {
            let ready = &mut ready_at[to as usize];
            *ready = (*ready).max(finish[from as usize]);
        }
        for &u in order {
            let i = u as usize;
            if periods(i) <= k {
                continue;
            }
            let done = ready_at[i] + run_duration[i];
            finish[i] = done;
            latest = latest.max(done);
            for &c in &targets[offsets[i] as usize..offsets[i + 1] as usize] {
                let ready = &mut ready_at[c as usize];
                *ready = (*ready).max(done);
            }
        }
        if !detect {
            continue;
        }
        let row = (k % ring) as usize;
        hist[row * len..(row + 1) * len].copy_from_slice(&finish[lo_us..hi_us]);
        let Some((c, shift)) = common_shift(hist, len, k, |r| periods(lo_us + r) > k) else {
            continue;
        };
        // x[k + j] = x[k + j − c] + D for every j ≥ 1 on the runs active
        // at copy k + j: a run's last copy is its walked copy of the same
        // residue mod c, shifted once per block ahead of it.
        for i in lo_us..hi_us {
            let ahead = periods(i).saturating_sub(k + 1);
            if ahead == 0 {
                continue;
            }
            let blocks = ahead.div_ceil(c);
            let then = ((k + ahead - blocks * c) % ring) as usize;
            let jump = TimeNs::from_nanos(shift.as_nanos() * blocks);
            finish[i] = hist[then * len + i - lo_us] + jump;
            latest = latest.max(finish[i]);
        }
        return (latest, copies, k + 1);
    }
    (latest, copies, copies)
}

/// Whether the section's runs `runs` are nested under their period
/// counts `periods`: no run reads a run that stopped earlier than it.
/// That is `P(u) ≥ P(v)` for every intra-copy edge `u → v` (from the
/// CSR) and `P(u) + 1 ≥ P(v)` for every carried edge, so every input of
/// a run's copy `k ≥ 1` is its source's copy `k` or `k − 1`.
fn nested(
    runs: std::ops::Range<usize>,
    offsets: &[u32],
    targets: &[u32],
    carried: &[(u32, u32)],
    periods: impl Fn(usize) -> u64,
) -> bool {
    let intra = |u: usize| &targets[offsets[u] as usize..offsets[u + 1] as usize];
    runs.into_iter().all(|u| intra(u).iter().all(|&v| periods(u) >= periods(v as usize)))
        && carried.iter().all(|&(u, v)| periods(u as usize) + 1 >= periods(v as usize))
}

/// The smallest `c ≤ min(MAX_CYCLICITY, k)` such that state `x[k]` equals
/// `x[k − c]` shifted by one `D ≥ 0` on every run `active` at copy `k`
/// (by offset into the section), with that `D`. `hist` is the ring of
/// section-sized state rows.
fn common_shift(
    hist: &[TimeNs],
    len: usize,
    k: u64,
    active: impl Fn(usize) -> bool,
) -> Option<(u64, TimeNs)> {
    let ring = (MAX_CYCLICITY + 1) as u64;
    let row = |j: u64| {
        let r = (j % ring) as usize;
        &hist[r * len..(r + 1) * len]
    };
    let now = row(k);
    (1..=k.min(MAX_CYCLICITY as u64)).find_map(|c| {
        let then = row(k - c);
        let mut shift = None;
        for r in (0..len).filter(|&r| active(r)) {
            let d = now[r].as_nanos().checked_sub(then[r].as_nanos())?;
            if *shift.get_or_insert(d) != d {
                return None;
            }
        }
        Some((c, TimeNs::from_nanos(shift.unwrap_or(0))))
    })
}

/// The fair-sharing half of the compact path: each latency slot's flow
/// program and task kind, priced next to the slot table, and the
/// periodic graph unrolled into one task per (section copy, run) for the
/// flow replay. Filled only under the fair-sharing network, and reused
/// point to point like [`CompactScratch`].
#[derive(Default)]
pub(crate) struct Unrolled {
    /// Flow program of each latency slot (`None`: a fixed duration).
    slot_program: Vec<Option<FlowProgram>>,
    /// Task kind of each latency slot: a compute slot's profiled kernel
    /// count, a communication slot's collective.
    slot_kind: Vec<TaskKind>,
    /// Each run's stream (0 = compute, 1 = comm), task kind and
    /// program-table slot.
    run_stream: Vec<u8>,
    run_kind: Vec<TaskKind>,
    run_slot: Vec<u32>,
    /// The unrolled graph: instances numbered section-major, then
    /// copy-major, each copy in its section's topological order.
    graph: TaskGraph,
    /// Program-table slot of each instance.
    inst_slot: Vec<u32>,
    /// Instance edges, gathered before the CSR.
    edges: Vec<(u32, u32)>,
    /// Each run's latest instance before the copy being unrolled, and
    /// its instance in that copy (`NONE`: none).
    last: Vec<u32>,
    cur: Vec<u32>,
}

impl Unrolled {
    /// Tasks of the latest unrolled graph.
    #[cfg(test)]
    pub(crate) fn num_tasks(&self) -> usize {
        self.graph.len()
    }

    /// The latest unrolled graph and its tasks' flow programs: the
    /// input [`replay_unrolled`] hands the flow replay.
    #[cfg(test)]
    pub(crate) fn replay_input(&self) -> (&TaskGraph, Programs<'_>) {
        (&self.graph, Programs::Indexed { table: &self.slot_program, index: &self.inst_slot })
    }

    /// Records slot `op`'s flow program under `comm` and its task kind
    /// (`kernels`: its profiled kernel count, 0 for communication).
    fn price_slot(&mut self, op: &SlotOp, kernels: u32, comm: &CommModel) {
        match op {
            SlotOp::Compute(_) => {
                self.slot_program.push(None);
                self.slot_kind.push(TaskKind::Compute { kernels });
            }
            SlotOp::Comm(c) => {
                let program = comm.flow_program(c);
                // `validate` keeps TP inside the NVLink domain, so the TP
                // All-Reduces folded into compute runs never drain as flows.
                assert!(
                    program.is_none() || c.kind != CommKind::TpAllReduce,
                    "a TP All-Reduce carries a flow program"
                );
                self.slot_program.push(program);
                self.slot_kind.push(comm_kind(c));
            }
        }
    }

    /// Derives each run's stream, task kind and program-table slot from
    /// its composition. Communication-stream nodes (pipeline sends, DP
    /// All-Reduces) never extend a run, so such a run is one node. A
    /// one-node run takes its slot's kind; a longer compute-stream run
    /// sums its compute members' kernel counts (its TP All-Reduces add
    /// none). The program-table slot is the run's first slot, which
    /// carries the program of a one-node communication run and none
    /// otherwise.
    ///
    /// # Panics
    ///
    /// If a communication-stream run is not exactly one node, or a
    /// compute-stream run holds a slot with a flow program.
    fn classify_runs(&mut self, s: &CompactScratch) {
        self.run_stream.clear();
        self.run_kind.clear();
        self.run_slot.clear();
        let mut e = 0;
        for r in 0..s.run_device.len() as u32 {
            let start = e;
            while e < s.comp_run.len() && s.comp_run[e] == r {
                e += 1;
            }
            let head = s.comp_slot[start] as usize;
            let one_node = e - start == 1 && s.comp_count[start] == 1;
            let comm_stream = matches!(s.slot_cat[head], CAT_DP | CAT_PP);
            assert!(one_node || !comm_stream, "a communication-stream run is exactly one node");
            let mut kernels = 0;
            for i in start..e {
                let slot = s.comp_slot[i] as usize;
                assert!(
                    comm_stream || self.slot_program[slot].is_none(),
                    "only communication-stream runs carry flow programs"
                );
                if let TaskKind::Compute { kernels: k } = self.slot_kind[slot] {
                    kernels += k * s.comp_count[i];
                }
            }
            self.run_stream.push(u8::from(comm_stream));
            self.run_kind.push(if one_node {
                self.slot_kind[head]
            } else {
                TaskKind::Compute { kernels }
            });
            self.run_slot.push(head as u32);
        }
    }

    /// Unrolls the lowered periodic graph into [`Unrolled::graph`],
    /// mirroring [`walk_section`] copy by copy: a device's runs take part
    /// only in its first `periods` copies of a section; copy 0 takes the
    /// `entry` edges from each source run's last executed instance, copy
    /// `k ≥ 1` the `carried` edges from the source's last instance before
    /// `k`, and edges out of a run with no such instance, or into a
    /// skipped run, are dropped. Instances are numbered section-major,
    /// then copy-major, so the graph is stream-chained. Returns the number
    /// of section copies unrolled.
    fn unroll(&mut self, s: &CompactScratch, devices: usize) -> u64 {
        self.classify_runs(s);
        let n_runs = s.run_device.len();
        let n_sections = s.sec_periods.len() / devices;
        let Unrolled { run_stream, run_kind, run_slot, graph, inst_slot, edges, last, cur, .. } =
            self;
        graph.clear(devices as u32);
        inst_slot.clear();
        edges.clear();
        last.clear();
        last.resize(n_runs, NONE);
        cur.clear();
        cur.resize(n_runs, NONE);
        let mut total = 0;
        for sec in 0..n_sections {
            let periods_of = |device: usize| s.sec_periods[device * n_sections + sec];
            let copies = (0..devices).map(periods_of).max().unwrap_or(0);
            let (lo, hi) = (s.sec_runs[sec], s.sec_runs[sec + 1]);
            let carried = edges_into(&s.carried, lo, hi);
            let entry = edges_into(&s.entry, lo, hi);
            let order = &s.order[lo as usize..hi as usize];
            for k in 0..copies {
                for &r in order {
                    let i = r as usize;
                    let device = s.run_device[i];
                    cur[i] = if periods_of(device as usize) > k {
                        inst_slot.push(run_slot[i]);
                        graph.push_task(device, run_stream[i], s.run_duration[i], run_kind[i]);
                        (graph.len() - 1) as u32
                    } else {
                        NONE
                    };
                }
                for &(from, to) in if k == 0 { entry } else { carried } {
                    let (f, t) = (last[from as usize], cur[to as usize]);
                    if f != NONE && t != NONE {
                        edges.push((f, t));
                    }
                }
                for &r in order {
                    let i = r as usize;
                    if cur[i] == NONE {
                        continue;
                    }
                    for &c in &s.targets[s.offsets[i] as usize..s.offsets[i + 1] as usize] {
                        if cur[c as usize] != NONE {
                            edges.push((cur[i], cur[c as usize]));
                        }
                    }
                    last[i] = cur[i];
                }
            }
            total += copies;
        }
        graph.set_edges(edges);
        total
    }
}

/// [`lower_plan`] for the fair-sharing network: also prices each slot's
/// flow program and task kind next to the slot table, then unrolls the
/// periodic graph into `unrolled` for [`replay_unrolled`]. Shape-equal
/// plans patch the compact graph exactly as under the closed form; the
/// unrolled graph is rebuilt from it every time.
///
/// # Errors
///
/// Same conditions as [`lower_plan`].
///
/// # Panics
///
/// Same conditions as [`lower_plan`], or if a flow program lands on a
/// run that is not one communication-stream node.
pub(crate) fn lower_unrolled<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    scratch: &mut CompactScratch,
    unrolled: &mut Unrolled,
) -> Result<LowerOutcome, MissingProfile> {
    unrolled.slot_program.clear();
    unrolled.slot_kind.clear();
    let outcome = lower_plan_with(model, plan, opts, profiles, comm, scratch, |op, kernels| {
        unrolled.price_slot(op, kernels, comm)
    })?;
    let copies = unrolled.unroll(scratch, plan.pipeline());
    scratch.periods = (copies, copies);
    Ok(outcome)
}

/// The fair-sharing replay of the unrolled graph. [`simulate_flows`]
/// over the run instances gives the iteration time and each flow's
/// contended duration; the busy breakdown, per-device busy time and task
/// count of the fixed-duration slots come from the structure tallies, as
/// in [`replay_lowered`] (compute runs fold TP All-Reduces in, so the
/// replay's own per-instance booking cannot split them). The report is
/// bit-identical to the flow replay of the full task graph.
pub(crate) fn replay_unrolled(
    s: &CompactScratch,
    u: &Unrolled,
    topology: &Topology,
    flows: &mut FlowScratch,
    report: &mut SimReport,
) {
    let mut drained = BusyBreakdown::default();
    let mut book = |task: u32, start: TimeNs, finish: TimeNs| {
        let slot = u.inst_slot[task as usize] as usize;
        if u.slot_program[slot].is_some() {
            // Flows are DP or PP transfers: TP slots carry none.
            match s.slot_cat[slot] {
                CAT_DP => drained.dp_comm += finish - start,
                _ => drained.pp_comm += finish - start,
            }
        }
    };
    let programs = Programs::Indexed { table: &u.slot_program, index: &u.inst_slot };
    simulate_flows(&u.graph, programs, topology, Some(&mut book), None, flows, report);
    let devices = u.graph.num_devices() as usize;
    fold_tallies(s, devices, report, |slot| u.slot_program[slot].is_none());
    report.busy.dp_comm += drained.dp_comm;
    report.busy.pp_comm += drained.pp_comm;
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

    /// The fused lower + replay: lowers `plan` on `scratch` (patching
    /// when the scratch holds a graph of the same shape key) and replays
    /// it into `report`.
    fn simulate_plan<P: ProfileSource>(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        profiles: &mut P,
        comm: &CommModel,
        scratch: &mut CompactScratch,
        report: &mut SimReport,
    ) -> Result<LowerOutcome, MissingProfile> {
        let outcome = lower_plan(model, plan, opts, profiles, comm, scratch)?;
        replay_lowered(scratch, plan.pipeline(), report);
        Ok(outcome)
    }

    /// The flat or the two-tier communication model of a 512-GPU
    /// cluster.
    fn comm_model(two_tier: bool) -> CommModel {
        let cluster = ClusterSpec::aws_p4d(512);
        if two_tier {
            CommModel::with_topology_tiers(&cluster, cluster.topology(1.0))
        } else {
            CommModel::new(&cluster, 1.0)
        }
    }

    fn compare_point(
        model: &vtrain_model::ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        scratch: &mut CompactScratch,
    ) {
        compare_point_under(model, plan, opts, &comm_model(false), scratch);
    }

    /// Asserts the compact replay of `plan` under `comm` equals the full
    /// lowering's Predicted replay in every report field.
    fn compare_point_under(
        model: &vtrain_model::ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        comm: &CommModel,
        scratch: &mut CompactScratch,
    ) {
        let cache = vtrain_profile::ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let sigs = vtrain_graph::plan_signatures(model, plan, opts);
        let profiles = cache.resolve(&profiler, &sigs);

        let full = TaskGraph::lower_fused(model, plan, opts, &profiles, comm).unwrap();
        let expect = simulate(&full, SimMode::Predicted);

        let mut report = SimReport::default();
        let mut source = SetSource(&profiles);
        simulate_plan(model, plan, opts, &mut source, comm, scratch, &mut report).unwrap();

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
        let err = simulate_plan(
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

    /// Runs `plan` on `walk_scratch` (patched when the shape matches) and
    /// through a from-scratch lowering on a throwaway scratch, asserting
    /// bit-identical reports. Returns the walk path's outcome.
    fn compare_delta_step(
        model: &vtrain_model::ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        walk_scratch: &mut CompactScratch,
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
        let outcome = simulate_plan(
            model,
            plan,
            opts,
            &mut source,
            &comm,
            &mut fresh_scratch,
            &mut fresh_report,
        )
        .unwrap();
        assert_eq!(outcome, LowerOutcome::Fresh, "a fresh scratch always builds");

        let mut walk_report = SimReport::default();
        let mut source = SetSource(&profiles);
        let outcome =
            simulate_plan(model, plan, opts, &mut source, &comm, walk_scratch, &mut walk_report)
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
        let step = |t, m, b, scratch: &mut CompactScratch| {
            let plan = ParallelConfig::builder()
                .tensor(t)
                .data(2)
                .pipeline(3)
                .micro_batch(m)
                .global_batch(b)
                .build()
                .unwrap();
            compare_delta_step(&model, &plan, &GraphOptions::default(), scratch)
        };
        assert_eq!(step(2, 1, 8, &mut scratch), LowerOutcome::Fresh);
        // t changes within t > 1 keep the shape (the TP slot exists
        // either way); only slot values move.
        assert_eq!(step(4, 1, 8, &mut scratch), LowerOutcome::Patched);
        // Same n_micro (4), larger micro-batch: still a patch.
        assert_eq!(step(4, 2, 16, &mut scratch), LowerOutcome::Patched);
        // n_micro changes (8): the stage programs differ, so re-lower.
        assert_eq!(step(4, 1, 16, &mut scratch), LowerOutcome::Fresh);
        assert_eq!(step(2, 1, 16, &mut scratch), LowerOutcome::Patched);
        // Dropping to t = 1 removes the TP slot: re-lower again.
        assert_eq!(step(1, 1, 16, &mut scratch), LowerOutcome::Fresh);
    }

    /// Runs `plan` on `walk_scratch` (patched when the shape matches) and
    /// through the full lowering + Predicted replay under the same
    /// communication model, asserting every report field bit for bit.
    /// Returns the walk path's outcome.
    fn compare_walk_step_to_full(
        model: &vtrain_model::ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        comm: &CommModel,
        walk_scratch: &mut CompactScratch,
    ) -> LowerOutcome {
        let cache = vtrain_profile::ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let sigs = vtrain_graph::plan_signatures(model, plan, opts);
        let profiles = cache.resolve(&profiler, &sigs);
        let full = TaskGraph::lower_fused(model, plan, opts, &profiles, comm).unwrap();
        let expect = simulate(&full, SimMode::Predicted);

        let mut report = SimReport::default();
        let mut source = SetSource(&profiles);
        let outcome =
            simulate_plan(model, plan, opts, &mut source, comm, walk_scratch, &mut report).unwrap();
        assert_eq!(report.iteration_time, expect.iteration_time, "{plan}");
        assert_eq!(report.busy, expect.busy, "{plan}");
        assert_eq!(report.device_busy, expect.device_busy, "{plan}");
        assert_eq!(report.tasks_executed, expect.tasks_executed, "{plan}");
        outcome
    }

    /// `(t, d, p, m, b)` under `sched`, as a plan.
    fn plan_of(
        (t, d, p, m, b): (usize, usize, usize, usize, usize),
        sched: PipelineSchedule,
    ) -> ParallelConfig {
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

    #[test]
    fn uniform_shift_skips_the_steady_state_of_long_1f1b_pipelines() {
        // megatron-18.4B on (8, 8, 8), m = 2: 4,096 micro-batches, so the
        // steady section runs 4,096 − 8 copies, between the warm-up (up to
        // 7 copies), the remaining pairs (7), the last stage's last
        // forward (1), the drain (6) and the final backward (1).
        let model = presets::megatron("18.4B");
        let plan = plan_of((8, 8, 8, 2, 65_536), PipelineSchedule::OneFOneB);
        let mut scratch = CompactScratch::default();
        compare_point(&model, &plan, &GraphOptions::default(), &mut scratch);
        let (walked, total) = scratch.periods();
        assert_eq!(total, 7 + (4_096 - 8) + 7 + 1 + 6 + 1);
        assert!(walked < total / 100, "shortcut did not engage: walked {walked} of {total}");
    }

    #[test]
    fn nested_sections_jump_on_deep_mtnlg_pipelines() {
        // MT-NLG 530B at p = 105, one layer per stage: the warm-up,
        // remaining pairs and drain run up to 104, 104 and 103 copies,
        // one fewer or one more from stage to stage. Below p − 1
        // micro-batches (96) the warm-up saturates on the first stages.
        let model = presets::mt_nlg_530b();
        let comm = CommModel::new(&ClusterSpec::dgx_a100_80gb(8 * 105), 1.0);
        let mut scratch = CompactScratch::default();
        for (n, total) in [(96, 96 + 95 + 1 + 95 + 1), (480, 104 + 375 + 104 + 1 + 103 + 1)] {
            let plan = plan_of((8, 1, 105, 1, n), PipelineSchedule::OneFOneB);
            compare_point_under(&model, &plan, &GraphOptions::default(), &comm, &mut scratch);
            let (walked, copies) = scratch.periods();
            assert_eq!(copies, total, "n = {n}");
            // Two copies or fewer in each of the six sections.
            assert!(walked < 12, "n = {n}: walked {walked} of {copies} copies");
        }
    }

    #[test]
    fn real_sections_are_nested() {
        // Every section of both schedules, at every depth up to one layer
        // per stage and micro-batch counts around p − 1 and p + 2.
        let model = presets::megatron("1.7B");
        let comm = comm_model(false);
        let cache = vtrain_profile::ProfileCache::new();
        let profiler = Profiler::new(GpuSpec::a100_40gb());
        let mut scratch = CompactScratch::default();
        for p in 1usize..=24 {
            for n in [1, p.saturating_sub(2).max(1), p, p + 2, 3 * p + 1] {
                for sched in [PipelineSchedule::OneFOneB, PipelineSchedule::GPipe] {
                    let plan = plan_of((1, 1, p, 1, n), sched);
                    let opts = GraphOptions::default();
                    let sigs = vtrain_graph::plan_signatures(&model, &plan, &opts);
                    let profiles = cache.resolve(&profiler, &sigs);
                    let mut source = SetSource(&profiles);
                    lower_plan(&model, &plan, &opts, &mut source, &comm, &mut scratch).unwrap();
                    let s = &scratch;
                    let n_sections = s.sec_periods.len() / p;
                    for sec in 0..n_sections {
                        let periods =
                            |i: usize| s.sec_periods[s.run_device[i] as usize * n_sections + sec];
                        let (lo, hi) = (s.sec_runs[sec], s.sec_runs[sec + 1]);
                        let carried = edges_into(&s.carried, lo, hi);
                        let runs = lo as usize..hi as usize;
                        assert!(
                            nested(runs, &s.offsets, &s.targets, carried, periods),
                            "{plan}: section {sec} is not nested"
                        );
                    }
                }
            }
        }
    }

    /// Walks a hand-built one-section graph of two runs, run `i` on
    /// device `i` with `periods[i]` copies of `durations[i]` ns, joined by
    /// `carried` edges only. Returns whether it is nested, the walk's
    /// `(latest, copies, walked)` and each run's last finish, in ns.
    fn walk_two_runs(
        carried: &[(u32, u32)],
        periods: [u64; 2],
        durations: [u64; 2],
    ) -> (bool, (u64, u64, u64), Vec<u64>) {
        let mut s = CompactScratch::default();
        s.run_device.extend([0, 1]);
        s.sec_runs.extend([0, 2]);
        s.carried.extend_from_slice(carried);
        s.carried.sort_unstable_by_key(|&(_, to)| to);
        s.run_duration.extend(durations.map(TimeNs::from_nanos));
        s.sec_periods.extend(periods);
        build_csr(&mut s);
        build_order(&mut s);
        let is_nested = nested(0..2, &s.offsets, &s.targets, &s.carried, |i| periods[i]);
        s.ready_at.resize(2, TimeNs::ZERO);
        s.finish.resize(2, TimeNs::ZERO);
        let (latest, copies, walked) = walk_section(&mut s, 0, 1);
        let finish = s.finish.iter().map(|f| f.as_nanos()).collect();
        (is_nested, (latest.as_nanos(), copies, walked), finish)
    }

    #[test]
    fn a_nested_section_jumps_by_a_two_copy_cycle() {
        // Run 0 (6 copies, 3 ns) and run 1 (5 copies, 1 ns) feed each
        // other through carried edges, so finishes alternate: run 0 at 3,
        // 4, 7, 8, 11, 12 and run 1 at 1, 4, 5, 8, 9. Copy 2 is copy 0
        // shifted by 4 on both runs (c = 2), and each run's last copy is
        // its walked copy of the same parity.
        let walk = walk_two_runs(&[(1, 0), (0, 1)], [6, 5], [3, 1]);
        assert_eq!(walk, (true, (12, 6, 3), vec![12, 9]));
    }

    #[test]
    fn a_section_that_is_not_nested_is_walked_copy_by_copy() {
        // No real plan fails the predicate, so this section is built by
        // hand: run 0 (2 copies, 100 ns) feeds run 1 (6 copies, 1 ns)
        // through a carried edge, and each run chains to its own next
        // copy. From copy 2 on, run 1 reads run 0's stale copy-1 finish
        // (200): 1, 101, 201, 202, 203, 204. Copy 1 is copy 0 shifted by
        // 100 on both runs, so a jump there would claim 101 + 4 · 100.
        let walk = walk_two_runs(&[(0, 0), (0, 1), (1, 1)], [2, 6], [100, 1]);
        assert_eq!(walk, (false, (204, 6, 6), vec![200, 204]));
    }

    #[test]
    fn gpipe_walks_every_period_exactly_when_no_shift_shows() {
        // Uneven stages (24 layers over 5) make GPipe's forward and
        // backward trains advance at different rates per stage: no
        // uniform shift ever appears, and every copy is walked.
        let model = presets::megatron("1.7B");
        let plan = plan_of((1, 1, 5, 1, 300), PipelineSchedule::GPipe);
        let mut scratch = CompactScratch::default();
        compare_point(&model, &plan, &GraphOptions::default(), &mut scratch);
        assert_eq!(scratch.periods(), (300 + 299 + 1, 300 + 299 + 1));
    }

    #[test]
    fn scratch_size_is_flat_in_the_micro_batch_count() {
        // 1k and 100k micro-batches share one periodic structure: equal
        // reserved bytes on fresh scratches, and a delta patch across the
        // two that matches a fresh lowering.
        let model = presets::megatron("1.7B");
        let opts = GraphOptions::default();
        let small = plan_of((2, 1, 4, 1, 1_000), PipelineSchedule::OneFOneB);
        let large = plan_of((2, 1, 4, 1, 100_000), PipelineSchedule::OneFOneB);
        let capacity = |plan: &ParallelConfig| {
            let mut scratch = CompactScratch::default();
            compare_delta_step(&model, plan, &opts, &mut scratch);
            scratch.capacity_bytes()
        };
        assert_eq!(capacity(&small), capacity(&large));
        let mut walk = CompactScratch::default();
        assert_eq!(compare_delta_step(&model, &small, &opts, &mut walk), LowerOutcome::Fresh);
        assert_eq!(compare_delta_step(&model, &large, &opts, &mut walk), LowerOutcome::Patched);
        assert_eq!(walk.periods().1, 3 + (100_000 - 4) + 3 + 1 + 2 + 1);
    }

    #[test]
    #[should_panic(expected = "compact graph contains a cycle")]
    fn cyclic_compact_graph_panics() {
        // Three runs where 1 -> 2 -> 1 loops behind the source run 0.
        let mut scratch = CompactScratch::default();
        scratch.run_device.extend([0, 0, 0]);
        scratch.sec_runs.extend([0, 3]);
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
                |_, _| {},
            );
            scratch.sec_periods.clear();
            let (p, n) = (plan.pipeline(), plan.num_micro_batches());
            for stage in 0..p {
                let periods = plan.schedule().section_periods(stage, p, n);
                scratch.sec_periods.extend(periods.map(|n| n as u64));
            }
            let t1 = std::time::Instant::now();
            build_graph(&model, &plan, &opts, &mut scratch);
            let t2 = std::time::Instant::now();
            build_csr(&mut scratch);
            let t3 = std::time::Instant::now();
            build_order(&mut scratch);
            build_tallies(&mut scratch);
            let t4 = std::time::Instant::now();
            refill_runs(&mut scratch);
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
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Golden equivalence: the aggregated periodic replay reproduces
        /// the full lowering + Predicted replay bit for bit on sampled
        /// design points — schedules, bucketing, recompute, uneven
        /// partitions, flat and two-tier interconnects, up to one layer
        /// per stage — at micro-batch counts within two of `p − 1` (where
        /// 1F1B's warm-up stops saturating) and of `p + 2` (where the
        /// sections' shape settles) and anywhere up to 300, where the
        /// nested sections and the steady state are jumped.
        #[test]
        fn compact_replay_is_bit_identical_to_full(
            t_exp in 0usize..=2,
            d_exp in 0usize..=2,
            p in 1usize..=24,
            m_exp in 0usize..=1,
            n_pick in (0usize..3, 0usize..=4, 1usize..=300),
            flags in 0u32..16,
        ) {
            let (gpipe, bucketing, recompute, two_tier) =
                (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0, flags & 8 != 0);
            let (t, d, m) = (1usize << t_exp, 1 << d_exp, 1 << m_exp);
            let (regime, offset, far) = n_pick;
            let n_micro = match regime {
                0 => (p + offset).saturating_sub(3).max(1),
                1 => p + offset,
                _ => far,
            };
            let b = d * m * n_micro;
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let plan = ParallelConfig::builder()
                .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(b)
                .schedule(sched).gradient_bucketing(bucketing).build().unwrap();
            let opts = GraphOptions { recompute, ..GraphOptions::default() };
            compare_point_under(
                &presets::megatron("1.7B"),
                &plan,
                &opts,
                &comm_model(two_tier),
                &mut CompactScratch::default(),
            );
        }

        /// Delta A/B: walking random neighbors with one shared scratch —
        /// patched whenever shapes line up, re-lowered otherwise — always
        /// reproduces a from-scratch lowering bit for bit.
        #[test]
        fn delta_lowering_matches_fresh_on_random_walks(
            walk in proptest::collection::vec(
                (0usize..=2, 0usize..=2, 1usize..=4, 0usize..=1, 0u32..4, 1usize..=12),
                2..6,
            ),
        ) {
            let model = presets::megatron("1.7B");
            let mut scratch = CompactScratch::default();
            for (t_exp, d_exp, p, m_exp, flags, n_micro) in walk {
                let (gpipe, bucketing) = (flags & 1 != 0, flags & 2 != 0);
                let (t, d, m) = (1usize << t_exp, 1 << d_exp, 1 << m_exp);
                let b = d * m * n_micro;
                let sched =
                    if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
                let plan = ParallelConfig::builder()
                    .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(b)
                    .schedule(sched).gradient_bucketing(bucketing).build().unwrap();
                compare_delta_step(&model, &plan, &GraphOptions::default(), &mut scratch);
            }
        }

        /// Differential delta walk against the reference: from one base
        /// `(d, p, n_micro, schedule, bucketing)`, random steps over `t`
        /// and the micro-batch size (shape-compatible whenever `t > 1` on
        /// both sides), on a flat or a two-tier interconnect. Every patched and fresh report must equal the
        /// full lowering's Predicted replay, and the walk must patch
        /// exactly when the shape keys of consecutive steps agree.
        #[test]
        fn delta_walks_match_full_replay(
            d_exp in 0usize..=1,
            p in 1usize..=8,
            n_micro in 1usize..=300,
            flags in 0u32..16,
            walk in proptest::collection::vec((0usize..=2, 0usize..=1), 2..6),
        ) {
            let (gpipe, bucketing, two_tier, recompute) =
                (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0, flags & 8 != 0);
            let model = presets::megatron("1.7B");
            let cluster = ClusterSpec::aws_p4d(512);
            let comm = comm_model(two_tier);
            let opts = GraphOptions {
                gpus_per_node: cluster.gpus_per_node,
                recompute,
                ..GraphOptions::default()
            };
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let d = 1usize << d_exp;
            let mut scratch = CompactScratch::default();
            let mut prev_key = None;
            for (t_exp, m_exp) in walk {
                let (t, m) = (1usize << t_exp, 1usize << m_exp);
                let plan = ParallelConfig::builder()
                    .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(d * m * n_micro)
                    .schedule(sched).gradient_bucketing(bucketing).build().unwrap();
                let key = plan_shape_key(&model, &plan, &opts);
                let outcome = compare_walk_step_to_full(&model, &plan, &opts, &comm, &mut scratch);
                let expect =
                    if prev_key == Some(key) { LowerOutcome::Patched } else { LowerOutcome::Fresh };
                prop_assert_eq!(outcome, expect);
                prev_key = Some(key);
            }
        }
    }
}
