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
//! pipeline sends, per-stage DP buckets). The compact path prices all
//! slots first ([`price_plan`]), before lowering, then each node is an
//! O(1) table lookup instead of a signature-memo probe. The priced table
//! is the one record of each slot: its latency, its [`TaskKind`] (which
//! fixes its stream and busy category), its [`OpTable`] entry, and how
//! many nodes of it each stage runs in one iteration, in closed form
//! ([`vtrain_graph::visit_slot_multiplicities`]). The busy floor of a
//! `Best` sweep ([`crate::bounds`]) reads it between pricing and
//! lowering, and so do the unrolled fair-sharing graph and the full task
//! graph that `measure` and `timeline` replay
//! ([`TaskGraph::lower_slots`]), so one pricing serves the bound and
//! every graph form. Like vTrain's profiling, which measures
//! each distinct operator once (§III-C), the slot pricing prices each
//! distinct communication operator once per scratch, not once per slot
//! or per point: the scratch's [`OpTable`] keeps every operator it has
//! priced, with its latency and flow program, from point to point, up to
//! [`MAX_OP_ENTRIES`] ([`resolve_slots`]). A stage's DP buckets all carry one payload but
//! the last, and neighbouring pipeline boundaries send the same
//! activations, so most communication slots repeat the previous
//! operator of their kind and skip even the table lookup; and a sweep's
//! neighbouring points mostly emit the operators already in the table.
//!
//! Two plans with equal [`PlanShapeKey`]s produce periodic graphs with
//! identical structure — runs, edges, sections and slot assignments —
//! differing only in slot *values* and section period counts (the key
//! ignores the micro-batch count once it passes
//! [`PipelineSchedule::sections_stable_from`]). Everything that
//! depends on structure alone is derived once per fresh build, right after
//! the CSR: each section's topological order and its loop-carried and
//! entry edges. Whether a section is nested depends on the period counts
//! too, so the replay checks it per point.
//! When the scratch already holds a graph for the same key,
//! [`lower_plan`] skips the builder and all of that derivation, and only
//! refills the runs' durations, from the re-priced slot table and the
//! cached run *compositions* (`(slot, multiplicity)` pairs per run). A
//! fresh scratch always builds, and a sweep worker patches whenever its
//! previous candidate shares the key, which the executor's shape-grouped
//! visit order makes the common case.
//!
//! The busy breakdown and per-device busy time are
//! `Σ slot_value · count` over the slot record's per-stage counts, and
//! the task count is `Σ count`, all in `u64`, so neither the periodic
//! replay nor a patched graph changes a bit of the report, and the graph
//! holds only what the walk and the unroll read.
//!
//! Measured noise is a per-task duration keyed on full-graph task ids, so
//! `measure` perturbs the full graph's durations and replays that; this
//! path replays clean durations only.
//!
//! # Fair sharing: the unrolled graph
//!
//! Under the fair-sharing network, lowering is the same [`lower_plan`]
//! (so shape-equal plans patch), and the [`OpTable`] entry of each
//! communication slot carries its operator's flow program too, priced
//! with its latency. A plan whose collectives all stay inside a node has
//! no flow program at all ([`CompactScratch::has_flows`]): nothing
//! shares a link, so the fair-sharing replay is the dataflow replay,
//! and [`replay_lowered`]'s closed-form walk, max-plus jump included,
//! prices it exactly. On the shipped 1.7B sweep that is about a third
//! of the points. Any other plan leaves the closed form: concurrent
//! flows split a link's bandwidth, so a flow's duration depends on which
//! other flows overlap it, and the copy-to-copy map is no longer built
//! from `max` and `+ d` alone. It is not max-plus linear, and
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
//! in an [`Unrolled`] reused point to point, cleared rather than dropped;
//! unlike the periodic graph's, they grow with the number of section
//! copies. Its slot and instance entries index the [`OpTable`], so the
//! only allocation a flow program costs is its phase list, once per
//! distinct operator a scratch prices.
//!
//! All buffers live in a caller-owned [`CompactScratch`], so steady-state
//! sweep evaluation performs no per-point heap allocation here, and none
//! of them grows with the micro-batch count.
//!
//! [`PipelineSchedule::stage_sections`]: vtrain_parallel::PipelineSchedule::stage_sections
//! [`PipelineSchedule::sections_stable_from`]: vtrain_parallel::PipelineSchedule::sections_stable_from

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use vtrain_graph::{
    build_op_graph_into, plan_shape_key, visit_plan_slots, visit_slot_multiplicities, ChainOp,
    CommKind, CommOp, GraphOptions, GraphSink, OpNode, OpSignature, PlanShapeKey, SlotOp,
    StreamKind,
};
use vtrain_model::{ModelConfig, TimeNs};
use vtrain_net::flow::FlowProgram;
use vtrain_net::Topology;
use vtrain_parallel::ParallelConfig;
use vtrain_profile::CommModel;

use crate::flow_replay::{replay_booking_flows, Programs};
use crate::sim::{BusyBreakdown, SimReport, SimScratch};
use crate::task_graph::{comm_kind, TaskGraph, TaskKind};

/// Resolves compute-operator signatures to `(total latency, kernel
/// count)` during slot pricing. Implemented by the estimator over the
/// shared profile cache (with per-sweep hit/miss attribution), which
/// profiles any signature it has not seen, and by profile-set adapters in
/// tests.
pub(crate) trait ProfileSource {
    /// The profiled `(total latency, kernel count)` of `sig`.
    fn op_latency(&mut self, sig: &OpSignature) -> (TimeNs, u32);
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

/// The [`OpTable`] entry every compute slot points to: no flow program.
const NO_FLOW: u32 = 0;

/// The most entries an [`OpTable`] keeps across points. A lowering that
/// finds the table this full clears it first, so the table holds at most
/// this many entries plus one plan's distinct operators. A shipped sweep
/// worker prices a few hundred operators, so the cap only bounds a
/// long-lived scratch's memory.
const MAX_OP_ENTRIES: usize = 4_096;

/// The entries an [`OpTable`] reserves when it prices its first operator.
const SEED_ENTRIES: usize = 8;

/// The most operators an [`OpTable`] searches linearly; a larger table
/// is indexed by a hash map.
const SCAN_ENTRIES: usize = 16;

/// The largest period `c` of the common shift `x[k] = x[k − c] + D` the
/// section walk looks for (max-plus cyclicity). The walk keeps this many
/// past state vectors.
pub(crate) const MAX_CYCLICITY: usize = 4;

/// Reusable buffers of the compact lowering + replay, columnar throughout.
///
/// The buffers split into *structure* (run boundaries, compositions,
/// sections, edges, CSR, topological order), which survives across
/// points and is what a delta patch reuses, and *values* (the slot
/// record, the runs' duration column and the sections' period counts),
/// which are refilled per point. The busy sums and the task count come
/// from the slot record alone, so the structure holds only what the walk
/// and the unroll read. The [`OpTable`] of priced
/// communication operators also survives across points; it is valid for
/// one communication model. None of them grows with the plan's
/// micro-batch count.
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
    /// The shape key the structure buffers were built for.
    base_key: Option<PlanShapeKey>,
    /// Open (extendable) compute-stream run per device while building.
    open: Vec<u32>,
    // --- values: refilled per point ---
    /// Latency of each slot of the canonical enumeration.
    slot_values: Vec<TimeNs>,
    /// Task kind and [`OpTable`] entry ([`NO_FLOW`] for compute slots) of
    /// each slot, in one column: a fresh scratch grows one buffer, not
    /// two.
    slot_tags: Vec<(TaskKind, u32)>,
    /// `(slot, stage, count)`: how many nodes of each slot each stage
    /// runs in one iteration — the terms of every busy sum.
    slot_counts: Vec<(u32, u32, u64)>,
    /// Whether any slot of the latest lowering carries a flow program.
    flows: bool,
    /// `(communication slots, operators priced)` of the latest lowering:
    /// a slot whose operator the table already holds reuses its price
    /// ([`resolve_slots`]).
    comm_pricings: (u64, u64),
    // --- kept across points: valid for one communication model ---
    /// Every distinct communication operator priced so far.
    ops: OpTable,
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

    /// `(communication slots, communication operators priced)` of the
    /// latest lowering.
    pub(crate) fn comm_pricings(&self) -> (u64, u64) {
        self.comm_pricings
    }

    /// Whether any slot of the latest lowering carries a flow program:
    /// if not, the fair-sharing network has nothing to share, and the
    /// closed-form replay ([`replay_lowered`]) is exact.
    pub(crate) fn has_flows(&self) -> bool {
        self.flows
    }

    /// Forgets every operator priced so far. The table holds prices of
    /// one communication model: a caller that lowers under another one
    /// on this scratch must call this first.
    pub(crate) fn forget_prices(&mut self) {
        self.ops.clear();
    }

    /// Latency of each slot of the latest pricing.
    pub(crate) fn slot_values(&self) -> &[TimeNs] {
        &self.slot_values
    }

    /// `(slot, stage, count)` of the latest pricing: how many nodes of
    /// each slot each stage runs in one iteration.
    pub(crate) fn slot_counts(&self) -> &[(u32, u32, u64)] {
        &self.slot_counts
    }

    /// The task kind of slot `slot` in the latest pricing.
    pub(crate) fn task_kind(&self, slot: usize) -> TaskKind {
        self.slot_tags[slot].0
    }

    /// The flow program of latency slot `slot` in the latest lowering
    /// (`None`: a fixed duration).
    fn program(&self, slot: usize) -> Option<&FlowProgram> {
        self.ops.program(self.slot_tags[slot].1)
    }

    /// The flow programs on `topology` of tasks whose latency slots in
    /// the latest lowering are `task_slots`, indexing the [`OpTable`]
    /// through `entries` (refilled): a task shares its slot's program.
    pub(crate) fn task_programs<'a>(
        &'a self,
        topology: &'a Topology,
        task_slots: &[u32],
        entries: &'a mut Vec<u32>,
    ) -> Programs<'a> {
        entries.clear();
        entries.extend(task_slots.iter().map(|&slot| self.slot_tags[slot as usize].1));
        Programs::Indexed { topology, table: &self.ops.programs, index: entries }
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
            + bytes(&self.open)
            + bytes(&self.slot_values)
            + bytes(&self.slot_tags)
            + bytes(&self.slot_counts)
            + self.ops.capacity_bytes()
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

/// The distinct communication operators a scratch has priced, kept
/// across points: each operator's latency and, under the fair-sharing
/// network, its flow program, found by the operator itself. Entry
/// [`NO_FLOW`] is the shared "no flow program" of every compute slot; it
/// is seeded with the first operator, so a scratch that prices none
/// allocates nothing, and it is never cleared. The prices belong to one
/// communication model (see [`CompactScratch::forget_prices`]).
///
/// A table of at most [`SCAN_ENTRIES`] operators is searched linearly,
/// and only a larger one is indexed by a hash map. One estimate on a
/// fresh scratch prices a handful of operators and never reuses them,
/// and building the map for them cost perfbench `predict_long` 9% of
/// its requests/s (2-vCPU host); a sweep worker's table passes the bound
/// on its first few points.
#[derive(Default)]
pub(crate) struct OpTable {
    /// The operator of each entry after [`NO_FLOW`]: entry `i` is
    /// `keys[i - 1]`.
    keys: Vec<CommOp>,
    /// Entry of each operator, filled once `keys` passes
    /// [`SCAN_ENTRIES`].
    index: HashMap<CommOp, u32, BuildHasherDefault<OpHasher>>,
    latency: Vec<TimeNs>,
    programs: Vec<Option<FlowProgram>>,
}

impl OpTable {
    /// Entries held, [`NO_FLOW`] included once seeded.
    fn len(&self) -> usize {
        self.programs.len()
    }

    /// Drops every priced operator, keeping the [`NO_FLOW`] entry and the
    /// buffers' capacity.
    fn clear(&mut self) {
        self.keys.clear();
        self.index.clear();
        self.latency.truncate(1);
        self.programs.truncate(1);
    }

    /// The entry of operator `c`, if the table holds it.
    fn find(&self, c: &CommOp) -> Option<u32> {
        if self.keys.len() <= SCAN_ENTRIES {
            let i = self.keys.iter().position(|k| k == c)?;
            return Some(i as u32 + 1);
        }
        self.index.get(c).copied()
    }

    /// The entry of operator `c`, priced under `comm` if the table does
    /// not hold it yet, and whether it was.
    ///
    /// # Panics
    ///
    /// If a TP All-Reduce carries a flow program: `validate` keeps TP
    /// inside the NVLink domain, so the TP All-Reduces folded into
    /// compute runs never drain as flows.
    fn entry(&mut self, c: &CommOp, comm: &CommModel) -> (u32, bool) {
        if let Some(entry) = self.find(c) {
            return (entry, false);
        }
        if self.programs.is_empty() {
            // One plan emits a handful of distinct operators: size the
            // buffers for them in one allocation each.
            self.keys.reserve(SEED_ENTRIES);
            self.latency.reserve(SEED_ENTRIES);
            self.programs.reserve(SEED_ENTRIES);
            self.latency.push(TimeNs::ZERO);
            self.programs.push(None);
        }
        let entry = self.programs.len() as u32;
        let program = comm.flow_program(c);
        assert!(
            program.is_none() || c.kind != CommKind::TpAllReduce,
            "a TP All-Reduce carries a flow program"
        );
        self.latency.push(comm.latency(c));
        self.programs.push(program);
        self.keys.push(*c);
        if self.keys.len() == SCAN_ENTRIES + 1 {
            self.index.extend(self.keys.iter().zip(1..).map(|(k, e)| (*k, e)));
        } else if self.keys.len() > SCAN_ENTRIES {
            self.index.insert(*c, entry);
        }
        (entry, true)
    }

    /// The flow program of `entry` (`None`: a fixed duration).
    fn program(&self, entry: u32) -> Option<&FlowProgram> {
        self.programs.get(entry as usize)?.as_ref()
    }

    /// Bytes reserved by the table's buffers, not counting the phase
    /// lists of its flow programs.
    fn capacity_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<CommOp>()
            + self.index.capacity() * std::mem::size_of::<(CommOp, u32)>()
            + self.latency.capacity() * std::mem::size_of::<TimeNs>()
            + self.programs.capacity() * std::mem::size_of::<Option<FlowProgram>>()
    }
}

/// FxHash's multiply-rotate hasher, for [`OpTable`]'s keys: a few small
/// integers, which need no flooding resistance. A lookup costs ~18 ns
/// against SipHash's ~95 ns, and re-pricing an operator under the flat
/// closed form ~30 ns (MT-NLG operators, 2-vCPU host), so only this
/// hasher makes the table cheaper than pricing again.
#[derive(Default)]
struct OpHasher(u64);

impl Hasher for OpHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct CompactSink<'a> {
    s: &'a mut CompactScratch,
}

impl GraphSink for CompactSink<'_> {
    fn push(&mut self, node: OpNode, slot: u32) -> u32 {
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

    fn periodic(&self) -> bool {
        true
    }

    fn begin_section(&mut self, device: u32, section: u32, periods: u64) {
        let s = &mut *self.s;
        s.open[device as usize] = NONE;
        let n_sections = s.sec_periods.len() / s.open.len();
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
/// `slot_values`, and records its task kind (a compute slot's profiled
/// kernel count, a communication slot's collective) and operator-table
/// entry in `slot_tags`.
///
/// Communication is priced once per distinct operator, not once per
/// slot: a communication slot takes the [`OpTable`] entry of its
/// [`CommOp`], which the table prices only the first time it sees the
/// operator, on this point or an earlier one. `CommOp`'s equality covers
/// every field the communication model reads, so the reuse is exact.
/// Most slots repeat the last operator of their [`CommKind`] (a stage's
/// DP buckets all carry the same payload but the last, and neighbouring
/// pipeline boundaries send the same activations), so a compare with
/// that operator is the O(1) fast path, and the table is consulted only
/// when it misses.
fn resolve_slots<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    s: &mut CompactScratch,
) {
    let CompactScratch { slot_values, slot_tags, flows, comm_pricings, ops, .. } = s;
    slot_values.clear();
    slot_tags.clear();
    *flows = false;
    // Entries handed out below stay valid for the whole point: clear
    // before, never during, a lowering.
    if ops.len() >= MAX_OP_ENTRIES {
        ops.clear();
    }
    // The last operator seen for each collective kind, and its entry.
    let mut last: [Option<(CommOp, u32)>; 3] = [None; 3];
    let (mut slots, mut priced) = (0, 0);
    visit_plan_slots(model, plan, opts, |op| match op {
        SlotOp::Compute(sig) => {
            let (total, kernels) = profiles.op_latency(&sig);
            slot_values.push(total);
            slot_tags.push((TaskKind::Compute { kernels }, NO_FLOW));
        }
        SlotOp::Comm(c) => {
            slots += 1;
            let entry = match &mut last[c.kind as usize] {
                Some((prev, entry)) if *prev == c => *entry,
                memo => {
                    let (entry, fresh) = ops.entry(&c, comm);
                    priced += u64::from(fresh);
                    *memo = Some((c, entry));
                    entry
                }
            };
            *flows |= ops.program(entry).is_some();
            slot_values.push(ops.latency[entry as usize]);
            slot_tags.push((comm_kind(&c), entry));
        }
    });
    *comm_pricings = (slots, priced);
}

/// The first step of the compact path: prices every slot of the plan's
/// canonical enumeration into `s`'s slot table ([`resolve_slots`]), and
/// records how many nodes of each slot every stage runs
/// ([`visit_slot_multiplicities`]) and the period count of every section
/// on every stage. [`lower_plan`], the replays, the busy floor
/// ([`crate::bounds`]) and the full task graph
/// ([`TaskGraph::lower_slots`]) read what this leaves.
///
/// # Panics
///
/// Same conditions as [`visit_plan_slots`].
pub(crate) fn price_plan<P: ProfileSource>(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    profiles: &mut P,
    comm: &CommModel,
    s: &mut CompactScratch,
) {
    resolve_slots(model, plan, opts, profiles, comm, s);
    s.slot_counts.clear();
    visit_slot_multiplicities(model, plan, opts, |slot, stage, count| {
        s.slot_counts.push((slot, stage as u32, count));
    });
    s.sec_periods.clear();
    let (p, n) = (plan.pipeline(), plan.num_micro_batches());
    for stage in 0..p {
        let periods = plan.schedule().section_periods(stage, p, n);
        s.sec_periods.extend(periods.map(|n| n as u64));
    }
}

/// The lowering half of the sweep's fused lower + simulate hot path: on
/// a scratch [`price_plan`] has priced for `(model, plan)`, either
/// patches the cached graph or builds it from scratch. When `scratch`
/// holds the graph of a plan with the same [`PlanShapeKey`], the builder
/// and all structure derivation are skipped and only the runs' durations
/// are refilled. Either way, [`replay_lowered`] then produces a report
/// bit-identical to
/// `simulate(&TaskGraph::lower(&build_op_graph(..), ..)?, SimMode::Predicted)`.
/// Split from the replay so the stage profiler can attribute lower vs.
/// simulate time.
///
/// # Panics
///
/// Same conditions as [`vtrain_graph::build_op_graph`], or if the builder
/// violates its [`GraphSink::cut`] aggregation contract or its periodic
/// edge contract (a bug, caught by the equivalence property tests).
pub(crate) fn lower_plan(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    scratch: &mut CompactScratch,
) -> LowerOutcome {
    let key = plan_shape_key(model, plan, opts);
    if scratch.base_key == Some(key) {
        refill_runs(scratch);
        return LowerOutcome::Patched;
    }
    build_graph(model, plan, opts, scratch);
    build_csr(scratch);
    build_order(scratch);
    // Fresh builds price their duration column through the same
    // composition refill the patch path uses: one value computation,
    // shared by both paths.
    refill_runs(scratch);
    scratch.base_key = Some(key);
    LowerOutcome::Fresh
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
/// replay — the same argument as the task-graph replay's dataflow pass
/// ([`crate::flow_replay`]), proven bit-identical to the FIFO oracle by
/// the equivalence tests and `sim.rs`'s differential proptest. Each
/// section is walked copy by copy over its stored order until a nested
/// section's common shift shows (see the module docs); the busy
/// breakdown, the per-device busy time and the task count come from the
/// slot record ([`book_slots`]), so a patched graph replays without
/// touching any structure.
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
    report.busy = BusyBreakdown::default();
    report.device_busy.clear();
    report.device_busy.resize(devices, TimeNs::ZERO);
    book_slots(s, report, |_| true);
    report.iteration_time = iteration_time;
}

/// Books `slot value × count` of every record entry whose slot `fixed`
/// admits into the report's busy breakdown and its stage's busy time,
/// and writes the task count, the record's `Σ count`, all in `u64`. The
/// closed form admits every slot onto an empty report; the flow replay
/// has booked the slots it drains as flows already.
fn book_slots(s: &CompactScratch, report: &mut SimReport, fixed: impl Fn(usize) -> bool) {
    let mut tasks = 0;
    for &(slot, stage, count) in &s.slot_counts {
        tasks += count;
        let (slot, device) = (slot as usize, &mut report.device_busy[stage as usize]);
        if fixed(slot) {
            s.slot_tags[slot].0.book(scale(s.slot_values[slot], count), &mut report.busy, device);
        }
    }
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

/// The fair-sharing half of the compact path: the periodic graph unrolled
/// into one task per (section copy, run) for the flow replay. The flow
/// programs themselves live in the scratch's [`OpTable`], which the slot
/// and instance entries index. Filled only under the fair-sharing
/// network, and reused point to point like [`CompactScratch`]: every
/// buffer is cleared, not dropped, between points.
#[derive(Default)]
pub(crate) struct Unrolled {
    /// Each run's task kind (which fixes its stream) and [`OpTable`]
    /// entry: its head slot's.
    run_tags: Vec<(TaskKind, u32)>,
    /// The unrolled graph: instances numbered section-major, then
    /// copy-major, each copy in its section's topological order.
    graph: TaskGraph,
    /// [`OpTable`] entry of each instance.
    inst_entry: Vec<u32>,
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

    /// The latest unrolled graph of `s` and its tasks' flow programs:
    /// the input [`replay_unrolled`] hands the flow replay.
    #[cfg(test)]
    pub(crate) fn replay_input<'a>(
        &'a self,
        s: &'a CompactScratch,
        topology: &'a Topology,
    ) -> (&'a TaskGraph, Programs<'a>) {
        (&self.graph, self.instance_programs(s, topology))
    }

    /// The flow program of each unrolled instance on `topology`, by
    /// [`OpTable`] entry.
    fn instance_programs<'a>(
        &'a self,
        s: &'a CompactScratch,
        topology: &'a Topology,
    ) -> Programs<'a> {
        Programs::Indexed { topology, table: &s.ops.programs, index: &self.inst_entry }
    }

    /// Gives each run its head slot's task kind and [`OpTable`] entry.
    /// Communication-stream nodes (pipeline sends, DP All-Reduces) never
    /// extend a run, so such a run is one node, and its entry carries its
    /// flow program. A compute-stream run carries none, and the replay
    /// books only flows from the graph ([`replay_unrolled`]), so its kind
    /// serves only to fix its stream.
    ///
    /// # Panics
    ///
    /// If a communication-stream run is not exactly one node, or a
    /// compute-stream run holds a slot with a flow program.
    fn classify_runs(&mut self, s: &CompactScratch) {
        self.run_tags.clear();
        let mut e = 0;
        for r in 0..s.run_device.len() as u32 {
            let start = e;
            while e < s.comp_run.len() && s.comp_run[e] == r {
                e += 1;
            }
            let one_node = e - start == 1 && s.comp_count[start] == 1;
            let tags = s.slot_tags[s.comp_slot[start] as usize];
            let stream = tags.0.stream();
            assert!(one_node || stream == 0, "a communication-stream run is exactly one node");
            for &slot in &s.comp_slot[start..e] {
                assert!(
                    stream == 1 || s.program(slot as usize).is_none(),
                    "only communication-stream runs carry flow programs"
                );
            }
            self.run_tags.push(tags);
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
        let Unrolled { run_tags, graph, inst_entry, edges, last, cur, .. } = self;
        graph.clear(devices as u32);
        inst_entry.clear();
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
                        let (kind, entry) = run_tags[i];
                        inst_entry.push(entry);
                        graph.push_task(device, kind.stream(), s.run_duration[i], kind);
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

/// [`lower_plan`] for the fair-sharing network: also unrolls the periodic
/// graph into `unrolled` for [`replay_unrolled`] if any slot carries a
/// flow program ([`CompactScratch::has_flows`]).
/// Shape-equal plans patch the compact graph exactly as under the closed
/// form; the unrolled graph is rebuilt from it every time it is needed.
///
/// A plan without flows, one whose collectives all stay inside a node,
/// is not unrolled: with nothing to share, the flow replay of the
/// unrolled graph resolves every task by dataflow, which is the
/// closed-form replay of the same graph, so [`replay_lowered`] prices it
/// exactly, max-plus jump included.
///
/// # Panics
///
/// Same conditions as [`lower_plan`], or if a flow program lands on a
/// run that is not one communication-stream node.
pub(crate) fn lower_unrolled(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    scratch: &mut CompactScratch,
    unrolled: &mut Unrolled,
) -> LowerOutcome {
    let outcome = lower_plan(model, plan, opts, scratch);
    if scratch.flows {
        let copies = unrolled.unroll(scratch, plan.pipeline());
        scratch.periods = (copies, copies);
    }
    outcome
}

/// The fair-sharing replay of the unrolled graph.
/// [`replay_booking_flows`] over the run instances gives the iteration
/// time and books each flow's contended duration; the busy breakdown,
/// per-device busy time and task count of the fixed-duration slots come
/// from the slot record, as in [`replay_lowered`] (compute runs fold TP
/// All-Reduces in, so a per-instance booking could not split them). The
/// report is bit-identical to the flow replay of the full task graph.
pub(crate) fn replay_unrolled(
    s: &CompactScratch,
    u: &Unrolled,
    topology: &Topology,
    flows: &mut SimScratch,
    report: &mut SimReport,
) {
    replay_booking_flows(&u.graph, u.instance_programs(s, topology), flows, report);
    book_slots(s, report, |slot| s.program(slot).is_none());
}

#[cfg(test)]
pub(crate) mod tests {
    use proptest::prelude::*;
    use vtrain_graph::build_op_graph;
    use vtrain_model::presets;
    use vtrain_net::NetworkBackend;
    use vtrain_parallel::{ClusterSpec, GpuSpec, ParallelConfig, PipelineSchedule};
    use vtrain_profile::{OperatorTaskTable, Profiler};

    use super::*;
    use crate::sim::{simulate, SimMode};
    use crate::task_graph::TaskGraph;

    /// The compact lowering's view of an operator table (the tests' profile
    /// source, here and in `sim.rs`).
    ///
    /// # Panics
    ///
    /// If the table does not hold `sig`.
    impl ProfileSource for OperatorTaskTable {
        fn op_latency(&mut self, sig: &OpSignature) -> (TimeNs, u32) {
            let p = self.get(sig).unwrap_or_else(|| panic!("{sig:?} was never profiled"));
            (p.total(), p.kernel_count() as u32)
        }
    }

    /// The profiled necessary operators of `(model, plan)`.
    pub(crate) fn profiles(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
    ) -> OperatorTaskTable {
        let mut sigs = std::collections::HashSet::new();
        visit_plan_slots(model, plan, opts, |op| {
            if let SlotOp::Compute(sig) = op {
                sigs.insert(sig);
            }
        });
        Profiler::new(GpuSpec::a100_40gb()).profile(&sigs)
    }

    /// [`price_plan`], then [`lower_plan`].
    fn price_and_lower<P: ProfileSource>(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        profiles: &mut P,
        comm: &CommModel,
        scratch: &mut CompactScratch,
    ) -> LowerOutcome {
        price_plan(model, plan, opts, profiles, comm, scratch);
        lower_plan(model, plan, opts, scratch)
    }

    /// [`price_plan`], then [`lower_unrolled`].
    fn price_and_unroll<P: ProfileSource>(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        profiles: &mut P,
        comm: &CommModel,
        scratch: &mut CompactScratch,
        unrolled: &mut Unrolled,
    ) -> LowerOutcome {
        price_plan(model, plan, opts, profiles, comm, scratch);
        lower_unrolled(model, plan, opts, scratch, unrolled)
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
    ) -> LowerOutcome {
        let outcome = price_and_lower(model, plan, opts, profiles, comm, scratch);
        replay_lowered(scratch, plan.pipeline(), report);
        outcome
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

    /// The communication model and graph options of a 512-GPU cluster on
    /// the `net`-th of four interconnects — flat, two-tier with α = 0.8,
    /// racked behind a 25 GB/s spine, racked behind a 12.5 GB/s spine —
    /// under the fair-sharing network if `fair`, else the closed form.
    pub(crate) fn interconnect(net: u32, fair: bool) -> (CommModel, GraphOptions) {
        let cluster = ClusterSpec::aws_p4d(512);
        let spine = |bandwidth| vtrain_net::TierSpec::new(bandwidth, TimeNs::from_micros(35), 1.0);
        let (comm, nodes_per_rack) = match net {
            0 => (CommModel::new(&cluster, 1.0), None),
            1 => (CommModel::with_topology_tiers(&cluster, cluster.topology(0.8)), None),
            _ => {
                let bandwidth = if net == 2 { 25e9 } else { 12.5e9 };
                let topology = cluster.topology(1.0).with_rack_tier(2, spine(bandwidth));
                (CommModel::with_topology_tiers(&cluster, topology), Some(2))
            }
        };
        let backend = if fair { NetworkBackend::FairSharing } else { NetworkBackend::ClosedForm };
        let opts = GraphOptions {
            gpus_per_node: cluster.gpus_per_node,
            nodes_per_rack,
            ..GraphOptions::default()
        };
        (comm.with_backend(backend), opts)
    }

    /// Per-slot pricing, the reference of [`resolve_slots`]' table: every
    /// slot's latency, flow program and task kind priced from its own
    /// operator. Also returns the operator of each communication slot, in
    /// slot order.
    #[allow(clippy::type_complexity)]
    fn price_per_slot(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        profiles: &OperatorTaskTable,
        comm: &CommModel,
    ) -> (Vec<TimeNs>, Vec<Option<FlowProgram>>, Vec<TaskKind>, Vec<CommOp>) {
        let (mut values, mut programs, mut kinds, mut ops) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        visit_plan_slots(model, plan, opts, |op| match op {
            SlotOp::Compute(sig) => {
                let profile = profiles.get(&sig).expect("a profiled signature");
                values.push(profile.total());
                programs.push(None);
                kinds.push(TaskKind::Compute { kernels: profile.kernel_count() as u32 });
            }
            SlotOp::Comm(c) => {
                values.push(comm.latency(&c));
                programs.push(comm.flow_program(&c));
                let (kind, scope, overlappable) = (c.kind, c.scope, c.overlappable);
                let concurrent_groups = c.concurrent_groups as u32;
                kinds.push(TaskKind::Comm { kind, scope, overlappable, concurrent_groups });
                ops.push(c);
            }
        });
        (values, programs, kinds, ops)
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
        let mut profiles = profiles(model, plan, opts);
        let full = TaskGraph::lower(&build_op_graph(model, plan, opts), &profiles, comm).unwrap();
        let expect = simulate(&full, SimMode::Predicted);

        let mut report = SimReport::default();
        simulate_plan(model, plan, opts, &mut profiles, comm, scratch, &mut report);

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
        let mut profiles = profiles(model, plan, opts);

        let mut fresh_report = SimReport::default();
        let mut fresh_scratch = CompactScratch::default();
        let outcome = simulate_plan(
            model,
            plan,
            opts,
            &mut profiles,
            &comm,
            &mut fresh_scratch,
            &mut fresh_report,
        );
        assert_eq!(outcome, LowerOutcome::Fresh, "a fresh scratch always builds");

        let mut walk_report = SimReport::default();
        let outcome =
            simulate_plan(model, plan, opts, &mut profiles, &comm, walk_scratch, &mut walk_report);

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
        let mut profiles = profiles(model, plan, opts);
        let full = TaskGraph::lower(&build_op_graph(model, plan, opts), &profiles, comm).unwrap();
        let expect = simulate(&full, SimMode::Predicted);

        let mut report = SimReport::default();
        let outcome =
            simulate_plan(model, plan, opts, &mut profiles, comm, walk_scratch, &mut report);
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
        let mut scratch = CompactScratch::default();
        for p in 1usize..=24 {
            for n in [1, p.saturating_sub(2).max(1), p, p + 2, 3 * p + 1] {
                for sched in [PipelineSchedule::OneFOneB, PipelineSchedule::GPipe] {
                    let plan = plan_of((1, 1, p, 1, n), sched);
                    let opts = GraphOptions::default();
                    let mut profiles = profiles(&model, &plan, &opts);
                    price_and_lower(&model, &plan, &opts, &mut profiles, &comm, &mut scratch);
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

    /// Times each step of a fresh compact build and replay of MT-NLG
    /// (8, 1, 21) on a warm scratch and profile table, and prints each
    /// step's minimum over the rounds and their sum: the minimum of many
    /// warm rounds is what host noise inflates least. Run with
    /// `cargo test --release -p vtrain-core profile_lower_breakdown --
    /// --ignored --nocapture`.
    #[test]
    #[ignore = "manual profiling aid"]
    fn profile_lower_breakdown() {
        const ROUNDS: usize = 500;
        const STEPS: [&str; 6] = ["slots", "build", "csr", "order", "refill", "replay"];
        let model = presets::mt_nlg_530b();
        let plan = plan_of((8, 1, 21, 1, 1920), PipelineSchedule::OneFOneB);
        let opts = GraphOptions::default();
        let comm = CommModel::new(&ClusterSpec::aws_p4d(21 * 8), 1.0);
        let mut profiles = profiles(&model, &plan, &opts);
        let mut scratch = CompactScratch::default();
        let mut report = SimReport::default();
        let mut best = [std::time::Duration::MAX; STEPS.len()];
        for _ in 0..ROUNDS {
            let mut laps = [std::time::Instant::now(); STEPS.len() + 1];
            price_plan(&model, &plan, &opts, &mut profiles, &comm, &mut scratch);
            laps[1] = std::time::Instant::now();
            build_graph(&model, &plan, &opts, &mut scratch);
            laps[2] = std::time::Instant::now();
            build_csr(&mut scratch);
            laps[3] = std::time::Instant::now();
            build_order(&mut scratch);
            laps[4] = std::time::Instant::now();
            refill_runs(&mut scratch);
            laps[5] = std::time::Instant::now();
            replay_lowered(&mut scratch, plan.pipeline(), &mut report);
            laps[6] = std::time::Instant::now();
            for (step, lap) in best.iter_mut().zip(laps.windows(2)) {
                *step = (*step).min(lap[1] - lap[0]);
            }
        }
        let steps: Vec<String> =
            STEPS.iter().zip(&best).map(|(name, t)| format!("{name} {t:.1?}")).collect();
        eprintln!(
            "min of {ROUNDS} rounds: {} | sum {:.1?} | nodes {} runs {} comp {} edges {}",
            steps.join(" "),
            best.iter().sum::<std::time::Duration>(),
            scratch.nodes,
            scratch.run_device.len(),
            scratch.comp_run.len(),
            scratch.edges.len(),
        );
    }

    #[test]
    fn repeated_operators_are_priced_once() {
        // 1.7B on (1, 8, 4): each stage's six DP buckets repeat one
        // payload but the last, and the three pipeline boundaries send
        // the same activations, so 3 sends and 24 buckets price as at
        // most 1 + 8 operators; a second point of the same plan on the
        // same scratch prices none.
        let model = presets::megatron("1.7B");
        let plan = plan_of((1, 8, 4, 1, 64), PipelineSchedule::OneFOneB);
        let (comm, opts) = interconnect(0, true);
        let mut profiles = profiles(&model, &plan, &opts);
        let (mut scratch, mut unrolled) = (CompactScratch::default(), Unrolled::default());
        let (_, _, _, ops) = price_per_slot(&model, &plan, &opts, &profiles, &comm);
        let distinct = ops.iter().collect::<std::collections::HashSet<_>>().len() as u64;
        assert_eq!(ops.len(), 3 + 24);
        assert!(distinct <= 1 + 8, "{distinct} distinct operators");
        for priced in [distinct, 0] {
            price_and_unroll(
                &model,
                &plan,
                &opts,
                &mut profiles,
                &comm,
                &mut scratch,
                &mut unrolled,
            );
            assert_eq!(scratch.comm_pricings(), (ops.len() as u64, priced));
            // The table holds the shared compute entry and one entry per
            // distinct operator.
            assert_eq!(scratch.ops.len() as u64, 1 + distinct);
        }
        scratch.forget_prices();
        assert_eq!(scratch.ops.len(), 1, "forgetting keeps only the compute entry");
        assert_eq!(CompactScratch::default().ops.capacity_bytes(), 0, "an unused table is free");
    }

    #[test]
    fn a_full_table_is_cleared_before_a_lowering() {
        // Fill the table to its cap with operators no plan emits, each
        // priced once and found again, whether scanned or hashed: the
        // next lowering starts from an empty table and prices every
        // distinct operator of its own afresh.
        let model = presets::megatron("1.7B");
        let plan = plan_of((2, 4, 2, 1, 16), PipelineSchedule::OneFOneB);
        let (comm, opts) = interconnect(1, true);
        let mut profiles = profiles(&model, &plan, &opts);
        let (_, _, _, ops) = price_per_slot(&model, &plan, &opts, &profiles, &comm);
        let filler = |i: usize| CommOp { ranks: ops[0].ranks + 1_000 * i, ..ops[0] };
        let mut scratch = CompactScratch::default();
        for i in 1..MAX_OP_ENTRIES {
            assert_eq!(scratch.ops.entry(&filler(i), &comm), (i as u32, true));
        }
        for i in 1..MAX_OP_ENTRIES {
            assert_eq!(scratch.ops.entry(&filler(i), &comm), (i as u32, false));
        }
        assert_eq!(scratch.ops.len(), MAX_OP_ENTRIES);
        price_and_lower(&model, &plan, &opts, &mut profiles, &comm, &mut scratch);
        let distinct = ops.iter().collect::<std::collections::HashSet<_>>().len();
        assert_eq!(scratch.comm_pricings(), (ops.len() as u64, distinct as u64));
        assert_eq!(scratch.ops.len(), 1 + distinct);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Differential test of the operator table against per-slot
        /// pricing: on random plans over four interconnects, under both
        /// networks, a walk of points through one reused scratch gives
        /// every slot the latency, the flow program and the task kind its
        /// own operator prices to, bit for bit (a compute slot's kernel
        /// count from its profile, a communication slot's kind from its
        /// `CommOp`), flags the flows exactly when some slot carries a
        /// program, and prices exactly the operators no earlier point of
        /// the walk emitted.
        #[test]
        fn operator_pricing_matches_per_slot_pricing(
            walk in proptest::collection::vec(
                (0usize..=3, 0usize..=3, 1usize..=24, 0usize..=1, 1usize..=40, 0u32..4),
                1..4,
            ),
            network in 0u32..8,
        ) {
            let model = presets::megatron("1.7B");
            let (comm, opts) = interconnect(network >> 1, network & 1 != 0);
            let (mut scratch, mut unrolled) = (CompactScratch::default(), Unrolled::default());
            let mut seen = std::collections::HashSet::new();
            for (t_exp, d_exp, p, m_exp, n_micro, flags) in walk {
                let (gpipe, bucketing) = (flags & 1 != 0, flags & 2 != 0);
                let (t, d, m) = (1usize << t_exp, 1 << d_exp, 1 << m_exp);
                let sched =
                    if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
                let plan = ParallelConfig::builder()
                    .tensor(t).data(d).pipeline(p).micro_batch(m).global_batch(d * m * n_micro)
                    .schedule(sched).gradient_bucketing(bucketing).build().unwrap();
                let mut profiles = profiles(&model, &plan, &opts);
                let (source, scratch) = (&mut profiles, &mut scratch);
                price_and_unroll(&model, &plan, &opts, source, &comm, scratch, &mut unrolled);
                let (values, programs, kinds, ops) =
                    price_per_slot(&model, &plan, &opts, &profiles, &comm);
                let nanos = |v: &[TimeNs]| v.iter().map(|t| t.as_nanos()).collect::<Vec<_>>();
                prop_assert_eq!(nanos(&scratch.slot_values), nanos(&values));
                let recorded: Vec<_> = scratch.slot_tags.iter().map(|&(kind, _)| kind).collect();
                prop_assert_eq!(recorded, kinds);
                let got: Vec<_> = (0..programs.len()).map(|slot| scratch.program(slot)).collect();
                prop_assert_eq!(got, programs.iter().map(Option::as_ref).collect::<Vec<_>>());
                prop_assert_eq!(scratch.has_flows(), programs.iter().any(Option::is_some));
                let new = ops.iter().filter(|&&op| seen.insert(op)).count();
                prop_assert_eq!(scratch.comm_pricings(), (ops.len() as u64, new as u64));
            }
        }

        /// Differential test of the flow-free dispatch: under fair sharing
        /// on random plans over the four interconnects, the dispatched
        /// replay (the closed-form walk when no slot carries a flow
        /// program, else the flow replay of the unrolled graph) equals the
        /// forced unroll and flow replay in every report field, in `u64`,
        /// and the walk is taken exactly when per-slot pricing finds no
        /// flow program.
        #[test]
        fn flow_free_dispatch_matches_the_forced_flow_replay(
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
            let model = presets::megatron("1.7B");
            let (comm, opts) = interconnect(net, true);
            let mut profiles = profiles(&model, &plan, &opts);
            let (mut scratch, mut unrolled) = (CompactScratch::default(), Unrolled::default());
            price_and_unroll(&model, &plan, &opts, &mut profiles, &comm, &mut scratch, &mut unrolled);
            let (_, programs, _, _) = price_per_slot(&model, &plan, &opts, &profiles, &comm);
            prop_assert_eq!(scratch.has_flows(), programs.iter().any(Option::is_some));
            let mut flows = SimScratch::default();
            let mut dispatched = SimReport::default();
            if scratch.has_flows() {
                replay_unrolled(&scratch, &unrolled, comm.topology(), &mut flows, &mut dispatched);
            } else {
                replay_lowered(&mut scratch, p, &mut dispatched);
            }
            unrolled.unroll(&scratch, p);
            let mut forced = SimReport::default();
            replay_unrolled(&scratch, &unrolled, comm.topology(), &mut flows, &mut forced);
            let nanos =
                |b: &BusyBreakdown| [b.compute, b.tp_comm, b.dp_comm, b.pp_comm].map(|t| t.as_nanos());
            let device = |r: &SimReport| r.device_busy.iter().map(|t| t.as_nanos()).collect::<Vec<_>>();
            prop_assert_eq!(dispatched.iteration_time.as_nanos(), forced.iteration_time.as_nanos());
            prop_assert_eq!(nanos(&dispatched.busy), nanos(&forced.busy));
            prop_assert_eq!(device(&dispatched), device(&forced));
            prop_assert_eq!(dispatched.tasks_executed as u64, forced.tasks_executed as u64);
        }

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
