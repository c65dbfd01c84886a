//! Lowering the operator graph to the task-granularity execution graph
//! (paper §III-D).
//!
//! Compute layer-nodes are replaced by their profiled CUDA-kernel sequences.
//! Because an operator's kernels launch back-to-back on a single stream with
//! no external dependency attaching between them, the sequence is lowered to
//! one task carrying the summed latency and the kernel count — a lossless
//! aggregation for the replay, while the kernel count preserves the
//! launch-overhead accounting the ground-truth emulator needs.
//!
//! The graph is stored **columnar** (structure-of-arrays): the replay's hot
//! loop touches `duration` for every task but `kind` only on the measured
//! path, so packing each attribute contiguously keeps the dataflow replay's
//! working set to the columns it actually reads instead of striding over
//! 40-byte task records. [`Task`] remains as the assembled per-index view.
//!
//! Two lowerings produce identical graphs:
//! * [`TaskGraph::lower`] consumes a materialized [`OpGraph`] and prices
//!   every node itself, from an [`OperatorTaskTable`] and the
//!   communication model: the independently priced reference;
//! * `TaskGraph::lower_slots` streams the builder's nodes straight into
//!   tasks via [`GraphSink`], never allocating the operator graph. It
//!   prices nothing: each node takes the duration and kind its latency
//!   slot ([`GraphSink::push`]) records in the compact path's priced slot
//!   table, the one record of each slot. `Estimator::lower`, `measure`
//!   and `timeline` take this path.

use std::fmt;

use serde::{Deserialize, Serialize};
use vtrain_graph::{
    build_op_graph_into, CommKind, CommOp, CommScope, GraphOptions, GraphSink, Op, OpGraph, OpNode,
    StreamKind,
};
use vtrain_model::{ModelConfig, TimeNs};
use vtrain_parallel::ParallelConfig;
use vtrain_profile::{CommModel, OperatorTaskTable};

use crate::compact::CompactScratch;
use crate::sim::BusyBreakdown;

/// What a task does: its stream, its busy category, and how the
/// measured-mode perturbations apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Aggregated compute-kernel sequence.
    Compute {
        /// Number of CUDA kernels aggregated into this task.
        kernels: u32,
    },
    /// A communication operator.
    Comm {
        /// Collective class.
        kind: CommKind,
        /// Network tier.
        scope: CommScope,
        /// May overlap compute (runs on the comm stream by construction).
        overlappable: bool,
        /// DP groups sharing the node uplinks.
        concurrent_groups: u32,
    },
}

impl TaskKind {
    /// The stream the task runs on: 0, the compute stream (compute
    /// kernels, TP All-Reduces), or 1, the communication stream (pipeline
    /// sends, DP All-Reduces).
    pub(crate) fn stream(self) -> u8 {
        match self {
            TaskKind::Comm { kind: CommKind::DpAllReduce | CommKind::PpSendRecv, .. } => 1,
            _ => 0,
        }
    }

    /// Adds `duration` to this kind's busy category and, for the kinds
    /// on the compute stream ([`TaskKind::stream`] 0), to its device's
    /// busy time. One match books both: deciding the device's share by a
    /// second match on the stream cost ~3% more per task in the replay
    /// (2-vCPU host).
    #[inline]
    pub(crate) fn book(self, duration: TimeNs, busy: &mut BusyBreakdown, device: &mut TimeNs) {
        match self {
            TaskKind::Compute { .. } => {
                busy.compute += duration;
                *device += duration;
            }
            TaskKind::Comm { kind: CommKind::TpAllReduce, .. } => {
                busy.tp_comm += duration;
                *device += duration;
            }
            TaskKind::Comm { kind: CommKind::DpAllReduce, .. } => busy.dp_comm += duration,
            TaskKind::Comm { kind: CommKind::PpSendRecv, .. } => busy.pp_comm += duration,
        }
    }
}

/// One schedulable unit of the task-granularity graph — the assembled view
/// of one index across the [`TaskGraph`]'s columns.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Task {
    /// Owning device (pipeline-stage representative GPU).
    pub device: u32,
    /// Stream on the device (0 = compute, 1 = comm).
    pub stream: u8,
    /// Clean (lookup-table) duration.
    pub duration: TimeNs,
    /// Task class.
    pub kind: TaskKind,
}

/// The task-granularity execution graph consumed by Algorithm 1.
///
/// Task attributes are stored as parallel columns indexed by task id;
/// children are stored in compressed sparse-row form: `targets[offsets[i]..
/// offsets[i + 1]]` are the successors of task `i`, in edge-insertion
/// order (which the replay's FIFO dispatch depends on).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TaskGraph {
    device: Vec<u32>,
    stream: Vec<u8>,
    duration: Vec<TimeNs>,
    kind: Vec<TaskKind>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    num_devices: u32,
}

/// Error lowering an operator graph: an operator was never profiled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MissingProfile;

impl fmt::Display for MissingProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "operator missing from the lookup table; profile necessary operators first")
    }
}

impl std::error::Error for MissingProfile {}

impl TaskGraph {
    /// Lowers an operator graph using the profiled lookup table and the
    /// communication model, pricing every node itself: the independently
    /// priced reference of `lower_slots`.
    ///
    /// # Errors
    ///
    /// Returns [`MissingProfile`] if a compute operator's signature is not
    /// in `table`.
    pub fn lower(
        graph: &OpGraph,
        table: &OperatorTaskTable,
        comm: &CommModel,
    ) -> Result<Self, MissingProfile> {
        let mut tg = TaskGraph { num_devices: graph.num_devices(), ..TaskGraph::default() };
        for node in graph.nodes() {
            let stream = stream_index(node.stream);
            match &node.op {
                Op::Compute(c) => {
                    let profile = table.get(&c.sig).ok_or(MissingProfile)?;
                    let kind = TaskKind::Compute { kernels: profile.kernel_count() as u32 };
                    tg.push_task(node.device, stream, profile.total(), kind);
                }
                Op::Comm(c) => tg.push_task(node.device, stream, comm.latency(c), comm_kind(c)),
            }
        }
        // CSR straight from the graph's per-node child lists.
        tg.offsets.push(0);
        for i in 0..graph.num_nodes() as u32 {
            tg.targets.extend_from_slice(graph.children(i));
            tg.offsets.push(tg.targets.len() as u32);
        }
        Ok(tg)
    }

    /// Lowers `(model, plan)` in one streaming pass that prices nothing:
    /// the builder's nodes go straight into tasks without materializing
    /// an [`OpGraph`], each node taking the latency and kind its slot
    /// records in `priced`, a scratch priced for `(model, plan)`; with
    /// `slots`, each task's slot is pushed onto it, in task order. Given a
    /// slot table priced from the same profiles and communication model,
    /// the graph is identical to
    /// [`TaskGraph::lower`]`(build_op_graph(..), ..)`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`vtrain_graph::build_op_graph`], or if a slot
    /// lies outside `priced`'s slot table.
    pub(crate) fn lower_slots(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        priced: &CompactScratch,
        slots: Option<&mut Vec<u32>>,
    ) -> Self {
        let graph = TaskGraph { num_devices: plan.pipeline() as u32, ..TaskGraph::default() };
        let mut sink = SlotSink { priced, graph, slots, edges: Vec::new() };
        build_op_graph_into(model, plan, opts, &mut sink);
        let SlotSink { mut graph, edges, .. } = sink;
        graph.set_edges(&edges);
        graph
    }

    /// Empties every column for an in-place refill over `num_devices`
    /// devices, keeping the columns' capacity.
    pub(crate) fn clear(&mut self, num_devices: u32) {
        self.device.clear();
        self.stream.clear();
        self.duration.clear();
        self.kind.clear();
        self.offsets.clear();
        self.targets.clear();
        self.num_devices = num_devices;
    }

    /// Appends a task with no edges yet.
    pub(crate) fn push_task(&mut self, device: u32, stream: u8, duration: TimeNs, kind: TaskKind) {
        self.device.push(device);
        self.stream.push(stream);
        self.duration.push(duration);
        self.kind.push(kind);
    }

    /// Replaces the graph's edges with the CSR of `edges`, in place,
    /// preserving per-source insertion order (a counting sort over sources
    /// is stable in edge order).
    pub(crate) fn set_edges(&mut self, edges: &[(u32, u32)]) {
        let (n, offsets, targets) = (self.len(), &mut self.offsets, &mut self.targets);
        offsets.clear();
        offsets.resize(n + 1, 0);
        for &(from, _) in edges {
            offsets[from as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        targets.clear();
        targets.resize(edges.len(), 0);
        for &(from, to) in edges {
            let cursor = &mut offsets[from as usize];
            targets[*cursor as usize] = to;
            *cursor += 1;
        }
        // Each source's cursor now sits at the start of the next source's
        // range: shift them back by one source.
        for i in (1..=n).rev() {
            offsets[i] = offsets[i - 1];
        }
        offsets[0] = 0;
    }

    #[cfg(test)]
    fn assemble(tasks: Vec<Task>, offsets: Vec<u32>, targets: Vec<u32>, num_devices: u32) -> Self {
        let mut tg = TaskGraph { offsets, targets, num_devices, ..TaskGraph::default() };
        for t in tasks {
            tg.push_task(t.device, t.stream, t.duration, t.kind);
        }
        tg
    }

    /// The assembled view of task `i` (cheap: four column reads).
    pub fn task(&self, i: u32) -> Task {
        let i = i as usize;
        Task {
            device: self.device[i],
            stream: self.stream[i],
            duration: self.duration[i],
            kind: self.kind[i],
        }
    }

    /// The duration column, indexed consistently with
    /// [`TaskGraph::children`] — the only per-task attribute the replay
    /// reads per dispatch besides the kind it books.
    pub fn durations(&self) -> &[TimeNs] {
        &self.duration
    }

    /// Replaces each task's duration with `f(task id, duration, kind)`, in
    /// one pass (the measured-mode perturbations).
    pub(crate) fn map_durations(&mut self, f: impl Fn(u32, TimeNs, &TaskKind) -> TimeNs) {
        for (i, (duration, kind)) in self.duration.iter_mut().zip(&self.kind).enumerate() {
            *duration = f(i as u32, *duration, kind);
        }
    }

    /// The task-class column (read by the replay's busy booking and the
    /// measured-mode perturbations).
    pub fn kinds(&self) -> &[TaskKind] {
        &self.kind
    }

    /// The owning-device column.
    pub fn devices(&self) -> &[u32] {
        &self.device
    }

    /// The stream column (0 = compute, 1 = comm).
    pub fn streams(&self) -> &[u8] {
        &self.stream
    }

    /// Successor indices of task `i`.
    pub fn children(&self, i: u32) -> &[u32] {
        let lo = self.offsets[i as usize] as usize;
        let hi = self.offsets[i as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.duration.len()
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.duration.is_empty()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> u32 {
        self.num_devices
    }

    /// True if every per-(device, stream) program is totally ordered by
    /// dependency edges — the structural property under which the FIFO
    /// replay's schedule is fully determined by the DAG alone — the
    /// contract [`simulate`](crate::simulate) requires of its input.
    ///
    /// Verified by an O(edges) scan on every call (graphs the builder
    /// produces always pass): the property is *checked*, never trusted —
    /// in particular it is not persisted, so a deserialized graph cannot
    /// claim it falsely.
    pub fn is_stream_chained(&self) -> bool {
        self.is_stream_chained_with(&mut Vec::new())
    }

    /// [`TaskGraph::is_stream_chained`] over a caller-owned scratch buffer
    /// (cleared and refilled), so repeated checks allocate nothing once
    /// the buffer has grown to the largest graph seen.
    pub fn is_stream_chained_with(&self, last: &mut Vec<Option<u32>>) -> bool {
        let streams = 2 * self.num_devices as usize;
        last.clear();
        last.resize(streams, None);
        for i in 0..self.len() {
            let (device, stream) = (self.device[i], self.stream[i]);
            if stream > 1 || device >= self.num_devices {
                return false;
            }
            let slot = device as usize * 2 + stream as usize;
            if let Some(prev) = last[slot] {
                if !self.children(prev).contains(&(i as u32)) {
                    return false;
                }
            }
            last[slot] = Some(i as u32);
        }
        true
    }

    /// In-degrees (Algorithm 1's `ref` counts), written into `out`
    /// (cleared and refilled — the allocation-free replacement for the
    /// old `in_degrees() -> Vec<u32>` API).
    pub fn fill_in_degrees(&self, out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.len(), 0);
        for &t in &self.targets {
            out[t as usize] += 1;
        }
    }
}

fn stream_index(stream: StreamKind) -> u8 {
    match stream {
        StreamKind::Compute => 0,
        StreamKind::Comm => 1,
    }
}

/// The task kind of communication operator `c`.
pub(crate) fn comm_kind(c: &CommOp) -> TaskKind {
    TaskKind::Comm {
        kind: c.kind,
        scope: c.scope,
        overlappable: c.overlappable,
        concurrent_groups: c.concurrent_groups as u32,
    }
}

/// A [`GraphSink`] writing each builder node as a task priced by its
/// latency slot, and recording the slot if asked to.
struct SlotSink<'a> {
    priced: &'a CompactScratch,
    graph: TaskGraph,
    slots: Option<&'a mut Vec<u32>>,
    edges: Vec<(u32, u32)>,
}

impl GraphSink for SlotSink<'_> {
    fn push(&mut self, node: OpNode, slot: u32) -> u32 {
        let (stream, s) = (stream_index(node.stream), slot as usize);
        let (value, kind) = (self.priced.slot_values()[s], self.priced.task_kind(s));
        self.graph.push_task(node.device, stream, value, kind);
        if let Some(slots) = self.slots.as_deref_mut() {
            slots.push(slot);
        }
        self.graph.len() as u32 - 1
    }

    fn add_edge(&mut self, from: u32, to: u32) {
        self.edges.push((from, to));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vtrain_graph::build_op_graph;
    use vtrain_model::presets;
    use vtrain_parallel::{ClusterSpec, GpuSpec, ParallelConfig};
    use vtrain_profile::Profiler;

    /// A 1 µs single-kernel compute task on device 0's compute stream.
    const UNIT_TASK: Task = Task {
        device: 0,
        stream: 0,
        duration: TimeNs::from_micros(1),
        kind: TaskKind::Compute { kernels: 1 },
    };

    fn lower_plan(t: usize, d: usize, p: usize) -> TaskGraph {
        let model = presets::megatron("1.7B");
        let plan = ParallelConfig::builder()
            .tensor(t)
            .data(d)
            .pipeline(p)
            .global_batch(4 * d)
            .build()
            .unwrap();
        let graph = build_op_graph(&model, &plan, &GraphOptions::default());
        let table = Profiler::new(GpuSpec::a100_40gb()).profile(&graph.necessary_operators());
        let comm = CommModel::new(&ClusterSpec::aws_p4d(64), 1.0);
        TaskGraph::lower(&graph, &table, &comm).unwrap()
    }

    #[test]
    fn lowering_preserves_structure() {
        let model = presets::megatron("1.7B");
        let plan = ParallelConfig::builder()
            .tensor(2)
            .data(2)
            .pipeline(2)
            .global_batch(8)
            .build()
            .unwrap();
        let graph = build_op_graph(&model, &plan, &GraphOptions::default());
        let tg = lower_plan(2, 2, 2);
        assert_eq!(tg.len(), graph.num_nodes());
        assert_eq!(tg.num_devices(), 2);
        assert!(tg.durations().iter().all(|&d| d > TimeNs::ZERO));
        assert!(tg.is_stream_chained(), "builder graphs are chained by construction");
    }

    #[test]
    fn columns_stay_aligned() {
        let tg = lower_plan(2, 2, 2);
        assert_eq!(tg.durations().len(), tg.len());
        assert_eq!(tg.kinds().len(), tg.len());
        assert_eq!(tg.devices().len(), tg.len());
        assert_eq!(tg.streams().len(), tg.len());
        // The assembled view agrees with the columns at every index.
        for i in 0..tg.len() as u32 {
            let t = tg.task(i);
            assert_eq!(t.device, tg.devices()[i as usize]);
            assert_eq!(t.stream, tg.streams()[i as usize]);
            assert_eq!(t.duration, tg.durations()[i as usize]);
            assert_eq!(t.kind, tg.kinds()[i as usize]);
        }
    }

    #[test]
    fn missing_profile_is_an_error() {
        let model = presets::megatron("1.7B");
        let plan = ParallelConfig::builder().global_batch(4).build().unwrap();
        let graph = build_op_graph(&model, &plan, &GraphOptions::default());
        let empty = OperatorTaskTable::new();
        let comm = CommModel::new(&ClusterSpec::aws_p4d(8), 1.0);
        assert_eq!(TaskGraph::lower(&graph, &empty, &comm).unwrap_err(), MissingProfile);
    }

    #[test]
    fn compute_tasks_carry_kernel_counts() {
        let tg = lower_plan(2, 1, 1);
        let max_kernels = tg
            .kinds()
            .iter()
            .filter_map(|k| match k {
                TaskKind::Compute { kernels } => Some(*kernels),
                _ => None,
            })
            .max()
            .unwrap();
        // A backward block with recompute aggregates well over 10 kernels.
        assert!(max_kernels >= 10, "max kernels {max_kernels}");
    }

    #[test]
    fn hand_built_unchained_graph_is_detected() {
        let tg = TaskGraph::assemble(vec![UNIT_TASK, UNIT_TASK], vec![0, 0, 0], vec![], 1);
        assert!(!tg.is_stream_chained());
        // Adding the chain edge restores the property.
        let tg = TaskGraph::assemble(vec![UNIT_TASK, UNIT_TASK], vec![0, 1, 1], vec![1], 1);
        assert!(tg.is_stream_chained());
        let mut deg = Vec::new();
        tg.fill_in_degrees(&mut deg);
        assert_eq!(deg, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "task graph is not stream-chained")]
    fn replaying_an_unchained_graph_panics() {
        // Two tasks on one stream with no edge between them: the replay
        // rejects the graph instead of guessing a stream order.
        let tg = TaskGraph::assemble(vec![UNIT_TASK, UNIT_TASK], vec![0, 0, 0], vec![], 1);
        crate::sim::simulate(&tg, crate::sim::SimMode::Predicted);
    }
}
