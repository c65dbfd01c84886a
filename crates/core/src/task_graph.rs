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
//! Two lowering paths produce identical graphs:
//! * [`TaskGraph::lower`] consumes a materialized [`OpGraph`];
//! * [`TaskGraph::lower_fused`] streams the builder's nodes straight into
//!   tasks via [`GraphSink`], never allocating the operator graph — the
//!   hot path of the staged estimation pipeline.

use std::fmt;

use serde::{Deserialize, Serialize};
use vtrain_graph::{
    build_op_graph_into, CommKind, CommOp, CommScope, GraphOptions, GraphSink, Op, OpGraph, OpNode,
    OpSignature, StreamKind,
};
use vtrain_model::{ModelConfig, TimeNs};
use vtrain_parallel::ParallelConfig;
use vtrain_profile::{CommModel, OperatorTaskTable, ProfileSet};

/// What a task does (drives how the measured-mode perturbations apply).
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
    /// communication model.
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
        let mut cols = Columns::with_capacity(graph.num_nodes());
        for node in graph.nodes() {
            let stream = stream_index(node.stream);
            match &node.op {
                Op::Compute(c) => {
                    let profile = table.get(&c.sig).ok_or(MissingProfile)?;
                    cols.push(
                        node.device,
                        stream,
                        profile.total(),
                        TaskKind::Compute { kernels: profile.kernel_count() as u32 },
                    );
                }
                Op::Comm(c) => {
                    cols.push(node.device, stream, comm.latency(c), comm_kind(c));
                }
            }
        }
        // CSR straight from the graph's per-node child lists.
        let n = graph.num_nodes();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(graph.num_edges());
        offsets.push(0u32);
        for i in 0..n as u32 {
            targets.extend_from_slice(graph.children(i));
            offsets.push(targets.len() as u32);
        }
        Ok(cols.into_graph(offsets, targets, graph.num_devices()))
    }

    /// Lowers `(model, plan)` in one fused pass: the graph builder streams
    /// nodes directly into tasks (profiles resolved from `profiles`,
    /// communication latencies from `comm`) without materializing an
    /// [`OpGraph`]. Produces a graph identical to
    /// [`TaskGraph::lower`]`(build_op_graph(..), ..)`.
    ///
    /// # Errors
    ///
    /// Returns [`MissingProfile`] if a signature the builder emits is
    /// absent from `profiles` (resolve
    /// [`vtrain_graph::plan_signatures`] first).
    ///
    /// # Panics
    ///
    /// Same conditions as [`vtrain_graph::build_op_graph`].
    pub fn lower_fused(
        model: &ModelConfig,
        plan: &ParallelConfig,
        opts: &GraphOptions,
        profiles: &ProfileSet,
        comm: &CommModel,
    ) -> Result<Self, MissingProfile> {
        let mut sink = LoweringSink {
            profiles,
            comm,
            sig_memo: Vec::with_capacity(16),
            comm_memo: Vec::with_capacity(8),
            cols: Columns::with_capacity(0),
            edges: Vec::new(),
            num_devices: plan.pipeline() as u32,
            missing: false,
        };
        build_op_graph_into(model, plan, opts, &mut sink);
        if sink.missing {
            return Err(MissingProfile);
        }
        let LoweringSink { cols, edges, num_devices, .. } = sink;
        // CSR from the flat edge list, preserving per-source insertion
        // order (a counting sort over sources is stable in edge order).
        let n = cols.len();
        let mut counts = vec![0u32; n + 1];
        for &(from, _) in &edges {
            counts[from as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0u32; edges.len()];
        for &(from, to) in &edges {
            let slot = &mut cursor[from as usize];
            targets[*slot as usize] = to;
            *slot += 1;
        }
        Ok(cols.into_graph(offsets, targets, num_devices))
    }

    #[cfg(test)]
    fn assemble(tasks: Vec<Task>, offsets: Vec<u32>, targets: Vec<u32>, num_devices: u32) -> Self {
        let mut cols = Columns::with_capacity(tasks.len());
        for t in tasks {
            cols.push(t.device, t.stream, t.duration, t.kind);
        }
        cols.into_graph(offsets, targets, num_devices)
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

    /// The clean-duration column, indexed consistently with
    /// [`TaskGraph::children`] — the only per-task attribute the
    /// predicted-mode replay reads per dispatch.
    pub fn durations(&self) -> &[TimeNs] {
        &self.duration
    }

    /// The task-class column (read by the measured-mode perturbations and
    /// the timeline labeler).
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

/// The growing column set of a lowering in progress.
struct Columns {
    device: Vec<u32>,
    stream: Vec<u8>,
    duration: Vec<TimeNs>,
    kind: Vec<TaskKind>,
}

impl Columns {
    fn with_capacity(n: usize) -> Self {
        Columns {
            device: Vec::with_capacity(n),
            stream: Vec::with_capacity(n),
            duration: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
        }
    }

    fn push(&mut self, device: u32, stream: u8, duration: TimeNs, kind: TaskKind) {
        self.device.push(device);
        self.stream.push(stream);
        self.duration.push(duration);
        self.kind.push(kind);
    }

    fn len(&self) -> usize {
        self.duration.len()
    }

    fn into_graph(self, offsets: Vec<u32>, targets: Vec<u32>, num_devices: u32) -> TaskGraph {
        TaskGraph {
            device: self.device,
            stream: self.stream,
            duration: self.duration,
            kind: self.kind,
            offsets,
            targets,
            num_devices,
        }
    }
}

fn stream_index(stream: StreamKind) -> u8 {
    match stream {
        StreamKind::Compute => 0,
        StreamKind::Comm => 1,
    }
}

fn comm_kind(c: &CommOp) -> TaskKind {
    TaskKind::Comm {
        kind: c.kind,
        scope: c.scope,
        overlappable: c.overlappable,
        concurrent_groups: c.concurrent_groups as u32,
    }
}

/// A [`GraphSink`] mapping builder nodes straight to task columns.
///
/// Profile and communication-latency lookups are memoized in tiny
/// linear-scan tables: one plan touches ≲ a dozen distinct compute
/// signatures and a handful of distinct communication shapes, and a short
/// `Vec` probe beats hashing an 80-byte signature per node.
struct LoweringSink<'a> {
    profiles: &'a ProfileSet,
    comm: &'a CommModel,
    sig_memo: Vec<(OpSignature, TimeNs, u32)>,
    comm_memo: Vec<(CommOp, TimeNs)>,
    cols: Columns,
    edges: Vec<(u32, u32)>,
    num_devices: u32,
    missing: bool,
}

impl LoweringSink<'_> {
    fn compute_latency(&mut self, sig: &OpSignature) -> (TimeNs, u32) {
        if let Some(&(_, total, kernels)) =
            self.sig_memo.iter().find(|(cached, _, _)| cached == sig)
        {
            return (total, kernels);
        }
        let (total, kernels) = match self.profiles.lookup(sig) {
            Some(hit) => hit,
            None => {
                self.missing = true;
                (TimeNs::ZERO, 0)
            }
        };
        self.sig_memo.push((*sig, total, kernels));
        (total, kernels)
    }

    fn comm_latency(&mut self, op: &CommOp) -> TimeNs {
        if let Some(&(_, latency)) = self.comm_memo.iter().find(|(cached, _)| cached == op) {
            return latency;
        }
        let latency = self.comm.latency(op);
        self.comm_memo.push((*op, latency));
        latency
    }
}

impl GraphSink for LoweringSink<'_> {
    fn push(&mut self, node: OpNode) -> u32 {
        let stream = stream_index(node.stream);
        let idx = self.cols.len() as u32;
        match &node.op {
            Op::Compute(c) => {
                let (duration, kernels) = self.compute_latency(&c.sig);
                self.cols.push(node.device, stream, duration, TaskKind::Compute { kernels });
            }
            Op::Comm(c) => {
                let latency = self.comm_latency(c);
                self.cols.push(node.device, stream, latency, comm_kind(c));
            }
        }
        idx
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
    use vtrain_profile::{ProfileCache, Profiler};

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
        // The fused path reports the same error for an empty profile set.
        let err = TaskGraph::lower_fused(
            &model,
            &plan,
            &GraphOptions::default(),
            &ProfileSet::default(),
            &comm,
        )
        .unwrap_err();
        assert_eq!(err, MissingProfile);
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
    fn fused_lowering_is_identical_to_two_phase() {
        let model = presets::megatron("1.7B");
        let cluster = ClusterSpec::aws_p4d(64);
        let comm = CommModel::new(&cluster, 1.0);
        let cache = ProfileCache::new();
        let profiler = Profiler::new(cluster.gpu.clone());
        for (t, d, p, m, b) in [(1, 1, 1, 1, 4), (2, 2, 2, 1, 8), (2, 4, 3, 2, 16)] {
            let plan = ParallelConfig::builder()
                .tensor(t)
                .data(d)
                .pipeline(p)
                .micro_batch(m)
                .global_batch(b)
                .build()
                .unwrap();
            let opts = GraphOptions::default();
            let graph = build_op_graph(&model, &plan, &opts);
            let table = profiler.profile(&graph.necessary_operators());
            let two_phase = TaskGraph::lower(&graph, &table, &comm).unwrap();

            let sigs = vtrain_graph::plan_signatures(&model, &plan, &opts);
            let profiles = cache.resolve(&profiler, &sigs);
            let fused = TaskGraph::lower_fused(&model, &plan, &opts, &profiles, &comm).unwrap();

            assert_eq!(fused.len(), two_phase.len());
            assert_eq!(fused.num_devices(), two_phase.num_devices());
            assert!(fused.is_stream_chained());
            for i in 0..fused.len() as u32 {
                let (a, b) = (fused.task(i), two_phase.task(i));
                assert_eq!(
                    (a.device, a.stream, a.duration, a.kind),
                    (b.device, b.stream, b.duration, b.kind)
                );
                assert_eq!(fused.children(i), two_phase.children(i), "children of {i}");
            }
        }
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
