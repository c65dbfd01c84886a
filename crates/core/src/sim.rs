//! Algorithm 1: estimating single-iteration training time by replaying the
//! task-granularity execution graph over per-GPU timelines.
//!
//! The replay's contract is a [stream-chained](TaskGraph::is_stream_chained)
//! graph: each task depends on the task before it on its (device, stream).
//! Every graph the builder emits is chained, and on a chained graph the
//! paper's FIFO ready queue cannot influence any start time — a task's
//! stream is free by the time its dependencies are met. So the replay is a
//! dataflow longest-path relaxation over the DAG, with no stream timelines:
//! the loop of [`crate::flow_replay`], which every replay of a task graph
//! runs, here with no network. This module holds the replay's public
//! entry points and report types, and the literal FIFO transcription of
//! the pseudocode, kept as the test oracle every replay path is proven
//! bit-identical to.

use serde::{Deserialize, Serialize};
use vtrain_gpu::NoiseModel;
use vtrain_graph::{CommKind, CommScope};
use vtrain_model::TimeNs;

pub use crate::flow_replay::SimScratch;
use crate::flow_replay::{replay, Programs};
use crate::task_graph::{TaskGraph, TaskKind};

/// Execution mode of the replay.
#[derive(Clone, Copy, Debug)]
pub enum SimMode<'a> {
    /// Clean lookup-table replay — vTrain's prediction.
    Predicted,
    /// Ground-truth emulation standing in for a real measured run: applies
    /// the [`NoiseModel`]'s launch overheads, jitter, contention inflation,
    /// interference, and straggler effects.
    Measured {
        /// The fidelity layer.
        noise: &'a NoiseModel,
        /// Server nodes occupied by the plan (straggler pool size).
        nodes: usize,
    },
}

/// Busy-time totals summed across all simulated devices, by category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusyBreakdown {
    /// Compute-kernel time.
    pub compute: TimeNs,
    /// Tensor-parallel All-Reduce time (on the critical compute stream).
    pub tp_comm: TimeNs,
    /// Data-parallel gradient All-Reduce time (comm stream).
    pub dp_comm: TimeNs,
    /// Pipeline Send-Receive time (comm stream).
    pub pp_comm: TimeNs,
}

impl BusyBreakdown {
    /// All communication categories combined.
    pub fn total_comm(&self) -> TimeNs {
        self.tp_comm + self.dp_comm + self.pp_comm
    }
}

/// Result of one replay.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimReport {
    /// Predicted (or emulated) single-iteration training time — the maximum
    /// over all device timelines (Algorithm 1 line 22).
    pub iteration_time: TimeNs,
    /// Busy time by category, summed over devices.
    pub busy: BusyBreakdown,
    /// Per-device compute-stream busy time (bubble analysis).
    pub device_busy: Vec<TimeNs>,
    /// Number of tasks replayed.
    pub tasks_executed: usize,
}

impl SimReport {
    /// Mean fraction of wall-clock time each device's compute stream was
    /// busy (1 − pipeline-bubble fraction).
    pub fn mean_device_occupancy(&self) -> f64 {
        if self.device_busy.is_empty() || self.iteration_time == TimeNs::ZERO {
            return 0.0;
        }
        let total: f64 = self.device_busy.iter().map(|t| t.as_secs_f64()).sum();
        total / (self.device_busy.len() as f64 * self.iteration_time.as_secs_f64())
    }
}

/// Replays the task graph (Algorithm 1 of the paper).
///
/// Tasks are dispatched in FIFO order of becoming ready, seeded with all
/// zero-dependency tasks; each task starts at the later of its stream's
/// availability and its dependencies' completion; finishing a task releases
/// its children. The per-device compute and communication streams advance
/// independently, modeling computation/communication overlap (Fig. 5).
///
/// The graph must be [stream-chained](TaskGraph::is_stream_chained), as
/// everything the graph builder produces is. Then a task's stream is free
/// whenever its dependencies are, and the replay runs as a dataflow
/// relaxation bit-identical to the paper's FIFO queue (see the differential
/// property test). It is the same loop every fair-sharing replay runs,
/// with every task at a fixed duration. In Measured mode it replays a copy
/// of the graph whose durations carry the noise.
///
/// # Panics
///
/// Panics if the graph is not stream-chained (a deserialized or
/// hand-built graph can break the contract), or if it contains a
/// dependency cycle (some task never becomes ready).
pub fn simulate(graph: &TaskGraph, mode: SimMode<'_>) -> SimReport {
    let mut report = SimReport::default();
    simulate_into(graph, mode, &mut SimScratch::default(), &mut report);
    report
}

/// [`simulate`] over caller-owned scratch buffers, writing the result into
/// `report` (whose `device_busy` vector is reused). In Predicted mode,
/// repeated calls on graphs of non-increasing size perform no heap
/// allocation; Measured mode copies the graph to perturb its durations.
///
/// # Panics
///
/// As [`simulate`]: on a graph that is not stream-chained or has a cycle.
pub fn simulate_into(
    graph: &TaskGraph,
    mode: SimMode<'_>,
    scratch: &mut SimScratch,
    report: &mut SimReport,
) {
    scratch.assert_chained(graph);
    let noisy;
    let graph = match mode {
        SimMode::Predicted => graph,
        SimMode::Measured { .. } => {
            noisy = with_noise(graph.clone(), mode);
            &noisy
        }
    };
    replay(graph, Programs::Fixed, None, None, scratch, report);
}

/// `graph` with each task's duration perturbed under `mode`, in one pass
/// keyed on task ids ([`effective_duration`]).
pub(crate) fn with_noise(mut graph: TaskGraph, mode: SimMode<'_>) -> TaskGraph {
    graph.map_durations(|id, clean, kind| effective_duration(id, clean, kind, &mode));
    graph
}

/// Applies the mode's perturbations to one task's clean duration.
pub(crate) fn effective_duration(
    task_id: u32,
    clean: TimeNs,
    kind: &TaskKind,
    mode: &SimMode<'_>,
) -> TimeNs {
    match mode {
        SimMode::Predicted => clean,
        SimMode::Measured { noise, nodes } => match *kind {
            TaskKind::Compute { kernels } => {
                let extra_launches = kernels.saturating_sub(1) as u64;
                noise.compute_time(task_id as u64, clean)
                    + TimeNs::from_nanos(noise.config().launch_overhead.as_nanos() * extra_launches)
            }
            TaskKind::Comm { kind, scope, overlappable, concurrent_groups } => {
                // TP All-Reduces interleave with the surrounding kernels
                // (the paper's dominant single-node error source); bucketed
                // DP All-Reduces overlap backward compute.
                let overlaps = matches!(kind, CommKind::TpAllReduce) || overlappable;
                let mut t =
                    noise.comm_time(task_id as u64, clean, overlaps, concurrent_groups as usize);
                if kind == CommKind::DpAllReduce && scope == CommScope::InterNode {
                    // Synchronization across nodes is paced by stragglers.
                    t = t.scale(noise.sync_straggler_factor((*nodes).min(64)));
                }
                t
            }
        },
    }
}

/// The paper's pseudocode transcribed literally — a FIFO ready queue over
/// per-(device, stream) availability (the pre-columnar implementation) —
/// kept as the golden reference every full-graph replay is tested against:
/// it walks the
/// CSR through the assembled per-task [`TaskGraph::task`] view (the old
/// array-of-structs access pattern), so any misalignment the column split
/// could introduce shows up as a report divergence here.
#[cfg(test)]
fn simulate_reference(graph: &TaskGraph, mode: SimMode<'_>) -> SimReport {
    use std::collections::VecDeque;

    let n = graph.len();
    let mut in_degree = Vec::new();
    graph.fill_in_degrees(&mut in_degree);
    let mut ready_at = vec![TimeNs::ZERO; n];
    let mut stream_avail = vec![[TimeNs::ZERO; 2]; graph.num_devices() as usize];
    let mut device_busy = vec![TimeNs::ZERO; graph.num_devices() as usize];

    let mut queue: VecDeque<u32> = (0..n as u32).filter(|&i| in_degree[i as usize] == 0).collect();

    let mut report = SimReport::default();
    let mut executed = 0usize;

    while let Some(u) = queue.pop_front() {
        let task = graph.task(u);
        let duration = effective_duration(u, task.duration, &task.kind, &mode);
        let dev = task.device as usize;
        let stream = task.stream as usize;
        let start = ready_at[u as usize].max(stream_avail[dev][stream]);
        let finish = start + duration;
        stream_avail[dev][stream] = finish;
        report.iteration_time = report.iteration_time.max(finish);

        match task.kind {
            TaskKind::Compute { .. } => {
                report.busy.compute += duration;
                device_busy[dev] += duration;
            }
            TaskKind::Comm { kind, .. } => match kind {
                CommKind::TpAllReduce => {
                    report.busy.tp_comm += duration;
                    device_busy[dev] += duration;
                }
                CommKind::DpAllReduce => report.busy.dp_comm += duration,
                CommKind::PpSendRecv => report.busy.pp_comm += duration,
            },
        }

        for &c in graph.children(u) {
            ready_at[c as usize] = ready_at[c as usize].max(finish);
            in_degree[c as usize] -= 1;
            if in_degree[c as usize] == 0 {
                queue.push_back(c);
            }
        }
        executed += 1;
    }

    assert_eq!(executed, n, "task graph contains a cycle: {} of {n} tasks ran", executed);
    report.tasks_executed = executed;
    report.device_busy = device_busy;
    report
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use vtrain_gpu::NoiseConfig;
    use vtrain_graph::{build_op_graph, GraphOptions};
    use vtrain_model::presets;
    use vtrain_parallel::{ClusterSpec, GpuSpec, ParallelConfig, PipelineSchedule};
    use vtrain_profile::{CommModel, OperatorTaskTable, Profiler};

    use super::*;
    use crate::compact::{lower_plan, price_plan, replay_lowered, CompactScratch};

    fn plan(
        t: usize,
        d: usize,
        p: usize,
        m: usize,
        b: usize,
        sched: PipelineSchedule,
        bucketing: bool,
    ) -> ParallelConfig {
        ParallelConfig::builder()
            .tensor(t)
            .data(d)
            .pipeline(p)
            .micro_batch(m)
            .global_batch(b)
            .schedule(sched)
            .gradient_bucketing(bucketing)
            .build()
            .unwrap()
    }

    /// The 1.7B model's task graph under `plan`, with the profiles and the
    /// communication model it was lowered with.
    fn lower_with(plan: &ParallelConfig) -> (TaskGraph, OperatorTaskTable, CommModel) {
        let model = presets::megatron("1.7B");
        let graph = build_op_graph(&model, plan, &GraphOptions::default());
        let table = Profiler::new(GpuSpec::a100_40gb()).profile(&graph.necessary_operators());
        let comm = CommModel::new(&ClusterSpec::aws_p4d(256), 1.0);
        (TaskGraph::lower(&graph, &table, &comm).unwrap(), table, comm)
    }

    fn lower(
        t: usize,
        d: usize,
        p: usize,
        m: usize,
        b: usize,
        sched: PipelineSchedule,
        bucketing: bool,
    ) -> TaskGraph {
        lower_with(&plan(t, d, p, m, b, sched, bucketing)).0
    }

    fn assert_reports_identical(a: &SimReport, b: &SimReport) {
        let nanos =
            |b: &BusyBreakdown| [b.compute, b.tp_comm, b.dp_comm, b.pp_comm].map(|t| t.as_nanos());
        let device = |r: &SimReport| r.device_busy.iter().map(|t| t.as_nanos()).collect::<Vec<_>>();
        assert_eq!(a.iteration_time.as_nanos(), b.iteration_time.as_nanos());
        assert_eq!(nanos(&a.busy), nanos(&b.busy));
        assert_eq!(device(a), device(b));
        assert_eq!(a.tasks_executed as u64, b.tasks_executed as u64);
    }
    #[test]
    fn replay_is_deterministic() {
        let tg = lower(2, 2, 2, 1, 8, PipelineSchedule::OneFOneB, true);
        let a = simulate(&tg, SimMode::Predicted);
        let b = simulate(&tg, SimMode::Predicted);
        assert_eq!(a.iteration_time, b.iteration_time);
        assert_eq!(a.busy, b.busy);
    }

    #[test]
    fn two_runs_produce_bit_identical_reports() {
        // Regression test for replay-ordering nondeterminism: the whole
        // serialized report must match byte for byte run-to-run. Repeating
        // within one process alone proves little, so each run is
        // additionally pinned to the reference VecDeque replay — a
        // genuinely FIFO structure.
        let tg = lower(2, 2, 2, 1, 8, PipelineSchedule::OneFOneB, true);
        let noise = NoiseModel::new(NoiseConfig::default());
        for mode in [SimMode::Predicted, SimMode::Measured { noise: &noise, nodes: 2 }] {
            let a = simulate(&tg, mode);
            let b = simulate(&tg, mode);
            assert_reports_identical(&a, &simulate_reference(&tg, mode));
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "serialized SimReports must be bit-identical"
            );
        }
    }

    #[test]
    fn iteration_time_bounds() {
        let tg = lower(2, 2, 2, 1, 8, PipelineSchedule::OneFOneB, true);
        let r = simulate(&tg, SimMode::Predicted);
        assert_eq!(r.tasks_executed, tg.len());
        // Never below the busiest device, never above the serial sum.
        let serial: TimeNs = tg.durations().iter().copied().sum();
        let busiest = r.device_busy.iter().copied().max().unwrap();
        assert!(r.iteration_time >= busiest);
        assert!(r.iteration_time <= serial);
        assert!(r.mean_device_occupancy() > 0.0 && r.mean_device_occupancy() <= 1.0);
    }

    #[test]
    fn single_device_graph_time_is_serial_sum_of_compute_stream() {
        // p = 1, d = 1: everything serializes on one compute stream.
        let tg = lower(2, 1, 1, 1, 4, PipelineSchedule::OneFOneB, true);
        let r = simulate(&tg, SimMode::Predicted);
        let serial: TimeNs = tg.durations().iter().copied().sum();
        assert_eq!(r.iteration_time, serial);
    }

    #[test]
    fn more_micro_batches_shrink_pipeline_bubble() {
        // Same total work (B constant), more micro-batches ⇒ smaller bubble
        // fraction under GPipe (§II-B).
        let few =
            simulate(&lower(1, 1, 4, 8, 16, PipelineSchedule::GPipe, true), SimMode::Predicted);
        let many =
            simulate(&lower(1, 1, 4, 1, 16, PipelineSchedule::GPipe, true), SimMode::Predicted);
        assert!(
            many.mean_device_occupancy() > few.mean_device_occupancy(),
            "16 micro-batches should fill the pipeline better than 2"
        );
    }

    #[test]
    fn one_f_one_b_no_slower_than_gpipe() {
        let gpipe =
            simulate(&lower(1, 1, 4, 1, 16, PipelineSchedule::GPipe, true), SimMode::Predicted);
        let fb =
            simulate(&lower(1, 1, 4, 1, 16, PipelineSchedule::OneFOneB, true), SimMode::Predicted);
        // Equal-bubble in the ideal model; 1F1B must never be slower.
        assert!(fb.iteration_time <= gpipe.iteration_time.scale(1.001));
    }

    #[test]
    fn bucketing_overlap_helps_or_ties() {
        let with =
            simulate(&lower(1, 8, 1, 1, 16, PipelineSchedule::OneFOneB, true), SimMode::Predicted);
        let without =
            simulate(&lower(1, 8, 1, 1, 16, PipelineSchedule::OneFOneB, false), SimMode::Predicted);
        assert!(
            with.iteration_time <= without.iteration_time,
            "gradient bucketing must not slow the iteration: {} vs {}",
            with.iteration_time,
            without.iteration_time
        );
    }

    #[test]
    fn measured_mode_is_slower_than_predicted() {
        let tg = lower(4, 2, 2, 1, 8, PipelineSchedule::OneFOneB, true);
        let predicted = simulate(&tg, SimMode::Predicted);
        let noise = NoiseModel::new(NoiseConfig::default());
        let measured = simulate(&tg, SimMode::Measured { noise: &noise, nodes: 2 });
        assert!(
            measured.iteration_time > predicted.iteration_time,
            "launch overhead + contention must inflate the measured run"
        );
        // ... but within a sane envelope (< 2×).
        assert!(measured.iteration_time < predicted.iteration_time.scale(2.0));
    }

    #[test]
    fn measured_mode_is_deterministic() {
        let tg = lower(4, 2, 2, 1, 8, PipelineSchedule::OneFOneB, true);
        let noise = NoiseModel::new(NoiseConfig::default());
        let a = simulate(&tg, SimMode::Measured { noise: &noise, nodes: 2 });
        let b = simulate(&tg, SimMode::Measured { noise: &noise, nodes: 2 });
        assert_eq!(a.iteration_time, b.iteration_time);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        /// Golden equivalence of every replay path: on sampled
        /// `(t, d, p, m)` design points, each reproduces the literal FIFO
        /// pseudocode *exactly* in `u64` — iteration time, busy breakdown,
        /// per-device busy vectors and task count:
        /// * the dataflow replay, in Predicted and Measured mode;
        /// * the same loop with a network but no flow program (Predicted
        ///   only: a replay with a network keeps clean durations);
        /// * the closed-form compact walk of the same plan and profiles.
        ///   With two micro-batches or fewer it walks every copy; with six
        ///   or more (and `p` ≤ 4) a section's common shift shows before
        ///   its last copy and it jumps. Each case asserts its arm, so
        ///   both are exercised.
        #[test]
        fn full_graph_replays_match_the_reference_exactly(
            t_exp in 0usize..=1,
            d_exp in 0usize..=1,
            p_exp in 0usize..=2,
            m_exp in 0usize..=1,
            n_pick in (proptest::bool::ANY, 1usize..=2, 6usize..=12),
            flags in 0u32..4,
        ) {
            let (gpipe, bucketing) = (flags & 1 != 0, flags & 2 != 0);
            let (t, d, p, m) = (1usize << t_exp, 1 << d_exp, 1 << p_exp, 1 << m_exp);
            let (long, short, many) = n_pick;
            let n_micro = if long { many } else { short };
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let plan = plan(t, d, p, m, d * m * n_micro, sched, bucketing);
            let (tg, mut table, comm) = lower_with(&plan);
            assert!(tg.is_stream_chained(), "builder graphs are stream-chained");

            let noise = NoiseModel::new(NoiseConfig::default());
            let measured = SimMode::Measured { noise: &noise, nodes: (t * d * p).div_ceil(8) };
            for mode in [SimMode::Predicted, measured] {
                assert_reports_identical(&simulate(&tg, mode), &simulate_reference(&tg, mode));
            }

            let legacy = simulate_reference(&tg, SimMode::Predicted);
            let topology = ClusterSpec::aws_p4d(256).topology(1.0);
            let no_flow = vec![0; tg.len()];
            let mut flows = SimReport::default();
            let programs =
                Programs::Indexed { topology: &topology, table: &[None], index: &no_flow };
            replay(&tg, programs, None, None, &mut SimScratch::default(), &mut flows);
            assert_reports_identical(&flows, &legacy);

            let mut compact = CompactScratch::default();
            let (model, opts) = (presets::megatron("1.7B"), GraphOptions::default());
            price_plan(&model, &plan, &opts, &mut table, &comm, &mut compact);
            lower_plan(&model, &plan, &opts, &mut compact);
            let mut walk = SimReport::default();
            replay_lowered(&mut compact, p, &mut walk);
            assert_reports_identical(&walk, &legacy);
            let (walked, total) = compact.periods();
            assert_eq!(walked < total, long, "walked {walked} of {total} copies");
        }

        /// Tracing is pure observation: a traced replay produces a
        /// `SimReport` bit-identical to the untraced one, and the spans
        /// themselves are consistent — exactly one per task, each
        /// `finish − start` equal to the task's effective duration, and
        /// the latest finish equal to the iteration time. In Measured
        /// mode the traced replay runs the graph carrying the noise.
        #[test]
        fn tracing_never_changes_the_report(
            t_exp in 0usize..=1,
            d_exp in 0usize..=1,
            p_exp in 0usize..=2,
            m_exp in 0usize..=1,
            gpipe in proptest::bool::ANY,
            bucketing in proptest::bool::ANY,
        ) {
            let (t, d, p, m) = (1usize << t_exp, 1 << d_exp, 1 << p_exp, 1 << m_exp);
            let b = d * m * 4;
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let tg = lower(t, d, p, m, b, sched, bucketing);

            let noise = NoiseModel::new(NoiseConfig::default());
            for mode in [
                SimMode::Predicted,
                SimMode::Measured { noise: &noise, nodes: (t * d * p).div_ceil(8) },
            ] {
                let plain = simulate(&tg, mode);
                let noisy = with_noise(tg.clone(), mode);
                let mut spans: Vec<(u32, TimeNs, TimeNs)> = Vec::new();
                let mut traced = SimReport::default();
                let mut record = |id: u32, start: TimeNs, finish: TimeNs| {
                    spans.push((id, start, finish));
                };
                let scratch = &mut SimScratch::default();
                replay(&noisy, Programs::Fixed, Some(&mut record), None, scratch, &mut traced);
                assert_eq!(
                    serde_json::to_string(&plain).unwrap(),
                    serde_json::to_string(&traced).unwrap(),
                    "tracing must not perturb the report"
                );
                assert_eq!(spans.len(), tg.len(), "one span per task");
                let mut seen = vec![false; tg.len()];
                let mut max_finish = TimeNs::ZERO;
                for &(id, start, finish) in &spans {
                    assert!(!std::mem::replace(&mut seen[id as usize], true));
                    let task = tg.task(id);
                    let dur = effective_duration(id, task.duration, &task.kind, &mode);
                    assert_eq!(finish, start + dur);
                    max_finish = max_finish.max(finish);
                }
                assert_eq!(max_finish, traced.iteration_time);
            }
        }
    }
}
