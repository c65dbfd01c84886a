//! Algorithm 1: estimating single-iteration training time by replaying the
//! task-granularity execution graph over per-GPU timelines.
//!
//! The replay's contract is a [stream-chained](TaskGraph::is_stream_chained)
//! graph: each task depends on the task before it on its (device, stream).
//! Every graph the builder emits is chained, and on a chained graph the
//! paper's FIFO ready queue cannot influence any start time — a task's
//! stream is free by the time its dependencies are met. So the replay is a
//! dataflow longest-path relaxation over the DAG, with no stream timelines,
//! and a literal FIFO transcription of the pseudocode stays behind as the
//! test oracle it is proven bit-identical to.

use serde::{Deserialize, Serialize};
use vtrain_gpu::NoiseModel;
use vtrain_graph::{CommKind, CommScope};
use vtrain_model::TimeNs;

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

/// Per-task observer of a traced replay: `(task id, start, finish)` on
/// the simulated clock, invoked once per executed task.
pub type TaskTrace<'t> = &'t mut dyn FnMut(u32, TimeNs, TimeNs);

/// Reusable buffers of the replay — Algorithm 1's `ref`/`ready` arrays,
/// the dataflow traversal stack and the chain-check scratch. Repeated
/// replays through one scratch perform no per-graph heap allocation once
/// the buffers have grown to the largest graph.
#[derive(Default)]
pub struct SimScratch {
    in_degree: Vec<u32>,
    ready_at: Vec<TimeNs>,
    stack: Vec<u32>,
    chain_last: Vec<Option<u32>>,
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
/// property test).
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
/// `report` (whose `device_busy` vector is reused). Repeated calls on
/// graphs of non-increasing size perform no heap allocation.
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
    simulate_into_with(graph, mode, scratch, report, None);
}

/// [`simulate_into`] with a per-task observer: `trace` is called once per
/// executed task with `(task id, start, finish)` on the simulated clock.
///
/// Tracing is observation only — the report is bit-identical to the
/// untraced replay (pinned by a property test). Task ids index the
/// graph's columns, which for [`TaskGraph::lower`]ed graphs also
/// index the originating `OpGraph`'s nodes, so a caller can join spans
/// back to operator names — the timeline exporter's labeling path.
///
/// # Panics
///
/// As [`simulate`]: on a graph that is not stream-chained or has a cycle.
pub fn simulate_into_traced(
    graph: &TaskGraph,
    mode: SimMode<'_>,
    scratch: &mut SimScratch,
    report: &mut SimReport,
    trace: TaskTrace<'_>,
) {
    simulate_into_with(graph, mode, scratch, report, Some(trace));
}

/// The replay proper: longest-path relaxation over the DAG.
///
/// Correctness argument. On a stream-chained graph, tasks reserve each
/// (device, stream) timeline in chain order, and a task's chain
/// predecessor is one of its dependency parents. At the moment task `u`
/// reserves its stream, the stream's availability equals its chain
/// predecessor's finish — which `ready_at[u] = max(parent finishes)`
/// already includes. So `start(u) = max(ready_at, avail) = ready_at[u]`:
/// the FIFO dispatch order cannot influence any start time, and every
/// quantity the report aggregates (max finish, commutative busy sums) is
/// traversal-order independent. Hence this traversal — plain Kahn with a
/// stack — reproduces the FIFO replay bit for bit.
fn simulate_into_with(
    graph: &TaskGraph,
    mode: SimMode<'_>,
    scratch: &mut SimScratch,
    report: &mut SimReport,
    mut trace: Option<TaskTrace<'_>>,
) {
    assert!(
        graph.is_stream_chained_with(&mut scratch.chain_last),
        "task graph is not stream-chained: each task must depend on the previous task on its \
         (device, stream)"
    );
    report.device_busy.clear();
    report.device_busy.resize(graph.num_devices() as usize, TimeNs::ZERO);
    let n = graph.len();
    graph.fill_in_degrees(&mut scratch.in_degree);
    let in_degree = &mut scratch.in_degree;
    scratch.ready_at.clear();
    scratch.ready_at.resize(n, TimeNs::ZERO);
    let ready_at = &mut scratch.ready_at;
    let device_busy = &mut report.device_busy;
    let mut busy = BusyBreakdown::default();
    let mut iteration_time = TimeNs::ZERO;
    let mut executed = 0usize;

    // The hot loop reads the duration/kind/device columns directly; the
    // stream column is untouched here (chained graphs need no stream
    // availability — see the correctness argument above).
    let durations = graph.durations();
    let kinds = graph.kinds();
    let devices = graph.devices();

    scratch.stack.clear();
    scratch.stack.extend((0..n as u32).filter(|&i| in_degree[i as usize] == 0));
    let stack = &mut scratch.stack;
    while let Some(u) = stack.pop() {
        let duration = effective_duration(u, durations[u as usize], &kinds[u as usize], &mode);
        // On a stream-chained graph start(u) == ready_at[u] (see the
        // correctness argument above), so the trace can report exact
        // start/finish without consulting stream availability.
        let finish = ready_at[u as usize] + duration;
        iteration_time = iteration_time.max(finish);
        if let Some(trace) = trace.as_mut() {
            trace(u, ready_at[u as usize], finish);
        }

        let dev = devices[u as usize] as usize;
        match kinds[u as usize] {
            TaskKind::Compute { .. } => {
                busy.compute += duration;
                device_busy[dev] += duration;
            }
            TaskKind::Comm { kind, .. } => match kind {
                CommKind::TpAllReduce => {
                    busy.tp_comm += duration;
                    device_busy[dev] += duration;
                }
                CommKind::DpAllReduce => busy.dp_comm += duration,
                CommKind::PpSendRecv => busy.pp_comm += duration,
            },
        }

        for &c in graph.children(u) {
            ready_at[c as usize] = ready_at[c as usize].max(finish);
            in_degree[c as usize] -= 1;
            if in_degree[c as usize] == 0 {
                stack.push(c);
            }
        }
        executed += 1;
    }

    assert_eq!(executed, n, "task graph contains a cycle: {executed} of {n} tasks ran");
    report.iteration_time = iteration_time;
    report.busy = busy;
    report.tasks_executed = executed;
}

/// Applies the mode's perturbations to one task's clean duration.
fn effective_duration(task_id: u32, clean: TimeNs, kind: &TaskKind, mode: &SimMode<'_>) -> TimeNs {
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
    use vtrain_profile::{CommModel, Profiler};

    use super::*;
    use crate::flow_replay::simulate_flows;

    fn lower(
        t: usize,
        d: usize,
        p: usize,
        m: usize,
        b: usize,
        sched: PipelineSchedule,
        bucketing: bool,
    ) -> TaskGraph {
        let model = presets::megatron("1.7B");
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
        let graph = build_op_graph(&model, &plan, &GraphOptions::default());
        let table = Profiler::new(GpuSpec::a100_40gb()).profile(&graph.necessary_operators());
        let comm = CommModel::new(&ClusterSpec::aws_p4d(256), 1.0);
        TaskGraph::lower(&graph, &table, &comm).unwrap()
    }

    fn assert_reports_identical(a: &SimReport, b: &SimReport) {
        assert_eq!(a.iteration_time, b.iteration_time);
        assert_eq!(a.busy, b.busy);
        assert_eq!(a.device_busy, b.device_busy);
        assert_eq!(a.tasks_executed, b.tasks_executed);
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

        /// Golden equivalence of the full-graph replays: on sampled
        /// `(t, d, p, m)` design points, the dataflow replay reproduces the
        /// literal FIFO pseudocode *exactly* — iteration time, busy
        /// breakdown, per-device busy vectors — in both Predicted and
        /// Measured modes, and so does the fair-sharing replay when no task
        /// carries a flow program (Predicted only: it replays clean
        /// durations).
        #[test]
        fn full_graph_replays_match_the_reference_exactly(
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
            assert!(tg.is_stream_chained(), "builder graphs are stream-chained");

            let legacy = simulate_reference(&tg, SimMode::Predicted);
            assert_reports_identical(&simulate(&tg, SimMode::Predicted), &legacy);
            let topology = ClusterSpec::aws_p4d(256).topology(1.0);
            let flows = simulate_flows(&tg, &vec![None; tg.len()], &topology, None, None);
            assert_reports_identical(&flows, &legacy);

            let noise = NoiseModel::new(NoiseConfig::default());
            let mode = SimMode::Measured { noise: &noise, nodes: (t * d * p).div_ceil(8) };
            assert_reports_identical(&simulate(&tg, mode), &simulate_reference(&tg, mode));
        }

        /// Tracing is pure observation: a traced replay produces a
        /// `SimReport` bit-identical to the untraced one, and the spans
        /// themselves are consistent — exactly one per task, each
        /// `finish − start` equal to the task's effective duration, and
        /// the latest finish equal to the iteration time.
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
                let mut spans: Vec<(u32, TimeNs, TimeNs)> = Vec::new();
                let mut traced = SimReport::default();
                let mut record = |id: u32, start: TimeNs, finish: TimeNs| {
                    spans.push((id, start, finish));
                };
                simulate_into_traced(
                    &tg,
                    mode,
                    &mut SimScratch::default(),
                    &mut traced,
                    &mut record,
                );
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
