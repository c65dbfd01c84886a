//! The fair-sharing replay: Algorithm 1's task graph re-run in *physical*
//! time with communication tasks as flows on a shared network.
//!
//! The closed-form replay ([`crate::sim`]) prices every communication
//! task in isolation and replays the graph in logical time — correct by
//! construction when links never carry two transfers at once. Under
//! [`NetworkBackend::FairSharing`](vtrain_net::NetworkBackend) that
//! assumption is dropped: each link-crossing comm task becomes a flow in
//! a [`FlowSim`], overlapping DP/TP/PP collectives on a tier split its
//! effective bandwidth max-min fairly, and a task's duration is whatever
//! the contended drain actually took. Tasks without a flow program
//! (intra-node collectives priced by the profiled tables, compute
//! kernels) keep their fixed closed-form durations.
//!
//! The replay runs on the shared [`vtrain_engine`] discrete-event kernel:
//! task readiness and fixed-duration finishes are engine events, and the
//! network contributes a single re-armed `NetTick` event at the flow
//! simulator's next join/drain boundary, invalidated by a generation
//! counter whenever the flow set changes. The input is stream-chained, so
//! a task's stream predecessor is one of its dependencies and the stream
//! is always free when the task becomes ready: a ready task starts at
//! once, with no per-stream queue. It comes from one of two places:
//! [`TaskGraph::lower_fused`] (the timeline, one task per operator) or the
//! compact graph unrolled into one task per (section copy, run)
//! ([`crate::compact`], every fair-sharing estimate). Aggregating a
//! compute chain into one task moves no start time, because chain
//! interiors neither start flows nor wait on them. With zero concurrent
//! flows the physical-time schedule coincides with the logical-time one,
//! so a contention-free replay reproduces the closed-form report exactly
//! (see the equivalence tests in `estimate.rs` and the differential
//! property test in `sim.rs`).

use vtrain_engine::{Handler, Simulation};
use vtrain_graph::CommKind;
use vtrain_model::TimeNs;
use vtrain_net::flow::{FlowProgram, FlowSim};
use vtrain_net::Topology;

use crate::sim::{BusyBreakdown, SimReport, TaskTrace};
use crate::task_graph::{TaskGraph, TaskKind};

/// Observer of the network's state at every refill: `(time, per-tier
/// utilization)` — the timeline exporter's counter-track feed.
pub type NetTrace<'t> = &'t mut dyn FnMut(TimeNs, &[f64]);

enum FlowEvent {
    /// All dependencies of task `.0` are satisfied.
    Ready(u32),
    /// Fixed-duration task `.0` finishes now.
    Finish(u32),
    /// The flow simulator has a join/drain boundary now (valid only if
    /// the generation `.0` is still current).
    NetTick(u64),
}

/// The flow programs of a replayed graph's tasks.
#[derive(Clone, Copy)]
pub(crate) enum Programs<'a> {
    /// Task `i` drains `.0[i]` (one entry per task).
    PerTask(&'a [Option<FlowProgram>]),
    /// Task `i` drains `table[index[i]]`: the unrolled compact graph,
    /// whose instances share their latency slot's program.
    Indexed {
        /// One entry per latency slot.
        table: &'a [Option<FlowProgram>],
        /// The table entry of each task.
        index: &'a [u32],
    },
}

impl<'a> Programs<'a> {
    /// Task `task`'s bandwidth demand, or `None` for a fixed duration.
    fn of(self, task: u32) -> Option<&'a FlowProgram> {
        match self {
            Programs::PerTask(programs) => programs[task as usize].as_ref(),
            Programs::Indexed { table, index } => table[index[task as usize] as usize].as_ref(),
        }
    }

    fn len(self) -> usize {
        match self {
            Programs::PerTask(programs) => programs.len(),
            Programs::Indexed { index, .. } => index.len(),
        }
    }
}

/// Reusable working vectors of [`simulate_flows`]: repeated replays
/// through one scratch reuse them once they have grown to the largest
/// graph.
#[derive(Default)]
pub(crate) struct FlowScratch {
    in_degree: Vec<u32>,
    started_at: Vec<TimeNs>,
    flow_task: Vec<u32>,
}

struct FlowReplay<'a, 't> {
    graph: &'a TaskGraph,
    programs: Programs<'a>,
    net: FlowSim,
    /// Bumped on every flow-set mutation; pending `NetTick`s with an
    /// older generation are stale and ignored.
    generation: u64,
    /// task id of each in-flight flow, indexed by `FlowId` slot.
    flow_task: Vec<u32>,
    in_degree: Vec<u32>,
    started_at: Vec<TimeNs>,
    device_busy: Vec<TimeNs>,
    busy: BusyBreakdown,
    iteration_time: TimeNs,
    executed: usize,
    trace: Option<TaskTrace<'t>>,
    net_trace: Option<NetTrace<'t>>,
    /// `(refill count at last sample, per-tier utilization histograms)`
    /// when the metrics registry is live.
    metrics: Option<Vec<std::sync::Arc<vtrain_obs::Histogram>>>,
}

impl<'a, 't> FlowReplay<'a, 't> {
    /// Re-arms the network tick after a flow-set mutation and samples the
    /// observers.
    fn rearm(&mut self, sim: &mut Simulation<FlowEvent>) {
        self.generation += 1;
        if let Some(at) = self.net.next_event() {
            sim.schedule(at, FlowEvent::NetTick(self.generation));
        }
        let now = self.net.now();
        if self.net_trace.is_some() || self.metrics.is_some() {
            let util = self.net.utilization();
            if let Some(trace) = self.net_trace.as_mut() {
                trace(now, &util);
            }
            if let Some(histograms) = &self.metrics {
                for (h, u) in histograms.iter().zip(&util) {
                    h.record((u * 100.0).round() as u64);
                }
            }
        }
    }

    /// Starts `task` on its (free) stream at the current time.
    fn start_task(&mut self, task: u32, sim: &mut Simulation<FlowEvent>) {
        let now = sim.now();
        self.started_at[task as usize] = now;
        match self.programs.of(task) {
            Some(program) => {
                // Process any flow boundary landing exactly now before
                // the join, then admit the new flow.
                let done = self.net.advance(now);
                self.settle_flows(done, sim);
                let slot = self.net.start(now, program.clone());
                if self.flow_task.len() <= slot {
                    self.flow_task.resize(slot + 1, u32::MAX);
                }
                self.flow_task[slot] = task;
                self.rearm(sim);
            }
            None => {
                let duration = self.graph.durations()[task as usize];
                sim.schedule(now + duration, FlowEvent::Finish(task));
            }
        }
    }

    /// Completes the tasks whose flows just finished.
    fn settle_flows(&mut self, done: Vec<usize>, sim: &mut Simulation<FlowEvent>) {
        for slot in done {
            let task = self.flow_task[slot];
            self.flow_task[slot] = u32::MAX;
            self.finish_task(task, sim);
        }
    }

    /// Books the finished task and releases its children.
    fn finish_task(&mut self, task: u32, sim: &mut Simulation<FlowEvent>) {
        let i = task as usize;
        let now = sim.now();
        let duration = now - self.started_at[i];
        self.iteration_time = self.iteration_time.max(now);
        if let Some(trace) = self.trace.as_mut() {
            trace(task, self.started_at[i], now);
        }
        let dev = self.graph.devices()[i] as usize;
        match self.graph.kinds()[i] {
            TaskKind::Compute { .. } => {
                self.busy.compute += duration;
                self.device_busy[dev] += duration;
            }
            TaskKind::Comm { kind, .. } => match kind {
                CommKind::TpAllReduce => {
                    self.busy.tp_comm += duration;
                    self.device_busy[dev] += duration;
                }
                CommKind::DpAllReduce => self.busy.dp_comm += duration,
                CommKind::PpSendRecv => self.busy.pp_comm += duration,
            },
        }
        self.executed += 1;

        for &c in self.graph.children(task) {
            self.in_degree[c as usize] -= 1;
            if self.in_degree[c as usize] == 0 {
                sim.schedule(now, FlowEvent::Ready(c));
            }
        }
    }
}

impl Handler<FlowEvent> for FlowReplay<'_, '_> {
    fn handle(&mut self, event: FlowEvent, sim: &mut Simulation<FlowEvent>) {
        match event {
            FlowEvent::Ready(task) => self.start_task(task, sim),
            FlowEvent::Finish(task) => self.finish_task(task, sim),
            FlowEvent::NetTick(generation) => {
                if generation != self.generation {
                    return; // Stale: the flow set changed since arming.
                }
                let done = self.net.advance(sim.now());
                self.settle_flows(done, sim);
                self.rearm(sim);
            }
        }
    }
}

/// Replays `graph` in physical time with fair-shared network flows,
/// writing the report into `report` (its vector is reused) and working
/// in `scratch`.
///
/// `programs` gives each task's bandwidth demand ([`None`] keeps the
/// closed-form fixed duration). `trace` observes `(task, start, finish)`
/// per executed task; `net_trace` observes `(time, per-tier utilization)`
/// at every refill.
///
/// `graph` must be [stream-chained](TaskGraph::is_stream_chained), as
/// every [`TaskGraph::lower_fused`] graph and every unrolled compact graph
/// is (checked in debug builds).
///
/// # Panics
///
/// Panics if `programs` does not cover exactly the graph's tasks or the
/// graph has a cycle.
pub(crate) fn simulate_flows<'t>(
    graph: &TaskGraph,
    programs: Programs<'_>,
    topology: &Topology,
    trace: Option<TaskTrace<'t>>,
    net_trace: Option<NetTrace<'t>>,
    scratch: &mut FlowScratch,
    report: &mut SimReport,
) {
    assert_eq!(programs.len(), graph.len(), "one program slot per task");
    debug_assert!(graph.is_stream_chained(), "the flow replay needs a stream-chained graph");
    let mut in_degree = std::mem::take(&mut scratch.in_degree);
    graph.fill_in_degrees(&mut in_degree);
    let mut started_at = std::mem::take(&mut scratch.started_at);
    started_at.clear();
    started_at.resize(graph.len(), TimeNs::ZERO);
    let mut flow_task = std::mem::take(&mut scratch.flow_task);
    flow_task.clear();
    let mut device_busy = std::mem::take(&mut report.device_busy);
    device_busy.clear();
    device_busy.resize(graph.num_devices() as usize, TimeNs::ZERO);

    let metrics = vtrain_obs::enabled().then(|| {
        let reg = vtrain_obs::global();
        (0..topology.num_tiers())
            .map(|t| reg.histogram(&format!("net.link_utilization.tier{t}")))
            .collect()
    });

    let mut replay = FlowReplay {
        graph,
        programs,
        net: FlowSim::new(topology),
        generation: 0,
        flow_task,
        in_degree,
        started_at,
        device_busy,
        busy: BusyBreakdown::default(),
        iteration_time: TimeNs::ZERO,
        executed: 0,
        trace,
        net_trace,
        metrics,
    };

    let mut sim = Simulation::new();
    for i in 0..graph.len() as u32 {
        if replay.in_degree[i as usize] == 0 {
            sim.schedule(TimeNs::ZERO, FlowEvent::Ready(i));
        }
    }
    sim.run(&mut replay);

    assert_eq!(
        replay.executed,
        graph.len(),
        "task graph contains a cycle: {} of {} tasks ran",
        replay.executed,
        graph.len()
    );
    if vtrain_obs::enabled() {
        let reg = vtrain_obs::global();
        reg.gauge("net.flows_active").set_max(replay.net.max_active() as u64);
        reg.counter("net.refills").add(replay.net.refills());
    }
    scratch.in_degree = replay.in_degree;
    scratch.started_at = replay.started_at;
    scratch.flow_task = replay.flow_task;
    report.iteration_time = replay.iteration_time;
    report.busy = replay.busy;
    report.device_busy = replay.device_busy;
    report.tasks_executed = replay.executed;
}
