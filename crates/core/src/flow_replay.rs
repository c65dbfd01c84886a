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
//! # The loop: dataflow plus time-ordered joins
//!
//! The input is stream-chained, so a task's stream predecessor is one of
//! its dependencies and the stream is always free when the task becomes
//! ready: a task starts at `ready = max(parent finishes)` as soon as its
//! last parent has finished, with no per-stream queue. Only the network
//! needs time order, so only it gets any:
//!
//! * A task without a flow program finishes at once at `ready + duration`
//!   and releases its children in the same pass, as in the closed-form
//!   dataflow replay.
//! * A flow task becomes a *pending join* in a min-heap keyed by its
//!   start time.
//! * The loop repeatedly takes `at = min(next join, next network
//!   boundary)`, [`advance`](FlowSim::advance)s the network to `at`, and
//!   finishes the flows that drained, which releases their children. If
//!   the next join is at `at`, it then starts that flow.
//!
//! This is exact, not an approximation of a discrete-event replay:
//!
//! * Every task released while the network stands at `at` starts at or
//!   after `at`: its start is at least the finish of the task that
//!   released it, which is `at` for a drained flow and later for the
//!   fixed-duration tasks behind it. So no join lands in the network's
//!   past, and [`FlowSim`]'s start/advance asserts hold unchanged.
//! * `advance` runs at exactly the instants an event-ordered replay
//!   calls it: every join time and every network boundary. The float
//!   updates `remaining −= rate·dt` between two instants are therefore
//!   the same, and a flow's drain does not depend on which replay ran
//!   it.
//! * Rates and projections depend only on the set of flows in flight,
//!   not on the order in which same-time joins entered it.
//!
//! The replay needs no discrete-event engine: ~40 flows of the ~215
//! tasks of a shipped 1.7B fair-sharing point are the only tasks that
//! wait in a heap. The engine-driven replay it replaced stays in this
//! module's tests as the oracle, matched bit for bit in `u64` on random
//! plans (report, every task's span, and the last network sample at each
//! timestamp).
//!
//! Observers: `trace` sees each task's `(start, finish)` when it is
//! booked, every parent before its children; `net_trace` (and the
//! per-tier utilization histograms, with metrics on) sees the network
//! after every refill — each start and each `advance` that changed the
//! flow set. Several samples can share one timestamp; the last one at a
//! timestamp is the network's settled state there. The engine replay
//! skipped the sample of a boundary it processed just before a join, so
//! the two can differ in the number and order of the intermediate samples
//! at one timestamp, never in the last.
//!
//! The graph comes from one of two places: [`TaskGraph::lower_fused`]
//! (the timeline, one task per operator) or the compact graph unrolled
//! into one task per (section copy, run) ([`crate::compact`], every
//! fair-sharing estimate). Aggregating a compute chain into one task
//! moves no start time, because chain interiors neither start flows nor
//! wait on them. With zero concurrent flows the physical-time schedule
//! coincides with the logical-time one, so a contention-free replay
//! reproduces the closed-form report exactly (see the equivalence tests
//! in `estimate.rs` and the differential property test in `sim.rs`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use vtrain_graph::CommKind;
use vtrain_model::TimeNs;
use vtrain_net::flow::{FlowId, FlowProgram, FlowSim};
use vtrain_net::Topology;

use crate::sim::{BusyBreakdown, SimReport, TaskTrace};
use crate::task_graph::{TaskGraph, TaskKind};

/// Observer of the network's state at every refill: `(time, per-tier
/// utilization)` — the timeline exporter's counter-track feed.
pub type NetTrace<'t> = &'t mut dyn FnMut(TimeNs, &[f64]);

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

/// Reusable state of [`simulate_flows`]: repeated replays through one
/// scratch reuse its vectors, heap and flow simulator once they have
/// grown to the largest graph.
#[derive(Default)]
pub(crate) struct FlowScratch {
    in_degree: Vec<u32>,
    /// Each task's start: the latest finish among its parents so far.
    ready: Vec<TimeNs>,
    /// Released fixed-duration tasks not yet booked.
    fixed: Vec<u32>,
    /// Released flow tasks by `(start, task)`: the pending joins.
    joins: BinaryHeap<Reverse<(TimeNs, u32)>>,
    /// Task of each in-flight flow, indexed by [`FlowId`].
    flow_task: Vec<u32>,
    /// The flows the latest `advance` completed.
    drained: Vec<FlowId>,
    net: FlowSim,
}

#[cfg(test)]
impl FlowScratch {
    /// The latest replay's refill count and flow high-water mark.
    pub(crate) fn net_counters(&self) -> (u64, usize) {
        (self.net.refills(), self.net.max_active())
    }
}

/// The report side of a replay: books every finished task.
struct Book<'a, 't> {
    graph: &'a TaskGraph,
    device_busy: Vec<TimeNs>,
    busy: BusyBreakdown,
    iteration_time: TimeNs,
    executed: usize,
    trace: Option<TaskTrace<'t>>,
}

impl<'a, 't> Book<'a, 't> {
    /// An empty book over `graph`, reusing `report`'s per-device vector.
    fn new(graph: &'a TaskGraph, trace: Option<TaskTrace<'t>>, report: &mut SimReport) -> Self {
        let mut device_busy = std::mem::take(&mut report.device_busy);
        device_busy.clear();
        device_busy.resize(graph.num_devices() as usize, TimeNs::ZERO);
        Book {
            graph,
            device_busy,
            busy: BusyBreakdown::default(),
            iteration_time: TimeNs::ZERO,
            executed: 0,
            trace,
        }
    }

    /// Books `task`, which ran from `start` to `finish`.
    fn book(&mut self, task: u32, start: TimeNs, finish: TimeNs) {
        let i = task as usize;
        let duration = finish - start;
        self.iteration_time = self.iteration_time.max(finish);
        if let Some(trace) = self.trace.as_mut() {
            trace(task, start, finish);
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
    }

    /// Writes the report.
    ///
    /// # Panics
    ///
    /// Panics if some task never ran: the graph has a cycle.
    fn close(self, report: &mut SimReport) {
        let n = self.graph.len();
        assert_eq!(
            self.executed, n,
            "task graph contains a cycle: {} of {n} tasks ran",
            self.executed
        );
        report.iteration_time = self.iteration_time;
        report.busy = self.busy;
        report.device_busy = self.device_busy;
        report.tasks_executed = self.executed;
    }
}

/// The network observers: the caller's `net_trace` and, with metrics on,
/// the per-tier utilization histograms.
struct Observers<'t> {
    net_trace: Option<NetTrace<'t>>,
    histograms: Option<Vec<Arc<vtrain_obs::Histogram>>>,
}

impl<'t> Observers<'t> {
    fn new(topology: &Topology, net_trace: Option<NetTrace<'t>>) -> Self {
        let histograms = vtrain_obs::enabled().then(|| {
            let reg = vtrain_obs::global();
            (0..topology.num_tiers())
                .map(|t| reg.histogram(&format!("net.link_utilization.tier{t}")))
                .collect()
        });
        Observers { net_trace, histograms }
    }

    /// Samples the network's utilization now.
    fn sample(&mut self, net: &FlowSim) {
        if self.net_trace.is_none() && self.histograms.is_none() {
            return;
        }
        let util = net.utilization();
        if let Some(trace) = self.net_trace.as_mut() {
            trace(net.now(), &util);
        }
        if let Some(histograms) = &self.histograms {
            for (h, u) in histograms.iter().zip(&util) {
                h.record((u * 100.0).round() as u64);
            }
        }
    }

    /// Records the replay's flow high-water mark and refill count.
    fn close(&self, net: &FlowSim) {
        if self.histograms.is_some() {
            let reg = vtrain_obs::global();
            reg.gauge("net.flows_active").set_max(net.max_active() as u64);
            reg.counter("net.refills").add(net.refills());
        }
    }
}

/// The dataflow half of the replay: resolves fixed-duration tasks as soon
/// as they are released and queues flow tasks as pending joins.
struct Dataflow<'a, 'b, 't> {
    graph: &'a TaskGraph,
    programs: Programs<'a>,
    in_degree: &'b mut [u32],
    ready: &'b mut [TimeNs],
    fixed: &'b mut Vec<u32>,
    joins: &'b mut BinaryHeap<Reverse<(TimeNs, u32)>>,
    book: Book<'a, 't>,
}

impl Dataflow<'_, '_, '_> {
    /// Releases `task`, whose parents have all finished.
    fn release(&mut self, task: u32) {
        match self.programs.of(task) {
            Some(_) => self.joins.push(Reverse((self.ready[task as usize], task))),
            None => self.fixed.push(task),
        }
    }

    /// Finishes `task` at `finish`, then every fixed-duration task that
    /// this transitively releases.
    fn finish(&mut self, task: u32, finish: TimeNs) {
        self.complete(task, finish);
        self.settle();
    }

    /// Finishes every released fixed-duration task, and those they
    /// release in turn, each at `ready + duration`.
    fn settle(&mut self) {
        while let Some(task) = self.fixed.pop() {
            let start = self.ready[task as usize];
            self.complete(task, start + self.graph.durations()[task as usize]);
        }
    }

    /// Books `task` and releases the children it was the last parent of.
    fn complete(&mut self, task: u32, finish: TimeNs) {
        self.book.book(task, self.ready[task as usize], finish);
        let graph = self.graph;
        for &c in graph.children(task) {
            let i = c as usize;
            self.ready[i] = self.ready[i].max(finish);
            self.in_degree[i] -= 1;
            if self.in_degree[i] == 0 {
                self.release(c);
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
    let FlowScratch { in_degree, ready, fixed, joins, flow_task, drained, net } = scratch;
    graph.fill_in_degrees(in_degree);
    ready.clear();
    ready.resize(graph.len(), TimeNs::ZERO);
    fixed.clear();
    joins.clear();
    net.reset(topology);
    let mut observers = Observers::new(topology, net_trace);
    let mut flow = Dataflow {
        graph,
        programs,
        in_degree,
        ready,
        fixed,
        joins,
        book: Book::new(graph, trace, report),
    };

    for task in 0..graph.len() as u32 {
        if flow.in_degree[task as usize] == 0 {
            flow.release(task);
        }
    }
    flow.settle();
    loop {
        let join = flow.joins.peek().map(|&Reverse((start, _))| start);
        let Some(at) = join.into_iter().chain(net.next_event()).min() else { break };
        let refills = net.refills();
        net.advance(at, drained);
        if net.refills() != refills {
            observers.sample(net);
        }
        for &slot in drained.iter() {
            flow.finish(flow_task[slot], at);
        }
        if join == Some(at) {
            let Reverse((_, task)) = flow.joins.pop().expect("a pending join");
            let program = programs.of(task).expect("a pending join drains a flow program");
            let slot = net.start(at, program);
            if flow_task.len() <= slot {
                flow_task.resize(slot + 1, u32::MAX);
            }
            flow_task[slot] = task;
            observers.sample(net);
        }
    }

    observers.close(net);
    flow.book.close(report);
}

/// The engine-driven replay that [`simulate_flows`] replaced, kept as its
/// differential oracle: task readiness and fixed-duration finishes are
/// [`vtrain_engine`] events, and the network contributes one re-armed
/// `NetTick` at its next boundary, invalidated by a generation counter
/// whenever the flow set changes.
#[cfg(test)]
pub(crate) mod engine_oracle {
    use vtrain_engine::{Handler, Simulation};

    use super::*;

    enum FlowEvent {
        /// All dependencies of task `.0` are satisfied.
        Ready(u32),
        /// Fixed-duration task `.0` finishes now.
        Finish(u32),
        /// The flow simulator has a join/drain boundary now (valid only
        /// if the generation `.0` is still current).
        NetTick(u64),
    }

    struct FlowReplay<'a, 'b, 't> {
        programs: Programs<'a>,
        net: &'b mut FlowSim,
        /// Bumped on every flow-set mutation; pending `NetTick`s with an
        /// older generation are stale and ignored.
        generation: u64,
        flow_task: Vec<u32>,
        in_degree: Vec<u32>,
        started_at: Vec<TimeNs>,
        drained: Vec<FlowId>,
        book: Book<'a, 't>,
        observers: Observers<'t>,
    }

    impl FlowReplay<'_, '_, '_> {
        /// Re-arms the network tick after a flow-set mutation and samples
        /// the observers.
        fn rearm(&mut self, sim: &mut Simulation<FlowEvent>) {
            self.generation += 1;
            if let Some(at) = self.net.next_event() {
                sim.schedule(at, FlowEvent::NetTick(self.generation));
            }
            self.observers.sample(self.net);
        }

        fn start_task(&mut self, task: u32, sim: &mut Simulation<FlowEvent>) {
            let now = sim.now();
            self.started_at[task as usize] = now;
            match self.programs.of(task) {
                Some(program) => {
                    // Process any flow boundary landing exactly now
                    // before the join, then admit the new flow.
                    self.advance(now, sim);
                    let slot = self.net.start(now, program);
                    if self.flow_task.len() <= slot {
                        self.flow_task.resize(slot + 1, u32::MAX);
                    }
                    self.flow_task[slot] = task;
                    self.rearm(sim);
                }
                None => {
                    let duration = self.book.graph.durations()[task as usize];
                    sim.schedule(now + duration, FlowEvent::Finish(task));
                }
            }
        }

        /// Advances the network and completes the tasks whose flows
        /// finished.
        fn advance(&mut self, now: TimeNs, sim: &mut Simulation<FlowEvent>) {
            self.net.advance(now, &mut self.drained);
            for i in 0..self.drained.len() {
                let task = self.flow_task[self.drained[i]];
                self.finish_task(task, sim);
            }
        }

        fn finish_task(&mut self, task: u32, sim: &mut Simulation<FlowEvent>) {
            let now = sim.now();
            self.book.book(task, self.started_at[task as usize], now);
            let graph = self.book.graph;
            for &c in graph.children(task) {
                self.in_degree[c as usize] -= 1;
                if self.in_degree[c as usize] == 0 {
                    sim.schedule(now, FlowEvent::Ready(c));
                }
            }
        }
    }

    impl Handler<FlowEvent> for FlowReplay<'_, '_, '_> {
        fn handle(&mut self, event: FlowEvent, sim: &mut Simulation<FlowEvent>) {
            match event {
                FlowEvent::Ready(task) => self.start_task(task, sim),
                FlowEvent::Finish(task) => self.finish_task(task, sim),
                FlowEvent::NetTick(generation) => {
                    if generation != self.generation {
                        return; // Stale: the flow set changed since arming.
                    }
                    self.advance(sim.now(), sim);
                    self.rearm(sim);
                }
            }
        }
    }

    /// [`simulate_flows`] on the discrete-event engine, with the same
    /// arguments and observers; `scratch`'s flow simulator keeps the
    /// run's counters.
    pub(crate) fn simulate_flows_on_engine<'t>(
        graph: &TaskGraph,
        programs: Programs<'_>,
        topology: &Topology,
        trace: Option<TaskTrace<'t>>,
        net_trace: Option<NetTrace<'t>>,
        scratch: &mut FlowScratch,
        report: &mut SimReport,
    ) {
        assert_eq!(programs.len(), graph.len(), "one program slot per task");
        scratch.net.reset(topology);
        let mut in_degree = Vec::new();
        graph.fill_in_degrees(&mut in_degree);
        let mut replay = FlowReplay {
            programs,
            net: &mut scratch.net,
            generation: 0,
            flow_task: Vec::new(),
            in_degree,
            started_at: vec![TimeNs::ZERO; graph.len()],
            drained: Vec::new(),
            book: Book::new(graph, trace, report),
            observers: Observers::new(topology, net_trace),
        };
        let mut sim = Simulation::new();
        for i in 0..graph.len() as u32 {
            if replay.in_degree[i as usize] == 0 {
                sim.schedule(TimeNs::ZERO, FlowEvent::Ready(i));
            }
        }
        sim.run(&mut replay);
        replay.observers.close(replay.net);
        replay.book.close(report);
    }
}
