//! The simulation driver: clock, event dispatch, tracing, statistics.

use vtrain_model::TimeNs;

use crate::queue::EventQueue;
use crate::stats::RunStats;

/// Consumes dispatched events and schedules follow-ups.
///
/// Handler state lives outside the [`Simulation`], so the handler may
/// freely schedule new events and read the clock while it runs.
pub trait Handler<E> {
    /// Reacts to one event. `sim.now()` is the event's dispatch time.
    fn handle(&mut self, event: E, sim: &mut Simulation<E>);
}

/// Tracing hook observing every dispatched event: `(time, seq, &event)`.
pub type TraceHook<E> = Box<dyn FnMut(TimeNs, u64, &E)>;

/// A discrete-event simulation: clock + event queue + statistics.
///
/// Determinism contract: given the same seed events and a deterministic
/// handler, every run dispatches the identical event sequence — the queue
/// breaks equal-time ties by insertion order, and the driver adds no other
/// source of ordering.
pub struct Simulation<E> {
    queue: EventQueue<E>,
    now: TimeNs,
    stats: RunStats,
    stopped: bool,
    trace: Option<TraceHook<E>>,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Simulation::new()
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation at time zero.
    pub fn new() -> Self {
        Simulation {
            queue: EventQueue::new(),
            now: TimeNs::ZERO,
            stats: RunStats::default(),
            stopped: false,
            trace: None,
        }
    }

    /// Creates an empty simulation with queue room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Simulation { queue: EventQueue::with_capacity(capacity), ..Simulation::new() }
    }

    /// Current simulation time: the dispatch time of the event being
    /// handled, or the last handled event after the run ends.
    pub fn now(&self) -> TimeNs {
        self.now
    }

    /// Schedules `event` at absolute `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the current simulation time: the past is
    /// immutable in a causal simulation.
    pub fn schedule(&mut self, time: TimeNs, event: E) {
        assert!(time >= self.now, "cannot schedule into the past: {time} < now {}", self.now);
        self.queue.push(time, event);
    }

    /// Schedules `event` at `now + delay`.
    pub fn schedule_after(&mut self, delay: TimeNs, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Requests the run loop to stop after the current event.
    pub fn stop(&mut self) {
        self.stopped = true;
    }

    /// Installs a tracing hook observing every dispatched event.
    pub fn set_trace(&mut self, hook: TraceHook<E>) {
        self.trace = Some(hook);
    }

    /// Removes the tracing hook, returning it.
    pub fn take_trace(&mut self) -> Option<TraceHook<E>> {
        self.trace.take()
    }

    /// Events pending in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Statistics for the run so far.
    pub fn stats(&self) -> RunStats {
        RunStats { events_scheduled: self.queue.total_scheduled(), ..self.stats }
    }

    /// Dispatches the single earliest event to `handler`. Returns false if
    /// the queue was empty or the simulation was stopped.
    pub fn step(&mut self, handler: &mut impl Handler<E>) -> bool {
        if self.stopped {
            return false;
        }
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.time >= self.now, "event queue went back in time");
        self.now = entry.time;
        self.stats.events_processed += 1;
        self.stats.horizon = self.stats.horizon.max(entry.time);
        if let Some(hook) = self.trace.as_mut() {
            hook(entry.time, entry.seq, &entry.event);
        }
        handler.handle(entry.event, self);
        true
    }

    /// Runs until the queue drains or [`Simulation::stop`] is called,
    /// returning the final statistics.
    pub fn run(&mut self, handler: &mut impl Handler<E>) -> RunStats {
        while self.step(handler) {}
        let stats = self.stats();
        // One relaxed load when observability is off; publishing happens
        // once per run, never inside the dispatch loop.
        if vtrain_obs::enabled() {
            let reg = vtrain_obs::global();
            reg.counter("engine.runs").inc();
            reg.counter("engine.events_processed").add(stats.events_processed);
            reg.histogram("engine.queue_depth_peak").record(self.queue.high_watermark() as u64);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(TimeNs, u32)>,
    }

    impl Handler<Ev> for Recorder {
        fn handle(&mut self, event: Ev, sim: &mut Simulation<Ev>) {
            match event {
                Ev::Tick(n) => {
                    self.seen.push((sim.now(), n));
                    if n < 4 {
                        sim.schedule_after(TimeNs::from_micros(2), Ev::Tick(n + 1));
                    }
                }
                Ev::Stop => sim.stop(),
            }
        }
    }

    #[test]
    fn clock_follows_events_and_stats_count() {
        let mut sim = Simulation::new();
        sim.schedule(TimeNs::from_micros(1), Ev::Tick(1));
        let mut rec = Recorder::default();
        let stats = sim.run(&mut rec);
        assert_eq!(
            rec.seen,
            vec![
                (TimeNs::from_micros(1), 1),
                (TimeNs::from_micros(3), 2),
                (TimeNs::from_micros(5), 3),
                (TimeNs::from_micros(7), 4),
            ]
        );
        assert_eq!(stats.events_processed, 4);
        assert_eq!(stats.events_scheduled, 4);
        assert_eq!(stats.events_pending(), 0);
        assert_eq!(stats.horizon, TimeNs::from_micros(7));
    }

    #[test]
    fn stop_halts_before_remaining_events() {
        let mut sim = Simulation::new();
        sim.schedule(TimeNs::from_micros(1), Ev::Stop);
        sim.schedule(TimeNs::from_micros(2), Ev::Tick(1));
        let mut rec = Recorder::default();
        let stats = sim.run(&mut rec);
        assert!(rec.seen.is_empty());
        assert_eq!(stats.events_processed, 1);
        assert_eq!(sim.pending_events(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Rewinder;
        impl Handler<Ev> for Rewinder {
            fn handle(&mut self, _event: Ev, sim: &mut Simulation<Ev>) {
                sim.schedule(TimeNs::ZERO, Ev::Tick(0));
            }
        }
        let mut sim = Simulation::new();
        sim.schedule(TimeNs::from_micros(5), Ev::Tick(1));
        sim.run(&mut Rewinder);
    }

    #[test]
    fn trace_hook_sees_every_dispatch() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let log: Rc<RefCell<Vec<(TimeNs, u64)>>> = Rc::default();
        let log2 = Rc::clone(&log);
        let mut sim = Simulation::new();
        sim.set_trace(Box::new(move |t, seq, _ev: &Ev| log2.borrow_mut().push((t, seq))));
        sim.schedule(TimeNs::from_micros(1), Ev::Tick(4));
        sim.schedule(TimeNs::from_micros(1), Ev::Tick(4));
        let mut rec = Recorder::default();
        sim.run(&mut rec);
        assert_eq!(*log.borrow(), vec![(TimeNs::from_micros(1), 0), (TimeNs::from_micros(1), 1)]);
        assert!(sim.take_trace().is_some());
    }

    #[test]
    fn identical_runs_dispatch_identical_sequences() {
        let run = || {
            let mut sim = Simulation::new();
            for i in 0..50u32 {
                sim.schedule(TimeNs::from_micros((i % 7) as u64), Ev::Tick(4 + i));
            }
            let mut rec = Recorder::default();
            sim.run(&mut rec);
            rec.seen
        };
        assert_eq!(run(), run());
    }
}
