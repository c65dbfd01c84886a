//! # vtrain-engine
//!
//! The deterministic discrete-event simulation kernel of the multi-tenant
//! cluster scheduler (`vtrain-cluster::simulate_cluster`). Neither
//! iteration replay in `vtrain-core` needs an event queue: their graphs
//! are stream-chained, so the closed-form Algorithm 1 replay is a
//! dataflow pass, and the fair-sharing flow replay is one too, with only
//! its flow tasks time-ordered in a heap of pending joins. `vtrain-core`
//! keeps the engine-driven flow replay in its tests, as that replay's
//! oracle.
//!
//! The kernel provides three things:
//!
//! * **A time-ordered event queue** ([`EventQueue`]) — a binary heap keyed
//!   by `(time, sequence)`. The explicit monotonically increasing sequence
//!   number makes equal-timestamp pops follow *insertion order*, so replay
//!   is bit-identical run to run regardless of heap internals.
//! * **Typed events and pluggable handlers** — the event payload is a
//!   caller-chosen type `E`; a [`Handler`] consumes popped events and
//!   schedules follow-ups through the [`Simulation`] it is handed.
//! * **Resources** ([`resource`]) — a counting [`resource::CapacityPool`]
//!   for cluster-style whole-GPU accounting.
//!
//! A [`Simulation`] owns the clock, the queue, run statistics
//! ([`RunStats`]), and an optional tracing hook observing every dispatched
//! event.
//!
//! # Examples
//!
//! ```
//! use vtrain_engine::{Handler, Simulation};
//! use vtrain_model::TimeNs;
//!
//! enum Ev { Ping(u32) }
//!
//! struct Echo { pings: Vec<(TimeNs, u32)> }
//!
//! impl Handler<Ev> for Echo {
//!     fn handle(&mut self, event: Ev, sim: &mut Simulation<Ev>) {
//!         let Ev::Ping(n) = event;
//!         self.pings.push((sim.now(), n));
//!         if n < 3 {
//!             sim.schedule_after(TimeNs::from_micros(1), Ev::Ping(n + 1));
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new();
//! sim.schedule(TimeNs::ZERO, Ev::Ping(1));
//! let mut echo = Echo { pings: Vec::new() };
//! sim.run(&mut echo);
//! assert_eq!(echo.pings.len(), 3);
//! assert_eq!(sim.stats().events_processed, 3);
//! assert_eq!(sim.now(), TimeNs::from_micros(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
pub mod resource;
mod sim;
mod stats;

pub use queue::{EventEntry, EventQueue};
pub use sim::{Handler, Simulation};
pub use stats::RunStats;
