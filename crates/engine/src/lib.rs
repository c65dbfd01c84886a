//! # vtrain-engine
//!
//! The deterministic discrete-event simulation kernel shared by the
//! workspace's physical-time simulators: the fair-sharing network replay
//! of one training iteration (`vtrain-core`'s flow replay) and the
//! multi-tenant cluster scheduler (`vtrain-cluster::simulate_cluster`).
//! The closed-form Algorithm 1 replay (`vtrain-core::simulate`) needs no
//! event queue: its graphs are stream-chained, so it is a dataflow pass.
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
