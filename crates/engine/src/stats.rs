//! Run statistics collected by the simulation driver.

use serde::{Deserialize, Serialize};
use vtrain_model::TimeNs;

/// Counters describing one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunStats {
    /// Events dispatched to the handler.
    pub events_processed: u64,
    /// Events scheduled over the run's lifetime (including seed events).
    pub events_scheduled: u64,
    /// Simulation time of the last dispatched event.
    pub horizon: TimeNs,
}

impl RunStats {
    /// Events still pending when the run stopped (a run that drained the
    /// queue reports zero).
    ///
    /// Saturating: a caller composing counters from several runs (summing
    /// `events_processed` across them against one run's
    /// `events_scheduled`) can build `events_scheduled < events_processed`.
    /// That reads as "nothing pending", never as an underflowed huge
    /// count.
    pub fn events_pending(&self) -> u64 {
        self.events_scheduled.saturating_sub(self.events_processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_is_the_scheduled_minus_processed_difference() {
        let stats = RunStats { events_processed: 3, events_scheduled: 10, horizon: TimeNs::ZERO };
        assert_eq!(stats.events_pending(), 7);
    }

    #[test]
    fn pending_saturates_instead_of_underflowing() {
        // The shape an aggregate over several runs can produce: processed
        // summed across runs, scheduled taken from the last one.
        let stats = RunStats { events_processed: 10, events_scheduled: 4, horizon: TimeNs::ZERO };
        assert_eq!(stats.events_pending(), 0);
    }
}
