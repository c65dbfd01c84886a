//! Event-driven replay of concurrent flows under max-min fair sharing.
//!
//! [`FlowSim`] tracks every in-flight [`FlowProgram`] against one
//! [`Topology`]'s link tiers. Each join, leave, or phase change triggers
//! a *refill*: rates are reallocated by [`max_min_rates`](super::max_min_rates) and every
//! draining flow's completion is re-projected linearly from its remaining
//! work — no per-byte stepping, `O(flows × links)` per refill.
//!
//! A solo flow drains at the full effective bandwidth, so its finish
//! time reproduces the closed-form phase cost bit-for-bit (same float
//! expression, same nanosecond quantisation) — the equivalence anchor
//! the golden tests pin down.

use vtrain_model::TimeNs;

use super::fair::{max_min_rates_with, FairScratch};
use super::program::FlowProgram;
use crate::topology::{TierSpec, Topology};

/// Identifies one in-flight flow; stable until the flow completes, then
/// recycled.
pub type FlowId = usize;

#[derive(Clone, Copy, Debug)]
enum PhaseState {
    /// Paying the tier's base latency; holds no bandwidth.
    Delay { until: TimeNs },
    /// Draining `remaining` bytes of work at the allocated rate.
    /// `projected` is the completion time under the current allocation
    /// (`None` only transiently inside `advance`, before the refill).
    Drain { remaining: f64, projected: Option<TimeNs> },
}

#[derive(Clone, Debug)]
struct FlowState {
    program: FlowProgram,
    phase: usize,
    state: PhaseState,
}

/// Deterministic progressive-filling fair-sharing simulator.
pub struct FlowSim {
    tiers: Vec<TierSpec>,
    flows: Vec<Option<FlowState>>,
    free: Vec<usize>,
    rates: Vec<f64>,
    now: TimeNs,
    refills: u64,
    active: usize,
    max_active: usize,
    /// Each link's capacity: its tier's effective bandwidth.
    caps: Vec<f64>,
    // Scratch buffers reused across refills.
    link_sets: Vec<[usize; 1]>,
    drain_slots: Vec<usize>,
    drain_rates: Vec<f64>,
    fair: FairScratch,
}

impl FlowSim {
    /// Creates a simulator over `topology`'s tiers; link `l` has capacity
    /// `tiers[l].effective_bandwidth()`.
    pub fn new(topology: &Topology) -> Self {
        let tiers: Vec<TierSpec> = (0..topology.num_tiers()).map(|t| *topology.tier(t)).collect();
        let caps = tiers.iter().map(|t| t.effective_bandwidth()).collect();
        FlowSim {
            tiers,
            caps,
            flows: Vec::new(),
            free: Vec::new(),
            rates: Vec::new(),
            now: TimeNs::ZERO,
            refills: 0,
            active: 0,
            max_active: 0,
            link_sets: Vec::new(),
            drain_slots: Vec::new(),
            drain_rates: Vec::new(),
            fair: FairScratch::default(),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> TimeNs {
        self.now
    }

    /// Flows currently in flight.
    pub fn active(&self) -> usize {
        self.active
    }

    /// High-water mark of concurrent flows.
    pub fn max_active(&self) -> usize {
        self.max_active
    }

    /// Refills performed (rate reallocations on join/leave/phase change).
    pub fn refills(&self) -> u64 {
        self.refills
    }

    /// Per-tier utilisation under the current allocation: sum of draining
    /// rates over effective bandwidth, in `[0, 1]`.
    pub fn utilization(&self) -> Vec<f64> {
        let mut load = vec![0.0f64; self.tiers.len()];
        for (slot, flow) in self.flows.iter().enumerate() {
            if let Some(f) = flow {
                if let PhaseState::Drain { .. } = f.state {
                    load[self.tier_of(f)] += self.rates[slot];
                }
            }
        }
        load.iter().zip(&self.tiers).map(|(&l, t)| l / t.effective_bandwidth()).collect()
    }

    fn tier_of(&self, f: &FlowState) -> usize {
        f.program.phases[f.phase].tier.min(self.tiers.len() - 1)
    }

    /// Starts `program` at `now`, returning the flow's id.
    ///
    /// `now` must equal the simulator's clock unless the network is idle
    /// (an idle simulator fast-forwards). Callers interleave `start` with
    /// [`advance`](Self::advance) so this always holds.
    ///
    /// # Panics
    ///
    /// Panics if `program` is empty, or if `now` disagrees with the clock
    /// while flows are in flight.
    pub fn start(&mut self, now: TimeNs, program: FlowProgram) -> FlowId {
        assert!(!program.is_empty(), "cannot start an empty flow program");
        if self.active == 0 {
            assert!(now >= self.now, "time must not run backwards");
            self.now = now;
        } else {
            assert_eq!(now, self.now, "start() requires advance() to the start time first");
        }
        let first = program.phases[0];
        let state = if first.latency_rounds == 0 {
            PhaseState::Drain { remaining: first.work, projected: None }
        } else {
            PhaseState::Delay { until: self.delay_until(first.tier, first.latency_rounds) }
        };
        let flow = FlowState { program, phase: 0, state };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.flows[slot] = Some(flow);
                slot
            }
            None => {
                self.flows.push(Some(flow));
                self.rates.push(0.0);
                self.flows.len() - 1
            }
        };
        self.active += 1;
        self.max_active = self.max_active.max(self.active);
        self.refill();
        slot
    }

    fn delay_until(&self, tier: usize, rounds: u32) -> TimeNs {
        let latency = self.tiers[tier.min(self.tiers.len() - 1)].base_latency;
        let mut until = self.now;
        for _ in 0..rounds {
            until += latency;
        }
        until
    }

    /// The next time anything changes: a delay expiring or a drain
    /// completing. `None` when the network is idle.
    pub fn next_event(&self) -> Option<TimeNs> {
        self.flows
            .iter()
            .flatten()
            .map(|f| match f.state {
                PhaseState::Delay { until } => until,
                PhaseState::Drain { projected, .. } => {
                    projected.expect("drains are projected outside advance()")
                }
            })
            .min()
    }

    /// Advances the clock to `to`, draining work at the current rates and
    /// processing every delay expiry and phase completion that lands
    /// exactly at `to`. Returns the flows that completed.
    ///
    /// # Panics
    ///
    /// Panics if `to` is in the past or skips past
    /// [`next_event`](Self::next_event).
    pub fn advance(&mut self, to: TimeNs) -> Vec<FlowId> {
        assert!(to >= self.now, "time must not run backwards");
        if let Some(event) = self.next_event() {
            assert!(to <= event, "advance() must not skip past the next event");
        }
        let dt = (to - self.now).as_secs_f64();
        let mut completed = Vec::new();
        let mut changed = false;

        for slot in 0..self.flows.len() {
            let Some(flow) = self.flows[slot].as_mut() else { continue };
            loop {
                match flow.state {
                    PhaseState::Delay { until } if until <= to => {
                        // The delay expires exactly at `to`; the drain
                        // gets its rate and projection from the refill.
                        let work = flow.program.phases[flow.phase].work;
                        flow.state = PhaseState::Drain { remaining: work, projected: None };
                        changed = true;
                        break;
                    }
                    PhaseState::Drain { projected: Some(projected), .. } if projected <= to => {
                        flow.phase += 1;
                        changed = true;
                        if flow.phase == flow.program.phases.len() {
                            self.flows[slot] = None;
                            self.free.push(slot);
                            self.rates[slot] = 0.0;
                            self.active -= 1;
                            completed.push(slot);
                            break;
                        }
                        let next = flow.program.phases[flow.phase];
                        if next.latency_rounds == 0 {
                            flow.state =
                                PhaseState::Drain { remaining: next.work, projected: None };
                            break;
                        }
                        let tier = next.tier.min(self.tiers.len() - 1);
                        let latency = self.tiers[tier].base_latency;
                        let mut until = to;
                        for _ in 0..next.latency_rounds {
                            until += latency;
                        }
                        flow.state = PhaseState::Delay { until };
                        // Loop again: a zero-latency tier expires at once.
                    }
                    PhaseState::Drain { ref mut remaining, .. } => {
                        if dt > 0.0 {
                            *remaining = (*remaining - self.rates[slot] * dt).max(0.0);
                        }
                        break;
                    }
                    PhaseState::Delay { .. } => break,
                }
            }
        }

        self.now = to;
        if changed {
            self.refill();
        }
        completed
    }

    /// Reallocates rates over the draining flows and re-projects their
    /// completions.
    fn refill(&mut self) {
        self.drain_slots.clear();
        self.link_sets.clear();
        for (slot, flow) in self.flows.iter().enumerate() {
            if let Some(f) = flow {
                if let PhaseState::Drain { .. } = f.state {
                    self.drain_slots.push(slot);
                    self.link_sets.push([self.tier_of(f)]);
                }
            }
        }
        max_min_rates_with(&self.caps, &self.link_sets, &mut self.drain_rates, &mut self.fair);
        for (&slot, &rate) in self.drain_slots.iter().zip(&self.drain_rates) {
            self.rates[slot] = rate;
            let now = self.now;
            let flow = self.flows[slot].as_mut().expect("drain slot is occupied");
            if let PhaseState::Drain { remaining, ref mut projected } = flow.state {
                *projected = Some(now + TimeNs::from_secs_f64(remaining / rate));
            }
        }
        self.refills += 1;
    }

    /// Runs every in-flight flow to completion, returning the time the
    /// network goes idle (or `now` if it already is).
    pub fn drain_all(&mut self) -> TimeNs {
        while let Some(event) = self.next_event() {
            self.advance(event);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{self, Algorithm, Collective};
    use crate::topology::GroupPlacement;
    use vtrain_model::Bytes;

    fn p4d_like() -> Topology {
        Topology::two_tier(
            8,
            TierSpec::new(235e9, TimeNs::from_micros(8), 1.0),
            TierSpec::new(50e9, TimeNs::from_micros(20), 0.77),
        )
    }

    #[test]
    fn solo_flow_reproduces_closed_form_bit_for_bit() {
        let topo = p4d_like();
        let placement = GroupPlacement { ranks_per_node: 8, nodes_per_rack: 4, racks: 1 };
        for algorithm in [Algorithm::Ring, Algorithm::Tree, Algorithm::Hierarchical] {
            for kind in [
                Collective::AllReduce,
                Collective::AllGather,
                Collective::ReduceScatter,
                Collective::AllToAll,
            ] {
                let bytes = Bytes::from_mib(96);
                let closed = collective::cost(&topo, placement, kind, algorithm, bytes).total();
                let program = collective::plan(&topo, placement, kind, algorithm, bytes);
                let mut sim = FlowSim::new(&topo);
                let id = sim.start(TimeNs::ZERO, program);
                let done = sim.drain_all();
                assert_eq!(sim.active(), 0);
                assert_eq!(
                    done, closed,
                    "{kind:?}/{algorithm:?}: flow replay {done} vs closed form {closed}"
                );
                let _ = id;
            }
        }
    }

    #[test]
    fn two_equal_flows_each_get_half_the_link() {
        let topo = p4d_like();
        let work = 1e9; // 1 GB on the inter-node tier.
        let program = || FlowProgram {
            phases: vec![super::super::FlowPhase { tier: 1, work, latency_rounds: 0 }],
        };
        // Solo drain time.
        let mut solo = FlowSim::new(&topo);
        solo.start(TimeNs::ZERO, program());
        let solo_done = solo.drain_all();

        // Two concurrent flows: each runs at half rate, finishing in ~2×.
        let mut sim = FlowSim::new(&topo);
        sim.start(TimeNs::ZERO, program());
        sim.start(TimeNs::ZERO, program());
        let done = sim.drain_all();
        let ratio = done.as_secs_f64() / solo_done.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9, "two equal flows should take 2× solo, got {ratio}");
        assert_eq!(sim.max_active(), 2);
        assert!(sim.refills() >= 2);
    }

    #[test]
    fn late_joiner_slows_the_incumbent_linearly() {
        let topo = p4d_like();
        let phase = |work: f64| FlowProgram {
            phases: vec![super::super::FlowPhase { tier: 1, work, latency_rounds: 0 }],
        };
        let cap = topo.tier(1).effective_bandwidth();
        let mut sim = FlowSim::new(&topo);
        sim.start(TimeNs::ZERO, phase(cap)); // 1 s of work solo.
                                             // Half a second in, a second identical flow joins.
        let half = TimeNs::from_millis(500);
        assert!(sim.advance(half).is_empty());
        sim.start(half, phase(cap));
        // Incumbent: 0.5 s left at half rate → finishes at 1.5 s.
        let first = sim.next_event().unwrap();
        assert_eq!(sim.advance(first), vec![0]);
        assert!((first.as_secs_f64() - 1.5).abs() < 1e-9, "incumbent at {first}");
        // Joiner: drains its remaining half at full rate → done at 2.0 s.
        let done = sim.drain_all();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-9, "joiner at {done}");
        assert_eq!(sim.active(), 0);
    }

    #[test]
    fn flows_on_different_tiers_do_not_contend() {
        let topo = p4d_like();
        let program = |tier: usize, work: f64| FlowProgram {
            phases: vec![super::super::FlowPhase { tier, work, latency_rounds: 0 }],
        };
        let mut sim = FlowSim::new(&topo);
        sim.start(TimeNs::ZERO, program(0, topo.tier(0).effective_bandwidth()));
        sim.start(TimeNs::ZERO, program(1, topo.tier(1).effective_bandwidth()));
        let util = sim.utilization();
        assert!((util[0] - 1.0).abs() < 1e-12 && (util[1] - 1.0).abs() < 1e-12, "{util:?}");
        let done = sim.drain_all();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-9, "both finish in 1 s, got {done}");
    }

    #[test]
    fn slots_are_recycled_after_completion() {
        let topo = p4d_like();
        let program = || FlowProgram {
            phases: vec![super::super::FlowPhase { tier: 1, work: 1e6, latency_rounds: 1 }],
        };
        let mut sim = FlowSim::new(&topo);
        let a = sim.start(TimeNs::ZERO, program());
        sim.drain_all();
        let b = sim.start(sim.now(), program());
        assert_eq!(a, b, "completed slots are reused");
        assert_eq!(sim.max_active(), 1);
    }
}
