//! Event-driven replay of concurrent flows under max-min fair sharing.
//!
//! [`FlowSim`] tracks every in-flight [`FlowProgram`] against one
//! [`Topology`]'s link tiers. Each join, leave, or phase change triggers
//! a *refill*: rates are reallocated max-min fairly and every draining
//! flow's completion is re-projected linearly from its remaining work —
//! no per-byte stepping, `O(flows)` per refill.
//!
//! Every [`FlowPhase`] crosses exactly one tier, so the max-min fair
//! allocation is the equal split of each tier: a flow draining on tier
//! `l` next to `n_l − 1` others gets `caps[l] / n_l`. That is the value
//! progressive filling ([`max_min_rates`](super::max_min_rates)) computes
//! for single-link flows, bit for bit: every link's first water level is
//! `(caps[l] − 0) / n_l`, and freezing one link's flows leaves every other
//! link untouched.
//!
//! A solo flow drains at the full effective bandwidth, so its finish
//! time reproduces the closed-form phase cost bit-for-bit (same float
//! expression, same nanosecond quantisation) — the equivalence anchor
//! the golden tests pin down.
//!
//! One simulator serves many replays: [`reset`](FlowSim::reset) rebinds
//! it to a topology, completed flows hand their phase storage to the
//! next flow started, and [`advance`](FlowSim::advance) reports into a
//! caller-owned buffer, so a warm simulator allocates nothing.

use vtrain_model::TimeNs;

use super::program::{FlowPhase, FlowProgram};
use crate::topology::{TierSpec, Topology};

/// Identifies one in-flight flow; stable until the flow completes, then
/// recycled.
pub type FlowId = usize;

#[derive(Clone, Copy, Debug)]
enum PhaseState {
    /// Paying the tier's base latency; holds no bandwidth.
    Delay { until: TimeNs },
    /// Draining `remaining` bytes of work at its tier's rate.
    /// `projected` is the completion time under the current allocation
    /// (`None` only transiently inside `advance`, before the refill).
    Drain { remaining: f64, projected: Option<TimeNs> },
}

#[derive(Clone, Debug)]
struct FlowState {
    /// The program's phases, copied in at the start.
    phases: Vec<FlowPhase>,
    phase: usize,
    /// The current phase's tier, clamped to the topology's last tier.
    tier: usize,
    state: PhaseState,
}

/// Deterministic max-min fair-sharing simulator.
///
/// A [`Default`] simulator has no tiers: [`reset`](Self::reset) it onto
/// a topology before starting flows.
#[derive(Default)]
pub struct FlowSim {
    tiers: Vec<TierSpec>,
    /// Each link's capacity: its tier's effective bandwidth.
    caps: Vec<f64>,
    flows: Vec<Option<FlowState>>,
    free: Vec<usize>,
    /// Phase vectors of completed flows, reused by the next starts.
    spare: Vec<Vec<FlowPhase>>,
    /// Flows draining on each tier, kept at every phase change.
    draining: Vec<u32>,
    /// Each tier's per-flow rate as of the last refill: its equal split.
    rates: Vec<f64>,
    /// The earliest delay expiry or projected drain, kept by every
    /// refill: nothing else moves either.
    next: Option<TimeNs>,
    now: TimeNs,
    refills: u64,
    active: usize,
    max_active: usize,
}

impl FlowSim {
    /// Creates a simulator over `topology`'s tiers; link `l` has capacity
    /// `tiers[l].effective_bandwidth()`.
    pub fn new(topology: &Topology) -> Self {
        let mut sim = FlowSim::default();
        sim.reset(topology);
        sim
    }

    /// Rebinds the simulator to `topology` with no flows, the clock at
    /// zero and the counters cleared, keeping every buffer's capacity.
    pub fn reset(&mut self, topology: &Topology) {
        self.tiers.clear();
        self.tiers.extend((0..topology.num_tiers()).map(|t| *topology.tier(t)));
        self.caps.clear();
        self.caps.extend(self.tiers.iter().map(TierSpec::effective_bandwidth));
        for flow in self.flows.drain(..).flatten() {
            self.spare.push(flow.phases);
        }
        self.free.clear();
        self.draining.clear();
        self.draining.resize(self.tiers.len(), 0);
        self.rates.clear();
        self.rates.resize(self.tiers.len(), 0.0);
        self.next = None;
        self.now = TimeNs::ZERO;
        self.refills = 0;
        self.active = 0;
        self.max_active = 0;
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
        for f in self.flows.iter().flatten() {
            if let PhaseState::Drain { .. } = f.state {
                load[f.tier] += self.rates[f.tier];
            }
        }
        load.iter().zip(&self.tiers).map(|(&l, t)| l / t.effective_bandwidth()).collect()
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
    pub fn start(&mut self, now: TimeNs, program: &FlowProgram) -> FlowId {
        assert!(!program.is_empty(), "cannot start an empty flow program");
        if self.active == 0 {
            assert!(now >= self.now, "time must not run backwards");
            self.now = now;
        } else {
            assert_eq!(now, self.now, "start() requires advance() to the start time first");
        }
        let first = program.phases[0];
        let tier = first.tier.min(self.tiers.len() - 1);
        let state = if first.latency_rounds == 0 {
            self.draining[tier] += 1;
            PhaseState::Drain { remaining: first.work, projected: None }
        } else {
            PhaseState::Delay { until: self.delay_until(self.now, tier, first.latency_rounds) }
        };
        let mut phases = self.spare.pop().unwrap_or_default();
        phases.clear();
        phases.extend_from_slice(&program.phases);
        let flow = FlowState { phases, phase: 0, tier, state };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.flows[slot] = Some(flow);
                slot
            }
            None => {
                self.flows.push(Some(flow));
                self.flows.len() - 1
            }
        };
        self.active += 1;
        self.max_active = self.max_active.max(self.active);
        self.refill();
        slot
    }

    /// `from` plus `rounds` of `tier`'s base latency.
    fn delay_until(&self, from: TimeNs, tier: usize, rounds: u32) -> TimeNs {
        let latency = self.tiers[tier].base_latency;
        let mut until = from;
        for _ in 0..rounds {
            until += latency;
        }
        until
    }

    /// The next time anything changes: a delay expiring or a drain
    /// completing. `None` when the network is idle.
    pub fn next_event(&self) -> Option<TimeNs> {
        self.next
    }

    /// Advances the clock to `to`, draining work at the current rates and
    /// processing every delay expiry and phase completion that lands
    /// exactly at `to`. Clears `completed`, then pushes the flows that
    /// completed.
    ///
    /// # Panics
    ///
    /// Panics if `to` is in the past or skips past
    /// [`next_event`](Self::next_event).
    pub fn advance(&mut self, to: TimeNs, completed: &mut Vec<FlowId>) {
        assert!(to >= self.now, "time must not run backwards");
        if let Some(event) = self.next {
            assert!(to <= event, "advance() must not skip past the next event");
        }
        let dt = (to - self.now).as_secs_f64();
        completed.clear();
        let mut changed = false;
        let last = self.tiers.len() - 1;

        for slot in 0..self.flows.len() {
            let Some(flow) = self.flows[slot].as_mut() else { continue };
            loop {
                match flow.state {
                    PhaseState::Delay { until } if until <= to => {
                        // The delay expires exactly at `to`; the drain
                        // gets its rate and projection from the refill.
                        let work = flow.phases[flow.phase].work;
                        flow.state = PhaseState::Drain { remaining: work, projected: None };
                        self.draining[flow.tier] += 1;
                        changed = true;
                        break;
                    }
                    PhaseState::Drain { projected: Some(projected), .. } if projected <= to => {
                        self.draining[flow.tier] -= 1;
                        flow.phase += 1;
                        changed = true;
                        if flow.phase == flow.phases.len() {
                            let done = self.flows[slot].take().expect("the slot is occupied");
                            self.spare.push(done.phases);
                            self.free.push(slot);
                            self.active -= 1;
                            completed.push(slot);
                            break;
                        }
                        let next = flow.phases[flow.phase];
                        flow.tier = next.tier.min(last);
                        if next.latency_rounds == 0 {
                            flow.state =
                                PhaseState::Drain { remaining: next.work, projected: None };
                            self.draining[flow.tier] += 1;
                            break;
                        }
                        let latency = self.tiers[flow.tier].base_latency;
                        let mut until = to;
                        for _ in 0..next.latency_rounds {
                            until += latency;
                        }
                        flow.state = PhaseState::Delay { until };
                        // Loop again: a zero-latency tier expires at once.
                    }
                    PhaseState::Drain { ref mut remaining, .. } => {
                        if dt > 0.0 {
                            *remaining = (*remaining - self.rates[flow.tier] * dt).max(0.0);
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
    }

    /// Reallocates rates over the draining flows — each tier split
    /// equally among the flows draining on it — re-projects their
    /// completions and finds the next event.
    fn refill(&mut self) {
        for (rate, (&cap, &n)) in self.rates.iter_mut().zip(self.caps.iter().zip(&self.draining)) {
            if n > 0 {
                *rate = cap / f64::from(n);
            }
        }
        self.next = None;
        for f in self.flows.iter_mut().flatten() {
            let at = match f.state {
                PhaseState::Delay { until } => until,
                PhaseState::Drain { remaining, ref mut projected } => {
                    let drain = TimeNs::from_secs_f64(remaining / self.rates[f.tier]);
                    *projected.insert(self.now + drain)
                }
            };
            self.next = Some(self.next.map_or(at, |next| next.min(at)));
        }
        self.refills += 1;
    }

    /// Runs every in-flight flow to completion, returning the time the
    /// network goes idle (or `now` if it already is).
    pub fn drain_all(&mut self) -> TimeNs {
        let mut completed = Vec::new();
        while let Some(event) = self.next_event() {
            self.advance(event, &mut completed);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::collective::{self, Algorithm, Collective};
    use crate::flow::max_min_rates;
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
                let id = sim.start(TimeNs::ZERO, &program);
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
        let program =
            || FlowProgram { phases: vec![FlowPhase { tier: 1, work, latency_rounds: 0 }] };
        // Solo drain time.
        let mut solo = FlowSim::new(&topo);
        solo.start(TimeNs::ZERO, &program());
        let solo_done = solo.drain_all();

        // Two concurrent flows: each runs at half rate, finishing in ~2×.
        let mut sim = FlowSim::new(&topo);
        sim.start(TimeNs::ZERO, &program());
        sim.start(TimeNs::ZERO, &program());
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
            phases: vec![FlowPhase { tier: 1, work, latency_rounds: 0 }],
        };
        let cap = topo.tier(1).effective_bandwidth();
        let mut sim = FlowSim::new(&topo);
        let mut done = Vec::new();
        sim.start(TimeNs::ZERO, &phase(cap)); // 1 s of work solo.
                                              // Half a second in, a second identical flow joins.
        let half = TimeNs::from_millis(500);
        sim.advance(half, &mut done);
        assert!(done.is_empty());
        sim.start(half, &phase(cap));
        // Incumbent: 0.5 s left at half rate → finishes at 1.5 s.
        let first = sim.next_event().unwrap();
        sim.advance(first, &mut done);
        assert_eq!(done, vec![0]);
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
            phases: vec![FlowPhase { tier, work, latency_rounds: 0 }],
        };
        let mut sim = FlowSim::new(&topo);
        sim.start(TimeNs::ZERO, &program(0, topo.tier(0).effective_bandwidth()));
        sim.start(TimeNs::ZERO, &program(1, topo.tier(1).effective_bandwidth()));
        let util = sim.utilization();
        assert!((util[0] - 1.0).abs() < 1e-12 && (util[1] - 1.0).abs() < 1e-12, "{util:?}");
        let done = sim.drain_all();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-9, "both finish in 1 s, got {done}");
    }

    #[test]
    fn slots_are_recycled_after_completion() {
        let topo = p4d_like();
        let program =
            || FlowProgram { phases: vec![FlowPhase { tier: 1, work: 1e6, latency_rounds: 1 }] };
        let mut sim = FlowSim::new(&topo);
        let a = sim.start(TimeNs::ZERO, &program());
        sim.drain_all();
        let b = sim.start(sim.now(), &program());
        assert_eq!(a, b, "completed slots are reused");
        assert_eq!(sim.max_active(), 1);
    }

    #[test]
    fn reset_replays_like_a_fresh_simulator() {
        let topo = p4d_like();
        let program = |tier: usize, work: f64| FlowProgram {
            phases: vec![
                FlowPhase { tier, work, latency_rounds: 1 },
                FlowPhase { tier: 1, work: work / 2.0, latency_rounds: 0 },
            ],
        };
        let run = |sim: &mut FlowSim| {
            sim.start(TimeNs::ZERO, &program(0, 3e8));
            sim.start(TimeNs::ZERO, &program(1, 1e8));
            (sim.drain_all(), sim.refills(), sim.max_active())
        };
        let fresh = run(&mut FlowSim::new(&topo));
        let mut reused = FlowSim::new(&three_tier());
        reused.start(TimeNs::ZERO, &program(2, 5e8));
        reused.reset(&topo);
        assert_eq!((reused.now(), reused.active(), reused.refills()), (TimeNs::ZERO, 0, 0));
        assert_eq!(run(&mut reused), fresh);
    }

    fn three_tier() -> Topology {
        p4d_like().with_rack_tier(4, TierSpec::new(25e9, TimeNs::from_micros(35), 1.0))
    }

    /// Each draining flow's rate bits, and the bits `max_min_rates`
    /// gives the same draining flows on their current phases' tiers.
    fn rates_and_max_min(sim: &FlowSim) -> (Vec<u64>, Vec<u64>) {
        let draining: Vec<&FlowState> = sim
            .flows
            .iter()
            .flatten()
            .filter(|f| matches!(f.state, PhaseState::Drain { .. }))
            .collect();
        let got = draining.iter().map(|f| sim.rates[f.tier].to_bits()).collect();
        let last = sim.tiers.len() - 1;
        let links: Vec<[usize; 1]> =
            draining.iter().map(|f| [f.phases[f.phase].tier.min(last)]).collect();
        let mut want = Vec::new();
        max_min_rates(&sim.caps, &links, &mut want);
        (got, want.iter().map(|r| r.to_bits()).collect())
    }

    proptest! {
        /// Every flow phase crosses one tier, so the refill's equal split
        /// must be exactly the progressive-filling allocation: the same
        /// rate bits for every draining flow after every join and every
        /// boundary, on random tier capacities and random multi-phase
        /// flows joining at random times.
        #[test]
        fn equal_split_matches_max_min_rates_bit_for_bit(
            bandwidths in proptest::collection::vec(1e9f64..1e12, 3..4),
            efficiencies in proptest::collection::vec(0.3f64..1.0, 3..4),
            flows in proptest::collection::vec(
                (0u64..200, proptest::collection::vec((0usize..3, 1e5f64..1e8, 0u32..3), 1..4)),
                1..16),
        ) {
            let spec = |i: usize| TierSpec::new(bandwidths[i], TimeNs::from_micros(5), efficiencies[i]);
            let topo = Topology::two_tier(8, spec(0), spec(1)).with_rack_tier(4, spec(2));
            let mut joins: Vec<(TimeNs, FlowProgram)> = flows
                .into_iter()
                .map(|(at, phases)| {
                    let phases = phases
                        .into_iter()
                        .map(|(tier, work, latency_rounds)| FlowPhase { tier, work, latency_rounds })
                        .collect();
                    (TimeNs::from_micros(at), FlowProgram { phases })
                })
                .collect();
            joins.sort_by_key(|(at, _)| std::cmp::Reverse(*at));
            let (mut sim, mut done) = (FlowSim::new(&topo), Vec::new());
            loop {
                let join = joins.last().map(|(at, _)| *at);
                let Some(at) = join.into_iter().chain(sim.next_event()).min() else { break };
                sim.advance(at, &mut done);
                let (got, want) = rates_and_max_min(&sim);
                prop_assert_eq!(got, want);
                if join == Some(at) {
                    let (_, program) = joins.pop().expect("a join");
                    sim.start(at, &program);
                    let (got, want) = rates_and_max_min(&sim);
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(sim.active(), 0);
        }
    }
}
