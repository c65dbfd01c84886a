//! The admissible floor that licenses bound-guided design-space pruning
//! ([`SweepGoal::Best`](crate::search::SweepGoal::Best)): the busiest
//! stream's exact busy time, from the slot table the estimate itself
//! prices.
//!
//! The replay runs one task at a time on each (device, stream) timeline,
//! so no stream's busy time can exceed the iteration time. A stream's
//! busy time is `Σ slot latency × the slot's multiplicity on that
//! stream`, both read off the plan's priced slot record
//! ([`price_plan`](crate::compact::price_plan), the paper's necessary
//! operators, §III-C): the latencies, and each slot's closed-form count
//! per stage
//! ([`visit_slot_multiplicities`](vtrain_graph::visit_slot_multiplicities)),
//! from which the compact replays book their busy sums too. So the floor
//! costs one slot pricing and `O(p)` arithmetic, no lowering, and a
//! point that survives the test reuses the pricing for its estimate.
//!
//! * **Compute stream** — compute operators and TP All-Reduces. No TP
//!   All-Reduce carries a flow program, so under either network this
//!   term equals the stage's simulated device busy time exactly.
//! * **Communication stream** — pipeline sends and DP All-Reduces. Under
//!   fair sharing a flow drains at most at its tier's effective
//!   bandwidth, so contention can only lengthen it, and a lone flow never
//!   finishes before its closed-form latency (a property test below
//!   checks this on flat, two-tier, racked and thin-spine interconnects),
//!   so their closed-form prices floor it.
//!
//! Admissibility (`floor ≤ simulated iteration time` on every valid plan)
//! is proven by the property tests below; the sweep's goal tests
//! additionally prove end to end that pruning never changes winners.

use vtrain_model::TimeNs;

use crate::compact::CompactScratch;

/// The busiest stream's busy time of the plan of `stages` stages whose
/// slot record `compact` holds, leaving each stage's
/// `[compute, communication]` busy nanoseconds in `busy`.
pub(crate) fn busy_floor(
    compact: &CompactScratch,
    stages: usize,
    busy: &mut Vec<[u64; 2]>,
) -> TimeNs {
    busy.clear();
    busy.resize(stages, [0; 2]);
    let values = compact.slot_values();
    for &(slot, stage, count) in compact.slot_counts() {
        let slot = slot as usize;
        busy[stage as usize][usize::from(compact.task_kind(slot).stream())] +=
            values[slot].as_nanos() * count;
    }
    TimeNs::from_nanos(busy.iter().flatten().copied().max().unwrap_or(0))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use vtrain_graph::{build_op_graph, visit_plan_slots, SlotOp};
    use vtrain_model::presets;
    use vtrain_net::flow::FlowSim;
    use vtrain_net::{NetworkBackend, TierSpec};
    use vtrain_parallel::{ClusterSpec, ParallelConfig, PipelineSchedule};

    use super::*;
    use crate::compact::price_plan;
    use crate::compact::tests::{interconnect, profiles};
    use crate::estimate::Estimator;
    use crate::sim::{simulate, SimMode};
    use crate::task_graph::TaskGraph;

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

    /// A 512-GPU estimator on the `net`-th interconnect of
    /// [`interconnect`] — flat, two-tier with α = 0.8, racked behind a
    /// 25 GB/s spine, racked behind a 12.5 GB/s spine — under the
    /// fair-sharing network if `fair`, else the closed form.
    fn estimator(net: u32, fair: bool) -> Estimator {
        let cluster = ClusterSpec::aws_p4d(512);
        let spine = |bandwidth| TierSpec::new(bandwidth, TimeNs::from_micros(35), 1.0);
        let backend = if fair { NetworkBackend::FairSharing } else { NetworkBackend::ClosedForm };
        let builder = Estimator::builder(cluster.clone()).network(backend);
        match net {
            0 => builder,
            1 => builder.topology(cluster.topology(0.8)),
            2 => builder.topology(cluster.topology(1.0).with_rack_tier(2, spine(25e9))),
            _ => builder.topology(cluster.topology(1.0).with_rack_tier(2, spine(12.5e9))),
        }
        .build()
    }

    #[test]
    fn floor_is_positive_and_usefully_tight_on_a_compute_bound_point() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(8)).build();
        let model = presets::megatron("1.7B");
        let p = plan(1, 1, 1, 1, 4, PipelineSchedule::OneFOneB, true);
        let bound = est.lower_bound(&model, &p);
        let actual = est.estimate(&model, &p).unwrap().iteration_time;
        assert!(bound > TimeNs::ZERO);
        // A single-GPU point is one serialized compute stream: its busy
        // time is the whole iteration.
        assert_eq!(bound, actual);
    }

    #[test]
    fn floor_is_admissible_for_topology_aware_estimators() {
        let cluster = ClusterSpec::aws_p4d(64);
        let est = Estimator::builder(cluster.clone()).topology(cluster.topology(1.0)).build();
        let model = presets::megatron("1.7B");
        for cfg in [
            plan(2, 16, 1, 1, 16, PipelineSchedule::OneFOneB, true),
            plan(8, 8, 1, 2, 128, PipelineSchedule::OneFOneB, true),
            plan(2, 2, 4, 1, 8, PipelineSchedule::GPipe, false),
        ] {
            est.validate(&model, &cfg).unwrap();
            let bound = est.lower_bound(&model, &cfg);
            let actual = est.estimate(&model, &cfg).unwrap().iteration_time;
            assert!(bound <= actual, "{cfg}: bound {bound} vs actual {actual}");
            assert!(bound > TimeNs::ZERO, "{cfg}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Admissibility: on random valid plans the busy floor never
        /// exceeds the simulated Predicted iteration time, on all four
        /// interconnects under both networks.
        #[test]
        fn floor_never_exceeds_simulated_time(
            t_exp in 0usize..=2,
            d_exp in 0usize..=3,
            p in 1usize..=6,
            m_exp in 0usize..=1,
            k in 1usize..=3,
            flags in 0u32..32,
        ) {
            let (gpipe, bucketing, fair) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let net = flags >> 3;
            let (t, d, m) = (1usize << t_exp, 1usize << d_exp, 1usize << m_exp);
            let b = d * m * k;
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let cfg = plan(t, d, p, m, b, sched, bucketing);
            let model = presets::megatron("1.7B");
            let est = estimator(net, fair);
            prop_assume!(est.validate(&model, &cfg).is_ok());
            let bound = est.lower_bound(&model, &cfg);
            let actual = est.estimate(&model, &cfg).unwrap().iteration_time;
            prop_assert!(
                bound <= actual,
                "plan {} net {} fair {}: bound {} exceeds simulated {}", cfg, net, fair, bound, actual
            );
        }

        /// Exactness: under the closed form, each stage's compute-stream
        /// floor term is that device's busy time in the replay of the
        /// independently priced full task graph, to the nanosecond, on
        /// every interconnect.
        #[test]
        fn compute_stream_floor_equals_device_busy(
            exps in (0usize..=3, 0usize..=5, 0usize..=2),
            p in 1usize..=12,
            n_micro in 1usize..=40,
            flags in 0u32..8,
            net in 0u32..4,
        ) {
            let (gpipe, bucketing, large) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            let model = presets::megatron(if large { "18.4B" } else { "1.7B" });
            let (t, d, m) = (1usize << exps.0, 1usize << exps.1, 1usize << exps.2);
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let cfg = plan(t, d, p, m, d * m * n_micro, sched, bucketing);
            let (comm, opts) = interconnect(net, false);
            let mut table = profiles(&model, &cfg, &opts);
            let mut compact = CompactScratch::default();
            price_plan(&model, &cfg, &opts, &mut table, &comm, &mut compact);
            let mut busy = Vec::new();
            let floor = busy_floor(&compact, p, &mut busy);
            let full = TaskGraph::lower(&build_op_graph(&model, &cfg, &opts), &table, &comm).unwrap();
            let report = simulate(&full, SimMode::Predicted);
            let compute: Vec<u64> = busy.iter().map(|b| b[0]).collect();
            let device_busy: Vec<u64> = report.device_busy.iter().map(|t| t.as_nanos()).collect();
            prop_assert!(compute == device_busy, "{} net {}: {:?} vs {:?}", cfg, net, compute, device_busy);
            prop_assert!(floor <= report.iteration_time, "{}", cfg);
        }

        /// Fair-sharing soundness: a lone flow replayed by the flow
        /// simulator never finishes before its operator's closed-form
        /// latency, in integer nanoseconds, for every communication
        /// operator the flat, two-tier, racked and thin-spine
        /// interconnects price. Contention only slows a flow down, so
        /// the communication stream's closed-form busy time floors its
        /// fair-sharing busy time.
        #[test]
        fn lone_flows_never_beat_their_closed_form_latency(
            exps in (0usize..=3, 0usize..=6, 0usize..=3),
            p in 1usize..=8,
            flags in 0u32..4,
            net in 0u32..4,
        ) {
            let (bucketing, large) = (flags & 1 != 0, flags & 2 != 0);
            let model = presets::megatron(if large { "18.4B" } else { "1.7B" });
            let (t, d, m) = (1usize << exps.0, 1usize << exps.1, 1usize << exps.2);
            let cfg = plan(t, d, p, m, d * m, PipelineSchedule::OneFOneB, bucketing);
            let (comm, opts) = interconnect(net, true);
            let mut sim = FlowSim::new(comm.topology());
            let mut ops = Vec::new();
            visit_plan_slots(&model, &cfg, &opts, |op| {
                if let SlotOp::Comm(c) = op {
                    ops.push(c);
                }
            });
            for c in ops {
                let Some(program) = comm.flow_program(&c) else { continue };
                sim.reset(comm.topology());
                sim.start(TimeNs::ZERO, &program);
                let solo = sim.drain_all();
                let closed = comm.latency(&c);
                prop_assert!(solo >= closed, "{:?} on net {}: solo {} < closed {}", c, net, solo, closed);
            }
        }
    }
}
