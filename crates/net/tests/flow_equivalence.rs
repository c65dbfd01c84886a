//! Equivalence anchor for the fair-sharing backend: with a single flow
//! in flight (no contention), replaying a collective's flow program
//! through [`FlowSim`] reproduces the closed-form cost within 1 ppm —
//! in fact bit-for-bit, because both sides evaluate the same float
//! expression and the same nanosecond quantisation. Every figure the
//! paper validates is therefore unchanged when contention is absent.

use proptest::prelude::*;
use vtrain_model::{Bytes, TimeNs};
use vtrain_net::{collective, Algorithm, Collective, FlowSim, GroupPlacement, TierSpec, Topology};

fn p4d_like() -> Topology {
    Topology::two_tier(
        8,
        TierSpec::new(235e9, TimeNs::from_micros(8), 1.0),
        TierSpec::new(50e9, TimeNs::from_micros(20), 0.77),
    )
}

fn three_tier() -> Topology {
    p4d_like().with_rack_tier(4, TierSpec::new(25e9, TimeNs::from_micros(35), 0.7))
}

const KINDS: [Collective; 4] =
    [Collective::AllReduce, Collective::AllGather, Collective::ReduceScatter, Collective::AllToAll];

const ALGORITHMS: [Algorithm; 3] = [Algorithm::Ring, Algorithm::Tree, Algorithm::Hierarchical];

/// Replays the collective as a solo flow and returns its finish time.
fn solo_flow_time(
    topo: &Topology,
    placement: GroupPlacement,
    kind: Collective,
    algorithm: Algorithm,
    bytes: Bytes,
) -> TimeNs {
    let program = collective::plan(topo, placement, kind, algorithm, bytes);
    if program.is_empty() {
        return TimeNs::ZERO;
    }
    let mut sim = FlowSim::new(topo);
    sim.start(TimeNs::ZERO, &program);
    sim.drain_all()
}

fn ppm(a: TimeNs, b: TimeNs) -> f64 {
    let (a, b) = (a.as_nanos() as f64, b.as_nanos() as f64);
    if a == b {
        return 0.0;
    }
    (a - b).abs() / a.max(b) * 1e6
}

#[test]
fn golden_single_flow_matches_closed_form_across_the_grid() {
    let placements = [
        GroupPlacement::intra_node(8),
        GroupPlacement { ranks_per_node: 8, nodes_per_rack: 4, racks: 1 },
        GroupPlacement { ranks_per_node: 1, nodes_per_rack: 8, racks: 1 },
        GroupPlacement { ranks_per_node: 8, nodes_per_rack: 4, racks: 4 },
        GroupPlacement { ranks_per_node: 1, nodes_per_rack: 4, racks: 8 },
        GroupPlacement::pair(1),
        GroupPlacement::pair(2),
    ];
    for topo in [p4d_like(), three_tier()] {
        for placement in placements {
            for kind in KINDS {
                for algorithm in ALGORITHMS {
                    for mib in [1u64, 25, 96, 1536] {
                        let bytes = Bytes::from_mib(mib);
                        let closed =
                            collective::cost(&topo, placement, kind, algorithm, bytes).total();
                        let flow = solo_flow_time(&topo, placement, kind, algorithm, bytes);
                        assert_eq!(
                            flow,
                            closed,
                            "{kind:?}/{algorithm:?}/{placement:?}/{mib} MiB: \
                             flow {flow} vs closed form {closed} ({} ppm)",
                            ppm(flow, closed)
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn zero_bytes_and_singleton_groups_are_equivalent_too() {
    let topo = p4d_like();
    for kind in KINDS {
        for algorithm in ALGORITHMS {
            let closed = collective::cost(
                &topo,
                GroupPlacement::intra_node(1),
                kind,
                algorithm,
                Bytes::from_mib(64),
            )
            .total();
            let flow = solo_flow_time(
                &topo,
                GroupPlacement::intra_node(1),
                kind,
                algorithm,
                Bytes::from_mib(64),
            );
            assert_eq!(flow, closed, "singleton {kind:?}/{algorithm:?}");

            let placement = GroupPlacement { ranks_per_node: 8, nodes_per_rack: 2, racks: 1 };
            let closed = collective::cost(&topo, placement, kind, algorithm, Bytes::ZERO).total();
            let flow = solo_flow_time(&topo, placement, kind, algorithm, Bytes::ZERO);
            assert_eq!(flow, closed, "zero bytes {kind:?}/{algorithm:?}");
            assert_eq!(flow, TimeNs::ZERO);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn single_flow_matches_closed_form_within_one_ppm(
        combo in 0usize..12,
        ranks_per_node in 1usize..9,
        nodes_per_rack in 1usize..5,
        racks in 1usize..5,
        kib in 1u64..4_000_000,
        three in 0u8..2,
    ) {
        let topo = if three == 1 { three_tier() } else { p4d_like() };
        let placement = GroupPlacement { ranks_per_node, nodes_per_rack, racks };
        let kind = KINDS[combo % 4];
        let algorithm = ALGORITHMS[combo / 4];
        let bytes = Bytes::from_kib(kib);
        let closed = collective::cost(&topo, placement, kind, algorithm, bytes).total();
        let flow = solo_flow_time(&topo, placement, kind, algorithm, bytes);
        prop_assert!(
            ppm(flow, closed) <= 1.0,
            "{:?}/{:?}/{:?}/{} KiB: flow {} vs closed {}",
            kind, algorithm, placement, kib, flow, closed
        );
    }
}
