//! Golden pins on the `Sweep` builder — the one sweep entry point.
//!
//! The deprecated free-function sweeps (and the deprecated `Estimator`
//! constructors) were deleted after their deprecation cycle; these tests
//! keep the builder's observable behaviour pinned in their place: the
//! fig10-style grid JSON must be **deterministic** (byte-identical run
//! to run and across thread counts), goal-filtered results must be the
//! exhaustive winners, and the placement axis must label its variants
//! stably.

use vtrain::prelude::*;

fn grid(model: &ModelConfig, cluster: &ClusterSpec, batch: usize) -> Vec<ParallelConfig> {
    let limits = SearchLimits { max_tensor: 8, max_data: 8, max_pipeline: 4, max_micro_batch: 2 };
    search::enumerate_candidates(model, cluster, batch, PipelineSchedule::OneFOneB, &limits)
}

/// The grid JSON of a sweep outcome, as one string for byte-wise
/// comparison.
fn grid_json(points: &[DesignPoint]) -> String {
    serde_json::to_string(&points.to_vec()).unwrap()
}

#[test]
fn sweep_builder_grid_json_is_deterministic_across_thread_counts() {
    let model = presets::megatron("1.7B");
    let cluster = ClusterSpec::aws_p4d(64);
    let candidates = grid(&model, &cluster, 32);
    assert!(candidates.len() > 30, "grid too small to be meaningful");

    for goal in [SweepGoal::Exhaustive, SweepGoal::Front, SweepGoal::Best] {
        let reference = Sweep::over(&model, &cluster)
            .candidates(candidates.clone())
            .threads(1)
            .goal(goal)
            .run()
            .into_outcome();
        for threads in [2, 4] {
            let outcome = Sweep::over(&model, &cluster)
                .candidates(candidates.clone())
                .threads(threads)
                .goal(goal)
                .run()
                .into_outcome();
            assert_eq!(
                grid_json(&reference.points),
                grid_json(&outcome.points),
                "grid JSON must be byte-identical at {threads} threads under {goal:?}"
            );
            assert_eq!(reference.stats.candidates, outcome.stats.candidates);
            assert_eq!(reference.stats.pruned, outcome.stats.pruned);
            // Only `Best` prunes by bound, so only its `evaluated` and
            // `bound_pruned` depend on incumbent race timing.
            if goal != SweepGoal::Best {
                assert_eq!(reference.stats.evaluated, outcome.stats.evaluated, "{goal:?}");
                assert_eq!(reference.stats.bound_pruned, 0, "{goal:?}");
                assert_eq!(outcome.stats.bound_pruned, 0, "{goal:?}");
            }
        }
    }
}

#[test]
fn goal_filtered_sweeps_return_the_exhaustive_winners() {
    let model = presets::megatron("1.7B");
    let cluster = ClusterSpec::aws_p4d(64);
    let candidates = grid(&model, &cluster, 32);

    let sweep = |goal| {
        Sweep::over(&model, &cluster)
            .candidates(candidates.clone())
            .threads(4)
            .goal(goal)
            .run()
            .into_outcome()
    };
    let exhaustive = sweep(SweepGoal::Exhaustive);
    let best = sweep(SweepGoal::Best);
    let front = sweep(SweepGoal::Front);

    let fastest =
        exhaustive.points.iter().min_by_key(|p| p.estimate.iteration_time).unwrap().clone();
    assert_eq!(best.points.len(), 1);
    assert_eq!(grid_json(&best.points), grid_json(&[fastest]));

    // Every front point exists verbatim in the exhaustive grid, and the
    // front is no larger than the grid.
    assert!(!front.points.is_empty() && front.points.len() <= exhaustive.points.len());
    let exhaustive_json = grid_json(&exhaustive.points);
    for p in &front.points {
        let single = grid_json(std::slice::from_ref(p));
        let body = &single[1..single.len() - 1]; // strip the [ ] brackets
        assert!(exhaustive_json.contains(body), "front point missing from the exhaustive grid");
    }
}

#[test]
fn placement_sweep_labels_variants_stably() {
    let model = presets::megatron("1.7B");
    let cluster = ClusterSpec::aws_p4d(32);
    let candidates = grid(&model, &cluster, 16);
    let spine = TierSpec::new(25e9, TimeNs::from_micros(35), 1.0);
    let topologies = vec![
        ("two-tier".to_owned(), cluster.topology(1.0)),
        ("multi-rack/2".to_owned(), cluster.topology(1.0).with_rack_tier(2, spine)),
    ];

    let run = |threads| {
        Sweep::over(&model, &cluster)
            .candidates(candidates.clone())
            .placements(topologies.clone())
            .threads(threads)
            .run()
            .into_variants()
    };
    let a = run(1);
    let b = run(4);

    assert_eq!(a.len(), 2);
    assert_eq!(a.len(), b.len());
    for ((one, other), (label, _)) in a.iter().zip(&b).zip(&topologies) {
        assert_eq!(one.label, *label);
        assert_eq!(one.label, other.label);
        assert_eq!(
            grid_json(&one.outcome.points),
            grid_json(&other.outcome.points),
            "placement `{label}` grid JSON must be byte-identical across thread counts"
        );
    }
}

#[test]
fn fair_sharing_sweeps_agree_with_per_point_estimates() {
    let model = presets::megatron("1.7B");
    let cluster = ClusterSpec::aws_p4d(32);
    let candidates = grid(&model, &cluster, 16);
    assert!(candidates.len() > 10, "grid too small to be meaningful");

    // `Sweep::on` inherits the estimator's backend, so every point of a
    // fair-sharing sweep must equal the same estimator's ad-hoc answer.
    let estimator =
        Estimator::builder(cluster.clone()).network(NetworkBackend::FairSharing).build();
    assert_eq!(estimator.network(), NetworkBackend::FairSharing);
    let outcome = Sweep::on(&estimator, &model)
        .candidates(candidates.clone())
        .threads(2)
        .run()
        .into_outcome();
    assert_eq!(outcome.points.len(), candidates.len() - outcome.stats.pruned as usize);
    for point in &outcome.points {
        let solo = estimator.estimate(&model, &point.plan).unwrap();
        assert_eq!(
            point.estimate.iteration_time, solo.iteration_time,
            "sweep point {} must match the ad-hoc fair-sharing estimate",
            point.plan
        );
        assert_eq!(point.estimate.utilization.to_bits(), solo.utilization.to_bits());
    }

    // The contention replay is deterministic across the threaded executor.
    let again = Sweep::over(&model, &cluster)
        .candidates(candidates)
        .network(NetworkBackend::FairSharing)
        .threads(4)
        .run()
        .into_outcome();
    assert_eq!(grid_json(&outcome.points), grid_json(&again.points));
}

#[test]
fn builder_axes_match_explicitly_configured_estimators() {
    let model = presets::megatron("1.7B");
    let cluster = ClusterSpec::aws_p4d(32);
    let plan = ParallelConfig::builder()
        .tensor(2)
        .data(4)
        .pipeline(2)
        .micro_batch(1)
        .global_batch(16)
        .build()
        .unwrap();

    // The default build and an explicitly-defaulted build agree bit-for-bit.
    let default = Estimator::builder(cluster.clone()).build().estimate(&model, &plan).unwrap();
    let explicit =
        Estimator::builder(cluster.clone()).alpha(1.0).build().estimate(&model, &plan).unwrap();
    assert_eq!(default.iteration_time, explicit.iteration_time);
    assert_eq!(default.utilization.to_bits(), explicit.utilization.to_bits());

    // The topology axis changes pricing deterministically.
    let aware =
        Estimator::builder(cluster.clone()).alpha(0.9).topology(cluster.topology(0.9)).build();
    assert!(aware.is_topology_aware());
    let a = aware.estimate(&model, &plan).unwrap();
    let b = Estimator::builder(cluster.clone())
        .alpha(0.9)
        .topology(cluster.topology(0.9))
        .build()
        .estimate(&model, &plan)
        .unwrap();
    assert_eq!(a.iteration_time, b.iteration_time);
    assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
}
