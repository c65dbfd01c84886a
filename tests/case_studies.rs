//! Miniature end-to-end versions of the paper's three case studies (§V).

use vtrain::cluster::{
    build_catalog, generate_trace, simulate_cluster, ProfilePolicy, SchedulerConfig, TraceConfig,
};
use vtrain::prelude::*;
use vtrain::scaling::{compute_optimal_search, CandidateSpec};

/// Fig. 10's MT-NLG 530B grid (960 candidates, 195 feasible), swept on
/// one thread for its fastest plan under the closed-form network: the
/// busy floor prunes at least 177 points (the roofline floor it replaced
/// pruned 167), and the winner is the exhaustive sweep's,
/// (8, 32, 105) m=1 at 9.481 s.
#[test]
fn best_prunes_the_mtnlg_grid_and_keeps_the_exhaustive_winner() {
    let scenario = Scenario::from_json(
        r#"{"model": {"preset": "mt-nlg-530b"},
            "cluster": {"preset": "dgx-a100-80gb", "total_gpus": 53760},
            "sweep": {"global_batch": 1920, "goal": "best",
                      "limits": {"max_tensor": 16, "max_data": 32, "max_pipeline": 105,
                                 "max_micro_batch": 2}}}"#,
    )
    .unwrap();
    let sweep = scenario.sweep().unwrap().threads(1);
    let best = sweep.clone().run().into_outcome();
    let exhaustive = sweep.goal(SweepGoal::Exhaustive).run().into_outcome();
    assert_eq!((exhaustive.stats.candidates, exhaustive.stats.evaluated), (960, 195));
    let want = exhaustive.points.iter().min_by_key(|p| p.estimate.iteration_time).unwrap();
    assert_eq!(best.points, vec![want.clone()]);
    let plan = want.plan;
    assert_eq!((plan.tensor(), plan.data(), plan.pipeline(), plan.micro_batch()), (8, 32, 105, 1));
    assert_eq!(format!("{:.3}", want.estimate.iteration_time.as_secs_f64()), "9.481");
    assert!(best.stats.bound_pruned >= 177, "pruned {} of 195", best.stats.bound_pruned);
}

/// Case study #1: design-space exploration uncovers a plan at least as
/// cost-effective as a fixed heuristic plan with a similar GPU budget.
#[test]
fn dse_finds_plan_no_worse_than_heuristic() {
    let estimator = Estimator::builder(ClusterSpec::aws_p4d(128)).build();
    let model = presets::megatron("3.6B");
    let global_batch = 256;

    // A reasonable heuristic: max tensor parallelism, data parallel rest.
    let heuristic = ParallelConfig::builder()
        .tensor(8)
        .data(16)
        .pipeline(1)
        .micro_batch(1)
        .global_batch(global_batch)
        .build()
        .unwrap();
    let heuristic_est = estimator.estimate(&model, &heuristic).unwrap();

    let limits = SearchLimits { max_tensor: 8, max_data: 32, max_pipeline: 6, max_micro_batch: 8 };
    let outcome = Sweep::on(&estimator, &model)
        .batch(global_batch)
        .limits(limits)
        .threads(8)
        .run()
        .into_outcome();
    let cost = CostModel::default();
    let (best, proj) =
        search::most_cost_effective(&outcome.points, 50_000_000_000, &cost, 128).unwrap();
    let heuristic_proj = TrainingProjection::project(
        heuristic_est.iteration_time,
        heuristic_est.tokens_per_iteration,
        50_000_000_000,
        heuristic_est.num_gpus,
        &cost,
    );
    assert!(
        proj.total_dollars <= heuristic_proj.total_dollars,
        "DSE (${:.0}) must not lose to the heuristic (${:.0}); best plan {}",
        proj.total_dollars,
        heuristic_proj.total_dollars,
        best.plan
    );
}

/// Table II in miniature: vTrain's recommended plan beats the heuristic on
/// BOTH the predicted and the ground-truth-measured timelines.
#[test]
fn recommended_plan_wins_predicted_and_measured() {
    let estimator = Estimator::builder(ClusterSpec::aws_p4d(64)).build();
    let model = presets::megatron("3.6B");
    let global_batch = 512;
    let noise = NoiseModel::new(NoiseConfig::default());

    // The [40]-style heuristic for 3.6B on 64 GPUs: (2, 32, 1), m = 16.
    let heuristic = ParallelConfig::builder()
        .tensor(2)
        .data(32)
        .pipeline(1)
        .micro_batch(16)
        .global_batch(global_batch)
        .build()
        .unwrap();

    let limits = SearchLimits { max_tensor: 8, max_data: 64, max_pipeline: 3, max_micro_batch: 16 };
    let candidates = search::enumerate_candidates(
        &model,
        estimator.cluster(),
        global_batch,
        PipelineSchedule::OneFOneB,
        &limits,
    );
    let candidates: Vec<_> = candidates.into_iter().filter(|c| c.num_gpus() == 64).collect();
    let outcome =
        Sweep::on(&estimator, &model).candidates(candidates).threads(8).run().into_outcome();
    let ours = search::fastest_within_gpu_budget(&outcome.points, 64).unwrap();

    let pred_heuristic = estimator.estimate(&model, &heuristic).unwrap().iteration_time;
    let pred_ours = ours.estimate.iteration_time;
    assert!(pred_ours <= pred_heuristic, "prediction must prefer our plan");

    let meas_heuristic = estimator.measure_with(&model, &heuristic, &noise).unwrap().iteration_time;
    let meas_ours = estimator.measure_with(&model, &ours.plan, &noise).unwrap().iteration_time;
    assert!(
        meas_ours.as_secs_f64() <= meas_heuristic.as_secs_f64() * 1.02,
        "the win must survive ground-truth measurement: ours {meas_ours} vs heuristic {meas_heuristic}"
    );
}

/// Case study #2: on stressed traces the vTrain-informed scheduler meets at
/// least as many deadlines and never lengthens the makespan.
#[test]
fn scheduler_with_vtrain_profiles_never_worse() {
    let total_gpus = 64;
    let estimator = Estimator::builder(ClusterSpec::aws_p4d(total_gpus)).build();
    let models = vec![(presets::megatron("1.7B"), 64usize)];
    let limits = SearchLimits { max_tensor: 8, max_data: 8, max_pipeline: 4, max_micro_batch: 4 };
    let catalog = build_catalog(&estimator, &models, &limits, 8);
    let entry = catalog.get("Megatron 1.7B").unwrap();
    assert!(entry.vtrain.dominates(&entry.baseline));

    for seed in 1..=3u64 {
        let jobs = generate_trace(
            &TraceConfig {
                num_jobs: 24,
                seed,
                arrival_window: TimeNs::from_secs(3600),
                deadline_lambda: Some((0.5, 1.5)),
                iterations: (200, 800),
            },
            &catalog,
        );
        let base = simulate_cluster(
            &jobs,
            &catalog,
            &SchedulerConfig::new(total_gpus, ProfilePolicy::DataParallelOnly),
        );
        let vt = simulate_cluster(
            &jobs,
            &catalog,
            &SchedulerConfig::new(total_gpus, ProfilePolicy::VTrainOptimal),
        );
        assert!(
            vt.deadline_satisfactory_ratio() + 1e-9 >= base.deadline_satisfactory_ratio(),
            "seed {seed}: deadline ratio regressed"
        );
    }
}

/// Case study #3: accounting for effective utilization always shrinks the
/// "largest trainable model" verdict vs the naive peak-FLOPS sizing.
#[test]
fn realistic_chinchilla_point_is_smaller_than_naive() {
    let gpus = 64;
    let days = 20.0;
    let cluster = ClusterSpec::aws_p4d(gpus);
    let law = ChinchillaLaw::default();
    let naive =
        law.optimal_point(ChinchillaLaw::gpu_budget(gpus, days, cluster.gpu.peak_fp16_flops));

    let estimator = Estimator::builder(cluster).build();
    let candidates = [
        CandidateSpec { hidden: 2048, layers: 24, heads: 16 },
        CandidateSpec { hidden: 3072, layers: 30, heads: 32 },
        CandidateSpec { hidden: 4096, layers: 36, heads: 32 },
        CandidateSpec { hidden: 6144, layers: 40, heads: 48 },
    ];
    let limits = SearchLimits { max_tensor: 8, max_data: 8, max_pipeline: 6, max_micro_batch: 4 };
    let (outcomes, best) =
        compute_optimal_search(&estimator, &law, &candidates, 128, days, &limits, 8);
    assert!(!outcomes.is_empty());
    let best = best.expect("some candidate fits 20 days on 64 GPUs");
    assert!(
        best.params < naive.params,
        "realistic pick {:.1}B must undercut naive {:.1}B",
        best.params / 1e9,
        naive.params / 1e9
    );
    // Utilization of the chosen plan is far below the naive 100 %.
    assert!(best.utilization < 0.7);
}
