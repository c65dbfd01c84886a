//! Figure 10: full design-space exploration of MT-NLG 530B — single-
//! iteration training time (a) and GPU compute utilization (b) over the
//! `(t, d, p)` grid.
//!
//! The default grid covers the paper's axes at a coarser density to finish
//! in minutes; pass `--full` for the complete `t ≤ 16, d ≤ 32, p ≤ 105`
//! sweep, or `--smoke` for the CI throughput probe (a thin grid that still
//! exercises the staged pipeline and the shared profile cache). Pass
//! `--topology` to additionally sweep the same grid over interconnect
//! placements (two-tier vs multi-rack, writing `fig10_topology.json`) —
//! the axis the flat communication model could not express. Pass
//! `--goal {exhaustive|front|best}` to filter the result: `front`
//! evaluates the exhaustive grid and keeps exactly its Pareto frontier;
//! `best` lets the bound-guided executor skip points whose busy floor
//! is already slower than the incumbent and returns exactly the
//! exhaustive fastest point. Only `best` computes bounds.
//!
//! Every run also writes `results/BENCH_sweep.json` with the sweep's
//! throughput report (wall time, points/s, cache hit-rate) and the
//! section copies the compact replay walks over one obs-on sweep of the
//! grid, so the perf trajectory is tracked across PRs.
//!
//! ```sh
//! cargo run --release -p vtrain-bench --bin fig10_design_space [-- --full | --smoke]
//! ```

use serde::Serialize;
use vtrain_bench::{full_mode, mtnlg_workload, report, sweep_goal, threads};
use vtrain_core::search::{self, SearchLimits, StageProfile, SweepGoal, SweepStats};
use vtrain_core::Estimator;
use vtrain_model::TimeNs;
use vtrain_net::TierSpec;
use vtrain_parallel::{ClusterSpec, ParallelConfig, PipelineSchedule};

#[derive(Serialize)]
struct Row {
    tensor: usize,
    data: usize,
    pipeline: usize,
    micro_batch: usize,
    gpus: usize,
    iteration_s: f64,
    utilization_pct: f64,
}

/// The sweep-throughput record of `results/BENCH_sweep.json`.
#[derive(Serialize)]
struct SweepBench {
    grid: &'static str,
    goal: String,
    stats: SweepStats,
    points_per_sec: f64,
    cache_hit_rate: f64,
    /// Warm-cache re-run (best of 3) with observability disabled — the
    /// baseline of the instrumentation-overhead A/B (absent under
    /// `--full`).
    points_per_sec_obs_off: Option<f64>,
    /// The same warm-cache re-run with the metrics registry and spans
    /// enabled; a `check_bench` gate compares it with the obs-off twin.
    points_per_sec_obs_on: Option<f64>,
    /// Warm-cache re-run (best of 3) on exactly one worker thread — the
    /// single-thread twin of the parallel-efficiency gate.
    points_per_sec_1t: Option<f64>,
    /// Warm-cache re-run on every available core; a `check_bench` gate
    /// compares it with `points_per_sec_1t` × `threads_mt`.
    points_per_sec_mt: Option<f64>,
    /// Thread count of the multi-thread re-run.
    threads_mt: Option<usize>,
    /// Whether every point of the warm sweep, delta-patched or not,
    /// equals a from-scratch [`Estimator::estimate`] of the same plan in
    /// every field; a `check_bench` gate requires `true` when present.
    delta_equivalent: Option<bool>,
    /// Σ `estimate.compact.periods_walked` over one exhaustive obs-on
    /// re-run of the grid: the section copies the compact replay walked
    /// rather than extrapolated. Deterministic for a grid; a
    /// `check_bench` gate caps it at its baseline.
    periods_walked: u64,
    /// Σ `estimate.compact.periods_total` over the same re-run: every
    /// section copy the grid's plans run.
    periods_total: u64,
    /// Per-stage CPU-time attribution of a stage-profiled re-run
    /// (absent under `--full`).
    stage_profile: Option<StageProfile>,
    /// The same attribution under a bound-guided `best` goal: floor
    /// pricing shows up as nonzero `bound_ns` (the attribution bucket a
    /// pre-fix regression silently folded into lowering), observable in
    /// the benchmark record regardless of the CLI goal.
    stage_profile_goal: Option<StageProfile>,
}

/// `(walked, total)` section copies of one exhaustive sweep of
/// `candidates` with observability on, read as the growth of the
/// `estimate.compact.periods_*` histograms.
fn walked_copies(
    estimator: &Estimator,
    model: &vtrain_model::ModelConfig,
    candidates: &std::sync::Arc<[ParallelConfig]>,
) -> (u64, u64) {
    let metrics = vtrain_obs::global();
    let walked = metrics.histogram("estimate.compact.periods_walked");
    let total = metrics.histogram("estimate.compact.periods_total");
    let before = (walked.sum(), total.sum());
    vtrain_obs::set_enabled(true);
    search::Sweep::on(estimator, model)
        .candidates(std::sync::Arc::clone(candidates))
        .threads(threads())
        .goal(SweepGoal::Exhaustive)
        .run();
    vtrain_obs::set_enabled(false);
    (walked.sum() - before.0, total.sum() - before.1)
}

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

fn topology_mode() -> bool {
    std::env::args().any(|a| a == "--topology")
}

/// The placement axis: the same candidate plans priced under two-tier and
/// multi-rack interconnects (one shared profile cache across variants).
fn sweep_placements(
    cluster: &ClusterSpec,
    model: &vtrain_model::ModelConfig,
    candidates: std::sync::Arc<[ParallelConfig]>,
    goal: SweepGoal,
) {
    #[derive(Serialize)]
    struct TopoRow {
        placement: String,
        tensor: usize,
        data: usize,
        pipeline: usize,
        iteration_s: f64,
    }
    let spine = TierSpec::new(25e9, TimeNs::from_micros(35), 1.0);
    let topologies = vec![
        ("two-tier".to_owned(), cluster.topology(1.0)),
        ("multi-rack/8".to_owned(), cluster.topology(1.0).with_rack_tier(8, spine)),
        ("multi-rack/4".to_owned(), cluster.topology(1.0).with_rack_tier(4, spine)),
    ];
    let sweeps = search::Sweep::over(model, cluster)
        .candidates(candidates)
        .placements(topologies)
        .threads(threads())
        .goal(goal)
        .run()
        .into_variants();
    println!("\nplacement sweep (same grid, different interconnects):");
    println!("{:<14} {:>8} {:>14} {:>10}", "placement", "points", "fastest (s)", "pts/s");
    let mut rows = Vec::new();
    for s in &sweeps {
        let fastest = s.outcome.points.iter().min_by_key(|p| p.estimate.iteration_time);
        if let Some(best) = fastest {
            println!(
                "{:<14} {:>8} {:>14.2} {:>10.1}",
                s.label,
                s.outcome.points.len(),
                best.estimate.iteration_time.as_secs_f64(),
                s.outcome.stats.points_per_sec()
            );
        }
        rows.extend(s.outcome.points.iter().map(|p| TopoRow {
            placement: s.label.clone(),
            tensor: p.plan.tensor(),
            data: p.plan.data(),
            pipeline: p.plan.pipeline(),
            iteration_s: p.estimate.iteration_time.as_secs_f64(),
        }));
    }
    report::dump_json("fig10_topology", &rows);
}

fn main() {
    report::banner("Figure 10: MT-NLG (t, d, p) design-space exploration");
    let (model, global_batch, _) = mtnlg_workload();
    // MT-NLG trained on A100-80GB DGX nodes; allow the paper's full grid.
    let cluster = ClusterSpec::dgx_a100_80gb(16 * 32 * 105);
    let estimator = Estimator::builder(cluster.clone()).build();

    let (grid, limits) = if full_mode() {
        (
            "full",
            SearchLimits { max_tensor: 16, max_data: 32, max_pipeline: 105, max_micro_batch: 2 },
        )
    } else if smoke_mode() {
        (
            "smoke",
            SearchLimits { max_tensor: 16, max_data: 24, max_pipeline: 21, max_micro_batch: 1 },
        )
    } else {
        (
            "coarse",
            SearchLimits { max_tensor: 16, max_data: 24, max_pipeline: 35, max_micro_batch: 1 },
        )
    };
    let mut candidates = search::enumerate_candidates(
        &model,
        &cluster,
        global_batch,
        PipelineSchedule::OneFOneB,
        &limits,
    );
    if !full_mode() {
        // Thin the micro-batch-heavy low-d corner that dominates runtime.
        let min_d = if smoke_mode() { 8 } else { 4 };
        candidates.retain(|c: &ParallelConfig| c.data() >= min_d || c.pipeline() >= 15);
    }
    let goal = sweep_goal();
    println!("candidates: {} (goal {goal:?})", candidates.len());
    // One Arc-shared grid across the main sweep and the placement axis.
    let candidates: std::sync::Arc<[ParallelConfig]> = candidates.into();
    let outcome = search::Sweep::on(&estimator, &model)
        .candidates(std::sync::Arc::clone(&candidates))
        .threads(threads())
        .goal(goal)
        .run()
        .into_outcome();
    let stats = outcome.stats;
    println!(
        "feasible points: {} (swept in {:.1}s — the paper reports <200s for the full space)",
        outcome.points.len(),
        stats.wall_s
    );
    println!(
        "sweep: {} pruned pre-lowering, {} bound-pruned, {:.1} points/s, profile-cache \
         hit-rate {:.1}% ({} hits / {} misses), {} threads",
        stats.pruned,
        stats.bound_pruned,
        stats.points_per_sec(),
        stats.cache_hit_rate() * 100.0,
        stats.cache_hits,
        stats.cache_misses,
        stats.threads
    );

    let rows: Vec<Row> = outcome
        .points
        .iter()
        .map(|p| Row {
            tensor: p.plan.tensor(),
            data: p.plan.data(),
            pipeline: p.plan.pipeline(),
            micro_batch: p.plan.micro_batch(),
            gpus: p.estimate.num_gpus,
            iteration_s: p.estimate.iteration_time.as_secs_f64(),
            utilization_pct: p.estimate.utilization * 100.0,
        })
        .collect();

    // Print the t = 8 slice the paper's heat map highlights.
    println!("\nslice t = 8 (iteration seconds):");
    println!("{:>6} {:>6} {:>6} {:>10} {:>8}", "d", "p", "GPUs", "iter (s)", "util %");
    let mut slice: Vec<&Row> = rows.iter().filter(|r| r.tensor == 8).collect();
    slice.sort_by_key(|r| (r.pipeline, r.data));
    for r in slice.iter().take(40) {
        println!(
            "{:>6} {:>6} {:>6} {:>10.2} {:>8.1}",
            r.data, r.pipeline, r.gpus, r.iteration_s, r.utilization_pct
        );
    }

    // Headline observations of §V-A.
    if let Some(fastest) = rows.iter().min_by(|a, b| a.iteration_s.total_cmp(&b.iteration_s)) {
        println!(
            "\nfastest point: (t={}, d={}, p={}) {:.2}s at {:.1}% utilization on {} GPUs",
            fastest.tensor,
            fastest.data,
            fastest.pipeline,
            fastest.iteration_s,
            fastest.utilization_pct,
            fastest.gpus
        );
        println!("(the paper's (16,16,105) analogue is fast but wasteful: ~17% utilization)");
    }
    if topology_mode() {
        sweep_placements(&cluster, &model, candidates.clone(), goal);
    }
    report::dump_json("fig10_design_space", &rows);

    let (periods_walked, periods_total) = walked_copies(&estimator, &model, &candidates);
    println!(
        "\nreplay work (one obs-on exhaustive sweep): walked {periods_walked} of \
         {periods_total} section copies"
    );

    // Instrumentation-overhead A/B plus stage attribution, all on the
    // now-warm cache so the re-runs are apples-to-apples. Skipped under
    // `--full` (each re-run is a full-grid sweep).
    let (obs_off, obs_on, one_thread, mt, delta_ok, stage_profile, goal_profile) = if full_mode() {
        (None, None, None, None, None, None, None)
    } else {
        let rerun = |obs: bool, profile: bool, goal: SweepGoal, threads: usize| {
            vtrain_obs::set_enabled(obs);
            let outcome = search::Sweep::on(&estimator, &model)
                .candidates(std::sync::Arc::clone(&candidates))
                .threads(threads)
                .goal(goal)
                .stage_profile(profile)
                .run()
                .into_outcome();
            vtrain_obs::set_enabled(false);
            outcome
        };
        // Warm-up: the first re-run after the report dump still pays
        // page-cache and allocator transients; burn them here so the
        // measured A/B passes see identical conditions.
        let _ = rerun(false, false, goal, threads());
        // Every throughput arm is best-of-3: a single ~0.06 s smoke
        // re-run can lose >10% to one scheduler hiccup on the 1-core CI
        // host, and noise only ever subtracts, so the max is the
        // low-variance estimator the ratio gates need.
        let measure = |obs: bool, threads: usize| {
            let mut best = rerun(obs, false, goal, threads);
            for _ in 0..2 {
                let outcome = rerun(obs, false, goal, threads);
                if outcome.stats.points_per_sec() > best.stats.points_per_sec() {
                    best = outcome;
                }
            }
            best
        };
        let off_outcome = measure(false, threads());
        let off = off_outcome.stats.points_per_sec();
        let on = measure(true, threads()).stats.points_per_sec();
        let profiled = rerun(false, true, goal, threads());
        // Bound-guided attribution: floor pricing must show up as
        // `bound_ns`, whatever goal the CLI ran with.
        let goal_profiled = rerun(false, true, SweepGoal::Best, threads());
        let threads_mt =
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).max(threads());
        let one_thread = measure(false, 1).stats.points_per_sec();
        let mt = measure(false, threads_mt).stats.points_per_sec();
        // Delta equivalence: the warm sweep patches shape-compatible
        // neighbors; a from-scratch estimate of each returned plan
        // must reproduce its point exactly.
        let patched = off_outcome.stats.delta_patched;
        let delta_equivalent = off_outcome
            .points
            .iter()
            .all(|p| estimator.estimate(&model, &p.plan).as_ref() == Ok(&p.estimate));
        assert!(delta_equivalent, "delta-lowered sweep must reproduce from-scratch lowering");
        println!(
            "\ninstrumentation A/B (warm cache): {off:.1} points/s off, {on:.1} points/s on \
             ({:+.1}%)",
            (on / off - 1.0) * 100.0
        );
        println!(
            "parallel / delta check (warm cache): {mt:.1} points/s on {threads_mt} threads vs \
             {one_thread:.1} on one; points match from-scratch estimates: {delta_equivalent} \
             ({patched} delta-patched)"
        );
        report::dump_raw("metrics", &vtrain_obs::global().to_json());
        (
            Some(off),
            Some(on),
            Some(one_thread),
            Some((mt, threads_mt)),
            Some(delta_equivalent),
            profiled.stage_profile,
            goal_profiled.stage_profile,
        )
    };
    if let Some(profile) = &stage_profile {
        println!(
            "stage attribution: order {:.1}ms | validate {:.1}ms | bound {:.1}ms | lower {:.1}ms \
             | simulate {:.1}ms | summarize {:.1}ms ({:.1}% of {} threads x {:.2}s)",
            profile.order_ns as f64 / 1e6,
            profile.stages.validate_ns as f64 / 1e6,
            profile.bound_ns as f64 / 1e6,
            profile.stages.lower_ns as f64 / 1e6,
            profile.stages.simulate_ns as f64 / 1e6,
            profile.stages.summarize_ns as f64 / 1e6,
            profile.attributed_fraction() * 100.0,
            profile.threads,
            profile.wall_ns as f64 / 1e9
        );
    }
    report::dump_json(
        "BENCH_sweep",
        &SweepBench {
            grid,
            goal: format!("{goal:?}").to_lowercase(),
            stats,
            points_per_sec: stats.points_per_sec(),
            cache_hit_rate: stats.cache_hit_rate(),
            points_per_sec_obs_off: obs_off,
            points_per_sec_obs_on: obs_on,
            points_per_sec_1t: one_thread,
            points_per_sec_mt: mt.map(|(pps, _)| pps),
            threads_mt: mt.map(|(_, n)| n),
            delta_equivalent: delta_ok,
            periods_walked,
            periods_total,
            stage_profile,
            stage_profile_goal: goal_profile,
        },
    );
}
