//! Figure 11: iteration time vs GPU compute utilization for the 8-way
//! tensor-parallel slice of the MT-NLG design space, highlighting the three
//! published MT-NLG plans and the three vTrain-uncovered plans.
//!
//! Pass `--goal {exhaustive|front|best}` to filter the background cloud
//! to its Pareto frontier (`front`) or its fastest point (`best`, the one
//! goal that bound-prunes); the highlighted Table I plans are always
//! estimated in full, and the default stays exhaustive.
//!
//! ```sh
//! cargo run --release -p vtrain-bench --bin fig11_tradeoff
//! ```

use serde::Serialize;
use vtrain_bench::{mtnlg_workload, report, sweep_goal, table_i_plans, threads};
use vtrain_core::search::{self, SearchLimits};
use vtrain_core::Estimator;
use vtrain_parallel::{ClusterSpec, PipelineSchedule};

#[derive(Serialize)]
struct Point {
    label: String,
    iteration_s: f64,
    utilization_pct: f64,
    gpus: usize,
    highlighted: bool,
}

fn main() {
    report::banner("Figure 11: iteration time vs utilization (t = 8 slice)");
    let (model, global_batch, _) = mtnlg_workload();
    let cluster = ClusterSpec::dgx_a100_80gb(8 * 32 * 105);
    let estimator = Estimator::builder(cluster.clone()).build();

    // Background cloud: the t = 8 slice.
    let limits =
        SearchLimits { max_tensor: 8, max_data: 24, max_pipeline: 105, max_micro_batch: 1 };
    let mut candidates = search::enumerate_candidates(
        &model,
        &cluster,
        global_batch,
        PipelineSchedule::OneFOneB,
        &limits,
    );
    candidates.retain(|c| c.tensor() == 8 && c.data() >= 4);
    let cloud = search::Sweep::on(&estimator, &model)
        .candidates(candidates)
        .threads(threads())
        .goal(sweep_goal())
        .run()
        .into_outcome();

    let mut points: Vec<Point> = cloud
        .points
        .iter()
        .map(|p| Point {
            label: p.plan.to_string(),
            iteration_s: p.estimate.iteration_time.as_secs_f64(),
            utilization_pct: p.estimate.utilization * 100.0,
            gpus: p.estimate.num_gpus,
            highlighted: false,
        })
        .collect();

    // Highlighted MT-NLG baselines and vTrain findings (Table I plans).
    println!("{:<20} {:>10} {:>8} {:>7}", "plan", "iter (s)", "util %", "GPUs");
    for (label, plan) in table_i_plans() {
        let est = estimator.estimate(&model, &plan).expect("Table I plans feasible");
        println!(
            "{label:<20} {:>10.2} {:>8.1} {:>7}",
            est.iteration_time.as_secs_f64(),
            est.utilization * 100.0,
            est.num_gpus
        );
        points.push(Point {
            label: label.to_owned(),
            iteration_s: est.iteration_time.as_secs_f64(),
            utilization_pct: est.utilization * 100.0,
            gpus: est.num_gpus,
            highlighted: true,
        });
    }
    println!(
        "\nbackground cloud points: {} ({:.0} points/s, cache hit-rate {:.1}%)",
        cloud.points.len(),
        cloud.stats.points_per_sec(),
        cloud.stats.cache_hit_rate() * 100.0
    );
    report::dump_json("fig11_tradeoff", &points);
}
