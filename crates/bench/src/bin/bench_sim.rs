//! Replay-hot-loop smoke: times the Algorithm 1 dataflow replay over a
//! fixed pre-lowered task graph and writes `results/BENCH_sim.json` for
//! the CI perf-regression gate (`check_bench` compares its
//! `tasks_per_sec` against `crates/bench/baselines/ci_baseline.json`;
//! the threshold is in the gate table of `crates/bench/BASELINES.md`).
//!
//! The workload is the replay alone — lowering runs once up front — so
//! the gate isolates regressions in the simulate stage from the rest of
//! the sweep pipeline (`BENCH_sweep.json` covers the end-to-end path).
//!
//! ```sh
//! cargo run --release -p vtrain-bench --bin bench_sim
//! ```

use std::time::Instant;

use serde::Serialize;
use vtrain_bench::report;
use vtrain_core::{simulate_into, Estimator, SimMode, SimReport, SimScratch, StageNanos};
use vtrain_model::presets;
use vtrain_parallel::{ClusterSpec, ParallelConfig};

#[derive(Serialize)]
struct SimBench {
    workload: String,
    tasks: usize,
    replays: usize,
    /// Median across timed replays (robust to CI noise).
    tasks_per_sec: f64,
    ns_per_task: f64,
    /// Mean per-estimate stage attribution of `Estimator::estimate_staged`
    /// on the same plan (validate/lower/simulate/summarize); it prices
    /// the compact graph, so its lower/simulate split is not the
    /// full-graph replay timed above.
    stage_profile: StageNanos,
}

fn main() {
    report::banner("Replay hot-loop smoke (CI gate input)");
    // Mid-size reference point: large enough that per-replay overhead
    // vanishes, small enough to finish in well under a second per replay
    // on the CI container.
    let estimator = Estimator::builder(ClusterSpec::aws_p4d(512)).build();
    let model = presets::megatron("18.4B");
    let plan = ParallelConfig::builder()
        .tensor(8)
        .data(4)
        .pipeline(4)
        .micro_batch(1)
        .global_batch(128)
        .build()
        .expect("reference plan is arithmetically valid");
    estimator.validate(&model, &plan).expect("reference plan feasible");
    let graph = estimator.lower(&model, &plan);

    let mut scratch = SimScratch::default();
    let mut sim_report = SimReport::default();
    // Warm-up: grow the scratch buffers and fault the graph in.
    for _ in 0..2 {
        simulate_into(&graph, SimMode::Predicted, &mut scratch, &mut sim_report);
    }

    let replays = 30;
    let mut rates: Vec<f64> = (0..replays)
        .map(|_| {
            let started = Instant::now();
            simulate_into(&graph, SimMode::Predicted, &mut scratch, &mut sim_report);
            graph.len() as f64 / started.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    let tasks_per_sec = rates[replays / 2];

    // Stage attribution of the end-to-end staged pipeline on the same
    // workload: where one estimate's time goes, as a per-estimate mean.
    let staged_reps = 5u64;
    let mut stages = StageNanos::default();
    for _ in 0..staged_reps {
        estimator.estimate_staged(&model, &plan, &mut stages).expect("reference plan feasible");
    }
    let stage_profile = StageNanos {
        validate_ns: stages.validate_ns / staged_reps,
        lower_ns: stages.lower_ns / staged_reps,
        simulate_ns: stages.simulate_ns / staged_reps,
        summarize_ns: stages.summarize_ns / staged_reps,
    };

    let bench = SimBench {
        workload: format!("megatron-18.4B {plan}"),
        tasks: graph.len(),
        replays,
        tasks_per_sec,
        ns_per_task: 1e9 / tasks_per_sec,
        stage_profile,
    };
    println!(
        "replay: {} tasks, median {:.2} Mtasks/s ({:.1} ns/task) over {} replays",
        bench.tasks,
        bench.tasks_per_sec / 1e6,
        bench.ns_per_task,
        bench.replays
    );
    println!(
        "staged estimate (mean of {staged_reps}): validate {:.2}ms | lower {:.2}ms | simulate \
         {:.2}ms | summarize {:.3}ms",
        stage_profile.validate_ns as f64 / 1e6,
        stage_profile.lower_ns as f64 / 1e6,
        stage_profile.simulate_ns as f64 / 1e6,
        stage_profile.summarize_ns as f64 / 1e6
    );
    assert_eq!(sim_report.tasks_executed, graph.len(), "replay must execute the whole graph");
    report::dump_json("BENCH_sim", &bench);
}
