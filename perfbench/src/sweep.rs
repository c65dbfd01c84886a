//! `sweep_mtnlg` and `sweep_fairshare`: back-to-back exhaustive
//! design-space sweeps on one warm profile cache, `threads = nproc`.

use std::sync::Arc;
use std::time::Instant;

use vtrain::api::{Request, RequestKind};
use vtrain::parallel::{ParallelConfig, PipelineSchedule};
use vtrain::profile::{CacheStats, ProfileCache};
use vtrain::sim::search::{enumerate_candidates, SweepRun};
use vtrain::Scenario;

use crate::layers::{self, Layers};
use crate::util::{fnv1a, Rng, Tracer};
use crate::{Ctx, Outcome, Window, SETUPS};

pub struct SweepWorkload {
    pub name: &'static str,
    /// The scenario the workload sweeps.
    scenario: &'static str,
    /// The same points on one estimator (one placement), for the layer
    /// pass.
    layer_scenario: &'static str,
}

/// Fig. 10: MT-NLG 530B, global batch 1920, the full `t≤16 d≤32 p≤105
/// m≤2` grid on DGX A100-80GB nodes, closed-form network.
pub const MTNLG: SweepWorkload = SweepWorkload {
    name: "sweep_mtnlg",
    scenario: r#"{"model": {"preset": "mt-nlg-530b"},
        "cluster": {"preset": "dgx-a100-80gb", "total_gpus": 53760},
        "sweep": {"global_batch": 1920, "goal": "exhaustive",
                  "limits": {"max_tensor": 16, "max_data": 32, "max_pipeline": 105,
                             "max_micro_batch": 2}}}"#,
    layer_scenario: r#"{"model": {"preset": "mt-nlg-530b"},
        "cluster": {"preset": "dgx-a100-80gb", "total_gpus": 53760},
        "sweep": {"global_batch": 1920}}"#,
};

/// The shipped `megatron_1_7b_sweep.json` scenario with an exhaustive
/// goal and the fair-sharing network backend: 128 candidates on three
/// placements.
pub const FAIRSHARE: SweepWorkload = SweepWorkload {
    name: "sweep_fairshare",
    scenario: r#"{"model": {"preset": "megatron-1.7B"},
        "cluster": {"preset": "aws-p4d", "total_gpus": 64},
        "topology": {"alpha": 1.0},
        "network": {"backend": "fair-sharing"},
        "sweep": {"global_batch": 64, "goal": "exhaustive",
                  "limits": {"max_tensor": 8, "max_data": 16, "max_pipeline": 4,
                             "max_micro_batch": 2},
                  "placements": [{}, {"nodes_per_rack": 4},
                                 {"nodes_per_rack": 2, "bandwidth": 12.5e9,
                                  "label": "thin-spine/2"}]},
        "tokens": 50000000000}"#,
    layer_scenario: r#"{"model": {"preset": "megatron-1.7B"},
        "cluster": {"preset": "aws-p4d", "total_gpus": 64},
        "topology": {"alpha": 1.0, "hierarchical": true},
        "network": {"backend": "fair-sharing"},
        "sweep": {"global_batch": 64}}"#,
};

fn parse(text: &str) -> Scenario {
    Scenario::from_json(text).expect("benchmark scenarios parse")
}

/// The scenario's candidate grid in a seeded order.
pub fn candidates(scenario: &Scenario, rng: &mut Rng) -> Vec<ParallelConfig> {
    let batch = scenario.sweep.as_ref().and_then(|s| s.global_batch).expect("sweep has a batch");
    let mut grid = enumerate_candidates(
        &scenario.model().expect("model resolves"),
        &scenario.cluster().expect("cluster resolves"),
        batch,
        PipelineSchedule::OneFOneB,
        &scenario.limits(),
    );
    rng.shuffle(&mut grid);
    grid
}

/// `(rows, digest)` of a sweep's `(placement, t, d, p, m, iteration_ns)`
/// rows, sorted so the digest is independent of candidate order.
pub fn digest(run: &SweepRun) -> (usize, u64) {
    let mut rows: Vec<String> = run
        .variants()
        .iter()
        .flat_map(|v| {
            v.outcome.points.iter().map(move |p| {
                let plan = &p.plan;
                format!(
                    "{} {} {} {} {} {}",
                    v.label,
                    plan.tensor(),
                    plan.data(),
                    plan.pipeline(),
                    plan.micro_batch(),
                    p.estimate.iteration_time.as_nanos()
                )
            })
        })
        .collect();
    rows.sort();
    (rows.len(), fnv1a(rows.join("\n").as_bytes()))
}

fn golden_pair(name: &str, run: &SweepRun) -> [(String, String); 2] {
    let (rows, digest) = digest(run);
    [
        (format!("{name}.rows"), rows.to_string()),
        (format!("{name}.digest"), format!("{digest:016x}")),
    ]
}

pub fn golden_lines() -> Vec<String> {
    [MTNLG, FAIRSHARE]
        .iter()
        .flat_map(|w| {
            let scenario = parse(w.scenario);
            let run = scenario.sweep().expect("sweep builds").threads(1).run();
            golden_pair(w.name, &run).map(|(k, v)| format!("{k} {v}"))
        })
        .collect()
}

fn tally(total: &mut CacheStats, run: &SweepRun) {
    for v in run.variants() {
        total.hits += v.outcome.stats.cache_hits;
        total.misses += v.outcome.stats.cache_misses;
    }
}

pub fn run(ctx: &Ctx, w: &SweepWorkload, tr: &mut Tracer) -> Outcome {
    let check =
        |run: &SweepRun| golden_pair(w.name, run).iter().all(|(k, v)| ctx.golden.matches(k, v));
    // Every sweep of the run, set-ups included, gets its own seeded order
    // of the same candidates. The order decides which points the workers
    // price side by side, and with it the sweep's peak memory, so a run
    // covers many orders instead of depending on one.
    let mut rng = Rng::new(ctx.seed);
    let mut setup_s = Vec::new();
    let mut checked = (0, 0);
    let mut state = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let scenario = parse(w.scenario);
        let grid: Arc<[ParallelConfig]> = candidates(&scenario, &mut rng).into();
        let cache = Arc::new(ProfileCache::new());
        let sweep = scenario.sweep().expect("sweep builds").cache(Arc::clone(&cache));
        let first = sweep.clone().candidates(Arc::clone(&grid)).threads(ctx.nproc).run();
        setup_s.push(start.elapsed().as_secs_f64());
        checked.0 += 1;
        checked.1 += u64::from(!check(&first));
        let mut sweeps = CacheStats::default();
        tally(&mut sweeps, &first);
        state = Some((scenario, grid, cache, sweep, sweeps));
    }
    let (scenario, grid, cache, sweep, mut sweeps) = state.expect("at least one set-up");
    let mut order = grid.to_vec();

    let mut window = Window::default();
    let start = Instant::now();
    let mut op = 0u64;
    while op == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        rng.shuffle(&mut order);
        let grid: Arc<[ParallelConfig]> = order.as_slice().into();
        tr.on = ctx.trace && op.is_multiple_of(2);
        tr.req = op;
        let t = Instant::now();
        let run = tr.span("request", |_| sweep.clone().candidates(grid).threads(ctx.nproc).run());
        let ns = t.elapsed().as_nanos() as f64;
        window.points +=
            run.variants().iter().map(|v| v.outcome.stats.evaluated as u64).sum::<u64>();
        tally(&mut sweeps, &run);
        window.record(ns, tr.on, check(&run));
        op += 1;
    }
    window.wall_s = start.elapsed().as_secs_f64();
    tr.on = ctx.trace;

    let layers = if ctx.trace {
        let profile = layers::CacheView::of(&cache);
        let request = Request::new(w.name, RequestKind::Sweep, scenario.clone());
        layers::measure(
            Layers {
                nproc: ctx.nproc,
                cache,
                texts: vec![w.scenario.to_owned()],
                frames: vec![request.to_frame()],
                scenario: parse(w.layer_scenario),
                candidates: order,
                profile,
                sweeps: Some(sweeps),
                serve: None,
            },
            tr,
        )
    } else {
        Vec::new()
    };
    Outcome { setup_s, setup_checked: checked, window, layers }
}
