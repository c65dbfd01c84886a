//! The traced layer pass: times the calls into each layer's public
//! functions on the workload's own inputs and turns the spans into the
//! per-layer metrics.
//!
//! Every workload reports every layer. Where the workload's own path
//! skips a layer (a sweep never crosses the wire), the pass sends the
//! workload's requests through that layer once, so each figure is a
//! measurement on this workload's inputs.

use std::sync::Arc;
use std::time::Instant;

use vtrain::api::{self, Request};
use vtrain::net::NetworkBackend;
use vtrain::parallel::ParallelConfig;
use vtrain::profile::{CacheStats, ProfileCache};
use vtrain::sim::search::{Sweep, SweepStats};
use vtrain::sim::{Estimator, EstimatorScratch, SimMode};
use vtrain::Scenario;

use crate::serve::{self, ServeView};
use crate::util::{median, Tracer};
use crate::Metric;

/// Fewest samples a per-call median of the cheap layers is taken over.
const MIN_SAMPLES: usize = 32;
/// Design points the full `lower → simulate → summarize` pipeline is
/// timed on.
const PIPELINE_POINTS: usize = 6;
/// Of those, the points (fewest tasks first) also priced under fair
/// sharing.
const FLOW_POINTS: usize = 2;
/// Rounds of the search pass; its walls are medians over the rounds.
const SEARCH_REPS: usize = 3;

/// The profile cache as the run left it before the layer pass.
pub struct CacheView {
    pub stats: CacheStats,
    pub entries: u64,
}

impl CacheView {
    pub fn of(cache: &ProfileCache) -> CacheView {
        CacheView { stats: cache.stats(), entries: cache.len() as u64 }
    }
}

/// The workload's inputs to the layer pass.
pub struct Layers {
    pub nproc: usize,
    /// The workload's (warm) profile cache.
    pub cache: Arc<ProfileCache>,
    /// Scenario texts the workload parses.
    pub texts: Vec<String>,
    /// Request frames the workload sends (each decodes).
    pub frames: Vec<String>,
    /// One estimator's scenario for the search, estimate and flow passes.
    pub scenario: Scenario,
    pub candidates: Vec<ParallelConfig>,
    /// The run's cache traffic up to the layer pass.
    pub profile: CacheView,
    /// The same traffic as the sweeps' own `SweepStats` report it;
    /// `None` for a workload that runs no sweep of its own.
    pub sweeps: Option<CacheStats>,
    /// The serve layer as measured under the workload's own load, if it
    /// has one.
    pub serve: Option<ServeView>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn measure(l: Layers, tr: &mut Tracer) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();

    // description: parse and check each scenario text.
    let reps = MIN_SAMPLES.div_ceil(l.texts.len());
    for _ in 0..reps {
        for text in &l.texts {
            if let Ok(s) = tr.span("description.parse", |_| Scenario::from_json(text)) {
                let _ = tr.span("description.check", |_| s.check());
            }
        }
    }
    m.push(("description.parse_us", tr.median("description.parse", 1e3), "us"));
    m.push(("description.check_us", tr.median("description.check", 1e3), "us"));

    // api: decode / execute (one sweep thread, as the daemon runs it) /
    // encode of each frame. Decode and encode repeat until the median
    // has enough samples; execute runs once per frame.
    let mut frame_bytes = Vec::new();
    for frame in &l.frames {
        let request: Request =
            tr.span("api.decode", |_| serde_json::from_str(frame)).expect("layer frames decode");
        let response = tr.span("api.execute", |_| api::execute(&request, &l.cache, Some(1)));
        for _ in 1..MIN_SAMPLES.div_ceil(l.frames.len()) {
            let _: Result<Request, _> = tr.span("api.decode", |_| serde_json::from_str(frame));
            let _ = tr.span("api.encode", |_| response.to_frame());
        }
        frame_bytes.push(tr.span("api.encode", |_| response.to_frame()).len() as f64);
    }
    m.push(("api.decode_us", tr.median("api.decode", 1e3), "us"));
    m.push(("api.execute_us", tr.median("api.execute", 1e3), "us"));
    m.push(("api.encode_us", tr.median("api.encode", 1e3), "us"));
    m.push(("api.frame_bytes", median(&frame_bytes), "B"));

    // serve: the workload's own daemon load, or its frames sent through
    // a fresh daemon by one client.
    let view = l.serve.unwrap_or_else(|| serve::probe(&l.frames, &l.cache, l.nproc, tr));
    m.push(("serve.overhead_us", view.overhead_us, "us"));
    m.push(("serve.busy_ratio", view.busy_ratio, "ratio"));
    m.push(("serve.completed", view.completed, "count"));

    // search: the candidates on one thread and on nproc, then the same
    // points through validate + the compact hot path outside the
    // executor, visited with equal graph shapes adjacent (pipeline depth
    // and micro-batch count first) as the executor visits them.
    let estimator = l.scenario.estimator_with(Arc::clone(&l.cache)).expect("layer estimator");
    let model = l.scenario.model().expect("layer model");
    let grid: Arc<[ParallelConfig]> = l.candidates.into();
    let sweep = |tr: &mut Tracer, name, threads| {
        tr.span(name, |_| {
            let start = Instant::now();
            let run =
                Sweep::on(&estimator, &model).candidates(Arc::clone(&grid)).threads(threads).run();
            (run.into_outcome().stats, start.elapsed().as_secs_f64())
        })
    };
    let mut direct: Vec<&ParallelConfig> = grid.iter().collect();
    direct.sort_by_key(|p| {
        (p.pipeline(), p.num_micro_batches(), p.tensor(), p.data(), p.micro_batch())
    });
    let (mut one, mut many) = (SweepStats::default(), SweepStats::default());
    let (mut walls_1t, mut walls_nt, mut walls_direct) = (Vec::new(), Vec::new(), Vec::new());
    let mut feasible = Vec::new();
    for _ in 0..SEARCH_REPS {
        let wall;
        (one, wall) = sweep(tr, "search.sweep_1t", 1);
        walls_1t.push(wall);
        let wall;
        (many, wall) = sweep(tr, "search.sweep", l.nproc);
        walls_nt.push(wall);
        let mut scratch = EstimatorScratch::default();
        feasible.clear();
        let start = Instant::now();
        for plan in &direct {
            if tr.span("estimate.validate", |_| estimator.validate(&model, plan)).is_ok() {
                tr.span("estimate.compact", |_| {
                    estimator.estimate_validated_with(&model, plan, &mut scratch)
                });
                feasible.push(*plan);
            }
        }
        walls_direct.push(start.elapsed().as_secs_f64());
    }
    let (wall_1t, wall_nt, direct_s) =
        (median(&walls_1t), median(&walls_nt), median(&walls_direct));
    let pps_1t = ratio(one.evaluated as f64, wall_1t);
    m.push(("search.candidates", many.candidates as f64, "count"));
    m.push(("search.pruned", many.pruned as f64, "count"));
    m.push(("search.evaluated", many.evaluated as f64, "count"));
    m.push(("search.patch_ratio", ratio(one.delta_patched as f64, one.evaluated as f64), "ratio"));
    m.push(("search.points_per_s_1t", pps_1t, "points/s"));
    m.push((
        "search.parallel_efficiency",
        ratio(ratio(many.evaluated as f64, wall_nt), l.nproc as f64 * pps_1t),
        "ratio",
    ));
    m.push(("search.overhead_pct", ratio(wall_1t - direct_s, wall_1t) * 100.0, "%"));

    // profile: the run's cache traffic before this pass, and the same
    // traffic as the sweeps report it (the search pass's sweeps for a
    // workload that runs none of its own).
    let p = &l.profile;
    let sweeps = l.sweeps.unwrap_or(CacheStats {
        hits: one.cache_hits + many.cache_hits,
        misses: one.cache_misses + many.cache_misses,
    });
    let lookups = (p.stats.hits + p.stats.misses) as f64;
    m.push(("profile.hits", p.stats.hits as f64, "count"));
    m.push(("profile.misses", p.stats.misses as f64, "count"));
    m.push(("profile.hit_rate", ratio(p.stats.hits as f64, lookups), "ratio"));
    m.push(("profile.entries", p.entries as f64, "count"));
    m.push(("profile.sweep_hit_rate", sweeps.hit_rate(), "ratio"));

    // estimate + task_graph: the staged pipeline on points spread over
    // the feasible set (ordered by GPU count, independent of the seed).
    feasible.sort_by_key(|p| (p.num_gpus(), p.tensor(), p.data(), p.pipeline(), p.micro_batch()));
    let picks = PIPELINE_POINTS.min(feasible.len());
    let sample: Vec<&ParallelConfig> =
        (0..picks).map(|i| feasible[i * (feasible.len() - 1) / (picks - 1).max(1)]).collect();
    let (mut tasks, mut lower_per_task, mut sim_per_task) = (Vec::new(), Vec::new(), Vec::new());
    for plan in &sample {
        let t0 = Instant::now();
        let graph = tr.span("estimate.lower", |_| estimator.lower(&model, plan));
        let t1 = Instant::now();
        let report =
            tr.span("estimate.simulate", |_| estimator.simulate(&graph, SimMode::Predicted));
        let t2 = Instant::now();
        tr.span("estimate.summarize", |_| estimator.summarize(&model, plan, &report));
        let n = graph.len() as f64;
        tasks.push(n);
        lower_per_task.push((t1 - t0).as_nanos() as f64 / n);
        sim_per_task.push((t2 - t1).as_nanos() as f64 / n);
    }
    m.push(("estimate.validate_us", tr.median("estimate.validate", 1e3), "us"));
    m.push(("estimate.compact_us", tr.median("estimate.compact", 1e3), "us"));
    m.push(("estimate.lower_ms", tr.median("estimate.lower", 1e6), "ms"));
    m.push(("estimate.simulate_ms", tr.median("estimate.simulate", 1e6), "ms"));
    m.push(("estimate.summarize_us", tr.median("estimate.summarize", 1e3), "us"));
    m.push(("task_graph.tasks", median(&tasks), "count"));
    m.push(("lower.ns_per_task", median(&lower_per_task), "ns"));
    m.push(("simulate.ns_per_task", median(&sim_per_task), "ns"));

    // flow: fair-sharing vs closed-form pricing of the smallest sampled
    // graphs, both on the cluster's two-tier topology.
    let cluster = l.scenario.cluster().expect("layer cluster");
    let alpha = l.scenario.alpha();
    let priced = |network| {
        Estimator::builder(cluster.clone())
            .alpha(alpha)
            .topology(cluster.topology(alpha))
            .network(network)
            .cache(Arc::clone(&l.cache))
            .build()
    };
    let (fair, closed) = (priced(NetworkBackend::FairSharing), priced(NetworkBackend::ClosedForm));
    let mut by_size: Vec<(f64, &ParallelConfig)> =
        tasks.iter().copied().zip(sample.iter().copied()).collect();
    by_size.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut slowdown = Vec::new();
    for (_, plan) in by_size.iter().take(FLOW_POINTS) {
        let t0 = Instant::now();
        let _ = tr.span("flow.estimate", |_| fair.estimate(&model, plan));
        let t1 = Instant::now();
        let _ = tr.span("flow.closed_estimate", |_| closed.estimate(&model, plan));
        let t2 = Instant::now();
        slowdown.push(ratio((t1 - t0).as_nanos() as f64, (t2 - t1).as_nanos() as f64));
    }
    m.push(("flow.estimate_ms", tr.median("flow.estimate", 1e6), "ms"));
    m.push(("flow.slowdown", median(&slowdown), "ratio"));
    m
}
