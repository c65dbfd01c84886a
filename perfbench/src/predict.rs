//! `predict_long`: a seeded sequence of single-threaded `Predict`
//! requests through `vtrain::api::execute` — the path behind
//! `vtrain predict --json` — on megatron-18.4B over 512 GPUs, with a
//! global-batch ladder up to 65,536.

use std::sync::Arc;
use std::time::Instant;

use vtrain::api::{self, Outcome as ApiOutcome, Report, Request, Response};
use vtrain::parallel::ParallelConfig;
use vtrain::profile::ProfileCache;
use vtrain::Scenario;

use crate::layers::{self, Layers};
use crate::util::{Rng, Tracer};
use crate::{Ctx, Outcome, Window, SETUPS};

/// `(t, d, p, m)` plans, each valid for megatron-18.4B on 512 GPUs.
const PLANS: [(usize, usize, usize, usize); 5] =
    [(8, 8, 8, 2), (8, 16, 4, 1), (4, 16, 8, 1), (8, 4, 8, 2), (8, 32, 2, 1)];
/// Global batches; the micro-batch count grows with them.
const LADDER: [usize; 7] = [1024, 2048, 4096, 8192, 16384, 32768, 65536];

fn scenario(plan: (usize, usize, usize, usize), batch: usize) -> String {
    let (t, d, p, m) = plan;
    format!(
        r#"{{"model": {{"preset": "megatron-18.4B"}}, "cluster": {{"preset": "aws-p4d", "total_gpus": 512}}, "parallelism": {{"tensor": {t}, "data": {d}, "pipeline": {p}, "micro_batch": {m}, "global_batch": {batch}}}}}"#
    )
}

/// `(golden key, request frame)` for every plan × batch; frames are one
/// line each, as on the wire.
fn catalogue() -> Vec<(String, String)> {
    PLANS
        .iter()
        .flat_map(|&plan| {
            LADDER.iter().map(move |&batch| {
                let (t, d, p, m) = plan;
                let key = format!("predict_long.{t}-{d}-{p}-{m}@{batch}");
                let frame = format!(
                    r#"{{"v": 1, "id": "{key}", "kind": "Predict", "scenario": {}}}"#,
                    scenario(plan, batch)
                );
                (key, frame)
            })
        })
        .collect()
}

fn decode(frame: &str) -> Request {
    serde_json::from_str(frame).expect("catalogue frames decode")
}

/// The predicted iteration time of a response, in ns.
fn iteration_ns(response: &Response) -> Option<u64> {
    match &response.outcome {
        ApiOutcome::Ok(Report::Predict(r)) => Some(r.estimate.iteration_time.as_nanos()),
        _ => None,
    }
}

pub fn golden_lines() -> Vec<String> {
    let cache = Arc::new(ProfileCache::new());
    catalogue()
        .into_iter()
        .map(|(key, frame)| {
            let ns = iteration_ns(&api::execute(&decode(&frame), &cache, Some(1)));
            format!("{key} {}", ns.expect("catalogue plans are valid"))
        })
        .collect()
}

pub fn run(ctx: &Ctx, tr: &mut Tracer) -> Outcome {
    let catalogue = catalogue();
    let check = |i: usize, response: &Response| {
        iteration_ns(response)
            .is_some_and(|ns| ctx.golden.matches(&catalogue[i].0, &ns.to_string()))
    };
    let mut setup_s = Vec::new();
    let mut checked = (0, 0);
    let mut state = None;
    for _ in 0..SETUPS {
        // Decode every request, fill a fresh cache, and warm up with one
        // pass over the catalogue.
        let start = Instant::now();
        let requests: Vec<Request> = catalogue.iter().map(|(_, f)| decode(f)).collect();
        let cache = Arc::new(ProfileCache::new());
        for (i, request) in requests.iter().enumerate() {
            let response = api::execute(request, &cache, Some(1));
            checked.0 += 1;
            checked.1 += u64::from(!check(i, &response));
        }
        setup_s.push(start.elapsed().as_secs_f64());
        state = Some((requests, cache));
    }
    let (requests, cache) = state.expect("at least one set-up");

    // Whole passes over the catalogue in a fresh seeded order each pass,
    // so every run measures the same multiset of requests.
    let mut rng = Rng::new(ctx.seed);
    let mut order: Vec<usize> = (0..requests.len()).collect();
    let mut window = Window::default();
    let start = Instant::now();
    let (mut pass, mut op) = (0u64, 0u64);
    while pass == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        rng.shuffle(&mut order);
        // A traced run traces every other pass: both halves then hold
        // the same multiset of requests.
        tr.on = ctx.trace && pass.is_multiple_of(2);
        pass += 1;
        for &i in &order {
            tr.req = op;
            let t = Instant::now();
            let response = tr.span("request", |_| api::execute(&requests[i], &cache, Some(1)));
            let ns = t.elapsed().as_nanos() as f64;
            window.points += 1;
            window.record(ns, tr.on, check(i, &response));
            op += 1;
        }
    }
    window.wall_s = start.elapsed().as_secs_f64();
    tr.on = ctx.trace;

    let layers = if ctx.trace {
        let profile = layers::CacheView::of(&cache);
        let plans: Vec<ParallelConfig> = requests
            .iter()
            .map(|r| r.scenario.as_ref().and_then(|s| s.plan().ok()).expect("plan"))
            .collect();
        layers::measure(
            Layers {
                nproc: ctx.nproc,
                cache,
                texts: PLANS.iter().map(|&p| scenario(p, LADDER[0])).collect(),
                frames: catalogue.iter().map(|(_, f)| format!("{f}\n")).collect(),
                scenario: Scenario::from_json(&scenario(PLANS[0], LADDER[0])).expect("parses"),
                candidates: plans,
                profile,
                sweeps: None,
                serve: None,
            },
            tr,
        )
    } else {
        Vec::new()
    };
    Outcome { setup_s, setup_checked: checked, window, layers }
}
