//! Criterion benchmarks of the full-graph replay hot loop in isolation:
//! the allocating `simulate` entry point vs the scratch-reusing
//! `simulate_into`, across graph sizes — the micro-level companion to the
//! `bench_sim` CI gate. (Sweeps run the compact replay, not this one.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vtrain_core::{simulate, simulate_into, Estimator, SimMode, SimReport, SimScratch, TaskGraph};
use vtrain_model::presets;
use vtrain_parallel::{ClusterSpec, ParallelConfig};

fn lower(t: usize, d: usize, p: usize, b: usize) -> TaskGraph {
    let estimator = Estimator::builder(ClusterSpec::aws_p4d(512)).build();
    let model = presets::megatron("18.4B");
    let plan = ParallelConfig::builder()
        .tensor(t)
        .data(d)
        .pipeline(p)
        .micro_batch(1)
        .global_batch(b)
        .build()
        .unwrap();
    estimator.lower(&model, &plan)
}

fn bench_replay_alloc_vs_scratch(c: &mut Criterion) {
    let graphs = [
        ("p2_small", lower(8, 4, 2, 32)),
        ("p4_mid", lower(8, 4, 4, 128)),
        ("p8_deep", lower(4, 4, 8, 256)),
    ];
    let mut group = c.benchmark_group("simulate_replay");
    for (label, graph) in &graphs {
        group.bench_with_input(BenchmarkId::new("alloc", label), graph, |b, g| {
            b.iter(|| simulate(g, SimMode::Predicted));
        });
        group.bench_with_input(BenchmarkId::new("scratch", label), graph, |b, g| {
            let mut scratch = SimScratch::default();
            let mut report = SimReport::default();
            b.iter(|| simulate_into(g, SimMode::Predicted, &mut scratch, &mut report));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replay_alloc_vs_scratch);
criterion_main!(benches);
