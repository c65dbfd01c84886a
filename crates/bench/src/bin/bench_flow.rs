//! Fair-sharing network-model bench: writes `results/BENCH_flow.json`
//! for the CI perf-regression gate (`check_bench` compares it against
//! `crates/bench/baselines/ci_baseline.json`).
//!
//! Three measurements:
//!
//! * **Equivalence anchor** — a serial-communication plan priced under
//!   both backends; `single_flow_ppm` is the relative deviation in parts
//!   per million (gated, see the `crates/bench/BASELINES.md` gate
//!   table; in practice the drain is bit-exact).
//! * **Contention cost** — a pipeline-heavy overlap plan priced under
//!   both backends; the two iteration times are deterministic model
//!   outputs, golden-gated like the collective costs, and the producer
//!   itself asserts fair sharing is strictly slower on this plan.
//!   `overlap_refills` counts the flow simulator's refills (the
//!   `net.refills` counter) over one obs-on fair-sharing estimate of that
//!   plan: a work count, exact on every host, that the gate holds at or
//!   below its baseline.
//! * **Flow-kernel throughput** — a [`FlowSim`] microbench: a bounded
//!   window of concurrent inter-node flows joining and draining;
//!   `flow_events_per_sec` is refills per wall-second, best of 3.
//!
//! ```sh
//! cargo run --release -p vtrain-bench --bin bench_flow
//! ```

use std::time::Instant;

use serde::Serialize;
use vtrain_bench::report;
use vtrain_core::Estimator;
use vtrain_model::presets;
use vtrain_net::flow::{FlowPhase, FlowProgram, FlowSim};
use vtrain_net::NetworkBackend;
use vtrain_parallel::{ClusterSpec, ParallelConfig};

#[derive(Serialize)]
struct FlowBench {
    /// FlowSim refills per wall-second (best of 3).
    flow_events_per_sec: f64,
    /// Relative closed-form/fair-sharing deviation on a serial plan, ppm.
    single_flow_ppm: f64,
    /// Deterministic overlap-plan iteration time, closed form.
    overlap_closed_form_ns: u64,
    /// Deterministic overlap-plan iteration time, fair sharing.
    overlap_fair_sharing_ns: u64,
    /// Flow-simulator refills of one fair-sharing estimate of the
    /// overlap plan.
    overlap_refills: u64,
}

fn plan(t: usize, d: usize, p: usize, m: usize, b: usize) -> ParallelConfig {
    ParallelConfig::builder()
        .tensor(t)
        .data(d)
        .pipeline(p)
        .micro_batch(m)
        .global_batch(b)
        .build()
        .unwrap()
}

/// Iteration time of `plan` on `gpus` A100s under `backend`, ns.
fn price(gpus: usize, plan: &ParallelConfig, backend: NetworkBackend) -> u64 {
    let estimator = Estimator::builder(ClusterSpec::aws_p4d(gpus)).network(backend).build();
    let model = presets::megatron("1.7B");
    estimator.estimate(&model, plan).unwrap().iteration_time.as_nanos()
}

/// `net.refills` over one obs-on fair-sharing estimate of `plan` on
/// `gpus` A100s.
fn refills(gpus: usize, plan: &ParallelConfig) -> u64 {
    let counter = vtrain_obs::global().counter("net.refills");
    let before = counter.get();
    vtrain_obs::set_enabled(true);
    price(gpus, plan, NetworkBackend::FairSharing);
    vtrain_obs::set_enabled(false);
    counter.get() - before
}

/// One pass of the flow-kernel microbench: `total` single-phase
/// inter-node flows pushed through a window of at most `flight`
/// concurrent flows. Returns `(refills, wall seconds)`.
fn flow_kernel_pass(total: usize, flight: usize) -> (u64, f64) {
    let topo = ClusterSpec::aws_p4d(64).topology(1.0);
    let program = FlowProgram {
        phases: vec![FlowPhase { tier: 1, work: 64.0 * 1024.0 * 1024.0, latency_rounds: 1 }],
    };
    let mut sim = FlowSim::new(&topo);
    let mut done = Vec::new();
    let start = Instant::now();
    for _ in 0..total {
        while sim.active() >= flight {
            let at = sim.next_event().expect("active flows have a next boundary");
            sim.advance(at, &mut done);
        }
        let now = sim.now();
        sim.start(now, &program);
    }
    sim.drain_all();
    (sim.refills(), start.elapsed().as_secs_f64())
}

fn main() {
    report::banner("Fair-sharing network model (CI gate input)");

    // A serial-communication plan: one simulated comm stream, so flows
    // never overlap and the two backends must agree.
    let serial = plan(8, 2, 1, 1, 8);
    let closed = price(16, &serial, NetworkBackend::ClosedForm);
    let fair = price(16, &serial, NetworkBackend::FairSharing);
    let single_flow_ppm = (fair as f64 - closed as f64).abs() / closed as f64 * 1e6;
    println!("single-flow anchor: closed {closed} ns, fair {fair} ns ({single_flow_ppm:.3} ppm)");

    // A pipeline-heavy plan whose boundary transfers and gradient
    // all-reduces overlap on the inter-node tier: contention must cost.
    let overlap = plan(2, 4, 4, 1, 32);
    let overlap_closed = price(32, &overlap, NetworkBackend::ClosedForm);
    let overlap_fair = price(32, &overlap, NetworkBackend::FairSharing);
    println!("overlap plan: closed {overlap_closed} ns, fair {overlap_fair} ns");
    assert!(
        overlap_fair > overlap_closed,
        "fair sharing must price overlap-heavy communication above the closed form"
    );
    let overlap_refills = refills(32, &overlap);
    println!("overlap plan: {overlap_refills} flow refills (one fair-sharing estimate)");

    let mut flow_events_per_sec = 0.0f64;
    for _ in 0..3 {
        let (events, secs) = flow_kernel_pass(50_000, 64);
        flow_events_per_sec = flow_events_per_sec.max(events as f64 / secs);
    }
    println!("flow kernel: {:.2} Mevents/s (best of 3)", flow_events_per_sec / 1e6);

    report::dump_json(
        "BENCH_flow",
        &FlowBench {
            flow_events_per_sec,
            single_flow_ppm,
            overlap_closed_form_ns: overlap_closed,
            overlap_fair_sharing_ns: overlap_fair,
            overlap_refills,
        },
    );
}
