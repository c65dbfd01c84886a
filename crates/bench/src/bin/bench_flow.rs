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
//!   below its baseline. `overlap_comm_priced` counts the communication
//!   operators that same estimate priced (the `estimate.comm.priced`
//!   counter), gated the same way.
//! * **Fair sweep work** — one one-thread exhaustive run of the shipped
//!   1.7B sweep (`examples/descriptions/megatron_1_7b_sweep.json`, three
//!   placements) under fair sharing. `fair_sweep_flow_replays` counts the
//!   points that needed the flow replay (every point but the
//!   `estimate.fair.flow_free` ones, whose collectives all stay inside a
//!   node), and `fair_sweep_comm_priced` the communication operators the
//!   sweep's workers priced (`estimate.comm.priced`). Both are work
//!   counts, gated at or below their baselines.
//! * **Flow-kernel throughput** — a [`FlowSim`] microbench: a bounded
//!   window of concurrent inter-node flows joining and draining;
//!   `flow_events_per_sec` is refills per wall-second, best of 3.
//!
//! ```sh
//! cargo run --release -p vtrain-bench --bin bench_flow
//! ```

use std::time::Instant;

use serde::Serialize;
use vtrain::{NetworkSection, Scenario};
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
    /// Communication operators priced by that estimate.
    overlap_comm_priced: u64,
    /// Points of one one-thread exhaustive fair-sharing run of the shipped
    /// sweep that replayed flows.
    fair_sweep_flow_replays: u64,
    /// Communication operators priced by that run.
    fair_sweep_comm_priced: u64,
}

/// The shipped 1.7B sweep scenario.
const SHIPPED_SWEEP: &str =
    include_str!("../../../../examples/descriptions/megatron_1_7b_sweep.json");

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

/// `(net.refills, estimate.comm.priced)` over one obs-on fair-sharing
/// estimate of `plan` on `gpus` A100s.
fn work_counts(gpus: usize, plan: &ParallelConfig) -> (u64, u64) {
    let metrics = vtrain_obs::global();
    let counters = [metrics.counter("net.refills"), metrics.counter("estimate.comm.priced")];
    let before = counters.each_ref().map(|c| c.get());
    vtrain_obs::set_enabled(true);
    price(gpus, plan, NetworkBackend::FairSharing);
    vtrain_obs::set_enabled(false);
    let [refills, priced] = counters.each_ref().map(|c| c.get());
    (refills - before[0], priced - before[1])
}

/// `(points, flow replays, estimate.comm.priced)` over one obs-on,
/// one-thread exhaustive run of the shipped sweep under fair sharing.
fn fair_sweep_counts() -> (u64, u64, u64) {
    let mut scenario = Scenario::from_json(SHIPPED_SWEEP).expect("the shipped sweep parses");
    scenario.network = Some(NetworkSection { backend: "fair-sharing".into() });
    scenario.sweep.as_mut().expect("the shipped scenario sweeps").goal = Some("exhaustive".into());
    let sweep = scenario.sweep().expect("the shipped sweep builds").threads(1);
    let metrics = vtrain_obs::global();
    let counters = [
        "estimate.compact.fresh",
        "estimate.compact.patched",
        "estimate.fair.flow_free",
        "estimate.comm.priced",
    ]
    .map(|name| metrics.counter(name));
    let before = counters.each_ref().map(|c| c.get());
    vtrain_obs::set_enabled(true);
    sweep.run();
    vtrain_obs::set_enabled(false);
    let mut after = counters.each_ref().map(|c| c.get());
    for (a, b) in after.iter_mut().zip(before) {
        *a -= b;
    }
    let [fresh, patched, flow_free, priced] = after;
    (fresh + patched, fresh + patched - flow_free, priced)
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
    let (overlap_refills, overlap_comm_priced) = work_counts(32, &overlap);
    println!(
        "overlap plan: {overlap_refills} flow refills, {overlap_comm_priced} communication \
         operators priced (one fair-sharing estimate)"
    );

    let (fair_sweep_points, fair_sweep_flow_replays, fair_sweep_comm_priced) = fair_sweep_counts();
    println!(
        "fair sweep (shipped 1.7B, exhaustive, one thread): {fair_sweep_flow_replays} of \
         {fair_sweep_points} points replayed flows, {fair_sweep_comm_priced} communication \
         operators priced"
    );

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
            overlap_comm_priced,
            fair_sweep_flow_replays,
            fair_sweep_comm_priced,
        },
    );
}
