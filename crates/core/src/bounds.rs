//! Admissible analytic lower bounds on Predicted iteration time — the
//! roofline floor that licenses bound-guided design-space pruning
//! ([`SweepGoal::Best`](crate::search::SweepGoal::Best)).
//!
//! The replay's iteration time can never undercut the busy time of any
//! single (device, stream) timeline, so a sound floor follows from
//! pricing each pipeline stage's two streams *below* their true cost and
//! taking the maximum — no lowering, no graph, `O(p)` per plan:
//!
//! * **Compute stream** — every compute kernel's modeled latency is at
//!   least `max(flops / peak, bytes / HBM-bandwidth)` (the device model
//!   applies efficiency factors `< 1` and a positive ramp on top of
//!   exactly this roofline), so summing that roofline over the stage's
//!   kernel decompositions — layer blocks × micro-batches, endpoint
//!   operators, the fused Adam update — lower-bounds its compute busy
//!   time. TP All-Reduces serialize on the same stream and are priced
//!   *exactly* via the estimator's [`CommModel`], so they add in full.
//! * **Communication stream** — pipeline sends and DP gradient
//!   All-Reduces are priced exactly from the same [`stage_comm_ops`]
//!   shapes the builder emits, and their serialized sum bounds the comm
//!   timeline.
//!
//! Admissibility (`floor ≤ simulated iteration time` on every valid
//! plan) is proven by the property test below; the sweep's goal modes
//! additionally prove end-to-end that pruning never changes winners.

use vtrain_gpu::KernelKind;
use vtrain_graph::{plan_signatures, stage_comm_ops, stage_weight_params, CompKind, GraphOptions};
use vtrain_model::{ModelConfig, TimeNs};
use vtrain_parallel::{layer_partition, GpuSpec, ParallelConfig};
use vtrain_profile::{decompose, CommModel};

/// Sums the roofline floor of one operator execution, in seconds: GEMMs
/// take `max(flops / peak, bytes / bandwidth)`, bandwidth-bound kernels
/// `bytes / bandwidth` (their flops term can exceed the byte term on no
/// modeled GPU, so dropping it keeps the floor unconditionally sound).
fn op_floor_secs(sig: &vtrain_graph::OpSignature, peak: f64, membw: f64) -> f64 {
    decompose(sig)
        .iter()
        .map(|k| match k {
            KernelKind::Gemm { .. } => (k.flops() / peak).max(k.bytes() / membw),
            other => other.bytes() / membw,
        })
        .sum()
}

/// An admissible lower bound on the Predicted iteration time of
/// `(model, plan)` on `gpu`, with communication priced by `comm` (flat or
/// topology-aware — both regimes are bounded exactly since the very same
/// operator shapes are priced).
///
/// # Panics
///
/// Same preconditions as lowering: the plan must be valid for the model
/// (in particular `t` divides the head count and hidden size, and the
/// pipeline is no deeper than the layer count).
pub fn iteration_floor(
    model: &ModelConfig,
    plan: &ParallelConfig,
    opts: &GraphOptions,
    gpu: &GpuSpec,
    comm: &CommModel,
) -> TimeNs {
    let peak = gpu.peak_fp16_flops;
    let membw = gpu.memory_bandwidth;
    let p = plan.pipeline();
    let n_micro = plan.num_micro_batches() as u64;
    let partition = layer_partition(model.num_layers(), p);

    // One floor per operator class, from the exact signatures the builder
    // emits (weight updates are per-stage and handled closed-form below).
    let mut layer_floor = 0.0f64; // MhaFwd + FfnFwd + MhaBwd + FfnBwd
    let mut embedding_floor = 0.0f64; // EmbeddingFwd + EmbeddingBwd
    let mut lm_head_floor = 0.0f64; // LmHeadFwd + LmHeadBwd
    for sig in plan_signatures(model, plan, opts) {
        match sig.kind {
            CompKind::MhaFwd | CompKind::FfnFwd | CompKind::MhaBwd | CompKind::FfnBwd => {
                layer_floor += op_floor_secs(&sig, peak, membw);
            }
            CompKind::EmbeddingFwd | CompKind::EmbeddingBwd => {
                embedding_floor += op_floor_secs(&sig, peak, membw);
            }
            CompKind::LmHeadFwd | CompKind::LmHeadBwd => {
                lm_head_floor += op_floor_secs(&sig, peak, membw);
            }
            CompKind::WeightUpdate => {}
        }
    }

    let mut floor = TimeNs::ZERO;
    for (stage, layers) in partition.iter().enumerate() {
        let layers_here = layers.len() as f64;

        // Compute stream: kernels roofline + exact TP All-Reduce time.
        let mut compute_secs = n_micro as f64 * layers_here * layer_floor;
        if stage == 0 {
            compute_secs += n_micro as f64 * embedding_floor;
        }
        if stage == p - 1 {
            compute_secs += n_micro as f64 * lm_head_floor;
        }
        // The per-stage fused Adam update: parameter count and byte
        // traffic both come from the builder's / device model's own
        // accounting, so the floor cannot drift from what is simulated.
        let params = stage_weight_params(model, plan, stage);
        compute_secs += KernelKind::AdamUpdate { params }.bytes() / membw;
        // Truncate on conversion so quantization can never push the
        // floor above the true busy time.
        let mut compute = TimeNs::from_nanos((compute_secs * 1e9) as u64);

        let ops = stage_comm_ops(model, plan, opts, stage);
        if let Some(tp) = &ops.tp_all_reduce {
            let per = comm.latency(tp).as_nanos();
            compute += TimeNs::from_nanos(per * n_micro * ops.tp_per_micro_batch as u64);
        }

        // Communication stream: exact serialized sends + DP All-Reduces.
        let mut comm_ns = 0u64;
        for send in [&ops.fwd_send, &ops.bwd_send].into_iter().flatten() {
            comm_ns += comm.latency(send).as_nanos() * n_micro;
        }
        for ar in &ops.dp_all_reduces {
            comm_ns += comm.latency(ar).as_nanos();
        }

        floor = floor.max(compute).max(TimeNs::from_nanos(comm_ns));
    }
    floor
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use vtrain_model::presets;
    use vtrain_parallel::{ClusterSpec, ParallelConfig, PipelineSchedule};

    use super::*;
    use crate::estimate::Estimator;

    fn plan(
        t: usize,
        d: usize,
        p: usize,
        m: usize,
        b: usize,
        sched: PipelineSchedule,
        bucketing: bool,
    ) -> ParallelConfig {
        ParallelConfig::builder()
            .tensor(t)
            .data(d)
            .pipeline(p)
            .micro_batch(m)
            .global_batch(b)
            .schedule(sched)
            .gradient_bucketing(bucketing)
            .build()
            .unwrap()
    }

    #[test]
    fn floor_is_positive_and_usefully_tight_on_a_compute_bound_point() {
        let est = Estimator::builder(ClusterSpec::aws_p4d(8)).build();
        let model = presets::megatron("1.7B");
        let p = plan(1, 1, 1, 1, 4, PipelineSchedule::OneFOneB, true);
        let bound = est.lower_bound(&model, &p);
        let actual = est.estimate(&model, &p).unwrap().iteration_time;
        assert!(bound > TimeNs::ZERO);
        assert!(bound <= actual, "bound {bound} vs actual {actual}");
        // A single-GPU point is pure serialized compute: the roofline
        // floor must capture a substantial fraction of it, otherwise
        // bound-guided pruning has no power.
        let ratio = bound.as_secs_f64() / actual.as_secs_f64();
        assert!(ratio > 0.3, "floor captures only {ratio:.3} of the iteration");
    }

    #[test]
    fn floor_is_admissible_for_topology_aware_estimators() {
        let cluster = ClusterSpec::aws_p4d(64);
        let est = Estimator::builder(cluster.clone()).topology(cluster.topology(1.0)).build();
        let model = presets::megatron("1.7B");
        for cfg in [
            plan(2, 16, 1, 1, 16, PipelineSchedule::OneFOneB, true),
            plan(8, 8, 1, 2, 128, PipelineSchedule::OneFOneB, true),
            plan(2, 2, 4, 1, 8, PipelineSchedule::GPipe, false),
        ] {
            est.validate(&model, &cfg).unwrap();
            let bound = est.lower_bound(&model, &cfg);
            let actual = est.estimate(&model, &cfg).unwrap().iteration_time;
            assert!(bound <= actual, "{cfg}: bound {bound} vs actual {actual}");
            assert!(bound > TimeNs::ZERO, "{cfg}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Admissibility: on random valid plans the analytic floor never
        /// exceeds the simulated Predicted iteration time.
        #[test]
        fn floor_never_exceeds_simulated_time(
            t_exp in 0usize..=2,
            d_exp in 0usize..=3,
            p in 1usize..=6,
            m_exp in 0usize..=1,
            k in 1usize..=3,
            flags in 0u32..4,
        ) {
            let (gpipe, bucketing) = (flags & 1 != 0, flags & 2 != 0);
            let (t, d, m) = (1usize << t_exp, 1usize << d_exp, 1usize << m_exp);
            let b = d * m * k;
            let sched = if gpipe { PipelineSchedule::GPipe } else { PipelineSchedule::OneFOneB };
            let cfg = plan(t, d, p, m, b, sched, bucketing);
            let model = presets::megatron("1.7B");
            let est = Estimator::builder(ClusterSpec::aws_p4d(512)).build();
            prop_assume!(est.validate(&model, &cfg).is_ok());
            let bound = est.lower_bound(&model, &cfg);
            let actual = est.estimate(&model, &cfg).unwrap().iteration_time;
            prop_assert!(
                bound <= actual,
                "plan {} bound {} exceeds simulated {}", cfg, bound, actual
            );
        }
    }
}
