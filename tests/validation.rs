//! Miniature versions of the paper's validation studies (Fig. 9, Table II),
//! asserting that prediction quality stays inside the published bands.

use vtrain::prelude::*;

fn stats(pairs: &[(f64, f64)]) -> (f64, f64) {
    let mape =
        100.0 * pairs.iter().map(|(p, m)| ((p - m) / m).abs()).sum::<f64>() / pairs.len() as f64;
    let mean = pairs.iter().map(|&(_, m)| m).sum::<f64>() / pairs.len() as f64;
    let ss_res: f64 = pairs.iter().map(|(p, m)| (m - p).powi(2)).sum();
    let ss_tot: f64 = pairs.iter().map(|(_, m)| (m - mean).powi(2)).sum();
    (mape, 1.0 - ss_res / ss_tot)
}

/// Single-node validation (Fig. 9a): predicted vs ground-truth-emulated
/// iteration times across models × plans on one 8-GPU node. The paper
/// reports MAPE 8.37 %, R² 0.9896; we require the same ballpark.
#[test]
fn single_node_validation_band() {
    let estimator = Estimator::builder(ClusterSpec::aws_p4d(8)).build();
    let noise = NoiseModel::new(NoiseConfig::default());
    let mut pairs = Vec::new();
    for model in presets::single_node_family().into_iter().take(9) {
        for (t, d, p, m) in [(1, 1, 1, 2), (2, 2, 2, 1), (4, 2, 1, 2), (8, 1, 1, 4), (2, 1, 4, 1)] {
            if !model.num_layers().is_multiple_of(p) {
                continue;
            }
            let plan = ParallelConfig::builder()
                .tensor(t)
                .data(d)
                .pipeline(p)
                .micro_batch(m)
                .global_batch(16)
                .build()
                .unwrap();
            let (Ok(pred), Ok(meas)) =
                (estimator.estimate(&model, &plan), estimator.measure_with(&model, &plan, &noise))
            else {
                continue;
            };
            pairs.push((pred.iteration_time.as_secs_f64(), meas.iteration_time.as_secs_f64()));
        }
    }
    assert!(pairs.len() >= 30, "need a real sample, got {}", pairs.len());
    let (mape, r2) = stats(&pairs);
    assert!(mape < 12.0, "single-node MAPE {mape:.2}% above band");
    assert!(r2 > 0.97, "single-node R² {r2:.4} below band");
}

/// Multi-node validation (Fig. 9b): larger models on up to 256 GPUs. The
/// paper reports MAPE 14.73 %, R² 0.9887.
#[test]
fn multi_node_validation_band() {
    let estimator = Estimator::builder(ClusterSpec::aws_p4d(256)).build();
    let noise = NoiseModel::new(NoiseConfig::default());
    let mut pairs = Vec::new();
    for size in ["3.6B", "7.5B", "18.4B"] {
        let model = presets::megatron(size);
        for (t, d, p, m) in [
            (8, 4, 1, 2),
            (8, 8, 2, 1),
            (4, 16, 2, 1),
            (8, 16, 2, 2),
            (8, 8, 4, 2),
            (8, 4, 2, 1),
            (4, 8, 2, 2),
            (8, 16, 1, 1),
            (4, 16, 4, 1),
            (8, 8, 1, 4),
        ] {
            if !model.num_layers().is_multiple_of(p) {
                continue;
            }
            let plan = ParallelConfig::builder()
                .tensor(t)
                .data(d)
                .pipeline(p)
                .micro_batch(m)
                .global_batch(256)
                .build()
                .unwrap();
            let (Ok(pred), Ok(meas)) =
                (estimator.estimate(&model, &plan), estimator.measure_with(&model, &plan, &noise))
            else {
                continue;
            };
            pairs.push((pred.iteration_time.as_secs_f64(), meas.iteration_time.as_secs_f64()));
        }
    }
    assert!(pairs.len() >= 20, "need a real sample, got {}", pairs.len());
    let (mape, r2) = stats(&pairs);
    assert!(mape < 20.0, "multi-node MAPE {mape:.2}% above band");
    assert!(r2 > 0.95, "multi-node R² {r2:.4} below band");
    // Predictions systematically undershoot measurements (the paper's NCCL
    // isolation bias): the majority of points sit below the measured value
    // and the mean measured/predicted ratio exceeds 1. (Individual
    // configurations scatter on both sides — Fig. 9's points straddle the
    // diagonal — so both statistics are over the whole sample.)
    let undershoot = pairs.iter().filter(|(p, m)| p < m).count();
    assert!(
        2 * undershoot > pairs.len(),
        "bias direction unexpected: {undershoot}/{}",
        pairs.len()
    );
    let mean_ratio = pairs.iter().map(|(p, m)| m / p).sum::<f64>() / pairs.len() as f64;
    assert!(mean_ratio > 1.0, "mean measured/predicted {mean_ratio:.3} should exceed 1");
}

/// The α calibration sweep of §IV: sweeping the bandwidth-effectiveness
/// factor against ground-truth measurements, the error curve must not be
/// minimized at crippled bandwidth, and full effectiveness (α = 1.0, the
/// paper's optimum) must fit nearly as well as the best α. Bucketing is
/// disabled so the inter-node gradient All-Reduce is actually exposed.
///
/// Calibration isolates bandwidth effectiveness, so the measurement noise
/// here disables the *separately modeled* error mechanisms — in-training
/// NCCL contention, ToR interference, stragglers, and the per-config
/// framework bias (which is keyed on the configuration hash and would
/// make the verdict a function of hash luck). The paper treats those as
/// residual error sources after calibration, not calibration inputs; our
/// emulated platform's true effective bandwidth is α = 1.0 by
/// construction, and the sweep must recover a high α.
#[test]
fn alpha_sweep_prefers_high_alpha() {
    let noise = NoiseModel::new(NoiseConfig {
        comm_inflation: 0.0,
        congestion_per_group: 0.0,
        straggler_sigma: 0.0,
        iteration_bias_sigma: 0.0,
        ..NoiseConfig::default()
    });
    let mut configs = Vec::new();
    for size in ["3.6B", "7.5B"] {
        for (t, d, p) in [(8, 16, 1), (8, 16, 2), (8, 32, 1)] {
            let model = presets::megatron(size);
            if !model.num_layers().is_multiple_of(p) {
                continue;
            }
            let plan = ParallelConfig::builder()
                .tensor(t)
                .data(d)
                .pipeline(p)
                .micro_batch(1)
                .global_batch(256)
                .gradient_bucketing(false)
                .build()
                .unwrap();
            configs.push((model, plan));
        }
    }
    let cluster = ClusterSpec::aws_p4d(512);
    let measured: Vec<f64> = configs
        .iter()
        .filter_map(|(m, p)| {
            Estimator::builder(cluster.clone())
                .build()
                .measure_with(m, p, &noise)
                .ok()
                .map(|e| e.iteration_time.as_secs_f64())
        })
        .collect();
    assert!(measured.len() >= 4);

    let mape_at = |alpha: f64| {
        let est = Estimator::builder(cluster.clone()).alpha(alpha).build();
        let pairs: Vec<(f64, f64)> = configs
            .iter()
            .zip(&measured)
            .filter_map(|((m, p), &meas)| {
                est.estimate(m, p).ok().map(|e| (e.iteration_time.as_secs_f64(), meas))
            })
            .collect();
        pairs.iter().map(|(p, m)| ((p - m) / m).abs()).sum::<f64>() / pairs.len() as f64
    };
    let alphas = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0];
    let errs: Vec<f64> = alphas.iter().map(|&a| mape_at(a)).collect();
    let best_idx = (0..alphas.len()).min_by(|&a, &b| errs[a].total_cmp(&errs[b])).unwrap();
    assert!(alphas[best_idx] >= 0.4, "error minimized at crippled α = {}", alphas[best_idx]);
    let err_full = errs[alphas.len() - 1];
    let err_best = errs[best_idx];
    assert!(
        err_full <= err_best * 1.5 + 0.02,
        "α = 1.0 (err {err_full:.3}) must fit nearly as well as α = {} (err {err_best:.3})",
        alphas[best_idx]
    );
}

/// Golden pin of Measured-mode outputs: `measure_with`'s iteration time,
/// busy breakdown and utilization bits for the shipped 18.4B plan and
/// 1.7B plans under 1F1B and GPipe, with gradient bucketing on and off,
/// and under a fair-sharing estimator. Measured noise reads every task's
/// kind (kernel counts, collective scope, overlap, concurrent groups),
/// so this pins the full task graph's kinds as well as its durations.
/// Regenerate after an intentional change with `VTRAIN_BLESS=1 cargo
/// test -q --test validation`.
#[test]
fn measured_outputs_match_golden() {
    const GOLDEN: &str = "tests/golden/measured.txt";
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(root.join("examples/descriptions/megatron_18b.json"));
    let scenario = Scenario::from_json(&text.unwrap()).unwrap();
    let shipped = scenario.estimator().unwrap();
    let small = ClusterSpec::aws_p4d(32);
    let closed = Estimator::builder(small.clone()).build();
    let fair = Estimator::builder(small).network(NetworkBackend::FairSharing).build();
    let plan = |t, d, p, b, sched, bucketing| {
        ParallelConfig::builder()
            .tensor(t)
            .data(d)
            .pipeline(p)
            .global_batch(b)
            .schedule(sched)
            .gradient_bucketing(bucketing)
            .build()
            .unwrap()
    };
    let (one_f_one_b, gpipe) = (PipelineSchedule::OneFOneB, PipelineSchedule::GPipe);
    let small_model = presets::megatron("1.7B");
    let cases = [
        ("18.4B shipped", &shipped, scenario.model().unwrap(), scenario.plan().unwrap()),
        ("1.7B 1F1B", &closed, small_model.clone(), plan(2, 2, 2, 8, one_f_one_b, true)),
        ("1.7B GPipe", &closed, small_model.clone(), plan(2, 2, 4, 16, gpipe, true)),
        ("1.7B unbucketed", &closed, small_model.clone(), plan(2, 4, 2, 16, one_f_one_b, false)),
        ("1.7B fair", &fair, small_model, plan(2, 4, 4, 32, one_f_one_b, true)),
    ];
    let noise = NoiseModel::new(NoiseConfig::default());
    let mut got = String::new();
    for (label, estimator, model, plan) in cases {
        let m = estimator.measure_with(&model, &plan, &noise).unwrap();
        let b = &m.busy;
        got.push_str(&format!(
            "{label}: iteration_ns={} compute_ns={} tp_ns={} dp_ns={} pp_ns={} \
             utilization_bits={:016x}\n",
            m.iteration_time.as_nanos(),
            b.compute.as_nanos(),
            b.tp_comm.as_nanos(),
            b.dp_comm.as_nanos(),
            b.pp_comm.as_nanos(),
            m.utilization.to_bits(),
        ));
    }
    let path = root.join(GOLDEN);
    if std::env::var("VTRAIN_BLESS").is_ok() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("golden present");
    assert_eq!(got, want, "Measured outputs drifted from {GOLDEN}");
}
