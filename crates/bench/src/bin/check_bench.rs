//! CI perf-regression gate.
//!
//! Compares the freshly generated `results/BENCH_sweep.json` (sweep
//! throughput), `results/BENCH_sim.json` (replay hot-loop throughput),
//! and `results/BENCH_collectives.json` (deterministic collective costs)
//! against the committed baseline
//! `crates/bench/baselines/ci_baseline.json` and exits non-zero on:
//!
//! * sweep `points_per_sec` more than `max_throughput_regression_pct`
//!   (25 %) below the baseline — a perf regression (the sweep must also
//!   be an *exhaustive*-goal run: bound-pruned sweeps are not throughput
//!   comparable);
//! * replay `tasks_per_sec` more than `max_sim_regression_pct` (30 %)
//!   below the baseline — a regression in the simulate stage alone;
//! * any collective cost drifting more than `collective_tolerance_rel`
//!   (1 ppm) from the baseline — these are deterministic model outputs,
//!   so any drift is an unintended semantic change (golden gate);
//! * the sweep record's warm-cache obs-on re-run more than
//!   `max_obs_on_regression_pct` (8 % in the committed baseline; both
//!   arms are best-of-3) slower than its obs-off twin —
//!   observability must stay near-free when enabled and exactly free
//!   when disabled (records without the A/B fields skip this gate);
//! * the every-core re-run below `min_parallel_efficiency` (0.6) of
//!   linear scaling over its warm one-thread twin (`points_per_sec_1t`)
//!   — the sweep executor must not waste its thread budget (reduces
//!   to a sanity bound on single-core hosts; records without the twin
//!   skip the gate);
//! * `delta_equivalent == false` — every point of the delta-lowered
//!   sweep must equal a from-scratch `Estimator::estimate` of its plan
//!   (records without the field skip the gate);
//! * serve-daemon regressions, when `results/BENCH_serve.json` exists
//!   (`bench_serve` ran): warm-traffic `requests_per_sec` more than
//!   `max_serve_regression_pct` (30 %) below the baseline's
//!   `serve_requests_per_sec`, or a warm cross-request `cache_hit_rate`
//!   below `min_serve_hit_rate` (0.96) — the shared profile cache is
//!   the daemon's reason to exist. Absent record or baseline field
//!   skips the throughput gate. Records carrying the fault-tolerance
//!   fields additionally gate degraded-mode throughput
//!   (`degraded_requests_per_sec` against the baseline's
//!   `serve_degraded_requests_per_sec`, same regression budget — the
//!   load-shedding fallback must stay cheap) and the snapshot
//!   warm-restart hit-rate (`snapshot_warm_hit_rate` at least
//!   `min_snapshot_warm_hit_rate`, 0.9) — a restarted daemon must
//!   answer its first batch from the restored cache. Absent fields
//!   skip; `--write-baseline` carries old values forward.
//! * fair-sharing network-model regressions, when
//!   `results/BENCH_flow.json` exists (`bench_flow` ran):
//!   `single_flow_ppm` above 1 ppm — the contention replay must
//!   reproduce the closed form exactly when only one flow is in flight;
//!   the overlap plan's `overlap_closed_form_ns` /
//!   `overlap_fair_sharing_ns` drifting more than
//!   `collective_tolerance_rel` from the baseline's golden values
//!   (deterministic model outputs, like the collective costs), or fair
//!   sharing not pricing the overlap plan strictly above the closed
//!   form; and `flow_events_per_sec` more than
//!   `max_flow_regression_pct` (40 %) below the baseline — a perf
//!   regression in the flow kernel itself. Absent record or baseline
//!   fields skip; `--write-baseline` carries old values forward.
//!
//! Run the three producers first (`fig10_design_space --smoke`,
//! `bench_sim`, `bench_collectives`; optionally `bench_serve` and
//! `bench_flow` for their gates). Pass `--write-baseline` to
//! regenerate the baseline from the current results after an intentional
//! change (and say why in `crates/bench/BASELINES.md`).
//!
//! ```sh
//! cargo run --release -p vtrain-bench --bin check_bench [-- --write-baseline]
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use serde::Value;
use vtrain_bench::report::results_dir;

fn baseline_path() -> PathBuf {
    let dir = std::env::var("VTRAIN_BASELINE_DIR")
        .unwrap_or_else(|_| "crates/bench/baselines".to_owned());
    PathBuf::from(dir).join("ci_baseline.json")
}

fn load(path: &PathBuf) -> Value {
    let text = fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("cannot read {} ({e}); run the producers first", path.display())
    });
    serde_json::value_from_str(&text)
        .unwrap_or_else(|e| panic!("cannot parse {}: {e:?}", path.display()))
}

fn points_per_sec(sweep: &Value) -> f64 {
    sweep.get("points_per_sec").and_then(Value::as_f64).expect("BENCH_sweep.points_per_sec")
}

/// The grid tag (`"smoke"` / `"coarse"` / `"full"`) a sweep record was
/// produced with. Throughput is only comparable within one grid, so the
/// gate (and the baseline writer) refuse to mix them.
fn sweep_grid(sweep: &Value) -> String {
    match sweep.get("grid") {
        Some(Value::String(g)) => g.clone(),
        other => panic!("BENCH_sweep.grid: {other:?}"),
    }
}

/// The goal tag of a sweep record. Records predating the `goal` field
/// were always exhaustive.
fn sweep_goal(sweep: &Value) -> String {
    match sweep.get("goal") {
        Some(Value::String(g)) => g.clone(),
        None => "exhaustive".to_owned(),
        other => panic!("BENCH_sweep.goal: {other:?}"),
    }
}

fn sim_tasks_per_sec(sim: &Value) -> f64 {
    sim.get("tasks_per_sec").and_then(Value::as_f64).expect("BENCH_sim.tasks_per_sec")
}

/// `(label, total_ns)` rows of `BENCH_collectives.json`.
fn collective_rows(bench: &Value) -> Vec<(String, u64)> {
    let Some(Value::Array(rows)) = bench.get("collectives") else {
        panic!("BENCH_collectives.collectives missing");
    };
    rows.iter()
        .map(|r| {
            let label = match r.get("label") {
                Some(Value::String(s)) => s.clone(),
                other => panic!("collective row label: {other:?}"),
            };
            let total = r.get("total_ns").and_then(Value::as_u64).expect("total_ns");
            (label, total)
        })
        .collect()
}

fn write_baseline(
    grid: &str,
    pps: f64,
    sim_tps: f64,
    serve_rps: Option<f64>,
    degraded_rps: Option<f64>,
    flow: Option<(f64, u64, u64)>,
    rows: &[(String, u64)],
) {
    // Carry tuned thresholds forward from the committed baseline; fall
    // back to the defaults only when no baseline exists yet.
    let (max_reg, max_sim_reg, max_obs_reg, min_eff, tol, max_serve_reg, min_hit, min_snap_hit) =
        match fs::read_to_string(baseline_path()) {
            Ok(text) => {
                let old = serde_json::value_from_str(&text).expect("existing baseline parses");
                (
                    old.get("max_throughput_regression_pct")
                        .and_then(Value::as_f64)
                        .unwrap_or(25.0),
                    old.get("max_sim_regression_pct").and_then(Value::as_f64).unwrap_or(30.0),
                    old.get("max_obs_on_regression_pct").and_then(Value::as_f64).unwrap_or(5.0),
                    old.get("min_parallel_efficiency").and_then(Value::as_f64).unwrap_or(0.6),
                    old.get("collective_tolerance_rel").and_then(Value::as_f64).unwrap_or(1e-6),
                    old.get("max_serve_regression_pct").and_then(Value::as_f64).unwrap_or(30.0),
                    old.get("min_serve_hit_rate").and_then(Value::as_f64).unwrap_or(0.96),
                    old.get("min_snapshot_warm_hit_rate").and_then(Value::as_f64).unwrap_or(0.9),
                )
            }
            Err(_) => (25.0, 30.0, 5.0, 0.6, 1e-6, 30.0, 0.96, 0.9),
        };
    let max_flow_reg = fs::read_to_string(baseline_path())
        .ok()
        .and_then(|text| {
            serde_json::value_from_str(&text)
                .ok()?
                .get("max_flow_regression_pct")
                .and_then(Value::as_f64)
        })
        .unwrap_or(40.0);
    // A baseline refresh without a fresh serve (or flow) record keeps
    // the old numbers instead of silently dropping those gates.
    let old_serve_field = |field: &'static str| {
        fs::read_to_string(baseline_path()).ok().and_then(|text| {
            serde_json::value_from_str(&text).ok()?.get(field).and_then(Value::as_f64)
        })
    };
    let old_u64_field = |field: &'static str| {
        fs::read_to_string(baseline_path()).ok().and_then(|text| {
            serde_json::value_from_str(&text).ok()?.get(field).and_then(Value::as_u64)
        })
    };
    let serve_rps = serve_rps.or_else(|| old_serve_field("serve_requests_per_sec"));
    let degraded_rps = degraded_rps.or_else(|| old_serve_field("serve_degraded_requests_per_sec"));
    let flow_eps = flow.map(|f| f.0).or_else(|| old_serve_field("flow_events_per_sec"));
    let flow_closed = flow.map(|f| f.1).or_else(|| old_u64_field("flow_overlap_closed_form_ns"));
    let flow_fair = flow.map(|f| f.2).or_else(|| old_u64_field("flow_overlap_fair_sharing_ns"));
    // Hand-rolled JSON keeps the committed baseline diff-stable
    // (one collective per line, fixed field order).
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"max_throughput_regression_pct\": {max_reg},\n"));
    out.push_str(&format!("  \"max_sim_regression_pct\": {max_sim_reg},\n"));
    out.push_str(&format!("  \"max_obs_on_regression_pct\": {max_obs_reg},\n"));
    out.push_str(&format!("  \"min_parallel_efficiency\": {min_eff},\n"));
    out.push_str(&format!("  \"collective_tolerance_rel\": {tol:e},\n"));
    out.push_str(&format!("  \"max_serve_regression_pct\": {max_serve_reg},\n"));
    out.push_str(&format!("  \"min_serve_hit_rate\": {min_hit},\n"));
    out.push_str(&format!("  \"min_snapshot_warm_hit_rate\": {min_snap_hit},\n"));
    out.push_str(&format!("  \"max_flow_regression_pct\": {max_flow_reg},\n"));
    out.push_str(&format!("  \"sweep_grid\": \"{grid}\",\n"));
    out.push_str(&format!("  \"sweep_points_per_sec\": {pps:.1},\n"));
    out.push_str(&format!("  \"sim_tasks_per_sec\": {sim_tps:.0},\n"));
    if let Some(rps) = serve_rps {
        out.push_str(&format!("  \"serve_requests_per_sec\": {rps:.1},\n"));
    }
    if let Some(rps) = degraded_rps {
        out.push_str(&format!("  \"serve_degraded_requests_per_sec\": {rps:.1},\n"));
    }
    if let Some(eps) = flow_eps {
        out.push_str(&format!("  \"flow_events_per_sec\": {eps:.0},\n"));
    }
    if let Some(ns) = flow_closed {
        out.push_str(&format!("  \"flow_overlap_closed_form_ns\": {ns},\n"));
    }
    if let Some(ns) = flow_fair {
        out.push_str(&format!("  \"flow_overlap_fair_sharing_ns\": {ns},\n"));
    }
    out.push_str("  \"collectives\": [\n");
    for (i, (label, total)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        out.push_str(&format!("    [\"{label}\", {total}]{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    let path = baseline_path();
    fs::create_dir_all(path.parent().expect("baseline dir")).expect("baseline dir creatable");
    fs::write(&path, out).expect("baseline writable");
    println!("wrote {}", path.display());
}

fn main() -> ExitCode {
    let sweep = load(&results_dir().join("BENCH_sweep.json"));
    let sim = load(&results_dir().join("BENCH_sim.json"));
    let bench = load(&results_dir().join("BENCH_collectives.json"));
    // The serve record is optional: bench_serve is a separate producer
    // and older pipelines never ran it.
    let serve = fs::read_to_string(results_dir().join("BENCH_serve.json"))
        .ok()
        .map(|text| serde_json::value_from_str(&text).expect("BENCH_serve.json parses"));
    // The flow record is likewise optional: bench_flow is a separate
    // producer and older pipelines never ran it.
    let flow = fs::read_to_string(results_dir().join("BENCH_flow.json"))
        .ok()
        .map(|text| serde_json::value_from_str(&text).expect("BENCH_flow.json parses"));
    let pps = points_per_sec(&sweep);
    let grid = sweep_grid(&sweep);
    let goal = sweep_goal(&sweep);
    let sim_tps = sim_tasks_per_sec(&sim);
    let rows = collective_rows(&bench);

    if goal != "exhaustive" {
        eprintln!(
            "perf gate FAILURE: BENCH_sweep.json came from a `{goal}`-goal sweep — bound \
             pruning skips evaluations, so its throughput is not comparable to the exhaustive \
             baseline. Re-run `fig10_design_space -- --smoke` without `--goal` before gating."
        );
        return ExitCode::FAILURE;
    }

    if std::env::args().any(|a| a == "--write-baseline") {
        let serve_rps =
            serve.as_ref().and_then(|s| s.get("requests_per_sec").and_then(Value::as_f64));
        let degraded_rps =
            serve.as_ref().and_then(|s| s.get("degraded_requests_per_sec").and_then(Value::as_f64));
        let flow_triple = flow.as_ref().and_then(|f| {
            Some((
                f.get("flow_events_per_sec").and_then(Value::as_f64)?,
                f.get("overlap_closed_form_ns").and_then(Value::as_u64)?,
                f.get("overlap_fair_sharing_ns").and_then(Value::as_u64)?,
            ))
        });
        write_baseline(&grid, pps, sim_tps, serve_rps, degraded_rps, flow_triple, &rows);
        return ExitCode::SUCCESS;
    }

    let baseline = load(&baseline_path());
    let base_grid = match baseline.get("sweep_grid") {
        Some(Value::String(g)) => g.clone(),
        other => panic!("baseline.sweep_grid: {other:?}"),
    };
    if grid != base_grid {
        eprintln!(
            "perf gate FAILURE: BENCH_sweep.json came from the `{grid}` grid but the baseline \
             records `{base_grid}` — throughput is only comparable within one grid. Re-run \
             `fig10_design_space -- --{base_grid}` before gating."
        );
        return ExitCode::FAILURE;
    }
    let max_reg_pct = baseline
        .get("max_throughput_regression_pct")
        .and_then(Value::as_f64)
        .expect("baseline.max_throughput_regression_pct");
    let tol = baseline
        .get("collective_tolerance_rel")
        .and_then(Value::as_f64)
        .expect("baseline.collective_tolerance_rel");
    let base_pps = baseline
        .get("sweep_points_per_sec")
        .and_then(Value::as_f64)
        .expect("baseline.sweep_points_per_sec");

    let mut failures = Vec::new();

    let floor = base_pps * (1.0 - max_reg_pct / 100.0);
    println!(
        "sweep throughput: {pps:.1} points/s (baseline {base_pps:.1}, floor {floor:.1} at \
         -{max_reg_pct:.0}%)"
    );
    if pps < floor {
        failures.push(format!(
            "sweep throughput regressed: {pps:.1} points/s < floor {floor:.1} \
             ({:.1}% below the {base_pps:.1} baseline)",
            (1.0 - pps / base_pps) * 100.0
        ));
    }

    // Replay hot-loop gate (absent from pre-PR-4 baselines: then skipped
    // with a warning so `--write-baseline` can bootstrap the field).
    match baseline.get("sim_tasks_per_sec").and_then(Value::as_f64) {
        None => println!("replay throughput: {sim_tps:.0} tasks/s (no baseline yet — not gated)"),
        Some(base_sim) => {
            let max_sim_reg =
                baseline.get("max_sim_regression_pct").and_then(Value::as_f64).unwrap_or(30.0);
            let sim_floor = base_sim * (1.0 - max_sim_reg / 100.0);
            println!(
                "replay throughput: {:.2} Mtasks/s (baseline {:.2}, floor {:.2} at -{:.0}%)",
                sim_tps / 1e6,
                base_sim / 1e6,
                sim_floor / 1e6,
                max_sim_reg
            );
            if sim_tps < sim_floor {
                failures.push(format!(
                    "replay throughput regressed: {:.2} Mtasks/s < floor {:.2} \
                     ({:.1}% below the {:.2} Mtasks/s baseline)",
                    sim_tps / 1e6,
                    sim_floor / 1e6,
                    (1.0 - sim_tps / base_sim) * 100.0,
                    base_sim / 1e6
                ));
            }
        }
    }

    // Instrumentation-overhead gate: the warm-cache obs-on re-run must
    // stay within `max_obs_on_regression_pct` of its obs-off twin. Both
    // fields come from the same BENCH_sweep.json record, so the pair is
    // always apples-to-apples; `--full` runs (and pre-obs producers)
    // omit them and skip the gate.
    let obs_pair = sweep
        .get("points_per_sec_obs_off")
        .and_then(Value::as_f64)
        .zip(sweep.get("points_per_sec_obs_on").and_then(Value::as_f64));
    match obs_pair {
        None => println!("instrumentation overhead: not recorded in BENCH_sweep.json — not gated"),
        Some((obs_off, obs_on)) => {
            let max_obs_reg =
                baseline.get("max_obs_on_regression_pct").and_then(Value::as_f64).unwrap_or(5.0);
            let obs_floor = obs_off * (1.0 - max_obs_reg / 100.0);
            println!(
                "instrumentation overhead: {obs_on:.1} points/s with obs on vs {obs_off:.1} off \
                 (floor {obs_floor:.1} at -{max_obs_reg:.0}%)"
            );
            if obs_on < obs_floor {
                failures.push(format!(
                    "instrumentation overhead too high: {obs_on:.1} points/s with obs on < floor \
                     {obs_floor:.1} ({:.1}% below the {obs_off:.1} points/s obs-off twin)",
                    (1.0 - obs_on / obs_off) * 100.0
                ));
            }
        }
    }

    // Parallel-efficiency gate: the every-core re-run must deliver at
    // least `min_parallel_efficiency` (0.6) of linear scaling over its
    // warm twin run on exactly one thread. On a single-core host
    // (`threads_mt == 1`) this reduces to a same-conditions sanity bound;
    // records without the fields (old producers, `--full` runs) skip the
    // gate.
    let mt_pair = sweep
        .get("points_per_sec_mt")
        .and_then(Value::as_f64)
        .zip(sweep.get("threads_mt").and_then(Value::as_u64))
        .zip(sweep.get("points_per_sec_1t").and_then(Value::as_f64));
    match mt_pair {
        None => println!("parallel efficiency: not recorded in BENCH_sweep.json — not gated"),
        Some(((pps_mt, threads_mt), pps_1t)) => {
            let min_eff =
                baseline.get("min_parallel_efficiency").and_then(Value::as_f64).unwrap_or(0.6);
            let mt_floor = pps_1t * threads_mt as f64 * min_eff;
            println!(
                "parallel efficiency: {pps_mt:.1} points/s on {threads_mt} thread(s) vs \
                 {pps_1t:.1} on one (floor {mt_floor:.1} at {min_eff}x linear)"
            );
            if pps_mt < mt_floor {
                failures.push(format!(
                    "parallel efficiency too low: {pps_mt:.1} points/s on {threads_mt} thread(s) \
                     < floor {mt_floor:.1} ({min_eff}x linear over the {pps_1t:.1} points/s \
                     single-thread twin)"
                ));
            }
        }
    }

    // Delta-equivalence gate: when the producer re-priced the sweep's
    // points one by one, the delta-lowered sweep must have reproduced
    // the from-scratch estimates exactly — a `false` here means the
    // patching invariant broke.
    match sweep.get("delta_equivalent") {
        None => println!("delta equivalence: not recorded in BENCH_sweep.json — not gated"),
        Some(Value::Bool(true)) => {
            let patched =
                sweep.get("stats").and_then(|st| st.get("delta_patched")).and_then(Value::as_u64);
            println!(
                "delta equivalence: sweep points match per-point from-scratch estimates \
                 ({} delta-patched)",
                patched.map_or_else(|| "unknown".to_owned(), |n| n.to_string())
            );
        }
        Some(other) => failures.push(format!(
            "delta-lowered sweep diverged from from-scratch lowering \
             (BENCH_sweep.delta_equivalent = {other:?})"
        )),
    }

    // Serve-daemon gate: only when bench_serve produced a record. The
    // hit-rate bound is unconditional (warm traffic over an identical
    // scenario is deterministic up to scheduling); the throughput floor
    // additionally needs a baseline field, which `--write-baseline`
    // bootstraps.
    match &serve {
        None => println!("serve throughput: BENCH_serve.json not present — not gated"),
        Some(record) => {
            let rps =
                record.get("requests_per_sec").and_then(Value::as_f64).expect("serve rps recorded");
            let hit_rate =
                record.get("cache_hit_rate").and_then(Value::as_f64).expect("serve hit rate");
            let min_hit =
                baseline.get("min_serve_hit_rate").and_then(Value::as_f64).unwrap_or(0.96);
            if hit_rate < min_hit {
                failures.push(format!(
                    "serve warm hit-rate too low: {hit_rate:.4} < {min_hit} — repeat traffic is \
                     not being answered from the shared profile cache"
                ));
            }
            match baseline.get("serve_requests_per_sec").and_then(Value::as_f64) {
                None => println!(
                    "serve throughput: {rps:.1} req/s, warm hit-rate {hit_rate:.4} \
                     (no baseline yet — throughput not gated)"
                ),
                Some(base_rps) => {
                    let max_serve_reg = baseline
                        .get("max_serve_regression_pct")
                        .and_then(Value::as_f64)
                        .unwrap_or(30.0);
                    let serve_floor = base_rps * (1.0 - max_serve_reg / 100.0);
                    println!(
                        "serve throughput: {rps:.1} req/s, warm hit-rate {hit_rate:.4} \
                         (baseline {base_rps:.1}, floor {serve_floor:.1} at -{max_serve_reg:.0}%)"
                    );
                    if rps < serve_floor {
                        failures.push(format!(
                            "serve throughput regressed: {rps:.1} req/s < floor {serve_floor:.1} \
                             ({:.1}% below the {base_rps:.1} baseline)",
                            (1.0 - rps / base_rps) * 100.0
                        ));
                    }
                }
            }

            // Degraded-mode throughput: the bound-only fallback is what a
            // saturated daemon answers with, so it regressing defeats the
            // point of degrading instead of shedding. Same regression
            // budget as the healthy path; absent fields (older producers
            // or baselines) skip.
            let degraded_pair = record
                .get("degraded_requests_per_sec")
                .and_then(Value::as_f64)
                .zip(baseline.get("serve_degraded_requests_per_sec").and_then(Value::as_f64));
            match degraded_pair {
                None => println!(
                    "serve degraded throughput: record or baseline field absent — not gated"
                ),
                Some((deg_rps, base_deg)) => {
                    let max_serve_reg = baseline
                        .get("max_serve_regression_pct")
                        .and_then(Value::as_f64)
                        .unwrap_or(30.0);
                    let deg_floor = base_deg * (1.0 - max_serve_reg / 100.0);
                    println!(
                        "serve degraded throughput: {deg_rps:.1} req/s (baseline {base_deg:.1}, \
                         floor {deg_floor:.1} at -{max_serve_reg:.0}%)"
                    );
                    if deg_rps < deg_floor {
                        failures.push(format!(
                            "degraded-mode throughput regressed: {deg_rps:.1} req/s < floor \
                             {deg_floor:.1} ({:.1}% below the {base_deg:.1} baseline)",
                            (1.0 - deg_rps / base_deg) * 100.0
                        ));
                    }
                }
            }

            // Snapshot warm-restart hit-rate: like the warm-cache bound,
            // this is deterministic up to scheduling, so it gates
            // unconditionally whenever the producer recorded it.
            match record.get("snapshot_warm_hit_rate").and_then(Value::as_f64) {
                None => println!("snapshot warm hit-rate: not recorded — not gated"),
                Some(snap_hit) => {
                    let min_snap_hit = baseline
                        .get("min_snapshot_warm_hit_rate")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.9);
                    println!("snapshot warm hit-rate: {snap_hit:.4} (floor {min_snap_hit})");
                    if snap_hit < min_snap_hit {
                        failures.push(format!(
                            "snapshot warm-restart hit-rate too low: {snap_hit:.4} < \
                             {min_snap_hit} — a restarted daemon is not answering its first \
                             batch from the restored cache"
                        ));
                    }
                }
            }
        }
    }

    // Flow-model gate: only when bench_flow produced a record. The
    // equivalence anchor and the fair-above-closed ordering are
    // deterministic model outputs and gate unconditionally; the overlap
    // costs are golden-gated against the baseline like the collectives,
    // and the kernel throughput floor needs a baseline field, which
    // `--write-baseline` bootstraps.
    match &flow {
        None => println!("flow model: BENCH_flow.json not present — not gated"),
        Some(record) => {
            let ppm = record
                .get("single_flow_ppm")
                .and_then(Value::as_f64)
                .expect("single-flow ppm recorded");
            println!("flow single-flow anchor: {ppm:.3} ppm vs closed form (bound 1 ppm)");
            if ppm > 1.0 {
                failures.push(format!(
                    "fair sharing diverges from the closed form on a single flow: {ppm:.3} ppm \
                     > 1 ppm — the progressive-filling drain no longer matches the analytic cost"
                ));
            }

            let closed = record
                .get("overlap_closed_form_ns")
                .and_then(Value::as_u64)
                .expect("overlap closed-form cost recorded");
            let fair = record
                .get("overlap_fair_sharing_ns")
                .and_then(Value::as_u64)
                .expect("overlap fair-sharing cost recorded");
            if fair <= closed {
                failures.push(format!(
                    "fair sharing no longer prices contention: overlap plan {fair} ns <= \
                     closed-form {closed} ns"
                ));
            }
            let golden = [
                ("closed-form", closed, "flow_overlap_closed_form_ns"),
                ("fair-sharing", fair, "flow_overlap_fair_sharing_ns"),
            ];
            for (label, got, field) in golden {
                match baseline.get(field).and_then(Value::as_u64) {
                    None => println!(
                        "flow overlap ({label}): {got} ns (no baseline yet — drift not gated)"
                    ),
                    Some(want) => {
                        let rel = (got as f64 - want as f64).abs() / (want as f64).max(1.0);
                        println!(
                            "flow overlap ({label}): {got} ns (baseline {want} ns, drift {rel:.2e})"
                        );
                        if rel > tol {
                            failures.push(format!(
                                "flow overlap cost ({label}) drifted: {got} ns vs baseline \
                                 {want} ns (rel {rel:.2e} > {tol:.0e})"
                            ));
                        }
                    }
                }
            }

            let eps = record
                .get("flow_events_per_sec")
                .and_then(Value::as_f64)
                .expect("flow kernel throughput recorded");
            match baseline.get("flow_events_per_sec").and_then(Value::as_f64) {
                None => println!(
                    "flow kernel: {:.2} Mevents/s (no baseline yet — throughput not gated)",
                    eps / 1e6
                ),
                Some(base_eps) => {
                    let max_flow_reg = baseline
                        .get("max_flow_regression_pct")
                        .and_then(Value::as_f64)
                        .unwrap_or(40.0);
                    let flow_floor = base_eps * (1.0 - max_flow_reg / 100.0);
                    println!(
                        "flow kernel: {:.2} Mevents/s (baseline {:.2}, floor {:.2} at \
                         -{max_flow_reg:.0}%)",
                        eps / 1e6,
                        base_eps / 1e6,
                        flow_floor / 1e6
                    );
                    if eps < flow_floor {
                        failures.push(format!(
                            "flow kernel throughput regressed: {:.2} Mevents/s < floor {:.2} \
                             ({:.1}% below the {:.2} Mevents/s baseline)",
                            eps / 1e6,
                            flow_floor / 1e6,
                            (1.0 - eps / base_eps) * 100.0,
                            base_eps / 1e6
                        ));
                    }
                }
            }
        }
    }

    let Some(Value::Array(base_rows)) = baseline.get("collectives") else {
        panic!("baseline.collectives missing");
    };
    let lookup = |label: &str| -> Option<u64> {
        base_rows.iter().find_map(|pair| match pair {
            Value::Array(kv) if kv.len() == 2 => match (&kv[0], kv[1].as_u64()) {
                (Value::String(l), Some(t)) if l == label => Some(t),
                _ => None,
            },
            _ => None,
        })
    };
    for (label, got) in &rows {
        match lookup(label) {
            None => failures.push(format!("collective `{label}` missing from the baseline")),
            Some(want) => {
                let rel = (*got as f64 - want as f64).abs() / (want as f64).max(1.0);
                if rel > tol {
                    failures.push(format!(
                        "collective `{label}` drifted: {got} ns vs baseline {want} ns \
                         (rel {rel:.2e} > {tol:.0e})"
                    ));
                }
            }
        }
    }
    // Symmetric check: a scenario silently dropped from the producer is
    // a gating hole, not a pass.
    for pair in base_rows {
        if let Value::Array(kv) = pair {
            if let Value::String(label) = &kv[0] {
                if !rows.iter().any(|(l, _)| l == label) {
                    failures.push(format!(
                        "baseline collective `{label}` is no longer produced by bench_collectives"
                    ));
                }
            }
        }
    }
    println!("collective costs: {} scenarios checked against the baseline", rows.len());

    if failures.is_empty() {
        println!("perf gate: PASS");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("perf gate FAILURE: {f}");
        }
        eprintln!(
            "perf gate: FAIL ({} issue(s)). If intentional, regenerate with \
             `check_bench -- --write-baseline` and document it in crates/bench/BASELINES.md.",
            failures.len()
        );
        ExitCode::FAILURE
    }
}
