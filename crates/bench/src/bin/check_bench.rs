//! CI perf-regression gate. Run the producers (`fig10_design_space -- --smoke`,
//! `bench_sim`, `bench_collectives`; optionally `bench_serve`, `bench_flow`),
//! then `cargo run --release -p vtrain-bench --bin check_bench`. It checks their
//! `results/BENCH_*.json` records against `crates/bench/baselines/ci_baseline.json`
//! and exits 1 if any gate fails; the gates are the [`GATES`] table below. After
//! an intentional change, `-- --write-baseline` regenerates the baseline from the
//! records (say why in `crates/bench/BASELINES.md`).

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use serde::Value;
use vtrain_bench::report::results_dir;

/// The records `results/BENCH_<name>.json` and whether each is optional (older
/// pipelines never ran `bench_serve` or `bench_flow`): an absent one's gates skip.
const RECORDS: [(&str, bool); 5] =
    [("sweep", false), ("sim", false), ("collectives", false), ("serve", true), ("flow", true)];

/// The loaded records by name; a missing or unparsable one holds its verdict.
type Records = HashMap<&'static str, Result<Value, Verdict>>;

/// What a missing (or mistyped) input does to a gate.
#[derive(Clone, Copy, PartialEq)]
enum Need {
    /// Any missing field skips the gate.
    Optional,
    /// The record field must be present; a missing baseline field skips.
    Field,
    /// The record field, baseline field and threshold must all be present.
    Both,
}

/// A gate's comparator. A [`Threshold`] is read from the baseline.
#[derive(Clone, Copy)]
enum Check {
    /// The tag equals this literal; a mismatch stops the run.
    Is(&'static str),
    /// The tag equals the baseline's string field; a mismatch stops the run.
    Same(&'static str),
    /// value ≥ baseline field × (1 − threshold / 100), written with these decimals.
    Floor(&'static str, usize, Threshold),
    /// value ≤ baseline field, exactly: for deterministic work counts.
    Ceil(&'static str),
    /// value ≥ same-record twin × (1 − threshold / 100).
    Twin(&'static str, Threshold),
    /// value ≥ same-record one-thread twin × same-record thread count × threshold.
    Scaling(&'static str, &'static str, Threshold),
    /// value ≥ threshold.
    AtLeast(Threshold),
    /// value ≤ a fixed bound.
    AtMost(f64),
    /// value is `true`.
    True,
    /// value > a same-record field.
    Above(&'static str),
    /// Same labels as the baseline field, each within threshold relative drift.
    Golden(&'static str, Threshold),
}

struct Gate {
    name: &'static str,
    /// A [`RECORDS`] name, and a dotted path into that record.
    record: &'static str,
    path: &'static str,
    need: Need,
    check: Check,
}

/// A baseline threshold field and its one default, used when the baseline lacks the
/// field (unless [`Need::Both`]); [`THRESHOLDS`] lists them in baseline order.
type Threshold = (&'static str, f64);

const MAX_SWEEP: Threshold = ("max_throughput_regression_pct", 25.0);
const MAX_SIM: Threshold = ("max_sim_regression_pct", 30.0);
const MAX_OBS: Threshold = ("max_obs_on_regression_pct", 5.0);
const MIN_EFF: Threshold = ("min_parallel_efficiency", 0.6);
const TOL: Threshold = ("collective_tolerance_rel", 1e-6);
const MAX_SERVE: Threshold = ("max_serve_regression_pct", 30.0);
const MIN_HIT: Threshold = ("min_serve_hit_rate", 0.96);
const MIN_SNAP_HIT: Threshold = ("min_snapshot_warm_hit_rate", 0.9);
const MAX_FLOW: Threshold = ("max_flow_regression_pct", 40.0);
const THRESHOLDS: [Threshold; 9] =
    [MAX_SWEEP, MAX_SIM, MAX_OBS, MIN_EFF, TOL, MAX_SERVE, MIN_HIT, MIN_SNAP_HIT, MAX_FLOW];

/// The gates in evaluation order. Rows reading a baseline field come first, in
/// baseline order: `--write-baseline` writes the baseline by walking them.
#[rustfmt::skip]
static GATES: &[Gate] = {
    use Check::*;
    use Need::*;
    &[
        Gate { name: "sweep goal", record: "sweep", path: "goal",
               need: Optional, check: Is("exhaustive") },
        Gate { name: "sweep grid", record: "sweep", path: "grid",
               need: Both, check: Same("sweep_grid") },
        Gate { name: "sweep points/s", record: "sweep", path: "points_per_sec",
               need: Both, check: Floor("sweep_points_per_sec", 1, MAX_SWEEP) },
        Gate { name: "sweep walked copies", record: "sweep", path: "periods_walked",
               need: Field, check: Ceil("sweep_periods_walked") },
        Gate { name: "replay tasks/s", record: "sim", path: "tasks_per_sec",
               need: Field, check: Floor("sim_tasks_per_sec", 0, MAX_SIM) },
        Gate { name: "serve req/s", record: "serve", path: "requests_per_sec",
               need: Field, check: Floor("serve_requests_per_sec", 1, MAX_SERVE) },
        Gate { name: "serve degraded req/s", record: "serve", path: "degraded_requests_per_sec",
               need: Optional, check: Floor("serve_degraded_requests_per_sec", 1, MAX_SERVE) },
        Gate { name: "flow kernel events/s", record: "flow", path: "flow_events_per_sec",
               need: Field, check: Floor("flow_events_per_sec", 0, MAX_FLOW) },
        Gate { name: "flow closed-form ns", record: "flow", path: "overlap_closed_form_ns",
               need: Field, check: Golden("flow_overlap_closed_form_ns", TOL) },
        Gate { name: "flow fair-sharing ns", record: "flow", path: "overlap_fair_sharing_ns",
               need: Field, check: Golden("flow_overlap_fair_sharing_ns", TOL) },
        Gate { name: "flow overlap refills", record: "flow", path: "overlap_refills",
               need: Field, check: Ceil("flow_overlap_refills") },
        Gate { name: "collective costs ns", record: "collectives", path: "collectives",
               need: Both, check: Golden("collectives", TOL) },
        Gate { name: "obs-on points/s", record: "sweep", path: "points_per_sec_obs_on",
               need: Optional, check: Twin("points_per_sec_obs_off", MAX_OBS) },
        Gate { name: "parallel points/s", record: "sweep", path: "points_per_sec_mt",
               need: Optional, check: Scaling("points_per_sec_1t", "threads_mt", MIN_EFF) },
        Gate { name: "delta equivalence", record: "sweep", path: "delta_equivalent",
               need: Optional, check: True },
        Gate { name: "serve warm hit-rate", record: "serve", path: "cache_hit_rate",
               need: Field, check: AtLeast(MIN_HIT) },
        Gate { name: "snapshot warm hit-rate", record: "serve", path: "snapshot_warm_hit_rate",
               need: Optional, check: AtLeast(MIN_SNAP_HIT) },
        Gate { name: "flow single-flow ppm", record: "flow", path: "single_flow_ppm",
               need: Field, check: AtMost(1.0) },
        Gate { name: "flow fair > closed", record: "flow", path: "overlap_fair_sharing_ns",
               need: Field, check: Above("overlap_closed_form_ns") },
    ]
};

#[derive(Clone, Debug, PartialEq)]
enum Verdict {
    Pass(String),
    Skip(String),
    Fail(String),
}

/// The value at a dotted `path`.
fn at<'a>(v: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(v, |v, key| v.get(key))
}

/// `(label, value)` pairs of a golden field: a bare integer (label `""`),
/// a record's `{label, total_ns}` objects, or the baseline's `[label, total]`.
fn labelled(v: &Value) -> Option<Vec<(String, u64)>> {
    let Value::Array(items) = v else { return Some(vec![(String::new(), v.as_u64()?)]) };
    let pair = |item: &Value| {
        let (label, total) = match item {
            Value::Array(kv) if kv.len() == 2 => (&kv[0], &kv[1]),
            _ => (item.get("label")?, item.get("total_ns")?),
        };
        let Value::String(label) = label else { return None };
        Some((label.clone(), total.as_u64()?))
    };
    items.iter().map(pair).collect()
}

/// Golden mismatches: a label on one side only, or a relative drift above `tol`.
fn drift(got: &[(String, u64)], want: &[(String, u64)], tol: f64) -> Vec<String> {
    let find = |rows: &[(String, u64)], l: &str| rows.iter().find(|r| r.0 == l).map(|r| r.1);
    let dropped = want.iter().filter(|(label, _)| find(got, label).is_none());
    let mut issues: Vec<_> =
        dropped.map(|(label, _)| format!("baseline `{label}` is no longer produced")).collect();
    for (label, got) in got {
        let Some(want) = find(want, label) else {
            issues.push(format!("`{label}` missing from the baseline"));
            continue;
        };
        let rel = (*got as f64 - want as f64).abs() / (want as f64).max(1.0);
        if rel > tol {
            issues.push(format!("`{label}` drifted: {got} vs {want} (rel {rel:.2e})"));
        }
    }
    issues
}

/// `v`, or the skip (failure, if `required`) that its absence leads to.
fn need<T>(v: Option<T>, what: String, required: bool) -> Result<T, Verdict> {
    v.ok_or_else(|| match required {
        true => Verdict::Fail(format!("{what} missing")),
        false => Verdict::Skip(format!("{what} not recorded, not gated")),
    })
}

/// The gate's verdict; `Err` is the skip or failure a missing (or mistyped) input leads to.
fn judge(g: &Gate, records: &Records, base: &Value) -> Result<Verdict, Verdict> {
    let rec = records[g.record].as_ref().map_err(Verdict::clone)?;
    let file = format!("BENCH_{}.json", g.record);
    let (req, base_req) = (g.need != Need::Optional, g.need == Need::Both);
    let fresh = |path: &str| need(at(rec, path), format!("{file} {path}"), req);
    let num = |path| need(fresh(path)?.as_f64(), format!("{file} {path}"), req);
    let old = |name| need(base.get(name), format!("baseline {name}"), base_req);
    let old_num = |name| need(old(name)?.as_f64(), format!("baseline {name}"), base_req);
    let limit = |(name, default): Threshold| {
        let value = base.get(name).and_then(Value::as_f64).or((!base_req).then_some(default));
        need(value, format!("baseline {name}"), true)
    };
    let at_least = |got: f64, floor: f64| (got >= floor, format!("{got:.4}, floor {floor:.4}"));
    let below = |pct: f64| 1.0 - pct / 100.0;
    let (pass, detail) = match g.check {
        Check::Is(want) => {
            let got = fresh(g.path)?;
            (*got == Value::String(want.into()), format!("{got:?}, must be `{want}`"))
        }
        Check::Same(name) => {
            let (got, want) = (fresh(g.path)?, old(name)?);
            (matches!(got, Value::String(_)) && got == want, format!("{got:?}, baseline {want:?}"))
        }
        Check::True => (*fresh(g.path)? == Value::Bool(true), "must be true".to_owned()),
        Check::Floor(name, _, t) => at_least(num(g.path)?, old_num(name)? * below(limit(t)?)),
        Check::Ceil(name) => {
            let (got, ceiling) = (num(g.path)?, old_num(name)?);
            (got <= ceiling, format!("{got}, ceiling {ceiling}"))
        }
        Check::Twin(twin, t) => at_least(num(g.path)?, num(twin)? * below(limit(t)?)),
        Check::Scaling(one, n, t) => at_least(num(g.path)?, num(one)? * num(n)? * limit(t)?),
        Check::AtLeast(t) => at_least(num(g.path)?, limit(t)?),
        Check::AtMost(max) => num(g.path).map(|got| (got <= max, format!("{got}, bound {max}")))?,
        Check::Above(other) => {
            let (got, low) = (num(g.path)?, num(other)?);
            (got > low, format!("{got}, above {other} {low}"))
        }
        Check::Golden(name, t) => {
            let got = need(labelled(fresh(g.path)?), format!("{file} {}", g.path), req)?;
            let want = need(labelled(old(name)?), format!("baseline {name}"), base_req)?;
            let tol = limit(t)?;
            let mut issues = vec![format!("{} value(s), tolerance {tol:e}", got.len())];
            issues.extend(drift(&got, &want, tol));
            (issues.len() == 1, issues.join("; "))
        }
    };
    Ok(if pass { Verdict::Pass(detail) } else { Verdict::Fail(detail) })
}

/// Evaluates the gates in order, up to the first failed tag gate. With
/// `write`, only the tag gates that need no baseline run.
fn run(write: bool, records: &Records, base: &Value) -> Vec<(&'static Gate, Verdict)> {
    let gates = GATES.iter().filter(|g| !write || matches!(g.check, Check::Is(_)));
    let mut verdicts: Vec<_> =
        gates.map(|g| (g, judge(g, records, base).unwrap_or_else(|v| v))).collect();
    let tag_failed = |(g, v): &(&Gate, Verdict)| {
        matches!((g.check, v), (Check::Is(_) | Check::Same(_), Verdict::Fail(_)))
    };
    if let Some(i) = verdicts.iter().position(tag_failed) {
        verdicts.truncate(i + 1);
    }
    verdicts
}

/// `v` as the baseline stores the field that `check` reads.
fn render(v: &Value, check: Check) -> Option<String> {
    Some(match (check, v) {
        (Check::Same(_), Value::String(s)) => format!("\"{s}\""),
        (Check::Floor(_, digits, _), _) => format!("{:.*}", digits, v.as_f64()?),
        (Check::Ceil(_), _) => v.as_u64()?.to_string(),
        (Check::Golden(..), Value::Array(_)) => {
            let rows = labelled(v)?.into_iter().map(|(l, t)| format!("\n    [\"{l}\", {t}]"));
            format!("[{}\n  ]", rows.collect::<Vec<_>>().join(","))
        }
        (Check::Golden(..), _) => v.as_u64()?.to_string(),
        _ => return None,
    })
}

/// The baseline for `records`, one field per line in a fixed, diff-stable order.
/// Fields of a required record must be fresh; the rest carry `old`'s forward.
fn baseline_text(records: &Records, old: &Value) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, default) in THRESHOLDS {
        let x = old.get(name).and_then(Value::as_f64).unwrap_or(default); // 1e-6, not 0.000001
        let text = if x != 0.0 && x.abs() < 1e-3 { format!("{x:e}") } else { format!("{x}") };
        fields.push(format!("  \"{name}\": {text}"));
    }
    for g in GATES {
        let (Check::Same(name)
        | Check::Floor(name, ..)
        | Check::Ceil(name)
        | Check::Golden(name, _)) = g.check
        else {
            continue;
        };
        let record = match &records[g.record] {
            Err(Verdict::Fail(e)) => return Err(e.clone()),
            record => record.as_ref().ok(),
        };
        let optional = RECORDS.iter().any(|&(r, optional)| r == g.record && optional);
        let fresh = record.and_then(|r| at(r, g.path)).and_then(|v| render(v, g.check));
        let carried = || old.get(name).filter(|_| optional).and_then(|v| render(v, g.check));
        match fresh.or_else(carried) {
            Some(text) => fields.push(format!("  \"{name}\": {text}")),
            None if optional => {}
            None => return Err(format!("BENCH_{}.json {} missing", g.record, g.path)),
        }
    }
    Ok(format!("{{\n{}\n}}\n", fields.join(",\n")))
}

/// Reads a JSON file; `Ok(None)` when it cannot be read.
fn load(path: &Path) -> Result<Option<Value>, String> {
    let Ok(text) = fs::read_to_string(path) else { return Ok(None) };
    let parsed = serde_json::value_from_str(&text);
    parsed.map(Some).map_err(|e| format!("cannot parse {}: {e:?}", path.display()))
}

/// Runs the gates, then with `write` writes the baseline; the closing message.
fn check(write: bool) -> Result<String, String> {
    let load_record = |(name, optional): (&'static str, bool)| {
        let file = format!("BENCH_{name}.json");
        let found = load(&results_dir().join(&file)).map_err(Verdict::Fail);
        (name, found.and_then(|found| need(found, file, !optional)))
    };
    let records = Records::from(RECORDS.map(load_record));
    let dir = std::env::var("VTRAIN_BASELINE_DIR").unwrap_or("crates/bench/baselines".into());
    let path = Path::new(&dir).join("ci_baseline.json");
    let empty = write.then(|| Value::Object(Vec::new()));
    let baseline = load(&path)?.or(empty).ok_or(format!("cannot read {}", path.display()))?;
    let mut failures = 0;
    for (g, verdict) in run(write, &records, &baseline) {
        match verdict {
            Verdict::Pass(detail) => println!("ok    {}: {detail}", g.name),
            Verdict::Skip(detail) => println!("skip  {}: {detail}", g.name),
            Verdict::Fail(detail) => {
                failures += 1;
                eprintln!("perf gate FAILURE: {}: {detail}", g.name);
            }
        }
    }
    if failures > 0 {
        let next = if write { "no baseline written" } else { "if intended, --write-baseline" };
        return Err(format!("{failures} gate(s) failed; {next}"));
    }
    if !write {
        return Ok("perf gate: PASS".to_owned());
    }
    let text = baseline_text(&records, &baseline)?;
    fs::create_dir_all(&dir).and_then(|()| fs::write(&path, text)).map_err(|e| e.to_string())?;
    Ok(format!("wrote {}", path.display()))
}

fn main() -> ExitCode {
    match check(std::env::args().any(|a| a == "--write-baseline")) {
        Ok(message) => println!("{message}"),
        Err(message) => {
            eprintln!("perf gate: FAIL: {message}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(text: &str) -> Value {
        serde_json::value_from_str(text).expect("test JSON parses")
    }

    /// Records that pass every gate against [`baseline`], none by skipping.
    fn fixture() -> Records {
        Records::from([
            (
                "sweep",
                Ok(json(
                    r#"{"grid": "smoke", "goal": "exhaustive", "points_per_sec": 400.0,
                        "periods_walked": 500,
                        "points_per_sec_obs_off": 1000.0, "points_per_sec_obs_on": 990.0,
                        "points_per_sec_1t": 100.0, "points_per_sec_mt": 150.0,
                        "threads_mt": 2, "delta_equivalent": true}"#,
                )),
            ),
            ("sim", Ok(json(r#"{"tasks_per_sec": 10000000.0}"#))),
            (
                "collectives",
                Ok(json(
                    r#"{"collectives": [{"label": "a", "total_ns": 1000000},
                                        {"label": "b", "total_ns": 2000}]}"#,
                )),
            ),
            (
                "serve",
                Ok(json(
                    r#"{"requests_per_sec": 100.0, "cache_hit_rate": 1.0,
                        "degraded_requests_per_sec": 200.0, "snapshot_warm_hit_rate": 1.0}"#,
                )),
            ),
            (
                "flow",
                Ok(json(
                    r#"{"flow_events_per_sec": 1000000.0, "single_flow_ppm": 0,
                        "overlap_closed_form_ns": 1000000, "overlap_fair_sharing_ns": 2000000,
                        "overlap_refills": 100}"#,
                )),
            ),
        ])
    }

    const BASELINE: &str = r#"{
  "max_throughput_regression_pct": 25,
  "max_sim_regression_pct": 30,
  "max_obs_on_regression_pct": 8,
  "min_parallel_efficiency": 0.6,
  "collective_tolerance_rel": 1e-6,
  "max_serve_regression_pct": 50,
  "min_serve_hit_rate": 0.96,
  "min_snapshot_warm_hit_rate": 0.9,
  "max_flow_regression_pct": 40,
  "sweep_grid": "smoke",
  "sweep_points_per_sec": 400.0,
  "sweep_periods_walked": 500,
  "sim_tasks_per_sec": 10000000,
  "serve_requests_per_sec": 100.0,
  "serve_degraded_requests_per_sec": 200.0,
  "flow_events_per_sec": 1000000,
  "flow_overlap_closed_form_ns": 1000000,
  "flow_overlap_fair_sharing_ns": 2000000,
  "flow_overlap_refills": 100,
  "collectives": [
    ["a", 1000000],
    ["b", 2000]
  ]
}
"#;

    fn baseline() -> Value {
        json(BASELINE)
    }

    /// Sets (or with `None` removes) `field` of an object.
    fn set(v: &mut Value, field: &str, to: Option<&str>) {
        let Value::Object(fields) = v else { panic!("not an object: {v:?}") };
        fields.retain(|(k, _)| k != field);
        fields.extend(to.map(|text| (field.to_owned(), json(text))));
    }

    fn record<'a>(records: &'a mut Records, name: &str) -> &'a mut Value {
        records.get_mut(name).expect("a record").as_mut().expect("a loaded record")
    }

    fn failing(records: &Records, base: &Value) -> Vec<&'static str> {
        let verdicts = run(false, records, base);
        verdicts
            .into_iter()
            .filter(|(_, v)| matches!(v, Verdict::Fail(_)))
            .map(|(g, _)| g.name)
            .collect()
    }

    fn verdict_of(name: &str, records: &Records, base: &Value) -> Verdict {
        let g = GATES.iter().find(|g| g.name == name).expect("a gate row");
        judge(g, records, base).unwrap_or_else(|v| v)
    }

    #[test]
    fn the_fixture_passes_every_gate() {
        let verdicts = run(false, &fixture(), &baseline());
        assert_eq!(verdicts.len(), GATES.len());
        for (g, verdict) in verdicts {
            assert!(matches!(verdict, Verdict::Pass(_)), "{}: {verdict:?}", g.name);
        }
    }

    /// `(gate, edits that keep it passing, edits just past its threshold)`;
    /// an edit is `(record or "baseline", field, JSON)`.
    type Case = (
        &'static str,
        &'static [(&'static str, &'static str, &'static str)],
        &'static [(&'static str, &'static str, &'static str)],
    );

    const CASES: &[Case] = &[
        ("sweep goal", &[("sweep", "goal", r#""exhaustive""#)], &[("sweep", "goal", r#""best""#)]),
        ("sweep grid", &[("sweep", "grid", r#""smoke""#)], &[("sweep", "grid", r#""full""#)]),
        // 400 × (1 − 25 %) = 300.
        (
            "sweep points/s",
            &[("sweep", "points_per_sec", "300.0")],
            &[("sweep", "points_per_sec", "299.9")],
        ),
        // Exact: no slack above the baseline's 500.
        (
            "sweep walked copies",
            &[("sweep", "periods_walked", "500")],
            &[("sweep", "periods_walked", "501")],
        ),
        // 1e7 × (1 − 30 %) = 7e6.
        (
            "replay tasks/s",
            &[("sim", "tasks_per_sec", "7000001")],
            &[("sim", "tasks_per_sec", "6999999")],
        ),
        // 100 × (1 − 50 %) = 50.
        (
            "serve req/s",
            &[("serve", "requests_per_sec", "50.01")],
            &[("serve", "requests_per_sec", "49.99")],
        ),
        (
            "serve degraded req/s",
            &[("serve", "degraded_requests_per_sec", "100.01")],
            &[("serve", "degraded_requests_per_sec", "99.99")],
        ),
        // 1e6 × (1 − 40 %) = 6e5.
        (
            "flow kernel events/s",
            &[("flow", "flow_events_per_sec", "600001")],
            &[("flow", "flow_events_per_sec", "599999")],
        ),
        // Drift within 1e-6 of 1e6 ns is at most 1 ns.
        (
            "flow closed-form ns",
            &[("flow", "overlap_closed_form_ns", "1000001")],
            &[("flow", "overlap_closed_form_ns", "1000002")],
        ),
        (
            "flow fair-sharing ns",
            &[("flow", "overlap_fair_sharing_ns", "2000002")],
            &[("flow", "overlap_fair_sharing_ns", "2000003")],
        ),
        // Exact: no slack above the baseline's 100.
        (
            "flow overlap refills",
            &[("flow", "overlap_refills", "100")],
            &[("flow", "overlap_refills", "101")],
        ),
        (
            "collective costs ns",
            &[(
                "collectives",
                "collectives",
                r#"[{"label": "a", "total_ns": 999999}, {"label": "b", "total_ns": 2000}]"#,
            )],
            &[(
                "collectives",
                "collectives",
                r#"[{"label": "a", "total_ns": 999998}, {"label": "b", "total_ns": 2000}]"#,
            )],
        ),
        // 1000 × (1 − 8 %) = 920.
        (
            "obs-on points/s",
            &[("sweep", "points_per_sec_obs_on", "920.1")],
            &[("sweep", "points_per_sec_obs_on", "919.9")],
        ),
        // 100 × 2 threads × 0.6 = 120.
        (
            "parallel points/s",
            &[("sweep", "points_per_sec_mt", "120.1")],
            &[("sweep", "points_per_sec_mt", "119.9")],
        ),
        (
            "delta equivalence",
            &[("sweep", "delta_equivalent", "true")],
            &[("sweep", "delta_equivalent", "false")],
        ),
        (
            "serve warm hit-rate",
            &[("serve", "cache_hit_rate", "0.96")],
            &[("serve", "cache_hit_rate", "0.9599")],
        ),
        (
            "snapshot warm hit-rate",
            &[("serve", "snapshot_warm_hit_rate", "0.9")],
            &[("serve", "snapshot_warm_hit_rate", "0.8999")],
        ),
        (
            "flow single-flow ppm",
            &[("flow", "single_flow_ppm", "1.0")],
            &[("flow", "single_flow_ppm", "1.001")],
        ),
        // Move the closed-form golden along so only the ordering moves.
        (
            "flow fair > closed",
            &[
                ("flow", "overlap_closed_form_ns", "1999999"),
                ("baseline", "flow_overlap_closed_form_ns", "1999999"),
            ],
            &[
                ("flow", "overlap_closed_form_ns", "2000000"),
                ("baseline", "flow_overlap_closed_form_ns", "2000000"),
            ],
        ),
    ];

    fn edited(edits: &[(&str, &str, &str)]) -> (Records, Value) {
        let (mut records, mut base) = (fixture(), baseline());
        for &(target, field, to) in edits {
            let v = if target == "baseline" { &mut base } else { record(&mut records, target) };
            set(v, field, Some(to));
        }
        (records, base)
    }

    #[test]
    fn every_gate_passes_inside_and_fails_just_past_its_threshold() {
        assert_eq!(CASES.len(), GATES.len());
        for &(name, inside, past) in CASES {
            let (records, base) = edited(inside);
            assert_eq!(failing(&records, &base), Vec::<&str>::new(), "{name} inside");
            let (records, base) = edited(past);
            assert_eq!(failing(&records, &base), vec![name], "{name} past");
        }
    }

    #[test]
    fn golden_labels_must_match_on_both_sides() {
        let extra = r#"[{"label": "a", "total_ns": 1000000}, {"label": "b", "total_ns": 2000},
                        {"label": "c", "total_ns": 1}]"#;
        let dropped = r#"[{"label": "a", "total_ns": 1000000}]"#;
        for collectives in [extra, dropped] {
            let (records, base) = edited(&[("collectives", "collectives", collectives)]);
            assert_eq!(failing(&records, &base), vec!["collective costs ns"]);
        }
    }

    #[test]
    fn a_failed_tag_gate_stops_the_run() {
        let (records, base) =
            edited(&[("sweep", "grid", r#""full""#), ("sim", "tasks_per_sec", "1")]);
        let verdicts = run(false, &records, &base);
        assert_eq!(verdicts.len(), 2);
        assert_eq!(failing(&records, &base), vec!["sweep grid"]);
    }

    fn is_skip(v: &Verdict) -> bool {
        matches!(v, Verdict::Skip(_))
    }

    fn is_fail(v: &Verdict) -> bool {
        matches!(v, Verdict::Fail(_))
    }

    /// The record fields a gate reads beside its own path.
    fn twins(check: Check) -> Vec<&'static str> {
        match check {
            Check::Twin(twin, _) | Check::Above(twin) => vec![twin],
            Check::Scaling(one, threads, _) => vec![one, threads],
            _ => Vec::new(),
        }
    }

    #[test]
    fn missing_inputs_skip_optional_gates_and_fail_required_ones() {
        for g in GATES {
            let optional = RECORDS.iter().any(|&(r, optional)| r == g.record && optional);
            let mut records = fixture();
            records.insert(g.record, need(None, format!("BENCH_{}.json", g.record), !optional));
            let v = verdict_of(g.name, &records, &baseline());
            assert!(
                if optional { is_skip(&v) } else { is_fail(&v) },
                "{} without its record: {v:?}",
                g.name
            );

            for field in [g.path].into_iter().chain(twins(g.check)) {
                let mut records = fixture();
                set(record(&mut records, g.record), field, None);
                let v = verdict_of(g.name, &records, &baseline());
                let expect_fail = g.need != Need::Optional;
                assert!(
                    if expect_fail { is_fail(&v) } else { is_skip(&v) },
                    "{} without {field}: {v:?}",
                    g.name
                );
            }

            let base_field = match g.check {
                Check::Same(name)
                | Check::Floor(name, ..)
                | Check::Ceil(name)
                | Check::Golden(name, _) => Some(name),
                _ => None,
            };
            if let Some(field) = base_field {
                let mut base = baseline();
                set(&mut base, field, None);
                let v = verdict_of(g.name, &fixture(), &base);
                let expect_fail = g.need == Need::Both;
                assert!(
                    if expect_fail { is_fail(&v) } else { is_skip(&v) },
                    "{} without baseline {field}: {v:?}",
                    g.name
                );
            }
        }
    }

    #[test]
    fn thresholds_default_unless_every_input_is_required() {
        for (name, _) in THRESHOLDS {
            let mut base = baseline();
            set(&mut base, name, None);
            let failed = failing(&fixture(), &base);
            let required =
                matches!(name, "max_throughput_regression_pct" | "collective_tolerance_rel");
            assert_eq!(!failed.is_empty(), required, "baseline without {name}: {failed:?}");
        }
    }

    #[test]
    fn the_required_rows_are_the_ones_the_gate_always_needed() {
        let required: Vec<&str> =
            GATES.iter().filter(|g| g.need != Need::Optional).map(|g| g.name).collect();
        assert_eq!(
            required,
            [
                "sweep grid",
                "sweep points/s",
                "sweep walked copies",
                "replay tasks/s",
                "serve req/s",
                "flow kernel events/s",
                "flow closed-form ns",
                "flow fair-sharing ns",
                "flow overlap refills",
                "collective costs ns",
                "serve warm hit-rate",
                "flow single-flow ppm",
                "flow fair > closed",
            ]
        );
    }

    #[test]
    fn an_unparsable_record_fails_its_gates() {
        let mut records = fixture();
        records.insert("serve", Err(Verdict::Fail("cannot parse BENCH_serve.json".into())));
        let failed = failing(&records, &baseline());
        let serve_gates: Vec<&str> =
            GATES.iter().filter(|g| g.record == "serve").map(|g| g.name).collect();
        assert_eq!(failed, serve_gates);
        assert_eq!(
            baseline_text(&records, &baseline()),
            Err("cannot parse BENCH_serve.json".into())
        );
    }

    #[test]
    fn a_written_baseline_matches_the_fixture_and_passes_its_records() {
        let text = baseline_text(&fixture(), &baseline()).expect("a baseline");
        assert_eq!(text, BASELINE);
        let fresh = baseline_text(&fixture(), &Value::Object(Vec::new())).expect("a baseline");
        assert!(fresh.starts_with("{\n  \"max_throughput_regression_pct\": 25,\n"));
        assert!(fresh.contains("\"max_obs_on_regression_pct\": 5,\n"));
        assert!(fresh.contains("\"collective_tolerance_rel\": 1e-6,\n"));
        assert!(fresh.contains("\"max_serve_regression_pct\": 30,\n"));
        assert_eq!(failing(&fixture(), &json(&fresh)), Vec::<&str>::new());
    }

    #[test]
    fn a_written_baseline_carries_thresholds_and_absent_records_forward() {
        let mut records = fixture();
        set(record(&mut records, "sweep"), "points_per_sec", Some("800.24"));
        for optional in ["serve", "flow"] {
            records.insert(optional, need(None, String::new(), false));
        }
        let mut old = baseline();
        set(&mut old, "min_parallel_efficiency", Some("0.55"));
        let text = baseline_text(&records, &old).expect("a baseline");
        assert_eq!(text, BASELINE.replace("400.0", "800.2").replace("0.6,", "0.55,"));

        let mut none = old.clone();
        for field in ["serve_requests_per_sec", "flow_overlap_fair_sharing_ns"] {
            set(&mut none, field, None);
        }
        let text = baseline_text(&records, &none).expect("a baseline");
        assert!(!text.contains("serve_requests_per_sec") && !text.contains("flow_overlap_fair"));
        assert!(text.contains("\"serve_degraded_requests_per_sec\": 200.0,"));
    }

    #[test]
    fn a_baseline_is_only_written_from_complete_exhaustive_records() {
        let (records, base) = edited(&[("sweep", "goal", r#""best""#)]);
        let verdicts = run(true, &records, &base);
        assert_eq!(verdicts.len(), 1);
        assert!(is_fail(&verdicts[0].1));
        let mut records = fixture();
        records.insert("sim", need(None, "BENCH_sim.json".into(), true));
        assert!(baseline_text(&records, &baseline()).is_err());
        let mut records = fixture();
        set(record(&mut records, "sweep"), "points_per_sec", None);
        assert!(baseline_text(&records, &baseline()).is_err());
    }
}
