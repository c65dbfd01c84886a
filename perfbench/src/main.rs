//! vTrain benchmark: four seeded workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_mtnlg --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones and writes the spans to `perfbench/out/`. `--bless` prints the
//! golden table (`perfbench/golden.txt`) computed by this build.

mod layers;
mod predict;
mod serve;
mod sweep;
mod util;

use std::process::ExitCode;

use util::{median, quantile, Golden, Tracer};

/// One reported figure: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Fresh set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// What every workload is run with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Host cores: sweep threads, daemon workers and load clients.
    pub nproc: usize,
    pub golden: Golden,
}

/// The measured window of closed-loop operations.
#[derive(Default)]
pub struct Window {
    /// Latency of each operation timed with tracing off.
    pub lat_ns: Vec<f64>,
    /// Latency of each operation timed with tracing on (traced runs
    /// alternate the two).
    pub traced_lat_ns: Vec<f64>,
    pub wall_s: f64,
    /// Design points priced in the window.
    pub points: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Window {
    /// Counts one checked operation.
    pub fn record(&mut self, ns: f64, traced: bool, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        if traced {
            self.traced_lat_ns.push(ns);
        } else {
            self.lat_ns.push(ns);
        }
    }
}

/// A workload's result: set-up times, the window, and (traced runs
/// only) the per-layer metrics.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    /// Set-up operations whose outputs were checked, and how many failed.
    pub setup_checked: (u64, u64),
    pub window: Window,
    pub layers: Vec<Metric>,
}

const WORKLOADS: [&str; 4] = ["sweep_mtnlg", "sweep_fairshare", "predict_long", "serve_mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, bless: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.bless && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let w = &out.window;
    let mut lat = w.lat_ns.clone();
    let ops = w.lat_ns.len() as f64;
    vec![
        ("setup_s", median(&out.setup_s), "s"),
        ("request_us_p50", quantile(&mut lat, 0.5) / 1e3, "us"),
        ("request_us_p90", quantile(&mut lat, 0.9) / 1e3, "us"),
        ("requests_per_s", ops / w.wall_s, "1/s"),
        ("points_per_s", w.points as f64 / w.wall_s, "points/s"),
        ("peak_rss_mb", util::peak_rss_mib(), "MiB"),
    ]
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> | --bless",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.bless {
        for line in sweep::golden_lines()
            .into_iter()
            .chain(predict::golden_lines())
            .chain(serve::golden_lines())
        {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, usize::from),
        golden: Golden::load(),
    };
    let mut tracer = Tracer::new(false);
    let out = match args.workload.as_str() {
        "sweep_mtnlg" => sweep::run(&ctx, &sweep::MTNLG, &mut tracer),
        "sweep_fairshare" => sweep::run(&ctx, &sweep::FAIRSHARE, &mut tracer),
        "predict_long" => predict::run(&ctx, &mut tracer),
        _ => serve::run(&ctx, &mut tracer),
    };
    let w = &out.window;
    let attempted = w.attempted + out.setup_checked.0;
    let failed = w.failed + out.setup_checked.1;
    let metrics = if ctx.trace {
        let overhead = (median(&w.traced_lat_ns) / median(&w.lat_ns) - 1.0) * 100.0;
        let mut m = out.layers.clone();
        m.push(("trace.overhead_pct", overhead, "%"));
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| tracer.write_chrome_trace(&path))
        {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        m
    } else {
        end_to_end(&out)
    };
    eprintln!(
        "perfbench {} seed {} on {} cores: {} ops checked, error_rate {} ({failed}/{attempted})",
        args.workload,
        args.seed,
        ctx.nproc,
        attempted,
        failed as f64 / attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
    println!("{}", json_line(failed == 0 && attempted > 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
