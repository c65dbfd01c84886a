//! The `vtrain` command-line front-end: drive prediction, design-space
//! sweeps, validation, and the serve daemon from a single scenario file
//! (paper Fig. 4, step ①) — no Rust code required.
//!
//! ```sh
//! vtrain predict  examples/descriptions/megatron_18b.json --timeline trace.json
//! vtrain sweep    examples/descriptions/megatron_1_7b_sweep.json --metrics metrics.json
//! vtrain sweep    examples/descriptions/megatron_1_7b_sweep.json --json
//! vtrain explain  examples/descriptions/megatron_18b.json
//! vtrain validate examples/descriptions/megatron_18b.json
//! vtrain serve    127.0.0.1:7071 --workers 4 --cache-capacity 4096
//! ```
//!
//! `--json` swaps the human report for one [`vtrain::api::Response`]
//! line — byte-identical to what `vtrain serve` would answer for the
//! same scenario — and maps the failure classification onto the exit
//! codes below.
//!
//! Exit codes (one table for every command, `vtrain::api::ErrorCode`):
//! `0` success; `1` internal/I-O failure; `2` usage error or invalid
//! scenario; `3` server busy (admission rejected); `4` deadline or
//! point budget exceeded. A reader that closes stdout early
//! (`vtrain sweep ... | head -1`) ends the report quietly with `0`.

use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

use vtrain::api::{self, Budget, ErrorBody, ErrorCode, Request, RequestKind, Response};
use vtrain::prelude::*;
use vtrain::serve::{Server, ServerConfig};

const USAGE: &str = "usage: vtrain <command> <scenario.json> [options]
       vtrain serve <addr:port> [serve options]

commands:
  predict    simulate the scenario's plan: iteration time, utilization,
             busy breakdown, and (with `tokens`) the end-to-end projection
  sweep      explore the (t, d, p, m) design space the scenario bounds,
             honoring its goal and placement axis; given a directory,
             sweep every *.json scenario in it (sorted, one shared
             profile cache)
  explain    attribute where simulated (plan) or simulation (sweep) time
             goes: per-stage/per-stream tables
  validate   parse and resolve every section, reporting the first problem
  serve      run the sweep-as-a-service daemon: newline-delimited JSON
             request/response frames (the same `--json` envelope) over
             TCP, concurrent requests sharing one profile cache

options:
  -h, --help              print this help and exit 0 (in any position)
  --json                  (predict|sweep|validate) print one wire-API
                          response line instead of the human report —
                          byte-identical to the serve daemon's response
                          for the same scenario
  --deadline-ms <n>       (sweep; any command with --json) fail with the
                          deadline exit code if the run exceeds n ms
  --max-points <n>        (sweep; any command with --json) fail with the
                          deadline exit code beyond n evaluated points
  --network <backend>     (predict|sweep|explain) override the scenario's
                          communication pricing backend: `closed-form`
                          (each collective at full tier bandwidth, the
                          default) or `fair-sharing` (concurrent transfers
                          contend for links max-min fairly)
  --timeline <out.json>   (predict) export the predicted iteration as a
                          Chrome trace-event timeline (chrome://tracing,
                          Perfetto)
  --metrics <out.json>    (sweep) enable the metrics registry and write
                          its snapshot after the sweep
  --stage-profile         (sweep) attribute sweep CPU time across the
                          validate/bound/lower/simulate/summarize stages

serve options:
  --workers <n>           worker threads executing requests (default 2)
  --queue-depth <n>       max requests waiting for a worker before
                          admission rejects with the busy error (default 32)
  --threads <n>           sweep threads per request (default: all cores)
  --cache-capacity <n>    bound the shared profile cache to n entries,
                          evicting least-recently-used (default unbounded)
  --max-frame-bytes <n>   reject request frames longer than n bytes with
                          the bad-request error, keeping the connection
                          (default 4194304)
  --degrade bound-only    once the queue passes its high-water mark,
                          answer sweeps from the busy-time lower bound
                          (flagged `degraded` in the report) instead of
                          shedding them with the busy error
  --degrade-high-water <n>  queue length that triggers degraded mode
                          (default queue-depth/2; 0 degrades every sweep)
  --snapshot <path>       persist the profile cache to <path> (tmp-file +
                          atomic rename) and warm-restore it at startup;
                          a corrupt or truncated file is a logged cold
                          start, never a crash
  --snapshot-every <n>    snapshot after every n completed requests
                          (default 32; a snapshot is also written at
                          shutdown drain)
  --fault-plan <file>     inject deterministic faults from a JSON plan
                          (testing: seeded drops/delays/corruption of
                          response frames, scripted worker panics)

exit codes:
  0  success
  1  internal or I/O failure
  2  usage error or invalid scenario (malformed JSON reports line/field
     context)
  3  server busy: the admission queue was full or the daemon is draining
  4  deadline or point budget exceeded

see examples/descriptions/ for the scenario schema";

/// Command-line options after the `<command> <scenario.json>` positionals.
#[derive(Default)]
struct Opts {
    network: Option<String>,
    timeline: Option<String>,
    metrics: Option<String>,
    stage_profile: bool,
    json: bool,
    deadline_ms: Option<u64>,
    max_points: Option<u64>,
}

impl Opts {
    /// Parses trailing options; `Err` carries the usage complaint.
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut opts = Opts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--network" => match it.next() {
                    Some(backend) => opts.network = Some(backend.clone()),
                    None => {
                        return Err("--network needs a backend (closed-form|fair-sharing)".into());
                    }
                },
                "--timeline" => match it.next() {
                    Some(path) => opts.timeline = Some(path.clone()),
                    None => return Err("--timeline needs an output path".into()),
                },
                "--metrics" => match it.next() {
                    Some(path) => opts.metrics = Some(path.clone()),
                    None => return Err("--metrics needs an output path".into()),
                },
                "--stage-profile" => opts.stage_profile = true,
                "--json" => opts.json = true,
                "--deadline-ms" => opts.deadline_ms = Some(parse_number(it.next(), arg)?),
                "--max-points" => opts.max_points = Some(parse_number(it.next(), arg)?),
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The budget the options describe, if any.
    fn budget(&self) -> Option<Budget> {
        let budget = Budget { deadline_ms: self.deadline_ms, max_points: self.max_points };
        (!budget.is_empty()).then_some(budget)
    }

    /// The complaint about the first option `command` does not take:
    /// `--timeline` belongs to `predict`, and `--metrics` and
    /// `--stage-profile` to `sweep`, in both cases without `--json`; the
    /// budget flags to `sweep` or any command with `--json`.
    fn misplaced(&self, command: &str) -> Option<&'static str> {
        let human = |c: &str| !self.json && command == c;
        if self.timeline.is_some() && !human("predict") {
            return Some("--timeline applies to `predict` (without --json)");
        }
        if (self.metrics.is_some() || self.stage_profile) && !human("sweep") {
            return Some("--metrics/--stage-profile apply to `sweep` (without --json)");
        }
        if self.budget().is_some() && !self.json && command != "sweep" {
            return Some(
                "--deadline-ms/--max-points apply to `sweep` (or any command with --json)",
            );
        }
        None
    }
}

/// Parses a numeric option value; `Err` carries the usage complaint.
fn parse_number(value: Option<&String>, flag: &str) -> Result<u64, String> {
    value
        .ok_or_else(|| format!("{flag} needs a number"))?
        .parse()
        .map_err(|_| format!("{flag} needs a number"))
}

/// The one place an [`Error`] becomes a process exit code — the same
/// classification table the wire API's error bodies carry.
fn exit_for(e: &Error) -> ExitCode {
    ExitCode::from(ErrorCode::classify(e).exit_code())
}

/// Why a command stopped early: the run failed, or stdout refused a
/// report line.
enum Failure {
    Run(Error),
    Write(io::Error),
}

impl From<Error> for Failure {
    fn from(e: Error) -> Self {
        Failure::Run(e)
    }
}

impl From<vtrain::sim::EstimateError> for Failure {
    fn from(e: vtrain::sim::EstimateError) -> Self {
        Failure::Run(e.into())
    }
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Write(e)
    }
}

/// Reports a command's failure on stderr and maps it to its exit code.
/// A reader that closed the pipe early (`vtrain ... | head -1`) took
/// all it wanted, so that ends the output quietly with exit 0.
fn finish(result: Result<(), Failure>, path: &str) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Write(e)) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Failure::Write(e)) => {
            eprintln!("error: cannot write to stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(e)) => {
            eprintln!("error: {path}: {e}");
            exit_for(&e)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut io::stdout();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        return finish(writeln!(out, "{USAGE}").map_err(Failure::from), "");
    }
    let (command, path, rest) = match args.as_slice() {
        [command, path, rest @ ..] => (command.as_str(), path.as_str(), rest),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if command == "serve" {
        return match serve_cmd(path, rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                exit_for(&e)
            }
        };
    }
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(complaint) => {
            eprintln!("error: {complaint}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(complaint) = opts.misplaced(command) {
        eprintln!("error: {complaint}\n\n{USAGE}");
        return ExitCode::from(2);
    }
    if opts.json {
        return json_mode(command, path, &opts, out);
    }
    if std::fs::metadata(path).is_ok_and(|m| m.is_dir()) {
        if command != "sweep" {
            eprintln!("error: {path} is a directory (only `sweep` accepts one)\n\n{USAGE}");
            return ExitCode::from(2);
        }
        return finish(sweep_batch(path, &opts, out), path);
    }
    let scenario = match load_scenario(path) {
        Ok(mut s) => {
            apply_network_override(&mut s, &opts);
            s
        }
        Err(e) => return finish(Err(e.into()), path),
    };
    let result = match command {
        "predict" => predict(&scenario, &opts, out),
        "sweep" => sweep(&scenario, &opts, out),
        "explain" => explain(&scenario, out),
        "validate" => validate(&scenario, out),
        other => {
            eprintln!("error: unknown command `{other}`\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    finish(result, path)
}

/// Reads and parses one scenario file, both failure modes in the
/// [`Error`] domain so they classify onto the exit-code table.
fn load_scenario(path: &str) -> Result<Scenario, Error> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Error::io(format!("cannot read {path}: {e}")))?;
    Scenario::from_json(&text)
}

/// `--network` replaces the scenario's own `network` section (the CLI
/// wins); the name is validated downstream by `Scenario::check`, so a
/// typo classifies as an invalid scenario (exit code 2).
fn apply_network_override(scenario: &mut Scenario, opts: &Opts) {
    if let Some(backend) = &opts.network {
        scenario.network = Some(NetworkSection { backend: backend.clone() });
    }
}

/// `--json`: execute through the wire API and print the one response
/// line the serve daemon would send — same bytes, same classification.
fn json_mode(command: &str, path: &str, opts: &Opts, out: &mut impl Write) -> ExitCode {
    let kind = match command {
        "predict" => RequestKind::Predict,
        "sweep" => RequestKind::Sweep,
        "validate" => RequestKind::Validate,
        other => {
            eprintln!("error: `{other}` has no --json mode (predict|sweep|validate)\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let response = match load_scenario(path) {
        Ok(mut scenario) => {
            apply_network_override(&mut scenario, opts);
            let mut request = Request::new("cli", kind, scenario);
            request.budget = opts.budget();
            api::execute(&request, &Arc::new(ProfileCache::new()), None)
        }
        Err(e) => Response::err("cli", ErrorBody::from_error(&e)),
    };
    if let Err(e) = writeln!(out, "{}", response.to_json()) {
        return finish(Err(e.into()), path);
    }
    match &response.outcome {
        vtrain::api::Outcome::Ok(_) => ExitCode::SUCCESS,
        vtrain::api::Outcome::Err(body) => ExitCode::from(body.code.exit_code()),
    }
}

/// `vtrain serve <addr>`: bind, announce, and run until a shutdown
/// frame drains the daemon.
fn serve_cmd(addr: &str, rest: &[String]) -> Result<(), Error> {
    let mut config = ServerConfig { addr: addr.to_owned(), ..ServerConfig::default() };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let number = |v: Option<&String>| parse_number(v, arg).map_err(Error::scenario);
        match arg.as_str() {
            "--workers" => config.workers = number(it.next())?.max(1) as usize,
            "--queue-depth" => config.queue_depth = number(it.next())? as usize,
            "--threads" => config.threads = Some(number(it.next())?.clamp(1, 512) as usize),
            "--cache-capacity" => config.cache_capacity = Some(number(it.next())?.max(1) as usize),
            "--max-frame-bytes" => {
                config.max_frame_bytes = number(it.next())?.max(64) as usize;
            }
            "--degrade" => match it.next().map(String::as_str) {
                Some("bound-only") => config.degrade = Some(DegradeMode::BoundOnly),
                Some(other) => {
                    return Err(Error::scenario(format!(
                        "unknown degrade mode `{other}` (expected `bound-only`)"
                    )));
                }
                None => return Err(Error::scenario("--degrade needs a mode (`bound-only`)")),
            },
            "--degrade-high-water" => {
                config.degrade_high_water = Some(number(it.next())? as usize);
            }
            "--snapshot" => match it.next() {
                Some(path) => config.snapshot = Some(std::path::PathBuf::from(path)),
                None => return Err(Error::scenario("--snapshot needs a file path")),
            },
            "--snapshot-every" => config.snapshot_every = number(it.next())?.max(1),
            "--fault-plan" => match it.next() {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| Error::io(format!("cannot read fault plan {path}: {e}")))?;
                    config.fault_plan = Some(FaultPlan::from_json(&text)?);
                }
                None => return Err(Error::scenario("--fault-plan needs a JSON file path")),
            },
            other => return Err(Error::scenario(format!("unknown serve option `{other}`"))),
        }
    }
    let server = Server::bind(config)?;
    eprintln!("vtrain serve: listening on {}", server.local_addr());
    server.run()
}

/// Writes `contents` to `path`, mapping I/O failures into the scenario
/// error domain.
fn write_file(path: &str, contents: &str) -> Result<(), Error> {
    std::fs::write(path, contents).map_err(|e| Error::io(format!("cannot write {path}: {e}")))
}

/// Prints the end-to-end projection if the scenario carries a token
/// budget; `indent` matches the caller's block structure.
fn print_projection(
    scenario: &Scenario,
    cost: &CostModel,
    estimate: &IterationEstimate,
    indent: &str,
    out: &mut impl Write,
) -> io::Result<()> {
    if let Some(tokens) = scenario.tokens {
        let projection = TrainingProjection::project(
            estimate.iteration_time,
            estimate.tokens_per_iteration,
            tokens,
            estimate.num_gpus,
            cost,
        );
        writeln!(out, "{indent}iterations:      {}", projection.iterations)?;
        writeln!(out, "{indent}training time:   {:.2} days", projection.days())?;
        writeln!(out, "{indent}training cost:   ${:.2}M", projection.total_dollars / 1e6)?;
    }
    Ok(())
}

fn predict(scenario: &Scenario, opts: &Opts, out: &mut impl Write) -> Result<(), Failure> {
    // Full cross-section validation: anything `validate` rejects must
    // not run (e.g. a noise section that would be silently ignored).
    scenario.check()?;
    let model = scenario.model()?;
    let plan = scenario.plan()?;
    let cost = scenario.cost_model()?;
    let estimator = scenario.estimator()?;
    let estimate = estimator.estimate(&model, &plan)?;

    if let Some(path) = &opts.timeline {
        let timeline = estimator.timeline(&model, &plan)?;
        assert_eq!(
            timeline.recorder.max_end_ns(),
            estimate.iteration_time.as_nanos(),
            "timeline must end exactly at the predicted iteration time"
        );
        write_file(path, &timeline.recorder.to_chrome_trace())?;
        writeln!(
            out,
            "timeline:        {} spans over {} tracks -> {path}",
            timeline.recorder.len(),
            timeline.report.device_busy.len()
        )?;
    }

    writeln!(out, "model:           {model}")?;
    writeln!(out, "plan:            {plan}")?;
    writeln!(out, "GPUs:            {}", estimate.num_gpus)?;
    writeln!(out, "iteration time:  {}", estimate.iteration_time)?;
    writeln!(out, "utilization:     {:.1}%", estimate.utilization * 100.0)?;
    writeln!(
        out,
        "busy breakdown:  compute {} | TP {} | DP {} | PP {}",
        estimate.busy.compute, estimate.busy.tp_comm, estimate.busy.dp_comm, estimate.busy.pp_comm
    )?;
    if scenario.noise.is_some() {
        let measured = estimator.measure(&model, &plan)?;
        writeln!(
            out,
            "measured:        {} (noise-emulated ground truth)",
            measured.iteration_time
        )?;
    }
    print_projection(scenario, &cost, &estimate, "", out)?;
    Ok(())
}

fn sweep(scenario: &Scenario, opts: &Opts, out: &mut impl Write) -> Result<(), Failure> {
    // A shared cache handle so its traffic can be published after the
    // run; `--metrics` turns the (otherwise free) registry on.
    let cache = std::sync::Arc::new(ProfileCache::new());
    if opts.metrics.is_some() {
        vtrain::obs::set_enabled(true);
    }
    sweep_one(scenario, opts, &cache, out)?;
    dump_sweep_metrics(opts, &cache, out)
}

/// `sweep` over a directory: every `*.json` scenario in it, in sorted
/// (deterministic) order, all sharing one profile cache — compute
/// profiles depend on the operator signature and the GPU, not the
/// scenario, so later scenarios start from the hits of earlier ones.
fn sweep_batch(dir: &str, opts: &Opts, out: &mut impl Write) -> Result<(), Failure> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| Error::io(format!("cannot read directory {dir}: {e}")))?;
    let mut files: Vec<std::path::PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(Error::scenario(format!("no *.json scenarios in {dir}")).into());
    }
    let cache = std::sync::Arc::new(ProfileCache::new());
    if opts.metrics.is_some() {
        vtrain::obs::set_enabled(true);
    }
    writeln!(out, "batch sweep: {} scenarios, one shared profile cache", files.len())?;
    for (i, file) in files.iter().enumerate() {
        let path = file.display();
        let text = std::fs::read_to_string(file)
            .map_err(|e| Error::io(format!("cannot read {path}: {e}")))?;
        let mut scenario =
            Scenario::from_json(&text).map_err(|e| Error::scenario(format!("{path}: {e}")))?;
        apply_network_override(&mut scenario, opts);
        writeln!(out, "\n[{}/{}] {path}", i + 1, files.len())?;
        sweep_one(&scenario, opts, &cache, out).map_err(|failure| match failure {
            Failure::Run(e) => Failure::Run(Error::scenario(format!("{path}: {e}"))),
            write => write,
        })?;
    }
    dump_sweep_metrics(opts, &cache, out)
}

/// Writes the metrics-registry snapshot after a sweep (or a batch of
/// them) when `--metrics` asked for one.
fn dump_sweep_metrics(
    opts: &Opts,
    cache: &ProfileCache,
    out: &mut impl Write,
) -> Result<(), Failure> {
    if let Some(path) = &opts.metrics {
        cache.publish_metrics();
        write_file(path, &vtrain::obs::global().to_json())?;
        writeln!(out, "metrics: registry snapshot -> {path}")?;
    }
    Ok(())
}

/// Runs one scenario's sweep against a caller-owned profile cache and
/// prints its report.
fn sweep_one(
    scenario: &Scenario,
    opts: &Opts,
    cache: &std::sync::Arc<ProfileCache>,
    out: &mut impl Write,
) -> Result<(), Failure> {
    scenario.check()?;
    let goal = scenario.goal()?;
    let cost = scenario.cost_model()?;
    let mut builder = scenario.sweep()?.cache(std::sync::Arc::clone(cache));
    if opts.stage_profile {
        builder = builder.stage_profile(true);
    }
    // A blown limit fails the command (exit code 4), exactly like the
    // wire API: a truncated winner set is not the answer asked for.
    let budget = opts.budget().unwrap_or_default();
    let run = api::run_within_budget(builder, &budget, budget.deadline_from_now())?;
    for variant in run.variants() {
        let outcome = &variant.outcome;
        let stats = outcome.stats;
        writeln!(out, "{}:", variant_heading(variant, goal))?;
        writeln!(
            out,
            "  {} candidates -> {} points ({} infeasible, {} bound-pruned) in {:.2}s \
             ({:.0} points/s, cache hit-rate {:.1}%)",
            stats.candidates,
            outcome.points.len(),
            stats.pruned,
            stats.bound_pruned,
            stats.wall_s,
            stats.points_per_sec(),
            stats.cache_hit_rate() * 100.0
        )?;
        if let Some(profile) = &outcome.stage_profile {
            print_stage_profile(profile, "  ", out)?;
        }
        for point in outcome.points.iter().take(10) {
            writeln!(
                out,
                "  {:>24}  {:>6} GPUs  {:>12}  util {:>5.1}%",
                point.plan.to_string(),
                point.estimate.num_gpus,
                point.estimate.iteration_time.to_string(),
                point.estimate.utilization * 100.0
            )?;
        }
        if outcome.points.len() > 10 {
            writeln!(out, "  ... and {} more points", outcome.points.len() - 10)?;
        }
        if let Some(best) = outcome.points.iter().min_by_key(|p| p.estimate.iteration_time) {
            writeln!(
                out,
                "  fastest: {} -> {} on {} GPUs",
                best.plan, best.estimate.iteration_time, best.estimate.num_gpus
            )?;
            print_projection(scenario, &cost, &best.estimate, "  ", out)?;
        }
    }
    Ok(())
}

/// How the sweep reports name a placement variant: `placement <label>`,
/// or `sweep` for a sweep without a placement axis, and the goal.
fn variant_heading(variant: &PlacementSweep, goal: SweepGoal) -> String {
    if variant.label.is_empty() {
        format!("sweep (goal {goal:?})")
    } else {
        format!("placement {} (goal {goal:?})", variant.label)
    }
}

/// Prints a sweep's per-stage CPU-time attribution table.
fn print_stage_profile(
    profile: &StageProfile,
    indent: &str,
    out: &mut impl Write,
) -> io::Result<()> {
    let budget = (profile.wall_ns as f64 * profile.threads.max(1) as f64).max(1.0);
    let pct = |ns: u64| ns as f64 / budget * 100.0;
    writeln!(
        out,
        "{indent}stage attribution ({} thread{}, {:.3} ms wall):",
        profile.threads,
        if profile.threads == 1 { "" } else { "s" },
        profile.wall_ns as f64 / 1e6
    )?;
    for (name, ns) in [
        ("order", profile.order_ns),
        ("validate", profile.stages.validate_ns),
        ("bound", profile.bound_ns),
        ("lower", profile.stages.lower_ns),
        ("simulate", profile.stages.simulate_ns),
        ("summarize", profile.stages.summarize_ns),
    ] {
        writeln!(out, "{indent}{name:<12} {:>12.3} ms  {:>5.1}%", ns as f64 / 1e6, pct(ns))?;
    }
    writeln!(
        out,
        "{indent}{:<12} {:>12.3} ms  {:>5.1}%  (scheduling + merge overhead: {:.1}%)",
        "attributed",
        profile.attributed_ns() as f64 / 1e6,
        profile.attributed_fraction() * 100.0,
        (1.0 - profile.attributed_fraction()) * 100.0
    )
}

/// `explain`: where does the time go?
///
/// * For a scenario with a concrete plan: a per-pipeline-stage /
///   per-stream busy table of the predicted iteration, derived from the
///   same traced replay `predict --timeline` exports.
/// * For a scenario with a sweep section: a stage-profiled
///   single-threaded sweep, with one CPU-time attribution table per
///   placement variant that accounts for (nearly all of) its wall clock.
fn explain(scenario: &Scenario, out: &mut impl Write) -> Result<(), Failure> {
    scenario.check()?;
    let model = scenario.model()?;
    if scenario.parallelism.is_some() {
        let plan = scenario.plan()?;
        let estimator = scenario.estimator()?;
        let timeline = estimator.timeline(&model, &plan)?;
        let iteration_ns = timeline.report.iteration_time.as_nanos();
        writeln!(out, "model:           {model}")?;
        writeln!(out, "plan:            {plan}")?;
        writeln!(out, "iteration time:  {}", timeline.report.iteration_time)?;
        writeln!(out, "per-stage stream attribution (% of iteration):")?;
        writeln!(out, "  {:<10} {:>14} {:>7}   {:>14} {:>7}", "stage", "compute", "", "comm", "")?;
        let busy = timeline.recorder.busy_per_stream();
        let lookup = |pid: u64, tid: u64| {
            busy.iter().find(|((p, t), _)| *p == pid && *t == tid).map_or(0, |(_, ns)| *ns)
        };
        let stages: Vec<u64> = {
            let mut pids: Vec<u64> = busy.iter().map(|((p, _), _)| *p).collect();
            pids.dedup();
            pids
        };
        let pct = |ns: u64| ns as f64 / iteration_ns.max(1) as f64 * 100.0;
        for pid in stages {
            let compute = lookup(pid, 0);
            let comm = lookup(pid, 1);
            writeln!(
                out,
                "  {:<10} {:>11.3} ms {:>6.1}%   {:>11.3} ms {:>6.1}%",
                format!("stage {pid}"),
                compute as f64 / 1e6,
                pct(compute),
                comm as f64 / 1e6,
                pct(comm)
            )?;
        }
        writeln!(out, "by category (% of aggregate stage-time, all tracks):")?;
        let budget = (iteration_ns.max(1) * timeline.report.device_busy.len().max(1) as u64) as f64;
        for (cat, ns) in timeline.recorder.busy_per_category() {
            writeln!(
                out,
                "  {cat:<14} {:>11.3} ms {:>6.1}%",
                ns as f64 / 1e6,
                ns as f64 / budget * 100.0
            )?;
        }
    }
    if scenario.sweep.is_some() {
        // Single-threaded so CPU time ≈ wall time and the attribution
        // table accounts for the whole run.
        let goal = scenario.goal()?;
        let run = scenario.sweep()?.threads(1).stage_profile(true).run();
        for variant in run.variants() {
            let outcome = &variant.outcome;
            writeln!(
                out,
                "{}: {} candidates -> {} points in {:.3} ms",
                variant_heading(variant, goal),
                outcome.stats.candidates,
                outcome.points.len(),
                outcome.stats.wall_s * 1e3
            )?;
            let profile = outcome.stage_profile.as_ref().expect("stage_profile(true) attaches one");
            print_stage_profile(profile, "  ", out)?;
        }
    }
    if scenario.parallelism.is_none() && scenario.sweep.is_none() {
        return Err(Error::scenario(
            "nothing to explain: add a `parallelism` plan or a `sweep` section",
        )
        .into());
    }
    Ok(())
}

fn validate(scenario: &Scenario, out: &mut impl Write) -> Result<(), Failure> {
    scenario.check()?;
    let model = scenario.model()?;
    let cluster = scenario.cluster()?;
    writeln!(out, "scenario OK")?;
    writeln!(out, "model:    {model}")?;
    writeln!(out, "cluster:  {} x {}", cluster.total_gpus, cluster.gpu.name)?;
    if scenario.parallelism.is_some() {
        writeln!(out, "plan:     {}", scenario.plan()?)?;
    }
    if scenario.sweep.is_some() {
        let limits = scenario.limits();
        writeln!(
            out,
            "sweep:    goal {:?}, t <= {}, d <= {}, p <= {}, m <= {}",
            scenario.goal()?,
            limits.max_tensor,
            limits.max_data,
            limits.max_pipeline,
            limits.max_micro_batch
        )?;
    }
    Ok(())
}
