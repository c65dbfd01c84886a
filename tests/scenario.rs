//! The scenario schema and the `vtrain` CLI, exercised end-to-end: serde
//! round-trips, unknown-field rejection, subcommand golden output, and
//! error exit codes.

use std::path::Path;
use std::process::{Command, Output};

use vtrain::prelude::*;

const EXAMPLE_PATH: &str = "examples/descriptions/megatron_18b.json";
const SWEEP_PATH: &str = "examples/descriptions/megatron_1_7b_sweep.json";

fn repo_file(rel: &str) -> String {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel).to_str().unwrap().to_owned()
}

fn vtrain(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vtrain"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("vtrain binary runs")
}

#[test]
fn shipped_scenarios_round_trip_through_serde() {
    for path in [EXAMPLE_PATH, SWEEP_PATH] {
        let text = std::fs::read_to_string(repo_file(path)).unwrap();
        let parsed = Scenario::from_json(&text).unwrap();
        let rewritten = parsed.to_json();
        let reparsed = Scenario::from_json(&rewritten).unwrap();
        assert_eq!(parsed, reparsed, "round-trip must be lossless for {path}");
        parsed.check().unwrap_or_else(|e| panic!("{path} must validate: {e}"));
    }
}

#[test]
fn unknown_fields_are_rejected_at_every_level() {
    let text = std::fs::read_to_string(repo_file(EXAMPLE_PATH)).unwrap();
    // Root level.
    let bad = text.replace("\"tokens\"", "\"tokenz\"");
    let err = Scenario::from_json(&bad).unwrap_err();
    assert!(err.to_string().contains("unknown field `tokenz`"), "{err}");
    // Nested section.
    let bad = text.replace("\"micro_batch\"", "\"micro_batchh\"");
    assert!(Scenario::from_json(&bad).is_err());
    // The untagged model section still names the typo'd key (each
    // variant's rejection reason is carried into the mismatch error).
    let bad = text.replace("\"preset\": \"megatron-18.4B\"", "\"presett\": \"megatron-18.4B\"");
    let err = Scenario::from_json(&bad).unwrap_err();
    assert!(err.to_string().contains("presett"), "{err}");
    // Sweep section of the placement scenario.
    let sweep_text = std::fs::read_to_string(repo_file(SWEEP_PATH)).unwrap();
    let bad = sweep_text.replace("\"goal\"", "\"gaol\"");
    assert!(Scenario::from_json(&bad).is_err());
}

#[test]
fn predict_output_matches_golden() {
    let out = vtrain(&["predict", EXAMPLE_PATH]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let golden = std::fs::read_to_string(repo_file("tests/golden/predict_megatron_18b.txt"))
        .expect("golden file present");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden,
        "`vtrain predict` output drifted from tests/golden/predict_megatron_18b.txt — \
         if the change is intentional, regenerate the golden file"
    );
}

/// The shipped `Front` sweep's `--json` response, pinned byte for byte
/// under both networks: a change to the sweep executor must not move a
/// frontier point. Regenerate after an intentional pricing change with
/// `VTRAIN_BLESS=1 cargo test -q --test scenario`.
#[test]
fn sweep_json_matches_golden() {
    for (network, rel) in [
        ("closed-form", "tests/golden/sweep_megatron_1_7b.json"),
        ("fair-sharing", "tests/golden/sweep_megatron_1_7b_fair.json"),
    ] {
        let out = vtrain(&["sweep", SWEEP_PATH, "--json", "--network", network]);
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let got = String::from_utf8(out.stdout).expect("UTF-8 response");
        let golden_path = repo_file(rel);
        if std::env::var("VTRAIN_BLESS").is_ok() {
            std::fs::write(&golden_path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&golden_path).expect("golden file present");
        assert_eq!(
            got, want,
            "`vtrain sweep --json --network {network}` drifted from {rel} — \
             if the change is intentional, regenerate with VTRAIN_BLESS=1"
        );
    }
}

#[test]
fn sweep_subcommand_runs_goal_guided_placements_end_to_end() {
    let out = vtrain(&["sweep", SWEEP_PATH]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for label in ["two-tier", "multi-rack/4", "thin-spine/2"] {
        assert!(stdout.contains(label), "placement `{label}` missing from:\n{stdout}");
    }
    assert!(stdout.contains("goal Front"), "goal must be honored:\n{stdout}");
    assert!(stdout.contains("fastest:"), "per-variant winner must be reported");
}

/// `vtrain sweep <dir>` batch mode: every `*.json` scenario in sorted
/// order sharing one profile cache (observable as a 100% hit-rate from
/// the second scenario on), with `2` exits for broken batches and for
/// directories handed to any other command.
#[test]
fn sweep_batch_directory_shares_one_cache_and_exits_cleanly() {
    let dir = std::env::temp_dir().join(format!("vtrain-batch-tests-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sweep_text = std::fs::read_to_string(repo_file(SWEEP_PATH)).unwrap();
    std::fs::write(dir.join("a_first.json"), &sweep_text).unwrap();
    std::fs::write(dir.join("b_second.json"), &sweep_text).unwrap();
    std::fs::write(dir.join("notes.txt"), "not a scenario").unwrap();

    let out = vtrain(&["sweep", dir.to_str().unwrap()]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("batch sweep: 2 scenarios"), "txt files must be skipped:\n{stdout}");
    let first = stdout.find("a_first.json").expect("first scenario reported");
    let second = stdout.find("b_second.json").expect("second scenario reported");
    assert!(first < second, "scenarios must run in sorted order:\n{stdout}");
    // The second scenario starts on the first one's cache: pure hits.
    assert!(
        stdout[second..].contains("hit-rate 100.0%"),
        "shared cache must carry across scenarios:\n{stdout}"
    );

    // Directories are sweep-only.
    let out = vtrain(&["predict", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("directory"));

    // A malformed scenario fails the whole batch, naming the file.
    std::fs::write(dir.join("c_bad.json"), "{ not json").unwrap();
    let out = vtrain(&["sweep", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("c_bad.json"));

    // An empty directory is a scenario error, not a silent success.
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    let out = vtrain(&["sweep", empty.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_subcommand_accepts_shipped_scenarios() {
    for path in [EXAMPLE_PATH, SWEEP_PATH] {
        let out = vtrain(&["validate", path]);
        assert!(out.status.success(), "{path} stderr: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("scenario OK"));
    }
}

#[test]
fn help_in_any_position_prints_usage_and_exits_0() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["sweep", "--help"],
        &["predict", "-h"],
        &["predict", EXAMPLE_PATH, "--help"],
        &["serve", "127.0.0.1:0", "-h"],
    ] {
        let out = vtrain(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let usage = String::from_utf8_lossy(&out.stdout);
        assert!(usage.starts_with("usage: vtrain"), "{args:?}: usage on stdout:\n{usage}");
        assert!(out.stderr.is_empty(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn cli_error_paths_exit_2_with_context() {
    // No arguments: usage on stderr, exit 2, and the subcommands listed.
    let out = vtrain(&[]);
    assert_eq!(out.status.code(), Some(2));
    let usage = String::from_utf8_lossy(&out.stderr);
    for cmd in ["predict", "sweep", "validate"] {
        assert!(usage.contains(cmd), "usage must list `{cmd}`:\n{usage}");
    }

    // Unknown subcommand.
    let out = vtrain(&["frobnicate", EXAMPLE_PATH]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Malformed JSON: line/column context, exit 2, no panic.
    let dir = std::env::temp_dir().join(format!("vtrain-cli-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\n  \"model\": ,\n}").unwrap();
    let out = vtrain(&["predict", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "position context in: {stderr}");

    // Well-formed JSON with a schema typo: field context, exit 2.
    let typo = dir.join("typo.json");
    let text = std::fs::read_to_string(repo_file(EXAMPLE_PATH))
        .unwrap()
        .replace("\"tensor\"", "\"tensr\"");
    std::fs::write(&typo, text).unwrap();
    let out = vtrain(&["predict", typo.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));

    // Unreadable file: runtime failure, exit 1.
    let out = vtrain(&["predict", "/nonexistent/scenario.json"]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn options_outside_their_command_exit_2_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("vtrain-cli-misplaced-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("out.json");
    let out_path = out_file.to_str().unwrap();
    for (args, flag) in [
        (&["predict", EXAMPLE_PATH, "--json", "--timeline", out_path][..], "--timeline"),
        (&["sweep", SWEEP_PATH, "--timeline", out_path], "--timeline"),
        (&["explain", EXAMPLE_PATH, "--timeline", out_path], "--timeline"),
        (&["predict", EXAMPLE_PATH, "--metrics", out_path], "--metrics"),
        (&["predict", EXAMPLE_PATH, "--stage-profile"], "--stage-profile"),
        (&["sweep", SWEEP_PATH, "--json", "--metrics", out_path], "--metrics"),
        (&["sweep", SWEEP_PATH, "--json", "--stage-profile"], "--stage-profile"),
        (&["predict", EXAMPLE_PATH, "--max-points", "1"], "--max-points"),
    ] {
        let out = vtrain(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag) && stderr.contains("usage: vtrain"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&out.stdout));
        assert!(!out_file.exists(), "{args:?} wrote {out_path}");
    }
    std::fs::remove_dir(&dir).unwrap();
}

/// A reader that hangs up early (`vtrain sweep ... | head -1`) ends the
/// report quietly: exit 0, no panic on stderr.
#[test]
fn closed_stdout_ends_the_report_quietly() {
    for args in [&["sweep", SWEEP_PATH][..], &["sweep", SWEEP_PATH, "--json"], &["--help"]] {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_vtrain"))
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stdout(writer)
            .output()
            .expect("vtrain binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn scenario_without_parallelism_cannot_predict_but_can_sweep() {
    let out = vtrain(&["predict", SWEEP_PATH]);
    assert_eq!(out.status.code(), Some(2), "sweep-only scenario must not predict");
    assert!(String::from_utf8_lossy(&out.stderr).contains("parallelism"));
}
