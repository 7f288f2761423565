//! End-to-end tests of the `sweep` binary's CLI: clean usage errors
//! (one stderr line, exit code 2, never a backtrace) and, for every
//! registered grid, the plain, checkpoint/resume and spawned-worker
//! runs pinned byte-identical to the grid's `ci/` golden JSON, plus
//! `--replay`, injected worker failures, the metrics snapshot, and
//! traces that do not depend on whether a checkpoint is kept. The
//! `trace-report` reader is driven here too.

use std::path::{Path, PathBuf};
use std::process::Command;

use consensus_bench::orchestrate::{AnySpec, GRID_REGISTRY};
use tight_bounds_consensus::obs::json::Json;

fn sweep() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_sweep"));
    // Point the coordinator at the test build of the worker explicitly;
    // the sibling-of-current-exe default also holds under cargo test,
    // but the env override keeps the tests independent of bin layout.
    cmd.env("SWEEP_WORKER", env!("CARGO_BIN_EXE_sweep-worker"));
    cmd
}

fn trace_report(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_trace-report"))
        .args(args)
        .output()
        .expect("spawn the trace-report bin")
}

fn run(args: &[&str]) -> std::process::Output {
    sweep().args(args).output().expect("spawn the sweep bin")
}

/// The preset the CI `sweep-regression` matrix runs `grid` at, and the
/// bytes of the golden file it diffs that run against.
fn ci_golden(grid: &str) -> (&'static str, Vec<u8>) {
    let (preset, file) = match grid {
        "ensemble" => ("golden", "golden_sweep.json"),
        "multidim" => ("quick", "golden_multidim.json"),
        "dynamic_rates" => ("quick", "golden_dynamic.json"),
        "adversary_search" => ("quick", "golden_adversary.json"),
        "paper" => ("golden", "golden_paper.json"),
        other => panic!("registered grid `{other}` has no CI golden file"),
    };
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../ci")
        .join(file);
    (preset, std::fs::read(path).expect("read the golden file"))
}

/// `--grid G --preset P --json` followed by `extra`.
fn grid_args<'a>(grid: &'a str, preset: &'a str, extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec!["--grid", grid, "--preset", preset, "--json"];
    args.extend_from_slice(extra);
    args
}

fn tmpfile(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sweep-cli-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

#[test]
fn unknown_preset_is_a_clean_usage_error() {
    let out = run(&["--preset", "warp"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("unknown ensemble preset `warp`"),
        "names the rejected value: {err}"
    );
    assert!(
        err.contains("golden|quick|full"),
        "lists the valid set: {err}"
    );
    assert!(
        !err.contains("panicked") && !err.contains("RUST_BACKTRACE"),
        "no panic, no backtrace: {err}"
    );
    assert!(out.stdout.is_empty(), "nothing on stdout");
}

#[test]
fn unknown_preset_error_names_the_selected_grid() {
    for (grid, label) in [("multidim", "multidim"), ("dynamic_rates", "dynamic")] {
        let out = run(&["--grid", grid, "--preset", "bogus"]);
        assert_eq!(out.status.code(), Some(2), "{grid}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown {label} preset `bogus`")),
            "{grid}: {err}"
        );
        assert!(err.contains("quick|golden|full"), "{grid}: {err}");
        assert!(!err.contains("panicked"), "{grid}: {err}");
    }
}

#[test]
fn unknown_grid_still_exits_two_with_the_registry_hint() {
    let out = run(&["--grid", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown grid `bogus`"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// Asserts `out` is a clean usage error that names `flag` and `bad`.
fn assert_usage_error(out: &std::process::Output, flag: &str, bad: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flag} {bad}: {err}");
    assert!(
        err.contains(flag) && err.contains(bad),
        "names the flag and the value: {err}"
    );
    assert!(
        !err.contains("panicked") && !err.contains("RUST_BACKTRACE"),
        "no panic, no backtrace: {err}"
    );
}

#[test]
fn bad_flag_values_are_clean_usage_errors() {
    for (args, bad) in [
        (&["--threads", "abc"][..], "`abc`"),
        (&["--threads"][..], "needs a number"),
        (&["--seed", "-1"][..], "`-1`"),
        (&["--workers", "0"][..], "`0`"),
        (&["--replay", "x"][..], "`x`"),
        (&["--stop-after", "-3"][..], "`-3`"),
        (&["--cell-delay-ms", "1.5"][..], "`1.5`"),
        (&["--worker-fail-cells", "1,x"][..], "`x`"),
        (&["--worker-fail-cells"][..], "needs a list"),
    ] {
        assert_usage_error(&run(args), args[0], bad);
    }
}

#[test]
fn bad_worker_flag_values_are_clean_usage_errors() {
    for (args, bad) in [
        (&["--seed", "zz"][..], "`zz`"),
        (&["--cell-delay-ms", "-1"][..], "`-1`"),
        (&["--fail-cells", "2,,3"][..], "``"),
        (&["--seed"][..], "needs an unsigned"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep-worker"))
            .args(args)
            .output()
            .expect("spawn the sweep-worker bin");
        assert_usage_error(&out, args[0], bad);
    }
}

/// Runs `args` plus `--trace-out` and returns the written trace.
fn traced(args: &[&str], name: &str) -> Vec<u8> {
    let path = tmpfile(name);
    let path_s = path.to_str().expect("utf8 temp path");
    let mut args = args.to_vec();
    args.extend_from_slice(&["--trace-out", path_s]);
    let out = run(&args);
    assert!(
        out.status.success(),
        "{name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read(&path).expect("trace written");
    std::fs::remove_file(&path).ok();
    trace
}

#[test]
fn adversary_trace_is_the_same_with_and_without_a_checkpoint() {
    let args = ["--grid", "adversary_search", "--quick", "--json"];
    let plain = traced(&args, "adv-plain.jsonl");
    let ck = tmpfile("adv.sweepck");
    std::fs::remove_file(&ck).ok();
    let mut with_ck = args.to_vec();
    with_ck.extend_from_slice(&["--checkpoint", ck.to_str().expect("utf8 temp path")]);
    let checkpointed = traced(&with_ck, "adv-ck.jsonl");
    std::fs::remove_file(&ck).ok();
    assert!(
        String::from_utf8_lossy(&plain).contains("beam"),
        "the grid's own trace points are recorded"
    );
    assert_eq!(
        String::from_utf8_lossy(&plain),
        String::from_utf8_lossy(&checkpointed),
        "a checkpoint must not drop trace points"
    );
}

#[test]
fn checkpointed_round_trace_is_the_golden_trace() {
    let golden =
        std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ci/golden_trace.jsonl"))
            .expect("read the golden trace");
    let ck = tmpfile("trace.sweepck");
    std::fs::remove_file(&ck).ok();
    let trace = traced(
        &[
            "--golden",
            "--json",
            "--threads",
            "3",
            "--checkpoint",
            ck.to_str().expect("utf8 temp path"),
            "--trace-level",
            "round",
        ],
        "ck-round.jsonl",
    );
    std::fs::remove_file(&ck).ok();
    assert_eq!(
        String::from_utf8_lossy(&trace),
        String::from_utf8_lossy(&golden),
        "the checkpointed round-level trace is ci/golden_trace.jsonl"
    );
}

#[test]
fn named_preset_flag_runs_the_golden_grid() {
    let out = run(&["--preset", "golden", "--json"]);
    assert!(out.status.success(), "golden run must succeed");
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"name\": \"golden\""),
        "--preset golden selects the golden ensemble: {json}"
    );
}

#[test]
fn interrupted_checkpoint_run_resumes_to_the_identical_golden_json() {
    for (grid, _) in GRID_REGISTRY {
        let (preset, golden) = ci_golden(grid);
        let out = run(&grid_args(grid, preset, &[]));
        assert!(out.status.success(), "{grid}: plain run");
        assert_eq!(out.stdout, golden, "{grid}: plain JSON is the golden");

        let ck = tmpfile(&format!("resume-{grid}.sweepck"));
        std::fs::remove_file(&ck).ok();
        let ck_s = ck.to_str().expect("utf8 temp path");

        // Phase 1: stop mid-grid (the deterministic stand-in for
        // SIGKILL — the CI resume-integrity job does the real kill). Two
        // threads finish at most one cell past the stop.
        let n_cells = AnySpec::resolve(grid, preset)
            .expect("registered grid")
            .plan(preset)
            .n_cells;
        let half = (n_cells / 2).to_string();
        let out = run(&grid_args(
            grid,
            preset,
            &[
                "--checkpoint",
                ck_s,
                "--stop-after",
                &half,
                "--threads",
                "2",
            ],
        ));
        assert!(out.status.success(), "{grid}: interrupted run exits 0");
        assert!(
            out.stdout.is_empty(),
            "{grid}: no JSON for an incomplete grid"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("rerun with --resume"),
            "{grid}: points at resume: {err}"
        );
        assert!(ck.exists(), "{grid}: checkpoint file persisted");

        // Phase 2: resume at a different thread count — byte-identical.
        let out = run(&grid_args(
            grid,
            preset,
            &["--checkpoint", ck_s, "--resume", "--threads", "3"],
        ));
        assert!(
            out.status.success(),
            "{grid}: resume run: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, golden, "{grid}: resumed JSON is the golden");

        // Phase 3: resuming a complete checkpoint is a no-op
        // re-aggregation.
        let out = run(&grid_args(
            grid,
            preset,
            &["--checkpoint", ck_s, "--resume"],
        ));
        assert!(out.status.success(), "{grid}: second resume");
        assert_eq!(out.stdout, golden, "{grid}: no-op resume is the golden too");
        std::fs::remove_file(&ck).ok();
    }
}

#[test]
fn worker_processes_produce_the_identical_golden_json() {
    for (grid, _) in GRID_REGISTRY {
        let (preset, golden) = ci_golden(grid);
        let out = run(&grid_args(grid, preset, &["--workers", "3"]));
        assert!(
            out.status.success(),
            "{grid}: worker run: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            out.stdout, golden,
            "{grid}: worker-computed JSON is the golden"
        );
    }
}

#[test]
fn replay_prints_the_golden_rows_of_one_cell_on_every_grid() {
    for (grid, _) in GRID_REGISTRY {
        let (preset, golden) = ci_golden(grid);
        let plan = AnySpec::resolve(grid, preset)
            .expect("registered grid")
            .plan(preset);
        let index = plan.n_cells / 2;
        let doc = Json::parse(std::str::from_utf8(&golden).expect("utf8 golden")).expect("golden");
        let rows = doc
            .field("cells_detail")
            .and_then(Json::as_array)
            .expect("cells_detail");
        let want: String = rows[index * plan.rows_per_cell..(index + 1) * plan.rows_per_cell]
            .iter()
            .map(|row| {
                let f = |k: &str| row.field(k).expect("golden row field");
                let rate: f64 = match f("rate") {
                    Json::Num(x) => x.parse().expect("rate"),
                    _ => f64::NAN,
                };
                let decision = match f("decision_round") {
                    Json::Null => None,
                    d => Some(d.as_u64().expect("decision round")),
                };
                format!(
                    "cell {index} [{}] seed {}: rate {rate:.6}, decision {decision:?}, rounds {}, converged {}, fingerprint {}\n",
                    f("label").as_str().expect("label"),
                    f("seed").as_u64().expect("seed"),
                    f("rounds").as_u64().expect("rounds"),
                    f("converged").as_bool().expect("converged"),
                    f("fingerprint").as_str().expect("fingerprint"),
                )
            })
            .collect();
        let out = run(&grid_args(grid, preset, &["--replay", &index.to_string()]));
        assert!(out.status.success(), "{grid}: replay");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            want,
            "{grid}: replay of cell {index} prints its golden rows"
        );

        // An index past the grid is a clean usage error, not a panic.
        let past = plan.n_cells.to_string();
        let out = run(&grid_args(grid, preset, &["--replay", &past]));
        assert_eq!(out.status.code(), Some(2), "{grid}");
        let err = String::from_utf8_lossy(&out.stderr);
        let want = format!("cell {past} out of range: grid has {past} cells");
        assert!(
            err.contains(&want) && !err.contains("panicked"),
            "{grid}: {err}"
        );
    }
}

#[test]
fn resuming_against_a_different_grid_is_a_clean_error() {
    let ck = tmpfile("mismatch.sweepck");
    std::fs::remove_file(&ck).ok();
    let ck_s = ck.to_str().expect("utf8 temp path");
    let out = run(&[
        "--golden",
        "--json",
        "--checkpoint",
        ck_s,
        "--stop-after",
        "2",
    ]);
    assert!(out.status.success());
    let out = run(&[
        "--grid",
        "dynamic_rates",
        "--quick",
        "--json",
        "--checkpoint",
        ck_s,
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(1), "mismatched resume exits 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("different sweep"), "names the mismatch: {err}");
    assert!(!err.contains("panicked"), "no backtrace: {err}");
    std::fs::remove_file(&ck).ok();
}

#[test]
fn injected_worker_failures_surface_as_failed_cells_not_a_crash() {
    let out = run(&[
        "--golden",
        "--json",
        "--workers",
        "2",
        "--worker-fail-cells",
        "3,7",
    ]);
    assert_eq!(out.status.code(), Some(1), "failed cells exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cell 3 failed after retry") && err.contains("cell 7 failed after retry"),
        "both failed cells reported: {err}"
    );
    assert!(
        err.contains("injected failure"),
        "carries the worker error: {err}"
    );
    // The report still aggregates — the two poisoned cells count as
    // failures, the other 14 are bit-identical to the golden run.
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(
        json.contains("\"failures\": 2"),
        "summary counts them: {json}"
    );
}

#[test]
fn metrics_snapshot_is_written_and_accounts_for_every_cell() {
    let metrics = tmpfile("metrics.json");
    std::fs::remove_file(&metrics).ok();
    let out = run(&[
        "--golden",
        "--json",
        "--metrics-out",
        metrics.to_str().expect("utf8 temp path"),
    ]);
    assert!(out.status.success());
    let snap = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(snap.contains("\"cells_total\": 16"), "{snap}");
    assert!(snap.contains("\"cells_done\": 16"), "{snap}");
    assert!(snap.contains("\"cells_failed\": 0"), "{snap}");
    std::fs::remove_file(&metrics).ok();
}

#[test]
fn trace_report_sums_digest_counters_without_overflow() {
    let out = trace_report(&["../../ci/golden_trace.jsonl"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The 16 `cell_fingerprint` digests sum past u64::MAX: the total is
    // exact, not wrapped (and a debug build does not panic).
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains(" 152271859917617295963 "), "{report}");
}

#[test]
fn trace_report_lane_without_a_value_is_a_usage_error() {
    let out = trace_report(&["../../ci/golden_trace.jsonl", "--lane"]);
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.trim(), "--lane needs a lane name");
}
