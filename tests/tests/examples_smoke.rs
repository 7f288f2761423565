//! Smoke tests for the `consensus-examples` package: all ten example
//! binaries must build, and `quickstart` must run to completion.
//!
//! These shell out to the same `cargo` that is running the test suite
//! (cargo serialises concurrent access to the target directory, so this
//! is safe under `cargo test`).

use std::path::{Path, PathBuf};
use std::process::Command;

/// The workspace root, two levels up from this package's manifest.
fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests package sits directly under the workspace root")
}

/// The directory the spawned `cargo` builds into: `$CARGO_TARGET_DIR`
/// when set (a relative one is taken from the workspace root, where
/// `cargo` runs), `target` otherwise.
fn target_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .filter(|d| !d.is_empty())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from);
    workspace_root().join(dir)
}

fn cargo() -> Command {
    let mut cmd = Command::new(env!("CARGO"));
    cmd.current_dir(workspace_root());
    cmd
}

/// Every example listed in `examples/Cargo.toml` compiles.
#[test]
fn all_examples_build() {
    let status = cargo()
        .args(["build", "-p", "consensus-examples", "--examples"])
        .status()
        .expect("failed to spawn cargo");
    assert!(status.success(), "`cargo build --examples` failed");
    for name in [
        "quickstart",
        "sensor_fusion",
        "clock_sync",
        "flocking",
        "opinion_dynamics",
        "crash_tolerance",
        "lower_bound_adversary",
        "ensemble_sweep",
        "multidim_midpoint",
        "dynamic_networks",
    ] {
        let bin = target_dir().join("debug/examples").join(name);
        assert!(
            bin.exists(),
            "example binary {name} was not produced at {bin:?}"
        );
    }
}

/// `quickstart` runs to completion and prints its convergence report.
#[test]
fn quickstart_runs_to_completion() {
    let out = cargo()
        .args([
            "run",
            "-q",
            "-p",
            "consensus-examples",
            "--example",
            "quickstart",
        ])
        .output()
        .expect("failed to spawn cargo");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "quickstart exited with {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    assert!(
        stdout.contains("converged"),
        "quickstart should report convergence; got:\n{stdout}"
    );
    assert!(
        stdout.contains("validity"),
        "quickstart should report its validity check; got:\n{stdout}"
    );
}
