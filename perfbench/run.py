#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. It builds the `perfbench`
package (a Cargo workspace of its own, depending on the repository's
crates by path) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs one workload. The program prints one line
per metric and, as its last line, a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The exit code is the
program's: 0 only when every output check passed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ensemble_sweep", "adversary_search", "large_n_rounds", "checkpointed_workers"]


def stamp(cmd):
    """First output line of `cmd`, or "unknown" when it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seed >= 2**64 or args.seconds < 1:
        ap.error("--seed must fit in 64 unsigned bits and --seconds be at least 1")

    for needed in ("Cargo.toml", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 3

    workdir = os.path.join(target, "perfbench-work")
    os.makedirs(workdir, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
        "--rustc", stamp(["rustc", "-V"]),
        "--commit", stamp(["git", "rev-parse", "HEAD"]),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark ran past 170 s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
