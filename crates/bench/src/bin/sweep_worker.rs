//! The sweep worker process: the other end of the coordinator's pipe.
//!
//! Spawned by `sweep --workers N` (never run by hand), configured once
//! on the command line with the grid identity, then driven with one
//! line-delimited JSON request per cell on stdin, answering one
//! response per line on stdout until stdin closes:
//!
//! ```text
//! sweep-worker --grid ensemble --preset golden [--seed S]
//!              [--cell-delay-ms MS] [--fail-cells a,b,c]
//! ```
//!
//! Rates and fingerprints cross the pipe as raw bit patterns
//! (`f64::to_bits` hex), so a worker-computed cell is bit-identical to
//! an in-process one — the property the CI `resume-integrity` gate
//! pins. `--fail-cells` injects `failed` responses for the named cells
//! (the coordinator-retry test aid).

#![forbid(unsafe_code)]

use std::time::Duration;

use consensus_bench::cli::{cell_list, or_exit, parsed, usage_error, value};
use consensus_bench::orchestrate::{worker_serve, AnySpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid: String = "ensemble".into();
    let mut preset: String = "golden".into();
    let mut seed: Option<u64> = None;
    let mut delay_ms: u64 = 0;
    let mut fail_cells: Vec<u64> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--grid" => grid = value(&mut it, flag, "a name").into(),
            "--preset" => preset = value(&mut it, flag, "a name").into(),
            "--seed" => seed = Some(parsed(&mut it, flag, "an unsigned 64-bit number")),
            "--cell-delay-ms" => delay_ms = parsed(&mut it, flag, "a number"),
            "--fail-cells" => fail_cells = cell_list(&mut it, flag),
            other => usage_error(format!("sweep-worker: unknown flag `{other}`")),
        }
    }

    let mut spec = or_exit(AnySpec::resolve(&grid, &preset));
    if let Some(s) = seed {
        spec.set_base_seed(s);
    }
    if let Err(e) = worker_serve(&spec, Duration::from_millis(delay_ms), &fail_cells) {
        eprintln!("sweep-worker: stdio error: {e}");
        std::process::exit(1);
    }
}
