//! Parallel multi-seed ensemble sweeps with statistical aggregation.
//!
//! Runs one of the registered experiment grids through the sweep
//! coordinator and prints the aggregate table, optionally followed (or
//! replaced) by the machine-readable JSON document the CI
//! `sweep-regression` job diffs against the checked-in golden files.
//! Every run takes the same path; the control-plane flags below only
//! add a checkpoint, worker processes or metrics to it. A missing or
//! malformed flag value is a one-line usage error with exit code 2.
//!
//! ```text
//! cargo run --release -p consensus-bench --bin sweep -- [FLAGS]
//!   --grid NAME     which experiment grid to run (see --list):
//!                   ensemble (default) | multidim | dynamic_rates |
//!                   adversary_search | paper
//!   --list          print the registered grids and exit
//!   --golden        run the fixed CI preset of the selected grid
//!   --quick         run the small smoke preset (for `ensemble` this
//!                   also appends every other grid's quick-preset table)
//!   --full          run the large ensemble (default preset)
//!   --preset NAME   select a preset by name (golden|quick|full); an
//!                   unknown name is a clean error listing the valid set
//!   --threads N     worker count (default: all cores; results identical)
//!   --seed S        override the base seed
//!   --json          print JSON only (golden-diff mode; suppresses the
//!                   default BENCH_<grid>.json side file)
//!   --out PATH      write the JSON to PATH instead of the default
//!                   BENCH_<grid>.json side file
//!   --replay I      re-run cell I solo and print its outcome
//!   --multidim      deprecated alias for `--grid multidim`
//! ```
//!
//! Tracing flags (the [`consensus_obs`] structured-trace capture; see
//! the README's Observability section):
//!
//! ```text
//!   --trace-out PATH      write the merged trace as JSONL to PATH
//!   --trace-level LEVEL   span (default) | round; `round` adds a
//!                         sequential per-cell round replay with
//!                         per-round diameter/contraction gauges
//!                         (ensemble grid)
//!   --trace-timing        use a real wall clock and keep profile
//!                         events (timestamped JSONL; NOT byte-stable —
//!                         without this flag the trace is the content
//!                         stream, identical at any --threads value)
//! ```
//!
//! Control-plane flags (the aggregate JSON stays byte-identical with or
//! without them):
//!
//! ```text
//!   --checkpoint PATH     stream finished cells to a resumable .sweepck
//!   --resume              resume an interrupted run from --checkpoint
//!   --workers N           run cells in N spawned `sweep-worker` processes
//!   --metrics-out PATH    write the end-of-run metrics JSON to PATH
//!   --stop-after N        stop dispatching after N cells (testing aid)
//!   --cell-delay-ms MS    stretch every cell by MS ms (CI kill pacing)
//!   --worker-fail-cells L inject worker failures for cells `a,b,c`
//! ```
//!
//! The CI gate commands (byte-stable against `ci/`):
//!
//! ```text
//! sweep -- --golden --json                         # ci/golden_sweep.json
//! sweep -- --grid multidim --quick --json          # ci/golden_multidim.json
//! sweep -- --grid dynamic_rates --quick --json     # ci/golden_dynamic.json
//! sweep -- --grid adversary_search --quick --json  # ci/golden_adversary.json
//! sweep -- --grid paper --golden --json            # ci/golden_paper.json
//! ```
//!
//! and the crash-resume gate is the same golden file reached the hard
//! way: `--golden --json --checkpoint ck`, `SIGKILL` mid-grid, then
//! `--golden --json --checkpoint ck --resume` — required byte-identical.

#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use consensus_bench::cli::{cell_list, or_exit, parsed, usage_error, value};
use consensus_bench::obswire::{self, TraceLevel};
use consensus_bench::orchestrate::{AnySpec, GRID_REGISTRY};
use consensus_bench::wallclock::WallClock;
use tight_bounds_consensus::controlplane::{self, Metrics, ProcessPool, RunConfig, WorkerSpawn};
use tight_bounds_consensus::obs::{Clock, NullClock, TraceHandle, DEFAULT_RECORDER_CAP};
use tight_bounds_consensus::prelude::SweepReport;

/// The control-plane side of the CLI: a checkpoint, worker processes,
/// metrics and the test aids, all optional.
#[derive(Debug, Default)]
struct ControlFlags {
    checkpoint: Option<PathBuf>,
    resume: bool,
    workers: Option<usize>,
    metrics_out: Option<String>,
    stop_after: Option<u64>,
    cell_delay_ms: u64,
    fail_cells: Vec<u64>,
}

/// The tracing side of the CLI: where to write the JSONL capture, at
/// what granularity, and whether to keep wall-clock timing.
#[derive(Debug)]
struct TraceFlags {
    out: Option<String>,
    level: TraceLevel,
    timing: bool,
}

impl Default for TraceFlags {
    fn default() -> Self {
        Self {
            out: None,
            level: TraceLevel::Span,
            timing: false,
        }
    }
}

impl TraceFlags {
    /// An enabled handle when `--trace-out` was given (wall clock only
    /// under `--trace-timing`), else the zero-cost disabled handle.
    fn handle(&self) -> TraceHandle {
        if self.out.is_none() {
            return TraceHandle::disabled();
        }
        let clock: Arc<dyn Clock> = if self.timing {
            Arc::new(WallClock::new())
        } else {
            Arc::new(NullClock)
        };
        TraceHandle::enabled_with(DEFAULT_RECORDER_CAP, clock)
    }

    /// Writes the capture to `--trace-out` (content stream unless
    /// `--trace-timing`); a no-op when tracing is off.
    fn write(&self, trace: &TraceHandle) {
        let Some(path) = &self.out else { return };
        obswire::write_trace(path, trace, self.timing).expect("failed to write --trace-out");
        eprintln!("trace: JSONL written to {path}");
    }
}

impl ControlFlags {
    /// Whether any control-plane flag is set (`--replay` takes none).
    fn engaged(&self) -> bool {
        self.checkpoint.is_some()
            || self.resume
            || self.workers.is_some()
            || self.metrics_out.is_some()
            || self.stop_after.is_some()
            || self.cell_delay_ms > 0
            || !self.fail_cells.is_empty()
    }
}

/// Locates the `sweep-worker` binary: the `SWEEP_WORKER` env override,
/// else the sibling of the running `sweep` binary (both live in the
/// same cargo target directory).
fn worker_program() -> PathBuf {
    if let Ok(p) = std::env::var("SWEEP_WORKER") {
        return PathBuf::from(p);
    }
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("binary has a parent directory");
    dir.join(format!("sweep-worker{}", std::env::consts::EXE_SUFFIX))
}

/// Runs the spec through the coordinator (threads or worker processes)
/// and returns the report if the grid completed, with the process exit
/// code: 0 clean/interrupted-with-checkpoint, 1 on failed cells or a
/// checkpoint error.
fn run_sweep(
    spec: &AnySpec,
    preset: &str,
    cf: &ControlFlags,
    trace: &TraceHandle,
    threads: Option<usize>,
    seed: Option<u64>,
) -> (Option<SweepReport>, i32) {
    let plan = spec.plan(preset);
    let metrics = Metrics::new();
    let n_workers = cf.workers.unwrap_or(0);
    let cfg = RunConfig {
        threads: if n_workers > 0 {
            n_workers
        } else {
            threads.unwrap_or_else(tight_bounds_consensus::pool::default_threads)
        },
        checkpoint: cf.checkpoint.clone(),
        resume: cf.resume,
        stop_after: cf.stop_after,
        trace: trace.clone(),
        ..RunConfig::default()
    };
    let start = Instant::now();
    let delay = Duration::from_millis(cf.cell_delay_ms);
    let result = if n_workers > 0 {
        let mut args = vec![
            "--grid".into(),
            spec.grid_name().into(),
            "--preset".into(),
            preset.into(),
        ];
        if let Some(s) = seed {
            args.push("--seed".into());
            args.push(s.to_string());
        }
        if cf.cell_delay_ms > 0 {
            args.push("--cell-delay-ms".into());
            args.push(cf.cell_delay_ms.to_string());
        }
        if !cf.fail_cells.is_empty() {
            let list: Vec<String> = cf.fail_cells.iter().map(u64::to_string).collect();
            args.push("--fail-cells".into());
            args.push(list.join(","));
        }
        let pool = ProcessPool::new(
            WorkerSpawn {
                program: worker_program(),
                args,
            },
            &metrics,
        );
        controlplane::run(&plan, &cfg, &pool, &metrics)
    } else {
        controlplane::run(&plan, &cfg, &*spec.executor(delay, trace), &metrics)
    };
    let elapsed_ms = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);

    if let Some(path) = &cf.metrics_out {
        let snap = metrics.snapshot(n_workers as u64);
        std::fs::write(path, snap.to_json(Some(elapsed_ms)))
            .expect("failed to write --metrics-out");
    }

    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return (None, 1);
        }
    };
    for (cell, error) in &outcome.failed_cells {
        eprintln!("cell {cell} failed after retry: {error}");
    }
    if !outcome.completed {
        eprintln!(
            "sweep interrupted after {} of {} cells ({} resumed); rerun with --resume to finish",
            outcome.resumed + outcome.executed,
            plan.n_cells,
            outcome.resumed,
        );
        return (None, 0);
    }
    let report = spec.report_from_rows(outcome.outcome_rows().expect("completed run has rows"));
    (Some(report), i32::from(!outcome.failed_cells.is_empty()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut grid: String = "ensemble".into();
    let mut preset: String = "full".into();
    let mut threads: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut json_only = false;
    let mut out_path: Option<String> = None;
    let mut replay: Option<usize> = None;
    let mut cf = ControlFlags::default();
    let mut tf = TraceFlags::default();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        match flag {
            "--grid" => grid = value(&mut it, flag, "a name").into(),
            "--list" => {
                println!("registered grids (select with --grid NAME):");
                for (name, description) in GRID_REGISTRY {
                    println!("  {name:<14} {description}");
                }
                return;
            }
            "--golden" => preset = "golden".into(),
            "--quick" => preset = "quick".into(),
            "--full" => preset = "full".into(),
            "--preset" => preset = value(&mut it, flag, "a name").into(),
            // Pre-registry spelling, kept so existing scripts and docs
            // don't break.
            "--multidim" => grid = "multidim".into(),
            "--json" => json_only = true,
            "--threads" => threads = Some(parsed(&mut it, flag, "a number")),
            "--seed" => seed = Some(parsed(&mut it, flag, "an unsigned 64-bit number")),
            "--out" => out_path = Some(value(&mut it, flag, "a path").into()),
            "--replay" => replay = Some(parsed(&mut it, flag, "a cell index")),
            "--checkpoint" => cf.checkpoint = Some(value(&mut it, flag, "a path").into()),
            "--resume" => cf.resume = true,
            "--workers" => {
                let n: NonZeroUsize = parsed(&mut it, flag, "a positive number");
                cf.workers = Some(n.get());
            }
            "--metrics-out" => cf.metrics_out = Some(value(&mut it, flag, "a path").into()),
            "--stop-after" => cf.stop_after = Some(parsed(&mut it, flag, "a cell count")),
            "--cell-delay-ms" => cf.cell_delay_ms = parsed(&mut it, flag, "a number"),
            "--trace-out" => tf.out = Some(value(&mut it, flag, "a path").into()),
            "--trace-level" => {
                let v = value(&mut it, flag, "span|round");
                tf.level = TraceLevel::parse(v).unwrap_or_else(|| {
                    usage_error(format!(
                        "--trace-level: unknown level `{v}` (valid: span|round)"
                    ))
                });
            }
            "--trace-timing" => tf.timing = true,
            "--worker-fail-cells" => cf.fail_cells = cell_list(&mut it, flag),
            other => usage_error(format!(
                "unknown flag `{other}` — see the module docs or --list for usage"
            )),
        }
    }
    let mut spec = or_exit(AnySpec::resolve(&grid, &preset));
    if let Some(s) = seed {
        spec.set_base_seed(s);
    }
    if tf.out.is_none() && (tf.level != TraceLevel::Span || tf.timing) {
        usage_error("--trace-level/--trace-timing need --trace-out PATH");
    }

    if let Some(index) = replay {
        if cf.engaged() {
            usage_error("--replay is a solo debugging path; drop the control-plane flags");
        }
        // Replay one cell solo: same configuration, same seed as the
        // full sweep — the debugging path for a surprising aggregate.
        for (label, seed, o) in or_exit(spec.replay(index)) {
            println!(
                "cell {index} [{label}] seed {seed}: rate {:.6}, decision {:?}, rounds {}, converged {}, fingerprint {:016x}",
                o.rate, o.decision_round, o.rounds, o.converged, o.fingerprint,
            );
        }
        return;
    }

    // Every grid run leaves a machine-readable report behind
    // (BENCH_<grid>.json) unless the caller picked an explicit --out
    // path or asked for stdout-only JSON (the golden-diff mode, which
    // must not touch the working directory).
    if out_path.is_none() && !json_only {
        out_path = Some(format!("BENCH_{}.json", spec.grid_name()));
    }

    let trace = tf.handle();
    let (report, code) = run_sweep(&spec, &preset, &cf, &trace, threads, seed);
    let Some(report) = report else {
        tf.write(&trace);
        std::process::exit(code);
    };
    obswire::enrich_report(&trace, &report);
    let mut table = spec.table(&report);
    if let AnySpec::Ensemble(ensemble) = &spec {
        if tf.level == TraceLevel::Round {
            obswire::trace_rounds_ensemble(ensemble, &report, &trace);
        }
        if preset == "quick" && !json_only {
            // The quick smoke run also exercises every other grid — the
            // R^d separation, the averaging-rate table, the adaptive
            // adversary invariants and the paper's claims at a glance.
            // The --seed override applies to all of them, keeping the
            // tables on the same base seed.
            for (name, _) in GRID_REGISTRY.iter().filter(|(n, _)| *n != spec.grid_name()) {
                let mut other = or_exit(AnySpec::resolve(name, "quick"));
                if let Some(s) = seed {
                    other.set_base_seed(s);
                }
                table.push('\n');
                table.push_str(&other.table(&other.run_in_process(threads)));
            }
        }
        if out_path.is_some() {
            table.push_str(
                "\n(the written JSON covers the scalar ensemble only; for another grid's \
                 JSON run it with --grid NAME --out)",
            );
        }
    }
    tf.write(&trace);

    let json = report.to_json();
    if let Some(path) = &out_path {
        std::fs::write(path, &json).expect("failed to write JSON output");
    }
    if json_only {
        print!("{json}");
    } else {
        println!("{table}");
        if let Some(path) = &out_path {
            println!("JSON written to {path}");
        }
    }
    std::process::exit(code);
}
