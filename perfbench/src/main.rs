//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//!           [--rustc VERSION] [--commit HASH]
//! ```
//!
//! Generates the workload's inputs from the seed, checks every output,
//! and prints one metric per line followed by a one-line JSON result.
//! `--trace 0` prints the end-to-end metrics (untraced passes only);
//! `--trace 1` prints every per-layer metric. `perfbench/run.py` builds
//! this program and is the command to run.
//!
//! `perfbench --worker GRID PRESET SEED` is the worker process of the
//! `checkpointed_workers` workload: the same `worker_serve` loop the
//! repository's `sweep-worker` binary wraps.

#![forbid(unsafe_code)]

mod adversary;
mod checkpointed;
mod common;
mod ensemble;
mod large_n;
mod layers;
mod traced;

use std::time::Duration;

use common::{median, Ctx, Metric, Outcome};

/// The workloads; `BENCHMARK.json` says why each one is here.
const WORKLOADS: [&str; 4] = [
    "ensemble_sweep",
    "adversary_search",
    "large_n_rounds",
    "checkpointed_workers",
];

/// The seed whose output digests are pinned below. On any other seed
/// the run relies on its cross-path checks alone.
const DEFAULT_SEED: u64 = 1;
const PINNED: [(&str, u64); 4] = [
    ("ensemble_sweep", 0x0276_fc6b_d5d2_f0eb),
    ("adversary_search", 0xce55_c2d3_8dde_8b97),
    ("large_n_rounds", 0x3325_6efa_d26c_7958),
    ("checkpointed_workers", 0xc787_199e_fc37_13ff),
];

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it should move. A layer a workload does not exercise
/// reports 0 in that workload's traced run.
const LAYERS: &[(&str, &str, &str)] = &[
    (
        "algorithms.ns_per_msg.midpoint.mask",
        "ns",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "algorithms.ns_per_msg.mean_value.mask",
        "ns",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "algorithms.ns_per_msg.self_weighted.mask",
        "ns",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "algorithms.ns_per_msg.midpoint.csr",
        "ns",
        "agent_updates_per_s on large_n_rounds (n=10^6)",
    ),
    (
        "algorithms.ns_per_msg.mean_value.csr",
        "ns",
        "agent_updates_per_s on large_n_rounds (n=10^6)",
    ),
    (
        "algorithms.ns_per_msg.self_weighted.csr",
        "ns",
        "agent_updates_per_s on large_n_rounds (n=10^6)",
    ),
    (
        "digraph.is_rooted_ns.n16",
        "ns",
        "wall_s on adversary_search",
    ),
    (
        "digraph.is_rooted_ns.n24",
        "ns",
        "wall_s on adversary_search",
    ),
    (
        "digraph.csr_build_ms.n1e6",
        "ms",
        "setup_s on large_n_rounds",
    ),
    (
        "netmodel.sample_ns.complete",
        "ns",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "netmodel.sample_ns.cycle",
        "ns",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "netmodel.sample_ns.rooted",
        "ns",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "netmodel.sample_ns.nonsplit",
        "ns",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "netmodel.sample_ns.async_crash",
        "ns",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "netmodel.sample_share",
        "ratio",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "dynamics.step_us.dense.n8",
        "us",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "dynamics.step_us.dense.n16",
        "us",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "dynamics.step_us.dense.n32",
        "us",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "dynamics.step_us.dense.n64",
        "us",
        "agent_updates_per_s on ensemble_sweep",
    ),
    (
        "dynamics.updates_per_s.n1e4.t1",
        "1/s",
        "agent_updates_per_s on large_n_rounds",
    ),
    (
        "dynamics.updates_per_s.n1e4.tN",
        "1/s",
        "agent_updates_per_s on large_n_rounds",
    ),
    (
        "dynamics.updates_per_s.n1e6.t1",
        "1/s",
        "agent_updates_per_s on large_n_rounds",
    ),
    (
        "dynamics.updates_per_s.n1e6.tN",
        "1/s",
        "agent_updates_per_s on large_n_rounds",
    ),
    (
        "dynamics.parallel_efficiency.n1e4",
        "ratio",
        "agent_updates_per_s on large_n_rounds",
    ),
    (
        "dynamics.parallel_efficiency.n1e6",
        "ratio",
        "agent_updates_per_s on large_n_rounds",
    ),
    (
        "dynet.beam.candidates",
        "count",
        "wall_s on adversary_search",
    ),
    (
        "dynet.beam.candidates_per_s",
        "1/s",
        "wall_s on adversary_search",
    ),
    (
        "dynet.beam.next_block_ms",
        "ms",
        "wall_s on adversary_search",
    ),
    ("dynet.beam.share", "ratio", "wall_s on adversary_search"),
    (
        "valency.probe_candidates",
        "count",
        "wall_s on adversary_search (a little)",
    ),
    (
        "valency.step_ms",
        "ms",
        "wall_s on adversary_search (a little)",
    ),
    (
        "pool.dispatch_us.run_indexed",
        "us",
        "wall_s on adversary_search",
    ),
    (
        "pool.dispatch_us.for_each_chunk_mut",
        "us",
        "agent_updates_per_s on large_n_rounds (n=10^4)",
    ),
    ("pool.steals", "count", "wall_s on ensemble_sweep"),
    ("pool.busy_share", "ratio", "wall_s on ensemble_sweep"),
    ("pool.imbalance", "ratio", "wall_s on ensemble_sweep"),
    ("sweep.cell_ms.p50", "ms", "wall_s on ensemble_sweep"),
    ("sweep.cell_ms.tail", "ms", "wall_s on ensemble_sweep"),
    ("sweep.cell_samples", "count", "wall_s on ensemble_sweep"),
    (
        "controlplane.cell_overhead_us",
        "us",
        "wall_s on checkpointed_workers",
    ),
    (
        "controlplane.checkpoint_append_us",
        "us",
        "wall_s on checkpointed_workers",
    ),
    (
        "controlplane.checkpoint_load_ms",
        "ms",
        "wall_s on checkpointed_workers",
    ),
    (
        "controlplane.protocol_us",
        "us",
        "wall_s on checkpointed_workers",
    ),
    (
        "controlplane.retries",
        "count",
        "wall_s on checkpointed_workers",
    ),
    (
        "controlplane.worker_restarts",
        "count",
        "wall_s on checkpointed_workers",
    ),
    (
        "obs.trace_overhead_ratio",
        "ratio",
        "the traced run of each workload",
    ),
];

/// Threads and processes a workload uses at once: outer sweep threads ×
/// inner fork threads × worker processes. Each coordinator thread of
/// `checkpointed_workers` only relays to its own worker process, so
/// the workers are the count there.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub outer: usize,
    pub inner: usize,
    pub processes: usize,
}

fn budget(workload: &str, nproc: usize) -> Budget {
    let (outer, inner, processes) = match workload {
        "ensemble_sweep" => (nproc, 1, 1),
        "adversary_search" | "large_n_rounds" => (1, nproc, 1),
        _ => (1, 1, nproc),
    };
    Budget {
        outer,
        inner,
        processes,
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    workdir: std::path::PathBuf,
    rustc: String,
    commit: String,
}

fn parse_args(args: &[String]) -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut workdir) = (None, None, None, None);
    let (mut rustc, mut commit) = ("unknown".to_string(), "unknown".to_string());
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => fail("--trace takes 0 or 1"),
                }
            }
            "--workdir" => workdir = Some(value.into()),
            "--rustc" => rustc = value.clone(),
            "--commit" => commit = value.clone(),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        fail(&format!(
            "unknown workload {workload} (use {})",
            WORKLOADS.join("|")
        ));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| fail("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| fail("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| fail("--trace is required")),
        workdir: workdir.unwrap_or_else(|| fail("--workdir is required")),
        rustc,
        commit,
    }
}

fn worker(args: &[String]) {
    let [grid, preset, seed] = args else {
        fail("--worker needs GRID PRESET SEED");
    };
    let mut spec = consensus_bench::orchestrate::AnySpec::resolve(grid, preset)
        .unwrap_or_else(|e| fail(&e.to_string()));
    spec.set_base_seed(seed.parse().unwrap_or_else(|_| fail("bad worker seed")));
    if let Err(e) = consensus_bench::orchestrate::worker_serve(&spec, Duration::ZERO, &[]) {
        eprintln!("perfbench worker: stdio error: {e}");
        std::process::exit(1);
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| fail(&format!("cannot read /proc/self/status: {e}")));
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| fail("no VmHWM in /proc/self/status"));
    kb / 1024.0
}

fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let passes = out.pass_s.len() as u64;
    let each: Vec<String> = out.pass_s.iter().map(|s| format!("{s:.4}")).collect();
    println!("pass wall times (s): {}", each.join(" "));
    let wall = median(&out.pass_s);
    vec![
        Metric::new("wall_s", wall, "s", passes).note("median pass"),
        Metric::new("cells_per_s", out.pass.cells as f64 / wall, "1/s", passes)
            .note(format!("{} cells per pass", out.pass.cells)),
        Metric::new(
            "agent_updates_per_s",
            out.pass.agent_updates / wall,
            "1/s",
            passes,
        )
        .note(format!(
            "{} rounds x agents per pass",
            out.pass.agent_updates
        )),
        Metric::new(
            "setup_s",
            median(&out.setup_s),
            "s",
            out.setup_s.len() as u64,
        )
        .note("median set-up"),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1)
            .note("VmHWM of the benchmark process; worker processes not included"),
    ]
}

/// Orders the traced run's metrics as the table does, filling layers
/// the workload does not exercise with 0.
fn per_layer(mut measured: Vec<Metric>) -> Vec<(Metric, &'static str)> {
    for m in &measured {
        assert!(
            LAYERS.iter().any(|(n, u, _)| *n == m.name && *u == m.unit),
            "metric {} [{}] is not in the layer table",
            m.name,
            m.unit
        );
    }
    LAYERS
        .iter()
        .map(|&(name, unit, target)| {
            let m = match measured.iter().position(|m| m.name == name) {
                Some(i) => measured.swap_remove(i),
                None => Metric::new(name, 0.0, unit, 0).note("layer idle in this workload"),
            };
            (m, target)
        })
        .collect()
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--worker") {
        worker(&argv[1..]);
        return;
    }
    let args = parse_args(&argv);
    let nproc = tight_bounds_consensus::pool::default_threads();
    let b = budget(&args.workload, nproc);
    let total = b.outer * b.inner * b.processes;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rustc,
        args.commit
    );
    println!(
        "budget: outer {} x inner {} x processes {} = {total} (nproc {nproc})",
        b.outer, b.inner, b.processes
    );
    if total > nproc {
        fail(&format!(
            "{} would use {total} threads or processes at once, more than nproc = {nproc}",
            args.workload
        ));
    }

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        budget: b,
        trace: args.trace,
        workdir: args.workdir.clone(),
    };
    let mut out = match args.workload.as_str() {
        "ensemble_sweep" => ensemble::run(&ctx),
        "adversary_search" => adversary::run(&ctx),
        "large_n_rounds" => large_n::run(&ctx),
        _ => checkpointed::run(&ctx),
    };

    let pinned = PINNED
        .iter()
        .find(|(w, _)| *w == args.workload)
        .map(|(_, d)| *d);
    let digest_line = if args.seed == DEFAULT_SEED {
        let ok = pinned == Some(out.digest);
        let (cells, digest) = (out.pass.cells, out.digest);
        out.check(ok, cells, || {
            format!("digest {digest:016x} differs from the pinned one")
        });
        format!(
            "digest {:016x} (pinned: {})",
            out.digest,
            if ok { "match" } else { "MISMATCH" }
        )
    } else {
        format!(
            "digest {:016x} (seed {} is not the pinned default {DEFAULT_SEED}; cross-path checks only)",
            out.digest, args.seed
        )
    };
    println!("{digest_line}");

    let metrics: Vec<(Metric, &str)> = if args.trace {
        let mut measured = std::mem::take(&mut out.layers);
        measured.extend(layers::measure(&ctx));
        per_layer(measured)
    } else {
        end_to_end(&out).into_iter().map(|m| (m, "")).collect()
    };
    for (m, target) in &metrics {
        if !m.value.is_finite() {
            out.problems
                .push(format!("{} is not a finite number", m.name));
        }
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!(" [{}]", m.note)
        };
        let target = if target.is_empty() {
            String::new()
        } else {
            format!(" -> {target}")
        };
        println!(
            "metric {} = {} {} (samples {}){note}{target}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples
        );
    }
    for p in &out.problems {
        println!("FAILED CHECK: {p}");
    }
    println!(
        "failed_fraction = {} ({} of {} cells)",
        if out.attempted == 0 {
            0.0
        } else {
            out.failed as f64 / out.attempted as f64
        },
        out.failed,
        out.attempted
    );
    let correct = out.problems.is_empty() && out.failed == 0 && out.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, _)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
