//! `checkpointed_workers`: the registered `ensemble`/`full` grid over a
//! list of base seeds through `controlplane::run`, with a `ProcessPool`
//! of `nproc` worker processes and a `.sweepck` checkpoint. Each seed
//! stops halfway, then resumes in a fresh session; the resumed report
//! must be byte-identical to the in-process one.

use std::path::{Path, PathBuf};

use consensus_bench::orchestrate::AnySpec;
use tight_bounds_consensus::controlplane::checkpoint::{self, CellRecord, CellStatus};
use tight_bounds_consensus::controlplane::{
    coordinator, protocol, Metrics, ProcessPool, RunConfig, SweepPlan, WorkerSpawn,
};
use tight_bounds_consensus::obs::TraceHandle;
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::sweep::cell_seed;

use crate::common::{
    mean_scaled, median, now_ns, overhead_ratio, splitmix64, timed_passes, timed_setup, Ctx,
    Digest, Metric, Outcome, PassStats,
};
use crate::traced::{sweep_pool_metrics, wall_trace, SweepTrace};

/// The registered grid and preset the workers know.
const GRID: &str = "ensemble";
const PRESET: &str = "full";
/// Base seeds per pass.
const BASE_SEEDS: usize = 20;

struct Inputs {
    specs: Vec<AnySpec>,
    plans: Vec<SweepPlan>,
    /// Agents per cell, for the agent-update count.
    agents: Vec<usize>,
}

fn setup(seed: u64) -> Inputs {
    let mut s = seed ^ 0x636B_7074_776F_726B;
    let mut specs = Vec::new();
    let mut plans = Vec::new();
    for _ in 0..BASE_SEEDS {
        let mut spec = AnySpec::resolve(GRID, PRESET).expect("registered grid and preset");
        spec.set_base_seed(splitmix64(&mut s));
        plans.push(spec.plan(PRESET));
        specs.push(spec);
    }
    let AnySpec::Ensemble(e) = &specs[0] else {
        unreachable!("the ensemble grid resolves to an ensemble spec")
    };
    let agents = e.grid.cells().iter().map(|c| c.n).collect();
    Inputs {
        specs,
        plans,
        agents,
    }
}

/// The result of one coordinator session.
struct Session {
    outcome: Result<coordinator::RunOutcome, String>,
    retries: u64,
    restarts: u64,
    trace: Option<SweepTrace>,
}

fn session(
    ctx: &Ctx,
    plan: &SweepPlan,
    ck: &Path,
    resume: bool,
    stop_after: Option<u64>,
    trace: bool,
) -> Session {
    let metrics = Metrics::new();
    let pool = ProcessPool::new(
        WorkerSpawn {
            program: std::env::current_exe().expect("own executable path"),
            args: vec![
                "--worker".into(),
                GRID.into(),
                PRESET.into(),
                plan.base_seed.to_string(),
            ],
        },
        &metrics,
    );
    let handle = if trace {
        wall_trace()
    } else {
        TraceHandle::disabled()
    };
    let cfg = RunConfig {
        threads: ctx.budget.processes,
        checkpoint: Some(ck.to_path_buf()),
        resume,
        stop_after,
        trace: handle.clone(),
        ..RunConfig::default()
    };
    let t0 = now_ns();
    let outcome = coordinator::run(plan, &cfg, &pool, &metrics).map_err(|e| e.to_string());
    let wall_ns = now_ns() - t0;
    // Dropping the pool kills and reaps its worker processes.
    drop(pool);
    let snap = metrics.snapshot(ctx.budget.processes as u64);
    Session {
        outcome,
        retries: snap.retries,
        restarts: snap.worker_restarts,
        trace: trace.then(|| SweepTrace {
            stream: handle.merged(),
            workers: ctx.budget.processes,
            wall_ns,
        }),
    }
}

/// What a worker pass produced besides its pass/fail verdict.
#[derive(Default)]
struct PassLog {
    bad_cells: u64,
    problems: Vec<String>,
    retries: u64,
    restarts: u64,
    traces: Vec<SweepTrace>,
}

/// Every base seed: stop after half the cells, resume, compare.
fn worker_pass(ctx: &Ctx, inputs: &Inputs, reference: &[String], trace: bool) -> PassLog {
    let mut log = PassLog::default();
    for (i, (spec, plan)) in inputs.specs.iter().zip(&inputs.plans).enumerate() {
        let ck = ctx.workdir.join(format!("run-{i}.sweepck"));
        let _ = std::fs::remove_file(&ck);
        let half = (plan.n_cells / 2) as u64;
        let first = session(ctx, plan, &ck, false, Some(half), trace);
        let second = session(ctx, plan, &ck, true, None, trace);
        let _ = std::fs::remove_file(&ck);
        let mut problem = None;
        match (&first.outcome, &second.outcome) {
            (Ok(a), Ok(b)) => {
                let json = b
                    .outcome_rows()
                    .map(|rows| spec.report_from_rows(rows).to_json());
                if a.completed {
                    problem = Some("the stopped session ran to completion".to_string());
                } else if !b.failed_cells.is_empty() || !a.failed_cells.is_empty() {
                    problem = Some(format!(
                        "{} cells failed in workers",
                        a.failed_cells.len() + b.failed_cells.len()
                    ));
                } else if json.as_deref() != Some(reference[i].as_str()) {
                    problem = Some("resumed report differs from the in-process one".into());
                }
            }
            (Err(e), _) | (_, Err(e)) => problem = Some(e.clone()),
        }
        if let Some(p) = problem {
            log.bad_cells += plan.n_cells as u64;
            log.problems
                .push(format!("base seed {}: {p}", plan.base_seed));
        }
        for s in [first, second] {
            log.retries += s.retries;
            log.restarts += s.restarts;
            log.traces.extend(s.trace);
        }
    }
    log
}

fn in_process(ctx: &Ctx, inputs: &Inputs) -> Vec<SweepReport> {
    inputs
        .specs
        .iter()
        .map(|s| s.run_in_process(Some(ctx.nproc)))
        .collect()
}

fn record_log(out: &mut Outcome, cells: u64, log: &PassLog) {
    out.attempted += cells;
    out.failed += log.bad_cells;
    out.problems.extend(log.problems.iter().cloned());
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    std::fs::create_dir_all(&ctx.workdir).expect("create the checkpoint directory");
    let make = || setup(ctx.seed);
    let inputs = timed_setup(&mut out, make);

    let reports = in_process(ctx, &inputs);
    let reference: Vec<String> = reports.iter().map(SweepReport::to_json).collect();
    let mut digest = Digest::new();
    let mut updates = 0.0;
    for r in &reports {
        for (o, n) in r.outcomes.iter().zip(&inputs.agents) {
            digest.push(o.fingerprint);
            digest.push(o.rate.to_bits());
            updates += o.rounds as f64 * *n as f64;
        }
    }
    out.digest = digest.value();
    let cells: u64 = inputs.plans.iter().map(|p| p.n_cells as u64).sum();
    out.pass = PassStats {
        cells,
        agent_updates: updates,
    };

    let (mut retries, mut restarts) = (0, 0);
    timed_passes(
        ctx.untraced_seconds(),
        3,
        || worker_pass(ctx, &inputs, &reference, false),
        |wall, log| {
            record_log(&mut out, cells, &log);
            retries += log.retries;
            restarts += log.restarts;
            out.pass_s.push(wall);
            timed_setup(&mut out, make);
        },
    );
    if ctx.trace {
        traced(
            ctx, &inputs, &reports, &reference, &mut out, retries, restarts,
        );
    }
    out
}

/// Times `f` and adds the nanoseconds to `total`.
fn timed<R>(total: &mut u64, f: impl FnOnce() -> R) -> R {
    let t0 = now_ns();
    let r = f();
    *total += now_ns() - t0;
    r
}

fn traced(
    ctx: &Ctx,
    inputs: &Inputs,
    reports: &[SweepReport],
    reference: &[String],
    out: &mut Outcome,
    mut retries: u64,
    mut restarts: u64,
) {
    let cells = out.pass.cells;
    let mut traced_s = Vec::new();
    let mut traces = Vec::new();
    timed_passes(
        ctx.seconds / 2.0,
        2,
        || worker_pass(ctx, inputs, reference, true),
        |wall, log| {
            record_log(out, cells, &log);
            retries += log.retries;
            restarts += log.restarts;
            traces.extend(log.traces);
            traced_s.push(wall);
        },
    );

    // The same cells in process, for the per-cell control-plane cost.
    let mut in_process_s = Vec::new();
    timed_passes(
        0.0,
        3,
        || in_process(ctx, inputs),
        |wall, _| in_process_s.push(wall),
    );
    let overhead_us = (median(&out.pass_s) - median(&in_process_s)) / cells as f64 * 1e6;

    // Checkpoint appends and loads, and the worker protocol, timed
    // directly on the reference rows.
    let (mut append_ns, mut load_ns, mut protocol_ns) = (0u64, 0u64, 0u64);
    let mut protocol_ok = true;
    for (i, (report, plan)) in reports.iter().zip(&inputs.plans).enumerate() {
        let path: PathBuf = ctx.workdir.join(format!("append-{i}.sweepck"));
        let mut w = checkpoint::CheckpointWriter::create(&path, &plan.header())
            .expect("create a checkpoint");
        for (cell, row) in report.outcomes.iter().enumerate() {
            let record = CellRecord {
                cell: cell as u64,
                seed: cell_seed(plan.base_seed, cell as u64),
                status: CellStatus::Done,
                outcomes: vec![*row],
            };
            timed(&mut append_ns, || w.append(&record)).expect("append a checkpoint record");
            let back = timed(&mut protocol_ns, || {
                protocol::decode_response(&protocol::encode_done(cell as u64, &[*row]))
            });
            protocol_ok &= matches!(
                back,
                Ok(protocol::Response::Done { outcomes, .. })
                    if outcomes[0].fingerprint == row.fingerprint
                        && outcomes[0].rate.to_bits() == row.rate.to_bits()
            );
        }
        drop(w);
        let loaded = timed(&mut load_ns, || checkpoint::load(&path)).expect("load a checkpoint");
        protocol_ok &= loaded.records.len() == report.outcomes.len();
        let _ = std::fs::remove_file(&path);
    }
    out.check(protocol_ok, 0, || {
        "protocol or checkpoint round trip changed a row".into()
    });

    let sessions = 2 * (out.pass_s.len() + traced_s.len()) as u64 * inputs.plans.len() as u64;
    let mut m = vec![
        Metric::new("controlplane.cell_overhead_us", overhead_us, "us", cells)
            .note("(worker + checkpoint pass − in-process pass) / cells"),
        Metric::new(
            "controlplane.checkpoint_append_us",
            mean_scaled(append_ns as f64, cells, 1e-3),
            "us",
            cells,
        ),
        Metric::new(
            "controlplane.checkpoint_load_ms",
            mean_scaled(load_ns as f64, reports.len() as u64, 1e-6),
            "ms",
            reports.len() as u64,
        )
        .note(format!("{} records per file", inputs.agents.len())),
        Metric::new(
            "controlplane.protocol_us",
            mean_scaled(protocol_ns as f64, cells, 1e-3),
            "us",
            cells,
        )
        .note("encode_done + decode_response per cell"),
        Metric::new("controlplane.retries", retries as f64, "count", sessions),
        Metric::new(
            "controlplane.worker_restarts",
            restarts as f64,
            "count",
            sessions,
        ),
    ];
    m.extend(sweep_pool_metrics(&traces));
    m.push(overhead_ratio(
        &traced_s,
        &out.pass_s,
        "traced pass / untraced pass",
    ));
    out.layers = m;
}
