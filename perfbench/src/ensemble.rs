//! `ensemble_sweep`: a scaled averaging ensemble on `Sweep` at `nproc`
//! threads. Thousands of independent cells of very unequal cost: the
//! graph samplers, per-cell dispatch and the dense `Execution` are busy.

use consensus_bench::experiments::{measured_rate, run_ensemble, EnsembleSpec};
use tight_bounds_consensus::algorithms::diameter;
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::sweep::EnsembleCell;

use crate::common::{
    mean_scaled, now_ns, overhead_ratio, splitmix64, timed_passes, timed_setup, Ctx, Digest,
    Metric, Outcome, PassStats,
};
use crate::traced::{sweep_pool_metrics, wall_trace, SweepTrace, TimedPattern};

const AGENTS: [usize; 4] = [8, 16, 32, 64];
const CLASSES: [&str; 5] = ["complete", "cycle", "rooted", "nonsplit", "async_crash"];
/// Replicates per configuration: sized so one pass takes about a second
/// on two cores.
const REPLICATES: u64 = 24;

fn class_of(t: Topology) -> usize {
    match t {
        Topology::Complete => 0,
        Topology::Cycle => 1,
        Topology::Rooted { .. } => 2,
        Topology::Nonsplit { .. } => 3,
        Topology::AsyncCrash { .. } | Topology::Psi => 4,
    }
}

fn spec(seed: u64) -> EnsembleSpec {
    let mut s = seed ^ 0x656E_7365_6D62_6C65;
    EnsembleSpec {
        name: "perf_ensemble".into(),
        grid: EnsembleGrid::new()
            .agents(&AGENTS)
            .topologies(&[
                Topology::Complete,
                Topology::Cycle,
                Topology::Rooted { density: 0.15 },
                Topology::Nonsplit { density: 0.2 },
                Topology::AsyncCrash { f: 1 },
            ])
            .inits(&[
                InitDist::Spread,
                InitDist::Uniform,
                InitDist::Bipolar,
                InitDist::Outlier,
            ])
            .params(&[0.2, 0.5])
            .replicates(REPLICATES),
        base_seed: splitmix64(&mut s),
        tol: 1e-6,
        max_rounds: 600,
    }
}

/// Compares one pass's outcomes with the reference cell by cell; every
/// rate must also be a finite contraction in `[0, 1]`.
fn check_pass(out: &mut Outcome, what: &str, reference: &[CellOutcome], got: &[CellOutcome]) {
    let bad = if got.len() == reference.len() {
        reference
            .iter()
            .zip(got)
            .filter(|(r, g)| {
                r.fingerprint != g.fingerprint
                    || r.rate.to_bits() != g.rate.to_bits()
                    || r.rounds != g.rounds
                    || r.decision_round != g.decision_round
                    || !(0.0..=1.0).contains(&g.rate)
            })
            .count()
    } else {
        reference.len()
    };
    out.attempted += reference.len() as u64;
    if bad > 0 {
        out.failed += bad as u64;
        out.problems.push(format!(
            "{what}: {bad} cells differ from the serial reference"
        ));
    }
}

/// What the traced cell runner measures besides the outcome.
struct CellTiming {
    n: usize,
    class: usize,
    sample_ns: u64,
    samples: u64,
    advance_ns: u64,
    rounds: u64,
}

/// `run_ensemble_cell`, advanced one round at a time with the pattern
/// wrapped in a sampling timer. The outcome must equal the untraced
/// cell's bit for bit.
fn traced_cell(
    cell: &EnsembleCell,
    ctx: CellCtx,
    tol: f64,
    max_rounds: usize,
) -> (CellOutcome, CellTiming) {
    let inits = cell.inits(&mut ctx.rng());
    let d0 = diameter(&inits);
    let pattern = TimedPattern {
        inner: cell.pattern(ctx.subseed(1)),
        ns: 0,
        calls: 0,
    };
    let mut sc = Scenario::new(SelfWeightedAverage::new(cell.param), &inits)
        .pattern(pattern)
        .decide(tol);
    let mut advance_ns = 0;
    while sc.execution().round() < max_rounds as u64 {
        let t0 = now_ns();
        let stepped = sc.advance(1);
        advance_ns += now_ns() - t0;
        if stepped == 0 {
            break;
        }
    }
    // Settles the decision exactly as the untraced runner does; no
    // round is left to run here.
    let decision = sc.decision_round(max_rounds);
    let exec = sc.execution();
    let rounds = exec.round();
    let outcome = CellOutcome {
        rate: measured_rate(d0, exec.value_diameter(), rounds),
        decision_round: decision,
        rounds,
        converged: decision.is_some(),
        fingerprint: tight_bounds_consensus::sweep::fingerprint(exec.outputs_slice()),
    };
    let timing = CellTiming {
        n: cell.n,
        class: class_of(cell.topology),
        sample_ns: sc.driver().0.ns,
        samples: sc.driver().0.calls,
        advance_ns,
        rounds,
    };
    (outcome, timing)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let setup = || {
        let spec = spec(ctx.seed);
        let cells = spec.grid.cells();
        (spec, cells)
    };
    let (spec, cells) = timed_setup(&mut out, setup);

    // Serial reference: every pooled pass must reproduce it cell for cell.
    let reference = run_ensemble(&spec, Some(1)).outcomes;
    let mut digest = Digest::new();
    for o in &reference {
        digest.push(o.fingerprint);
        digest.push(o.rate.to_bits());
    }
    out.digest = digest.value();
    out.pass = PassStats {
        cells: reference.len() as u64,
        agent_updates: reference
            .iter()
            .zip(&cells)
            .map(|(o, c)| o.rounds as f64 * c.n as f64)
            .sum(),
    };

    timed_passes(
        ctx.untraced_seconds(),
        3,
        || run_ensemble(&spec, Some(ctx.budget.outer)),
        |wall, report| {
            check_pass(&mut out, "pooled pass", &reference, &report.outcomes);
            out.pass_s.push(wall);
            timed_setup(&mut out, setup);
        },
    );
    if ctx.trace {
        traced(ctx, &spec, &reference, &mut out);
    }
    out
}

fn traced(ctx: &Ctx, spec: &EnsembleSpec, reference: &[CellOutcome], out: &mut Outcome) {
    let (tol, max_rounds) = (spec.tol, spec.max_rounds);
    let mut calls = Vec::new();
    let mut traced_s = Vec::new();
    let mut timings: Vec<CellTiming> = Vec::new();
    let mut cell_ns_total = 0u64;
    timed_passes(
        ctx.seconds / 2.0,
        2,
        || {
            let trace = wall_trace();
            let sweep = Sweep::new(spec.grid.cells())
                .seed(spec.base_seed)
                .threads(ctx.budget.outer)
                .trace(trace.clone());
            let rows = sweep.run(|cell, c| traced_cell(cell, c, tol, max_rounds));
            (trace, rows)
        },
        |wall, (trace, rows)| {
            let (outcomes, t): (Vec<CellOutcome>, Vec<CellTiming>) = rows.into_iter().unzip();
            check_pass(out, "traced pass", reference, &outcomes);
            let stream = trace.merged();
            cell_ns_total += stream.counter_total("pool_cell_ns");
            calls.push(SweepTrace {
                stream,
                workers: ctx.budget.outer,
                wall_ns: (wall * 1e9) as u64,
            });
            traced_s.push(wall);
            timings.extend(t);
        },
    );
    let mut m = Vec::new();
    let mut sample_ns_total = 0u64;
    for (k, class) in CLASSES.iter().enumerate() {
        let (ns, calls_k) = timings
            .iter()
            .filter(|t| t.class == k)
            .fold((0u64, 0u64), |a, t| (a.0 + t.sample_ns, a.1 + t.samples));
        sample_ns_total += ns;
        m.push(Metric::new(
            format!("netmodel.sample_ns.{class}"),
            mean_scaled(ns as f64, calls_k, 1.0),
            "ns",
            calls_k,
        ));
    }
    m.push(
        Metric::new(
            "netmodel.sample_share",
            if cell_ns_total > 0 {
                sample_ns_total as f64 / cell_ns_total as f64
            } else {
                0.0
            },
            "ratio",
            timings.len() as u64,
        )
        .note("graph sampling time / cell time"),
    );
    for n in AGENTS {
        let (ns, rounds) = timings
            .iter()
            .filter(|t| t.n == n)
            .fold((0u64, 0u64), |a, t| {
                (a.0 + (t.advance_ns - t.sample_ns), a.1 + t.rounds)
            });
        m.push(Metric::new(
            format!("dynamics.step_us.dense.n{n}"),
            mean_scaled(ns as f64, rounds, 1e-3),
            "us",
            rounds,
        ));
    }
    m.extend(sweep_pool_metrics(&calls));
    m.push(overhead_ratio(
        &traced_s,
        &out.pass_s,
        "traced pass / untraced pass",
    ));
    out.layers = m;
}
