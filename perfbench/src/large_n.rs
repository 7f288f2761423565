//! `large_n_rounds`: single big `ShardedExecution`s on
//! `CsrDigraph::ring_lattice(n, 6)` at `nproc` threads. At `n = 10⁴` the
//! per-round pool fan-out dominates; at `n = 10⁶` the per-message kernel.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tight_bounds_consensus::prelude::*;

use crate::common::{
    now_ns, overhead_ratio, secs_since, timed_passes, timed_setup, Ctx, Digest, Metric, Outcome,
    PassStats,
};

/// `(n, rounds)`: many rounds at 10⁴, a few at 10⁶.
const SIZES: [(usize, u64, &str); 2] = [(10_000, 500, "n1e4"), (1_000_000, 8, "n1e6")];
/// In-neighbours per agent besides itself.
pub const LATTICE_K: usize = 6;

pub struct Inputs {
    graphs: Vec<CsrDigraph>,
    inits: Vec<Vec<f64>>,
}

fn setup(seed: u64) -> Inputs {
    let mut graphs = Vec::new();
    let mut inits = Vec::new();
    for (n, _, _) in SIZES {
        graphs.push(CsrDigraph::ring_lattice(n, LATTICE_K));
        let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
        inits.push((0..n).map(|_| rng.random_range(0.0..=1.0)).collect());
    }
    Inputs { graphs, inits }
}

/// One execution's result: digest of its final values, final diameter,
/// and the time spent in `step`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Run {
    values: u64,
    diameter: f64,
    step_ns: u64,
}

fn execute<K: ScalarKernel + Sync>(
    alg: K,
    inits: &[f64],
    g: &CsrDigraph,
    rounds: u64,
    threads: usize,
    timed: bool,
) -> Run {
    let mut exec = ShardedExecution::new(alg, inits).threads(threads);
    let mut step_ns = 0;
    for _ in 0..rounds {
        if timed {
            let t0 = now_ns();
            exec.step(g);
            step_ns += now_ns() - t0;
        } else {
            exec.step(g);
        }
    }
    let mut d = Digest::new();
    for v in exec.values() {
        d.push(v.to_bits());
    }
    Run {
        values: d.value(),
        diameter: exec.value_diameter(),
        step_ns,
    }
}

/// Every (size, algorithm) execution of one pass, in cell order.
fn pass(inputs: &Inputs, threads: usize, timed: bool) -> Vec<Run> {
    let mut runs = Vec::new();
    for (k, (_, rounds, _)) in SIZES.iter().enumerate() {
        let (g, x) = (&inputs.graphs[k], &inputs.inits[k]);
        runs.push(execute(Midpoint, x, g, *rounds, threads, timed));
        runs.push(execute(MeanValue, x, g, *rounds, threads, timed));
        runs.push(execute(
            SelfWeightedAverage::new(0.5),
            x,
            g,
            *rounds,
            threads,
            timed,
        ));
    }
    runs
}

const ALGS: usize = 3;

/// Checks a pass against the reference, plus validity: every kernel is
/// a convex combination, so the spread can only shrink.
fn check_pass(out: &mut Outcome, what: &str, inputs: &Inputs, reference: &[Run], got: &[Run]) {
    let mut bad = 0;
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        let x = &inputs.inits[i / ALGS];
        let (lo, hi) = det_min_max(x.iter().copied());
        let valid = g.diameter.is_finite() && g.diameter <= hi - lo;
        if r.values != g.values || r.diameter.to_bits() != g.diameter.to_bits() || !valid {
            bad += 1;
        }
    }
    out.attempted += reference.len() as u64;
    if bad > 0 {
        out.failed += bad;
        out.problems.push(format!(
            "{what}: {bad} executions differ from the serial reference"
        ));
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let make = || setup(ctx.seed);
    let inputs = timed_setup(&mut out, make);

    let reference = pass(&inputs, 1, false);
    check_pass(
        &mut out,
        "serial reference",
        &inputs,
        &reference,
        &reference,
    );
    let mut digest = Digest::new();
    for r in &reference {
        digest.push(r.values);
        digest.push(r.diameter.to_bits());
    }
    out.digest = digest.value();
    out.pass = PassStats {
        cells: reference.len() as u64,
        agent_updates: SIZES
            .iter()
            .map(|&(n, rounds, _)| (ALGS as u64 * n as u64 * rounds) as f64)
            .sum(),
    };

    timed_passes(
        ctx.untraced_seconds(),
        3,
        || pass(&inputs, ctx.budget.inner, false),
        |wall, runs| {
            check_pass(&mut out, "pooled pass", &inputs, &reference, &runs);
            out.pass_s.push(wall);
            timed_setup(&mut out, make);
        },
    );
    if ctx.trace {
        traced(ctx, &inputs, &reference, &mut out);
    }
    out
}

fn traced(ctx: &Ctx, inputs: &Inputs, reference: &[Run], out: &mut Outcome) {
    let mut traced_s = Vec::new();
    // step time per (size, thread setting), summed over algorithms.
    let mut step_ns = [[0u64; 2]; SIZES.len()];
    let mut rounds_seen = [[0u64; 2]; SIZES.len()];
    let start = now_ns();
    while traced_s.len() < 2 || secs_since(start) < ctx.seconds / 2.0 {
        for (t, threads) in [1, ctx.budget.inner].into_iter().enumerate() {
            let t0 = now_ns();
            let runs = pass(inputs, threads, true);
            if t == 1 {
                traced_s.push(secs_since(t0));
            }
            check_pass(out, "timed-step pass", inputs, reference, &runs);
            for (i, r) in runs.iter().enumerate() {
                step_ns[i / ALGS][t] += r.step_ns;
                rounds_seen[i / ALGS][t] += SIZES[i / ALGS].1;
            }
        }
    }
    let mut m = Vec::new();
    for (k, &(n, _, label)) in SIZES.iter().enumerate() {
        let rate = |t: usize| rounds_seen[k][t] as f64 * n as f64 / (step_ns[k][t] as f64 * 1e-9);
        let (r1, rn) = (rate(0), rate(1));
        m.push(Metric::new(
            format!("dynamics.updates_per_s.{label}.t1"),
            r1,
            "1/s",
            rounds_seen[k][0],
        ));
        m.push(
            Metric::new(
                format!("dynamics.updates_per_s.{label}.tN"),
                rn,
                "1/s",
                rounds_seen[k][1],
            )
            .note(format!("N = {}", ctx.budget.inner)),
        );
        m.push(
            Metric::new(
                format!("dynamics.parallel_efficiency.{label}"),
                rn / r1 / ctx.budget.inner as f64,
                "ratio",
                rounds_seen[k][1],
            )
            .note("(tN / t1) / N"),
        );
    }
    m.push(overhead_ratio(
        &traced_s,
        &out.pass_s,
        "per-step timed pass / untraced pass",
    ));
    out.layers = m;
}
