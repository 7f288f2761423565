//! `adversary_search`: a fixed list of adaptive-adversary cells on a
//! one-thread outer sweep, with every candidate fork pool at `nproc`.
//! Nearly all the time is beam candidate scoring.

use consensus_bench::advsearch::{
    adversary_checks, run_adversary, run_adversary_cell_traced, AdvCell, AdversarySpec,
    ADV_BEAM_SEED,
};
use consensus_bench::experiments::spread_inits;
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::sweep::fingerprint;

use crate::common::{
    mean_scaled, median, overhead_ratio, splitmix64, timed_passes, timed_setup, Ctx, Digest,
    Metric, Outcome, PassStats,
};
use crate::traced::{sweep_pool_metrics, wall_trace, SweepTrace, TimedDriver};

/// The cell list in canonical (digest) order. `threads` is the inner
/// fork budget; serial/pooled pairs must agree bit for bit.
fn cells(threads: usize) -> Vec<AdvCell> {
    vec![
        AdvCell::Theorem2 {
            n: 4,
            steps: 16,
            threads: 1,
        },
        AdvCell::Theorem2 {
            n: 4,
            steps: 16,
            threads,
        },
        AdvCell::Theorem3 { n: 6, steps: 8 },
        AdvCell::DiameterMaxDeaf {
            n: 16,
            rounds: 40,
            threads: 1,
        },
        AdvCell::DiameterMaxDeaf {
            n: 16,
            rounds: 40,
            threads,
        },
        AdvCell::BeamFullWidth { n: 4, rounds: 6 },
        AdvCell::Exhaustive { n: 4, rounds: 6 },
        AdvCell::BeamLarge {
            n: 16,
            rounds: 8,
            width: 6,
            depth: 3,
            mutations: 4,
            threads,
        },
        AdvCell::BeamLarge {
            n: 24,
            rounds: 6,
            width: 4,
            depth: 2,
            mutations: 2,
            threads,
        },
    ]
}

/// The seeded input: the cell list in a seed-chosen order, and for each
/// position the cell's canonical index.
fn setup(seed: u64, threads: usize) -> (AdversarySpec, Vec<usize>) {
    let canonical = cells(threads);
    let mut order: Vec<usize> = (0..canonical.len()).collect();
    let mut s = seed ^ 0x6164_7665_7273_6172;
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut s) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let spec = AdversarySpec {
        name: "perf_adversary_search".into(),
        cells: order.iter().map(|&k| canonical[k]).collect(),
        base_seed: ADV_BEAM_SEED,
    };
    // Labels build each cell's probe family: part of preparing the grid.
    let labels: Vec<String> = spec.cells.iter().map(AdvCell::label).collect();
    assert_eq!(labels.len(), order.len());
    (spec, order)
}

/// Agents of a cell (for the agent-update count).
fn agents(cell: &AdvCell) -> usize {
    match *cell {
        AdvCell::Theorem1 { .. } => 2,
        AdvCell::Theorem2 { n, .. }
        | AdvCell::DeafValency { n, .. }
        | AdvCell::Theorem3 { n, .. }
        | AdvCell::DiameterMaxDeaf { n, .. }
        | AdvCell::BeamFullWidth { n, .. }
        | AdvCell::Exhaustive { n, .. }
        | AdvCell::BeamLarge { n, .. } => n,
    }
}

fn same(a: &CellOutcome, b: &CellOutcome) -> bool {
    a.fingerprint == b.fingerprint && a.rate.to_bits() == b.rate.to_bits() && a.rounds == b.rounds
}

/// Checks a pass: every `adversary_checks` row holds and every cell
/// reproduces the reference.
fn check_pass(
    out: &mut Outcome,
    what: &str,
    spec: &AdversarySpec,
    reference: &[CellOutcome],
    got: &SweepReport,
) {
    let broken: Vec<String> = adversary_checks(spec, got)
        .into_iter()
        .filter(|(_, ok)| !ok)
        .map(|(d, _)| d)
        .collect();
    let differ = reference
        .iter()
        .zip(&got.outcomes)
        .filter(|(r, g)| !same(r, g))
        .count();
    let bad = if broken.is_empty() {
        differ
    } else {
        reference.len()
    };
    out.attempted += reference.len() as u64;
    if bad > 0 {
        out.failed += bad as u64;
        out.problems.push(format!(
            "{what}: {differ} cells differ from the reference; broken checks: {broken:?}"
        ));
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let make = || setup(ctx.seed, ctx.budget.inner);
    let (spec, order) = timed_setup(&mut out, make);

    let reference = run_adversary(&spec, Some(1));
    check_pass(
        &mut out,
        "reference pass",
        &spec,
        &reference.outcomes,
        &reference,
    );
    let mut canonical: Vec<(usize, &CellOutcome)> =
        order.iter().copied().zip(&reference.outcomes).collect();
    canonical.sort_by_key(|&(k, _)| k);
    let mut digest = Digest::new();
    for (_, o) in canonical {
        digest.push(o.fingerprint);
        digest.push(o.rate.to_bits());
    }
    out.digest = digest.value();
    out.pass = PassStats {
        cells: spec.cells.len() as u64,
        agent_updates: spec
            .cells
            .iter()
            .zip(&reference.outcomes)
            .map(|(c, o)| o.rounds as f64 * agents(c) as f64)
            .sum(),
    };

    timed_passes(
        ctx.untraced_seconds(),
        3,
        || run_adversary(&spec, Some(ctx.budget.outer)),
        |wall, report| {
            check_pass(&mut out, "timed pass", &spec, &reference.outcomes, &report);
            out.pass_s.push(wall);
            timed_setup(&mut out, make);
        },
    );
    if ctx.trace {
        traced(ctx, &spec, &reference.outcomes, &mut out);
    }
    out
}

/// A beam cell driven through a timing wrapper around its
/// `BeamSearch`, reproducing `run_adversary_cell`'s outcome (mean
/// per-round contraction ratio) so the result is checked against it.
fn timed_beam_cell(cell: &AdvCell, shard: u64, trace: &TraceHandle) -> (CellOutcome, u64, u64) {
    let (n, rounds, beam, mean_value) = match *cell {
        AdvCell::BeamFullWidth { n, rounds } => (
            n,
            rounds,
            BeamSearch::new(n, ADV_BEAM_SEED)
                .width(1 << (n * (n - 1)))
                .depth(n * (n - 1))
                .mutations(0),
            false,
        ),
        AdvCell::BeamLarge {
            n,
            rounds,
            width,
            depth,
            mutations,
            threads,
        } => (
            n,
            rounds,
            BeamSearch::new(n, ADV_BEAM_SEED)
                .width(width)
                .depth(depth)
                .mutations(mutations)
                .threads(threads),
            true,
        ),
        _ => unreachable!("only beam cells are wrapped"),
    };
    let driver = TimedDriver {
        inner: beam.trace(trace.clone(), shard),
        ns: 0,
        calls: 0,
    };
    if mean_value {
        drive(
            Scenario::new(MeanValue, &spread_inits(n)).adversary(driver),
            rounds,
        )
    } else {
        drive(
            Scenario::new(Midpoint, &spread_inits(n)).adversary(driver),
            rounds,
        )
    }
}

fn drive<A: Algorithm<1> + Clone + Sync, Dr: scenario::Driver<A, 1>>(
    mut sc: Scenario<A, TimedDriver<Dr>, 1>,
    rounds: usize,
) -> (CellOutcome, u64, u64) {
    const FLOOR: f64 = 1e-300;
    let mut ratios = Vec::new();
    let mut prev = sc.execution().value_diameter();
    while sc.execution().round() < rounds as u64 {
        sc.advance(1);
        let d = sc.execution().value_diameter();
        if prev > FLOOR && d > FLOOR {
            ratios.push(d / prev);
        }
        prev = d;
    }
    let exec = sc.execution();
    let outcome = CellOutcome {
        rate: Stats::from_values(&ratios).map_or(0.0, |s| s.mean),
        decision_round: None,
        rounds: exec.round(),
        converged: true,
        fingerprint: fingerprint(exec.outputs_slice()),
    };
    (outcome, sc.driver().ns, sc.driver().calls)
}

fn traced(ctx: &Ctx, spec: &AdversarySpec, reference: &[CellOutcome], out: &mut Outcome) {
    let mut calls = Vec::new();
    let mut traced_s = Vec::new();
    let (mut next_block_ns, mut next_block_calls) = (0u64, 0u64);
    let (mut beam_candidates, mut probe_candidates) = (Vec::new(), Vec::new());
    let mut probe_step_ms = Vec::new();
    timed_passes(
        ctx.seconds / 2.0,
        2,
        || {
            let trace = wall_trace();
            let sweep = Sweep::new(spec.cells.clone())
                .seed(spec.base_seed)
                .threads(ctx.budget.outer)
                .trace(trace.clone());
            let rows = sweep.run(|cell, c| match cell {
                AdvCell::BeamFullWidth { .. } | AdvCell::BeamLarge { .. } => {
                    timed_beam_cell(cell, c.index as u64, &trace)
                }
                _ => (run_adversary_cell_traced(cell, c, &trace), 0, 0),
            });
            (trace, rows)
        },
        |wall, (trace, rows)| {
            let mut outcomes = Vec::new();
            for (o, ns, k) in rows {
                outcomes.push(o);
                next_block_ns += ns;
                next_block_calls += k;
            }
            let report = SweepReport::new(
                spec.name.clone(),
                spec.base_seed,
                spec.cells.iter().map(AdvCell::label).collect(),
                vec![0; spec.cells.len()],
                outcomes,
            );
            check_pass(out, "traced pass", spec, reference, &report);
            let stream = trace.merged();
            beam_candidates.push(stream.counter_total("beam_candidates"));
            probe_candidates.push(stream.counter_total("probe_candidates"));
            probe_step_ms.extend(
                stream
                    .span_durations_ns("probe_step")
                    .iter()
                    .map(|&ns| ns as f64 * 1e-6),
            );
            calls.push(SweepTrace {
                stream,
                workers: ctx.budget.outer,
                wall_ns: (wall * 1e9) as u64,
            });
            traced_s.push(wall);
        },
    );
    // The counts are a pure function of the cell list: every pass must
    // report the same ones.
    let steady = beam_candidates.windows(2).all(|w| w[0] == w[1])
        && probe_candidates.windows(2).all(|w| w[0] == w[1]);
    out.check(steady, 0, || {
        format!("candidate counts moved between passes: beam {beam_candidates:?}, probe {probe_candidates:?}")
    });
    let passes = traced_s.len() as u64;
    let traced_total: f64 = traced_s.iter().sum();
    let candidates = beam_candidates[0];
    let mut m = vec![
        Metric::new("dynet.beam.candidates", candidates as f64, "count", passes)
            .note("per pass; must repeat exactly"),
        Metric::new(
            "dynet.beam.candidates_per_s",
            if next_block_ns > 0 {
                (candidates * passes) as f64 / (next_block_ns as f64 * 1e-9)
            } else {
                0.0
            },
            "1/s",
            next_block_calls,
        ),
        Metric::new(
            "dynet.beam.next_block_ms",
            mean_scaled(next_block_ns as f64, next_block_calls, 1e-6),
            "ms",
            next_block_calls,
        ),
        Metric::new(
            "dynet.beam.share",
            next_block_ns as f64 * 1e-9 / traced_total,
            "ratio",
            passes,
        )
        .note("beam next_block time / pass wall time"),
        Metric::new(
            "valency.probe_candidates",
            probe_candidates[0] as f64,
            "count",
            passes,
        )
        .note("per pass; must repeat exactly"),
        Metric::new(
            "valency.step_ms",
            if probe_step_ms.is_empty() {
                0.0
            } else {
                median(&probe_step_ms)
            },
            "ms",
            probe_step_ms.len() as u64,
        )
        .note("median probe_step span"),
    ];
    m.extend(sweep_pool_metrics(&calls));
    m.push(overhead_ratio(
        &traced_s,
        &out.pass_s,
        "traced pass / untraced pass",
    ));
    out.layers = m;
}
