//! The large-`n` executor suite: the chunked `Execution` must reproduce
//! the serial dense run **bit for bit** on both topologies (`Digraph`
//! masks and `CsrDigraph` rows, any thread count, any chunk size), and
//! must run correctly *past* the old silent `n ≤ 64` inbox cap — a
//! 65+-agent scenario end-to-end, where the pre-`SenderSet` bitmask
//! would have silently dropped agent 64's messages.

use tight_bounds_consensus::prelude::*;

/// Deterministic, non-uniform, sign-mixed initial values.
fn inits(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 2_654_435_761 % 1_000_003) as f64) / 1_000_003.0 - 0.5)
        .collect()
}

/// Deterministic "random" dense digraph: splitmix-style per-agent
/// masks, self-loops enforced, restricted to `n` agents.
fn scrambled_digraph(n: usize, salt: u64) -> Digraph {
    let masks: Vec<u64> = (0..n)
        .map(|i| {
            let mut z = salt.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1));
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let valid = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
            (z & valid) | (1u64 << i)
        })
        .collect();
    Digraph::from_in_masks(&masks).expect("n validated")
}

fn check_identity<A: Algorithm<1> + Copy>(alg: A, n: usize, rounds: usize) {
    let vals = inits(n);
    let graphs: Vec<Digraph> = (0..rounds)
        .map(|r| scrambled_digraph(n, r as u64))
        .collect();
    let csrs: Vec<CsrDigraph> = graphs.iter().map(CsrDigraph::from_dense).collect();

    let mut serial = Execution::new(alg, &vals);
    for g in &graphs {
        serial.step(g);
    }
    let reference: Vec<u64> = serial.values().map(f64::to_bits).collect();

    for (threads, chunk) in [(1, usize::MAX), (2, 3), (7, 16), (13, 1)] {
        let mut mask = Execution::new(alg, &vals)
            .threads(threads)
            .chunk_size(chunk);
        let mut csr = Execution::new(alg, &vals)
            .threads(threads)
            .chunk_size(chunk);
        for (g, c) in graphs.iter().zip(&csrs) {
            mask.step(g);
            csr.step(c);
        }
        for (i, (m, c)) in mask.values().zip(csr.values()).enumerate() {
            assert_eq!(
                reference[i],
                m.to_bits(),
                "chunked mask path diverged: n={n} agent {i} threads={threads} chunk={chunk}"
            );
            assert_eq!(
                reference[i],
                c.to_bits(),
                "chunked CSR path diverged: n={n} agent {i} threads={threads} chunk={chunk}"
            );
        }
    }
}

#[test]
fn sharded_is_bit_identical_to_dense_midpoint() {
    for n in [1, 2, 23, 64] {
        check_identity(Midpoint, n, 12);
    }
}

#[test]
fn sharded_is_bit_identical_to_dense_mean_value() {
    for n in [3, 31, 64] {
        check_identity(MeanValue, n, 12);
    }
}

#[test]
fn sharded_is_bit_identical_to_dense_self_weighted() {
    for n in [5, 48, 64] {
        check_identity(SelfWeightedAverage::new(1.0 / 3.0), n, 12);
    }
}

#[test]
fn sharded_is_bit_identical_to_dense_stateful_rules() {
    // Tuple messages and non-`Point` states, which only the one generic
    // executor can chunk.
    for n in [7, 64] {
        check_identity(AmortizedMidpoint::new(3), n, 12);
        check_identity(TrimmedMean::new(1), n, 12);
    }
}

/// The headline regression: 65 agents end-to-end. On the complete
/// graph every agent hears all 65 values, so one midpoint round
/// reaches exact consensus at `(lo + hi) * 0.5` — a value that
/// **depends on agent 64's extreme input**. The old `u64`-mask inbox
/// silently dropped sender 64, which would shift the consensus value;
/// this asserts both convergence and the exact answer.
#[test]
fn sixty_five_agents_reach_exact_midpoint_consensus() {
    let n = 65;
    let mut vals = inits(n);
    vals[64] = 10.0; // the extreme value lives past the u64 cap
    let (lo, hi) = vals
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let expect = (lo + hi) * 0.5;

    let g = CsrDigraph::complete(n);
    let mut e = Execution::new(Midpoint, &vals).threads(4);
    e.step(&g);
    assert_eq!(e.round(), 1);
    assert_eq!(
        e.value_diameter(),
        0.0,
        "complete graph agrees in one round"
    );
    for (i, v) in e.values().enumerate() {
        assert_eq!(
            v.to_bits(),
            expect.to_bits(),
            "agent {i} must agree on the midpoint of ALL 65 inputs"
        );
    }
    assert!(
        (expect - 10.0).abs() > 1.0,
        "sanity: the answer visibly depends on agent 64's input"
    );
}

/// A longer 65+-agent run on a sparse topology with diameter-only
/// recording: converges under the decision tolerance, stays inside the
/// initial hull (validity), and the thin trace's scalars match the
/// executor's own measurements.
#[test]
fn large_sparse_scenario_converges_end_to_end() {
    let n = 130;
    let vals = inits(n);
    let (lo0, hi0) = vals
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let g = CsrDigraph::ring_lattice(n, 6);
    assert!(g.is_strongly_connected());
    let mut e = Execution::new(Midpoint, &vals).threads(4);
    let mut trace = DiameterTrace::new(e.value_diameter())
        .decimated(10)
        .ring(64);
    let tol = 1e-9;
    let mut decided = None;
    for r in 1..=20_000u64 {
        e.step(&g);
        trace.record(e.value_diameter());
        if e.value_diameter() <= tol {
            decided = Some(r);
            break;
        }
    }
    let decided = decided.expect("a strongly connected lattice must converge");
    assert_eq!(e.round(), decided);
    assert!(trace.converged(tol));
    assert_eq!(
        trace.final_diameter().to_bits(),
        e.value_diameter().to_bits()
    );
    for v in e.values() {
        assert!(
            v >= lo0 - 1e-12 && v <= hi0 + 1e-12,
            "validity: {v} escaped the initial interval [{lo0}, {hi0}]"
        );
    }
    assert!(
        trace.samples().count() <= 64,
        "ring retention bounds memory no matter the horizon"
    );
}

/// Byzantine faults past the cap: agent 64 lies two-facedly on a
/// 65-agent complete graph; the honest agents still converge into the
/// honest initial interval (the liar's value is clamped by midpoint
/// selection on each round's extremes).
#[test]
fn byzantine_agent_past_the_cap_is_survivable() {
    let n = 65;
    let vals = inits(n);
    let g = CsrDigraph::complete(n);
    let mut byz = WordSet::with_capacity(n);
    byz.insert(64);
    let mut e = Execution::new(SelfWeightedAverage::new(0.5), &vals).threads(3);
    let mut strategy = |round: u64, from: usize, to: usize| {
        debug_assert_eq!(from, 64);
        if (round + to as u64).is_multiple_of(2) {
            0.4
        } else {
            -0.4
        }
    };
    for _ in 0..200 {
        e.step_with_faults(&g, &byz, &mut strategy);
    }
    let honest: Vec<f64> = e.values().take(64).collect();
    let spread = honest.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
        - honest.iter().fold(f64::INFINITY, |m, &v| m.min(v));
    // A single liar among 64 honest in-neighbors can keep the honest
    // spread at a floor of about (1 − w) · |forge range| / 64 ≈ 0.006,
    // but never blow it up past that influence bound.
    assert!(
        spread < 0.01,
        "honest disagreement must stay under the single-liar influence bound (spread {spread})"
    );
    assert!(
        honest.iter().all(|&v| (-0.55..=0.55).contains(&v)),
        "honest values stay near the honest/forged range"
    );
    assert_eq!(
        e.values().last(),
        Some(vals[64]),
        "the liar's own state is frozen"
    );
}
