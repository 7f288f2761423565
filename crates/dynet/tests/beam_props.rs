//! Property tests for the beam-search adaptive adversary: with nothing
//! pruned (width at least the whole digraph class, depth enough to
//! reach any rooted graph from `K_n` by single-edge toggles, no random
//! mutations) the beam **is** the exhaustive rooted argmax — for every
//! initial configuration, not just the spread the unit tests use. The
//! pooled scorer must also be invisible: any thread count, same bits.
//! And the incremental [`Lookahead`] score of every candidate equals
//! the score of a cloned execution stepped under it.

use consensus_algorithms::{Algorithm, AmortizedMidpoint, MeanValue, Midpoint, Point};
use consensus_digraph::Digraph;
use consensus_dynamics::{Execution, Scenario};
use consensus_dynet::{BeamSearch, ExhaustiveRooted, Lookahead};
use proptest::prelude::*;

fn inits(n: usize, raw: &[f64]) -> Vec<Point<1>> {
    (0..n).map(|i| Point([raw[i % raw.len()]])).collect()
}

/// Width that can never prune at `n ≤ 4` (≥ the full digraph count).
fn full_width(n: usize) -> usize {
    1 << (n * (n - 1))
}

fn drive_beam(n: usize, start: &[Point<1>], rounds: usize, threads: usize) -> Vec<Point<1>> {
    let mut sc = Scenario::new(Midpoint, start).adversary(
        BeamSearch::new(n, 7)
            .width(full_width(n))
            .depth(n * (n - 1))
            .mutations(0)
            .threads(threads),
    );
    sc.advance(rounds);
    sc.execution().outputs_slice().to_vec()
}

fn drive_exhaustive(n: usize, start: &[Point<1>], rounds: usize) -> Vec<Point<1>> {
    let mut sc = Scenario::new(Midpoint, start).adversary(ExhaustiveRooted::new(n));
    sc.advance(rounds);
    sc.execution().outputs_slice().to_vec()
}

/// splitmix64 step: the seeded stream the wave construction draws on.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded random digraph on `n` agents (edges with probability 1/2).
fn random_graph(n: usize, rng: &mut u64) -> Digraph {
    let masks: Vec<u64> = (0..n).map(|_| splitmix64(rng)).collect();
    Digraph::from_in_masks(&masks).expect("2 ≤ n ≤ 12")
}

/// One wave as the beam builds it: each parent (the clique, a deaf
/// graph and a random graph) spawns all of its single-edge toggles and
/// a few 2–3-edge mutants. Returns the parents and, per child, its
/// parent's index.
fn wave(n: usize, rng: &mut u64) -> (Vec<Digraph>, Vec<Digraph>, Vec<usize>) {
    let k = Digraph::complete(n);
    let deaf = k.make_deaf((splitmix64(rng) % n as u64) as usize);
    let parents = vec![k, deaf, random_graph(n, rng)];
    let (mut children, mut parent_of) = (Vec::new(), Vec::new());
    let toggle = |h: &mut Digraph, from: usize, to: usize| {
        if h.has_edge(from, to) {
            h.remove_edge(from, to);
        } else {
            h.add_edge(from, to);
        }
    };
    for (p, g) in parents.iter().enumerate() {
        for from in 0..n {
            for to in (0..n).filter(|&to| to != from) {
                let mut h = g.clone();
                toggle(&mut h, from, to);
                children.push(h);
                parent_of.push(p);
            }
        }
        for _ in 0..4 {
            let mut h = g.clone();
            for _ in 0..2 + splitmix64(rng) % 2 {
                let from = (splitmix64(rng) % n as u64) as usize;
                let to = (from + 1 + (splitmix64(rng) % (n as u64 - 1)) as usize) % n;
                toggle(&mut h, from, to);
            }
            children.push(h);
            parent_of.push(p);
        }
    }
    (parents, children, parent_of)
}

/// Runs `pre` rounds under random graphs, then checks that the
/// patched, full and pooled lookahead scores of every candidate of one
/// wave are bit-identical to clone + step + `value_diameter`.
fn assert_incremental_matches_clone<A, const D: usize>(alg: A, n: usize, pre: usize, seed: u64)
where
    A: Algorithm<D> + Clone,
    A::State: Sync,
    A::Msg: Sync,
{
    let mut rng = seed;
    let inits: Vec<Point<D>> = (0..n)
        .map(|_| {
            Point(std::array::from_fn(|_| {
                (splitmix64(&mut rng) % 1000) as f64 / 999.0
            }))
        })
        .collect();
    let mut exec = Execution::new(alg, &inits);
    for _ in 0..pre {
        exec.step(&random_graph(n, &mut rng));
    }
    let (parent_graphs, children, parent_of) = wave(n, &mut rng);
    let want: Vec<u64> = children
        .iter()
        .map(|g| {
            let mut fork = exec.clone();
            fork.step(g);
            fork.value_diameter().to_bits()
        })
        .collect();
    for threads in [1, 3] {
        let look = Lookahead::new(&exec, threads);
        let parents: Vec<_> = parent_graphs.iter().map(|g| look.parent(g)).collect();
        let bits = |scores: Vec<f64>| scores.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(look.score_children(&children, &parents, &parent_of)),
            want
        );
        assert_eq!(bits(look.score(&children)), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// **Incremental scoring is exact**: for random `n ≤ 12`, midpoint,
    /// mean-value and amortized midpoint, in one and two dimensions,
    /// after a few random rounds, every candidate's patched score has
    /// the bits of the clone-and-step score.
    #[test]
    fn incremental_score_equals_clone_and_step(
        n in 2usize..13,
        alg in 0usize..3,
        pre in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        match alg {
            0 => {
                assert_incremental_matches_clone::<_, 1>(Midpoint, n, pre, seed);
                assert_incremental_matches_clone::<_, 2>(Midpoint, n, pre, seed);
            }
            1 => {
                assert_incremental_matches_clone::<_, 1>(MeanValue, n, pre, seed);
                assert_incremental_matches_clone::<_, 2>(MeanValue, n, pre, seed);
            }
            _ => {
                let amortized = AmortizedMidpoint::new(n - 1);
                assert_incremental_matches_clone::<_, 1>(amortized, n, pre, seed);
                assert_incremental_matches_clone::<_, 2>(amortized, n, pre, seed);
            }
        }
    }

    /// **Unpruned beam ≡ exhaustive argmax** at `n ∈ {2, 3}` over
    /// arbitrary initial configurations, for several rounds of adaptive
    /// play, bit-for-bit on every agent value.
    #[test]
    fn full_width_beam_equals_exhaustive_small_n(
        n in 2usize..4,
        rounds in 1usize..4,
        raw in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let start = inits(n, &raw);
        let beam = drive_beam(n, &start, rounds, 1);
        let exact = drive_exhaustive(n, &start, rounds);
        for (a, b) in beam.iter().zip(exact.iter()) {
            prop_assert_eq!(a[0].to_bits(), b[0].to_bits());
        }
    }

    /// The same equivalence at `n = 4` (4096 candidate digraphs), with
    /// the beam scorer additionally run pooled: exhaustive, serial
    /// beam, and pooled beam all agree bit-for-bit.
    #[test]
    fn full_width_beam_equals_exhaustive_n4_pooled(
        rounds in 1usize..3,
        raw in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        let n = 4;
        let start = inits(n, &raw);
        let exact = drive_exhaustive(n, &start, rounds);
        for threads in [1, 4] {
            let beam = drive_beam(n, &start, rounds, threads);
            for (a, b) in beam.iter().zip(exact.iter()) {
                prop_assert_eq!(a[0].to_bits(), b[0].to_bits(), "threads={}", threads);
            }
        }
    }
}
