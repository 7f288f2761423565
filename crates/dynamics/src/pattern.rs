//! Communication patterns: the adversary's graph choices, round by round.
//!
//! A communication pattern (paper §2) is an infinite sequence of graphs
//! from the network model. [`PatternSource`] produces it lazily; the
//! proof adversaries of `consensus-valency` instead drive
//! [`crate::Execution::step`] directly, because their choices depend on
//! forked probe executions, not just on the round number.

use consensus_digraph::Digraph;
use consensus_netmodel::sampler::GraphSampler;

// The one Bernoulli-edge loop, for pattern generators built on this crate
// (the `consensus-dynet` adversaries) that do not depend on
// `consensus-netmodel` themselves.
pub use consensus_netmodel::sampler::bernoulli_edges;

/// A lazily generated communication pattern.
pub trait PatternSource {
    /// The graph for round `round` (1-based, matching the paper).
    fn next_graph(&mut self, round: u64) -> Digraph;
}

impl<P: PatternSource + ?Sized> PatternSource for &mut P {
    fn next_graph(&mut self, round: u64) -> Digraph {
        (**self).next_graph(round)
    }
}

/// The constant pattern `G, G, G, …`.
#[derive(Debug, Clone)]
pub struct ConstantPattern {
    g: Digraph,
}

impl ConstantPattern {
    /// Creates the constant pattern.
    #[must_use]
    pub fn new(g: Digraph) -> Self {
        ConstantPattern { g }
    }
}

impl PatternSource for ConstantPattern {
    fn next_graph(&mut self, _round: u64) -> Digraph {
        self.g.clone()
    }
}

/// A periodic pattern `G_1, …, G_k, G_1, …` (e.g. the σ_i macro-rounds
/// of §6 are `Ψ_i` repeated `n − 2` times).
#[derive(Debug, Clone)]
pub struct PeriodicPattern {
    graphs: Vec<Digraph>,
    pos: usize,
}

impl PeriodicPattern {
    /// Creates a periodic pattern from a non-empty graph sequence.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty.
    #[must_use]
    pub fn new(graphs: Vec<Digraph>) -> Self {
        assert!(!graphs.is_empty(), "periodic pattern needs ≥ 1 graph");
        PeriodicPattern { graphs, pos: 0 }
    }
}

impl PatternSource for PeriodicPattern {
    fn next_graph(&mut self, _round: u64) -> Digraph {
        let g = self.graphs[self.pos].clone();
        self.pos = (self.pos + 1) % self.graphs.len();
        g
    }
}

/// A finite prefix followed by a constant tail — the shape of the
/// valency probe continuations (Lemma 7: one round of `G`, then the
/// deaf graph `D_i` forever).
#[derive(Debug, Clone)]
pub struct SeqThenConstant {
    prefix: Vec<Digraph>,
    pos: usize,
    tail: Digraph,
}

impl SeqThenConstant {
    /// Creates the pattern `prefix · tail^ω`.
    #[must_use]
    pub fn new(prefix: Vec<Digraph>, tail: Digraph) -> Self {
        SeqThenConstant {
            prefix,
            pos: 0,
            tail,
        }
    }
}

impl PatternSource for SeqThenConstant {
    fn next_graph(&mut self, _round: u64) -> Digraph {
        if self.pos < self.prefix.len() {
            self.pos += 1;
            self.prefix[self.pos - 1].clone()
        } else {
            self.tail.clone()
        }
    }
}

/// An i.i.d. random pattern drawn from a [`GraphSampler`]
/// (uniform over a [`consensus_netmodel::NetworkModel`], or one of the
/// constructive samplers for predicate models).
pub struct RandomPattern<S> {
    sampler: S,
    rng: rand::rngs::StdRng,
}

impl<S: GraphSampler> RandomPattern<S> {
    /// Creates a reproducible random pattern with the given seed.
    #[must_use]
    pub fn new(sampler: S, seed: u64) -> Self {
        use rand::SeedableRng;
        RandomPattern {
            sampler,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }
}

impl<S: GraphSampler> PatternSource for RandomPattern<S> {
    fn next_graph(&mut self, _round: u64) -> Digraph {
        self.sampler.sample(&mut self.rng)
    }
}

impl<S> std::fmt::Debug for RandomPattern<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RandomPattern")
    }
}

/// A uniformly random walk over a
/// [`PatternAutomaton`](consensus_netmodel::property::PatternAutomaton) —
/// samples
/// patterns from a §6.1 property (e.g. `P_seq`, the σ-block property of
/// Theorem 3).
pub struct AutomatonPattern {
    automaton: consensus_netmodel::property::PatternAutomaton,
    state: usize,
    rng: rand::rngs::StdRng,
}

impl AutomatonPattern {
    /// Starts a reproducible random walk from the automaton's start
    /// state.
    #[must_use]
    pub fn new(automaton: consensus_netmodel::property::PatternAutomaton, seed: u64) -> Self {
        use rand::SeedableRng;
        let state = automaton.start();
        AutomatonPattern {
            automaton,
            state,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// The current automaton state (e.g. to detect block boundaries).
    #[must_use]
    pub fn state(&self) -> usize {
        self.state
    }
}

impl PatternSource for AutomatonPattern {
    fn next_graph(&mut self, _round: u64) -> Digraph {
        use rand::prelude::IndexedRandom;
        let (g, next) = self
            .automaton
            .choices(self.state)
            .choose(&mut self.rng)
            .expect("automaton states are total")
            .clone();
        self.state = next;
        g
    }
}

impl std::fmt::Debug for AutomatonPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AutomatonPattern(state={})", self.state)
    }
}

/// A pattern computed by a closure of the round number — handy for
/// one-off adversaries in tests and examples.
pub struct FnPattern<F>(pub F);

impl<F: FnMut(u64) -> Digraph> PatternSource for FnPattern<F> {
    fn next_graph(&mut self, round: u64) -> Digraph {
        (self.0)(round)
    }
}

impl<F> std::fmt::Debug for FnPattern<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FnPattern")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_digraph::families;
    use consensus_netmodel::NetworkModel;

    #[test]
    fn constant_repeats() {
        let g = Digraph::complete(3);
        let mut p = ConstantPattern::new(g.clone());
        for r in 1..=5 {
            assert_eq!(p.next_graph(r), g);
        }
    }

    #[test]
    fn periodic_wraps() {
        let [h0, h1, h2] = families::two_agent();
        let mut p = PeriodicPattern::new(vec![h0.clone(), h1.clone(), h2.clone()]);
        assert_eq!(p.next_graph(1), h0);
        assert_eq!(p.next_graph(2), h1);
        assert_eq!(p.next_graph(3), h2);
        assert_eq!(p.next_graph(4), h0);
    }

    #[test]
    fn seq_then_constant() {
        let [h0, h1, h2] = families::two_agent();
        let mut p = SeqThenConstant::new(vec![h0.clone(), h1.clone()], h2.clone());
        assert_eq!(p.next_graph(1), h0);
        assert_eq!(p.next_graph(2), h1);
        assert_eq!(p.next_graph(3), h2);
        assert_eq!(p.next_graph(4), h2);
    }

    #[test]
    fn random_pattern_is_reproducible() {
        let m = NetworkModel::two_agent();
        let mut a = RandomPattern::new(m.clone(), 42);
        let mut b = RandomPattern::new(m, 42);
        for r in 1..=10 {
            assert_eq!(a.next_graph(r), b.next_graph(r));
        }
    }

    #[test]
    fn automaton_pattern_respects_blocks() {
        use consensus_netmodel::property::PatternAutomaton;
        let n = 5;
        let a = PatternAutomaton::sigma_blocks(n);
        let mut p = AutomatonPattern::new(a.clone(), 3);
        // Collect 4 blocks worth of graphs; the prefix must be accepted.
        let graphs: Vec<Digraph> = (0..4 * (n - 2) as u64)
            .map(|r| p.next_graph(r + 1))
            .collect();
        assert!(a.accepts_prefix(&graphs));
        // Each block is constant: graphs within a block are equal.
        for b in 0..4 {
            let block = &graphs[b * (n - 2)..(b + 1) * (n - 2)];
            assert!(block.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn fn_pattern_sees_round_number() {
        let mut p = FnPattern(|round: u64| {
            if round.is_multiple_of(2) {
                Digraph::complete(2)
            } else {
                Digraph::empty(2)
            }
        });
        assert_eq!(p.next_graph(1), Digraph::empty(2));
        assert_eq!(p.next_graph(2), Digraph::complete(2));
    }
}
