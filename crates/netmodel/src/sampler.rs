//! Random communication-graph generators for predicate-defined models.
//!
//! The paper's largest models (`rooted(n)`, `nonsplit(n)`, `N_A(n,f)`)
//! have `2^{Θ(n²)}` members, so for `n > 4` the dynamics layer samples
//! graphs instead of enumerating them. Samplers draw from the *class*
//! (every output provably satisfies the predicate) but not uniformly;
//! this is fine for the reproduction because the paper's bounds are
//! worst-case over the adversary, and worst-case patterns are generated
//! by the explicit proof adversaries, not by sampling. Random patterns
//! only provide typical-case context in experiment grids and examples.
//!
//! # Stream contract
//!
//! Every sampled graph is a pure function of the RNG words it consumes,
//! and the goldens pin those words. The Bernoulli edges of
//! [`RootedSampler`], [`NonsplitSampler`] and [`bernoulli_edges`] consume
//! exactly one `next_u64` per ordered pair `(from, to)` with
//! `from != to`, in `(from, to)` lexicographic order, whatever the
//! density (0 and 1 included); the pair is an edge iff the word passes
//! `Rng::random_bool(p)`. They fetch those words one out-row at a time
//! through [`rand::RngCore::fill_u64`], which yields the same words as
//! successive `next_u64` calls.

use consensus_digraph::{families, AgentSet, Digraph, MAX_AGENTS};
use rand::prelude::IndexedRandom;
use rand::{Rng, RngCore};

/// Adds each edge `(from, to)`, `from != to`, of the `masks.len()` agents
/// independently with probability `p`: sets bit `from` of `masks[to]`.
///
/// `masks` are in-neighborhood masks, as in [`Digraph::from_in_masks`].
/// It keeps the module's stream contract, so the masks and the stream
/// position afterwards equal those of a per-pair `random_bool(p)` loop.
/// It draws each out-row with one [`RngCore::fill_u64`] call and tests
/// each word against the integer threshold `ceil(p·2⁵³)`: for
/// `x = word >> 11 < 2⁵³`, `x·2⁻⁵³ < p ⟺ x < ceil(p·2⁵³)`, and `p·2⁵³`
/// is exact.
///
/// # Panics
///
/// Panics if `masks.len() > 64` or `p ∉ [0, 1]`.
pub fn bernoulli_edges(masks: &mut [AgentSet], p: f64, rng: &mut dyn RngCore) {
    let n = masks.len();
    assert!(n <= MAX_AGENTS, "at most 64 agents");
    assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
    // At most 2⁵³ (p = 1), so every word passes then.
    let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
    let mut words = [0u64; MAX_AGENTS - 1];
    for from in 0..n {
        let row = &mut words[..n - 1];
        rng.fill_u64(row);
        // The row's words go to every `to` but `from`, in order.
        let (below, above) = masks.split_at_mut(from);
        let (words_below, words_above) = row.split_at(from);
        for (targets, words) in [(below, words_below), (&mut above[1..], words_above)] {
            for (mask, &w) in targets.iter_mut().zip(words) {
                *mask |= AgentSet::from((w >> 11) < threshold) << from;
            }
        }
    }
}

/// The in-masks of the edgeless graph (self-loops only), in a stack
/// table a sampler fills before building its [`Digraph`]; a sampler on
/// `n` agents uses the first `n`.
fn self_loops() -> [AgentSet; MAX_AGENTS] {
    std::array::from_fn(|i| 1 << i)
}

/// A source of communication graphs on `n` agents.
///
/// Implemented both by exhaustive models (uniform choice) and by the
/// constructive random generators below.
pub trait GraphSampler {
    /// The number of agents of every sampled graph.
    fn n(&self) -> usize;

    /// Samples one communication graph.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> Digraph;
}

impl GraphSampler for crate::NetworkModel {
    fn n(&self) -> usize {
        self.n()
    }

    /// Uniform choice among the model's graphs.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> Digraph {
        self.graphs()
            .choose(rng)
            .expect("models are non-empty")
            .clone()
    }
}

/// Samples a **rooted** digraph: a random spanning tree from a random
/// root, plus independent extra edges with probability `density`.
#[derive(Debug, Clone)]
pub struct RootedSampler {
    n: usize,
    density: f64,
}

impl RootedSampler {
    /// Creates a sampler for rooted graphs on `n` agents; `density` is the
    /// probability of each non-tree edge (0 ⇒ bare trees, 1 ⇒ complete).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > 64`, or `density ∉ \[0, 1\]`.
    #[must_use]
    pub fn new(n: usize, density: f64) -> Self {
        assert!((1..=64).contains(&n));
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        RootedSampler { n, density }
    }
}

impl GraphSampler for RootedSampler {
    fn n(&self) -> usize {
        self.n
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> Digraph {
        let n = self.n;
        let mut masks = self_loops();
        // Random spanning tree: random insertion order, attach each agent
        // to a uniformly random already-attached agent.
        let mut order: [usize; MAX_AGENTS] = std::array::from_fn(|i| i);
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for pos in 1..n {
            let parent = order[rng.random_range(0..pos)];
            masks[order[pos]] |= 1 << parent;
        }
        // Extra edges.
        bernoulli_edges(&mut masks[..n], self.density, rng);
        let g = Digraph::from_in_masks(&masks[..n]).expect("1..=64 agents");
        debug_assert!(g.is_rooted());
        g
    }
}

/// Samples a **non-split** digraph: a random graph repaired by giving any
/// in-disjoint pair a fresh common in-neighbor.
///
/// The repair loop terminates because each fix strictly grows two in-sets.
#[derive(Debug, Clone)]
pub struct NonsplitSampler {
    n: usize,
    density: f64,
}

impl NonsplitSampler {
    /// Creates a sampler for non-split graphs on `n` agents with base
    /// edge probability `density`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > 64`, or `density ∉ \[0, 1\]`.
    #[must_use]
    pub fn new(n: usize, density: f64) -> Self {
        assert!((1..=64).contains(&n));
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        NonsplitSampler { n, density }
    }
}

impl GraphSampler for NonsplitSampler {
    fn n(&self) -> usize {
        self.n
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> Digraph {
        let n = self.n;
        let mut masks = self_loops();
        bernoulli_edges(&mut masks[..n], self.density, rng);
        // Repair: every pair of agents needs a common in-neighbor.
        for i in 0..n {
            for j in (i + 1)..n {
                if masks[i] & masks[j] == 0 {
                    let k: usize = rng.random_range(0..n);
                    masks[i] |= 1 << k;
                    masks[j] |= 1 << k;
                }
            }
        }
        let g = Digraph::from_in_masks(&masks[..n]).expect("1..=64 agents");
        debug_assert!(g.is_nonsplit());
        g
    }
}

/// Samples from the asynchronous-crash class `N_A(n, f)`: each agent
/// independently "misses" up to `f` uniformly chosen senders.
#[derive(Debug, Clone)]
pub struct AsyncCrashSampler {
    n: usize,
    f: usize,
}

impl AsyncCrashSampler {
    /// Creates a sampler for `N_A(n, f)`.
    ///
    /// # Panics
    ///
    /// Panics if `f == 0` or `f ≥ n`.
    #[must_use]
    pub fn new(n: usize, f: usize) -> Self {
        assert!(f >= 1 && f < n, "need 0 < f < n");
        AsyncCrashSampler { n, f }
    }
}

impl GraphSampler for AsyncCrashSampler {
    fn n(&self) -> usize {
        self.n
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> Digraph {
        let n = self.n;
        let mut g = Digraph::complete(n);
        for i in 0..n {
            // Drop up to f incoming edges (never the self-loop).
            let drops = rng.random_range(0..=self.f);
            for _ in 0..drops {
                let j = rng.random_range(0..n);
                if j != i {
                    g.remove_edge(j, i);
                }
            }
        }
        debug_assert!((0..n).all(|i| g.in_degree(i) >= n - self.f));
        g
    }
}

/// Samples uniformly from a fixed slice of graphs (e.g. a hand-picked
/// sub-model); panics if empty.
#[derive(Debug, Clone)]
pub struct ChoiceSampler {
    graphs: Vec<Digraph>,
}

impl ChoiceSampler {
    /// Creates a sampler over an explicit set of graphs.
    ///
    /// # Panics
    ///
    /// Panics if `graphs` is empty or sizes are mixed.
    #[must_use]
    pub fn new(graphs: Vec<Digraph>) -> Self {
        assert!(!graphs.is_empty(), "ChoiceSampler needs at least one graph");
        let n = graphs[0].n();
        assert!(graphs.iter().all(|g| g.n() == n), "mixed graph sizes");
        ChoiceSampler { graphs }
    }

    /// The Ψ-model sampler for `n ≥ 4` agents.
    #[must_use]
    pub fn psi(n: usize) -> Self {
        Self::new(families::psi_family(n).to_vec())
    }
}

impl GraphSampler for ChoiceSampler {
    fn n(&self) -> usize {
        self.graphs[0].n()
    }

    fn sample(&self, rng: &mut dyn rand::RngCore) -> Digraph {
        self.graphs.choose(rng).expect("non-empty").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The densities of the bit-identity tests: both ends, the smallest
    /// useful probability, the ensemble densities and the largest double
    /// below 1.
    const DENSITIES: [f64; 7] = [0.0, 1e-300, 0.15, 0.2, 0.5, 1.0 - f64::EPSILON / 2.0, 1.0];

    /// The per-pair `random_bool` loop that [`bernoulli_edges`] batches.
    fn reference_edges(g: &mut Digraph, p: f64, rng: &mut dyn RngCore) {
        let n = g.n();
        for from in 0..n {
            for to in 0..n {
                if from != to && rng.random_bool(p) {
                    g.add_edge(from, to);
                }
            }
        }
    }

    /// [`RootedSampler::sample`] with one `random_bool` per pair: the
    /// reference the batched sampler must match.
    fn reference_rooted(n: usize, density: f64, rng: &mut dyn RngCore) -> Digraph {
        let mut g = Digraph::empty(n);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for (pos, &i) in order.iter().enumerate().skip(1) {
            let p = order[rng.random_range(0..pos)];
            g.add_edge(p, i);
        }
        reference_edges(&mut g, density, rng);
        g
    }

    /// [`NonsplitSampler::sample`] with one `random_bool` per pair: the
    /// reference the batched sampler must match.
    fn reference_nonsplit(n: usize, density: f64, rng: &mut dyn RngCore) -> Digraph {
        let mut g = Digraph::empty(n);
        reference_edges(&mut g, density, rng);
        for i in 0..n {
            for j in (i + 1)..n {
                if g.in_mask(i) & g.in_mask(j) == 0 {
                    let k = rng.random_range(0..n);
                    g.add_edge(k, i);
                    g.add_edge(k, j);
                }
            }
        }
        g
    }

    /// Asserts that `sampler` and `reference` emit the same graph from the
    /// same seed and leave the stream at the same position, for every
    /// size and density.
    fn assert_matches_reference(
        sampler: impl Fn(usize, f64) -> Box<dyn GraphSampler>,
        reference: fn(usize, f64, &mut dyn RngCore) -> Digraph,
    ) {
        for n in 1..=64 {
            for density in DENSITIES {
                let s = sampler(n, density);
                for seed in [1, 2, 0xC0FFEE] {
                    let mut fast = StdRng::seed_from_u64(seed);
                    let mut slow = StdRng::seed_from_u64(seed);
                    for _ in 0..2 {
                        assert_eq!(
                            s.sample(&mut fast),
                            reference(n, density, &mut slow),
                            "n={n} density={density} seed={seed}"
                        );
                        assert_eq!(fast.next_u64(), slow.next_u64(), "stream position");
                    }
                }
            }
        }
    }

    #[test]
    fn rooted_sampler_matches_per_pair_reference() {
        assert_matches_reference(|n, d| Box::new(RootedSampler::new(n, d)), reference_rooted);
    }

    #[test]
    fn nonsplit_sampler_matches_per_pair_reference() {
        assert_matches_reference(
            |n, d| Box::new(NonsplitSampler::new(n, d)),
            reference_nonsplit,
        );
    }

    /// An RNG that replays a fixed list of words.
    struct Words(std::vec::IntoIter<u64>);

    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("the test supplies every word")
        }
    }

    #[test]
    fn threshold_agrees_with_random_bool_at_the_boundary_words() {
        for p in DENSITIES {
            let threshold = (p * (1u64 << 53) as f64).ceil() as u64;
            let boundary = [0, threshold.wrapping_sub(1), threshold, (1 << 53) - 1];
            for x in boundary.into_iter().filter(|&x| x < 1 << 53) {
                for w in [x << 11, (x << 11) | 0x7ff] {
                    let hit = Words(vec![w].into_iter()).random_bool(p);
                    assert_eq!(hit, x < threshold, "p={p} x={x}");
                    let mut masks = [0b01, 0b10];
                    bernoulli_edges(&mut masks, p, &mut Words(vec![w, w].into_iter()));
                    assert_eq!(masks, [0b01 | u64::from(hit) << 1, 0b10 | u64::from(hit)]);
                }
            }
        }
    }

    #[test]
    fn bernoulli_edges_matches_per_pair_reference() {
        for n in 1..=64 {
            for p in DENSITIES {
                let mut fast = StdRng::seed_from_u64(n as u64);
                let mut slow = StdRng::seed_from_u64(n as u64);
                let mut masks = self_loops();
                bernoulli_edges(&mut masks[..n], p, &mut fast);
                let mut g = Digraph::empty(n);
                reference_edges(&mut g, p, &mut slow);
                assert_eq!(Digraph::from_in_masks(&masks[..n]).unwrap(), g);
                assert_eq!(fast.next_u64(), slow.next_u64(), "stream position");
            }
        }
    }

    #[test]
    fn rooted_sampler_always_rooted() {
        let mut rng = StdRng::seed_from_u64(7);
        for density in [0.0, 0.2, 0.8] {
            let s = RootedSampler::new(6, density);
            for _ in 0..200 {
                assert!(s.sample(&mut rng).is_rooted());
            }
        }
    }

    #[test]
    fn nonsplit_sampler_always_nonsplit() {
        let mut rng = StdRng::seed_from_u64(8);
        for density in [0.0, 0.3, 0.9] {
            let s = NonsplitSampler::new(5, density);
            for _ in 0..200 {
                assert!(s.sample(&mut rng).is_nonsplit());
            }
        }
    }

    #[test]
    fn async_sampler_respects_indegree() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = AsyncCrashSampler::new(7, 3);
        for _ in 0..200 {
            let g = s.sample(&mut rng);
            for i in 0..7 {
                assert!(g.in_degree(i) >= 4);
            }
        }
    }

    #[test]
    fn model_sampler_uniform_support() {
        let m = crate::NetworkModel::two_agent();
        let mut rng = StdRng::seed_from_u64(10);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(m.sample(&mut rng));
        }
        assert_eq!(seen.len(), 3, "all three graphs should appear");
    }

    #[test]
    fn choice_sampler_psi() {
        let s = ChoiceSampler::psi(6);
        assert_eq!(s.n(), 6);
        let mut rng = StdRng::seed_from_u64(11);
        let g = s.sample(&mut rng);
        assert!(g.is_rooted());
    }
}
