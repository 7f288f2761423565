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

use consensus_digraph::{families, Digraph};
use rand::prelude::IndexedRandom;
use rand::Rng;

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
        let mut g = Digraph::empty(n);
        // Random spanning tree: random insertion order, attach each agent
        // to a uniformly random already-attached agent.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for (pos, &i) in order.iter().enumerate().skip(1) {
            let p = order[rng.random_range(0..pos)];
            g.add_edge(p, i);
        }
        // Extra edges.
        for from in 0..n {
            for to in 0..n {
                if from != to && rng.random_bool(self.density) {
                    g.add_edge(from, to);
                }
            }
        }
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
        let mut g = Digraph::empty(n);
        for from in 0..n {
            for to in 0..n {
                if from != to && rng.random_bool(self.density) {
                    g.add_edge(from, to);
                }
            }
        }
        // Repair: every pair of agents needs a common in-neighbor.
        for i in 0..n {
            for j in (i + 1)..n {
                if g.in_mask(i) & g.in_mask(j) == 0 {
                    let k = rng.random_range(0..n);
                    g.add_edge(k, i);
                    g.add_edge(k, j);
                }
            }
        }
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
