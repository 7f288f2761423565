//! The T-interval-connectivity adversary (arXiv:1408.0620).

use consensus_algorithms::Algorithm;
use consensus_digraph::{Digraph, MAX_AGENTS};
use consensus_dynamics::pattern::bernoulli_edges;
use consensus_dynamics::scenario::Driver;
use consensus_dynamics::Execution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic, seedable adversary whose pattern is *T-interval
/// rooted*: the union of the communication graphs of **every** window of
/// `T` consecutive rounds is rooted, while (for `T ≥ 2`) no single round
/// is.
///
/// Construction: a seeded permutation fixes an agent order with a
/// designated root (the first agent). Each non-root agent is assigned a
/// *level* — a residue class modulo `T` — and receives exactly one
/// in-edge in the rounds of its residue, from a **freshly sampled**
/// agent earlier in the order (so the underlying spanning tree churns
/// every period). Any `T` consecutive rounds cover all residues, hence
/// their union contains one in-edge per non-root agent from an earlier
/// agent — a spanning tree rooted at the first agent. A single round
/// schedules only the agents of one residue; everyone else is deaf, so
/// for `T ≥ 2` and `n ≥ 3` the round graph is never rooted.
///
/// Optional i.i.d. extra edges ([`TIntervalAdversary::with_extras`])
/// only *add* to the union, so the invariant survives any density.
///
/// The sequence is a pure function of `(n, T, density, seed)`: two
/// instances with equal parameters emit bit-identical graphs.
#[derive(Debug, Clone)]
pub struct TIntervalAdversary {
    n: usize,
    t: usize,
    extra_density: f64,
    /// Seeded agent order; `order[0]` is the root of every window union.
    order: Vec<usize>,
    /// `level[a]` = residue class of agent `a`'s scheduled rounds
    /// (unused for the root).
    level: Vec<usize>,
    rng: StdRng,
    emitted: u64,
}

impl TIntervalAdversary {
    /// Creates the adversary on `n` agents with window length `t`.
    ///
    /// # Panics
    ///
    /// Panics if `n ∉ 1..=64` or `t == 0`.
    #[must_use]
    pub fn new(n: usize, t: usize, seed: u64) -> Self {
        assert!((1..=64).contains(&n), "need 1..=64 agents");
        assert!(t >= 1, "window length T must be ≥ 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        crate::util::shuffle(&mut order, &mut rng);
        let mut level = vec![0usize; n];
        for (pos, &a) in order.iter().enumerate().skip(1) {
            level[a] = (pos - 1) % t;
        }
        TIntervalAdversary {
            n,
            t,
            extra_density: 0.0,
            order,
            level,
            rng,
            emitted: 0,
        }
    }

    /// Adds i.i.d. extra edges with the given per-edge probability to
    /// every emitted round (0 ⇒ bare schedule). Extras only enlarge the
    /// window unions, so the T-interval invariant is preserved; they do
    /// break the "single rounds are non-rooted" guarantee.
    ///
    /// # Panics
    ///
    /// Panics if `density ∉ [0, 1]`.
    #[must_use]
    pub fn with_extras(mut self, density: f64) -> Self {
        assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
        self.extra_density = density;
        self
    }

    /// The number of agents.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The window length `T`.
    #[must_use]
    pub fn t(&self) -> usize {
        self.t
    }

    /// The root of every window union (first agent of the seeded order).
    #[must_use]
    pub fn root(&self) -> usize {
        self.order[0]
    }

    /// Emits the next round's communication graph.
    pub fn emit(&mut self) -> Digraph {
        let residue = (self.emitted % self.t as u64) as usize;
        self.emitted += 1;
        let mut masks = [0; MAX_AGENTS];
        for (pos, &a) in self.order.iter().enumerate().skip(1) {
            if self.level[a] == residue {
                let parent = self.order[self.rng.random_range(0..pos)];
                masks[a] |= 1 << parent;
            }
        }
        let masks = &mut masks[..self.n];
        if self.extra_density > 0.0 {
            bernoulli_edges(masks, self.extra_density, &mut self.rng);
        }
        Digraph::from_in_masks(masks).expect("1..=64 agents")
    }
}

impl<A: Algorithm<D>, const D: usize> Driver<A, D> for TIntervalAdversary {
    fn next_block(&mut self, _exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        out.push(self.emit());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn union(graphs: &[Digraph]) -> Digraph {
        graphs[1..]
            .iter()
            .fold(graphs[0].clone(), |acc, g| acc.union(g))
    }

    /// [`TIntervalAdversary::emit`] with one `random_bool` per extra
    /// pair: the reference the batched emit must match.
    fn reference_emit(adv: &mut TIntervalAdversary) -> Digraph {
        let residue = (adv.emitted % adv.t as u64) as usize;
        adv.emitted += 1;
        let mut g = Digraph::empty(adv.n);
        for (pos, &a) in adv.order.iter().enumerate().skip(1) {
            if adv.level[a] == residue {
                let parent = adv.order[adv.rng.random_range(0..pos)];
                g.add_edge(parent, a);
            }
        }
        if adv.extra_density > 0.0 {
            for from in 0..adv.n {
                for to in 0..adv.n {
                    if from != to && adv.rng.random_bool(adv.extra_density) {
                        g.add_edge(from, to);
                    }
                }
            }
        }
        g
    }

    #[test]
    fn emit_matches_per_pair_reference() {
        for n in [1, 2, 7, 33, 64] {
            for density in [0.0, 1e-300, 0.15, 0.5, 1.0] {
                let mut fast = TIntervalAdversary::new(n, 3, 5).with_extras(density);
                let mut slow = fast.clone();
                for _ in 0..4 {
                    assert_eq!(fast.emit(), reference_emit(&mut slow), "n={n} p={density}");
                }
                assert_eq!(fast.rng.next_u64(), slow.rng.next_u64(), "stream position");
            }
        }
    }

    #[test]
    fn every_window_union_is_rooted() {
        for t in [1usize, 2, 3, 5] {
            let mut adv = TIntervalAdversary::new(7, t, 11);
            let graphs: Vec<Digraph> = (0..4 * t + 3).map(|_| adv.emit()).collect();
            for w in graphs.windows(t) {
                let u = union(w);
                assert!(u.is_rooted(), "T={t} window union must be rooted: {u}");
                assert!(u.roots() & (1 << adv.root()) != 0, "root agent roots it");
            }
        }
    }

    #[test]
    fn single_rounds_are_not_rooted_for_t_ge_2() {
        let mut adv = TIntervalAdversary::new(6, 3, 5);
        for _ in 0..12 {
            assert!(!adv.emit().is_rooted());
        }
    }

    #[test]
    fn t_equal_one_is_rooted_every_round() {
        let mut adv = TIntervalAdversary::new(5, 1, 9);
        for _ in 0..10 {
            assert!(adv.emit().is_rooted());
        }
    }

    #[test]
    fn same_seed_is_bit_identical() {
        let mut a = TIntervalAdversary::new(8, 4, 123);
        let mut b = TIntervalAdversary::new(8, 4, 123);
        for _ in 0..20 {
            assert_eq!(a.emit(), b.emit());
        }
        let mut c = TIntervalAdversary::new(8, 4, 124);
        assert_ne!(
            (0..20).map(|_| a.emit()).collect::<Vec<_>>(),
            (0..20).map(|_| c.emit()).collect::<Vec<_>>(),
            "different seeds give different schedules"
        );
    }

    #[test]
    fn extras_keep_the_window_invariant() {
        let t = 3;
        let mut adv = TIntervalAdversary::new(6, t, 2).with_extras(0.2);
        let graphs: Vec<Digraph> = (0..15).map(|_| adv.emit()).collect();
        for w in graphs.windows(t) {
            assert!(union(w).is_rooted());
        }
    }

    #[test]
    fn trees_churn_across_periods() {
        // The parent of a scheduled agent is resampled every period, so
        // (with overwhelming probability under this seed) the schedule
        // is not simply periodic.
        let mut adv = TIntervalAdversary::new(10, 2, 7);
        let graphs: Vec<Digraph> = (0..8).map(|_| adv.emit()).collect();
        assert_ne!(graphs[0], graphs[2], "period-2 repetition would be static");
    }

    #[test]
    #[should_panic(expected = "T must be")]
    fn zero_window_rejected() {
        let _ = TIntervalAdversary::new(4, 0, 0);
    }
}
