//! One-step lookahead scoring, shared by the adaptive drivers of this
//! crate.
//!
//! A candidate graph's score is the value diameter `Δ(y(t+1))` the live
//! execution would have after one round under it. [`Lookahead`] reads
//! that off the execution without cloning or stepping it: the message
//! slate is gathered once, and each agent's next output comes from
//! [`Execution::next_output`], the same transition call
//! [`Execution::step`] makes. Scores are therefore bit-identical to
//! forking the execution, stepping the fork and taking
//! [`Execution::value_diameter`].
//!
//! An agent's next output depends only on its own in-neighbourhood. A
//! candidate that differs from a [`Parent`] graph in a few in-masks is
//! scored by copying the parent's next outputs and recomputing only
//! those agents: `O(n)` plus the changed agents' in-degrees, instead of
//! a full `O(n²)` step.

use consensus_algorithms::{diameter, Algorithm, Point};
use consensus_digraph::Digraph;
use consensus_dynamics::Execution;

/// Candidates per pool job when scoring is pooled; each job reuses one
/// scratch output vector. Shorter lists are scored serially.
const SCORE_BLOCK: usize = 64;

/// A graph with the outputs `y(t+1)` one round under it produces: the
/// base that [`Lookahead::score_children`] patches.
#[derive(Debug, Clone)]
pub struct Parent<const D: usize> {
    graph: Digraph,
    next: Vec<Point<D>>,
}

/// The one-step lookahead scorer against a fixed execution state.
#[derive(Debug)]
pub struct Lookahead<'a, A: Algorithm<D>, const D: usize> {
    exec: &'a Execution<A, D>,
    msgs: Vec<A::Msg>,
    threads: usize,
}

impl<'a, A, const D: usize> Lookahead<'a, A, D>
where
    A: Algorithm<D>,
    A::State: Sync,
    A::Msg: Sync,
{
    /// A scorer for `exec` that pools candidate lists longer than one
    /// job over `threads` workers (`≤ 1` scores serially). Scores
    /// never depend on the thread count.
    #[must_use]
    pub fn new(exec: &'a Execution<A, D>, threads: usize) -> Self {
        Lookahead {
            exec,
            msgs: exec.message_slate(),
            threads,
        }
    }

    /// Steps `graph` once (read-only) so its one-toggle neighbours can
    /// be scored as patches of it.
    #[must_use]
    pub fn parent(&self, graph: &Digraph) -> Parent<D> {
        let mut next = Vec::with_capacity(self.exec.n());
        self.exec.next_outputs(graph, &self.msgs, &mut next);
        Parent {
            graph: graph.clone(),
            next,
        }
    }

    /// The score of every candidate, in candidate order, each from a
    /// full read-only step.
    #[must_use]
    pub fn score(&self, candidates: &[Digraph]) -> Vec<f64> {
        self.score_each(candidates.len(), |i, scratch| {
            self.exec.next_outputs(&candidates[i], &self.msgs, scratch);
            diameter(scratch)
        })
    }

    /// The score of every child, in child order. Child `i` is scored as
    /// a patch of `parents[parent_of[i]]`: only the agents whose
    /// in-mask differs from the parent graph's are recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `parent_of` and `children` differ in length, or a
    /// child and its parent differ in size.
    #[must_use]
    pub fn score_children(
        &self,
        children: &[Digraph],
        parents: &[Parent<D>],
        parent_of: &[usize],
    ) -> Vec<f64> {
        assert_eq!(children.len(), parent_of.len(), "one parent per child");
        self.score_each(children.len(), |i, scratch| {
            let (child, parent) = (&children[i], &parents[parent_of[i]]);
            assert_eq!(child.n(), parent.graph.n(), "child and parent sizes");
            scratch.clear();
            scratch.extend_from_slice(&parent.next);
            for (k, out) in scratch.iter_mut().enumerate() {
                if child.in_mask(k) != parent.graph.in_mask(k) {
                    *out = self.exec.next_output(k, child.sender_set(k), &self.msgs);
                }
            }
            diameter(scratch)
        })
    }

    /// `score(i, scratch)` for `i in 0..count`, in index order: serial,
    /// or pooled in blocks of [`SCORE_BLOCK`] with one scratch vector
    /// per block.
    fn score_each<F>(&self, count: usize, score: F) -> Vec<f64>
    where
        F: Fn(usize, &mut Vec<Point<D>>) -> f64 + Sync,
    {
        let n = self.exec.n();
        let block = |b: usize| {
            let mut scratch = Vec::with_capacity(n);
            (b * SCORE_BLOCK..count.min((b + 1) * SCORE_BLOCK))
                .map(|i| score(i, &mut scratch))
                .collect::<Vec<f64>>()
        };
        let blocks = count.div_ceil(SCORE_BLOCK);
        if self.threads <= 1 || blocks <= 1 {
            return (0..blocks).flat_map(block).collect();
        }
        consensus_pool::run_indexed(blocks, self.threads, block).concat()
    }
}
