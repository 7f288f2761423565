//! The one [`Execution`] engine: states, rounds, forking, intra-round
//! parallelism.

use consensus_algorithms::{diameter, Algorithm, Inbox, Point};
use consensus_digraph::{RoundTopology, SenderSet, WordSet};

use crate::byzantine::ByzantineStrategy;
use crate::pattern::PatternSource;

/// Default agents-per-chunk for intra-round parallelism: large enough
/// to amortize scheduling, small enough to load-balance a million
/// agents over any realistic core count.
pub const DEFAULT_CHUNK: usize = 4096;

/// The former name of the large-`n` scalar executor: every algorithm
/// now runs at any `n` on [`Execution`].
pub type ShardedExecution<K> = Execution<K, 1>;

/// A live execution of an algorithm: one state per agent, advanced one
/// communication-closed round at a time (paper §2).
///
/// `Execution` is the low-level stepper: it owns the per-agent states,
/// a reused message slate (gathered once per round — stepping performs
/// **no per-round heap allocation** after warm-up on one worker), and a
/// cache of the current outputs. High-level runs (patterns,
/// adversaries, faults, decision measurement) go through
/// [`crate::Scenario`].
///
/// Rounds step over any [`RoundTopology`]: a dense
/// [`Digraph`](consensus_digraph::Digraph) (`n ≤ 64`, the type's own
/// cap) or a [`CsrDigraph`](consensus_digraph::CsrDigraph) with no agent
/// cap. With [`Execution::threads`] above 1, each round updates the
/// agents in [`Execution::chunk_size`] chunks on scoped pool threads
/// ([`consensus_pool::for_each_chunk_mut`], which hands the chunks out
/// from one shared queue and never steals). Every agent's update reads
/// only the shared slate of the previous round and writes only its own
/// state and output slot, so results are **bit-identical at every
/// thread count and chunk size**; `tests/large_executor.rs` and
/// `tests/schedule_independence.rs` pin that. See
/// [`crate::DiameterTrace`] for recording at large `n`.
///
/// `Execution` is [`Clone`] (when the algorithm is), which is how the
/// valency engine forks a configuration `C` into the different successor
/// executions `G.C` needed by the lower-bound adversaries.
#[derive(Clone)]
pub struct Execution<A: Algorithm<D>, const D: usize> {
    alg: A,
    states: Vec<A::State>,
    /// Cached `y(t)`, refreshed agent by agent as each round steps.
    outs: Vec<Point<D>>,
    /// Reused per-round message slate (`msgs[j]` = agent `j`'s broadcast).
    msgs: Vec<A::Msg>,
    /// Reused forged-slate scratch for [`Execution::step_with_faults`]
    /// (empty unless faults are injected).
    fault_msgs: Vec<A::Msg>,
    round: u64,
    threads: usize,
    chunk: usize,
}

impl<A: Algorithm<D>, const D: usize> Execution<A, D> {
    /// Starts an execution of `alg` from the given initial values
    /// (one per agent; `inits.len()` is the number of agents `n`, with
    /// no cap). Values may be given as points or, for `D = 1`, as
    /// plain `f64`s.
    ///
    /// # Panics
    ///
    /// Panics if `inits` is empty.
    #[must_use]
    pub fn new<V: Copy + Into<Point<D>>>(alg: A, inits: &[V]) -> Self {
        assert!(!inits.is_empty(), "need at least one agent");
        let states: Vec<A::State> = inits
            .iter()
            .enumerate()
            .map(|(i, &y0)| alg.init(i, y0.into()))
            .collect();
        let outs = states.iter().map(|s| alg.output(s)).collect();
        Execution {
            alg,
            states,
            outs,
            msgs: Vec::with_capacity(inits.len()),
            fault_msgs: Vec::new(),
            round: 0,
            threads: 1,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// Sets the worker count for intra-round parallelism (default 1,
    /// sequential). Thread count never affects results, only wall-clock
    /// time.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the agents-per-chunk granularity of intra-round parallelism
    /// (default [`DEFAULT_CHUNK`]). Chunk size never affects results,
    /// only load balance.
    #[must_use]
    pub fn chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// The number of agents.
    #[must_use]
    pub fn n(&self) -> usize {
        self.states.len()
    }

    /// The number of completed rounds (`t`; round 0 is the initial
    /// configuration).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The algorithm being executed.
    #[must_use]
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// The current output vector `y(t) = (y_1(t), …, y_n(t))`, borrowed
    /// from the executor's cache — no allocation.
    #[must_use]
    pub fn outputs_slice(&self) -> &[Point<D>] {
        &self.outs
    }

    /// The current output vector as an owned `Vec` (a copy of the
    /// cache). Prefer [`Execution::outputs_slice`] on hot paths.
    #[must_use]
    pub fn outputs(&self) -> Vec<Point<D>> {
        self.outs.clone()
    }

    /// The current value spread `Δ(y(t))` (paper §2.1). Reads the output
    /// cache; no allocation.
    #[must_use]
    pub fn value_diameter(&self) -> f64 {
        diameter(&self.outs)
    }

    /// Read access to an agent's state (used by state-aware tests).
    ///
    /// # Panics
    ///
    /// Panics if `agent ≥ n`.
    #[must_use]
    pub fn state(&self, agent: usize) -> &A::State {
        &self.states[agent]
    }

    /// The message slate the next round gathers: entry `j` is agent
    /// `j`'s broadcast. Read-only lookahead
    /// ([`Execution::next_output`], [`Execution::next_outputs`]) reads
    /// it.
    #[must_use]
    pub fn message_slate(&self) -> Vec<A::Msg> {
        self.states.iter().map(|s| self.alg.message(s)).collect()
    }

    /// Agent `i`'s output after the next round if it hears exactly
    /// `senders`, with `msgs` the [`Execution::message_slate`]. The
    /// execution is untouched: a copy of the agent's state takes the
    /// same transition [`Execution::step`] applies, so the value is
    /// bit-identical to the one a real step would cache.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    #[must_use]
    pub fn next_output(&self, i: usize, senders: SenderSet<'_>, msgs: &[A::Msg]) -> Point<D> {
        let mut state = self.states[i].clone();
        self.alg.step(
            i,
            &mut state,
            Inbox::from_senders(senders, msgs),
            self.round + 1,
        );
        self.alg.output(&state)
    }

    /// Writes into `out` the outputs `y(t+1)` that [`Execution::step`]
    /// with topology `g` would produce, without stepping (one
    /// [`Execution::next_output`] per agent).
    ///
    /// # Panics
    ///
    /// Panics if `g.n() != self.n()`.
    pub fn next_outputs<G: RoundTopology>(&self, g: &G, msgs: &[A::Msg], out: &mut Vec<Point<D>>) {
        assert_eq!(g.n(), self.n(), "graph size must match agent count");
        out.clear();
        out.extend((0..self.n()).map(|i| self.next_output(i, g.sender_set(i), msgs)));
    }

    /// Executes one round with topology `g`: gather all messages once
    /// into the shared slate, hand every agent an [`Inbox`] view
    /// restricted to its in-neighborhood (self included), apply the
    /// transition function everywhere and refresh the output cache.
    ///
    /// With one worker, or when all agents fit in one chunk, this is a
    /// plain serial loop with no allocation. Otherwise each chunk of
    /// agents — its states and its slice of the output cache — is one
    /// job on the pool.
    ///
    /// # Panics
    ///
    /// Panics if `g.n() != self.n()`.
    pub fn step<G: RoundTopology>(&mut self, g: &G) {
        assert_eq!(g.n(), self.n(), "graph size must match agent count");
        self.round += 1;
        let round = self.round;
        let Execution {
            alg,
            states,
            outs,
            msgs,
            threads,
            chunk,
            ..
        } = self;
        msgs.clear();
        msgs.extend(states.iter().map(|s| alg.message(s)));
        let (alg, msgs, chunk) = (&*alg, &*msgs, *chunk);
        let update = |start: usize, states: &mut [A::State], outs: &mut [Point<D>]| {
            for (k, (state, out)) in states.iter_mut().zip(outs).enumerate() {
                let i = start + k;
                alg.step(i, state, Inbox::from_senders(g.sender_set(i), msgs), round);
                *out = alg.output(state);
            }
        };
        if (*threads).min(states.len().div_ceil(chunk)) <= 1 {
            update(0, states, outs);
            return;
        }
        let mut jobs: Vec<_> = states
            .chunks_mut(chunk)
            .zip(outs.chunks_mut(chunk))
            .enumerate()
            .map(|(k, (s, o))| (k * chunk, s, o))
            .collect();
        consensus_pool::for_each_chunk_mut(&mut jobs, 1, *threads, |_, job| {
            for (start, s, o) in job {
                update(*start, s, o);
            }
        });
    }

    /// [`Execution::step`] with round-level telemetry: wraps the round
    /// in a `round` span and emits the resulting diameter, the
    /// contraction ratio Δ(t)/Δ(t−1), and the round's reception count
    /// (the sum of in-degrees, self-loops included) through `tel`.
    ///
    /// The emitted events are a pure function of the execution — the
    /// observed step is bit-identical to [`Execution::step`] and the
    /// event content never depends on threads or time (timestamps ride
    /// the side-channel the injected
    /// [`Clock`](consensus_obs::Clock) feeds).
    ///
    /// # Panics
    ///
    /// Panics if `g.n() != self.n()`.
    pub fn step_observed<G: RoundTopology>(
        &mut self,
        g: &G,
        tel: &mut consensus_obs::RoundTelemetry,
    ) {
        let round = self.round + 1;
        if !tel.needs_diameter(round) {
            // A decimated round no emitted ratio depends on: run the
            // plain step — zero telemetry overhead.
            self.step(g);
            return;
        }
        tel.begin_round(round);
        self.step(g);
        tel.end_round(round, self.value_diameter(), g.edge_count() as u64);
    }

    /// Runs under `pattern` until the spread drops to ≤ `tol` (or
    /// `max_rounds` elapse) and returns the limit estimate (the centroid
    /// of the final outputs) **together with its convergence status**.
    /// Used by the valency engine as "the limit of this continuation";
    /// records no trace and performs no per-round allocation beyond the
    /// pattern's own graphs.
    ///
    /// [`LimitEstimate::converged`] reports whether the spread actually
    /// reached `tol` within the horizon. A truncated probe (`converged ==
    /// false`) returns the centroid of a configuration that is still
    /// spread out, which is *not* a reachable limit — silently treating
    /// it as one is exactly the bug that can make a valency
    /// under-approximation `δ̂` unsound, so callers must check the flag
    /// (or run in a strict mode that refuses truncated probes).
    pub fn limit_estimate<P: PatternSource>(
        &mut self,
        pattern: &mut P,
        tol: f64,
        max_rounds: usize,
    ) -> LimitEstimate<D> {
        let start = self.round;
        for _ in 0..max_rounds {
            if self.value_diameter() <= tol {
                break;
            }
            let g = pattern.next_graph(self.round + 1);
            self.step(&g);
        }
        let mut acc = Point::ZERO;
        for p in &self.outs {
            acc += *p;
        }
        LimitEstimate {
            point: acc * (1.0 / self.outs.len() as f64),
            converged: self.value_diameter() <= tol,
            rounds: self.round - start,
        }
    }
}

/// The result of [`Execution::limit_estimate`]: the centroid of the
/// final configuration plus whether the run actually converged.
///
/// The centroid is only a trustworthy "limit of this continuation" when
/// [`LimitEstimate::converged`] is `true`; otherwise the probe horizon
/// expired first and the point is the centre of a configuration that is
/// still `> tol` wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LimitEstimate<const D: usize> {
    /// Centroid of the final outputs.
    pub point: Point<D>,
    /// Whether the value spread reached the tolerance within the
    /// horizon. `false` means the estimate is truncated: the point is
    /// **not** a certified reachable limit.
    pub converged: bool,
    /// Rounds actually executed by the probe (`≤ max_rounds`; fewer on
    /// early convergence).
    pub rounds: u64,
}

impl<A: Algorithm<1>> Execution<A, 1> {
    /// The current scalar outputs `y_i(t)` in agent order, read from the
    /// output cache — no allocation.
    pub fn values(&self) -> Values<'_> {
        Values(self.outs.iter())
    }
}

/// The iterator behind [`Execution::values`]. Deliberately not
/// `#[must_use]` (unlike `impl Iterator`), so timing code may hand it to
/// `black_box` unconsumed.
#[derive(Debug, Clone)]
pub struct Values<'a>(std::slice::Iter<'a, Point<1>>);

impl Iterator for Values<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        self.0.next().map(|p| p[0])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Values<'_> {}

impl<A: Algorithm<1, Msg = Point<1>>> Execution<A, 1> {
    /// Executes one round with the agents in `byzantine` replaced by
    /// `strategy`: honest agents receive the slate with the liars' slots
    /// overwritten by forged values (per receiver — two-faced faults),
    /// Byzantine agents' states are frozen. Only scalar-message
    /// algorithms can be attacked this way. The fault path is serial:
    /// the strategy is stateful and must see receivers in agent order
    /// to stay deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `g.n() != self.n()` or every agent is Byzantine.
    pub fn step_with_faults<G: RoundTopology>(
        &mut self,
        g: &G,
        byzantine: &WordSet,
        strategy: &mut dyn ByzantineStrategy,
    ) {
        assert_eq!(g.n(), self.n(), "graph size must match agent count");
        assert!(
            (0..self.n()).any(|i| !byzantine.contains(i)),
            "at least one honest agent required"
        );
        self.round += 1;
        let round = self.round;
        let Execution {
            alg,
            states,
            outs,
            msgs,
            fault_msgs,
            ..
        } = self;
        msgs.clear();
        msgs.extend(states.iter().map(|s| alg.message(s)));
        // Reused scratch slate: forge only the liars' slots per receiver
        // (two-faced strategies send different lies to each agent) and
        // restore them afterwards — O(deg) per receiver, no allocation.
        fault_msgs.clear();
        fault_msgs.extend_from_slice(msgs);
        for (i, (state, out)) in states.iter_mut().zip(outs).enumerate() {
            if byzantine.contains(i) {
                continue;
            }
            let senders = g.sender_set(i);
            for j in senders.iter().filter(|&j| byzantine.contains(j)) {
                fault_msgs[j] = Point([strategy.forge(round, j, i)]);
            }
            alg.step(i, state, Inbox::from_senders(senders, fault_msgs), round);
            *out = alg.output(state);
            for j in senders.iter().filter(|&j| byzantine.contains(j)) {
                fault_msgs[j] = msgs[j];
            }
        }
    }
}

impl<A: Algorithm<D> + std::fmt::Debug, const D: usize> std::fmt::Debug for Execution<A, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Execution")
            .field("alg", &self.alg)
            .field("round", &self.round)
            .field("outputs", &self.outs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::SplitAttack;
    use crate::pattern::{ConstantPattern, PeriodicPattern};
    use crate::Scenario;
    use consensus_algorithms::{MeanValue, Midpoint, SelfWeightedAverage, TwoAgentThirds};
    use consensus_digraph::{families, CsrDigraph, Digraph};

    fn pts(vals: &[f64]) -> Vec<Point<1>> {
        vals.iter().map(|&v| Point([v])).collect()
    }

    /// Deterministic, non-uniform, sign-mixed values.
    fn inits(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 2_654_435_761 % 1_000_003) as f64) / 1_000_003.0 - 0.5)
            .collect()
    }

    fn bits<A: Algorithm<1>>(e: &Execution<A, 1>) -> Vec<u64> {
        e.values().map(f64::to_bits).collect()
    }

    #[test]
    fn clique_midpoint_one_round() {
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0, 0.3]));
        e.step(&Digraph::complete(3));
        let outs = e.outputs();
        for o in outs {
            assert!((o[0] - 0.5).abs() < 1e-15);
        }
        assert_eq!(e.round(), 1);
    }

    #[test]
    fn deaf_adversary_halves_midpoint_diameter() {
        // Constant F_0 (agent 0 deaf in K_3): spread halves every round.
        let f0 = Digraph::complete(3).make_deaf(0);
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0, 1.0]));
        let mut d = e.value_diameter();
        for _ in 0..20 {
            e.step(&f0);
            let nd = e.value_diameter();
            assert!((nd - d / 2.0).abs() < 1e-12, "exact halving expected");
            d = nd;
        }
    }

    #[test]
    fn two_agent_thirds_under_h1() {
        let [_, h1, _] = families::two_agent();
        let trace = Scenario::new(TwoAgentThirds, &pts(&[0.0, 1.0]))
            .pattern(ConstantPattern::new(h1))
            .run(12);
        let rate = trace.rates().t_root;
        assert!((rate - 1.0 / 3.0).abs() < 1e-9, "rate = {rate}");
    }

    #[test]
    fn until_converged_stops_early() {
        let mut sc = Scenario::new(Midpoint, &pts(&[0.0, 8.0]))
            .pattern(ConstantPattern::new(Digraph::complete(2)))
            .until_converged(1e-9);
        let trace = sc.run(1_000);
        assert!(trace.rounds() <= 2, "clique agreement is immediate");
        assert!(sc.execution().value_diameter() <= 1e-9);
    }

    #[test]
    fn periodic_pattern_cycles() {
        let [h0, h1, h2] = families::two_agent();
        let trace = Scenario::new(MeanValue, &pts(&[0.0, 1.0]))
            .pattern(PeriodicPattern::new(vec![h0, h1, h2]))
            .run(6);
        assert_eq!(trace.rounds(), 6);
        assert!(trace.final_diameter() < trace.initial_diameter());
    }

    #[test]
    fn fork_preserves_determinism() {
        let mut a = Execution::new(Midpoint, &pts(&[0.0, 1.0, 0.5, 0.7]));
        a.step(&families::star_out(4, 2));
        let mut b = a.clone();
        let g = families::cycle(4);
        a.step(&g);
        b.step(&g);
        assert_eq!(a.outputs(), b.outputs(), "forked executions must agree");
    }

    #[test]
    fn limit_estimate_on_clique_is_midrange() {
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        let mut p = ConstantPattern::new(Digraph::complete(2));
        let lim = e.limit_estimate(&mut p, 1e-12, 100);
        assert!((lim.point[0] - 0.5).abs() < 1e-9);
        assert!(lim.converged);
        assert!(lim.rounds < 100, "clique converges early");
    }

    #[test]
    fn limit_estimate_reports_truncation() {
        // The empty graph never contracts: the horizon expires with the
        // spread intact, and the estimate must say so instead of
        // passing its centroid off as a reachable limit.
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        let mut p = ConstantPattern::new(Digraph::empty(2));
        let lim = e.limit_estimate(&mut p, 1e-12, 50);
        assert!(!lim.converged, "deaf-everywhere pattern cannot converge");
        assert_eq!(lim.rounds, 50, "the whole horizon must be spent");
        assert!((lim.point[0] - 0.5).abs() < 1e-9, "centroid still reported");
    }

    #[test]
    fn outputs_slice_matches_outputs() {
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0, 0.4]));
        assert_eq!(e.outputs_slice(), e.outputs().as_slice());
        e.step(&Digraph::complete(3));
        assert_eq!(e.outputs_slice(), e.outputs().as_slice());
        assert_eq!(e.outputs_slice().len(), 3);
    }

    #[test]
    #[should_panic(expected = "graph size")]
    fn size_mismatch_panics() {
        let mut e = Execution::new(Midpoint, &pts(&[0.0, 1.0]));
        e.step(&Digraph::complete(3));
    }

    #[test]
    #[should_panic(expected = "graph size")]
    fn csr_size_mismatch_panics() {
        let mut e = Execution::new(Midpoint, &[0.0, 1.0]);
        e.step(&CsrDigraph::ring_lattice(3, 1));
    }

    #[test]
    fn lookahead_matches_a_real_step_and_leaves_the_execution_alone() {
        use consensus_algorithms::AmortizedMidpoint;
        let n = 7;
        let ring = Digraph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))).unwrap();
        let mut e = Execution::new(AmortizedMidpoint::new(3), &pts(&inits(n)));
        // Off round 0, so the round-dependent transition is exercised.
        e.step(&ring);
        for g in [Digraph::complete(n).make_deaf(2), ring.clone()] {
            let before: Vec<u64> = bits(&e);
            let msgs = e.message_slate();
            let mut next = Vec::new();
            e.next_outputs(&g, &msgs, &mut next);
            assert_eq!(bits(&e), before, "lookahead must not step");
            assert_eq!(e.round(), 1);
            let mut stepped = e.clone();
            stepped.step(&g);
            let want: Vec<u64> = bits(&stepped);
            let got: Vec<u64> = next.iter().map(|p| p[0].to_bits()).collect();
            assert_eq!(got, want);
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(e.next_output(i, g.sender_set(i), &msgs)[0].to_bits(), w);
            }
        }
    }

    /// Outputs the round number it last stepped in, plus its sender
    /// count: no built-in algorithm reads `round`, this one does.
    #[derive(Clone, Debug)]
    struct RoundStamp;

    impl Algorithm<1> for RoundStamp {
        type State = Point<1>;
        type Msg = ();
        fn name(&self) -> std::borrow::Cow<'static, str> {
            "round-stamp".into()
        }
        fn init(&self, _agent: usize, y0: Point<1>) -> Point<1> {
            y0
        }
        fn message(&self, _state: &Point<1>) {}
        fn step(&self, _agent: usize, state: &mut Point<1>, inbox: Inbox<'_, ()>, round: u64) {
            *state = Point([round as f64 + inbox.len() as f64 / 100.0]);
        }
        fn output(&self, state: &Point<1>) -> Point<1> {
            *state
        }
    }

    #[test]
    fn lookahead_steps_in_the_next_round() {
        let g = Digraph::complete(4).make_deaf(1);
        let mut e = Execution::new(RoundStamp, &pts(&[0.0; 4]));
        e.step(&g);
        e.step(&g);
        let mut next = Vec::new();
        e.next_outputs(&g, &e.message_slate(), &mut next);
        assert_eq!(next, pts(&[3.04, 3.01, 3.04, 3.04]));
    }

    #[test]
    fn observed_step_is_bit_identical_and_emits_the_curve() {
        use consensus_obs::{lane, RoundTelemetry, TraceHandle};
        let g = Digraph::complete(3).make_deaf(0);
        let mut plain = Execution::new(Midpoint, &pts(&[0.0, 1.0, 1.0]));
        let mut observed = Execution::new(Midpoint, &pts(&[0.0, 1.0, 1.0]));
        let trace = TraceHandle::enabled();
        let mut tel = RoundTelemetry::new(trace.recorder(0, lane::EXECUTOR).expect("enabled"))
            .initial_diameter(observed.value_diameter());
        for _ in 0..6 {
            plain.step(&g);
            observed.step_observed(&g, &mut tel);
        }
        assert_eq!(plain.outputs(), observed.outputs(), "telemetry is inert");
        trace.commit(tel.finish());
        let s = trace.merged();
        let ratios = s.gauge_values("contraction");
        assert_eq!(ratios.len(), 6);
        for r in ratios {
            assert!((r - 0.5).abs() < 1e-12, "deaf F_0 halves the spread: {r}");
        }
        // K_3 with agent 0 deaf: in-degrees 1, 3, 3 (self included).
        assert_eq!(s.counter_total("messages"), 6 * 7);
        assert_eq!(s.events_for_span("round").len(), 12);
    }

    #[test]
    fn matches_dense_execution_bitwise_at_small_n() {
        let vals = inits(23);
        let g = Digraph::complete(23).make_deaf(4);
        let csr = CsrDigraph::from_dense(&g);
        let mut serial = Execution::new(Midpoint, &vals);
        for _ in 0..17 {
            serial.step(&g);
        }
        for threads in [1, 2, 7] {
            let mut mask = Execution::new(Midpoint, &vals)
                .threads(threads)
                .chunk_size(5);
            let mut sparse = Execution::new(Midpoint, &vals).threads(threads);
            for _ in 0..17 {
                mask.step(&g);
                sparse.step(&csr);
            }
            assert_eq!(bits(&serial), bits(&mask), "mask path, threads={threads}");
            assert_eq!(bits(&serial), bits(&sparse), "CSR path, threads={threads}");
        }
    }

    #[test]
    fn thread_and_chunk_count_never_change_results() {
        let vals = inits(501);
        let csr = CsrDigraph::ring_lattice(501, 3);
        let mut reference = Execution::new(MeanValue, &vals);
        for _ in 0..9 {
            reference.step(&csr);
        }
        for (threads, chunk) in [(2, 64), (4, 7), (8, 1000)] {
            let mut e = Execution::new(MeanValue, &vals)
                .threads(threads)
                .chunk_size(chunk);
            for _ in 0..9 {
                e.step(&csr);
            }
            assert_eq!(
                bits(&reference),
                bits(&e),
                "threads={threads} chunk={chunk}"
            );
        }
    }

    #[test]
    fn runs_well_past_sixty_four_agents() {
        let n = 500;
        let csr = CsrDigraph::ring_lattice(n, 2);
        let mut e = Execution::new(Midpoint, &inits(n)).threads(4);
        let d0 = e.value_diameter();
        for _ in 0..200 {
            e.step(&csr);
        }
        assert_eq!(e.round(), 200);
        assert!(
            e.value_diameter() < d0 * 0.5,
            "spread must contract on a connected lattice"
        );
    }

    #[test]
    fn faulty_step_on_mask_matches_csr() {
        let vals = inits(9);
        let g = Digraph::complete(9);
        let csr = CsrDigraph::from_dense(&g);
        let byz = WordSet::from_mask(0b1_0000_0010); // agents 1 and 8
        let alg = SelfWeightedAverage::new(0.5);
        let mut mask = Execution::new(alg, &vals);
        let mut sparse = Execution::new(alg, &vals);
        let mut s1 = SplitAttack { magnitude: 2.0 };
        let mut s2 = s1;
        for _ in 0..6 {
            mask.step_with_faults(&g, &byz, &mut s1);
            sparse.step_with_faults(&csr, &byz, &mut s2);
        }
        assert_eq!(bits(&mask), bits(&sparse));
        assert_eq!(mask.values().nth(1), Some(vals[1]), "liars are frozen");
    }

    #[test]
    #[should_panic(expected = "honest agent")]
    fn all_byzantine_rejected() {
        let mut e = Execution::new(Midpoint, &[0.0, 1.0]);
        let mut s = |_: u64, _: usize, _: usize| 0.0;
        e.step_with_faults(&Digraph::complete(2), &WordSet::full(2), &mut s);
    }

    #[test]
    fn observed_step_is_bit_identical_to_step() {
        use consensus_obs::{lane, RoundTelemetry, TraceHandle};
        let vals = inits(301);
        let csr = CsrDigraph::ring_lattice(301, 3);
        let mut plain = Execution::new(MeanValue, &vals).threads(3).chunk_size(37);
        let trace = TraceHandle::enabled();
        let mut tel = RoundTelemetry::new(trace.recorder(0, lane::EXECUTOR).expect("enabled"))
            .initial_diameter(plain.value_diameter());
        let mut observed = Execution::new(MeanValue, &vals).threads(3).chunk_size(37);
        for _ in 0..7 {
            plain.step(&csr);
            observed.step_observed(&csr, &mut tel);
        }
        assert_eq!(bits(&plain), bits(&observed), "telemetry is inert");
        trace.commit(tel.finish());
        let s = trace.merged();
        let diameters = s.gauge_values("diameter");
        assert_eq!(diameters.len(), 7);
        assert_eq!(diameters[6].to_bits(), plain.value_diameter().to_bits());
        assert_eq!(s.gauge_values("contraction").len(), 7);
        // Ring lattice with k=3: every agent hears 4 agents (self + 3
        // predecessors), for 7 rounds.
        assert_eq!(s.counter_total("messages"), 7 * 301 * 4);
    }

    #[test]
    fn observed_content_is_thread_count_invariant() {
        use consensus_obs::{lane, RoundTelemetry, TraceHandle};
        let vals = inits(200);
        let csr = CsrDigraph::ring_lattice(200, 2);
        let mut streams = Vec::new();
        for threads in [1, 4] {
            let trace = TraceHandle::enabled();
            let mut tel = RoundTelemetry::new(trace.recorder(0, lane::EXECUTOR).expect("enabled"));
            let mut e = Execution::new(Midpoint, &vals)
                .threads(threads)
                .chunk_size(13);
            for _ in 0..5 {
                e.step_observed(&csr, &mut tel);
            }
            trace.commit(tel.finish());
            streams.push(trace.merged().content());
        }
        assert_eq!(
            streams[0], streams[1],
            "content stream must not depend on the worker count"
        );
    }
}

#[cfg(test)]
mod edge_tests {
    use super::*;
    use consensus_algorithms::{MeanValue, Midpoint};
    use consensus_digraph::{CsrDigraph, Digraph};

    #[test]
    fn single_agent_execution_is_trivial() {
        let mut e = Execution::new(Midpoint, &[Point([0.7])]);
        e.step(&Digraph::complete(1));
        assert_eq!(e.outputs(), vec![Point([0.7])]);
        assert_eq!(e.value_diameter(), 0.0);
    }

    #[test]
    fn sixty_four_agents_supported() {
        let inits: Vec<Point<1>> = (0..64).map(|i| Point([i as f64])).collect();
        let mut e = Execution::new(MeanValue, &inits);
        e.step(&Digraph::complete(64));
        assert!(
            e.value_diameter() < 1e-9,
            "complete graph averages in one round"
        );
    }

    #[test]
    fn sixty_five_agents_supported() {
        let inits: Vec<f64> = (0..65).map(f64::from).collect();
        let mut e = Execution::new(MeanValue, &inits);
        e.step(&CsrDigraph::complete(65));
        assert!(
            e.value_diameter() < 1e-9,
            "complete graph averages in one round"
        );
    }
}
