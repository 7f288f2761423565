//! The discrete-event simulation engine.
//!
//! Agents perform *receive–compute–broadcast* steps (paper §8). The
//! engine delivers messages in timestamp order; delays are chosen by a
//! [`DelayStrategy`] and must lie in `(0, 1]` — time is normalised so
//! that the longest end-to-end delay is 1, matching the paper's standard
//! convention for measuring time in asynchronous systems.
//!
//! Crashes are *unclean* (§8): a crash is specified as “agent `a` dies
//! during its `k`-th broadcast, which reaches only the subset `R`”.
//! Counting broadcasts (instead of naming a wall-clock instant) keeps
//! the schedule deterministic and robust to floating-point time.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An asynchronous, message-driven algorithm with values in `R`
/// (the paper's §8 statements are one-dimensional).
///
/// Determinism: `on_receive` must be a function of `(state, from, msg)`
/// only.
pub trait AsyncAlgorithm {
    /// Per-agent state.
    type State: Clone + std::fmt::Debug;
    /// Message payload.
    type Msg: Clone + std::fmt::Debug;

    /// Short name for reports.
    fn name(&self) -> String;

    /// Initial state and the messages broadcast at time 0.
    fn init(&self, agent: usize, y0: f64, n: usize, f: usize) -> (Self::State, Vec<Self::Msg>);

    /// Handles one delivered message; returns the messages to broadcast
    /// in response (each broadcast goes to **all** agents, self included
    /// with delay 0 handled by the engine).
    fn on_receive(
        &self,
        agent: usize,
        state: &mut Self::State,
        from: usize,
        msg: &Self::Msg,
    ) -> Vec<Self::Msg>;

    /// The agent's current output `y_i`.
    fn output(&self, state: &Self::State) -> f64;

    /// A scheduling hint exposed to [`DelayStrategy`] (e.g. the round
    /// number of a round-based message). Defaults to 0.
    fn hint(&self, _msg: &Self::Msg) -> u64 {
        0
    }
}

/// Chooses per-message delays in `(0, 1]`.
pub trait DelayStrategy {
    /// Delay for a message `from → to` carrying scheduling hint `hint`,
    /// sent at `send_time`. Must return a value in `(0, 1]`.
    fn delay(&mut self, from: usize, to: usize, hint: u64, send_time: f64) -> f64;
}

/// All messages take the same delay `d ∈ (0, 1]`.
#[derive(Debug, Clone)]
pub struct ConstantDelay {
    d: f64,
}

impl ConstantDelay {
    /// Creates the strategy.
    ///
    /// # Panics
    ///
    /// Panics if `d ∉ (0, 1]`.
    #[must_use]
    pub fn new(d: f64) -> Self {
        assert!(d > 0.0 && d <= 1.0, "delays must be in (0, 1]");
        ConstantDelay { d }
    }
}

impl DelayStrategy for ConstantDelay {
    fn delay(&mut self, _from: usize, _to: usize, _hint: u64, _send_time: f64) -> f64 {
        self.d
    }
}

/// Uniformly random delays in `[lo, 1]`, reproducible by seed.
#[derive(Debug, Clone)]
pub struct RandomDelay {
    lo: f64,
    rng: rand::rngs::StdRng,
}

impl RandomDelay {
    /// Creates the strategy with minimum delay `lo ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo ∉ (0, 1]`.
    #[must_use]
    pub fn new(lo: f64, seed: u64) -> Self {
        use rand::SeedableRng;
        assert!(lo > 0.0 && lo <= 1.0);
        RandomDelay {
            lo,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }
}

impl DelayStrategy for RandomDelay {
    fn delay(&mut self, _from: usize, _to: usize, _hint: u64, _send_time: f64) -> f64 {
        use rand::Rng;
        self.rng.random_range(self.lo..=1.0)
    }
}

/// Delays messages from the Lemma 24 block of the current round: block
/// members' round-`r` messages arrive at the full delay 1, everyone
/// else's at `fast`. For a round-based algorithm waiting for `n − f`
/// messages this realises the communication graph that omits exactly
/// block `r mod ⌈n/f⌉` — the paper's Lemma 24 pattern.
#[derive(Debug, Clone)]
pub struct RotatingBlockDelay {
    n: usize,
    f: usize,
    fast: f64,
}

impl RotatingBlockDelay {
    /// Creates the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `f == 0`, `f ≥ n` or `fast ∉ (0, 1)`.
    #[must_use]
    pub fn new(n: usize, f: usize, fast: f64) -> Self {
        assert!(f >= 1 && f < n, "need 0 < f < n");
        assert!(fast > 0.0 && fast < 1.0, "fast delay must be < 1");
        RotatingBlockDelay { n, f, fast }
    }
}

impl DelayStrategy for RotatingBlockDelay {
    fn delay(&mut self, from: usize, _to: usize, hint: u64, _send_time: f64) -> f64 {
        let q = self.n.div_ceil(self.f);
        let r = (hint as usize) % q; // block index for this round
        let block = consensus_digraph::families::lemma24_block(self.n, self.f, r + 1);
        if block & (1u64 << from) != 0 {
            1.0
        } else {
            self.fast
        }
    }
}

/// One crash: the agent dies **during** its `fatal_broadcast`-th
/// broadcast (0-based count over its lifetime, including the initial
/// time-0 broadcasts); that broadcast reaches only `final_recipients`
/// (a bitmask), and the agent never acts again.
#[derive(Debug, Clone, Copy)]
pub struct Crash {
    /// The crashing agent.
    pub agent: usize,
    /// Index of the fatal broadcast in the agent's broadcast sequence.
    pub fatal_broadcast: usize,
    /// Bitmask of agents that still receive the fatal broadcast.
    pub final_recipients: u64,
}

/// A set of crashes (at most one per agent).
#[derive(Debug, Clone, Default)]
pub struct CrashSchedule {
    crashes: Vec<Crash>,
}

impl CrashSchedule {
    /// No crashes.
    #[must_use]
    pub fn none() -> Self {
        CrashSchedule::default()
    }

    /// Builds a schedule from explicit crashes.
    ///
    /// # Panics
    ///
    /// Panics if an agent appears twice.
    #[must_use]
    pub fn new(crashes: Vec<Crash>) -> Self {
        let mut seen = std::collections::BTreeSet::new();
        for c in &crashes {
            assert!(seen.insert(c.agent), "agent {} crashes twice", c.agent);
        }
        CrashSchedule { crashes }
    }

    /// The number of crashes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.crashes.len()
    }

    /// Whether the schedule is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
    }

    fn crash_of(&self, agent: usize) -> Option<&Crash> {
        self.crashes.iter().find(|c| c.agent == agent)
    }
}

/// A pending delivery.
#[derive(Debug, Clone)]
struct Delivery<M> {
    time: f64,
    seq: u64,
    from: usize,
    to: usize,
    msg: M,
}

impl<M> PartialEq for Delivery<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl<M> Eq for Delivery<M> {}
impl<M> Delivery<M> {
    fn cmp_key(&self) -> (u64, u64) {
        // total_cmp-compatible ordering via bit representation of
        // non-negative times.
        (self.time.to_bits(), self.seq)
    }
}
impl<M> Ord for Delivery<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse for earliest-first.
        other.cmp_key().cmp(&self.cmp_key())
    }
}
impl<M> PartialOrd for Delivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A running asynchronous system.
pub struct Simulation<A: AsyncAlgorithm> {
    alg: A,
    n: usize,
    states: Vec<A::State>,
    /// Number of broadcasts each agent has performed.
    broadcasts: Vec<usize>,
    /// Whether the agent has crashed.
    dead: Vec<bool>,
    queue: BinaryHeap<Delivery<A::Msg>>,
    delays: Box<dyn DelayStrategy>,
    crashes: CrashSchedule,
    time: f64,
    seq: u64,
    delivered: u64,
}

impl<A: AsyncAlgorithm> Simulation<A> {
    /// Creates the system and performs the time-0 initial broadcasts.
    ///
    /// # Panics
    ///
    /// Panics if `inits` is empty or `f ≥ n`.
    #[must_use]
    pub fn new(
        alg: A,
        inits: &[f64],
        f: usize,
        delays: Box<dyn DelayStrategy>,
        crashes: CrashSchedule,
    ) -> Self {
        let n = inits.len();
        assert!(n >= 1, "need at least one agent");
        assert!(f < n, "need f < n");
        assert!(crashes.len() <= f, "schedule exceeds the crash budget f");
        let mut sim = Simulation {
            alg,
            n,
            states: Vec::with_capacity(n),
            broadcasts: vec![0; n],
            dead: vec![false; n],
            queue: BinaryHeap::new(),
            delays,
            crashes,
            time: 0.0,
            seq: 0,
            delivered: 0,
        };
        let mut initial_msgs = Vec::with_capacity(n);
        for (i, &y0) in inits.iter().enumerate() {
            let (st, msgs) = sim.alg.init(i, y0, n, f);
            sim.states.push(st);
            initial_msgs.push(msgs);
        }
        for (i, msgs) in initial_msgs.into_iter().enumerate() {
            for m in msgs {
                sim.broadcast(i, 0.0, m);
            }
        }
        sim
    }

    /// The current simulation time.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Total messages delivered so far.
    #[must_use]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The outputs of all agents (crashed included — frozen at crash).
    #[must_use]
    pub fn outputs(&self) -> Vec<f64> {
        self.states.iter().map(|s| self.alg.output(s)).collect()
    }

    /// The `(agent, output)` pairs of **correct** (non-crashed) agents;
    /// the paper's §8 convergence/agreement/validity conditions quantify
    /// over these only.
    #[must_use]
    pub fn correct_outputs(&self) -> Vec<(usize, f64)> {
        (0..self.n)
            .filter(|&i| !self.dead[i])
            .map(|i| (i, self.alg.output(&self.states[i])))
            .collect()
    }

    /// The spread of the correct agents' outputs.
    #[must_use]
    pub fn correct_diameter(&self) -> f64 {
        let outs = self.correct_outputs();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &(_, y) in &outs {
            lo = lo.min(y);
            hi = hi.max(y);
        }
        if outs.is_empty() {
            0.0
        } else {
            hi - lo
        }
    }

    fn broadcast(&mut self, from: usize, now: f64, msg: A::Msg) {
        if self.dead[from] {
            return;
        }
        let idx = self.broadcasts[from];
        self.broadcasts[from] += 1;
        let fatal = self.crashes.crash_of(from).copied();
        let (recipients, dies) = match fatal {
            Some(c) if idx == c.fatal_broadcast => (c.final_recipients, true),
            Some(c) if idx > c.fatal_broadcast => (0, true),
            _ => (u64::MAX, false),
        };
        let hint = self.alg.hint(&msg);
        for to in 0..self.n {
            if recipients & (1u64 << to) == 0 {
                continue;
            }
            let d = if to == from {
                0.0
            } else {
                let d = self.delays.delay(from, to, hint, now);
                assert!(d > 0.0 && d <= 1.0, "delays must be in (0, 1]");
                d
            };
            self.seq += 1;
            self.queue.push(Delivery {
                time: now + d,
                seq: self.seq,
                from,
                to,
                msg: msg.clone(),
            });
        }
        if dies {
            self.dead[from] = true;
        }
    }

    /// Processes all deliveries with `time ≤ horizon` (or until
    /// quiescence). Returns the number of messages delivered.
    pub fn run_until(&mut self, horizon: f64) -> u64 {
        let mut count = 0;
        while let Some(top) = self.queue.peek() {
            if top.time > horizon {
                break;
            }
            let d = self.queue.pop().expect("peeked");
            self.time = d.time;
            if self.dead[d.to] {
                continue;
            }
            self.delivered += 1;
            count += 1;
            let replies = self
                .alg
                .on_receive(d.to, &mut self.states[d.to], d.from, &d.msg);
            for m in replies {
                self.broadcast(d.to, d.time, m);
            }
        }
        count
    }

    /// Runs to quiescence (empty queue), with a safety cap on
    /// deliveries.
    ///
    /// # Panics
    ///
    /// Panics if the cap is exceeded (a non-terminating protocol).
    pub fn run_to_quiescence(&mut self, max_deliveries: u64) {
        let mut count = 0u64;
        while let Some(d) = self.queue.pop() {
            self.time = d.time;
            if self.dead[d.to] {
                continue;
            }
            self.delivered += 1;
            count += 1;
            assert!(
                count <= max_deliveries,
                "protocol did not quiesce within {max_deliveries} deliveries"
            );
            let replies = self
                .alg
                .on_receive(d.to, &mut self.states[d.to], d.from, &d.msg);
            for m in replies {
                self.broadcast(d.to, d.time, m);
            }
        }
    }

    /// Whether agent `i` has crashed.
    #[must_use]
    pub fn is_dead(&self, i: usize) -> bool {
        self.dead[i]
    }

    /// Read access to an agent's algorithm state (for histories/reports).
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    #[must_use]
    pub fn state(&self, i: usize) -> &A::State {
        &self.states[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial echo algorithm used to exercise the engine: every agent
    /// broadcasts its value once; on receive it records the max seen.
    #[derive(Debug, Clone)]
    struct MaxOnce;

    impl AsyncAlgorithm for MaxOnce {
        type State = f64;
        type Msg = f64;

        fn name(&self) -> String {
            "max-once".into()
        }

        fn init(&self, _agent: usize, y0: f64, _n: usize, _f: usize) -> (f64, Vec<f64>) {
            (y0, vec![y0])
        }

        fn on_receive(&self, _a: usize, state: &mut f64, _from: usize, msg: &f64) -> Vec<f64> {
            if *msg > *state {
                *state = *msg;
            }
            Vec::new()
        }

        fn output(&self, state: &f64) -> f64 {
            *state
        }
    }

    #[test]
    fn all_messages_delivered_without_crashes() {
        let mut sim = Simulation::new(
            MaxOnce,
            &[1.0, 2.0, 3.0],
            1,
            Box::new(ConstantDelay::new(1.0)),
            CrashSchedule::none(),
        );
        sim.run_to_quiescence(1000);
        assert_eq!(sim.outputs(), vec![3.0, 3.0, 3.0]);
        // 3 broadcasts × 3 recipients.
        assert_eq!(sim.delivered(), 9);
    }

    #[test]
    fn horizon_respected() {
        let mut sim = Simulation::new(
            MaxOnce,
            &[1.0, 5.0],
            1,
            Box::new(ConstantDelay::new(1.0)),
            CrashSchedule::none(),
        );
        // Self-deliveries at time 0 only.
        sim.run_until(0.5);
        assert_eq!(sim.outputs(), vec![1.0, 5.0]);
        sim.run_until(1.0);
        assert_eq!(sim.outputs(), vec![5.0, 5.0]);
    }

    #[test]
    fn unclean_crash_partitions_final_broadcast() {
        // Agent 2 (value 9) crashes during its very first broadcast,
        // reaching only agent 0.
        let crashes = CrashSchedule::new(vec![Crash {
            agent: 2,
            fatal_broadcast: 0,
            final_recipients: 0b001,
        }]);
        let mut sim = Simulation::new(
            MaxOnce,
            &[1.0, 2.0, 9.0],
            1,
            Box::new(ConstantDelay::new(1.0)),
            crashes,
        );
        sim.run_to_quiescence(1000);
        assert!(sim.is_dead(2));
        let outs = sim.outputs();
        assert_eq!(outs[0], 9.0, "agent 0 got the final broadcast");
        assert_eq!(outs[1], 2.0, "agent 1 did not");
    }

    #[test]
    fn crash_budget_enforced() {
        let crashes = CrashSchedule::new(vec![Crash {
            agent: 0,
            fatal_broadcast: 0,
            final_recipients: 0,
        }]);
        let r = std::panic::catch_unwind(|| {
            Simulation::new(
                MaxOnce,
                &[1.0, 2.0],
                0,
                Box::new(ConstantDelay::new(1.0)),
                crashes,
            )
        });
        assert!(r.is_err(), "f = 0 admits no crash schedule");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let mut sim = Simulation::new(
                MaxOnce,
                &[0.0, 1.0, 2.0, 3.0],
                1,
                Box::new(RandomDelay::new(0.2, 7)),
                CrashSchedule::none(),
            );
            sim.run_to_quiescence(10_000);
            sim.outputs()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rotating_block_delay_shape() {
        let mut d = RotatingBlockDelay::new(4, 1, 0.25);
        // Round hint 0 → block 1 = {agent 0} is slow.
        assert_eq!(d.delay(0, 1, 0, 0.0), 1.0);
        assert_eq!(d.delay(1, 2, 0, 0.0), 0.25);
        // Round hint 1 → block 2 = {agent 1} is slow.
        assert_eq!(d.delay(1, 2, 1, 0.0), 1.0);
        assert_eq!(d.delay(0, 1, 1, 0.0), 0.25);
    }
}
