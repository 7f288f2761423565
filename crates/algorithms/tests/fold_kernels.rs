//! The fold-based kernels of `Midpoint`, `MeanValue` and
//! `SelfWeightedAverage` must produce exactly the bits of reference
//! `for (_, p) in inbox` loops, which walk the inbox by `next()`, on
//! every sender-set representation (mask, word array, CSR row).
//!
//! Inboxes are drawn from a seeded splitmix64 stream over a value pool
//! that mixes signed zeros, subnormals and ordinary values, so the
//! `min`/`max` ties between `-0.0` and `0.0` and the rounding of tiny
//! sums are both exercised.

use consensus_algorithms::{
    Agent, Algorithm, Inbox, MeanValue, Midpoint, Point, SelfWeightedAverage,
};
use consensus_digraph::{SenderSet, WordSet};

struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

const SPECIAL: [f64; 8] = [
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 3.0,
    -f64::MIN_POSITIVE / 7.0,
    5e-324,
    -5e-324,
    1.0,
    -1.0,
];

fn value(rng: &mut SplitMix) -> f64 {
    if rng.below(2) == 0 {
        SPECIAL[rng.below(SPECIAL.len() as u64) as usize]
    } else {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

fn point<const D: usize>(rng: &mut SplitMix) -> Point<D> {
    let mut p = Point::ZERO;
    for c in 0..D {
        p[c] = value(rng);
    }
    p
}

fn midpoint_ref<const D: usize>(inbox: Inbox<'_, Point<D>>) -> Point<D> {
    let mut it = inbox.iter();
    let (_, &first) = it.next().expect("non-empty inbox");
    let mut lo = first;
    let mut hi = first;
    for (_, p) in it {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    lo.midpoint(&hi)
}

fn mean_ref<const D: usize>(inbox: Inbox<'_, Point<D>>) -> Point<D> {
    let mut acc = Point::ZERO;
    for (_, p) in inbox {
        acc += *p;
    }
    acc * (1.0 / inbox.len() as f64)
}

fn self_weighted_ref<const D: usize>(
    w: f64,
    agent: Agent,
    state: Point<D>,
    inbox: Inbox<'_, Point<D>>,
) -> Point<D> {
    let mut acc = Point::ZERO;
    let mut count = 0usize;
    for (from, p) in inbox {
        if from != agent {
            acc += *p;
            count += 1;
        }
    }
    if count > 0 {
        state * w + acc * ((1.0 - w) / count as f64)
    } else {
        state
    }
}

fn bits<const D: usize>(p: Point<D>) -> [u64; D] {
    std::array::from_fn(|c| p[c].to_bits())
}

/// Steps all three kernels on `inbox` for `agent` and compares each
/// result with its reference loop, bit for bit.
fn check<const D: usize>(agent: Agent, state: Point<D>, inbox: Inbox<'_, Point<D>>, ctx: &str) {
    if !inbox.is_empty() {
        let mut s = state;
        Midpoint.step(agent, &mut s, inbox, 1);
        assert_eq!(bits(s), bits(midpoint_ref(inbox)), "midpoint, {ctx}");

        let mut s = state;
        MeanValue.step(agent, &mut s, inbox, 1);
        assert_eq!(bits(s), bits(mean_ref(inbox)), "mean value, {ctx}");
    }
    for w in [0.0, 0.25, 0.5, 1.0] {
        let alg = SelfWeightedAverage::new(w);
        let mut s = state;
        alg.step(agent, &mut s, inbox, 1);
        let want = self_weighted_ref(w, agent, state, inbox);
        assert_eq!(bits(s), bits(want), "self-weighted w={w}, {ctx}");
    }
}

/// One seeded round: a slate of `n` values and, per agent, a random
/// sender set (self included with probability 3/4) seen through every
/// representation that can hold it.
fn round<const D: usize>(rng: &mut SplitMix, n: usize) {
    let slate: Vec<Point<D>> = (0..n).map(|_| point(rng)).collect();
    let density = 1 + rng.below(4);
    for agent in 0..n {
        let senders: Vec<u32> = (0..n as u32)
            .filter(|&j| {
                let heard = rng.below(4) < density;
                if j as usize == agent {
                    rng.below(4) != 0
                } else {
                    heard
                }
            })
            .collect();
        let mut words = WordSet::with_capacity(n);
        for &j in &senders {
            words.insert(j as usize);
        }
        let mut inboxes = vec![
            Inbox::from_senders(SenderSet::Sorted(&senders), &slate),
            Inbox::from_senders(&words, &slate),
        ];
        if n <= 64 {
            let mask = senders.iter().fold(0u64, |m, &j| m | 1 << j);
            inboxes.push(Inbox::new(mask, &slate));
        }
        // The same row with ids past the slate: the clamped slow path.
        let mut long = senders.clone();
        long.extend([n as u32, n as u32 + 9]);
        inboxes.push(Inbox::from_senders(SenderSet::Sorted(&long), &slate));
        let ctx = format!("n={n} agent={agent} senders={senders:?}");
        for inbox in inboxes {
            check(agent, slate[agent], inbox, &ctx);
        }
    }
}

#[test]
fn fold_kernels_match_the_reference_loops_bit_for_bit() {
    let mut rng = SplitMix(0x666F_6C64);
    for n in [1, 2, 3, 7, 33, 64, 65, 130] {
        for _ in 0..4 {
            round::<1>(&mut rng, n);
            round::<3>(&mut rng, n);
        }
    }
}

#[test]
fn signed_zero_ties_keep_their_order() {
    // f64::min/max on a ±0 tie may return either operand, so the fold
    // must see the senders in the same order as the loop did.
    let slate = [Point([0.0]), Point([-0.0]), Point([0.0]), Point([-0.0])];
    for mask in 1u64..16 {
        for agent in 0..4 {
            check(
                agent,
                slate[agent],
                Inbox::new(mask, &slate),
                &format!("mask={mask:#b}"),
            );
        }
    }
}

#[test]
fn self_weighted_without_self_or_others() {
    let slate = [Point([0.5]), Point([-0.0]), Point([5e-324])];
    // Agent 0 absent from its own inbox: every sender counts.
    let without_self = Inbox::new(0b110, &slate);
    check(0, slate[0], without_self, "agent 0 not in {1, 2}");
    // Only the agent itself: `count == 0` keeps the state.
    let alone = Inbox::new(0b001, &slate);
    check(0, slate[0], alone, "agent 0 alone");
    let mut s = slate[0];
    SelfWeightedAverage::new(0.25).step(0, &mut s, alone, 1);
    assert_eq!(s[0].to_bits(), 0.5f64.to_bits());
    // An empty inbox also takes the `count == 0` branch.
    check(0, slate[0], Inbox::new(0, &slate), "empty inbox");
}
