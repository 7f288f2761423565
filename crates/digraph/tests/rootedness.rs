//! Rootedness beyond exhaustive sizes: [`Digraph::is_rooted`],
//! [`Digraph::roots`] and [`Digraph::reachable_from`] agree with the
//! independent Tarjan condensation (and a plain breadth-first search) on
//! seeded random graphs up to the 64-agent cap, at densities that give
//! both rooted and unrooted graphs.

use consensus_digraph::{scc, AgentSet, Digraph};

/// splitmix64 step: a self-contained seeded stream.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random digraph on `n` agents where each non-loop edge is present
/// with probability `per_mille / 1000`.
fn random_graph(n: usize, per_mille: u64, rng: &mut u64) -> Digraph {
    let masks: Vec<AgentSet> = (0..n)
        .map(|_| {
            (0..n).fold(0u64, |m, j| {
                if splitmix64(rng) % 1000 < per_mille {
                    m | 1u64 << j
                } else {
                    m
                }
            })
        })
        .collect();
    Digraph::from_in_masks(&masks).expect("1 ≤ n ≤ 64")
}

/// Reachability by a textbook breadth-first search over edge queries.
fn bfs_reach(g: &Digraph, from: usize) -> AgentSet {
    let mut seen = 1u64 << from;
    let mut queue = vec![from];
    while let Some(k) = queue.pop() {
        for j in 0..g.n() {
            if g.has_edge(k, j) && seen & (1u64 << j) == 0 {
                seen |= 1u64 << j;
                queue.push(j);
            }
        }
    }
    seen
}

#[test]
fn rootedness_agrees_with_the_condensation_on_random_graphs() {
    for n in [5usize, 16, 24, 63, 64] {
        let mut rng = 0x726f_6f74_6564 ^ n as u64;
        let (mut rooted, mut unrooted) = (0, 0);
        // Expected out-degrees from about 0.5 to 3 extra edges, then dense.
        let densities = [
            500 / n as u64,
            1000 / n as u64,
            2000 / n as u64,
            3000 / n as u64,
            300,
        ];
        for &per_mille in &densities {
            for _ in 0..40 {
                let g = random_graph(n, per_mille, &mut rng);
                let want = scc::roots_via_condensation(&g);
                assert_eq!(g.roots(), want, "roots on {g}");
                assert_eq!(g.is_rooted(), want != 0, "is_rooted on {g}");
                for i in 0..n {
                    assert_eq!(g.reachable_from(i), bfs_reach(&g, i), "reach {i} on {g}");
                }
                if want != 0 {
                    rooted += 1;
                } else {
                    unrooted += 1;
                }
            }
        }
        assert!(
            rooted > 0 && unrooted > 0,
            "n={n}: {rooted} rooted, {unrooted} unrooted"
        );
    }
}

#[test]
fn full_width_graphs_at_the_cap() {
    // n = 64 fills every bit of the mask.
    let k = Digraph::complete(64);
    assert!(k.is_rooted());
    assert_eq!(k.roots(), u64::MAX);
    assert_eq!(k.reachable_from(63), u64::MAX);
    let deaf = k.make_deaf(63);
    assert_eq!(deaf.roots(), 1u64 << 63);
    let empty = Digraph::empty(64);
    assert!(!empty.is_rooted());
    assert_eq!(empty.roots(), 0);
    assert_eq!(empty.reachable_from(63), 1u64 << 63);
}

#[test]
fn long_paths_in_scrambled_orders() {
    // A Hamiltonian path visited in a seeded random order: its root is
    // wherever the permutation starts, and sweeps in agent order meet
    // the edges backwards. Removing one path edge splits it.
    for n in [5usize, 16, 24, 63, 64] {
        let mut rng = 0x7061_7468 ^ n as u64;
        for _ in 0..8 {
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, (splitmix64(&mut rng) % (i as u64 + 1)) as usize);
            }
            let path = Digraph::from_edges(n, order.windows(2).map(|w| (w[0], w[1])))
                .expect("endpoints in range");
            assert_eq!(path.roots(), 1u64 << order[0], "path {path}");
            assert_eq!(path.roots(), scc::roots_via_condensation(&path));
            let cut = 1 + (splitmix64(&mut rng) % (n as u64 - 1)) as usize;
            let mut split = path.clone();
            split.remove_edge(order[cut - 1], order[cut]);
            assert!(!split.is_rooted(), "split path {split}");
            assert_eq!(split.roots(), 0);
        }
    }
}
