//! Layer measurements that do not depend on the workload: kernel cost
//! per message, rootedness checks, CSR construction and pool dispatch.
//! Each one times calls into a crate's public functions.

use std::hint::black_box;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tight_bounds_consensus::netmodel::sampler::{GraphSampler, RootedSampler};
use tight_bounds_consensus::pool;
use tight_bounds_consensus::prelude::*;

use crate::common::{median, now_ns, secs_since, Ctx, Metric};
use crate::large_n::LATTICE_K;

/// Repeats `f` until at least `min_s` seconds and `min_reps` calls have
/// passed; returns (total nanoseconds, calls).
fn repeat(min_s: f64, min_reps: u64, mut f: impl FnMut()) -> (f64, u64) {
    let t0 = now_ns();
    let mut reps = 0;
    while reps < min_reps || secs_since(t0) < min_s {
        f();
        reps += 1;
    }
    ((now_ns() - t0) as f64, reps)
}

/// Per-call wall times of `f`, in microseconds.
fn per_call_us(calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..calls)
        .map(|_| {
            let t0 = now_ns();
            f();
            (now_ns() - t0) as f64 * 1e-3
        })
        .collect()
}

fn mask_ns_per_msg<A: Algorithm<1>>(alg: A, inits: &[Point<1>], g: &Digraph) -> (f64, u64) {
    let mut exec = Execution::new(alg, inits);
    let (ns, steps) = repeat(0.05, 100, || exec.step(black_box(g)));
    black_box(exec.outputs_slice());
    let msgs = steps * g.edge_count() as u64;
    (ns / msgs as f64, msgs)
}

fn csr_ns_per_msg<K: ScalarKernel + Sync>(alg: K, inits: &[f64], g: &CsrDigraph) -> (f64, u64) {
    let mut exec = ShardedExecution::new(alg, inits).threads(1);
    exec.step(g);
    let (ns, steps) = repeat(0.1, 3, || exec.step(black_box(g)));
    black_box(exec.values());
    let msgs = steps * g.edge_count() as u64;
    (ns / msgs as f64, msgs)
}

pub fn measure(ctx: &Ctx) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x6C61_7965_7273);

    // Kernel cost: the dense mask path at n = 64, the CSR path at 10⁶.
    let dense: Vec<Point<1>> = (0..64)
        .map(|_| Point([rng.random_range(0.0..=1.0)]))
        .collect();
    let k64 = Digraph::complete(64);
    let mut build_ms = Vec::new();
    let mut lattice = CsrDigraph::ring_lattice(1, LATTICE_K);
    for _ in 0..3 {
        let t0 = now_ns();
        lattice = CsrDigraph::ring_lattice(1_000_000, LATTICE_K);
        build_ms.push(secs_since(t0) * 1e3);
    }
    let wide: Vec<f64> = (0..lattice.n())
        .map(|_| rng.random_range(0.0..=1.0))
        .collect();
    let kernels = [
        (
            "midpoint",
            mask_ns_per_msg(Midpoint, &dense, &k64),
            csr_ns_per_msg(Midpoint, &wide, &lattice),
        ),
        (
            "mean_value",
            mask_ns_per_msg(MeanValue, &dense, &k64),
            csr_ns_per_msg(MeanValue, &wide, &lattice),
        ),
        (
            "self_weighted",
            mask_ns_per_msg(SelfWeightedAverage::new(0.5), &dense, &k64),
            csr_ns_per_msg(SelfWeightedAverage::new(0.5), &wide, &lattice),
        ),
    ];
    for (name, (mask, mask_n), (csr, csr_n)) in kernels {
        m.push(Metric::new(
            format!("algorithms.ns_per_msg.{name}.mask"),
            mask,
            "ns",
            mask_n,
        ));
        m.push(Metric::new(
            format!("algorithms.ns_per_msg.{name}.csr"),
            csr,
            "ns",
            csr_n,
        ));
    }
    m.push(
        Metric::new("digraph.csr_build_ms.n1e6", median(&build_ms), "ms", 3)
            .note("ring_lattice(10^6, 6), median"),
    );

    // Rootedness over a seeded sample of rooted graphs.
    for n in [16usize, 24] {
        let sampler = RootedSampler::new(n, 0.15);
        let graphs: Vec<Digraph> = (0..256).map(|_| sampler.sample(&mut rng)).collect();
        let (ns, reps) = repeat(0.05, 4, || {
            for g in &graphs {
                black_box(black_box(g).is_rooted());
            }
        });
        let calls = reps * graphs.len() as u64;
        m.push(Metric::new(
            format!("digraph.is_rooted_ns.n{n}"),
            ns / calls as f64,
            "ns",
            calls,
        ));
    }

    // One dispatch with an empty body at nproc threads.
    let threads = ctx.nproc;
    let ri = per_call_us(200, || {
        black_box(pool::run_indexed(threads, threads, black_box));
    });
    let mut items = vec![0u8; threads];
    let fc = per_call_us(200, || {
        pool::for_each_chunk_mut(&mut items, 1, threads, |_, chunk| {
            black_box(chunk);
        });
    });
    m.push(
        Metric::new("pool.dispatch_us.run_indexed", median(&ri), "us", 200)
            .note(format!("{threads} cells on {threads} threads, median")),
    );
    m.push(
        Metric::new(
            "pool.dispatch_us.for_each_chunk_mut",
            median(&fc),
            "us",
            200,
        )
        .note(format!("{threads} chunks on {threads} threads, median")),
    );
    m
}
