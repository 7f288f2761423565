//! The traced run's timing wrappers and the reductions that turn the
//! program's own trace events into per-layer metrics. Nothing here is
//! compiled into the crates: the wrappers sit around public traits, and
//! the events come from a `TraceHandle` carrying the `WallClock`.

use std::sync::Arc;

use consensus_bench::wallclock::WallClock;
use tight_bounds_consensus::obs::{EventKind, EventStream, TraceHandle, DEFAULT_RECORDER_CAP};
use tight_bounds_consensus::prelude::*;

use crate::common::{now_ns, percentile_sorted, tail_percentile, Metric};

/// A trace that records with real timestamps.
pub fn wall_trace() -> TraceHandle {
    TraceHandle::enabled_with(DEFAULT_RECORDER_CAP, Arc::new(WallClock::new()))
}

/// Times every graph a [`pattern::PatternSource`] hands out.
pub struct TimedPattern<P> {
    pub inner: P,
    pub ns: u64,
    pub calls: u64,
}

impl<P: pattern::PatternSource> pattern::PatternSource for TimedPattern<P> {
    fn next_graph(&mut self, round: u64) -> Digraph {
        let t0 = now_ns();
        let g = self.inner.next_graph(round);
        self.ns += now_ns() - t0;
        self.calls += 1;
        g
    }
}

/// Times every `next_block` call of a [`scenario::Driver`].
pub struct TimedDriver<Dr> {
    pub inner: Dr,
    pub ns: u64,
    pub calls: u64,
}

impl<A: Algorithm<D>, Dr: scenario::Driver<A, D>, const D: usize> scenario::Driver<A, D>
    for TimedDriver<Dr>
{
    fn block_len(&self) -> usize {
        self.inner.block_len()
    }

    fn next_block(&mut self, exec: &Execution<A, D>, out: &mut Vec<Digraph>) {
        let t0 = now_ns();
        self.inner.next_block(exec, out);
        self.ns += now_ns() - t0;
        self.calls += 1;
    }

    fn observe(&mut self, exec: &Execution<A, D>) {
        self.inner.observe(exec);
    }
}

/// One traced `Sweep` call: its merged trace, its worker count and the
/// wall time of the call.
pub struct SweepTrace {
    pub stream: EventStream,
    pub workers: usize,
    pub wall_ns: u64,
}

/// The `sweep.*` and `pool.*` profile metrics over traced sweep calls:
/// per-cell span durations, and the pool profile the sweep emits
/// (`pool_worker_stolen`, `pool_cell_ns`).
pub fn sweep_pool_metrics(calls: &[SweepTrace]) -> Vec<Metric> {
    let mut cell_ms: Vec<f64> = Vec::new();
    let (mut steals, mut busy_ns, mut capacity_ns, mut spread_ns) = (0u64, 0u64, 0f64, 0f64);
    for c in calls {
        cell_ms.extend(
            c.stream
                .span_durations_ns("cell")
                .iter()
                .map(|&ns| ns as f64 * 1e-6),
        );
        steals += c.stream.counter_total("pool_worker_stolen");
        let busy = c.stream.counter_total("pool_cell_ns");
        busy_ns += busy;
        capacity_ns += c.workers as f64 * c.wall_ns as f64;
        // Makespan of the cells: first cell start to last cell end.
        let (mut first, mut last) = (u64::MAX, 0u64);
        for e in c.stream.events_for_span("cell") {
            if let Some(t) = e.t_ns {
                match e.event.kind {
                    EventKind::SpanBegin => first = first.min(t),
                    _ => last = last.max(t),
                }
            }
        }
        if last > first {
            spread_ns += c.workers as f64 * (last - first) as f64;
        }
    }
    cell_ms.sort_by(f64::total_cmp);
    let n = cell_ms.len() as u64;
    let (p50, tail_p, tail) = if cell_ms.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        let p = tail_percentile(cell_ms.len());
        (
            percentile_sorted(&cell_ms, 50.0),
            p,
            percentile_sorted(&cell_ms, p),
        )
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        Metric::new("sweep.cell_ms.p50", p50, "ms", n),
        Metric::new("sweep.cell_ms.tail", tail, "ms", n).note(format!("p{tail_p}")),
        Metric::new("sweep.cell_samples", n as f64, "count", n),
        Metric::new("pool.steals", steals as f64, "count", n),
        Metric::new(
            "pool.busy_share",
            ratio(busy_ns as f64, capacity_ns),
            "ratio",
            n,
        )
        .note("cell time / (workers × sweep wall)"),
        Metric::new(
            "pool.imbalance",
            ratio(spread_ns, busy_ns as f64),
            "ratio",
            n,
        )
        .note("workers × cell makespan / cell time; 1 = balanced"),
    ]
}
