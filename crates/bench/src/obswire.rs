//! Wiring between the bench runners and the [`consensus_obs`] tracing
//! core: trace levels, report enrichment, round-level replay, and the
//! JSONL writer the `sweep` bin's `--trace-out` flag uses.
//!
//! Everything here emits **content-class** events on deterministic
//! lanes, so a trace written with the default (timestamp-free) clock is
//! a pure function of the spec — the property the `ci/golden_trace.jsonl`
//! gate pins at two different thread counts.

use std::io::Write as _;

use consensus_obs::{lane, to_jsonl_content, to_jsonl_full, TraceHandle};
use tight_bounds_consensus::prelude::*;

use crate::experiments::{ensemble_scenario, EnsembleSpec};

/// Granularity of a `sweep --trace-out` capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceLevel {
    /// Per-cell spans, pool profile, and report enrichment (cheap; the
    /// default). Works on every grid.
    Span,
    /// Everything `Span` captures **plus** a sequential per-cell
    /// round replay emitting per-round diameter and contraction on
    /// [`lane::EXECUTOR`]. Supported for the ensemble grid; other
    /// grids fall back to `Span` coverage.
    Round,
}

impl TraceLevel {
    /// Parses a CLI value (`span` or `round`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "span" => Some(Self::Span),
            "round" => Some(Self::Round),
            _ => None,
        }
    }
}

/// Copies a finished report's per-cell outcomes into the trace on
/// [`lane::ENRICH`] (shard = report row), so a trace file is
/// self-contained: rate, rounds, convergence and the replay fingerprint
/// travel with the spans that produced them.
///
/// Content-class and derived only from the report, so enrichment never
/// perturbs the determinism contract.
pub fn enrich_report(trace: &TraceHandle, report: &SweepReport) {
    if !trace.is_enabled() {
        return;
    }
    for (i, o) in report.outcomes.iter().enumerate() {
        let shard = i as u64;
        let Some(mut rec) = trace.recorder(shard, lane::ENRICH) else {
            return;
        };
        rec.counter("cell_rounds", shard, o.rounds);
        rec.counter("cell_converged", shard, u64::from(o.converged));
        if let Some(t) = o.decision_round {
            rec.counter("cell_decision_round", shard, t);
        }
        rec.counter("cell_fingerprint", shard, o.fingerprint);
        if o.rate.is_finite() {
            rec.gauge("cell_rate", shard, o.rate);
        }
        trace.commit(rec);
    }
}

/// Sequentially replays every ensemble cell for exactly the rounds its
/// report row executed, emitting a `round` span with `diameter` and
/// `contraction` gauges per round on `(cell, lane::EXECUTOR)`.
///
/// The replay rebuilds each cell with [`ensemble_scenario`] from its
/// seed — the setup the measured cell ran — so it never touches the
/// reported outcomes: it is a read-only magnification of a run that
/// already happened. Sequential by construction, hence thread-count
/// invariant.
pub fn trace_rounds_ensemble(spec: &EnsembleSpec, report: &SweepReport, trace: &TraceHandle) {
    if !trace.is_enabled() {
        return;
    }
    let sweep = Sweep::new(spec.grid.cells()).seed(spec.base_seed);
    assert_eq!(
        sweep.len(),
        report.outcomes.len(),
        "report rows must match the spec grid"
    );
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let Some(mut rec) = trace.recorder(i as u64, lane::EXECUTOR) else {
            return;
        };
        let (mut sc, mut prev) =
            sweep.run_cell(i, |cell, ctx| ensemble_scenario(cell, ctx, spec.tol));
        for r in 1..=outcome.rounds {
            if sc.advance(1) == 0 {
                break;
            }
            let d = sc.execution().value_diameter();
            rec.span_begin("round", r);
            rec.gauge("diameter", r, d);
            rec.gauge("contraction", r, if prev > 0.0 { d / prev } else { 1.0 });
            rec.span_end("round", r);
            prev = d;
        }
        trace.commit(rec);
    }
}

/// Writes the merged trace to `path` as JSONL: the content stream
/// (timestamp-free, profile events stripped, byte-stable across thread
/// counts) unless `timing` is set, in which case the full stream —
/// profile events and any clock timestamps included — is written.
///
/// # Errors
///
/// Propagates the underlying file-system error.
pub fn write_trace(path: &str, trace: &TraceHandle, timing: bool) -> std::io::Result<()> {
    let merged = trace.merged();
    let body = if timing {
        to_jsonl_full(&merged)
    } else {
        to_jsonl_content(&merged)
    };
    let mut f = std::fs::File::create(path)?;
    f.write_all(body.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::try_ensemble_spec;
    use crate::orchestrate::run_grid;

    #[test]
    fn trace_level_parses_cli_values() {
        assert_eq!(TraceLevel::parse("span"), Some(TraceLevel::Span));
        assert_eq!(TraceLevel::parse("round"), Some(TraceLevel::Round));
        assert_eq!(TraceLevel::parse("ROUND"), None);
    }

    #[test]
    fn enrichment_is_a_pure_function_of_the_report() {
        let spec = try_ensemble_spec("golden").expect("registered preset");
        let t1 = TraceHandle::enabled();
        let t2 = TraceHandle::enabled();
        let r1 = run_grid(&spec, Some(1), &t1);
        let r2 = run_grid(&spec, Some(4), &t2);
        enrich_report(&t1, &r1);
        enrich_report(&t2, &r2);
        assert_eq!(
            to_jsonl_content(&t1.merged().content()),
            to_jsonl_content(&t2.merged().content()),
            "content JSONL must be identical at any thread count"
        );
    }

    #[test]
    fn round_replay_matches_reported_rounds_and_never_alters_the_report() {
        let spec = try_ensemble_spec("golden").expect("registered preset");
        let plain = crate::experiments::run_ensemble(&spec, Some(2));
        let trace = TraceHandle::enabled();
        let traced = run_grid(&spec, Some(2), &trace);
        assert_eq!(plain.to_json(), traced.to_json());
        trace_rounds_ensemble(&spec, &traced, &trace);
        let merged = trace.merged();
        for (i, o) in traced.outcomes.iter().enumerate() {
            let span_events = merged
                .events_for_span("round")
                .into_iter()
                .filter(|e| e.shard == i as u64)
                .count();
            assert_eq!(
                span_events as u64,
                2 * o.rounds,
                "cell {i} must replay exactly its reported rounds"
            );
        }
        // The replay itself is sequential, so a second replay at any
        // thread count produces identical bytes.
        let again = TraceHandle::enabled();
        trace_rounds_ensemble(&spec, &traced, &again);
        let lhs = merged.content();
        let rhs = again.merged().content();
        assert_eq!(lhs.events_for_span("round"), rhs.events_for_span("round"));
    }
}
