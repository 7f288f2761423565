//! Determinism properties of the observability layer: tracing a run
//! must never change its result, and the *content* event stream must be
//! bit-identical at every thread count.
//!
//! These are the workspace-level counterparts of the byte-level
//! `ci/golden_trace.jsonl` gate — the golden pins two thread counts,
//! the proptests here sample the rest.

use consensus_bench::experiments::{
    run_dynamic, run_ensemble, run_multidim, try_dynamic_spec, try_ensemble_spec, try_multidim_spec,
};
use consensus_bench::obswire::{enrich_report, trace_rounds_ensemble};
use consensus_bench::orchestrate::run_grid;
use proptest::prelude::*;
use tight_bounds_consensus::obs::{to_jsonl_content, TraceHandle};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A traced run reports the same outcomes, byte for byte, as the
    /// untraced run at the same (arbitrary) thread count.
    #[test]
    fn traced_run_equals_untraced_run(threads in 1u64..9) {
        let spec = try_ensemble_spec("golden").expect("registered preset");
        let threads = usize::try_from(threads).expect("small");
        let plain = run_ensemble(&spec, Some(threads));
        let traced = run_grid(&spec, Some(threads), &TraceHandle::enabled());
        prop_assert_eq!(plain.to_json(), traced.to_json());
    }

    /// The content stream (spans, counters, gauges, enrichment) from a
    /// single-threaded run is bit-identical to the one from an
    /// N-threaded run — scheduling may reorder execution, never the
    /// merged trace.
    #[test]
    fn content_stream_is_thread_count_invariant(threads in 2u64..9) {
        let spec = try_ensemble_spec("golden").expect("registered preset");
        let threads = usize::try_from(threads).expect("small");
        let t1 = TraceHandle::enabled();
        let tn = TraceHandle::enabled();
        let r1 = run_grid(&spec, Some(1), &t1);
        let rn = run_grid(&spec, Some(threads), &tn);
        enrich_report(&t1, &r1);
        enrich_report(&tn, &rn);
        trace_rounds_ensemble(&spec, &r1, &t1);
        trace_rounds_ensemble(&spec, &rn, &tn);
        prop_assert_eq!(
            to_jsonl_content(&t1.merged()),
            to_jsonl_content(&tn.merged())
        );
    }
}

/// The same two properties hold on the multidim and dynamic grids
/// (span-level tracing only — round replay is ensemble-specific).
#[test]
fn multidim_and_dynamic_grids_trace_deterministically() {
    let mspec = try_multidim_spec("golden").expect("registered preset");
    let plain = run_multidim(&mspec, Some(3));
    let t1 = TraceHandle::enabled();
    let tn = TraceHandle::enabled();
    let r1 = run_grid(&mspec, Some(1), &t1);
    let rn = run_grid(&mspec, Some(3), &tn);
    assert_eq!(plain.to_json(), rn.to_json());
    enrich_report(&t1, &r1);
    enrich_report(&tn, &rn);
    assert_eq!(
        to_jsonl_content(&t1.merged()),
        to_jsonl_content(&tn.merged())
    );

    let dspec = try_dynamic_spec("golden").expect("registered preset");
    let plain = run_dynamic(&dspec, Some(3));
    let t1 = TraceHandle::enabled();
    let tn = TraceHandle::enabled();
    let r1 = run_grid(&dspec, Some(1), &t1);
    let rn = run_grid(&dspec, Some(3), &tn);
    assert_eq!(plain.to_json(), rn.to_json());
    enrich_report(&t1, &r1);
    enrich_report(&tn, &rn);
    assert_eq!(
        to_jsonl_content(&t1.merged()),
        to_jsonl_content(&tn.merged())
    );
}
