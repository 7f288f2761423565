//! Golden test: the `paper` grid (every checked claim of the paper, one
//! row each) is pinned byte-for-byte against `ci/golden_paper.json`, the
//! file the CI `sweep-regression` job diffs `sweep --grid paper --golden
//! --json` against. Every claim holds, and each of the 11 claims of
//! [`bounds::theorems`] names a row.

use consensus_bench::orchestrate::run_grid;
use consensus_bench::paper::try_paper_spec;
use tight_bounds_consensus::bounds;
use tight_bounds_consensus::prelude::TraceHandle;

const GOLDEN: &str = include_str!("../../../ci/golden_paper.json");

#[test]
fn paper_grid_is_the_golden_json_and_every_claim_holds() {
    let spec = try_paper_spec("golden").expect("registered preset");
    for threads in [1, 3] {
        let report = run_grid(&spec, Some(threads), &TraceHandle::disabled());
        assert_eq!(
            report.to_json(),
            GOLDEN,
            "paper grid at {threads} threads diverged from ci/golden_paper.json; \
             regenerate with `cargo run --release -p consensus-bench --bin sweep -- \
             --grid paper --golden --json > ci/golden_paper.json` if the change is \
             intended"
        );
        assert_eq!(report.summary.failures, 0);
        for (label, o) in report.labels.iter().zip(&report.outcomes) {
            assert!(o.converged, "claim does not hold: {label}");
        }
        for theorem in bounds::theorems() {
            let prefix = format!("{}:", theorem.id);
            assert!(
                report.labels.iter().any(|l| l.starts_with(&prefix)),
                "no row for {}",
                theorem.id
            );
        }
    }
}
