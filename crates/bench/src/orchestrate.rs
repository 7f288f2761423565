//! The one [`Grid`] trait behind every registered experiment grid
//! (`ensemble` | `multidim` | `dynamic_rates` | `adversary_search` |
//! `paper`).
//!
//! A grid spec knows its registry name, base seed, cells, the labels of
//! the rows one cell contributes, how to run one cell, and its table.
//! The rest is written once over the trait: the bounds-checked
//! [`CellExecutor`] the coordinator runs cells through, report assembly
//! (one label/seed derivation for every report), `--replay`, and the
//! `sweep-worker` serve loop ([`worker_serve`]). [`AnySpec`] is the
//! registry: adding a grid is one [`Grid`] impl plus one registry
//! entry — an [`AnySpec`] variant, named in [`GRID_REGISTRY`],
//! [`AnySpec::resolve`] and the `dispatch!` macro.
//!
//! There is one grid runner, [`controlplane::run`]. [`run_grid`] is it
//! with no checkpoint over the in-process executor, followed by
//! [`AnySpec::report_from_rows`]'s report assembly; the `sweep` bin adds
//! the checkpoint, the worker processes and the metrics to the same
//! call. The load-bearing invariant: for every grid, the report JSON is
//! **byte-for-byte** the same whether the rows came from in-process
//! threads, spawned worker processes, or a checkpoint resumed across
//! three kills. The tests below and in `tests/cli.rs` pin this for every
//! grid against its `ci/` golden; the CI `resume-integrity` job pins it
//! end-to-end under a real `SIGKILL`.

use std::io::{BufRead as _, Write as _};
use std::time::Duration;

use tight_bounds_consensus::controlplane::{
    self, coordinator, protocol, CellExecutor, Metrics, RunConfig, SweepPlan,
};
use tight_bounds_consensus::pool;
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::sweep::cell_seed;

use crate::advsearch::{try_adversary_spec, AdversarySpec};
use crate::experiments::{
    try_dynamic_spec, try_ensemble_spec, try_multidim_spec, DynamicSpec, EnsembleSpec,
    MultidimSpec, SpecError,
};
use crate::paper::{try_paper_spec, PaperSpec};

/// One experiment grid: a spec whose cells the sweep pool, the
/// coordinator and the worker processes all run through
/// [`Grid::run_cell`]. Every cell contributes `ROWS` outcome rows: one,
/// or the matched coordinatewise/simplex pair for multidim.
pub trait Grid<const ROWS: usize>: Sync {
    /// The registry name (`sweep --grid NAME`, the checkpoint header).
    const NAME: &'static str;
    /// The one-line `sweep --list` description.
    const DESCRIPTION: &'static str;
    /// One point of the grid.
    type Cell: Sync;

    /// The report name embedded in the JSON (golden files are
    /// self-describing).
    fn report_name(&self) -> &str;
    /// The base seed all per-cell seeds derive from.
    fn base_seed(&self) -> u64;
    /// Overrides the base seed (the `--seed` flag).
    fn set_base_seed(&mut self, seed: u64);
    /// The cells, in report order.
    fn cells(&self) -> Vec<Self::Cell>;
    /// The labels of the outcome rows one cell contributes, in row
    /// order.
    fn row_labels(&self, cell: &Self::Cell) -> [String; ROWS];
    /// Runs one cell: the outcome rows of [`Grid::row_labels`], a pure
    /// function of `(cell, ctx)`. Grids with inner trace points record
    /// them in `trace`; the outcomes never depend on it.
    fn run_cell(&self, cell: &Self::Cell, ctx: CellCtx, trace: &TraceHandle)
        -> [CellOutcome; ROWS];
    /// Renders the grid's human table for a report.
    fn table(&self, report: &SweepReport) -> String;
}

/// The named experiment grids the `sweep` bin can select with
/// `--grid <name>` (and enumerate with `--list`): `(name, description)`
/// pairs, in display order. New grids register here instead of growing
/// new flags.
pub const GRID_REGISTRY: &[(&str, &str)] = &[
    (EnsembleSpec::NAME, EnsembleSpec::DESCRIPTION),
    (MultidimSpec::NAME, MultidimSpec::DESCRIPTION),
    (DynamicSpec::NAME, DynamicSpec::DESCRIPTION),
    (AdversarySpec::NAME, AdversarySpec::DESCRIPTION),
    (PaperSpec::NAME, PaperSpec::DESCRIPTION),
];

/// Runs a grid in process (`threads = None` ⇒ all cores; thread count
/// never changes the report): [`controlplane::run`] with no checkpoint
/// over the grid's in-process executor, then report assembly. An
/// enabled `trace` records the per-cell spans, the pool profile, the
/// coordinator's profile-class span and the grid's own trace points;
/// the report is byte-identical to the untraced run.
///
/// # Panics
///
/// Panics naming every failed cell and its message.
#[must_use]
pub fn run_grid<const R: usize, G: Grid<R>>(
    grid: &G,
    threads: Option<usize>,
    trace: &TraceHandle,
) -> SweepReport {
    let exec = GridExecutor::new(grid, Duration::ZERO, trace);
    let cfg = RunConfig {
        threads: threads.unwrap_or_else(pool::default_threads),
        trace: trace.clone(),
        ..RunConfig::default()
    };
    let out = controlplane::run(&plan(grid, ""), &cfg, &exec, &Metrics::new())
        .unwrap_or_else(|e| panic!("{e}"));
    if !out.failed_cells.is_empty() {
        let failures: Vec<&str> = out.failed_cells.iter().map(|(_, e)| e.as_str()).collect();
        panic!("{} grid failed: {}", G::NAME, failures.join("; "));
    }
    let rows = out.outcome_rows().expect("an uncancelled run completes");
    report(grid, &exec.cells, rows)
}

/// Assembles a report from flat outcome rows (cell order, one row per
/// label): each row carries its cell's label and seed.
///
/// # Panics
///
/// Panics if `rows` does not hold exactly one row per label.
fn report<const R: usize, G: Grid<R>>(
    grid: &G,
    cells: &[G::Cell],
    rows: Vec<CellOutcome>,
) -> SweepReport {
    let mut labels = Vec::with_capacity(rows.len());
    let mut seeds = Vec::with_capacity(rows.len());
    for (i, cell) in cells.iter().enumerate() {
        let seed = cell_seed(grid.base_seed(), i as u64);
        for label in grid.row_labels(cell) {
            labels.push(label);
            seeds.push(seed);
        }
    }
    SweepReport::new(grid.report_name(), grid.base_seed(), labels, seeds, rows)
}

/// The coordinator plan (and checkpoint header identity) of a grid.
fn plan<const R: usize, G: Grid<R>>(grid: &G, preset: &str) -> SweepPlan {
    SweepPlan {
        grid: G::NAME.into(),
        preset: preset.into(),
        base_seed: grid.base_seed(),
        n_cells: grid.cells().len(),
        rows_per_cell: R,
    }
}

/// An in-process [`CellExecutor`] over one grid (cells materialized
/// once): runs [`Grid::run_cell`] with the `(base_seed, cell)`-derived
/// [`CellCtx`] the coordinator's sweep hands out, recording the grid's
/// own trace points in the run's `trace`.
struct GridExecutor<'g, const R: usize, G: Grid<R>> {
    grid: &'g G,
    cells: Vec<G::Cell>,
    delay: Duration,
    trace: TraceHandle,
}

impl<'g, const R: usize, G: Grid<R>> GridExecutor<'g, R, G> {
    fn new(grid: &'g G, delay: Duration, trace: &TraceHandle) -> Self {
        GridExecutor {
            grid,
            cells: grid.cells(),
            delay,
            trace: trace.clone(),
        }
    }
}

impl<const R: usize, G: Grid<R>> CellExecutor for GridExecutor<'_, R, G> {
    /// # Errors
    ///
    /// Errs when `cell` is not an index of the grid.
    fn run_cell(&self, cell: usize) -> Result<Vec<CellOutcome>, String> {
        let Some(c) = self.cells.get(cell) else {
            return Err(format!(
                "cell {cell} out of range: grid has {} cells",
                self.cells.len()
            ));
        };
        if !self.delay.is_zero() {
            // Pure pacing for the CI kill window: lengthens wall-clock
            // time, never touches the data path.
            std::thread::sleep(self.delay);
        }
        let ctx = CellCtx {
            index: cell,
            seed: cell_seed(self.grid.base_seed(), cell as u64),
        };
        Ok(self.grid.run_cell(c, ctx, &self.trace).to_vec())
    }
}

/// Any registered experiment grid, behind one interface.
#[derive(Debug, Clone)]
pub enum AnySpec {
    /// The scalar averaging ensemble (`--grid ensemble`).
    Ensemble(EnsembleSpec),
    /// The `R^d` decision-time grid (`--grid multidim`).
    Multidim(MultidimSpec),
    /// The dynamic-network averaging-rate grid (`--grid dynamic_rates`).
    Dynamic(DynamicSpec),
    /// The adaptive adversary-search grid (`--grid adversary_search`).
    Adversary(AdversarySpec),
    /// Every checked claim of the paper (`--grid paper`).
    Paper(PaperSpec),
}

/// Evaluates `$body` with `$g` bound to the wrapped spec, whatever its
/// [`Grid`] type.
macro_rules! dispatch {
    ($spec:expr, $g:ident => $body:expr) => {
        match $spec {
            AnySpec::Ensemble($g) => $body,
            AnySpec::Multidim($g) => $body,
            AnySpec::Dynamic($g) => $body,
            AnySpec::Adversary($g) => $body,
            AnySpec::Paper($g) => $body,
        }
    };
}

/// The registry name of a grid value.
fn grid_name<const R: usize, G: Grid<R>>(_: &G) -> &'static str {
    G::NAME
}

impl AnySpec {
    /// Resolves a `(grid, preset)` pair from the registry.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownGrid`] for an unregistered grid name,
    /// [`SpecError::UnknownPreset`] for a bad preset within a grid.
    pub fn resolve(grid: &str, preset: &str) -> Result<AnySpec, SpecError> {
        Ok(match grid {
            EnsembleSpec::NAME => AnySpec::Ensemble(try_ensemble_spec(preset)?),
            MultidimSpec::NAME => AnySpec::Multidim(try_multidim_spec(preset)?),
            DynamicSpec::NAME => AnySpec::Dynamic(try_dynamic_spec(preset)?),
            AdversarySpec::NAME => AnySpec::Adversary(try_adversary_spec(preset)?),
            PaperSpec::NAME => AnySpec::Paper(try_paper_spec(preset)?),
            other => return Err(SpecError::UnknownGrid { got: other.into() }),
        })
    }

    /// The registry name of the wrapped grid.
    #[must_use]
    pub fn grid_name(&self) -> &'static str {
        dispatch!(self, g => grid_name(g))
    }

    /// Overrides the base seed (the `--seed` flag).
    pub fn set_base_seed(&mut self, seed: u64) {
        dispatch!(self, g => g.set_base_seed(seed));
    }

    /// The coordinator plan (and checkpoint header identity) of this
    /// spec under the given preset name.
    #[must_use]
    pub fn plan(&self, preset: &str) -> SweepPlan {
        dispatch!(self, g => plan(g, preset))
    }

    /// An in-process [`CellExecutor`] over this grid (cells
    /// materialized once) that records the grid's trace points in
    /// `trace`. `delay` stretches every cell by a sleep — the CI
    /// crash-resume job uses it to make a mid-grid `SIGKILL` land
    /// reliably; zero means no overhead.
    #[must_use]
    pub fn executor(&self, delay: Duration, trace: &TraceHandle) -> Box<dyn CellExecutor + '_> {
        dispatch!(self, g => Box::new(GridExecutor::new(g, delay, trace)))
    }

    /// Assembles the grid's [`SweepReport`] from coordinator outcome
    /// rows (flat, `rows_per_cell` per cell, cell order) — the labels
    /// and seeds of [`run_grid`], so the JSON is byte-identical to its.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != n_cells * rows_per_cell`.
    #[must_use]
    pub fn report_from_rows(&self, rows: Vec<CellOutcome>) -> SweepReport {
        dispatch!(self, g => report(g, &g.cells(), rows))
    }

    /// Renders the grid's human table for a report.
    #[must_use]
    pub fn table(&self, report: &SweepReport) -> String {
        dispatch!(self, g => g.table(report))
    }

    /// [`run_grid`] untraced.
    #[must_use]
    pub fn run_in_process(&self, threads: Option<usize>) -> SweepReport {
        dispatch!(self, g => run_grid(g, threads, &TraceHandle::disabled()))
    }

    /// Re-runs cell `index` solo — same configuration, same seed as the
    /// full run — and returns its rows as `(label, seed, outcome)`: the
    /// debugging path for a surprising aggregate.
    ///
    /// # Errors
    ///
    /// Errs when `index` is not a cell of the grid.
    pub fn replay(&self, index: usize) -> Result<Vec<(String, u64, CellOutcome)>, String> {
        dispatch!(self, g => {
            let exec = GridExecutor::new(g, Duration::ZERO, &TraceHandle::disabled());
            let rows = exec.run_cell(index)?;
            let seed = cell_seed(g.base_seed(), index as u64);
            Ok(g.row_labels(&exec.cells[index])
                .into_iter()
                .zip(rows)
                .map(|(label, o)| (label, seed, o))
                .collect())
        })
    }
}

/// The `sweep-worker` serve loop: one request line in, one response
/// line out, until stdin closes. Every cell runs through
/// [`AnySpec::executor`] with panics contained, so an out-of-range index
/// is a `failed` response naming the grid size. `fail_cells` injects
/// `failed` responses for the named cells (the coordinator-retry test
/// aid — never used by real runs).
///
/// # Errors
///
/// Returns the first unrecoverable stdio error.
pub fn worker_serve(
    spec: &AnySpec,
    delay: Duration,
    fail_cells: &[u64],
) -> Result<(), std::io::Error> {
    let exec = spec.executor(delay, &TraceHandle::disabled());
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.write_all(worker_reply(&*exec, fail_cells, &line).as_bytes())?;
        out.write_all(b"\n")?;
        out.flush()?;
    }
    Ok(())
}

/// The [`worker_serve`] response line to one request line.
fn worker_reply(exec: &dyn CellExecutor, fail_cells: &[u64], line: &str) -> String {
    match protocol::decode_request(line) {
        Err(e) => protocol::encode_failed(u64::MAX, &format!("bad request: {e}")),
        Ok(cell) if fail_cells.contains(&cell) => {
            protocol::encode_failed(cell, "injected failure (--fail-cells)")
        }
        Ok(cell) => match usize::try_from(cell)
            .map_err(|_| format!("cell {cell} out of range"))
            .and_then(|i| coordinator::contain_panic(i, || exec.run_cell(i)))
        {
            Ok(rows) => protocol::encode_done(cell, &rows),
            Err(e) => protocol::encode_failed(cell, &e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_covers_the_registry_and_rejects_strangers() {
        for (grid, _) in GRID_REGISTRY {
            let spec = AnySpec::resolve(grid, "golden").expect("registered grid");
            assert_eq!(spec.grid_name(), *grid);
            assert!(spec.plan("golden").n_cells > 0);
        }
        let err = AnySpec::resolve("bogus", "golden").expect_err("unregistered");
        assert!(err.to_string().contains("unknown grid `bogus`"), "{err}");
    }

    #[test]
    fn in_process_and_explicit_coordinator_runs_are_the_golden_json() {
        let golden = include_str!("../../../ci/golden_sweep.json");
        let spec = AnySpec::resolve("ensemble", "golden").expect("golden");
        let in_process = spec.run_in_process(Some(2)).to_json();
        assert_eq!(in_process, golden);

        let exec = spec.executor(Duration::ZERO, &TraceHandle::disabled());
        let out = controlplane::run(
            &spec.plan("golden"),
            &RunConfig {
                threads: 3,
                ..RunConfig::default()
            },
            &*exec,
            &Metrics::new(),
        )
        .expect("coordinated run");
        assert!(out.completed);
        let coordinated = spec
            .report_from_rows(out.outcome_rows().expect("complete"))
            .to_json();
        assert_eq!(
            coordinated, golden,
            "the thread count must not change a single byte of the golden JSON"
        );
    }

    /// A two-cell grid whose second cell panics.
    struct Poisoned;

    impl Grid<1> for Poisoned {
        const NAME: &'static str = "poisoned";
        const DESCRIPTION: &'static str = "a grid with a panicking cell";
        type Cell = u64;

        fn report_name(&self) -> &str {
            Self::NAME
        }
        fn base_seed(&self) -> u64 {
            1
        }
        fn set_base_seed(&mut self, _: u64) {}
        fn cells(&self) -> Vec<u64> {
            vec![0, 1]
        }
        fn row_labels(&self, cell: &u64) -> [String; 1] {
            [cell.to_string()]
        }
        fn run_cell(&self, cell: &u64, _: CellCtx, _: &TraceHandle) -> [CellOutcome; 1] {
            assert!(*cell != 1, "cell one is poisoned");
            [CellOutcome::of_rate(0.5, 1)]
        }
        fn table(&self, _: &SweepReport) -> String {
            String::new()
        }
    }

    #[test]
    #[should_panic(expected = "poisoned grid failed: cell 1 panicked: cell one is poisoned")]
    fn run_grid_panics_naming_the_failed_cell() {
        let _ = run_grid(&Poisoned, Some(2), &TraceHandle::disabled());
    }

    #[test]
    fn multidim_rows_pair_up_exactly_like_run_multidim() {
        // A deliberately tiny multidim grid so the test stays fast.
        let spec = AnySpec::Multidim(MultidimSpec {
            name: "unit".into(),
            grid: MultidimGrid::new()
                .dims(&[1, 2])
                .agents(&[4])
                .topologies(&[Topology::Rooted { density: 0.5 }])
                .inits(&[MultidimInitDist::UnitCube])
                .replicates(2),
            base_seed: 7,
            tol: 1e-4,
            max_rounds: 200,
        });
        assert_eq!(spec.plan("unit").rows_per_cell, 2);
        let in_process = spec.run_in_process(Some(1)).to_json();
        let exec = spec.executor(Duration::ZERO, &TraceHandle::disabled());
        let out = controlplane::run(
            &spec.plan("unit"),
            &RunConfig::default(),
            &*exec,
            &Metrics::new(),
        )
        .expect("run");
        let coordinated = spec
            .report_from_rows(out.outcome_rows().expect("complete"))
            .to_json();
        assert_eq!(in_process, coordinated);
    }

    #[test]
    fn worker_answers_an_out_of_range_cell_with_a_typed_failure() {
        let spec = AnySpec::resolve("ensemble", "golden").expect("golden");
        let reply = worker_reply(
            &*spec.executor(Duration::ZERO, &TraceHandle::disabled()),
            &[],
            "{\"cell\": 999}",
        );
        assert_eq!(
            protocol::decode_response(&reply),
            Ok(protocol::Response::Failed {
                cell: 999,
                error: "cell 999 out of range: grid has 16 cells".into(),
            }),
            "a typed error, not a caught panic"
        );
    }

    #[test]
    fn worker_protocol_round_trips_executor_rows() {
        let spec = AnySpec::resolve("ensemble", "golden").expect("golden");
        let rows = spec
            .executor(Duration::ZERO, &TraceHandle::disabled())
            .run_cell(3)
            .expect("in range");
        let line = protocol::encode_done(3, &rows);
        let protocol::Response::Done { outcomes, .. } =
            protocol::decode_response(&line).expect("decode")
        else {
            panic!("expected done");
        };
        for (a, b) in outcomes.iter().zip(&rows) {
            assert_eq!(a.rate.to_bits(), b.rate.to_bits());
            assert_eq!(a.fingerprint, b.fingerprint);
        }
    }
}
