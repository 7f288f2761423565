//! The scalar, multidimensional and dynamic-network experiment grids
//! (`ensemble`, `multidim`, `dynamic_rates`), their presets and cell
//! runners, and the helpers the other grids share. The paper's own
//! claims are the `paper` grid ([`crate::paper`]).

use tight_bounds_consensus::algorithms::diameter;
use tight_bounds_consensus::prelude::*;
use tight_bounds_consensus::sweep::{fingerprint, EnsembleCell};

use crate::orchestrate::{run_grid, Grid};
use crate::tablefmt::{check, rate, section, Table};

/// Evenly spread initial values on `\[0, 1\]` for `n` agents.
#[must_use]
pub fn spread_inits(n: usize) -> Vec<Point<1>> {
    (0..n)
        .map(|i| Point([i as f64 / (n - 1).max(1) as f64]))
        .collect()
}

/// Configuration of an **E-SWEEP ensemble sweep** (the `sweep` bin's
/// workload): a grid, a base seed, and the per-cell convergence target.
#[derive(Debug, Clone)]
pub struct EnsembleSpec {
    /// Report name (embedded in the JSON, so golden files are
    /// self-describing).
    pub name: String,
    /// The cartesian grid of cells.
    pub grid: EnsembleGrid,
    /// Base seed all per-cell seeds derive from.
    pub base_seed: u64,
    /// Convergence/decision threshold ε.
    pub tol: f64,
    /// Per-cell round budget (total horizon).
    pub max_rounds: usize,
}

/// A rejected preset or dimension lookup: carries the rejected value
/// and the valid set, so CLI layers ([`crate::experiments`] callers
/// like the `sweep` bin) can print it and exit cleanly instead of
/// unwinding with a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The preset name is not registered for the selected grid.
    UnknownPreset {
        /// Which grid's preset table rejected the name (`"ensemble"`,
        /// `"multidim"`, `"dynamic"`, `"adversary_search"` or `"paper"`).
        grid: &'static str,
        /// The rejected preset name.
        got: String,
        /// The accepted names, rendered `a|b|c`.
        valid: &'static str,
    },
    /// The cell's dimension is outside the monomorphised dispatch set.
    UnsupportedDimension {
        /// The rejected dimension.
        got: usize,
    },
    /// The grid name is not in [`crate::orchestrate::GRID_REGISTRY`].
    UnknownGrid {
        /// The rejected grid name.
        got: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::UnknownPreset { grid, got, valid } => {
                write!(f, "unknown {grid} preset `{got}` (use {valid})")
            }
            SpecError::UnsupportedDimension { got } => {
                write!(
                    f,
                    "dimension {got} is not in the dispatch set {{1, 2, 3, 4, 8}}"
                )
            }
            SpecError::UnknownGrid { got } => {
                write!(
                    f,
                    "unknown grid `{got}` — run with --list to see the registry"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// The named grid presets of the `sweep` bin.
///
/// * `golden` — the small fixed grid the CI `sweep-regression` job runs
///   and diffs against `ci/golden_sweep.json` (16 cells, seed 42).
/// * `quick` — a fast smoke ensemble (36 cells).
/// * `full` — the real ensemble (960 cells over 5 graph classes).
///
/// # Errors
///
/// [`SpecError::UnknownPreset`] names the rejected preset and the
/// valid set.
pub fn try_ensemble_spec(preset: &str) -> Result<EnsembleSpec, SpecError> {
    Ok(match preset {
        "golden" => EnsembleSpec {
            name: "golden".into(),
            grid: EnsembleGrid::new()
                .agents(&[4, 6])
                .topologies(&[Topology::Complete, Topology::Rooted { density: 0.25 }])
                .inits(&[InitDist::Spread, InitDist::Bipolar])
                .params(&[0.3])
                .replicates(2),
            base_seed: 42,
            tol: 1e-6,
            max_rounds: 300,
        },
        "quick" => EnsembleSpec {
            name: "quick".into(),
            grid: EnsembleGrid::new()
                .agents(&[4, 8])
                .topologies(&[
                    Topology::Complete,
                    Topology::Rooted { density: 0.2 },
                    Topology::AsyncCrash { f: 1 },
                ])
                .inits(&[InitDist::Spread, InitDist::Uniform])
                .params(&[0.3])
                .replicates(3),
            base_seed: consensus_sweep_default_seed(),
            tol: 1e-6,
            max_rounds: 400,
        },
        "full" => EnsembleSpec {
            name: "full".into(),
            grid: EnsembleGrid::new()
                .agents(&[4, 8, 16])
                .topologies(&[
                    Topology::Complete,
                    Topology::Cycle,
                    Topology::Rooted { density: 0.15 },
                    Topology::Nonsplit { density: 0.2 },
                    Topology::AsyncCrash { f: 1 },
                ])
                .inits(&[
                    InitDist::Spread,
                    InitDist::Uniform,
                    InitDist::Bipolar,
                    InitDist::Outlier,
                ])
                .params(&[0.2, 0.5])
                .replicates(8),
            base_seed: consensus_sweep_default_seed(),
            tol: 1e-6,
            max_rounds: 600,
        },
        other => {
            return Err(SpecError::UnknownPreset {
                grid: "ensemble",
                got: other.into(),
                valid: "golden|quick|full",
            })
        }
    })
}

fn consensus_sweep_default_seed() -> u64 {
    tight_bounds_consensus::sweep::DEFAULT_BASE_SEED
}

/// The per-round contraction rate measured over an executed run:
/// `(Δ_T / Δ_0)^{1/T}`, with a `0.0` sentinel when nothing was measured
/// (no rounds, or exact agreement at either end). Shared by the scalar
/// and multidimensional cell runners so the sweep reports agree on the
/// convention.
#[must_use]
pub fn measured_rate(d0: f64, d: f64, rounds: u64) -> f64 {
    if rounds == 0 || d0 <= 0.0 || d <= 0.0 {
        0.0
    } else {
        (d / d0).powf(1.0 / rounds as f64)
    }
}

/// The scenario one ensemble cell runs — self-weighted averaging
/// (`param` = self-weight) from the cell's initial distribution under
/// its random dynamic-graph class — and its initial diameter. The one
/// setup [`run_ensemble_cell`] measures and
/// [`crate::obswire::trace_rounds_ensemble`] replays, so the replay
/// cannot drift from the cell it traces.
#[must_use]
pub fn ensemble_scenario(
    cell: &EnsembleCell,
    ctx: CellCtx,
    tol: f64,
) -> (
    Scenario<SelfWeightedAverage, impl scenario::Driver<SelfWeightedAverage, 1>, 1>,
    f64,
) {
    let inits = cell.inits(&mut ctx.rng());
    let sc = Scenario::new(SelfWeightedAverage::new(cell.param), &inits)
        .pattern(cell.pattern(ctx.subseed(1)))
        .decide(tol);
    (sc, diameter(&inits))
}

/// One ensemble cell: the [`ensemble_scenario`] measured to the
/// decision round (Theorems 8–11 semantics) with the per-round
/// contraction rate as the ensemble statistic.
#[must_use]
pub fn run_ensemble_cell(
    cell: &EnsembleCell,
    ctx: CellCtx,
    tol: f64,
    max_rounds: usize,
) -> CellOutcome {
    let (mut sc, d0) = ensemble_scenario(cell, ctx, tol);
    let decision = sc.decision_round(max_rounds);
    let exec = sc.execution();
    let rounds = exec.round();
    let d = exec.value_diameter();
    CellOutcome {
        rate: measured_rate(d0, d, rounds),
        decision_round: decision,
        rounds,
        converged: decision.is_some(),
        fingerprint: fingerprint(exec.outputs_slice()),
    }
}

/// Runs an ensemble spec on the sweep pool, untraced ([`run_grid`]).
#[must_use]
pub fn run_ensemble(spec: &EnsembleSpec, threads: Option<usize>) -> SweepReport {
    run_grid(spec, threads, &TraceHandle::disabled())
}

impl Grid<1> for EnsembleSpec {
    const NAME: &'static str = "ensemble";
    const DESCRIPTION: &'static str =
        "scalar averaging ensemble over random graph classes (presets: golden | quick | full)";
    type Cell = EnsembleCell;

    fn report_name(&self) -> &str {
        &self.name
    }

    fn base_seed(&self) -> u64 {
        self.base_seed
    }

    fn set_base_seed(&mut self, seed: u64) {
        self.base_seed = seed;
    }

    fn cells(&self) -> Vec<EnsembleCell> {
        self.grid.cells()
    }

    fn row_labels(&self, cell: &EnsembleCell) -> [String; 1] {
        [cell.label()]
    }

    fn run_cell(&self, cell: &EnsembleCell, ctx: CellCtx, _: &TraceHandle) -> [CellOutcome; 1] {
        [run_ensemble_cell(cell, ctx, self.tol, self.max_rounds)]
    }

    /// The repo's table style: the aggregate block (the human side of
    /// the `sweep` bin; the JSON side is [`SweepReport::to_json`]).
    fn table(&self, report: &SweepReport) -> String {
        let s = &report.summary;
        let mut out = section(&format!(
            "Ensemble sweep `{}` — {} cells, base seed {}",
            report.name, s.cells, report.base_seed
        ));
        out.push_str(&format!(
            "converged {}/{} (failures: {}), decided: {}\n\n",
            s.converged, s.cells, s.failures, s.decided
        ));
        let mut t = Table::new(&[
            "metric", "count", "min", "max", "mean", "std", "median", "p90",
        ]);
        for (name, stats) in [
            ("contraction rate", s.rate.as_ref()),
            ("decision round", s.decision_round.as_ref()),
            ("rounds executed", s.rounds.as_ref()),
        ] {
            match stats {
                Some(v) => t.row(&[
                    name.into(),
                    v.count.to_string(),
                    rate(v.min),
                    rate(v.max),
                    rate(v.mean),
                    rate(v.std_dev),
                    rate(v.median),
                    rate(v.p90),
                ]),
                None => t.row(&[
                    name.into(),
                    "0".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            };
        }
        out.push_str(&t.render());
        out
    }
}

/// Configuration of the **E-MULTIDIM `multidim_decision_times`**
/// experiment grid (arXiv:1805.04923): the `R^d` decision-time sweep
/// comparing the coordinate-wise and simplex midpoints on identical
/// cells.
#[derive(Debug, Clone)]
pub struct MultidimSpec {
    /// Report name (embedded in the JSON, so golden files are
    /// self-describing).
    pub name: String,
    /// The cartesian grid of cells (dimension is an axis).
    pub grid: MultidimGrid,
    /// Base seed all per-cell seeds derive from.
    pub base_seed: u64,
    /// Hull-diameter decision threshold ε.
    pub tol: f64,
    /// Per-cell round budget (total horizon).
    pub max_rounds: usize,
}

/// The named multidimensional grid presets of the `sweep` bin.
///
/// * `quick` (alias `golden`) — the figure-shaped preset the golden test
///   and the CI `sweep-regression` job pin (`ci/golden_multidim.json`):
///   `d ∈ {1, 2, 3, 8}` × unit-cube/unit-simplex/correlated-Gaussian
///   inits × random rooted graphs, fixed seed.
/// * `full` — the larger ensemble (adds `d = 4`, `n = 12`, non-split
///   graphs, more replicates).
///
/// # Errors
///
/// [`SpecError::UnknownPreset`] names the rejected preset and the
/// valid set.
pub fn try_multidim_spec(preset: &str) -> Result<MultidimSpec, SpecError> {
    Ok(match preset {
        "quick" | "golden" => MultidimSpec {
            name: "multidim_decision_times".into(),
            grid: MultidimGrid::new()
                .dims(&[1, 2, 3, 8])
                .agents(&[8])
                .topologies(&[Topology::Rooted { density: 0.5 }])
                .inits(&[
                    MultidimInitDist::UnitCube,
                    MultidimInitDist::UnitSimplex,
                    MultidimInitDist::CorrelatedGaussian,
                ])
                .replicates(3),
            base_seed: 42,
            tol: 1e-6,
            max_rounds: 400,
        },
        "full" => MultidimSpec {
            name: "multidim_decision_times_full".into(),
            grid: MultidimGrid::new()
                .dims(&[1, 2, 3, 4, 8])
                .agents(&[8, 12])
                .topologies(&[
                    Topology::Rooted { density: 0.5 },
                    Topology::Nonsplit { density: 0.4 },
                ])
                .inits(&[
                    MultidimInitDist::UnitCube,
                    MultidimInitDist::UnitSimplex,
                    MultidimInitDist::CorrelatedGaussian,
                ])
                .replicates(6),
            base_seed: consensus_sweep_default_seed(),
            tol: 1e-6,
            max_rounds: 600,
        },
        other => {
            return Err(SpecError::UnknownPreset {
                grid: "multidim",
                got: other.into(),
                valid: "quick|golden|full",
            })
        }
    })
}

/// One multidimensional cell: **both** midpoint rules run on the *same*
/// initial values and the *same* graph sequence (identical sub-seeds),
/// measured to the hull-diameter decision round. Returns
/// `(coordinate-wise, simplex)` outcomes — a matched pair, so at
/// `d = 1` the two are bit-identical (both rules degenerate to the
/// scalar midpoint) and at `d ≥ 2` their decision-round gap is the
/// paper's separation. Cells that exhaust the budget report
/// [`CellOutcome::failed`] (`NaN`-free aggregation).
///
/// # Errors
///
/// [`SpecError::UnsupportedDimension`] if the cell's dimension is not
/// one of `{1, 2, 3, 4, 8}` (the monomorphised dispatch set).
pub fn try_run_multidim_cell(
    cell: &MultidimCell,
    ctx: CellCtx,
    tol: f64,
    max_rounds: usize,
) -> Result<(CellOutcome, CellOutcome), SpecError> {
    fn drive<A, const D: usize>(
        alg: A,
        cell: &MultidimCell,
        inits: &[Point<D>],
        pattern_seed: u64,
        tol: f64,
        max_rounds: usize,
    ) -> CellOutcome
    where
        A: Algorithm<D>,
    {
        let d0 = diameter(inits);
        let mut sc = Scenario::new(alg, inits)
            .pattern(cell.pattern(pattern_seed))
            .metric(HullDiameter)
            .decide(tol);
        let decision = sc.decision_round(max_rounds);
        let exec = sc.execution();
        let rounds = exec.round();
        let fp = fingerprint(exec.outputs_slice());
        let Some(_) = decision else {
            return CellOutcome::failed(rounds, fp);
        };
        let d = exec.value_diameter();
        CellOutcome {
            rate: measured_rate(d0, d, rounds),
            decision_round: decision,
            rounds,
            converged: true,
            fingerprint: fp,
        }
    }

    fn go<const D: usize>(
        cell: &MultidimCell,
        ctx: CellCtx,
        tol: f64,
        max_rounds: usize,
    ) -> (CellOutcome, CellOutcome) {
        let inits: Vec<Point<D>> = cell.inits(&mut ctx.rng());
        let pattern_seed = ctx.subseed(1);
        (
            drive(
                MidpointCoordinatewise,
                cell,
                &inits,
                pattern_seed,
                tol,
                max_rounds,
            ),
            drive(MidpointSimplex, cell, &inits, pattern_seed, tol, max_rounds),
        )
    }

    Ok(match cell.dim {
        1 => go::<1>(cell, ctx, tol, max_rounds),
        2 => go::<2>(cell, ctx, tol, max_rounds),
        3 => go::<3>(cell, ctx, tol, max_rounds),
        4 => go::<4>(cell, ctx, tol, max_rounds),
        8 => go::<8>(cell, ctx, tol, max_rounds),
        other => return Err(SpecError::UnsupportedDimension { got: other }),
    })
}

/// Runs a multidimensional spec on the sweep pool, untraced
/// ([`run_grid`]): each grid cell contributes two adjacent rows
/// (`… alg=coordinatewise`, `… alg=simplex`) sharing one cell seed, so
/// the report stays byte-stable and pairwise comparable.
#[must_use]
pub fn run_multidim(spec: &MultidimSpec, threads: Option<usize>) -> SweepReport {
    run_grid(spec, threads, &TraceHandle::disabled())
}

/// Per-dimension decision-round statistics of a multidimensional
/// report: `(d, coordinate-wise, simplex)`, computed **only over
/// matched pairs where both rules decided** — dropping a timed-out
/// cell removes its partner too, so the two means always cover the
/// same executions (no survivorship bias if one rule times out where
/// the other decides). `None` when no pair of that dimension fully
/// decided — the guarded empty-successful-sample case, never a `NaN`.
/// Both `Stats::count` fields equal the matched-pair count.
#[must_use]
pub fn multidim_separation(
    spec: &MultidimSpec,
    report: &SweepReport,
) -> Vec<(usize, Option<Stats>, Option<Stats>)> {
    let cells = spec.grid.cells();
    assert_eq!(2 * cells.len(), report.outcomes.len(), "paired rows");
    let mut dims: Vec<usize> = cells.iter().map(|c| c.dim).collect();
    dims.sort_unstable();
    dims.dedup();
    dims.into_iter()
        .map(|d| {
            let (mut cw_rounds, mut sx_rounds) = (Vec::new(), Vec::new());
            for (i, _) in cells.iter().enumerate().filter(|(_, c)| c.dim == d) {
                let cw = report.outcomes[2 * i].decision_round;
                let sx = report.outcomes[2 * i + 1].decision_round;
                if let (Some(a), Some(b)) = (cw, sx) {
                    cw_rounds.push(a as f64);
                    sx_rounds.push(b as f64);
                }
            }
            (
                d,
                Stats::from_values(&cw_rounds),
                Stats::from_values(&sx_rounds),
            )
        })
        .collect()
}

impl Grid<2> for MultidimSpec {
    const NAME: &'static str = "multidim";
    const DESCRIPTION: &'static str =
        "R^d decision times, coordinate-wise vs simplex midpoint (presets: quick/golden | full)";
    type Cell = MultidimCell;

    fn report_name(&self) -> &str {
        &self.name
    }

    fn base_seed(&self) -> u64 {
        self.base_seed
    }

    fn set_base_seed(&mut self, seed: u64) {
        self.base_seed = seed;
    }

    fn cells(&self) -> Vec<MultidimCell> {
        self.grid.cells()
    }

    fn row_labels(&self, cell: &MultidimCell) -> [String; 2] {
        let label = cell.label();
        ["coordinatewise", "simplex"].map(|alg| format!("{label} alg={alg}"))
    }

    fn run_cell(&self, cell: &MultidimCell, ctx: CellCtx, _: &TraceHandle) -> [CellOutcome; 2] {
        try_run_multidim_cell(cell, ctx, self.tol, self.max_rounds)
            .unwrap_or_else(|e| panic!("{e}"))
            .into()
    }

    /// The repo's table style: the aggregate block plus the
    /// per-dimension coordinate-wise vs. simplex separation table (the
    /// headline claim — simplex decides in strictly fewer rounds for
    /// `d ≥ 2`, and the two rules coincide at `d = 1`).
    fn table(&self, report: &SweepReport) -> String {
        let s = &report.summary;
        let mut out = section(&format!(
            "Multidimensional decision times `{}` — {} paired cells, base seed {}, ε = {:e}",
            report.name,
            report.outcomes.len() / 2,
            report.base_seed,
            self.tol
        ));
        out.push_str(&format!(
            "rows converged {}/{} (failures: {}); decision rounds are hull-diameter\n(Euclidean) ε-agreement per arXiv:1805.04923\n\n",
            s.converged, s.cells, s.failures
        ));
        let mut t = Table::new(&[
            "d",
            "pairs",
            "coordinatewise mean T",
            "simplex mean T",
            "gap",
            "separation",
        ]);
        for (d, cw, sx) in multidim_separation(self, report) {
            let (cw, sx) = match (&cw, &sx) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    t.row(&[
                        d.to_string(),
                        "0".into(),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                        check(false),
                    ]);
                    continue;
                }
            };
            let ok = if d == 1 {
                cw.mean == sx.mean
            } else {
                sx.mean < cw.mean
            };
            t.row(&[
                d.to_string(),
                cw.count.to_string(),
                format!("{:.3}", cw.mean),
                format!("{:.3}", sx.mean),
                format!("{:+.3}", sx.mean - cw.mean),
                check(ok),
            ]);
        }
        out.push_str(&t.render());
        out.push_str(
            "\nmeans are over matched pairs only (cells where BOTH rules decided), so the\n\
             two columns always cover the same executions. d = 1: both rules degenerate\n\
             to the scalar midpoint and the paired runs are bit-identical. d ≥ 2: the\n\
             coordinate-wise box centre pays the √d detour (and leaves the hull for\n\
             d ≥ 3 — validity!), so the simplex/MidExtremes rule decides strictly\n\
             earlier on the same executions.\n",
        );
        out
    }
}

/// Configuration of the **E-DYNET `dynamic_rates`** experiment grid
/// (arXiv:1408.0620): averaging-rate ensembles under structured
/// dynamic-network adversaries — T-interval connectivity,
/// eventually-rooted schedules, bounded churn, and the adaptive
/// diameter maximiser.
#[derive(Debug, Clone)]
pub struct DynamicSpec {
    /// Report name (embedded in the JSON, so golden files are
    /// self-describing).
    pub name: String,
    /// The cartesian grid of cells (adversary kind — carrying `T` and
    /// the churn budget — is an axis).
    pub grid: DynamicGrid,
    /// Base seed all per-cell seeds derive from.
    pub base_seed: u64,
    /// Decision threshold ε.
    pub tol: f64,
    /// Per-cell round budget (total horizon).
    pub max_rounds: usize,
}

/// The named dynamic-network grid presets of the `sweep` bin.
///
/// * `quick` (alias `golden`) — the preset the golden test and the CI
///   `sweep-regression` job pin (`ci/golden_dynamic.json`): `n = 8`,
///   T-interval `T ∈ {1, 2, 4}`, an eventually-rooted schedule, bounded
///   churn `k ∈ {1, 4}`, and the adaptive diameter maximiser, over
///   spread/uniform inits, fixed seed.
/// * `full` — the larger ensemble (adds `n = 16`, `T = 8`, `k = 8` and
///   bipolar inits, more replicates).
///
/// # Errors
///
/// [`SpecError::UnknownPreset`] names the rejected preset and the
/// valid set.
pub fn try_dynamic_spec(preset: &str) -> Result<DynamicSpec, SpecError> {
    let quick_kinds = [
        AdversaryKind::TInterval { t: 1 },
        AdversaryKind::TInterval { t: 2 },
        AdversaryKind::TInterval { t: 4 },
        AdversaryKind::EventuallyRooted { chaos: 6 },
        AdversaryKind::BoundedChurn { churn: 1 },
        AdversaryKind::BoundedChurn { churn: 4 },
        AdversaryKind::DiameterMax,
    ];
    Ok(match preset {
        "quick" | "golden" => DynamicSpec {
            name: "dynamic_rates".into(),
            grid: DynamicGrid::new()
                .agents(&[8])
                .kinds(&quick_kinds)
                .inits(&[InitDist::Spread, InitDist::Uniform])
                .replicates(3),
            base_seed: 42,
            tol: 1e-6,
            max_rounds: 800,
        },
        "full" => DynamicSpec {
            name: "dynamic_rates_full".into(),
            grid: DynamicGrid::new()
                .agents(&[8, 16])
                .kinds(
                    &[
                        quick_kinds.as_slice(),
                        &[
                            AdversaryKind::TInterval { t: 8 },
                            AdversaryKind::BoundedChurn { churn: 8 },
                        ],
                    ]
                    .concat(),
                )
                .inits(&[InitDist::Spread, InitDist::Uniform, InitDist::Bipolar])
                .replicates(6),
            base_seed: consensus_sweep_default_seed(),
            tol: 1e-6,
            max_rounds: 2000,
        },
        other => {
            return Err(SpecError::UnknownPreset {
                grid: "dynamic",
                got: other.into(),
                valid: "quick|golden|full",
            })
        }
    })
}

/// One dynamic-network cell: midpoint from the cell's initial
/// distribution under its seeded adversary, driven **round by round** so
/// the per-round contraction ratios `Δ(y(t+1)) / Δ(y(t))` can be
/// aggregated via [`Stats`]; the reported `rate` is their mean (the
/// averaging-rate measurement of arXiv:1408.0620), and `decision_round`
/// is the first round with spread ≤ ε (Theorems 8–11 semantics). Cells
/// that exhaust the budget report [`CellOutcome::failed`].
#[must_use]
pub fn run_dynamic_cell(
    cell: &DynamicCell,
    ctx: CellCtx,
    tol: f64,
    max_rounds: usize,
) -> CellOutcome {
    const FLOOR: f64 = 1e-300;
    let inits = cell.inits(&mut ctx.rng());
    let mut sc = Scenario::new(Midpoint, &inits).adversary(cell.driver(ctx.subseed(1)));
    let mut ratios = Vec::new();
    let mut decision = None;
    let mut prev = sc.execution().value_diameter();
    if prev <= tol {
        decision = Some(0);
    } else {
        for _ in 0..max_rounds {
            sc.advance(1);
            let d = sc.execution().value_diameter();
            if prev > FLOOR && d > FLOOR {
                ratios.push(d / prev);
            }
            prev = d;
            if d <= tol {
                decision = Some(sc.execution().round());
                break;
            }
        }
    }
    let exec = sc.execution();
    let rounds = exec.round();
    let fp = fingerprint(exec.outputs_slice());
    let Some(decided_at) = decision else {
        return CellOutcome::failed(rounds, fp);
    };
    CellOutcome {
        rate: Stats::from_values(&ratios).map_or(0.0, |s| s.mean),
        decision_round: Some(decided_at),
        rounds,
        converged: true,
        fingerprint: fp,
    }
}

/// Runs a dynamic-network spec on the sweep pool, untraced
/// ([`run_grid`]; the adversaries are pure functions of their cell
/// seeds, so thread count never changes the report).
#[must_use]
pub fn run_dynamic(spec: &DynamicSpec, threads: Option<usize>) -> SweepReport {
    run_grid(spec, threads, &TraceHandle::disabled())
}

/// Per-kind statistics of a dynamic-network report: for every adversary
/// kind in grid order, the decision-round and per-round-rate [`Stats`]
/// over the cells that decided (`None` when none did — the guarded
/// empty-sample case, never a `NaN`).
#[must_use]
pub fn dynamic_by_kind(
    spec: &DynamicSpec,
    report: &SweepReport,
) -> Vec<(AdversaryKind, Option<Stats>, Option<Stats>)> {
    let cells = spec.grid.cells();
    assert_eq!(cells.len(), report.outcomes.len(), "one row per cell");
    let mut kinds: Vec<AdversaryKind> = Vec::new();
    for c in &cells {
        if !kinds.contains(&c.kind) {
            kinds.push(c.kind);
        }
    }
    kinds
        .into_iter()
        .map(|kind| {
            let (mut decisions, mut rates) = (Vec::new(), Vec::new());
            for (i, _) in cells.iter().enumerate().filter(|(_, c)| c.kind == kind) {
                if let Some(t) = report.outcomes[i].decision_round {
                    decisions.push(t as f64);
                    rates.push(report.outcomes[i].rate);
                }
            }
            (
                kind,
                Stats::from_values(&decisions),
                Stats::from_values(&rates),
            )
        })
        .collect()
}

/// The T-interval decision-time series of a dynamic-network report:
/// `(T, decision-round stats)` for every `TInterval` kind in the grid,
/// ascending in `T` — the separation the golden gate pins (decision
/// times must degrade strictly with `T`, the arXiv:1408.0620 headline).
#[must_use]
pub fn dynamic_separation(spec: &DynamicSpec, report: &SweepReport) -> Vec<(usize, Option<Stats>)> {
    let mut rows: Vec<(usize, Option<Stats>)> = dynamic_by_kind(spec, report)
        .into_iter()
        .filter_map(|(kind, decisions, _)| match kind {
            AdversaryKind::TInterval { t } => Some((t, decisions)),
            _ => None,
        })
        .collect();
    rows.sort_by_key(|&(t, _)| t);
    rows
}

impl Grid<1> for DynamicSpec {
    const NAME: &'static str = "dynamic_rates";
    const DESCRIPTION: &'static str = "averaging rates under dynamic-network adversaries: T-interval, eventually-rooted, bounded churn, diameter-max (presets: quick/golden | full)";
    type Cell = DynamicCell;

    fn report_name(&self) -> &str {
        &self.name
    }

    fn base_seed(&self) -> u64 {
        self.base_seed
    }

    fn set_base_seed(&mut self, seed: u64) {
        self.base_seed = seed;
    }

    fn cells(&self) -> Vec<DynamicCell> {
        self.grid.cells()
    }

    fn row_labels(&self, cell: &DynamicCell) -> [String; 1] {
        [cell.label()]
    }

    fn run_cell(&self, cell: &DynamicCell, ctx: CellCtx, _: &TraceHandle) -> [CellOutcome; 1] {
        [run_dynamic_cell(cell, ctx, self.tol, self.max_rounds)]
    }

    /// The repo's table style: the per-kind aggregate block plus the
    /// T-interval decision-time separation line.
    fn table(&self, report: &SweepReport) -> String {
        let s = &report.summary;
        let mut out = section(&format!(
            "Dynamic-network averaging rates `{}` — {} cells, base seed {}, ε = {:e}",
            report.name,
            report.outcomes.len(),
            report.base_seed,
            self.tol
        ));
        out.push_str(&format!(
            "converged {}/{} (failures: {}); rate = mean per-round contraction ratio\nΔ(y(t+1))/Δ(y(t)), decision T = first round with spread ≤ ε\n\n",
            s.converged, s.cells, s.failures
        ));
        let mut t = Table::new(&["adversary", "cells", "mean rate", "mean T", "max T"]);
        for (kind, decisions, rates) in dynamic_by_kind(self, report) {
            match (decisions, rates) {
                (Some(d), Some(r)) => t.row(&[
                    kind.label(),
                    d.count.to_string(),
                    rate(r.mean),
                    format!("{:.2}", d.mean),
                    format!("{:.0}", d.max),
                ]),
                _ => t.row(&[kind.label(), "0".into(), "-".into(), "-".into(), "-".into()]),
            };
        }
        out.push_str(&t.render());

        let sep = dynamic_separation(self, report);
        let monotone = sep.windows(2).all(|w| match (&w[0].1, &w[1].1) {
            (Some(a), Some(b)) => a.mean < b.mean,
            _ => false,
        });
        out.push_str(&format!(
            "\nT-interval separation: mean decision times {} — spreading the rooted\nunion over T rounds must slow the decision down strictly {}\n",
            sep.iter()
                .map(|(t, d)| format!(
                    "T={t}: {}",
                    d.as_ref().map_or("-".into(), |s| format!("{:.2}", s.mean))
                ))
                .collect::<Vec<_>>()
                .join(", "),
            check(monotone)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multidim_quick_grid_separates_and_is_clean() {
        let spec = try_multidim_spec("quick").expect("registered preset");
        let s = spec.table(&run_multidim(&spec, None));
        assert!(!s.contains("MISMATCH"), "{s}");
        assert!(s.contains("coordinatewise mean T"), "{s}");
    }

    #[test]
    fn multidim_report_is_thread_count_invariant() {
        let spec = try_multidim_spec("quick").expect("registered preset");
        let a = run_multidim(&spec, Some(1));
        let b = run_multidim(&spec, Some(3));
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "bit-identical at any thread count"
        );
        assert_eq!(a.summary.cells, 72, "36 paired cells, two rows each");
        assert_eq!(a.summary.failures, 0, "quick grid must fully converge");
    }

    #[test]
    #[should_panic(expected = "dispatch set")]
    fn multidim_rejects_unsupported_dimensions() {
        let cell = MultidimCell {
            dim: 5,
            n: 4,
            topology: Topology::Complete,
            init: MultidimInitDist::UnitCube,
            replicate: 0,
        };
        let ctx = CellCtx { index: 0, seed: 1 };
        let spec = try_multidim_spec("quick").expect("registered preset");
        let _ = Grid::run_cell(&spec, &cell, ctx, &TraceHandle::disabled());
    }

    #[test]
    fn dynamic_quick_grid_is_thread_count_invariant_and_separates() {
        let spec = try_dynamic_spec("quick").expect("registered preset");
        let a = run_dynamic(&spec, Some(1));
        let b = run_dynamic(&spec, Some(3));
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "bit-identical at any thread count"
        );
        assert_eq!(a.summary.cells, 42, "7 kinds × 2 inits × 3 replicates");
        assert_eq!(a.summary.failures, 0, "quick grid must fully converge");
        let sep = dynamic_separation(&spec, &a);
        assert_eq!(
            sep.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 2, 4],
            "the quick preset sweeps T ∈ {{1, 2, 4}}"
        );
        for w in sep.windows(2) {
            let (ta, a_stats) = (&w[0].0, w[0].1.as_ref().expect("decided"));
            let (tb, b_stats) = (&w[1].0, w[1].1.as_ref().expect("decided"));
            assert!(
                a_stats.mean < b_stats.mean,
                "decision time must increase strictly in T: T={ta} mean {} vs T={tb} mean {}",
                a_stats.mean,
                b_stats.mean
            );
        }
        assert!(!spec.table(&a).contains("MISMATCH"));
    }

    #[test]
    fn dynamic_spec_rejects_unknown_presets() {
        let e = try_dynamic_spec("nope").unwrap_err();
        assert!(
            e.to_string().contains("unknown dynamic preset `nope`"),
            "{e}"
        );
    }

    #[test]
    fn try_specs_name_the_rejected_value_and_the_valid_set() {
        let e = try_ensemble_spec("warp").unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown ensemble preset `warp` (use golden|quick|full)"
        );
        let e = try_multidim_spec("warp").unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown multidim preset `warp` (use quick|golden|full)"
        );
        let e = try_dynamic_spec("warp").unwrap_err();
        assert_eq!(
            e.to_string(),
            "unknown dynamic preset `warp` (use quick|golden|full)"
        );
        for ok in ["golden", "quick", "full"] {
            assert!(try_ensemble_spec(ok).is_ok(), "{ok}");
            assert!(try_multidim_spec(ok).is_ok(), "{ok}");
            assert!(try_dynamic_spec(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn try_run_multidim_cell_reports_bad_dimension() {
        let cell = MultidimCell {
            dim: 7,
            n: 4,
            topology: Topology::Complete,
            init: MultidimInitDist::UnitCube,
            replicate: 0,
        };
        let ctx = CellCtx { index: 0, seed: 1 };
        let e = try_run_multidim_cell(&cell, ctx, 1e-6, 10).unwrap_err();
        assert_eq!(e, SpecError::UnsupportedDimension { got: 7 });
        assert_eq!(
            e.to_string(),
            "dimension 7 is not in the dispatch set {1, 2, 3, 4, 8}"
        );
    }

    #[test]
    fn grid_registry_names_are_unique_and_documented() {
        use crate::orchestrate::GRID_REGISTRY;
        let names: Vec<&str> = GRID_REGISTRY.iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "registry names must be unique");
        assert!(names.contains(&"ensemble"));
        assert!(names.contains(&"multidim"));
        assert!(names.contains(&"dynamic_rates"));
        assert!(names.contains(&"adversary_search"));
        assert!(GRID_REGISTRY.iter().all(|(_, d)| !d.is_empty()));
    }

    #[test]
    fn golden_ensemble_is_thread_count_invariant_and_clean() {
        let spec = try_ensemble_spec("golden").expect("registered preset");
        let a = run_ensemble(&spec, Some(1));
        let b = run_ensemble(&spec, Some(4));
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "bit-identical at any thread count"
        );
        assert_eq!(a.summary.cells, 16);
        assert_eq!(a.summary.failures, 0, "golden grid must fully converge");
        assert!(!spec.table(&a).contains("MISMATCH"));
    }
}
