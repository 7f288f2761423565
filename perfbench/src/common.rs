//! Shared pieces of every workload: the clock, digests, order
//! statistics, the timed-pass loop, and the metric records the report
//! prints.

use std::sync::OnceLock;

use consensus_bench::wallclock::WallClock;
use tight_bounds_consensus::obs::Clock;

/// What one workload run needs to know about its invocation.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed: every input is generated from it.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: f64,
    /// `std::thread::available_parallelism`: the thread and process
    /// budget of the whole run.
    pub nproc: usize,
    /// Threads and processes the workload may use at once.
    pub budget: crate::Budget,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Scratch directory for checkpoint files, inside the checkout.
    pub workdir: std::path::PathBuf,
}

impl Ctx {
    /// Seconds of untraced passes: the whole timed phase, or its first
    /// half in the traced run (which times traced passes in the second).
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

static CLOCK: OnceLock<WallClock> = OnceLock::new();

/// Monotonic nanoseconds from the repository's one real clock.
pub fn now_ns() -> u64 {
    CLOCK
        .get_or_init(WallClock::new)
        .now_nanos()
        .expect("the wall clock always reports")
}

/// Seconds elapsed since `t0` (a [`now_ns`] reading).
pub fn secs_since(t0: u64) -> f64 {
    now_ns().saturating_sub(t0) as f64 * 1e-9
}

/// The splitmix64 step: derives independent input seeds from the
/// workload seed.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: the digest of a workload's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of sorted samples, by the
/// nearest-rank rule.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole percentile with at least ten samples beyond it
/// (the median when there are fewer than twenty samples).
pub fn tail_percentile(samples: usize) -> f64 {
    if samples < 20 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / samples as f64)).floor()
}

/// One measured number with its unit and the sample count behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
    /// Extra text for the human line (a percentile label, a caveat).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: u64) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// The end-to-end figures of one pass over a workload's inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassStats {
    /// Grid cells (or executions) the pass completed.
    pub cells: u64,
    /// Σ rounds × agents over those cells.
    pub agent_updates: f64,
}

/// What a workload hands back to the report.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells whose outputs were checked.
    pub attempted: u64,
    /// Checked cells that failed, panicked or broke a check.
    pub failed: u64,
    /// Digest of the reference pass's outputs, in cell order.
    pub digest: u64,
    /// Wall time of every untraced timed pass.
    pub pass_s: Vec<f64>,
    /// The work one pass does (identical for every pass).
    pub pass: PassStats,
    /// Wall time of every set-up repetition.
    pub setup_s: Vec<f64>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Human lines describing failed checks.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a check on `cells` cells: all of them fail when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, cells: u64, what: impl FnOnce() -> String) {
        self.attempted += cells;
        if !ok {
            self.failed += cells;
            self.problems.push(what());
        }
    }
}

/// Runs `setup` once and records its wall time. Workloads set up
/// before their reference pass and again after every timed pass, so
/// each sample is a set-up as a user meets it, after other work, rather
/// than one more turn of a tight loop over warm caches.
pub fn timed_setup<T>(out: &mut Outcome, setup: impl FnOnce() -> T) -> T {
    let t0 = now_ns();
    let inputs = setup();
    out.setup_s.push(secs_since(t0));
    inputs
}

/// Runs `pass` until `seconds` have elapsed and at least `min_passes`
/// passes completed, handing each pass's wall time and result to
/// `each` as soon as it ends (so no pass's output outlives the next).
pub fn timed_passes<R>(
    seconds: f64,
    min_passes: usize,
    mut pass: impl FnMut() -> R,
    mut each: impl FnMut(f64, R),
) {
    let start = now_ns();
    let mut done = 0;
    while done < min_passes || secs_since(start) < seconds {
        let t0 = now_ns();
        let r = pass();
        each(secs_since(t0), r);
        done += 1;
    }
}

/// `obs.trace_overhead_ratio`: median traced pass over median untraced
/// pass.
pub fn overhead_ratio(traced_s: &[f64], untraced_s: &[f64], note: &str) -> Metric {
    Metric::new(
        "obs.trace_overhead_ratio",
        median(traced_s) / median(untraced_s),
        "ratio",
        traced_s.len() as u64,
    )
    .note(note)
}

/// Converts a duration sum to a per-item mean in the given scale
/// (`1e-3` for µs from ns, …), or 0 when nothing was counted.
pub fn mean_scaled(total: f64, count: u64, scale: f64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64 * scale
    }
}
