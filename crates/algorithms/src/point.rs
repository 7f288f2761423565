//! Values in Euclidean `d`-space (the `y_i ∈ R^d` of the paper, §2.1).

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// A point in `R^D` — an agent's output value.
///
/// `D` is a compile-time dimension; the paper's statements are
/// dimension-independent and most experiments use `D = 1`
/// (`Point<1>` converts from/to `f64`).
#[derive(Clone, Copy, PartialEq)]
pub struct Point<const D: usize>(pub [f64; D]);

impl<const D: usize> Point<D> {
    /// The origin.
    pub const ZERO: Point<D> = Point([0.0; D]);

    /// A point with every coordinate equal to `v`.
    #[must_use]
    pub fn splat(v: f64) -> Self {
        Point([v; D])
    }

    /// The Euclidean norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.0.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Euclidean distance to another point.
    #[must_use]
    pub fn dist(&self, other: &Self) -> f64 {
        (*self - *other).norm()
    }

    /// Coordinate-wise minimum (lattice meet).
    #[must_use]
    pub fn min(&self, other: &Self) -> Self {
        let mut out = self.0;
        for (o, b) in out.iter_mut().zip(other.0.iter()) {
            *o = o.min(*b);
        }
        Point(out)
    }

    /// Coordinate-wise maximum (lattice join).
    #[must_use]
    pub fn max(&self, other: &Self) -> Self {
        let mut out = self.0;
        for (o, b) in out.iter_mut().zip(other.0.iter()) {
            *o = o.max(*b);
        }
        Point(out)
    }

    /// The midpoint `(a + b) / 2`.
    #[must_use]
    pub fn midpoint(&self, other: &Self) -> Self {
        (*self + *other) * 0.5
    }

    /// Whether all coordinates are finite.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|x| x.is_finite())
    }
}

impl<const D: usize> fmt::Debug for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if D == 1 {
            write!(f, "{}", self.0[0])
        } else {
            write!(f, "{:?}", self.0)
        }
    }
}

impl<const D: usize> fmt::Display for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl From<f64> for Point<1> {
    fn from(v: f64) -> Self {
        Point([v])
    }
}

impl From<Point<1>> for f64 {
    fn from(p: Point<1>) -> f64 {
        p.0[0]
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    fn from(v: [f64; D]) -> Self {
        Point(v)
    }
}

impl<const D: usize> Add for Point<D> {
    type Output = Point<D>;
    fn add(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a += b;
        }
        self
    }
}

impl<const D: usize> AddAssign for Point<D> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const D: usize> Sub for Point<D> {
    type Output = Point<D>;
    fn sub(mut self, rhs: Self) -> Self {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a -= b;
        }
        self
    }
}

impl<const D: usize> Neg for Point<D> {
    type Output = Point<D>;
    fn neg(mut self) -> Self {
        for a in self.0.iter_mut() {
            *a = -*a;
        }
        self
    }
}

impl<const D: usize> Mul<f64> for Point<D> {
    type Output = Point<D>;
    fn mul(mut self, rhs: f64) -> Self {
        for a in self.0.iter_mut() {
            *a *= rhs;
        }
        self
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.0[i]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.0[i]
    }
}

/// The diameter `diam(A) = sup_{x,y∈A} ‖x − y‖` of a finite point set
/// (paper §2.1, `Δ(y(t))`). Empty and singleton sets have diameter 0.
///
/// The fold uses [`crate::float::det_max`], so a NaN coordinate in the
/// data yields a NaN diameter instead of being silently dropped — the
/// adaptive adversaries' argmaxes rely on corrupted forks surfacing.
///
/// For `D == 1` the diameter is `max − min`, found in one O(n) scan
/// (cheap at `n = 10⁶`). No difference is squared there, so two values
/// closer than about `1.5e-154` no longer underflow into agreement; for
/// every wider finite spread the result has the same bits as the
/// pairwise scan.
#[must_use]
pub fn diameter<const D: usize>(points: &[Point<D>]) -> f64 {
    if D == 1 {
        if points.len() < 2 {
            return 0.0;
        }
        let (lo, hi) = scalar_extremes(points);
        return hi - lo;
    }
    let mut best: f64 = 0.0;
    for (i, a) in points.iter().enumerate() {
        for b in &points[i + 1..] {
            best = crate::float::det_max(best, a.dist(b));
        }
    }
    best
}

/// `(min, max)` of the first coordinates in one pass, unrolled into
/// four accumulator lanes so the chain of comparisons does not
/// serialise the scan. [`crate::float::det_min`]/[`crate::float::det_max`]
/// order totally, so the lane shape cannot change the result and a NaN
/// propagates.
fn scalar_extremes<const D: usize>(points: &[Point<D>]) -> (f64, f64) {
    use crate::float::{det_max, det_min};
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    let mut quads = points.chunks_exact(4);
    for q in &mut quads {
        for j in 0..4 {
            lo[j] = det_min(lo[j], q[j][0]);
            hi[j] = det_max(hi[j], q[j][0]);
        }
    }
    for (j, p) in quads.remainder().iter().enumerate() {
        lo[j] = det_min(lo[j], p[0]);
        hi[j] = det_max(hi[j], p[0]);
    }
    (
        det_min(det_min(lo[0], lo[1]), det_min(lo[2], lo[3])),
        det_max(det_max(hi[0], hi[1]), det_max(hi[2], hi[3])),
    )
}

/// The largest per-coordinate spread `max_c (max_i p_i[c] − min_i p_i[c])`
/// of a finite point set — the `L∞` (bounding-box) diameter.
///
/// This is the quantity the coordinate-wise midpoint contracts; the
/// Euclidean [`diameter`] satisfies
/// `box_diameter ≤ diameter ≤ √D · box_diameter`, and the `√D` gap is
/// exactly what separates the coordinate-wise and simplex decision
/// times in the multidimensional experiments (arXiv:1805.04923).
/// Empty and singleton sets have box diameter 0.
#[must_use]
pub fn box_diameter<const D: usize>(points: &[Point<D>]) -> f64 {
    coordinate_spreads(points)
        .iter()
        .fold(0.0f64, |acc, &s| acc.max(s))
}

/// The per-coordinate spreads (side lengths of the bounding box):
/// `spread[c] = max_i p_i[c] − min_i p_i[c]`. Empty sets yield zeros.
#[must_use]
pub fn coordinate_spreads<const D: usize>(points: &[Point<D>]) -> [f64; D] {
    let mut out = [0.0; D];
    if points.is_empty() {
        return out;
    }
    let (lo, hi) = bounding_box(points);
    for (c, s) in out.iter_mut().enumerate() {
        *s = hi[c] - lo[c];
    }
    out
}

/// The per-coordinate contraction rates between two configurations
/// `rounds` rounds apart: `rate[c] = (spread_t[c] / spread_0[c])^{1/rounds}`.
///
/// Coordinates whose initial spread is already ≤ `1e-300` (or with
/// `rounds == 0`) report a rate of 0 instead of a `NaN`/∞ artefact —
/// geometric-rate estimation is meaningless past exact agreement.
#[must_use]
pub fn per_coordinate_rates<const D: usize>(
    initial: &[Point<D>],
    current: &[Point<D>],
    rounds: u64,
) -> [f64; D] {
    const FLOOR: f64 = 1e-300;
    let s0 = coordinate_spreads(initial);
    let st = coordinate_spreads(current);
    let mut out = [0.0; D];
    if rounds == 0 {
        return out;
    }
    for c in 0..D {
        if s0[c] > FLOOR && st[c] > FLOOR {
            out[c] = (st[c] / s0[c]).powf(1.0 / rounds as f64);
        }
    }
    out
}

/// The indices `(i, j)`, `i < j`, of a pair realising the Euclidean
/// [`diameter`], or `None` for sets with fewer than two points.
///
/// Ties are broken deterministically: the first maximal pair in the
/// ascending `(i, j)` scan wins (strict-improvement comparison), so the
/// result is a pure function of the input order — the property the
/// simplex midpoint's determinism contract relies on.
#[must_use]
pub fn farthest_pair<const D: usize>(points: &[Point<D>]) -> Option<(usize, usize)> {
    if points.len() < 2 {
        return None;
    }
    let mut best = (0, 1);
    let mut best_sq = -1.0f64;
    for (i, a) in points.iter().enumerate() {
        for (k, b) in points[i + 1..].iter().enumerate() {
            let d = *a - *b;
            let sq = d.0.iter().map(|x| x * x).sum::<f64>();
            if sq > best_sq {
                best_sq = sq;
                best = (i, i + 1 + k);
            }
        }
    }
    Some(best)
}

/// The centroid (arithmetic mean) of a non-empty point set.
///
/// # Panics
///
/// Panics if `points` is empty.
#[must_use]
pub fn centroid<const D: usize>(points: &[Point<D>]) -> Point<D> {
    assert!(!points.is_empty(), "centroid of an empty set");
    let mut acc = Point::ZERO;
    for p in points {
        acc += *p;
    }
    acc * (1.0 / points.len() as f64)
}

/// The convex combination `Σ w_i · p_i`.
///
/// # Panics
///
/// Panics (in debug builds) if the lengths differ, some weight is
/// negative, or the weights do not sum to 1 within `1e-9`.
#[must_use]
pub fn convex_combination<const D: usize>(points: &[Point<D>], weights: &[f64]) -> Point<D> {
    debug_assert_eq!(points.len(), weights.len());
    debug_assert!(weights.iter().all(|&w| w >= -1e-12));
    debug_assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let mut acc = Point::ZERO;
    for (p, &w) in points.iter().zip(weights) {
        acc += *p * w;
    }
    acc
}

/// The coordinate-wise bounding box of a non-empty point set, as
/// `(min, max)`.
///
/// # Panics
///
/// Panics if `points` is empty.
#[must_use]
pub fn bounding_box<const D: usize>(points: &[Point<D>]) -> (Point<D>, Point<D>) {
    assert!(!points.is_empty(), "bounding box of an empty set");
    let mut lo = points[0];
    let mut hi = points[0];
    for p in &points[1..] {
        lo = lo.min(p);
        hi = hi.max(p);
    }
    (lo, hi)
}

/// Whether `x` lies in the coordinate-wise bounding box of `points`
/// (with tolerance `tol`). For `D = 1` this is exact convex-hull
/// membership; for `D > 1` it is a necessary condition (the hull is
/// contained in the box). [`in_convex_hull`] is the exact test for
/// `D ∈ {2, 3}`.
#[must_use]
pub fn in_bounding_box<const D: usize>(x: &Point<D>, points: &[Point<D>], tol: f64) -> bool {
    let (lo, hi) = bounding_box(points);
    (0..D).all(|c| x[c] >= lo[c] - tol && x[c] <= hi[c] + tol)
}

/// Whether `x` lies in the **convex hull** of `points`, within a
/// geometric tolerance `tol` (a distance, in the same units as the
/// coordinates).
///
/// * `D = 1` — exact: interval membership (identical to
///   [`in_bounding_box`]).
/// * `D = 2` — exact: the cross-product half-plane test. A point is in
///   the hull iff it is on the inner side of every *supporting line*
///   (a line through two input points with the whole set on one closed
///   side); degenerate (collinear) sets reduce to the segment test via
///   the bounding box.
/// * `D = 3` — exact: the same scheme one dimension up (supporting
///   planes through point triples, in the gift-wrapping style), plus
///   in-plane edge tests so coplanar and collinear sets are handled
///   exactly rather than falling back to the box.
/// * `D ≥ 4` — the bounding-box **relaxation** (a necessary condition);
///   exact hull membership in higher dimensions needs an LP and is out
///   of scope here.
///
/// Signed distances are normalised (true Euclidean point–plane
/// distances), so `tol` composes across dimensions; `tol = 0` demands
/// exact membership up to floating-point evaluation of the cross
/// products.
///
/// This is the test behind `Trace::validity_holds` in
/// `consensus-dynamics`: strictly sharper than the box check for
/// `D ∈ {2, 3}` (the hull is contained in the box, and e.g. a box
/// corner opposite a triangle is in the box but not the hull).
///
/// # Panics
///
/// Panics if `points` is empty.
#[must_use]
pub fn in_convex_hull<const D: usize>(x: &Point<D>, points: &[Point<D>], tol: f64) -> bool {
    assert!(!points.is_empty(), "convex hull of an empty set");
    // The box is necessary in every dimension, and it is what bounds
    // the degenerate (collinear) configurations along their carrier.
    if !in_bounding_box(x, points, tol) {
        return false;
    }
    match D {
        0 | 1 => true,
        2 => in_hull_2d(
            [x[0], x[1]],
            &points.iter().map(|p| [p[0], p[1]]).collect::<Vec<_>>(),
            tol,
        ),
        3 => in_hull_3d(
            [x[0], x[1], x[2]],
            &points
                .iter()
                .map(|p| [p[0], p[1], p[2]])
                .collect::<Vec<_>>(),
            tol,
        ),
        _ => true,
    }
}

/// Whether a candidate hyperplane *separates* `x` from the point set:
/// the whole set lies on one closed side (signed distances within
/// `tol`) while `x` is strictly beyond `tol` on the other. `sides` are
/// the set's signed distances, `sx` the query point's.
fn separated(sx: f64, sides: impl Iterator<Item = f64>, tol: f64) -> bool {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in sides {
        lo = lo.min(s);
        hi = hi.max(s);
    }
    (hi <= tol && sx > tol) || (lo >= -tol && sx < -tol)
}

fn sub2(a: [f64; 2], b: [f64; 2]) -> [f64; 2] {
    [a[0] - b[0], a[1] - b[1]]
}

fn cross2(a: [f64; 2], b: [f64; 2]) -> f64 {
    a[0] * b[1] - a[1] * b[0]
}

/// Exact 2-D hull membership for a point already known to be inside the
/// bounding box: for every directed pair `(a, b)`, if the whole set lies
/// on the non-positive side of the line `a → b`, so must `x`.
///
/// Collinear sets make every pair line supporting in *both*
/// orientations, which forces `x` onto the line; the box then bounds it
/// to the segment between the extreme points.
fn in_hull_2d(x: [f64; 2], pts: &[[f64; 2]], tol: f64) -> bool {
    for (i, &a) in pts.iter().enumerate() {
        for &b in &pts[i + 1..] {
            let e = sub2(b, a);
            let len = (e[0] * e[0] + e[1] * e[1]).sqrt();
            if len <= f64::MIN_POSITIVE {
                continue; // coincident points span no line
            }
            // side(p) = signed distance of p from the line a→b.
            let side = |p: [f64; 2]| cross2(e, sub2(p, a)) / len;
            if separated(side(x), pts.iter().map(|&p| side(p)), tol) {
                return false;
            }
        }
    }
    true
}

fn sub3(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [a[0] - b[0], a[1] - b[1], a[2] - b[2]]
}

fn cross3(a: [f64; 3], b: [f64; 3]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

fn dot3(a: [f64; 3], b: [f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

fn norm3(a: [f64; 3]) -> f64 {
    dot3(a, a).sqrt()
}

/// Exact 3-D hull membership for a point already known to be inside the
/// bounding box.
///
/// Full-dimensional sets: every facet-supporting plane is spanned by
/// some point triple, so checking `x` against every supporting triple
/// plane is sufficient. Coplanar sets: the triple planes force `x` onto
/// the common plane (both orientations are supporting), and in-plane
/// *edge* planes (through a point pair, containing the plane normal)
/// complete the 2-D polygon test. Collinear sets: no triple spans a
/// plane; `x` is forced onto the carrier line via the point–line
/// distance, and the bounding box bounds it to the segment.
fn in_hull_3d(x: [f64; 3], pts: &[[f64; 3]], tol: f64) -> bool {
    let mut plane_normal: Option<[f64; 3]> = None;
    for (i, &a) in pts.iter().enumerate() {
        for (j, &b) in pts.iter().enumerate().skip(i + 1) {
            let e1 = sub3(b, a);
            for &c in &pts[j + 1..] {
                let e2 = sub3(c, a);
                let n = cross3(e1, e2);
                let len = norm3(n);
                // Skip triples that span no plane (relative test: the
                // normal's length is ‖e1‖·‖e2‖·sin θ).
                if len <= 1e-12 * norm3(e1) * norm3(e2) {
                    continue;
                }
                if plane_normal.is_none() {
                    plane_normal = Some(n);
                }
                let side = |p: [f64; 3]| dot3(n, sub3(p, a)) / len;
                if separated(side(x), pts.iter().map(|&p| side(p)), tol) {
                    return false;
                }
            }
        }
    }
    let Some(nn) = plane_normal else {
        // No spanning triple: the set is collinear. The box bounds x
        // along the carrier; it remains to pin x onto the line itself.
        return in_hull_collinear_3d(x, pts, tol);
    };
    // In-plane edge tests (no-ops for interior directions of
    // full-dimensional sets, the exact polygon test for coplanar ones).
    for (i, &a) in pts.iter().enumerate() {
        for &b in &pts[i + 1..] {
            let m = cross3(sub3(b, a), nn);
            let len = norm3(m);
            if len <= f64::MIN_POSITIVE {
                continue;
            }
            let side = |p: [f64; 3]| dot3(m, sub3(p, a)) / len;
            if separated(side(x), pts.iter().map(|&p| side(p)), tol) {
                return false;
            }
        }
    }
    true
}

/// Hull membership for a collinear 3-D point set (already box-checked):
/// `x` must lie within `tol` of the carrier line.
fn in_hull_collinear_3d(x: [f64; 3], pts: &[[f64; 3]], tol: f64) -> bool {
    // The farthest pair spans the carrier (all sets here have ≥ 1 point;
    // coincident sets have no spanning pair and reduce to the box test).
    let mut best = (0usize, 0usize);
    let mut best_sq = 0.0f64;
    for (i, &a) in pts.iter().enumerate() {
        for (j, &b) in pts.iter().enumerate().skip(i + 1) {
            let d = sub3(b, a);
            let sq = dot3(d, d);
            if sq > best_sq {
                best_sq = sq;
                best = (i, j);
            }
        }
    }
    if best_sq <= f64::MIN_POSITIVE {
        return true; // all points coincide; the box test already pinned x
    }
    let (a, b) = (pts[best.0], pts[best.1]);
    let v = sub3(b, a);
    // Point–line distance ‖(x − a) × v‖ / ‖v‖.
    norm3(cross3(sub3(x, a), v)) / norm3(v) <= tol
}

/// The supporting structure of a convex hull, computed **once** and
/// reusable for many membership queries.
///
/// [`in_convex_hull`] re-derives every candidate supporting line/plane
/// (and the point set's signed extent on each) per query — `O(n²)` or
/// `O(n³)` work per point. `HullPlanes` caches exactly that structure:
/// the bounding box, each candidate plane's anchor/normal/length, and
/// the set's signed-distance extent `[lo, hi]` on it, so a query is one
/// signed distance per cached plane.
///
/// # Bit-identity contract
///
/// `HullPlanes::new(points).contains(x, tol)` returns **exactly** the
/// boolean `in_convex_hull(x, points, tol)` for every `x` and `tol`:
/// same plane enumeration, same skip conditions, same side formulas,
/// same `separated` predicate (the property tests in
/// `tests/hull_planes.rs` pin this down). The tolerance is a *query*
/// parameter — the cached structure is tolerance-free.
#[derive(Debug, Clone)]
pub struct HullPlanes<const D: usize> {
    lo: Point<D>,
    hi: Point<D>,
    planes: PlaneSet,
}

#[derive(Debug, Clone)]
enum PlaneSet {
    /// `D ∈ {0, 1}` (box is exact) and `D ≥ 4` (box relaxation).
    BoxOnly,
    Two(Vec<Plane2>),
    Three {
        planes: Vec<Plane3>,
        /// Carrier line `(anchor, direction)` of a collinear set
        /// (`None` when the set spans a plane, or is fully coincident).
        carrier: Option<([f64; 3], [f64; 3])>,
    },
}

/// A candidate supporting line in 2-D: `side(p) = cross2(e, p − a) /
/// len`, with the point set's signed extent `[lo, hi]` cached.
#[derive(Debug, Clone)]
struct Plane2 {
    a: [f64; 2],
    e: [f64; 2],
    len: f64,
    lo: f64,
    hi: f64,
}

/// A candidate supporting plane in 3-D: `side(p) = dot3(n, p − a) /
/// len`, with the point set's signed extent `[lo, hi]` cached. Both
/// triple planes and in-plane edge planes take this form.
#[derive(Debug, Clone)]
struct Plane3 {
    a: [f64; 3],
    n: [f64; 3],
    len: f64,
    lo: f64,
    hi: f64,
}

/// The point set's signed extent on a plane (the `lo`/`hi` that
/// [`separated`] folds per query in the uncached path).
fn extent(sides: impl Iterator<Item = f64>) -> (f64, f64) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in sides {
        lo = lo.min(s);
        hi = hi.max(s);
    }
    (lo, hi)
}

/// The query half of [`separated`], evaluated against a cached extent.
fn separated_cached(sx: f64, lo: f64, hi: f64, tol: f64) -> bool {
    (hi <= tol && sx > tol) || (lo >= -tol && sx < -tol)
}

impl<const D: usize> HullPlanes<D> {
    /// Computes the supporting structure of the hull of `points`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    #[must_use]
    pub fn new(points: &[Point<D>]) -> Self {
        assert!(!points.is_empty(), "convex hull of an empty set");
        let (lo, hi) = bounding_box(points);
        let planes = match D {
            2 => {
                let pts: Vec<[f64; 2]> = points.iter().map(|p| [p[0], p[1]]).collect();
                PlaneSet::Two(planes_2d(&pts))
            }
            3 => {
                let pts: Vec<[f64; 3]> = points.iter().map(|p| [p[0], p[1], p[2]]).collect();
                planes_3d(&pts)
            }
            _ => PlaneSet::BoxOnly,
        };
        HullPlanes { lo, hi, planes }
    }

    /// Whether `x` lies in the hull, within `tol` — exactly
    /// [`in_convex_hull`]`(x, points, tol)` for the constructor's point
    /// set, at `O(planes)` instead of `O(planes · n)` per query.
    #[must_use]
    pub fn contains(&self, x: &Point<D>, tol: f64) -> bool {
        if !(0..D).all(|c| x[c] >= self.lo[c] - tol && x[c] <= self.hi[c] + tol) {
            return false;
        }
        match &self.planes {
            PlaneSet::BoxOnly => true,
            PlaneSet::Two(planes) => {
                let q = [x[0], x[1]];
                planes.iter().all(|p| {
                    let sx = cross2(p.e, sub2(q, p.a)) / p.len;
                    !separated_cached(sx, p.lo, p.hi, tol)
                })
            }
            PlaneSet::Three { planes, carrier } => {
                let q = [x[0], x[1], x[2]];
                for p in planes {
                    let sx = dot3(p.n, sub3(q, p.a)) / p.len;
                    if separated_cached(sx, p.lo, p.hi, tol) {
                        return false;
                    }
                }
                match carrier {
                    Some((a, v)) => norm3(cross3(sub3(q, *a), *v)) / norm3(*v) <= tol,
                    None => true,
                }
            }
        }
    }

    /// The number of cached candidate planes (0 for box-only
    /// dimensions).
    #[must_use]
    pub fn plane_count(&self) -> usize {
        match &self.planes {
            PlaneSet::BoxOnly => 0,
            PlaneSet::Two(planes) => planes.len(),
            PlaneSet::Three { planes, .. } => planes.len(),
        }
    }
}

/// The candidate lines of [`in_hull_2d`], with cached extents.
fn planes_2d(pts: &[[f64; 2]]) -> Vec<Plane2> {
    let mut out = Vec::new();
    for (i, &a) in pts.iter().enumerate() {
        for &b in &pts[i + 1..] {
            let e = sub2(b, a);
            let len = (e[0] * e[0] + e[1] * e[1]).sqrt();
            if len <= f64::MIN_POSITIVE {
                continue; // coincident points span no line
            }
            let side = |p: [f64; 2]| cross2(e, sub2(p, a)) / len;
            let (lo, hi) = extent(pts.iter().map(|&p| side(p)));
            out.push(Plane2 { a, e, len, lo, hi });
        }
    }
    out
}

/// The candidate planes of [`in_hull_3d`] (triples, then in-plane
/// edges), with cached extents; collinear sets yield the carrier line
/// instead.
fn planes_3d(pts: &[[f64; 3]]) -> PlaneSet {
    let mut planes = Vec::new();
    let mut plane_normal: Option<[f64; 3]> = None;
    for (i, &a) in pts.iter().enumerate() {
        for (j, &b) in pts.iter().enumerate().skip(i + 1) {
            let e1 = sub3(b, a);
            for &c in &pts[j + 1..] {
                let e2 = sub3(c, a);
                let n = cross3(e1, e2);
                let len = norm3(n);
                if len <= 1e-12 * norm3(e1) * norm3(e2) {
                    continue;
                }
                if plane_normal.is_none() {
                    plane_normal = Some(n);
                }
                let side = |p: [f64; 3]| dot3(n, sub3(p, a)) / len;
                let (lo, hi) = extent(pts.iter().map(|&p| side(p)));
                planes.push(Plane3 { a, n, len, lo, hi });
            }
        }
    }
    let Some(nn) = plane_normal else {
        // No spanning triple: collinear. Cache the carrier (the
        // farthest pair), or nothing when all points coincide.
        let mut best = (0usize, 0usize);
        let mut best_sq = 0.0f64;
        for (i, &a) in pts.iter().enumerate() {
            for (j, &b) in pts.iter().enumerate().skip(i + 1) {
                let d = sub3(b, a);
                let sq = dot3(d, d);
                if sq > best_sq {
                    best_sq = sq;
                    best = (i, j);
                }
            }
        }
        let carrier = if best_sq <= f64::MIN_POSITIVE {
            None
        } else {
            let (a, b) = (pts[best.0], pts[best.1]);
            Some((a, sub3(b, a)))
        };
        return PlaneSet::Three { planes, carrier };
    };
    for (i, &a) in pts.iter().enumerate() {
        for &b in &pts[i + 1..] {
            let m = cross3(sub3(b, a), nn);
            let len = norm3(m);
            if len <= f64::MIN_POSITIVE {
                continue;
            }
            let side = |p: [f64; 3]| dot3(m, sub3(p, a)) / len;
            let (lo, hi) = extent(pts.iter().map(|&p| side(p)));
            planes.push(Plane3 {
                a,
                n: m,
                len,
                lo,
                hi,
            });
        }
    }
    PlaneSet::Three {
        planes,
        carrier: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Point([1.0, 2.0]);
        let b = Point([3.0, -1.0]);
        assert_eq!(a + b, Point([4.0, 1.0]));
        assert_eq!(a - b, Point([-2.0, 3.0]));
        assert_eq!(a * 2.0, Point([2.0, 4.0]));
        assert_eq!(-a, Point([-1.0, -2.0]));
        assert_eq!(a.midpoint(&b), Point([2.0, 0.5]));
    }

    #[test]
    fn norms_and_distances() {
        let a = Point([3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        assert!((a.dist(&Point::ZERO) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn lattice_ops() {
        let a = Point([1.0, 5.0]);
        let b = Point([2.0, 3.0]);
        assert_eq!(a.min(&b), Point([1.0, 3.0]));
        assert_eq!(a.max(&b), Point([2.0, 5.0]));
    }

    #[test]
    fn one_dim_conversions() {
        let p: Point<1> = 2.5.into();
        let v: f64 = p.into();
        assert_eq!(v, 2.5);
    }

    #[test]
    fn diameter_matches_definition() {
        let pts: Vec<Point<1>> = [0.0, 0.25, 1.0, 0.5].iter().map(|&v| v.into()).collect();
        assert!((diameter(&pts) - 1.0).abs() < 1e-12);
        assert_eq!(diameter::<1>(&[]), 0.0);
        assert_eq!(diameter(&[Point([1.0])]), 0.0);
    }

    #[test]
    fn scalar_diameter_does_not_underflow() {
        // The pairwise scan squared the difference: 1e-170² underflows
        // to 0, so two different values read as agreement.
        assert_eq!(diameter(&[Point([0.0]), Point([1e-170])]), 1e-170);
        assert_eq!(diameter(&[Point([1e-160]), Point([0.0])]), 1e-160);
        assert!(diameter(&[Point([0.0]), Point([f64::NAN]), Point([1.0])]).is_nan());
    }

    #[test]
    fn scalar_scan_matches_the_pairwise_scan_bit_for_bit() {
        // The pairwise definition, as `diameter` computed it for every D.
        fn pairwise(points: &[Point<1>]) -> f64 {
            let mut best: f64 = 0.0;
            for (i, a) in points.iter().enumerate() {
                for b in &points[i + 1..] {
                    best = crate::float::det_max(best, a.dist(b));
                }
            }
            best
        }
        // splitmix64: seeded sets of sizes 0..40 over mixed magnitudes
        // and signs, so every lane/remainder shape is covered.
        let mut state = 0x5EED_D1A3_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for trial in 0..400 {
            let len = trial % 40;
            let scale = 10f64.powi((next() % 61) as i32 - 30);
            let pts: Vec<Point<1>> = (0..len)
                .map(|_| {
                    let unit = (next() >> 11) as f64 / (1u64 << 53) as f64;
                    Point([(2.0 * unit - 1.0) * scale])
                })
                .collect();
            assert_eq!(
                diameter(&pts).to_bits(),
                pairwise(&pts).to_bits(),
                "trial {trial}: {pts:?}"
            );
        }
    }

    #[test]
    fn convex_combination_stays_in_hull() {
        let pts = [Point([0.0]), Point([1.0])];
        let c = convex_combination(&pts, &[0.25, 0.75]);
        assert!((c[0] - 0.75).abs() < 1e-12);
        assert!(in_bounding_box(&c, &pts, 0.0));
    }

    #[test]
    fn bounding_box_membership() {
        let pts = [Point([0.0, 0.0]), Point([1.0, 2.0])];
        assert!(in_bounding_box(&Point([0.5, 1.0]), &pts, 0.0));
        assert!(!in_bounding_box(&Point([1.5, 1.0]), &pts, 0.0));
        // Tolerance.
        assert!(in_bounding_box(&Point([1.0 + 1e-12, 1.0]), &pts, 1e-9));
    }

    #[test]
    fn box_diameter_and_spreads() {
        let pts = [Point([0.0, 1.0]), Point([3.0, 2.0]), Point([1.0, 0.0])];
        assert_eq!(coordinate_spreads(&pts), [3.0, 2.0]);
        assert_eq!(box_diameter(&pts), 3.0);
        // L∞ ≤ L2 ≤ √D · L∞.
        let d2 = diameter(&pts);
        assert!(box_diameter(&pts) <= d2 && d2 <= 2f64.sqrt() * box_diameter(&pts));
        assert_eq!(box_diameter::<2>(&[]), 0.0);
        assert_eq!(coordinate_spreads::<2>(&[]), [0.0, 0.0]);
        assert_eq!(box_diameter(&[Point([7.0, -1.0])]), 0.0);
    }

    #[test]
    fn farthest_pair_realises_diameter() {
        let pts = [Point([0.0]), Point([0.25]), Point([1.0]), Point([0.5])];
        assert_eq!(farthest_pair(&pts), Some((0, 2)));
        let (i, j) = farthest_pair(&pts).expect("two points");
        assert_eq!(pts[i].dist(&pts[j]), diameter(&pts));
        assert_eq!(farthest_pair::<1>(&[]), None);
        assert_eq!(farthest_pair(&[Point([1.0])]), None);
        // Deterministic tie-break: all simplex-vertex pairs are at √2;
        // the first maximal pair in the (i, j) scan wins.
        let tied = [
            Point([1.0, 0.0, 0.0]),
            Point([0.0, 1.0, 0.0]),
            Point([0.0, 0.0, 1.0]),
        ];
        assert_eq!(farthest_pair(&tied), Some((0, 1)));
    }

    #[test]
    fn per_coordinate_rates_recover_geometric_decay() {
        let init = [Point([0.0, 0.0]), Point([1.0, 4.0])];
        let now = [Point([0.0, 0.0]), Point([0.25, 1.0])];
        let r = per_coordinate_rates(&init, &now, 2);
        assert!((r[0] - 0.5).abs() < 1e-12 && (r[1] - 0.5).abs() < 1e-12);
        // Zero-spread coordinates and zero rounds report 0, not NaN.
        let flat = [Point([0.0, 0.0]), Point([0.0, 1.0])];
        let r = per_coordinate_rates(&flat, &flat, 3);
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 1.0).abs() < 1e-12);
        assert_eq!(per_coordinate_rates(&init, &now, 0), [0.0, 0.0]);
    }

    #[test]
    fn hull_2d_is_sharper_than_the_box() {
        // Right triangle: the opposite box corner is in the box but not
        // in the hull.
        let tri = [Point([0.0, 0.0]), Point([1.0, 0.0]), Point([0.0, 1.0])];
        let corner = Point([0.9, 0.9]);
        assert!(in_bounding_box(&corner, &tri, 0.0));
        assert!(!in_convex_hull(&corner, &tri, 1e-12));
        // The centroid and the vertices are inside.
        assert!(in_convex_hull(&centroid(&tri), &tri, 0.0));
        for v in &tri {
            assert!(in_convex_hull(v, &tri, 1e-12));
        }
        // The hypotenuse midpoint is on the boundary.
        assert!(in_convex_hull(&Point([0.5, 0.5]), &tri, 1e-12));
        assert!(!in_convex_hull(
            &Point([0.5 + 1e-6, 0.5 + 1e-6]),
            &tri,
            1e-9
        ));
    }

    #[test]
    fn hull_3d_catches_the_simplex_escape() {
        // The box centre of the unit-simplex vertices lies outside the
        // hull (coordinate sum 3/2 > 1) but inside the box — exactly the
        // coordinate-wise midpoint's validity failure at d = 3.
        let verts = [
            Point([1.0, 0.0, 0.0]),
            Point([0.0, 1.0, 0.0]),
            Point([0.0, 0.0, 1.0]),
        ];
        let box_centre = Point([0.5, 0.5, 0.5]);
        assert!(in_bounding_box(&box_centre, &verts, 0.0));
        assert!(!in_convex_hull(&box_centre, &verts, 1e-9));
        assert!(in_convex_hull(&centroid(&verts), &verts, 1e-12));
        // A full-dimensional set: the interior point stays inside, the
        // outside point is rejected.
        let tet = [
            Point([0.0, 0.0, 0.0]),
            Point([1.0, 0.0, 0.0]),
            Point([0.0, 1.0, 0.0]),
            Point([0.0, 0.0, 1.0]),
        ];
        assert!(in_convex_hull(&Point([0.2, 0.2, 0.2]), &tet, 0.0));
        assert!(!in_convex_hull(&Point([0.4, 0.4, 0.4]), &tet, 1e-9));
    }

    #[test]
    fn hull_degenerate_sets_are_exact() {
        // Collinear in 2-D: on-segment inside, off-line and
        // beyond-the-ends outside (the box alone misses neither… the box
        // IS the segment envelope here, the line test does the rest).
        let seg2 = [Point([0.0, 0.0]), Point([2.0, 2.0]), Point([1.0, 1.0])];
        assert!(in_convex_hull(&Point([0.5, 0.5]), &seg2, 1e-12));
        assert!(!in_convex_hull(&Point([1.0, 0.5]), &seg2, 1e-9));
        assert!(!in_convex_hull(&Point([2.5, 2.5]), &seg2, 1e-9));
        // Collinear in 3-D.
        let seg3 = [Point([0.0, 0.0, 0.0]), Point([1.0, 1.0, 1.0])];
        assert!(in_convex_hull(&Point([0.25, 0.25, 0.25]), &seg3, 1e-12));
        assert!(!in_convex_hull(&Point([0.5, 0.5, 0.0]), &seg3, 1e-9));
        // Coplanar in 3-D: a square in the z = 0 plane.
        let sq = [
            Point([0.0, 0.0, 0.0]),
            Point([1.0, 0.0, 0.0]),
            Point([1.0, 1.0, 0.0]),
            Point([0.0, 1.0, 0.0]),
        ];
        assert!(in_convex_hull(&Point([0.5, 0.5, 0.0]), &sq, 1e-12));
        assert!(!in_convex_hull(&Point([0.5, 0.5, 0.2]), &sq, 1e-9));
        // A triangle in that plane: the in-plane box corner escapes.
        let tri = [
            Point([0.0, 0.0, 0.0]),
            Point([1.0, 0.0, 0.0]),
            Point([0.0, 1.0, 0.0]),
        ];
        assert!(!in_convex_hull(&Point([0.9, 0.9, 0.0]), &tri, 1e-9));
        // Single point: only (near-)coincidence passes.
        let single = [Point([0.3, 0.3, 0.3])];
        assert!(in_convex_hull(&Point([0.3, 0.3, 0.3]), &single, 0.0));
        assert!(!in_convex_hull(&Point([0.3, 0.3, 0.4]), &single, 1e-9));
    }

    #[test]
    fn hull_d1_and_high_d_fall_back_to_the_box() {
        let pts1 = [Point([0.0]), Point([1.0])];
        assert!(in_convex_hull(&Point([0.5]), &pts1, 0.0));
        assert!(!in_convex_hull(&Point([1.5]), &pts1, 1e-9));
        // D ≥ 4 is the documented box relaxation.
        let pts4 = [
            Point([1.0, 0.0, 0.0, 0.0]),
            Point([0.0, 1.0, 0.0, 0.0]),
            Point([0.0, 0.0, 1.0, 0.0]),
            Point([0.0, 0.0, 0.0, 1.0]),
        ];
        assert!(in_convex_hull(&Point([0.5, 0.5, 0.5, 0.5]), &pts4, 0.0));
    }

    #[test]
    fn centroid_is_the_mean() {
        let pts = [Point([0.0, 3.0]), Point([2.0, 1.0])];
        assert_eq!(centroid(&pts), Point([1.0, 2.0]));
        assert!(in_bounding_box(&centroid(&pts), &pts, 0.0));
    }

    #[test]
    fn debug_format_scalar() {
        let p: Point<1> = 0.5.into();
        assert_eq!(format!("{p:?}"), "0.5");
        let q = Point([0.5, 1.0]);
        assert_eq!(format!("{q:?}"), "[0.5, 1.0]");
    }
}
