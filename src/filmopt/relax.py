"""Linear overapproximators of the convex quadratic D over the det-1 box set.

The final cumulative matrix satisfies x1*x2 + x3*x4 = 1 (its determinant)
inside the entrywise box found by bound tightening, where
(x1, x2, x3, x4) = (w11, w22, w12, w21).  Because D is convex, an affine
function dominating D on the extreme points of that set dominates it on the
whole set.  Fixing two of the variables at box corners reduces the extreme-
point geometry to a 2-d slice y1*y2 = beta inside a rectangle:

* the curve meets the rectangle in two orthants -> the convex hull is a
  polytope with at most four extreme points, all on the curve;
* the curve meets it in a single orthant -> the hull is a cone section with
  infinitely many extreme points; it is outer-approximated by a quadrilateral
  built from the two boundary crossings and one tangent segment touching the
  curve at the geometric mean of the (updated) first-variable bounds;
* beta = 0 degenerates the curve to the coordinate axes and the slice to a
  cross, whose hull vertices are the axis-box crossings.

Candidate points are harvested from all sixteen corner slices, affine
functions are interpolated through 5-point subsets, and only those dominating
D on every candidate survive.  Dominance transfers from the candidates to
every reachable design by convexity, which the tests certify by enumeration.

The subsets of one wavelength are fitted in blocks: exactly singular systems
are dropped by the sign of their LU determinant, the rest are solved in one
batched call, and one matrix product screens every fit against every
candidate with a margin well above rounding.  Only the few fits that pass the
screen are decided by the exact domination test of the scalar
:func:`fit_hyperplane` path, so the accepted planes and their order are those
of fitting each subset in turn.  The seeded random subsets depend only on the
candidate count and the seed, and are drawn once per count per catalog.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .arrayops import denominator4
from .bounds import EntryBounds, max_denominator_over_box
from .errors import (
    EmptyCandidateSet,
    InconsistentBounds,
    NoValidHyperplane,
    SingularSystem,
)
from .materials import Catalog
from .optics import ComplexIndex

#: Membership / deduplication tolerance for candidate points.
POINT_TOL = 1e-9
#: A hyperplane must dominate g on every candidate up to this slack ...
DOMINATION_TOL = 1e-9
#: ... and accepted hyperplanes are lifted by the same amount.
LIFT = 1e-9
#: Relative residual allowed when interpolating the 5-point system.
RESIDUAL_TOL = 1e-8
#: Enumerate all 5-subsets up to this candidate count, sample beyond it.
EXHAUSTIVE_LIMIT = 12
RANDOM_SUBSETS = 5000
#: Subsets fitted per batched solve; bounds the temporaries of one block.
FIT_BLOCK = 512
#: Entry indices (into a11, a12, a21, a22) of (x1, x2, x3, x4) = (w11, w22, w12, w21).
X_ORDER = (0, 3, 1, 2)
#: Columns of an x-ordered (x1, x2, x3, x4) array in entry order (a11, a12, a21, a22).
_ENTRY_ORDER = [X_ORDER.index(e) for e in range(4)]
#: Relative margin of the domination screen, over 1000x the rounding error
#: of a 5-term dot product (at most 5u times the sum of term magnitudes).
SCREEN_MARGIN = 1e-12


@dataclass(frozen=True)
class Box4:
    """Entrywise bounds on (x1, x2, x3, x4) = (w11, w22, w12, w21)."""

    lower: tuple[float, float, float, float]
    upper: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise InconsistentBounds(f"bad box {self.lower} > {self.upper}")

    @classmethod
    def from_entry_bounds(cls, eb: EntryBounds, wavelength_idx: int, depth: int | None = None) -> "Box4":
        """Final-layer box in x-order; entry arrays store (a11, a12, a21, a22)."""
        n = eb.lower.shape[1] - 1 if depth is None else depth
        lo, hi = eb.box(wavelength_idx, n)
        return cls(tuple(lo[e] for e in X_ORDER), tuple(hi[e] for e in X_ORDER))

    def contains(self, point: Sequence[float], tol: float = POINT_TOL) -> bool:
        return all(
            lo - tol <= v <= hi + tol
            for v, lo, hi in zip(point, self.lower, self.upper)
        )


@dataclass(frozen=True)
class Hyperplane:
    """Affine overapproximator a0 + a1*x1 + a2*x2 + a3*x3 + a4*x4 >= g(x)."""

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float

    def coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.a0, self.a1, self.a2, self.a3, self.a4)

    def value(self, point: Sequence[float]) -> float:
        return (
            self.a0
            + self.a1 * point[0]
            + self.a2 * point[1]
            + self.a3 * point[2]
            + self.a4 * point[3]
        )


def _inside(v: float, lo: float, hi: float, tol: float = POINT_TOL) -> bool:
    return lo - tol <= v <= hi + tol


def _dedupe(points: list[tuple[float, ...]], tol: float = POINT_TOL) -> list[tuple[float, ...]]:
    kept: list[tuple[float, ...]] = []
    for p in points:
        if not any(max(abs(a - b) for a, b in zip(p, q)) <= tol for q in kept):
            kept.append(p)
    return kept


def _tangent_quad(beta: float, crossings: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Single-orthant case: crossings plus tangent-segment endpoints.

    Works in the positive orthant after sign reflection.  The updated box is
    the bounding box of the two crossings; the tangent to y1*y2 = beta at
    y1 = sqrt of the product of the updated first-variable bounds cuts that
    box in two points, closing an outer quadrilateral around the arc.
    """
    s1 = 1.0 if crossings[0][0] > 0 else -1.0
    s2 = 1.0 if crossings[0][1] > 0 else -1.0
    pts = [(s1 * p, s2 * q) for p, q in crossings]
    beta_pos = s1 * s2 * beta
    y1lo, y1hi = min(p for p, _ in pts), max(p for p, _ in pts)
    y2lo, y2hi = min(q for _, q in pts), max(q for _, q in pts)
    t1 = math.sqrt(abs(y1lo * y1hi))
    t2 = beta_pos / t1
    # tangent line through (t1, t2): y2 = 2*t2 - (t2/t1)*y1
    tangent: list[tuple[float, float]] = []
    for y1 in (y1lo, y1hi):
        y2 = 2.0 * t2 - (t2 / t1) * y1
        if _inside(y2, y2lo, y2hi):
            tangent.append((y1, y2))
    for y2 in (y2lo, y2hi):
        if t2 == 0:
            continue
        y1 = (2.0 * t2 - y2) * t1 / t2
        if _inside(y1, y1lo, y1hi):
            tangent.append((y1, y2))
    out = crossings + [(s1 * p, s2 * q) for p, q in _dedupe(tangent)]
    return out


def extreme_points_2d(
    b1: tuple[float, float], b2: tuple[float, float], beta: float
) -> list[tuple[float, float]]:
    """Extreme points of conv{(y1, y2) in box : y1*y2 = beta} (outer set in the cone case)."""
    lo1, hi1 = b1
    lo2, hi2 = b2
    if beta == 0.0:
        pts: list[tuple[float, float]] = []
        if _inside(0.0, lo2, hi2):
            pts += [(lo1, 0.0), (hi1, 0.0)]
        if _inside(0.0, lo1, hi1):
            pts += [(0.0, lo2), (0.0, hi2)]
        return _dedupe(pts)

    crossings: list[tuple[float, float]] = []
    for y1 in (lo1, hi1):
        if y1 != 0.0 and _inside(beta / y1, lo2, hi2):
            crossings.append((y1, beta / y1))
    for y2 in (lo2, hi2):
        if y2 != 0.0 and _inside(beta / y2, lo1, hi1):
            crossings.append((beta / y2, y2))
    crossings = _dedupe(crossings)
    if not crossings:
        return []
    orthants = {(p > 0, q > 0) for p, q in crossings}
    if len(orthants) > 1 or len(crossings) < 2:
        # Both branches reached (or a degenerate tangential touch): the
        # crossings themselves are the polytope vertices.
        return crossings
    return _dedupe(_tangent_quad(beta, crossings))


def collect_candidates(box: Box4) -> np.ndarray:
    """Harvest extreme-point candidates from all sixteen corner slices, as (n, 4) x-rows."""
    lo, hi = box.lower, box.upper
    points: list[tuple[float, float, float, float]] = []
    for x1 in (lo[0], hi[0]):
        for x2 in (lo[1], hi[1]):
            beta = 1.0 - x1 * x2
            for y3, y4 in extreme_points_2d((lo[2], hi[2]), (lo[3], hi[3]), beta):
                points.append((x1, x2, y3, y4))
    for x3 in (lo[2], hi[2]):
        for x4 in (lo[3], hi[3]):
            beta = 1.0 - x3 * x4
            for y1, y2 in extreme_points_2d((lo[0], hi[0]), (lo[1], hi[1]), beta):
                points.append((y1, y2, x3, x4))
    points = _dedupe(points)
    if not points:
        raise EmptyCandidateSet("no extreme-point candidates inside the box")
    return np.array(points)


def fit_hyperplane(
    points: Sequence[Sequence[float]], g: Callable[[Sequence[float]], float]
) -> Hyperplane:
    """Affine interpolation of g through 5 points in 4-space.

    The scalar reference for the batched fits of :func:`generate_overapproximators`.
    """
    if len(points) != 5:
        raise ValueError(f"need exactly 5 points, got {len(points)}")
    mat = np.column_stack([np.ones(5), np.array(points)])
    rhs = np.array([g(p) for p in points])
    try:
        alpha = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    residual = np.abs(mat @ alpha - rhs).max()
    if not np.isfinite(alpha).all() or residual > RESIDUAL_TOL * max(1.0, np.abs(rhs).max()):
        raise SingularSystem(f"ill-conditioned system, residual {residual:g}")
    return Hyperplane(*map(float, alpha))


def constant_overapproximator(box: Box4, substrate: ComplexIndex) -> Hyperplane:
    """Global fallback: the corner maximum of the convex D bounds D on the whole box."""
    lo, hi = np.array(box.lower)[_ENTRY_ORDER], np.array(box.upper)[_ENTRY_ORDER]
    return Hyperplane(max_denominator_over_box(lo, hi, substrate) + LIFT, 0.0, 0.0, 0.0, 0.0)


def _random_subsets(count: int, seed: int) -> np.ndarray:
    """The seeded random 5-subsets of ``range(count)``: sorted rows, repeats dropped.

    Depends only on ``(count, seed)``; the draws come from one
    ``default_rng(seed)`` stream in the order the rows are returned.
    """
    choice = np.random.default_rng(seed).choice
    picks = np.sort([choice(count, size=5, replace=False) for _ in range(RANDOM_SUBSETS)], axis=1)
    _, first = np.unique(picks, axis=0, return_index=True)
    return picks[np.sort(first)]


def _subsets(gvals: np.ndarray, seed: int, draws: dict[int, np.ndarray]) -> np.ndarray:
    """The (S, 5) candidate-index subsets to fit, in the order they are tried.

    All 5-subsets up to ``EXHAUSTIVE_LIMIT`` candidates; beyond that, the
    5-subsets of the twelve extremal-D candidates followed by the seeded
    random subsets, which ``draws`` holds per candidate count.
    """
    count = len(gvals)
    if count <= EXHAUSTIVE_LIMIT:
        return np.array(list(combinations(range(count), 5)))
    ranked = np.argsort(gvals, kind="stable")
    extremal = sorted(set(ranked[:6]) | set(ranked[-6:]))
    if count not in draws:
        draws[count] = _random_subsets(count, seed)
    return np.concatenate([np.array(list(combinations(extremal, 5))), draws[count]])


def _dominating_fits(pts: np.ndarray, gvals: np.ndarray, subsets: np.ndarray):
    """Fits of one block that ``fit_hyperplane`` accepts and that dominate ``gvals``, in order.

    A zero ``slogdet`` sign is an exactly zero pivot of the LU factorisation
    that makes ``fit_hyperplane`` raise ``SingularSystem``; ``det`` would
    also drop solvable systems whose determinant underflows to 0.
    """
    mat = np.ones((len(subsets), 5, 5))
    mat[:, :, 1:] = pts[subsets]
    rhs = gvals[subsets]
    with np.errstate(divide="ignore"):  # LU of an exactly singular system divides by 0
        solvable = np.linalg.slogdet(mat)[0] != 0
    mat, rhs = mat[solvable], rhs[solvable]
    alpha = np.linalg.solve(mat, rhs[:, :, None])[:, :, 0]
    residual = np.abs((mat @ alpha[:, :, None])[:, :, 0] - rhs).max(axis=1)
    tol = RESIDUAL_TOL * np.maximum(1.0, np.abs(rhs).max(axis=1))
    alpha = alpha[np.isfinite(alpha).all(axis=1) & ~(residual > tol)]
    vals = alpha[:, :1] + alpha[:, 1:] @ pts.T
    margin = SCREEN_MARGIN * (np.abs(alpha[:, :1]) + np.abs(alpha[:, 1:]) @ np.abs(pts).T)
    screened = ~(vals + margin < gvals - DOMINATION_TOL).any(axis=1)
    for row in alpha[screened]:
        h = Hyperplane(*map(float, row))
        if np.all(h.a0 + pts @ np.array([h.a1, h.a2, h.a3, h.a4]) >= gvals - DOMINATION_TOL):
            yield h


def generate_overapproximators(
    box: Box4,
    substrate: ComplexIndex,
    seed: int = 42,
) -> list[Hyperplane]:
    """All validated affine overapproximators of D over the box's det-1 set.

    5-point subsets of the candidate set are enumerated exhaustively up to
    ``EXHAUSTIVE_LIMIT`` candidates; beyond that, the subsets of the twelve
    extremal-D candidates plus a seeded random sample are tried.  The random
    sample depends only on the candidate count and ``seed``.  A fit survives
    only if it dominates D on *every* candidate (up to tolerance); survivors
    are lifted so the dominance is exact in exported models, and
    near-duplicates of earlier survivors are dropped.  The subsets are fitted
    in batched blocks (see the module docstring), with the same result as
    fitting each one with :func:`fit_hyperplane` in turn.
    """
    return _overapproximators(box, substrate, seed, {})


def _overapproximators(
    box: Box4, substrate: ComplexIndex, seed: int, draws: dict[int, np.ndarray]
) -> list[Hyperplane]:
    pts = collect_candidates(box)
    gvals = denominator4(pts[:, _ENTRY_ORDER], substrate.re, substrate.im)
    if len(pts) < 5:
        raise NoValidHyperplane(f"only {len(pts)} candidates, need 5")

    subsets = _subsets(gvals, seed, draws)
    kept: list[Hyperplane] = []
    coeffs: list[np.ndarray] = []
    for start in range(0, len(subsets), FIT_BLOCK):
        for h in _dominating_fits(pts, gvals, subsets[start:start + FIT_BLOCK]):
            lifted = np.array([h.a0 + LIFT, h.a1, h.a2, h.a3, h.a4])
            scale = max(1.0, np.abs(lifted).max())
            if not any(np.abs(lifted - c).max() <= 1e-7 * scale for c in coeffs):
                coeffs.append(lifted)
                kept.append(Hyperplane(*map(float, lifted)))
    if not kept:
        raise NoValidHyperplane("no 5-point fit dominates D on the candidate set")
    return kept


def hyperplanes_for_catalog(
    catalog: Catalog, entry_bounds: EntryBounds, seed: int = 42
) -> list[list[Hyperplane]]:
    """Per-wavelength overapproximator families, with the constant fallback."""
    out: list[list[Hyperplane]] = []
    draws: dict[int, np.ndarray] = {}
    for li in range(len(catalog.spectrum)):
        box = Box4.from_entry_bounds(entry_bounds, li)
        sub = catalog.substrate_indices[li]
        try:
            out.append(_overapproximators(box, sub, seed, draws))
        except (NoValidHyperplane, EmptyCandidateSet):
            out.append([constant_overapproximator(box, sub)])
    return out
