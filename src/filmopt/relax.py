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
functions are interpolated through every 5-point subset of them, and only
those dominating D on every candidate survive.  Up to the tolerances below,
the survivors' pointwise minimum is the concave envelope of D over the
candidates: each upper facet of the hull of the lifted points (x, D(x))
passes through five of them.  Dominance transfers from the candidates to
every reachable design by convexity, which the tests certify by enumeration.

Every tolerance is relative to the numbers it compares.  Fits are made in
coordinates centred on the candidates' bounding box, where a fit may fall
short of D at a candidate by ``REL_TOL`` times ``|a0| + sum |ai||xi|``, the
scale of the rounding error of its value there; each survivor is lifted so
that it clears every candidate by that margin.  Centring keeps that scale
near D on a box that is thin in some coordinate, where the planes' slopes
are large and ``a0`` would otherwise cancel ``a . x``.

The subsets of one wavelength are fitted in blocks: one batched LU solve
fits them all, an exactly zero pivot leaves a NaN row that is dropped with
the other non-finite fits, and one matrix product tests every fit against
every candidate.  The accepted planes and their order are those of fitting
each subset in turn with the scalar :func:`fit_hyperplane`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .arrayops import box_max_denominator4, denominator4
from .bounds import EntryBounds
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
#: A fit may fall short of D by this multiple of ``|a0| + sum |ai||xi|`` at a
#: candidate, over 1e6 times the rounding error of evaluating it there
#: (at most 5u times that sum); accepted fits are lifted by twice as much.
REL_TOL = 1e-9
#: Uncentred, ``a0`` can cancel ``a . x``: forming ``a0`` and evaluating the
#: plane round by up to about 10u times ``|a0| + sum |ai||xi|`` in uncentred
#: coordinates, so the exported planes are lifted by 16u times that too.
UNCENTRED_ROUNDING = 8 * np.finfo(float).eps
#: Relative residual allowed when interpolating the 5-point system.
RESIDUAL_TOL = 1e-8
#: A plane duplicates a kept one when their values differ by at most this
#: multiple of ``|a0| + sum |ai| max|xi|`` over the candidates' bounding box,
#: so dropping it moves the family's minimum by no more than that.
DEDUPE_TOL = 1e-7
#: Subsets fitted per batched solve; bounds the temporaries of one block.
FIT_BLOCK = 512
#: Entry indices (into a11, a12, a21, a22) of (x1, x2, x3, x4) = (w11, w22, w12, w21).
X_ORDER = (0, 3, 1, 2)
#: Columns of an x-ordered (x1, x2, x3, x4) array in entry order (a11, a12, a21, a22).
_ENTRY_ORDER = [X_ORDER.index(e) for e in range(4)]


@dataclass(frozen=True)
class Box4:
    """Entrywise bounds on (x1, x2, x3, x4) = (w11, w22, w12, w21)."""

    lower: tuple[float, float, float, float]
    upper: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise InconsistentBounds(f"bad box {self.lower} > {self.upper}")

    @classmethod
    def from_entry_bounds(cls, eb: EntryBounds, wavelength_idx: int) -> "Box4":
        """Final-layer box in x-order; entry arrays store (a11, a12, a21, a22)."""
        lo, hi = eb.box(wavelength_idx, eb.lower.shape[1] - 1)
        return cls(tuple(lo[e] for e in X_ORDER), tuple(hi[e] for e in X_ORDER))

    def contains(self, point: Sequence[float]) -> bool:
        return all(_inside(v, lo, hi) for v, lo, hi in zip(point, self.lower, self.upper))


def plane_values(planes: np.ndarray, point: Sequence[float]) -> np.ndarray:
    """``a0 + a1*x1 + a2*x2 + a3*x3 + a4*x4`` of each (P, 5) plane row at an x-ordered point.

    Summed left to right, so each value is the double the scalar expression gives.
    """
    a0, a1, a2, a3, a4 = planes.T
    return a0 + a1 * point[0] + a2 * point[1] + a3 * point[2] + a4 * point[3]


def _inside(v: float, lo: float, hi: float) -> bool:
    return lo - POINT_TOL <= v <= hi + POINT_TOL


def _dedupe(points: list[tuple[float, ...]]) -> list[tuple[float, ...]]:
    kept: list[tuple[float, ...]] = []
    for p in points:
        if not any(max(abs(a - b) for a, b in zip(p, q)) <= POINT_TOL for q in kept):
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
    """Harvest extreme-point candidates from all sixteen corner slices, as (n, 4) x-rows.

    A side no wider than ``POINT_TOL`` is one value at that tolerance: it is
    collapsed to its lower end, and every candidate is put on it.  Harvested
    from both faces, such a side would have some candidates deduped across
    the faces and others kept apart, a lopsided set whose fits are steep.
    """
    lo = box.lower
    flat = [h - l <= POINT_TOL for l, h in zip(lo, box.upper)]
    hi = tuple(l if f else h for l, h, f in zip(lo, box.upper, flat))
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
    if any(flat):
        points = [tuple(l if f else v for v, l, f in zip(p, lo, flat)) for p in points]
    points = _dedupe(points)
    if not points:
        raise EmptyCandidateSet("no extreme-point candidates inside the box")
    return np.array(points)


def fit_hyperplane(
    points: Sequence[Sequence[float]], g: Callable[[Sequence[float]], float]
) -> np.ndarray:
    """Coefficients ``(a0, ..., a4)`` of the affine interpolation of g through 5 points in 4-space.

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
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite fit raises below
        residual = np.abs(mat @ alpha - rhs).max()
    if not np.isfinite(alpha).all() or residual > RESIDUAL_TOL * max(1.0, np.abs(rhs).max()):
        raise SingularSystem(f"ill-conditioned system, residual {residual:g}")
    return alpha


def constant_overapproximator(box: Box4, substrate: ComplexIndex) -> np.ndarray:
    """Global fallback: the corner maximum of the convex D bounds D on the whole box.

    It is one (1, 5) plane row, lifted like the fitted planes, by
    ``2 * REL_TOL`` times its size.
    """
    lo, hi = np.array(box.lower)[_ENTRY_ORDER], np.array(box.upper)[_ENTRY_ORDER]
    top = float(box_max_denominator4(lo, hi, substrate.re, substrate.im))
    return np.array([[top + 2.0 * REL_TOL * abs(top), 0.0, 0.0, 0.0, 0.0]])


def _subset_blocks(count: int):
    """Every 5-subset of ``range(count)``, in lexicographic order, ``FIT_BLOCK`` rows at a time.

    Each row is unranked directly.  Mapping every element ``c`` to
    ``count - 1 - c`` turns lexicographic order into descending
    colexicographic order, where the subset of rank ``m`` has largest
    element ``x = max{x : C(x, 5) <= m}`` and the 4-subset of rank
    ``m - C(x, 5)`` below it, and so on down.
    """
    binom = np.array([[math.comb(x, i) for x in range(count)] for i in range(6)])
    total = math.comb(count, 5)
    for start in range(0, total, FIT_BLOCK):
        rank = total - 1 - np.arange(start, min(start + FIT_BLOCK, total))
        block = np.empty((len(rank), 5), np.intp)
        for i in range(5, 0, -1):
            x = np.searchsorted(binom[i], rank, side="right") - 1
            block[:, 5 - i] = count - 1 - x
            rank -= binom[i, x]
        yield block


def _dominating_fits(pts: np.ndarray, gvals: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Lifted coefficient rows of the fits of one block that dominate ``gvals``, in order.

    ``np.linalg.solve`` raises for the whole batch if one system is singular;
    its gufunc, called directly, gives NaN for a system whose LU meets an
    exactly zero pivot (where ``fit_hyperplane`` raises ``SingularSystem``).
    """
    mat = np.ones((len(subsets), 5, 5))
    mat[:, :, 1:] = pts[subsets]
    rhs = gvals[subsets]
    with np.errstate(invalid="ignore"):  # a singular system flags invalid and gives NaN
        alpha = _umath_linalg.solve(mat, rhs[:, :, None], signature="dd->d")[:, :, 0]
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite fits are dropped below
        residual = np.abs((mat @ alpha[:, :, None])[:, :, 0] - rhs).max(axis=1)
    tol = RESIDUAL_TOL * np.maximum(1.0, np.abs(rhs).max(axis=1))
    alpha = alpha[np.isfinite(alpha).all(axis=1) & ~(residual > tol)]
    vals = alpha[:, :1] + alpha[:, 1:] @ pts.T
    scale = np.abs(alpha[:, :1]) + np.abs(alpha[:, 1:]) @ np.abs(pts).T
    ok = (vals + REL_TOL * scale >= gvals).all(axis=1)
    alpha, scale = alpha[ok], scale[ok]
    alpha[:, 0] += 2.0 * REL_TOL * scale.max(axis=1)
    return alpha


def generate_overapproximators(box: Box4, substrate: ComplexIndex) -> np.ndarray:
    """All validated affine overapproximators of D over the box's det-1 set, as (P, 5) rows.

    Every 5-point subset of the candidate set is fitted, in coordinates
    centred on the candidates' bounding box.  A fit survives if it falls
    short of D by at most ``REL_TOL * s`` on *every* candidate, where
    ``s = |a0| + sum |ai||xi|`` bounds the rounding of its value there;
    survivors are lifted by ``2 * REL_TOL`` times their largest ``s``, so
    they dominate D on the candidates, and by convexity on their hull, with
    room to spare.  Near-duplicates of earlier survivors are dropped, and
    the rest are shifted back to uncentred coordinates and lifted by
    ``UNCENTRED_ROUNDING`` times their largest uncentred ``s``.  The subsets
    are fitted in batched blocks (see the module docstring), with the same
    result as fitting each centred subset with :func:`fit_hyperplane` in
    turn.
    """
    pts = collect_candidates(box)
    gvals = denominator4(pts[:, _ENTRY_ORDER], substrate.re, substrate.im)
    if len(pts) < 5:
        raise NoValidHyperplane(f"only {len(pts)} candidates, need 5")

    center = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
    centred = pts - center
    reach = np.concatenate([[1.0], np.abs(centred).max(axis=0)])
    kept = np.empty((0, 5))
    for subsets in _subset_blocks(len(pts)):
        for row in _dominating_fits(centred, gvals, subsets):
            if not (np.abs(kept - row) @ reach <= DEDUPE_TOL * (np.abs(row) @ reach)).any():
                kept = np.vstack([kept, row])
    if not len(kept):
        raise NoValidHyperplane("no 5-point fit dominates D on the candidate set")
    kept[:, 0] -= (kept[:, 1:] * center).sum(axis=1)
    scale = np.abs(kept[:, :1]) + np.abs(kept[:, 1:]) @ np.abs(pts).T
    kept[:, 0] += UNCENTRED_ROUNDING * scale.max(axis=1)
    return kept


def hyperplanes_for_catalog(catalog: Catalog, entry_bounds: EntryBounds) -> list[np.ndarray]:
    """Per-wavelength (P, 5) overapproximator families, with the constant fallback."""
    out: list[np.ndarray] = []
    for li in range(len(catalog.spectrum)):
        box = Box4.from_entry_bounds(entry_bounds, li)
        sub = catalog.substrate_indices[li]
        try:
            out.append(generate_overapproximators(box, sub))
        except (NoValidHyperplane, EmptyCandidateSet):
            out.append(constant_overapproximator(box, sub))
    return out
