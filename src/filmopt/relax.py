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

Candidate points are harvested from all eight corner slices, affine
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

The subsets come from ``itertools.combinations``, cached per candidate
count, and are fitted in blocks, one batched LU solve each (an exactly
zero pivot gives a NaN fit, which fails every test).  Each fit is first
held to a reach bound: ``s <= |a| . reach`` at every candidate,
``reach = [1, max|xi|]``, so a fit that falls short of D by more than
``REL_TOL * (1 + 1e-9) * |a| . reach`` anywhere fails the exact test too;
both tests read ``value + tol >= D``, ``1 + 1e-9`` covers the rounding of
the two scales, and rounding is monotone.  Only the ~1% of fits that pass
get the exact ``s`` and the dominance test, and only the dominating ones
the residual test.  The accepted planes and their order are those of
fitting each subset in turn with :func:`fit_hyperplane`.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .arrayops import ENTRY_ORDER, X_ORDER, box_max_denominator4, denominator4
from .bounds import EntryBounds
from .errors import EmptyCandidateSet, InconsistentBounds, NoValidHyperplane, SingularSystem
from .materials import Catalog
from .optics import ComplexIndex

#: Membership / deduplication tolerance for candidate points.  It is absolute:
#: on broad_n20_theta2 (Tungsten) 93 candidate pairs lie 2e-10 to 7e-7 of the
#: box span apart, distinct extreme points of the outer set, not rounding twins.
#: Merging one moves a plane's value up to ~1e3 times the ``2 * REL_TOL`` lift,
#: so a relative tolerance would trade soundness for speed.
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
FIT_BLOCK = 1024


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
    return crossings + [(s1 * p, s2 * q) for p, q in _dedupe(tangent)]


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
        # Both branches reached, or a tangential touch: the crossings are the vertices.
        return crossings
    return _dedupe(_tangent_quad(beta, crossings))


def collect_candidates(box: Box4) -> np.ndarray:
    """Extreme-point candidates as (n, 4) x-rows: at most 4 from each of 8 corner slices, n <= 32.

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


def fit_hyperplane(points: Sequence[Sequence[float]], g: Callable[[Sequence[float]], float]) -> np.ndarray:
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
    lo, hi = np.array(box.lower)[ENTRY_ORDER], np.array(box.upper)[ENTRY_ORDER]
    top = float(box_max_denominator4(lo, hi, substrate.re, substrate.im))
    return np.array([[top + 2.0 * REL_TOL * abs(top), 0.0, 0.0, 0.0, 0.0]])


@functools.cache
def _subsets(count: int) -> np.ndarray:
    """Every 5-subset of ``range(count)`` as a read-only uint8 array, in lexicographic order.

    ``count <= 32`` (see :func:`collect_candidates`), so the cache holds at
    most 28 arrays; a catalog's wavelengths share those of equal count.
    """
    subsets = np.fromiter(chain.from_iterable(combinations(range(count), 5)), np.uint8).reshape(-1, 5)
    subsets.setflags(write=False)
    return subsets


def _dominating_fits(aug: np.ndarray, gvals: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Lifted coefficient rows of the fits of one block that dominate ``gvals``, in order.

    ``aug`` holds the candidates as ``[1, x]`` rows, so ``reach`` is the column
    maximum of ``|aug|``.  The tests run in the module docstring's order, each
    on the survivors of the one before.  ``np.linalg.solve`` raises if one
    system is singular; its gufunc gives NaN where ``fit_hyperplane`` raises.
    """
    mat, rhs = np.take(aug, subsets, axis=0), np.take(gvals, subsets)
    pts = aug[:, 1:]
    with np.errstate(invalid="ignore", over="ignore"):  # singular and non-finite fits fail below
        alpha = _umath_linalg.solve(mat, rhs[:, :, None], signature="dd->d")[:, :, 0]
        vals = alpha[:, :1] + alpha[:, 1:] @ pts.T
        bound = REL_TOL * (1.0 + 1e-9) * (np.abs(alpha) @ np.abs(aug).max(axis=0))[:, None]
        keep = np.flatnonzero((vals + bound >= gvals).all(axis=1) & np.isfinite(alpha).all(axis=1))
        alpha, vals = alpha[keep], vals[keep]
        scale = np.abs(alpha[:, :1]) + np.abs(alpha[:, 1:]) @ np.abs(pts).T
        ok = (vals + REL_TOL * scale >= gvals).all(axis=1)
        mat, rhs, alpha, scale = mat[keep[ok]], rhs[keep[ok]], alpha[ok], scale[ok]
        residual = np.abs((mat @ alpha[:, :, None])[:, :, 0] - rhs).max(axis=1)
    ok = ~(residual > RESIDUAL_TOL * np.maximum(1.0, np.abs(rhs).max(axis=1)))
    alpha, scale = alpha[ok], scale[ok]
    alpha[:, 0] += 2.0 * REL_TOL * scale.max(axis=1)
    return alpha


def _new_planes(kept: np.ndarray, rows: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The rows of one block, in order, that duplicate no plane kept before them.

    Row ``r`` duplicates plane ``p`` when ``|p - r| @ reach <= DEDUPE_TOL *
    (|r| @ reach)``.  The planes before ``r`` are ``kept`` and the rows of
    the block that were kept ahead of it.  All distances come from one
    product; only the in-block order is settled row by row.
    """
    tol = DEDUPE_TOL * (np.abs(rows) @ reach)[:, None]
    near = np.abs(np.concatenate([kept, rows]) - rows[:, None]) @ reach <= tol
    free = (~near[:, :len(kept)].any(axis=1)).tolist()
    picked: list[int] = []
    for i, row_near in enumerate(near[:, len(kept):].tolist()):
        if free[i] and not any(row_near[j] for j in picked):
            picked.append(i)
    return rows[picked]


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
    ``UNCENTRED_ROUNDING`` times their largest uncentred ``s``.  Fits are made
    in batched blocks and held to their reach bound before ``s`` is formed
    (module docstring), with the result of fitting each subset in turn.
    """
    pts = collect_candidates(box)
    gvals = denominator4(pts[:, ENTRY_ORDER], substrate.re, substrate.im)
    if len(pts) < 5:
        raise NoValidHyperplane(f"only {len(pts)} candidates, need 5")
    center = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
    aug = np.column_stack([np.ones(len(pts)), pts - center])
    reach = np.abs(aug).max(axis=0)
    kept = np.empty((0, 5))
    subsets = _subsets(len(pts))
    for start in range(0, len(subsets), FIT_BLOCK):
        rows = _dominating_fits(aug, gvals, subsets[start:start + FIT_BLOCK])
        if len(rows):
            kept = np.vstack([kept, _new_planes(kept, rows, reach)])
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
