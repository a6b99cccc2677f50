"""Entrywise bounds on cumulative layer-matrix products by interval propagation.

For a fixed layer matrix T, each entry of T*S is a linear combination of two
entries of S, so one interval product (``arrayops.interval_product4``) gives
the exact range of T*S over a box of S.  Its min/max over every admissible
choice of the next layer bounds all reachable partial products.  Right to
left this bounds the product of the *remaining* layers, which the
branch-and-bound search uses; left to right it runs on transposes.  Both are
one propagation over ``Catalog.layer_matrices`` for every wavelength at once.
The scalar functions at the end are the test oracles of the box kernels.

Bound arrays have shape (L, N+1, 4): wavelength index, prefix length
(0..N, where 0 is the bare identity), entry in (a11, a12, a21, a22) order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .arrayops import interval_product4
from .materials import Catalog
from .optics import ComplexIndex, StructuredMatrix, denominator_D

_IDENTITY4 = np.array([1.0, 0.0, 0.0, 1.0])


@dataclass(frozen=True)
class EntryBounds:
    """Per-wavelength, per-depth entrywise bounds on cumulative products."""

    wavelengths: tuple[float, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower/upper shape mismatch")
        if np.any(self.lower > self.upper + 1e-15):
            raise ValueError("lower bound exceeds upper bound")
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    def box(self, wavelength_idx: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
        return self.lower[wavelength_idx, depth], self.upper[wavelength_idx, depth]

    def to_json_dict(self) -> dict:
        """Per wavelength, per depth, the four entries' [lo, hi] pairs."""
        pairs = np.stack([self.lower, self.upper], axis=-1).tolist()
        return {f"{wl:g}": pairs[li] for li, wl in enumerate(self.wavelengths)}


def _propagate(catalog: Catalog, forward: bool) -> EntryBounds:
    """Interval propagation over all wavelengths at once, in either direction.

    Forward, the box at depth n bounds the product of layers 1..n and the
    next layer multiplies from the right; backward, the box at depth k
    bounds the product of layers k+1..N and the next layer multiplies from
    the left.  Each step is one exact interval product per choice
    (``interval_product4``, forward on transposes) and a min/max over the
    choices.  It equals stepping the 16 box corners bit for bit: rounding is
    monotone, so the least ``fl(u + v)`` over corners is ``fl(min u + min v)``.
    """
    n_layers = catalog.n_layers
    wls = catalog.spectrum.wavelengths
    lower = np.empty((len(wls), n_layers + 1, 4))
    upper = np.empty_like(lower)
    start, depths = (0, range(1, n_layers + 1)) if forward else (n_layers, range(n_layers - 1, -1, -1))
    lower[:, start] = upper[:, start] = _IDENTITY4
    # swapping a12 and a21 transposes a matrix, and forward B T = (T^T B^T)^T
    order = [0, 2, 1, 3] if forward else [0, 1, 2, 3]
    for depth in depths:
        prev = depth - 1 if forward else depth + 1
        mats = catalog.layer_matrices[min(depth, prev)][..., order]  # (C, L, 4)
        lo, hi = interval_product4(mats, lower[:, prev][:, order], upper[:, prev][:, order])
        lower[:, depth], upper[:, depth] = lo.min(axis=0)[:, order], hi.max(axis=0)[:, order]
    return EntryBounds(wavelengths=tuple(wls), lower=lower, upper=upper)


def tighten_bounds(catalog: Catalog) -> EntryBounds:
    """Bounds on the product of layers 1..n, indexed by prefix depth n."""
    return _propagate(catalog, forward=True)


def suffix_product_bounds(catalog: Catalog) -> EntryBounds:
    """Bounds on the product of layers k+1..N, indexed by prefix depth k.

    Depth N is the empty suffix (exactly the identity).
    """
    return _propagate(catalog, forward=False)


def interval_product_box(
    prefix: StructuredMatrix, suffix_lo: np.ndarray, suffix_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact entrywise range of prefix * S over S in the suffix box.

    Each output entry is a fixed linear combination of two suffix entries,
    so the interval extension is tight, not just enclosing.
    """
    p11, p12, p21, p22 = prefix.entries()
    lo = np.empty(4)
    hi = np.empty(4)

    def scaled(c: float, e: int) -> tuple[float, float]:
        a, b = c * suffix_lo[e], c * suffix_hi[e]
        return (a, b) if a <= b else (b, a)

    combos = (
        ((p11, 0), (-p12, 2)),  # a11*s11 - a12*s21
        ((p11, 1), (p12, 3)),   # a11*s12 + a12*s22
        ((p21, 0), (p22, 2)),   # a21*s11 + a22*s21
        ((p22, 3), (-p21, 1)),  # a22*s22 - a21*s12
    )
    for e, ((c1, e1), (c2, e2)) in enumerate(combos):
        lo1, hi1 = scaled(c1, e1)
        lo2, hi2 = scaled(c2, e2)
        lo[e], hi[e] = lo1 + lo2, hi1 + hi2
    return lo, hi


def max_denominator_over_box(
    lo: np.ndarray, hi: np.ndarray, substrate: ComplexIndex
) -> float:
    """Maximum of the convex quadratic D over an entrywise box: the largest D at its 16 corners."""
    return max(
        denominator_D(StructuredMatrix(*corner), substrate)
        for corner in product(*zip(lo.tolist(), hi.tolist()))
    )
