"""Entrywise bounds on cumulative layer-matrix products by corner propagation.

For a fixed right multiplier T, every entry of B*T is linear in the entries
of B, so over a box of B-values the extremes are attained at box corners.
Propagating the 16 corner matrices through every admissible choice of the
next layer therefore yields sound entrywise bounds on all reachable partial
products.  The same argument applied right-to-left bounds the product of the
*remaining* layers, which is what the branch-and-bound search uses.  Both
directions are one propagation over ``Catalog.layer_matrices`` that steps
every wavelength at once.

Bound arrays have shape (L, N+1, 4): wavelength index, prefix length
(0..N, where 0 is the bare identity), entry in (a11, a12, a21, a22) order.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .arrayops import denominator4, mul4
from .materials import Catalog
from .optics import ComplexIndex, StructuredMatrix

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
        out = {}
        for li, wl in enumerate(self.wavelengths):
            layers = []
            for n in range(self.lower.shape[1]):
                layers.append(
                    [[self.lower[li, n, e], self.upper[li, n, e]] for e in range(4)]
                )
            out[f"{wl:g}"] = layers
        return out


#: Row i picks hi[e] where set and lo[e] elsewhere: the 16 corners of a box.
_CORNER_PICKS = np.array(list(product((False, True), repeat=4)))


def _corner_matrices(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The (..., 16, 4) corner combinations of entrywise boxes (..., 4)."""
    return np.where(_CORNER_PICKS, hi[..., None, :], lo[..., None, :])


def _propagate(catalog: Catalog, forward: bool) -> EntryBounds:
    """Corner propagation over all wavelengths at once, in either direction.

    Forward, the box at depth n bounds the product of layers 1..n and the
    next layer multiplies from the right; backward, the box at depth k
    bounds the product of layers k+1..N and the next layer multiplies from
    the left.  Either way each entry of the product is linear in the corner
    matrix, so the corners of the previous box give the extremes.
    """
    n_layers = catalog.n_layers
    wls = catalog.spectrum.wavelengths
    lower = np.empty((len(wls), n_layers + 1, 4))
    upper = np.empty_like(lower)
    start, depths = (0, range(1, n_layers + 1)) if forward else (n_layers, range(n_layers - 1, -1, -1))
    lower[:, start] = upper[:, start] = _IDENTITY4
    corners = np.broadcast_to(_IDENTITY4, (len(wls), 1, 1, 4))
    for depth in depths:
        layer = depth - 1 if forward else depth
        mats = catalog.layer_matrices[layer].transpose(1, 0, 2)[:, None]  # (L, 1, C, 4)
        reached = mul4(corners, mats) if forward else mul4(mats, corners)
        lo, hi = reached.min(axis=(1, 2)), reached.max(axis=(1, 2))
        lower[:, depth], upper[:, depth] = lo, hi
        corners = _corner_matrices(lo, hi)[:, :, None]  # (L, 16, 1, 4)
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
    """Maximum of the convex quadratic D over an entrywise box (corner max)."""
    corners = _corner_matrices(lo, hi)
    return float(denominator4(corners, substrate.re, substrate.im).max())
