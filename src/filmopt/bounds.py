"""Entrywise bounds on cumulative layer-matrix products by corner propagation.

For a fixed right multiplier T, every entry of B*T is linear in the entries
of B, so over a box of B-values the extremes are attained at box corners.
Propagating the 16 corner matrices through every admissible choice of the
next layer therefore yields sound entrywise bounds on all reachable partial
products.  The same argument applied right-to-left bounds the product of the
*remaining* layers, which is what the branch-and-bound search uses.

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


def _corner_matrices(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The (16, 4) corner combinations of an entrywise box."""
    corners = np.empty((16, 4))
    for i, picks in enumerate(product((0, 1), repeat=4)):
        for e, p in enumerate(picks):
            corners[i, e] = hi[e] if p else lo[e]
    return corners


def tighten_bounds(catalog: Catalog) -> EntryBounds:
    """Forward corner propagation over layers 1..N, per wavelength."""
    n_layers = catalog.n_layers
    wls = catalog.spectrum.wavelengths
    lower = np.empty((len(wls), n_layers + 1, 4))
    upper = np.empty_like(lower)
    lower[:, 0] = _IDENTITY4
    upper[:, 0] = _IDENTITY4
    for li in range(len(wls)):
        corners = _IDENTITY4[None, :]
        for n in range(1, n_layers + 1):
            mats = catalog.layer_matrices[n - 1][:, li]
            reached = mul4(corners[:, None, :], mats[None, :, :]).reshape(-1, 4)
            lo, hi = reached.min(axis=0), reached.max(axis=0)
            lower[li, n], upper[li, n] = lo, hi
            corners = _corner_matrices(lo, hi)
    return EntryBounds(wavelengths=tuple(wls), lower=lower, upper=upper)


def suffix_product_bounds(catalog: Catalog) -> EntryBounds:
    """Bounds on the product of layers k+1..N, indexed by prefix depth k.

    Depth N is the empty suffix (exactly the identity).  Built by the mirror
    of :func:`tighten_bounds`: the pending layer multiplies from the *left*,
    so entries stay linear in the corner matrix and the corner argument holds
    unchanged.
    """
    n_layers = catalog.n_layers
    wls = catalog.spectrum.wavelengths
    lower = np.empty((len(wls), n_layers + 1, 4))
    upper = np.empty_like(lower)
    lower[:, n_layers] = _IDENTITY4
    upper[:, n_layers] = _IDENTITY4
    for li in range(len(wls)):
        corners = _IDENTITY4[None, :]
        for k in range(n_layers - 1, -1, -1):
            mats = catalog.layer_matrices[k][:, li]
            reached = mul4(mats[:, None, :], corners[None, :, :]).reshape(-1, 4)
            lo, hi = reached.min(axis=0), reached.max(axis=0)
            lower[li, k], upper[li, k] = lo, hi
            corners = _corner_matrices(lo, hi)
    return EntryBounds(wavelengths=tuple(wls), lower=lower, upper=upper)


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
