"""Entrywise bounds on cumulative layer-matrix products by interval propagation.

For a fixed layer matrix T, each entry of T*S is a linear combination of two
entries of S, so one interval product (``arrayops.interval_product4``) gives
the exact range of T*S over a box of S.  Its min/max over every admissible
choice of the next layer bounds all reachable partial products.  Right to
left this bounds the product of the *remaining* layers, which the
branch-and-bound search uses; left to right it runs on transposes.  Both are
one propagation over ``Catalog.layer_matrices`` for every wavelength at once.
The search's backward boxes start instead from the exact box of its suffix
table at the split.

Bound arrays have shape (L, N+1, 4): wavelength index, prefix length
(0..N, where 0 is the bare identity), entry in (a11, a12, a21, a22) order.
The suffix boxes stop at the split: (L, split+1, 4).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrayops import IDENTITY4, interval_product4
from .materials import Catalog, wavelength_key


@dataclass(frozen=True)
class EntryBounds:
    """Per-wavelength, per-depth entrywise bounds on cumulative products."""

    wavelengths: tuple[float, ...]
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        if self.lower.shape != self.upper.shape:
            raise ValueError("lower/upper shape mismatch")
        # interval propagation rounds monotonically, so sound boxes are ordered exactly; NaN fails
        if not np.all(self.lower <= self.upper):
            raise ValueError("lower bound exceeds upper bound, or a bound is NaN")
        self.lower.setflags(write=False)
        self.upper.setflags(write=False)

    def box(self, wavelength_idx: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
        return self.lower[wavelength_idx, depth], self.upper[wavelength_idx, depth]

    def to_json_dict(self) -> dict:
        """Per wavelength, per depth, the four entries' [lo, hi] pairs."""
        pairs = np.stack([self.lower, self.upper], axis=-1).tolist()
        return {wavelength_key(wl): pairs[li] for li, wl in enumerate(self.wavelengths)}


def _propagated(catalog: Catalog, forward: bool, start: int, lo: np.ndarray, hi: np.ndarray) -> EntryBounds:
    """Boxes interval-propagated from the (L, 4) box [lo, hi] at depth `start`.

    Forward, the box at depth n bounds the product of layers 1..n and the
    next layer multiplies from the right, up to depth N; backward, the box
    at depth k bounds the product of layers k+1..N and the next layer
    multiplies from the left, down to depth 0 (so only depths 0..start are
    returned).  Each step is one exact interval product per choice
    (``interval_product4``, forward on transposes) and a min/max over the
    choices.  It equals stepping the 16 box corners bit for bit: rounding is
    monotone, so the least ``fl(u + v)`` over corners is ``fl(min u + min v)``.
    """
    n_depths = catalog.n_layers + 1 if forward else start + 1
    lower = np.empty((len(catalog.spectrum.wavelengths), n_depths, 4))
    upper = np.empty_like(lower)
    lower[:, start], upper[:, start] = lo, hi
    depths = range(start + 1, n_depths) if forward else range(start - 1, -1, -1)
    # swapping a12 and a21 transposes a matrix, and forward B T = (T^T B^T)^T
    order = [0, 2, 1, 3] if forward else [0, 1, 2, 3]
    for depth in depths:
        prev = depth - 1 if forward else depth + 1
        mats = catalog.layer_matrices[min(depth, prev)][..., order]  # (C, L, 4)
        step_lo, step_hi = interval_product4(mats, lower[:, prev][:, order], upper[:, prev][:, order])
        lower[:, depth], upper[:, depth] = step_lo.min(axis=0)[:, order], step_hi.max(axis=0)[:, order]
    return EntryBounds(tuple(catalog.spectrum.wavelengths), lower, upper)


def tighten_bounds(catalog: Catalog) -> EntryBounds:
    """Bounds on the product of layers 1..n, indexed by prefix depth n."""
    return _propagated(catalog, True, 0, IDENTITY4, IDENTITY4)


def suffix_product_bounds(catalog: Catalog, split: int, table: np.ndarray) -> EntryBounds:
    """Bounds on the product of layers k+1..N for depths k = 0..split.

    `table` holds the (L, 4, K) products of layers split+1..N
    (the table of ``solver._suffix_table``; at split N, the identity as one
    column).
    The box at depth `split` is their exact entrywise min/max, and
    shallower boxes propagate from it.
    """
    return _propagated(catalog, False, split, table.min(axis=2), table.max(axis=2))
