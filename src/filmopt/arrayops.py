"""Vectorized twins of the scalar carrier operations.

Arrays carry matrices as (..., 4) float blocks in entry order
(a11, a12, a21, a22), matching :mod:`filmopt.optics`.  These helpers are the
hot path of enumeration and bound propagation; they do no validation, so the
scalar API remains the guarded public surface.
"""
from __future__ import annotations

import numpy as np


def mul4(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Carrier product with broadcasting over leading axes of (..., 4) arrays.

    With `out` (any view whose last axis holds the entries) the product is
    written there instead of into a new array.
    """
    a11, a12, a21, a22 = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    b11, b12, b21, b22 = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    entries = (
        a11 * b11 - a12 * b21,
        a11 * b12 + a12 * b22,
        a21 * b11 + a22 * b21,
        a22 * b22 - a21 * b12,
    )
    if out is None:
        return np.stack(entries, axis=-1)
    for e, value in enumerate(entries):
        out[..., e] = value
    return out


def reflectance4(w: np.ndarray, a: float | np.ndarray, b: float | np.ndarray) -> np.ndarray:
    """Reflectance of (..., 4) cumulative matrices; caller guarantees sane denominators."""
    x1, x3, x4, x2 = w[..., 0], w[..., 1], w[..., 2], w[..., 3]
    num = (x1 - b * x3 - a * x2) ** 2 + (x4 + b * x2 - a * x3) ** 2
    den = (x1 - b * x3 + a * x2) ** 2 + (x4 + b * x2 + a * x3) ** 2
    return num / den


def denominator4(w: np.ndarray, a: float | np.ndarray, b: float | np.ndarray) -> np.ndarray:
    """Convex quadratic D on (..., 4) matrices (see optics.denominator_D)."""
    x1, x3, x4, x2 = w[..., 0], w[..., 1], w[..., 2], w[..., 3]
    return (x1 - b * x3) ** 2 + (a * x3) ** 2 + (x4 + b * x2) ** 2 + (a * x2) ** 2 + 2.0 * a


def interval_product4(
    p: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact entrywise range of P*S over S in the box [lo, hi], broadcasting (..., 4).

    Each entry of P*S is a fixed linear combination of two entries of S, so
    the interval extension is tight (see bounds.interval_product_box).
    """
    p11, p12, p21, p22 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    combos = (
        ((p11, 0), (-p12, 2)),
        ((p11, 1), (p12, 3)),
        ((p21, 0), (p22, 2)),
        ((p22, 3), (-p21, 1)),
    )
    shape = np.broadcast_shapes(p.shape, lo.shape)
    out_lo = np.empty(shape)
    out_hi = np.empty(shape)
    for e, ((c1, e1), (c2, e2)) in enumerate(combos):
        t1a, t1b = c1 * lo[..., e1], c1 * hi[..., e1]
        t2a, t2b = c2 * lo[..., e2], c2 * hi[..., e2]
        out_lo[..., e] = np.minimum(t1a, t1b) + np.minimum(t2a, t2b)
        out_hi[..., e] = np.maximum(t1a, t1b) + np.maximum(t2a, t2b)
    return out_lo, out_hi


def box_max_denominator4(
    lo: np.ndarray, hi: np.ndarray, a: float | np.ndarray, b: float | np.ndarray
) -> np.ndarray:
    """Maximum of D over entrywise boxes (..., 4).

    D = f(x1, x3) + g(x4, x2) + 2a with f = (x1 - b x3)^2 + (a x3)^2 and
    g = (x4 + b x2)^2 + (a x2)^2.  Both parts are convex and share no
    variable, so the maximum is max f over its 4 corners plus max g over its
    4 corners: the 16-corner maximum at half the work.
    """

    def part(x_lo, x_hi, y_lo, y_hi, c):
        # max over corners of (x + c y)^2 + (a y)^2
        def at(y):
            # for fixed y the square peaks at the x endpoint farther from -c y
            far = np.maximum(np.abs(x_lo + c * y), np.abs(x_hi + c * y))
            return far * far + (a * y) ** 2

        return np.maximum(at(y_lo), at(y_hi))

    f = part(lo[..., 0], hi[..., 0], lo[..., 1], hi[..., 1], -b)
    g = part(lo[..., 2], hi[..., 2], lo[..., 3], hi[..., 3], b)
    return f + g + 2.0 * a


def reflectance_rows4(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., L, 4, 4) linear maps from the entries of S to the terms of R(P*S).

    reflectance4(P*S) = (n1^2 + n2^2) / (d1^2 + d2^2), and for a fixed
    prefix P of shape (..., L, 4) the four terms (n1, n2, d1, d2) are linear
    in the entries of S.  Row r of the returned map gives term r.
    """
    p11, p12, p21, p22 = p[..., 0], p[..., 1], p[..., 2], p[..., 3]
    zero = np.zeros_like(p11)
    # rows: entries (w11, w12, w21, w22) of P*S as maps of (s11, s12, s21, s22)
    carrier = np.stack(
        [
            np.stack([p11, zero, -p12, zero], axis=-1),
            np.stack([zero, p11, zero, p12], axis=-1),
            np.stack([p21, zero, p22, zero], axis=-1),
            np.stack([zero, -p21, zero, p22], axis=-1),
        ],
        axis=-2,
    )
    one, nil = np.ones_like(a), np.zeros_like(a)
    # rows: (n1, n2, d1, d2) as maps of (w11, w12, w21, w22), per wavelength
    terms = np.stack(
        [
            np.stack([one, -b, nil, -a], axis=-1),
            np.stack([nil, -a, one, b], axis=-1),
            np.stack([one, -b, nil, a], axis=-1),
            np.stack([nil, a, one, b], axis=-1),
        ],
        axis=-2,
    )
    return terms @ carrier


def weighted_reflectance4(
    rows: np.ndarray,
    suffix: np.ndarray,
    phi: np.ndarray,
    work: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Weighted reflectance of P*S for every column S of a suffix table.

    `rows` (L, 4, 4) comes from :func:`reflectance_rows4` for the prefix P;
    `suffix` and the scratch buffer `work` are (L, 4, K) and `out` is (K,).
    One matmul per wavelength replaces mul4 + reflectance4, and nothing is
    allocated, so a search can reuse both buffers across prefixes.
    """
    np.matmul(rows, suffix, out=work)
    np.square(work, out=work)
    num, den = work[:, 0], work[:, 2]
    np.add(num, work[:, 1], out=num)
    np.add(den, work[:, 3], out=den)
    np.divide(num, den, out=num)
    return np.matmul(phi, num, out=out)
