"""Vectorized twins of the scalar carrier operations.

Arrays carry matrices as (..., 4) float blocks in entry order
(a11, a12, a21, a22), matching :mod:`filmopt.optics`.  These helpers are the
hot path of enumeration and bound propagation; they do no validation, so the
scalar API remains the guarded public surface.
"""
from __future__ import annotations

import functools
import math

import numpy as np

#: Entries (wavelengths x columns) per chunk of the leaf kernels: a float64
#: work buffer of 1 MiB, inside L2.  See leaf_chunk_width.
LEAF_CHUNK_ENTRIES = 2**15


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
    """Maximum of D over entrywise boxes (..., 4): the 16-corner maximum, bit for bit.

    D is convex, so its maximum over a box is at a corner.  This kernel sums
    in :func:`denominator4`'s order, ((((x1 - b x3)^2 + (a x3)^2) +
    (x4 + b x2)^2) + (a x2)^2) + 2a: the corner maximum f of the first two
    squares over (x1, x3); for each x2, f plus the larger (x4 + b x2)^2 over
    x4, plus (a x2)^2; the larger of those two sums; then 2a.  Rounding is
    monotone, so each partial sum maximized this way is the largest that
    partial sum reaches at any corner, and the result equals the largest
    ``denominator4`` of the 16 corners.  Keep this order: summing the two
    halves apart (max f + max g) rounds differently and misses the corner
    maximum by an ulp on about a sixth of random boxes, which would move
    the exported ``d`` bounds.
    """

    def far_square(x_lo, x_hi, shift):
        # the larger square of x + shift at the two ends of [x_lo, x_hi]
        return np.maximum(np.square(x_lo + shift), np.square(x_hi + shift))

    f = np.maximum(*(far_square(lo[..., 0], hi[..., 0], -b * x3) + np.square(a * x3)
                     for x3 in (lo[..., 1], hi[..., 1])))
    sums = (f + far_square(lo[..., 2], hi[..., 2], b * x2) + np.square(a * x2)
            for x2 in (lo[..., 3], hi[..., 3]))
    return np.maximum(*sums) + 2.0 * a


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


def leaf_chunk_width(n_wl: int, k: int) -> int:
    """Columns per chunk for an (n_wl, 4, k) table: k, or a multiple of 64 from 128.

    A multiple of 64 keeps every chunk on the SIMD alignment the whole
    block has in BLAS (see _leaf_chunks).
    """
    return min(k, max(128, LEAF_CHUNK_ENTRIES // n_wl // 64 * 64))


@functools.lru_cache(maxsize=64)
def _leaf_chunks(k: int, width: int) -> tuple[tuple[slice, int], ...]:
    """(columns, count) chunks of `width` covering ``range(k)``.

    `width` is at least k or a multiple of 64 from 128.  Every chunk starts at a multiple of 64, so it keeps the SIMD alignment
    the whole block has in BLAS.  A lone last column joins the 63 before it:
    numpy scores a one-column matmul with gemv, which rounds differently
    from the gemm of a wider block.  Cached: a search asks for the same
    chunks once per prefix.
    """
    starts = list(range(0, k, width))
    if len(starts) > 1 and k - starts[-1] == 1:
        starts[-1] -= 64
    return tuple((slice(s, e), e - s) for s, e in zip(starts, starts[1:] + [k]))


def _reflectance_terms(rows: np.ndarray, suffix: np.ndarray, work: np.ndarray):
    """Numerators and denominators (two (L, K) views of `work`) of R(P*S) over `suffix` columns."""
    np.matmul(rows, suffix, out=work)
    np.square(work, out=work)
    num, den = work[:, 0], work[:, 2]
    np.add(num, work[:, 1], out=num)
    np.add(den, work[:, 3], out=den)
    return num, den


def weighted_reflectance4(
    rows: np.ndarray,
    suffix: np.ndarray,
    phi: np.ndarray,
    work: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Weighted reflectance of P*S for every column S of a suffix table.

    `rows` (L, 4, 4) comes from :func:`reflectance_rows4` for the prefix P;
    `suffix` is (L, 4, K) and `out` is (K,).  The work buffer `work` is
    (L, 4, C): the columns are scored C at a time, with C at least K or a
    multiple of 64 from 128.  On the OpenBLAS kernels this was tested on
    (see the tests), every column gets the same bits for any such C.  One
    matmul per wavelength replaces mul4 + reflectance4, and nothing is
    allocated, so a search can reuse both buffers across prefixes.
    """
    for cols, count in _leaf_chunks(suffix.shape[2], work.shape[2]):
        num, den = _reflectance_terms(rows, suffix[:, :, cols], work[:, :, :count])
        np.divide(num, den, out=num)
        np.matmul(phi, num, out=out[cols])
    return out


_U32, _U64 = 2.0**-24, 2.0**-53
_TINY32, _TINY64 = 2.0**-149, 2.0**-1074
#: The screen runs only while every row and suffix entry is below this and
#: every float32 denominator above its inverse.  Then float32 terms stay
#: below 2^42, squares and sums below 2^85 and quotients below 2^117, so
#: with weights summing to at most 2 nothing overflows float32.
_SCREEN_LIMIT = 2.0**20


def _gamma(n: int, u: float) -> float:
    return n * u / (1 - n * u)


class LeafScreen:
    """Float32 upper bound on the float64 leaf scores of one suffix table.

    Built once per (L, 4, K) table and its weights `phi`.  ``bound(rows)``
    scores every column in float32, in chunks of the width of `work`, and
    returns max obj32 + ``margin(...)``: no score
    :func:`weighted_reflectance4` gives for `rows` exceeds it.  Both return
    inf where the bound does not apply (entries or weights outside the
    float32-safe range, or a denominator too small), and the caller then
    scores in float64.  The float32 pass runs in the first half of the
    caller's contiguous float64 work buffer `work`, which it needs only
    between float64 passes, so the screen adds just the float32 table.
    """

    def __init__(self, suffix: np.ndarray, phi: np.ndarray, work: np.ndarray) -> None:
        n_wl, _, k = suffix.shape
        self.smax = np.maximum(suffix.max(axis=2), -suffix.min(axis=2))  # no |suffix| temporary
        self.usable = bool(
            self.smax.max() < _SCREEN_LIMIT
            and np.all((phi == 0) | (phi >= 2.0**-100))
            and phi.sum() <= 2
        )
        self.n_wl, self.phi_sum = n_wl, float(phi.sum())
        if self.usable:
            self.suffix = suffix.astype(np.float32)
            self.phi = phi.astype(np.float32)
            width = work.shape[2]
            self.work = work.reshape(-1).view(np.float32)[: work.size].reshape(n_wl, 4, width)
            self.out = np.empty(width, np.float32)

    def bound(self, rows: np.ndarray) -> float:
        """max obj32 + margin for the prefix with reflectance rows `rows` (L, 4, 4), or inf."""
        if not (self.usable and np.abs(rows).max() < _SCREEN_LIMIT):
            return np.inf
        rows32 = rows.astype(np.float32)
        top, dmin = -np.inf, [np.inf] * self.n_wl
        for cols, count in _leaf_chunks(self.suffix.shape[2], self.work.shape[2]):
            num, den = _reflectance_terms(rows32, self.suffix[:, :, cols], self.work[:, :, :count])
            low = den.min(axis=1).tolist()
            if not min(low) >= 1 / _SCREEN_LIMIT:
                return np.inf
            dmin = [min(d, x) for d, x in zip(dmin, low)]
            np.divide(num, den, out=num)
            top = max(top, float(np.matmul(self.phi, num, out=self.out[:count]).max()))
        return top + self.margin(rows, dmin, top)

    def margin(self, rows: np.ndarray, dmin: list[float], top: float) -> float:
        """A bound δ >= max_k |obj32[k] - obj64[k]| over the table, or inf.

        obj64 is :func:`weighted_reflectance4` of `rows` (L, 4, 4) over the
        float64 table, whose entries satisfy |S[l, j, k]| <= smax[l, j];
        obj32 is the same kernel on the float32 roundings of `rows`, the
        table and φ.  `dmin` holds each wavelength's smallest float32
        denominator and `top` the largest obj32.  Let u be the unit
        roundoff, τ the smallest subnormal, γ_n = nu/(1 - nu) (Higham,
        *Accuracy and Stability of Numerical Algorithms*, ch. 3) and
        R = N/D the exact reflectance, N = n1² + n2², D = d1² + d2².
        Each operation rounds as op(1 + ε) + η with |ε| <= u and |η| <= τ/2
        (η only on underflow, never on a sum), in any order and with or
        without FMA.

        1. Terms.  Rounding the row and suffix entries and the 4-term
           matmul give |t̂_r - t_r| <= g T_r + ν, with T_r = Σ_j |rows_rj|
           smax_j, g = γ6 in float32 (two input roundings) and γ4 in
           float64, and ν = τ (4 + Σ_j |rows_rj| + Σ_j smax_j) <= 2^24 τ
           below the entry limit.  So (n̂1, n̂2) is within
           ηN = g hypot(T_n1, T_n2) + √2 ν of (n1, n2), and n̂1² + n̂2² lies
           in [(√N - ηN)₊², (√N + ηN)²]; likewise for D with ηD.
        2. Squares and add: N̂ is within γ2 of n̂1² + n̂2², plus 2τ, so
           |N̂ - N| <= γ2 N + (1 + γ2)(2√N ηN + ηN²) + 2τ; likewise D̂.
        3. Lower bound on D: D̂32 >= dmin gives √D >= ρ - ηD32 with
           ρ = √((dmin - 2τ)/(1 + γ2)).  Take σ = 1/(ρ - ηD32) >= 1/√D,
           x = max_l ηN σ, y = max_l ηD σ.  Then |D̂ - D|/D <= e = γ2
           + (1 + γ2)(2y + y²) + 2τσ², and with 2√R <= 1 + R,
           |N̂ - N|/D <= a0 + a1 R for a0 = (1 + γ2)(x + x²) + 2τσ² and
           a1 = γ2 + (1 + γ2) x.
        4. Divide: N̂/D̂ - R = (N̂ - N - R(D̂ - D))/D̂, so with the rounding
           of the quotient |R̂ - R| <= A + B R for A = (1 + u) a0/(1 - e)
           + τ/2 and B = (1 + u)(a1 + e)/(1 - e) + u.
        5. L-term weighted sum (φ >= 0 and never subnormal, R >= 0):
           |obj - Σ φ_l R_l| <= C + K obj with C = (1 + γ_{L+1}) A Σφ + Lτ
           and K = (1 + γ_{L+1}) B + γ_{L+1}.
        6. So obj <= (top + C32)/(1 - K32) on every column, and
           δ = C32 + C64 + (K32 + K64)(top + C32)/(1 - K32).

        inf is returned when a step does not apply: an entry at or above
        the limit, ηD32 > ρ/2 (no usable lower bound on D), e > 1/2 or
        K32 > 1/2, or a non-finite result.  Those caps keep the operands of
        every subtraction apart, so the float64 evaluation here errs by
        under 200 u64 relative, and the final factor 1 + 2^-20 covers it.
        """
        absrows = np.abs(rows)
        if not (self.usable and absrows.max() < _SCREEN_LIMIT):
            return np.inf
        scale = (absrows @ self.smax[:, :, None])[:, :, 0]  # T_r per wavelength
        g6 = _gamma(6, _U32)
        s_num = s_den = s_max = 0.0
        for (t1, t2, t3, t4), low in zip(scale.tolist(), dmin):
            rho = math.sqrt(max(low - 2 * _TINY32, 0.0) / (1 + _gamma(2, _U32)))
            eta_den = g6 * math.hypot(t3, t4) + 2.0**24.5 * _TINY32
            if not eta_den <= rho / 2:
                return np.inf
            sigma = 1 / (rho - eta_den)
            s_num = max(s_num, math.hypot(t1, t2) * sigma)
            s_den = max(s_den, math.hypot(t3, t4) * sigma)
            s_max = max(s_max, sigma)

        def coefficients(u: float, g: float, tiny: float) -> tuple[float, float, float]:
            g2, gl, nu = _gamma(2, u), _gamma(self.n_wl + 1, u), 2.0**24.5 * tiny * s_max
            x, y, under = g * s_num + nu, g * s_den + nu, 2 * tiny * s_max * s_max
            e = g2 + (1 + g2) * (2 * y + y * y) + under
            a0 = (1 + g2) * (x + x * x) + under
            a1 = g2 + (1 + g2) * x
            big_a = (1 + u) * a0 / (1 - e) + tiny / 2
            big_b = (1 + u) * (a1 + e) / (1 - e) + u
            return (1 + gl) * big_a * self.phi_sum + self.n_wl * tiny, (1 + gl) * big_b + gl, e

        c32, k32, e32 = coefficients(_U32, g6, _TINY32)
        c64, k64, e64 = coefficients(_U64, _gamma(4, _U64), _TINY64)
        if not (e32 <= 0.5 and e64 <= 0.5 and k32 <= 0.5):
            return np.inf
        delta = (c32 + c64 + (k32 + k64) * (top + c32) / (1 - k32)) * (1 + 2.0**-20)
        return delta if math.isfinite(delta) else np.inf
