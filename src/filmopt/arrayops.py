"""Vectorized twins of the scalar carrier operations, and the carrier layout.

Arrays carry matrices as (..., 4) float blocks in entry order
(a11, a12, a21, a22), matching :mod:`filmopt.optics`.  These helpers are the
hot path of enumeration and bound propagation; they do no validation, so the
scalar API remains the guarded public surface.
"""
from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

#: Columns per chunk of the leaf kernels, whatever the number of wavelengths:
#: a 2^15-column block is one chunk.  See leaf_chunk_width.
LEAF_CHUNK_COLUMNS = 2**15


#: The carrier product as a table: entry e of A*B is the sum over t of
#: ``PRODUCT_SIGN[e, t] * A[PRODUCT_LEFT[e, t]] * B[PRODUCT_RIGHT[e, t]]``,
#: that is (a11 b11 - a12 b21, a11 b12 + a12 b22, a21 b11 + a22 b21,
#: a22 b22 - a21 b12).  mul4 and optics.multiply write it out by hand.
PRODUCT_LEFT = np.array([[0, 1], [0, 1], [2, 3], [3, 2]])
PRODUCT_RIGHT = np.array([[0, 2], [1, 3], [0, 2], [3, 1]])
PRODUCT_SIGN = np.array([[1.0, -1.0], [1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
#: The identity carrier, the product of no layers; read-only.
IDENTITY4 = np.array([1.0, 0.0, 0.0, 1.0])
IDENTITY4.setflags(write=False)
#: Entry indices (into a11, a12, a21, a22) of a hyperplane's (x1, x2, x3, x4) = (w11, w22, w12, w21).
X_ORDER = (0, 3, 1, 2)
#: Columns of an x-ordered (x1, x2, x3, x4) array in entry order (a11, a12, a21, a22).
ENTRY_ORDER = [X_ORDER.index(e) for e in range(4)]


def plane_values(planes: np.ndarray, point: Sequence[float]) -> np.ndarray:
    """``a0 + a1*x1 + a2*x2 + a3*x3 + a4*x4`` of each (P, 5) plane row at an x-ordered point.

    Summed left to right, so each value is the double the scalar expression gives.
    """
    a0, a1, a2, a3, a4 = planes.T
    return a0 + a1 * point[0] + a2 * point[1] + a3 * point[2] + a4 * point[3]


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

    Each entry of P*S is a fixed linear combination of two entries of S
    (the product table), so the interval extension is tight.
    """
    c1 = p[..., PRODUCT_LEFT[:, 0]]
    c2 = p[..., PRODUCT_LEFT[:, 1]] * PRODUCT_SIGN[:, 1]  # exact negation where the sign is -1
    e1, e2 = PRODUCT_RIGHT.T
    t1a, t1b = c1 * lo[..., e1], c1 * hi[..., e1]
    t2a, t2b = c2 * lo[..., e2], c2 * hi[..., e2]
    return np.minimum(t1a, t1b) + np.minimum(t2a, t2b), np.maximum(t1a, t1b) + np.maximum(t2a, t2b)


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
    # rows: entries (w11, w12, w21, w22) of P*S as maps of (s11, s12, s21, s22)
    carrier = np.zeros(p.shape + (4,))
    carrier[..., np.arange(4)[:, None], PRODUCT_RIGHT] = p[..., PRODUCT_LEFT] * PRODUCT_SIGN
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


def leaf_chunk_width(k: int) -> int:
    """Columns per chunk for an (L, 4, k) table: k, or LEAF_CHUNK_COLUMNS if k is wider.

    The solver's blocks of 8 or more wavelengths are then scored and
    screened in one chunk: cutting them to an L2-sized budget of entries
    cost more per block than the cache misses it saved.
    LEAF_CHUNK_COLUMNS is a multiple of 64, which keeps every chunk on the
    SIMD alignment the whole block has in BLAS (see _leaf_chunks).
    """
    return min(k, LEAF_CHUNK_COLUMNS)


@functools.lru_cache(maxsize=64)
def _leaf_chunks(k: int, width: int) -> tuple[tuple[slice, int], ...]:
    """(columns, count) chunks of `width` covering ``range(k)``.

    `width` is at least k or a multiple of 64 from 128.  Every chunk starts
    at a multiple of 64, so it keeps the SIMD alignment the whole block has
    in BLAS.  A lone last column joins the 63 before it:
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


def _gamma(n: int, u: float) -> float:
    return n * u / (1 - n * u)


_U32, _U64 = 2.0**-24, 2.0**-53
#: The screen runs only while every prefix and table entry, a and |b| are
#: below this, so float32 terms stay below 2^51 and their squares below 2^103.
_SCREEN_LIMIT = 2.0**16
#: Largest T/ρ (see DenominatorScreen.margins) for which the float32 terms
#: err by at most 2^-10 of √D.
_Z_CAP = 2.0**-10 / _gamma(7, _U32)
#: Largest residual of a layer choice's fit that _layer_indices accepts, and
#: the η = κ it certifies for DenominatorScreen.margins.
_FIT_TOL, _FIT_BOUND = 2.0**-44, 2.0**-43


def _layer_indices(layer: np.ndarray, materials: Sequence) -> np.ndarray | None:
    """Index n of each material of a one-wavelength (m, 4) layer array; None if a choice is no layer.

    A layer of index n and phase δ is cos δ·I + sin δ·B_n, B_n = (0, 1/n,
    n, 0).  A material's n is sqrt(y/x) at its choice (c, x, y, d) of
    largest |x y|, or 1 when x = y = 0 on all its choices.  A choice passes
    when c = d and, with s = fl(y/n), |fl(x - fl(s/n))| <= 2^-44 |x| and
    |fl(c² + s²) - 1| <= 2^-44.  Then it is c·I + (y/n)·B_n + (0, e, 0, 0)
    with |e| <= η|x| and c² + (y/n)² <= 1 + κ, η = κ = 2^-43: the rounding
    of s, s/n, c², s² and the sums takes at most 4u of the slack.
    `materials` names the material of each choice, in `layer` order.  A
    layer folded with a fixed matrix fails, and its table keeps the column
    screen.
    """
    c, x, y, d = layer.T
    names, kind = np.unique(np.asarray(materials), return_inverse=True)
    n = np.ones(len(names))
    for g in range(len(names)):
        choices = np.flatnonzero(kind == g)
        j = choices[np.argmax(np.abs(x[choices] * y[choices]))]
        if x[j] * y[j] > 0:
            n[g] = np.sqrt(y[j] / x[j])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = y / n[kind]
        fits = ((c == d) & (np.abs(x - s / n[kind]) <= _FIT_TOL * np.abs(x))
                & (np.abs(c * c + s * s - 1) <= _FIT_TOL))
    return n if fits.all() and np.isfinite(n).all() else None


class DenominatorScreen:
    """Upper bound on the float64 leaf scores of one suffix table, from denominators only.

    For W = P*S with terms (n1, n2, d1, d2) of R = N/D (reflectance_rows4),
    D - N = 4a det(W) exactly, where det(W) = w11 w22 + w12 w21 is
    multiplicative under mul4.  So R = 1 - 4a det(P) det(S)/D, and if
    0 < c <= det(P) det(S_k) on every column k, no weighted score of the
    block exceeds Σφ - min_k Σ_l 4 φ_l a_l c_l / D_l[k]; only the two
    denominator rows are needed.  Built once per (L, 4, K) table with
    c_l = det(P_l) min_k det(S_lk).  ``margins`` prepares all prefixes at the
    split at once; ``bound`` scores one of them.

    Column screen: ``bound`` computes every D_l[k] in float32, in chunks of
    the width of `work`.  The float32 pass runs in the first half of the
    caller's float64 work buffer, which it needs only between float64
    passes (the constructor also uses it as scratch).

    Ellipse screen, with one wavelength: the table was built as
    `head` (L, 4, K/m), the products of every tail layer but the last,
    times each of the m choices of the last layer `last` (m, L, 4), last
    layer fastest, and `materials` names each choice's material.  When
    every choice is cos δ·I + sin δ·B_n with its material's n
    (_layer_indices), mul4's bilinearity makes each column T*M of the
    table cos δ·T + sin δ·(T*B_n) for its head column T.  With R the den
    rows of P, u = R T and v = R (T*B_n), the den terms of P*T*M are
    cos δ·u + sin δ·v, so over the unit circle D is at most the larger
    eigenvalue of the Gram matrix of u and v, λ = p + sqrt(p² - (u1 v2 -
    u2 v1)²) with p = (|u|² + |v|²)/2.  That is σ², σ the largest
    singular value of [u v]: with U = u1 + i u2 and V = v1 + i v2,
    cos δ U + sin δ V = (e^{iδ} (U - iV) + e^{-iδ} (U + iV))/2, so
    σ = (|w+| + |w-|)/2 with w± = (u1 ± v2, u2 ∓ v1), free of the
    cancellation in p² - (u1 v2 - u2 v1)².  Each of the four coordinates
    of w± is a fixed row times T, so ``bound`` gets them for every head
    column and material from one float64 matmul, and puts the largest σ²
    for the largest D over the columns: on mo_410_n6, 4,056 head columns
    for 97,344 columns, and no float32 copy of the table.  A table of
    several wavelengths, or a last layer that fails the check, keeps the
    column screen.
    """

    def __init__(
        self,
        suffix: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        phi: np.ndarray,
        work: np.ndarray,
        head: np.ndarray | None = None,
        last: np.ndarray | None = None,
        materials: Sequence = (),
    ) -> None:
        n_wl, _, k = suffix.shape
        self.n_wl, self.k, self.phi, self.head = n_wl, k, phi, None
        smax = np.maximum(suffix.max(axis=2), -suffix.min(axis=2))  # no |suffix| temporary
        det_min, spread = np.full(n_wl, np.inf), np.zeros(n_wl)
        for cols, count in _leaf_chunks(k, work.shape[2]):
            x, y, det = work[:, 0, :count], work[:, 1, :count], work[:, 2, :count]
            np.multiply(suffix[:, 0, cols], suffix[:, 3, cols], out=x)
            np.multiply(suffix[:, 1, cols], suffix[:, 2, cols], out=y)
            det_min = np.minimum(det_min, np.add(x, y, out=det).min(axis=1))
            both = np.add(np.abs(x, out=x), np.abs(y, out=y), out=x)
            spread = np.maximum(spread, both.max(axis=1))
        limits = (det_min > 0) & (a > 0) & (a < _SCREEN_LIMIT) & (np.abs(b) < _SCREEN_LIMIT)
        self.usable = bool(smax.max() < _SCREEN_LIMIT and limits.all() and np.all(phi >= 0) and phi.sum() <= 2)
        if not self.usable:
            return
        self.det_min = det_min
        self.eps_table = _gamma(3, _U64) * spread / det_min + _U64
        # rows are linear in P: P @ den_map (L, 4, 8) gives the (d1, d2) rows of
        # reflectance_rows4, |P| @ scale (L, 4, 2) the (T_d1, T_d2) of margins step 2
        unit = reflectance_rows4(np.eye(4)[:, None], a, b)[:, :, 2:]  # the rows of P = e_i
        self.den_map = unit.reshape(4, n_wl, 8).swapaxes(0, 1)
        self.scale = (np.abs(self.den_map).reshape(n_wl, 4, 2, 4) @ smax[:, None, :, None])[..., 0]
        self.four_a, self.h_scale = 4 * a, 4 * phi * a
        self.phi_sum = float(phi.sum())
        n = _layer_indices(last[:, 0], materials) if n_wl == 1 and head is not None else None
        if n is not None:
            self.head = self._ellipses(head[0], last[:, 0], n)
        if self.head is not None:
            # δ = ((k_z z + 2.014 z_e + 1.007 εc) @ φ + k_sum)(1 + 2^-20), see margins
            self.k_z = 4.02 * _gamma(8, _U64)
            k_0 = (5.4 * _U64 + 1.001 * _gamma(1, _U64) + 7 * _gamma(4, _U64) + 2.0**-60
                   + 1.007 * (_FIT_BOUND + 3 * _gamma(3, _U64) + _gamma(4, _U64)))
            self.k_sum = k_0 * self.phi_sum + 2.0**-60
            return
        # δ = ((k_z z + 1.007 εc) @ φ + k_sum)(1 + 2^-20), see margins
        self.k_z = 2.02 * _gamma(7, _U32) + 4.02 * _gamma(8, _U64)
        k_0 = (2.2 * _U32 + 1.007 * _gamma(n_wl + 3, _U32) + 5.4 * _U64
               + 1.001 * _gamma(n_wl, _U64) + 7 * _gamma(n_wl + 3, _U64) + 2.0**-60)
        self.k_sum = k_0 * self.phi_sum + n_wl * 2.0**-60
        self.suffix = suffix.astype(np.float32)
        width = work.shape[2]
        self.work = work.reshape(-1).view(np.float32)[: n_wl * 2 * width].reshape(n_wl, 2, width)
        self.q = np.empty(width, np.float32)

    def _ellipses(self, head: np.ndarray, layer: np.ndarray, n: np.ndarray) -> np.ndarray | None:
        """The (4, K/m) head columns for the ellipse screen, or None if their scales reach the limit.

        Sets ``lift`` (8, 16 G): the flat den rows (R1, R2) times it are the
        rows of (u1 + v2, u2 - v1, u1 - v2, u2 + v1) for each of the G
        materials, with v_i = R_i B' T and B' T = T*B_n.  And the
        ``ellipse_scale`` (1, 4, 6) that takes |P̂| to the spans of margins'
        step E: Ā Tmax, Ā TBmax and Ā TM, each for d1 and d2.
        """
        turns = np.zeros((len(n), 4, 4))  # turns[g] @ T = T*B_n, the carrier product
        turns[:, 0, 1], turns[:, 1, 0], turns[:, 2, 3], turns[:, 3, 2] = -n, 1 / n, n, -1 / n
        tmax = np.abs(head).max(axis=1)
        tm = (tmax[PRODUCT_LEFT] * np.abs(layer).max(axis=0)[PRODUCT_RIGHT]).sum(axis=1)
        spans = np.stack([tmax, (np.abs(turns) @ tmax).max(axis=0), tm], axis=1)  # (4, 3)
        if not spans.max() < _SCREEN_LIMIT:
            return None
        eye = np.eye(4)
        self.lift = np.concatenate([np.block([[eye, -t, eye, t], [t, eye, -t, eye]]) for t in turns], axis=1)
        self.moduli = np.empty((4 * len(n), head.shape[1]))
        self.ellipse_scale = (np.abs(self.den_map).reshape(1, 4, 2, 4) @ spans).swapaxes(-1, -2).reshape(1, 4, 6)
        return np.ascontiguousarray(head)

    def margins(self, prefixes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Den rows (..., L, 2, 4), weights h = 4 φ a c (..., L) and margins δ (...).

        For (..., L, 4) `prefixes`, δ bounds how far a float64 score of
        :func:`weighted_reflectance4` can exceed the bound Σφ - min_k Q̂_k of
        ``bound``, Q̂_k = fl(Σ_l h_l/D̂_l[k]) with float32 denominators D̂
        (column screen; the ellipse screen's steps follow these).
        Let u = 2^-53, v = 2^-24, γ_n(u) = nu/(1 - nu) (Higham, *Accuracy
        and Stability of Numerical Algorithms*, ch. 3; each operation rounds
        as op(1 + ε), |ε| <= u or v, with or without FMA).  Per wavelength,
        P̂ is the float64 prefix and, for a column S, the exact terms of
        W = P̂*S give N, D and R = N/D; smax_j = max_k |S_jk|.

        0. det.  fl(x11 x22 + x12 x21) errs by at most γ3(u) α̂,
           α̂ = fl(|x11 x22| + |x12 x21|).  With m̂ = min_k det̂(S_k),
           εS = γ3 max_k α̂(S_k)/m̂, εP = γ3 α̂(P̂)/det̂(P̂), c = fl(det̂(P̂) m̂)
           and εc = εP + εS + u, c* = c (1 - εc) <= det(P̂) det(S_k) on
           every column when det̂(P̂), m̂ > 0.
        1. D = N + 4a det(W) >= 4a c* = ρ².
        2. Terms.  The float64 rows (reflectance_rows4 or P̂ ``den_map``)
           err by γ4(u) Ā, Ā = |terms| |carrier| = |P̂| |den_map| on the
           den rows, and Ā smax gives T_n1 = T_d1 = t1 and T_n2 = T_d2 = t2
           (|P̂| ``scale``).  So the float64 kernel's terms
           (n̂1, n̂2) and (d̂1, d̂2) lie within g T, T = hypot(t1, t2), of
           the exact ones, with g = γ8(u); the screen's, from rows and table
           rounded to float32 and a float32 matmul, with g = γ7(v)
           (Higham, Lemma 3.3).  Let z = T/ρ and y = g z.
        3. Squares and sum (√D >= ρ, √N <= √D (1 + R)/2):
           |D̂ - D| <= e D, e = γ2 + (1 + γ2)(2y + y²), and
           |N̂ - N| <= (a0 + a1 R) D, a0 = (1 + γ2)(y + y²),
           a1 = γ2 + (1 + γ2) y.
        4. Kernel.  N̂/D̂ - R = (N̂ - N - R(D̂ - D))/D̂ and the rounded
           quotient give |R̂ - R| <= A + B R, A = (1 + u) a0/(1 - e),
           B = (1 + u)(a1 + e)/(1 - e) + u; with R <= 1 and the L-term φ
           sum, obj64 <= Σ φ_l R_l + Σ φ_l E_l, E = (1 + γL)(A + B) + γL.
        5. Bound.  D <= D̂/(1 - e) for the screen's e, and q = 4ac/D̂ <=
           1/((1 - εc)(1 - e)) since 4ac* <= D, so
           R <= 1 - 4ac*/D <= 1 - q + (εc + e)/((1 - εc)(1 - e)).
        6. Screen arithmetic.  h (γ2(u), then rounded to float32), the
           reciprocal or quotient, the product and the (L - 1)-term sum put
           Q̂_k within γ_{L+3}(v) Σ φ_l q_l of Σ φ_l q_l.
        7. So obj64[k] <= Σφ - Q̂_k + Σ φ_l F_l, F = E + (εc + e +
           γ_{L+3}(v))/((1 - εc)(1 - e)).  With εc <= 2^-9 and z <= _Z_CAP
           (the screen's y <= 2^-10), the screen's e <= 2.005 γ7(v) z + 2.1v
           and the kernel's E <= 4.02 γ8(u) z + 5.4u + 1.001 γL(u), so
           F <= k_z z + 1.007 εc + k_0 with the constants of __init__.  The
           final fl(fl(Σφ) - Q̂) and the addition of δ err by at most
           7 γ_{L+3}(u) Σφ.  Underflow adds at most 2^-60 per wavelength,
           both to F and to the sum: entries below 2^16 and ρ² >= 2^-40
           keep every underflow error under 2^-100 of √D.

        δ = (Σ φ_l (k_z z_l + 1.007 εc_l + k_0) + 7 γ_{L+3}(u) Σφ
        + L 2^-60)(1 + 2^-20); the last factor covers the float64
        evaluation of δ itself and of its scales, sums of products of
        positive terms.  δ is inf when a step does not apply: a_l <= 0,
        c_l <= 0, εc > 2^-9, z > _Z_CAP, ρ² < 2^-40 (no usable lower bound
        on the denominator), an entry at or past the limit, or a non-finite
        result.

        Ellipse screen (L = 1).  The den rows stay float64 and are lifted:
        rows (4G, 4) give (u1 + v2, u2 - v1, u1 - v2, u2 + v1) of each
        material (see _ellipses), so ``bound`` gets w± of every group from
        one matmul with the head table and takes λ̂ = fl(ŝ²/4) for the
        largest ŝ = fl(|ŵ+| + |ŵ-|).  Steps 0-4 stand; step 5 needs
        D_k <= λ̂/(1 - e) on every column k of a group, with this e:

        E1. Table.  Column k is S = fl(T*M), |S - T*M| <= γ2(u) |T|*|M|
            (products of absolute values), and the checked choice is
            M = c·I + s·B_n + E with |E| <= η|M| and c² + s² <= 1 + κ
            (_layer_indices).  With exact rows R of P̂ (|R| <= Ā) and
            A = R [T, T*B_n], R S = A (c, s) + R (T*E + S - T*M), so
            √D = |R S| <= sqrt(1 + κ) ||A||_2 + (η + γ2(u)) TS, where
            TS = hypot(Ā TM) and TM = Tmax*Mmax bounds |T|*|M| entrywise
            (Tmax, Mmax: the largest |entries| of the head and the layer).
        E2. Lifted rows.  ||A||_2 = (|w+| + |w-|)/2 for the exact w± of A.
            The screen's coordinates carry the γ4(u) of R̂, u for the fl(1/n)
            in B', γ2(u) for the lift's one product and sum, and γ4(u) for
            the matmul: |â - a| <= γ12(u) (Ā1 Tmax + Ā2 TBmax) for a = u1 ±
            v2, and with Ā1, Ā2 (the d1 and d2 rows of Ā) swapped for
            u2 ∓ v1, TBmax the largest |T*B_n| entrywise.  So (|ŵ+ - w+| + |ŵ- - w-|)/2 <= sqrt(2)
            γ12(u) TA, TA the Frobenius norm of Ā [Tmax, TBmax].
        E3. Moduli.  fl(sqrt(fl(a² + b²))) is within γ2(u) of |w| and the
            sum within γ3(u), so |ŵ+| + |ŵ-| <= ŝ/(1 - γ3(u)), and
            (ŝ/2)² <= λ̂/(1 - u): ||A||_2 <= sqrt(λ̂ (1 + γλ)) + 1.415 γ12(u)
            TA with 1 + γλ = 1/((1 - u)(1 - γ3(u))²), γλ = 3 γ3(u).
        E4. So √D <= sqrt((1 + κ)(1 + γλ) λ̂) + y', y' = 1.416 γ12(u) TA +
            (η + γ2(u)) TS.  With √D >= ρ and z_e = y'/ρ, √D (1 - z_e)
            <= √D - y', so D <= λ̂/(1 - e) with e = κ + γλ + 2 z_e.
        E5. Step 6 runs in float64: h (γ2(u)) and the quotient put Q̂
            within γ3(u) φq of φq.
        E6. With εc <= 2^-9, z <= _Z_CAP and z_e <= 2^-11, step 7 gives
            F <= E + 1.007 (εc + e + γ4(u)) <= k_z z + 2.014 z_e + 1.007 εc
            + k_0, with k_z = 4.02 γ8(u) and k_0 = 5.4u + 1.001 γ1(u) +
            1.007 (κ + γλ + γ4(u)) + 7 γ4(u) + 2^-60 in __init__; Tmax,
            TBmax and TM below 2^16 keep step 7's underflow bound.

        So δ = (φ (k_z z + 2.014 z_e + 1.007 εc + k_0) + 2^-60)(1 + 2^-20),
        and δ is inf also when z_e > 2^-11.
        """
        if not self.usable:
            zero = np.broadcast_to(np.float32(0), prefixes.shape[:-1] + (2, 4))
            return zero, zero[..., 0, 0], np.full(prefixes.shape[:-2], np.inf)
        absp = np.abs(prefixes)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x, y = prefixes[..., 0] * prefixes[..., 3], prefixes[..., 1] * prefixes[..., 2]
            det = x + y
            c = det * self.det_min
            # det <= 0 makes eps or rho2 fail its test below (nan fails too)
            eps = (np.abs(x) + np.abs(y)) * _gamma(3, _U64) / det + self.eps_table
            rho2 = self.four_a * c * (1 - eps)
            t = np.square(absp[..., None, :] @ self.scale)
            z2 = (t[..., 0, 0] + t[..., 0, 1]) / rho2
            ok = (eps <= 2.0**-9) & (z2 <= _Z_CAP**2) & (rho2 >= 2.0**-40)
            terms = self.k_z * np.sqrt(z2) + 1.007 * eps
            rows = (prefixes[..., None, :] @ self.den_map).reshape(*prefixes.shape[:-1], 2, 4)
            if self.head is None:
                h, rows = (self.h_scale * c).astype(np.float32), rows.astype(np.float32)
            else:
                spans = np.square(absp[..., None, :] @ self.ellipse_scale)[..., 0, :]  # TA², then TS²
                z_e = (1.416 * _gamma(12, _U64) * np.sqrt(spans[..., :4].sum(axis=-1))
                       + (_FIT_BOUND + _gamma(2, _U64)) * np.sqrt(spans[..., 4:].sum(axis=-1))) / np.sqrt(rho2)
                ok &= z_e <= 2.0**-11
                terms += 2.014 * z_e
                h = self.h_scale * c
                rows = (rows.reshape(*rows.shape[:-2], 1, 8) @ self.lift).reshape(*rows.shape[:-2], -1, 4)
            ok = ok.all(axis=-1) & (absp.max(axis=(-2, -1)) < _SCREEN_LIMIT)
            delta = (terms @ self.phi + self.k_sum) * (1 + 2.0**-20)
        return rows, h, np.where(ok, delta, np.inf)

    def bound(self, den_rows: np.ndarray, h: np.ndarray, delta: float) -> float:
        """Σφ - min_k Σ_l h_l / D̂_l[k] + δ for one prefix, or inf when δ is.

        `den_rows`, `h` and δ are one prefix's entries of ``margins``.  The
        ellipse screen puts λ̂, the largest σ² of its groups, for max_k D̂[k].  No
        score :func:`weighted_reflectance4` gives for that prefix exceeds
        the result.
        """
        if not delta < np.inf:
            return np.inf
        if self.head is not None:
            return self.phi_sum - float(h[0]) / self._largest_ellipse(den_rows[0]) + float(delta)
        low = np.inf
        for cols, count in _leaf_chunks(self.k, self.work.shape[2]):
            terms = self.work[:, :, :count]
            np.matmul(den_rows, self.suffix[:, :, cols], out=terms)
            np.square(terms, out=terms)
            den = np.add(terms[:, 0], terms[:, 1], out=terms[:, 0])
            if self.n_wl == 1:  # the score falls as D grows: one maximum, one division
                low = min(low, float(h[0]) / float(den.max()))
            else:
                weighted = np.matmul(h, np.reciprocal(den, out=den), out=self.q[:count])
                low = min(low, float(weighted.min()))
        return self.phi_sum - low + float(delta)

    def _largest_ellipse(self, rows: np.ndarray) -> float:
        """λ̂ = fl(ŝ²/4) for the largest ŝ = |ŵ+| + |ŵ-| of the head columns and materials.

        `rows` (4G, 4) are one prefix's lifted den rows from ``margins``.
        """
        w = np.matmul(rows, self.head, out=self.moduli)  # rows of (u1 + v2, u2 - v1, u1 - v2, u2 + v1) per material
        np.square(w, out=w)
        moduli = np.sqrt(np.add(w[0::2], w[1::2], out=w[0::2]), out=w[0::2])  # |w+|, |w-|
        s = float(np.add(moduli[0::2], moduli[1::2], out=moduli[0::2]).max())
        return 0.25 * s * s
