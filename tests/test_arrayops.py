"""Vectorized search kernels against the scalar carrier API they replace."""
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filmopt import optics, solver
from filmopt.arrayops import (
    PRODUCT_LEFT,
    PRODUCT_RIGHT,
    PRODUCT_SIGN,
    DenominatorScreen,
    box_max_denominator4,
    denominator4,
    interval_product4,
    leaf_chunk_width,
    mul4,
    reflectance4,
    reflectance_rows4,
    weighted_reflectance4,
)
from filmopt.materials import build_catalog
from filmopt.optics import ComplexIndex, StructuredMatrix

from conftest import random_catalog, single_wavelength_config
from oracles import interval_product_box, max_denominator_over_box

RTOL = 1e-12

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
width = st.floats(min_value=0.0, max_value=20.0)
entries4 = st.tuples(finite, finite, finite, finite)
widths4 = st.tuples(width, width, width, width)
substrate = st.builds(
    ComplexIndex,
    st.floats(min_value=0.2, max_value=6.0),
    st.floats(min_value=0.0, max_value=8.0),
)


@settings(max_examples=300, deadline=None)
@given(entries4, widths4, substrate)
@example((2.5, 6.5, 10.5, -0.25), (0.0, 0.0, 0.0, 0.0), ComplexIndex(4.7, 5.4))
@example((-3.25, 7.0, -4.25, -7.75), (1e-9, 1e-9, 1e-9, 1e-9), ComplexIndex(5.7, 6.6))
@example((-9.0, -1.75, -8.5, -4.5), (1e-9, 1e-9, 0.0, 3.75), ComplexIndex(5.8, 1.5))
@example((-1.75, -8.75, -11.75, -9.0), (15.25, 9.0, 0.0, 1.0), ComplexIndex(3.4, 6.7))
def test_separable_box_max_equals_sixteen_corner_oracle(lo, w, sub):
    lo = np.array(lo)
    hi = lo + np.array(w)
    want = max_denominator_over_box(lo, hi, sub)
    assert box_max_denominator4(lo, hi, sub.re, sub.im) == want


@settings(max_examples=300, deadline=None)
@given(entries4, entries4, widths4)
def test_interval_product_equals_scalar(p, lo, w):
    lo = np.array(lo)
    hi = lo + np.array(w)
    want_lo, want_hi = interval_product_box(StructuredMatrix(*p), lo, hi)
    got_lo, got_hi = interval_product4(np.array(p), lo, hi)
    assert np.array_equal(got_lo, want_lo)
    assert np.array_equal(got_hi, want_hi)


def test_scalar_oracles_equal_kernels_bit_for_bit():
    # A float ** 2 rounds differently from u * u for about 0.08% of inputs.
    rng = np.random.default_rng(5)
    w = rng.uniform(-1e4, 1e4, size=(50_000, 4))
    a, b = rng.uniform(0.2, 6.0, size=50_000), rng.uniform(0.0, 8.0, size=50_000)
    pairs = [(StructuredMatrix(*row), ComplexIndex(n, k))
             for row, n, k in zip(w.tolist(), a.tolist(), b.tolist())]
    assert denominator4(w, a, b).tolist() == [optics.denominator_D(m, s) for m, s in pairs]
    assert reflectance4(w, a, b).tolist() == [optics.reflectance(m, s) for m, s in pairs]


def test_batched_kernels_match_row_by_row():
    rng = np.random.default_rng(3)
    p = rng.uniform(-5, 5, size=(6, 3, 4))
    lo = rng.uniform(-5, 5, size=(3, 4))
    hi = lo + rng.uniform(0, 4, size=(3, 4))
    a, b = rng.uniform(0.5, 4, size=3), rng.uniform(0, 6, size=3)
    got_lo, got_hi = interval_product4(p, lo, hi)
    dmax = box_max_denominator4(got_lo, got_hi, a, b)
    for i in range(6):
        for li in range(3):
            want_lo, want_hi = interval_product4(p[i, li], lo[li], hi[li])
            assert np.array_equal(got_lo[i, li], want_lo)
            assert np.array_equal(got_hi[i, li], want_hi)
            assert dmax[i, li] == box_max_denominator4(want_lo, want_hi, a[li], b[li])


def test_product_table_equals_mul4_bit_for_bit():
    rng = np.random.default_rng(9)
    a, b = rng.normal(size=(2, 50, 40, 4))
    for m in (a, b):  # signed zeros: the table's sums must round to mul4's zeros, sign included
        m[rng.random(m.shape) < 0.2] = 0.0
        m[rng.random(m.shape) < 0.2] = -0.0
    (l0, l1), (r0, r1), (s0, s1) = PRODUCT_LEFT.T, PRODUCT_RIGHT.T, PRODUCT_SIGN.T
    assert np.all(s0 == 1.0)
    table = a[..., l0] * b[..., r0] + s1 * a[..., l1] * b[..., r1]
    assert table.tobytes() == mul4(a, b).tobytes()


def _random_instance(seed):
    """Catalog, a prefix design, and the (L, 4, K) table of every tail design."""
    cat, _ = random_catalog(random.Random(seed), max_layers=4, max_choices=6)
    rng = random.Random(seed)
    split = rng.randint(0, cat.n_layers - 1)
    prefix = tuple(rng.choice(cat.choices_at(n)) for n in range(1, split + 1))
    tails = list(itertools.product(
        *[cat.choices_at(n) for n in range(split + 1, cat.n_layers + 1)]))
    wls = cat.spectrum.wavelengths
    p = np.array([
        optics.chain_product([cat.matrix(m, t, wl) for m, t in prefix]).entries()
        for wl in wls
    ])
    table = np.array([
        [optics.chain_product([cat.matrix(m, t, wl) for m, t in tail]).entries()
         for tail in tails]
        for wl in wls
    ]).transpose(0, 2, 1).copy()
    return cat, prefix, tails, p, table


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gemm_leaf_objective_matches_mul4_reflectance4_and_evaluate_design(seed):
    cat, prefix, tails, p, table = _random_instance(seed)
    a = np.array([s.re for s in cat.substrate_indices])
    b = np.array([s.im for s in cat.substrate_indices])
    phi = np.array(cat.spectrum.weights)
    work = np.empty_like(table)
    got = weighted_reflectance4(
        reflectance_rows4(p, a, b), table, phi, work, np.empty(table.shape[2]))
    kernels = reflectance4(mul4(p[None], table.transpose(2, 0, 1)), a, b) @ phi
    np.testing.assert_allclose(got, kernels, rtol=RTOL, atol=0)
    for k, tail in enumerate(tails):
        _, avg = solver.evaluate_design(prefix + tail, cat)
        assert abs(got[k] - avg) <= RTOL * avg


def test_leaf_kernel_allocates_no_work_arrays():
    rng = np.random.default_rng(7)
    n_wl, k = 5, 4096
    table = rng.uniform(-2, 2, size=(n_wl, 4, k))
    rows = reflectance_rows4(rng.uniform(-2, 2, size=(n_wl, 4)),
                             rng.uniform(1, 4, n_wl), rng.uniform(0, 6, n_wl))
    phi = np.full(n_wl, 1 / n_wl)
    work, out = np.empty_like(table), np.empty(k)
    weighted_reflectance4(rows, table, phi, work, out)
    tracemalloc.start()
    try:
        weighted_reflectance4(rows, table, phi, work, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * 8  # far below one (K,) array, let alone an (L, K) temporary


@pytest.mark.parametrize("k", [1, 3, 63, 1023, 16385, 32769])
def test_chunked_leaf_kernel_is_bit_identical(k):
    # leaf_chunk_width cuts 32,769 columns into 32,704 and 65: the lone last column joins the 63 before it
    rng = np.random.default_rng(k)
    for n_wl in (1, 3):
        rows = reflectance_rows4(rng.uniform(-2, 2, size=(n_wl, 4)),
                                 rng.uniform(1, 4, n_wl), rng.uniform(0, 6, n_wl))
        table = rng.uniform(-3, 3, size=(n_wl, 4, k))
        phi = rng.random(n_wl) / n_wl
        want = weighted_reflectance4(rows, table, phi, np.empty_like(table), np.empty(k))
        for width in (128, 1024, leaf_chunk_width(k)):
            got = weighted_reflectance4(rows, table, phi, np.empty((n_wl, 4, width)), np.empty(k))
            assert got.tobytes() == want.tobytes()


def _screen_and_kernel(p, table, a, b, phi, width=None):
    """The screen's bound and the float64 kernel's largest score for prefix `p` (L, 4)."""
    n_wl, _, k = table.shape
    work = np.empty((n_wl, 4, width or k))
    screen = DenominatorScreen(table, a, b, phi, work)
    den_rows, h, delta = screen.margins(p[None])
    bound = screen.bound(den_rows[0], h[0], delta[0])
    obj64 = weighted_reflectance4(reflectance_rows4(p, a, b), table, phi, work, np.empty(k))
    return bound, float(obj64.max())


def _with_det(rng, det, count):
    """(4, count) carrier matrices with random entries and the given det = x11 x22 + x12 x21."""
    x11, x12, x21 = rng.uniform(0.5, 2, count) * rng.choice([-1, 1], count), *rng.uniform(-2, 2, (2, count))
    return np.array([x11, x12, x21, (det - x12 * x21) / x11])


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 300), st.floats(-2.0, 7.8),
       st.floats(-6.0, 3.0), st.booleans(), st.sampled_from([0.0, 0.3, 1.0]),
       st.sampled_from([None, 128]))
@example(0, 1, 300, 7.6, 0.0, False, 0.0, 128)  # entries near the 2^16 limit
@example(1, 3, 200, 0.0, -6.0, True, 0.0, None)  # det near zero: tiny denominators
def test_screen_bound_tops_the_float64_kernel(seed, n_wl, k, log_scale, log_det, spread,
                                               vanishing, width):
    """bound >= max obj64 for dets far from 1 and near 0, large entries and numerators near zero."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.05, 6, n_wl), rng.uniform(-1, 8, n_wl)
    det = 10**log_det * (rng.uniform(1, 10, (n_wl, k)) if spread else np.ones((n_wl, k)))
    table = np.stack([_with_det(rng, d, k) for d in det])
    p = np.stack([_with_det(rng, rng.uniform(0.5, 2), 1)[:, 0] for _ in range(n_wl)])
    rows = reflectance_rows4(p, a, b)
    picked = rng.random(k) < vanishing
    for li in range(n_wl):  # columns near the null space of the numerator rows
        null = np.linalg.svd(rows[li, :2])[2][2:]
        table[li][:, picked] = null.T @ rng.uniform(-1, 1, (2, picked.sum())) \
            + 1e-9 * rng.uniform(-1, 1, (4, picked.sum()))
    scale = 10 ** (log_scale / 2)  # the products scale by 10^log_scale
    table *= scale
    p *= scale
    phi = rng.random(n_wl) + 0.01
    phi /= phi.sum()
    bound, top = _screen_and_kernel(p, table, a, b, phi, width if width and width < k else None)
    assert bound >= top


def test_screen_bound_is_finite_and_tight_when_dets_are_equal():
    """With det(S) the same on every column the bound is the block max plus δ."""
    rng = np.random.default_rng(11)
    gaps = []
    for _ in range(200):
        n_wl, k = rng.integers(1, 5), rng.integers(1, 400)
        table = np.stack([_with_det(rng, 1.0, k) for _ in range(n_wl)])
        p = np.stack([_with_det(rng, 1.0, 1)[:, 0] for _ in range(n_wl)])
        phi = np.full(n_wl, 1 / n_wl)
        bound, top = _screen_and_kernel(p, table, rng.uniform(0.5, 6, n_wl),
                                        rng.uniform(0, 8, n_wl), phi)
        gaps.append(bound - top)
    assert min(gaps) >= 0 and max(gaps) < 1e-3


@pytest.mark.parametrize("case", ["a-zero", "a-negative", "prefix-det-zero", "prefix-det-negative",
                                  "table-det-negative", "entry-at-limit"])
def test_screen_returns_inf_where_the_bound_does_not_apply(case):
    rng = np.random.default_rng(2)
    table = np.stack([_with_det(rng, 1.0, 50) for _ in range(2)])
    p = np.stack([_with_det(rng, 1.0, 1)[:, 0] for _ in range(2)])
    a, b, phi = np.array([2.0, 3.0]), np.array([1.0, 4.0]), np.array([0.5, 0.5])
    if case.startswith("a-"):
        a[1] = 0.0 if case == "a-zero" else -1.0
    elif case == "prefix-det-zero":
        p[0] = [1.0, 1.0, -1.0, 1.0]
    elif case == "prefix-det-negative":
        p[1] = [1.0, 2.0, -1.0, 1.0]
    elif case == "table-det-negative":
        table[0, :, 7] = [1.0, 2.0, -1.0, 1.0]
    else:
        p[0] *= 2.0**16 / np.abs(p[0]).max()
    bound, top = _screen_and_kernel(p, table, a, b, phi)
    assert bound == np.inf


def test_screen_margin_is_small_on_a_real_table(data_tables):
    cat = build_catalog(single_wavelength_config("Molybdenum", 410.0, layers=4), data_tables)
    table = solver._suffix_table(cat.layer_matrices[1:])
    a = np.array([s.re for s in cat.substrate_indices])
    b = np.array([s.im for s in cat.substrate_indices])
    phi = np.array(cat.spectrum.weights)
    for prefix in cat.layer_matrices[0]:
        bound, top = _screen_and_kernel(prefix, table, a, b, phi)
        assert top <= bound <= top + 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_suffix_table_columns_are_tail_products(seed):
    cat, prefix, tails, _, table = _random_instance(seed)
    mats = cat.layer_matrices
    got = solver._suffix_table(mats[len(prefix):])
    np.testing.assert_allclose(got, table, rtol=0, atol=1e-13)
