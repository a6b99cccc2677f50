"""Vectorized search kernels against the scalar carrier API they replace."""
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmopt import bounds, optics, solver
from filmopt.arrayops import (
    LeafScreen,
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
def test_separable_box_max_equals_sixteen_corner_oracle(lo, w, sub):
    lo = np.array(lo)
    hi = lo + np.array(w)
    want = bounds.max_denominator_over_box(lo, hi, sub)
    got = box_max_denominator4(lo, hi, sub.re, sub.im)
    assert abs(got - want) <= RTOL * want


@settings(max_examples=300, deadline=None)
@given(entries4, entries4, widths4)
def test_interval_product_equals_scalar(p, lo, w):
    lo = np.array(lo)
    hi = lo + np.array(w)
    want_lo, want_hi = bounds.interval_product_box(StructuredMatrix(*p), lo, hi)
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


@pytest.mark.parametrize("k", [1, 3, 63, 1023, 16385])
def test_chunked_leaf_kernel_is_bit_identical(k):
    rng = np.random.default_rng(k)
    for n_wl in (1, 3):
        rows = reflectance_rows4(rng.uniform(-2, 2, size=(n_wl, 4)),
                                 rng.uniform(1, 4, n_wl), rng.uniform(0, 6, n_wl))
        table = rng.uniform(-3, 3, size=(n_wl, 4, k))
        phi = rng.random(n_wl) / n_wl
        want = weighted_reflectance4(rows, table, phi, np.empty_like(table), np.empty(k))
        for width in (128, 1024, leaf_chunk_width(n_wl, k)):
            got = weighted_reflectance4(rows, table, phi, np.empty((n_wl, 4, width)), np.empty(k))
            assert got.tobytes() == want.tobytes()


def _float32_pass(rows, table, phi):
    """obj32 over every column, and each wavelength's smallest float32 denominator."""
    rows32, table32 = rows.astype(np.float32), table.astype(np.float32)
    terms = rows32 @ table32
    den = terms[:, 2] * terms[:, 2] + terms[:, 3] * terms[:, 3]
    obj32 = weighted_reflectance4(rows32, table32, phi.astype(np.float32),
                                  np.empty_like(table32), np.empty(table.shape[2], np.float32))
    return obj32.astype(float), den.min(axis=1).tolist()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 300),
       st.floats(-2.0, 4.0), st.sampled_from([0.0, 0.3, 1.0]))
def test_screen_margin_bounds_float32_error(seed, n_wl, k, log_scale, vanishing):
    """δ covers |obj32 - obj64|, also for large entries and numerators near zero."""
    rng = np.random.default_rng(seed)
    p = rng.uniform(-3, 3, size=(n_wl, 4)) * 10 ** rng.uniform(-1, 2)
    rows = reflectance_rows4(p, rng.uniform(0.2, 6, n_wl), rng.uniform(0, 8, n_wl))
    table = rng.uniform(-1, 1, size=(n_wl, 4, k))
    picked = rng.random(k) < vanishing
    for li in range(n_wl):  # columns near the null space of the numerator rows
        null = np.linalg.svd(rows[li, :2])[2][2:]
        table[li][:, picked] = null.T @ rng.uniform(-1, 1, (2, picked.sum())) \
            + 1e-9 * rng.uniform(-1, 1, (4, picked.sum()))
    table *= 10**log_scale
    phi = rng.random(n_wl) + 0.01
    phi /= phi.sum()
    obj64 = weighted_reflectance4(rows, table, phi, np.empty_like(table), np.empty(k))
    obj32, dmin = _float32_pass(rows, table, phi)
    screen = LeafScreen(table, phi, np.empty_like(table))
    assert screen.margin(rows, dmin, float(obj32.max())) >= np.abs(obj32 - obj64).max()
    assert screen.bound(rows) >= obj64.max()


def test_screen_margin_is_small_on_a_real_table(data_tables):
    cat = build_catalog(single_wavelength_config("Molybdenum", 410.0, layers=4), data_tables)
    table = solver._suffix_table(cat.layer_matrices[1:])
    a = np.array([s.re for s in cat.substrate_indices])
    b = np.array([s.im for s in cat.substrate_indices])
    phi = np.array(cat.spectrum.weights)
    screen = LeafScreen(table, phi, np.empty_like(table))
    for j in range(cat.layer_matrices[0].shape[0]):
        rows = reflectance_rows4(cat.layer_matrices[0][j], a, b)
        obj64 = weighted_reflectance4(rows, table, phi, np.empty_like(table), np.empty(table.shape[2]))
        bound = screen.bound(rows)
        assert obj64.max() <= bound <= obj64.max() + 1e-4


@pytest.mark.parametrize("seed", range(6))
def test_suffix_table_columns_are_tail_products(seed):
    cat, prefix, tails, _, table = _random_instance(seed)
    mats = cat.layer_matrices
    got = solver._suffix_table(mats[len(prefix):])
    np.testing.assert_allclose(got, table, rtol=0, atol=1e-13)
