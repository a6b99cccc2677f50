import dataclasses
import functools
import math
import random
import tracemalloc
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

from filmopt import bounds, materials, optics, relax
from filmopt.arrayops import ENTRY_ORDER, denominator4, plane_values
from filmopt.errors import (
    EmptyCandidateSet,
    InconsistentBounds,
    NoValidHyperplane,
    SingularSystem,
)
from filmopt.optics import ComplexIndex
from filmopt.relax import (
    Box4,
    collect_candidates,
    constant_overapproximator,
    extreme_points_2d,
    fit_hyperplane,
    generate_overapproximators,
    hyperplanes_for_catalog,
)

import oracles
from conftest import SUBSTRATES, denominator_on_x, enumerate_designs, random_catalog

TOL = 1e-9
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
interval = st.tuples(st.floats(-3.0, 2.0), st.floats(0.0, 4.0))
#: (lower, width) per coordinate.  24 candidates, the most any box searched
#: has yielded, as has the largest set of any wavelength on the bundled configs.
#: Pooled with another box's, they fill the largest subset table, 32 candidates.
MANY_CANDIDATES = [(-1.0, 2.0), (-2.0, 1.5), (-0.5, 2.5), (0.0, 2.5)]
#: x4 just wider than POINT_TOL, so it is not collapsed: slopes near 2e8.
THIN_SIDE = [(0.0, 1.0), (0.0, 2.0), (-1.0, 0.25), (-1.0, 2e-9)]


def points_close(got, want, tol=1e-9):
    got = sorted(got)
    want = sorted(want)
    return len(got) == len(want) and all(
        abs(a - c) <= tol and abs(b - d) <= tol for (a, b), (c, d) in zip(got, want)
    )


class TestExtremePoints2d:
    def test_two_orthant_polytope(self):
        got = extreme_points_2d((-3, 3), (-2, 2), 4.0)
        want = [(2, 2), (3, 4 / 3), (-2, -2), (-3, -4 / 3)]
        assert points_close(got, want, tol=0.0)

    def test_single_orthant_cone(self):
        got = extreme_points_2d((-1, 3), (-2, 4), 4.0)
        crossings = [(1.0, 4.0), (3.0, 4 / 3)]
        tangent = [(1.0, 8 / math.sqrt(3) - 4 / 3),
                   ((8 / math.sqrt(3) - 4 / 3) * 0.75, 4 / 3)]
        assert points_close(got, crossings + tangent, tol=1e-3)
        # tangency point itself satisfies the curve equation
        t1 = math.sqrt(3)
        assert t1 * (4.0 / t1) == pytest.approx(4.0)

    def test_tangent_line_below_curve_on_orthant(self):
        got = extreme_points_2d((-1, 3), (-2, 4), 4.0)
        tangent_pts = [p for p in got if abs(p[0] * p[1] - 4.0) > 1e-6]
        (x1, y1), (x2, y2) = tangent_pts
        for f in np.linspace(0, 1, 33):
            x = x1 + f * (x2 - x1)
            y = y1 + f * (y2 - y1)
            assert y <= 4.0 / x + 1e-12

    def test_curve_misses_box(self):
        assert extreme_points_2d((0, 1), (0, 1), 10.0) == []

    def test_negative_orthant_by_reflection(self):
        got = extreme_points_2d((-3, 1), (-4, 2), 4.0)
        mirrored = extreme_points_2d((-1, 3), (-2, 4), 4.0)
        assert points_close(sorted((-a, -b) for a, b in got), sorted(mirrored), tol=1e-12)

    def test_negative_beta_mixed_orthants(self):
        got = extreme_points_2d((-3, 3), (-2, 2), -4.0)
        want = [(-2, 2), (-3, 4 / 3), (2, -2), (3, -4 / 3)]
        assert points_close(got, want, tol=1e-12)

    def test_beta_zero_cross(self):
        got = extreme_points_2d((-1, 2), (-3, 5), 0.0)
        assert points_close(got, [(-1, 0), (2, 0), (0, -3), (0, 5)], tol=0.0)

    def test_beta_zero_axis_outside(self):
        got = extreme_points_2d((1, 2), (-3, 5), 0.0)
        assert points_close(got, [(1, 0), (2, 0)], tol=0.0)

    def test_points_lie_on_curve_and_in_box(self):
        rng = random.Random(4)
        for _ in range(200):
            lo1 = rng.uniform(-4, 3)
            hi1 = lo1 + rng.uniform(0.1, 4)
            lo2 = rng.uniform(-4, 3)
            hi2 = lo2 + rng.uniform(0.1, 4)
            beta = rng.uniform(-5, 5)
            pts = extreme_points_2d((lo1, hi1), (lo2, hi2), beta)
            for x, y in pts:
                assert lo1 - TOL <= x <= hi1 + TOL
                assert lo2 - TOL <= y <= hi2 + TOL


class TestCollectCandidates:
    def test_identity_point_box(self):
        box = Box4((1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0))
        assert collect_candidates(box).tolist() == [[1.0, 1.0, 0.0, 0.0]]

    @pytest.mark.parametrize("width", [0.0, 1e-10, 1e-9])
    def test_side_within_point_tol_is_collapsed(self, width):
        """Both faces of x4 are one at POINT_TOL, so every candidate lies on the lower one."""
        box = Box4((0.0, 0.0, -1.0, -1.0), (1.0, 2.0, 0.25, -1.0 + width))
        pts = collect_candidates(box)
        assert (pts[:, 3] == -1.0).all()
        with pytest.raises(NoValidHyperplane):
            generate_overapproximators(box, ComplexIndex(1.0, 1.0))

    def test_symmetric_box_symmetry(self):
        a = 1.5
        box = Box4((-a,) * 4, (a,) * 4)
        pts = set(map(tuple, np.round(collect_candidates(box), 9)))
        swapped = {(p[1], p[0], p[3], p[2]) for p in pts}
        assert pts == swapped

    def test_candidates_inside_box(self):
        rng = random.Random(9)
        for seed in range(8):
            cat, _ = random_catalog(random.Random(800 + seed), max_layers=3)
            eb = bounds.tighten_bounds(cat)
            for li in range(len(cat.spectrum)):
                box = Box4.from_entry_bounds(eb, li)
                for p in collect_candidates(box):
                    assert box.contains(p)

    def test_hull_contains_dense_det_one_samples(self):
        cat, _ = random_catalog(random.Random(42), max_layers=1)
        eb = bounds.tighten_bounds(cat)
        box = Box4.from_entry_bounds(eb, 0)
        K = collect_candidates(box)
        rng = np.random.default_rng(7)
        lo, hi = np.array(box.lower), np.array(box.upper)
        tried = 0
        for _ in range(400):
            x = rng.uniform(lo, hi)
            if x[0] == 0:
                continue
            x[1] = (1.0 - x[2] * x[3]) / x[0]  # put the sample on the det-1 surface
            if not (lo[1] - 1e-12 <= x[1] <= hi[1] + 1e-12):
                continue
            tried += 1
            # point-in-hull via an LP feasibility problem
            res = linprog(
                c=np.zeros(len(K)),
                A_eq=np.vstack([K.T, np.ones(len(K))]),
                b_eq=np.append(x, 1.0),
                bounds=[(0, None)] * len(K),
                method="highs",
            )
            assert res.success, f"sample {x} outside conv(K)"
        assert tried > 20

    def test_empty_candidates_raises(self):
        # deliberately inconsistent: det-1 surface cannot meet this box
        box = Box4((5.0, 5.0, 5.0, 5.0), (5.5, 5.5, 5.5, 5.5))
        with pytest.raises(EmptyCandidateSet):
            collect_candidates(box)


class TestFitHyperplane:
    def test_duplicate_point_singular(self):
        g = denominator_on_x(ComplexIndex(2.0, 1.0))
        p = [(1.0, 1.0, 0.0, 0.0)] * 2 + [(0.0, 1.0, 1.0, 0.0), (0.0, 0.0, 1.0, 1.0),
                                          (1.0, 0.0, 0.0, 1.0)]
        with pytest.raises(SingularSystem):
            fit_hyperplane(p, g)

    def test_affine_recovery(self):
        def g(x):
            return 3.0 - 2.0 * x[0] + 0.5 * x[1] + 4.0 * x[2] - 1.5 * x[3]

        pts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        h = fit_hyperplane(pts, g)
        assert h.tolist() == pytest.approx([3.0, -2.0, 0.5, 4.0, -1.5], abs=1e-12)

    def test_against_least_squares_oracle(self, data_tables):
        from filmopt.materials import index_at
        sub = index_at(data_tables["Tungsten"], 550.0)
        g = denominator_on_x(sub)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, size=(5, 4))
        h = fit_hyperplane(pts, g)
        mat = np.column_stack([np.ones(5), pts])
        rhs = np.array([g(p) for p in pts])
        oracle, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
        assert np.allclose(h, oracle, atol=1e-8)
        assert np.abs(mat @ h - rhs).max() <= 1e-8 * max(1, rhs.max())

    def test_wrong_count(self):
        g = denominator_on_x(ComplexIndex(2.0))
        with pytest.raises(ValueError):
            fit_hyperplane([(0, 0, 0, 0)], g)


class TestGenerateOverapproximators:
    def test_unique_fit_when_five_candidates(self):
        # engineered box whose candidate set is exactly 5 points
        g = denominator_on_x(ComplexIndex(2.0, 1.0))
        box = Box4((1.0, 1.0, -0.5, 0.0), (1.0, 1.0, 0.5, 0.0))
        ks = collect_candidates(box)
        if len(ks) == 5:
            planes = generate_overapproximators(box, ComplexIndex(2.0, 1.0))
            assert len(planes) == 1

    def test_domination_on_candidates(self):
        for seed in range(6):
            cat, _ = random_catalog(random.Random(900 + seed), max_layers=3)
            eb = bounds.tighten_bounds(cat)
            for li in range(len(cat.spectrum)):
                box = Box4.from_entry_bounds(eb, li)
                sub = cat.substrate_indices[li]
                g = denominator_on_x(sub)
                try:
                    planes = generate_overapproximators(box, sub)
                except NoValidHyperplane:
                    continue
                for p in collect_candidates(box):
                    assert (plane_values(planes, p) >= g(p) - TOL).all()

    def test_domination_on_enumerated_designs(self):
        for seed in range(4):
            cat, _ = random_catalog(random.Random(950 + seed), max_layers=3, max_choices=4)
            eb = bounds.tighten_bounds(cat)
            planes = hyperplanes_for_catalog(cat, eb)
            for li, wl in enumerate(cat.spectrum.wavelengths):
                g = denominator_on_x(cat.substrate_indices[li])
                for picks in enumerate_designs(cat):
                    w = optics.chain_product([cat.matrix(m, t, wl) for m, t in picks])
                    x = (w.a11, w.a22, w.a12, w.a21)
                    assert (plane_values(planes[li], x) >= g(x) - 1e-6).all()

    def test_thin_boxes_dominate_on_candidates(self):
        # One coordinate 1e-12..1e-6 wide: the slopes are steep, so a0
        # cancels a . x in the uncentred planes and their rounding is large.
        rng = np.random.default_rng(1)
        for _ in range(300):
            lo, width = rng.uniform(-3, 2, 4), rng.uniform(0, 4, 4)
            width[rng.integers(4)] = 10.0 ** rng.uniform(-12, -6)
            box = Box4(tuple(lo), tuple(lo + width))
            sub = ComplexIndex(rng.uniform(0.5, 5.0), rng.uniform(0.0, 5.0))
            try:
                planes = generate_overapproximators(box, sub)
            except (NoValidHyperplane, EmptyCandidateSet):
                continue
            g = denominator_on_x(sub)
            for p in collect_candidates(box):
                assert (plane_values(planes, p) >= g(p)).all()

    def test_too_few_candidates_raises(self):
        box = Box4((1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0))
        with pytest.raises(NoValidHyperplane):
            generate_overapproximators(box, ComplexIndex(2.0, 1.0))

    def test_determinism_on_large_candidate_sets(self):
        cat, _ = random_catalog(random.Random(77), max_layers=4, max_choices=6)
        eb = bounds.tighten_bounds(cat)
        h1 = hyperplanes_for_catalog(cat, eb)
        h2 = hyperplanes_for_catalog(cat, eb)
        assert [planes.tolist() for planes in h1] == [planes.tolist() for planes in h2]


def reference_overapproximators(box, substrate):
    """Oracle for the batched generator: fit_hyperplane on each 5-subset in turn."""
    pts = collect_candidates(box)
    g = denominator_on_x(substrate)
    gvals = np.array([g(p) for p in pts])
    if len(pts) < 5:
        raise NoValidHyperplane(f"only {len(pts)} candidates, need 5")
    center = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
    centred = pts - center
    d_at = dict(zip(map(tuple, centred.tolist()), gvals))  # D at the uncentred candidates
    reach = np.concatenate([[1.0], np.abs(centred).max(axis=0)])
    kept = []
    for subset in combinations(range(len(pts)), 5):
        try:
            h = fit_hyperplane(centred[list(subset)], lambda p: d_at[tuple(p)])
        except SingularSystem:
            continue
        a = h
        vals = a[0] + centred @ a[1:]
        scale = abs(a[0]) + np.abs(centred) @ np.abs(a[1:])
        if np.all(vals + relax.REL_TOL * scale >= gvals):
            a[0] += 2.0 * relax.REL_TOL * scale.max()
            tol = relax.DEDUPE_TOL * (np.abs(a) @ reach)
            if not any(np.abs(a - c) @ reach <= tol for c in kept):
                kept.append(a)
    if not kept:
        raise NoValidHyperplane("no 5-point fit dominates D on the candidate set")
    for a in kept:
        a[0] -= (a[1:] * center).sum()
        a[0] += relax.UNCENTRED_ROUNDING * (abs(a[0]) + np.abs(pts) @ np.abs(a[1:])).max()
    return np.array(kept)


def candidate_count(box):
    """How many candidates `box` yields, 0 if it yields none."""
    try:
        return len(collect_candidates(box))
    except EmptyCandidateSet:
        return 0


def outcome(generate, box, substrate):
    """Coefficient lists of the generated planes, or the error class raised."""
    try:
        return generate(box, substrate).tolist()
    except (NoValidHyperplane, EmptyCandidateSet) as exc:
        return type(exc)


def qhull_envelope(pts, gvals, x):
    """Concave envelope of the points (pts, gvals) at the rows of x, from Qhull's upper facets.

    The lifted points are scaled to the unit cube first, so that Qhull's
    precision is not spent on the spread between x (~1e3) and D (~1e9).
    """
    lifted = np.column_stack([pts, gvals])
    lo = lifted.min(axis=0)
    span = lifted.max(axis=0) - lo
    span[span == 0] = 1.0  # a flat coordinate leaves the hull flat, which Qhull rejects
    eq = ConvexHull((lifted - lo) / span).equations
    upper = eq[eq[:, 4] > 1e-9]  # outward normal points up in D
    xs = (x - lo[:4]) / span[:4]
    return lo[4] + span[4] * (-(upper[:, 5:] + upper[:, :4] @ xs.T) / upper[:, 4:5]).min(axis=0)


def lifted_candidates(box, substrate):
    """The candidates of `box` and the oracle D at each."""
    pts = collect_candidates(box)
    return pts, np.array([denominator_on_x(substrate)(p) for p in pts])


def assert_family_is_envelope(planes, pts, gvals, seed):
    """At random convex combinations of the candidates, min_h h(x) is the Qhull envelope."""
    x = np.random.default_rng(seed).dirichlet(np.full(len(pts), 0.3), size=200) @ pts
    family = (planes[:, :1] + planes[:, 1:] @ x.T).min(axis=0)
    np.testing.assert_allclose(family, qhull_envelope(pts, gvals, x), rtol=1e-6, atol=0)


@functools.cache
def bundled_catalog(name, substrate):
    """configs/`name`.json on `substrate`: (catalog, entry bounds, planes)."""
    config = dataclasses.replace(
        materials.CatalogConfig.from_json(CONFIGS / f"{name}.json"), substrate=substrate
    )
    cat = materials.build_catalog(config, materials.load_tables(config))
    eb = bounds.tighten_bounds(cat)
    return cat, eb, hyperplanes_for_catalog(cat, eb)


@pytest.fixture(scope="module", params=SUBSTRATES)
def broad(request):
    return bundled_catalog("broad_n20_theta2", request.param)


def interval_box(intervals):
    return Box4(tuple(lo for lo, _ in intervals), tuple(lo + w for lo, w in intervals))


class TestBatchedMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(interval, min_size=4, max_size=4), st.floats(0.5, 5.0), st.floats(0.0, 5.0))
    @example(intervals=MANY_CANDIDATES, n=1.0, k=1.0)
    @example(intervals=THIN_SIDE, n=1.0, k=1.0)
    def test_hypothesis_boxes(self, intervals, n, k):
        box = interval_box(intervals)
        sub = ComplexIndex(n, k)
        assert candidate_count(box) <= 32
        assert outcome(generate_overapproximators, box, sub) == outcome(
            reference_overapproximators, box, sub
        )

    # One substrate: each broad wavelength has up to C(24, 5) subsets to fit one by one.
    @pytest.mark.parametrize("substrate", ["Tungsten"])
    def test_every_broad_wavelength(self, substrate):
        cat, eb, planes = bundled_catalog("broad_n20_theta2", substrate)
        for li in range(len(cat.spectrum)):
            box = Box4.from_entry_bounds(eb, li)
            sub = cat.substrate_indices[li]
            want = outcome(reference_overapproximators, box, sub)
            assert outcome(generate_overapproximators, box, sub) == want
            if not isinstance(want, list):
                want = constant_overapproximator(box, sub).tolist()
            assert planes[li].tolist() == want


@pytest.mark.parametrize("name, substrate", [
    *(("broad_n20_theta2", s) for s in SUBSTRATES),
    ("mo_410_n6", "Molybdenum"),
    ("visible_n6_lambda40", "Molybdenum"),
])
def test_planes_equal_the_every_test_oracle(name, substrate):
    """Bit for bit and in order, the planes of putting every fit through every test, residual first."""
    cat, eb, planes = bundled_catalog(name, substrate)
    want = oracles.hyperplanes_for_catalog(cat, eb)
    assert [(p.shape, p.tobytes()) for p in planes] == [(p.shape, p.tobytes()) for p in want]


def slogdet_dominating_fits(pts, gvals, subsets):
    """``relax._dominating_fits`` with singular systems dropped by a zero ``slogdet`` sign first."""
    mat = np.ones((len(subsets), 5, 5))
    mat[:, :, 1:] = pts[subsets]
    with np.errstate(divide="ignore"):
        solvable = np.linalg.slogdet(mat)[0] != 0
    return oracles.dominating_fits(pts, gvals, subsets[solvable])


@pytest.mark.parametrize("count", range(5, 33))
def test_subsets_are_combinations_in_order(count):
    subsets = relax._subsets(count)
    assert subsets.dtype == np.uint8 and not subsets.flags.writeable
    assert relax._subsets(count) is subsets
    assert subsets.tolist() == [list(c) for c in combinations(range(count), 5)]


def repeated_candidate_block():
    """Centred candidates with one repeated, D there, and every 5-subset as one block."""
    box = Box4((-2.0, -1.0, -3.0, 0.5), (1.0, 2.0, 0.0, 4.0))
    sub = ComplexIndex(2.5, 3.0)
    pts = collect_candidates(box)
    pts = np.vstack([pts, pts[2]])  # every subset holding both copies is exactly singular
    pts -= (pts.min(axis=0) + pts.max(axis=0)) / 2.0
    gvals = denominator4(pts[:, ENTRY_ORDER], sub.re, sub.im)
    return pts, gvals, [np.array(list(combinations(range(len(pts)), 5)))]


def box_blocks(*boxes):
    """The boxes' first 32 candidates, centred, D there on a (1, 1) substrate, and the fitting blocks."""
    pts = np.vstack([collect_candidates(interval_box(intervals)) for intervals in boxes])[:32]
    pts -= (pts.min(axis=0) + pts.max(axis=0)) / 2.0
    gvals = denominator4(pts[:, ENTRY_ORDER], 1.0, 1.0)
    subsets = relax._subsets(len(pts))
    return pts, gvals, [subsets[s:s + relax.FIT_BLOCK] for s in range(0, len(subsets), relax.FIT_BLOCK)]


@pytest.mark.parametrize("make, count", [
    (functools.partial(box_blocks, MANY_CANDIDATES), 24),
    (functools.partial(box_blocks, THIN_SIDE), 15),
    (functools.partial(box_blocks, MANY_CANDIDATES, THIN_SIDE), 32),
    (repeated_candidate_block, 17),
], ids=["many-candidates", "thin-side", "two-boxes-pooled", "repeated-candidate"])
def test_sentinel_stage_keeps_the_oracle_fits(make, count):
    """Block by block, bit for bit, the fits of putting every fit through every test."""
    pts, gvals, blocks = make()
    assert len(pts) == count
    aug = np.column_stack([np.ones(len(pts)), pts])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for subsets in blocks:
            got = relax._dominating_fits(aug, gvals, subsets)
            want = oracles.dominating_fits(pts, gvals, subsets)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_subsets_build_without_large_temporaries():
    """The 5-subsets of 32 candidates take 0.96 MB; building them peaks under 2 MB."""
    relax._subsets.cache_clear()
    tracemalloc.start()
    try:
        subsets = relax._subsets(32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert subsets.nbytes == 5 * math.comb(32, 5)
    assert peak < 2_000_000


class TestSingularFits:
    def test_repeated_candidate_matches_slogdet_filter(self):
        pts, gvals, (subsets,) = repeated_candidate_block()
        mat = np.ones((len(subsets), 5, 5))
        mat[:, :, 1:] = pts[subsets]
        assert (np.linalg.slogdet(mat)[0] == 0).sum() >= 100
        aug = np.column_stack([np.ones(len(pts)), pts])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = relax._dominating_fits(aug, gvals, subsets)
        want = slogdet_dominating_fits(pts, gvals, subsets)
        assert len(want) and np.array_equal(got, want)

    def test_solve_gufunc_gives_nan_for_a_singular_system(self):
        """``_dominating_fits`` relies on this: one singular system leaves a NaN row, not an error."""
        mat = np.stack([np.eye(5) * 2.0, np.ones((5, 5)), np.diag([1.0, 2.0, 0.0, 4.0, 5.0])])
        rhs = np.arange(15.0).reshape(3, 5, 1)
        with np.errstate(invalid="ignore"):
            out = _umath_linalg.solve(mat, rhs, signature="dd->d")[:, :, 0]
        assert np.array_equal(out[0], np.arange(5.0) / 2.0)
        assert np.isnan(out[1:]).all()


class TestConcaveEnvelope:
    def test_every_broad_wavelength(self, broad):
        cat, eb, planes = broad
        for li in range(len(cat.spectrum)):
            box = Box4.from_entry_bounds(eb, li)
            pts, gvals = lifted_candidates(box, cat.substrate_indices[li])
            assert_family_is_envelope(planes[li], pts, gvals, li)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(interval, min_size=4, max_size=4), st.floats(0.5, 5.0), st.floats(0.0, 5.0))
    # x4 narrower than POINT_TOL: harvested from both faces, it left a lopsided set.
    @example(intervals=[(0.0, 1.0), (0.0, 2.0), (-1.0, 0.25), (-1.0, 1e-9)], n=1.0, k=1.0)
    def test_hypothesis_boxes(self, intervals, n, k):
        box = interval_box(intervals)
        sub = ComplexIndex(n, k)
        try:
            pts, gvals = lifted_candidates(box, sub)
            qhull_envelope(pts, gvals, pts)  # raises unless the lifted hull is full-dimensional
        except (EmptyCandidateSet, QhullError):
            assume(False)
        assert len(pts) <= 32
        assert_family_is_envelope(generate_overapproximators(box, sub), pts, gvals, 0)


class TestBroadSampledValidity:
    def test_planes_dominate_sampled_designs(self, broad):
        cat, _, planes = broad
        rng = random.Random(2024)
        for _ in range(200):
            design = [rng.choice(cat.choices_at(n)) for n in range(1, cat.n_layers + 1)]
            for li, wl in enumerate(cat.spectrum.wavelengths):
                w = optics.chain_product([cat.matrix(m, t, wl) for m, t in design])
                d = optics.denominator_D(w, cat.substrate_indices[li])
                x = (w.a11, w.a22, w.a12, w.a21)
                assert (plane_values(planes[li], x) >= d - 1e-9 * max(1.0, abs(d))).all()


class TestConstantFallback:
    def test_dominates_on_box_corners_and_samples(self):
        box = Box4((-2.0, -1.0, -3.0, 0.5), (1.0, 2.0, 0.0, 4.0))
        sub = ComplexIndex(2.5, 3.0)
        h = constant_overapproximator(box, sub)
        g = denominator_on_x(sub)
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = rng.uniform(box.lower, box.upper)
            assert plane_values(h, x)[0] >= g(x)

    def test_fallback_used_for_degenerate_identity_box(self):
        # a zero-layer instance has the identity point as its whole box
        from conftest import flat_table
        from filmopt.materials import CatalogConfig, build_catalog
        tables = {"A": flat_table("A", 2.0, 2.0), "S": flat_table("S", 3.0, 3.0, 1.0, 1.0)}
        cfg = CatalogConfig(substrate="S", materials=("A",),
                            thicknesses={"A": (50.0,)}, wavelengths=(500.0,), layers=0)
        cat = build_catalog(cfg, tables)
        eb = bounds.tighten_bounds(cat)
        planes = hyperplanes_for_catalog(cat, eb)
        assert len(planes[0]) == 1
        assert planes[0][0, 1:].tolist() == [0.0, 0.0, 0.0, 0.0]


class TestBox4:
    def test_inconsistent(self):
        with pytest.raises(InconsistentBounds):
            Box4((0.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 0.0))
