import dataclasses
import math
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from filmopt import bounds, materials, optics, relax
from filmopt.errors import (
    EmptyCandidateSet,
    InconsistentBounds,
    NoValidHyperplane,
    SingularSystem,
)
from filmopt.optics import ComplexIndex
from filmopt.relax import (
    Box4,
    Hyperplane,
    collect_candidates,
    constant_overapproximator,
    extreme_points_2d,
    fit_hyperplane,
    generate_overapproximators,
    hyperplanes_for_catalog,
)

from conftest import SUBSTRATES, denominator_on_x, enumerate_designs, random_catalog

TOL = 1e-9
BROAD_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "broad_n20_theta2.json"


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
        assert h.coefficients() == pytest.approx((3.0, -2.0, 0.5, 4.0, -1.5), abs=1e-12)

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
        assert np.allclose(h.coefficients(), oracle, atol=1e-8)
        assert np.abs(mat @ np.array(h.coefficients()) - rhs).max() <= 1e-8 * max(1, rhs.max())

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
                    for h in planes:
                        assert h.value(p) >= g(p) - TOL

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
                    for h in planes[li]:
                        assert h.value(x) >= g(x) - 1e-6

    def test_too_few_candidates_raises(self):
        box = Box4((1.0, 1.0, 0.0, 0.0), (1.0, 1.0, 0.0, 0.0))
        with pytest.raises(NoValidHyperplane):
            generate_overapproximators(box, ComplexIndex(2.0, 1.0))

    def test_seeded_determinism_on_large_candidate_sets(self):
        cat, _ = random_catalog(random.Random(77), max_layers=4, max_choices=6)
        eb = bounds.tighten_bounds(cat)
        h1 = hyperplanes_for_catalog(cat, eb, seed=42)
        h2 = hyperplanes_for_catalog(cat, eb, seed=42)
        assert [[p.coefficients() for p in planes] for planes in h1] == [
            [p.coefficients() for p in planes] for planes in h2
        ]


def reference_subsets(count, gvals, seed):
    """The 5-subsets in the order the per-subset loop tried them."""
    if count <= relax.EXHAUSTIVE_LIMIT:
        yield from combinations(range(count), 5)
        return
    ranked = np.argsort(gvals, kind="stable")
    extremal = sorted(set(ranked[:6]) | set(ranked[-6:]))
    yield from combinations(extremal, 5)
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(relax.RANDOM_SUBSETS):
        pick = tuple(sorted(rng.choice(count, size=5, replace=False).tolist()))
        if pick not in seen:
            seen.add(pick)
            yield pick


def reference_overapproximators(box, substrate, seed=42):
    """Oracle for the batched generator: fit_hyperplane on each subset in turn."""
    pts = collect_candidates(box)
    g = denominator_on_x(substrate)
    gvals = np.array([g(p) for p in pts])
    if len(pts) < 5:
        raise NoValidHyperplane(f"only {len(pts)} candidates, need 5")
    kept, coeffs = [], []
    for subset in reference_subsets(len(pts), gvals, seed):
        try:
            h = fit_hyperplane(pts[list(subset)], g)
        except SingularSystem:
            continue
        vals = h.a0 + pts @ np.array([h.a1, h.a2, h.a3, h.a4])
        if np.all(vals >= gvals - relax.DOMINATION_TOL):
            lifted = np.array([h.a0 + relax.LIFT, h.a1, h.a2, h.a3, h.a4])
            scale = max(1.0, np.abs(lifted).max())
            if not any(np.abs(lifted - c).max() <= 1e-7 * scale for c in coeffs):
                coeffs.append(lifted)
                kept.append(Hyperplane(*map(float, lifted)))
    if not kept:
        raise NoValidHyperplane("no 5-point fit dominates D on the candidate set")
    return kept


def outcome(generate, box, substrate, seed):
    """Coefficient tuples of the generated planes, or the error class raised."""
    try:
        return [h.coefficients() for h in generate(box, substrate, seed)]
    except (NoValidHyperplane, EmptyCandidateSet) as exc:
        return type(exc)


@pytest.fixture(scope="module", params=SUBSTRATES)
def broad(request):
    """broad_n20_theta2 on each bundled substrate: (catalog, entry bounds, planes)."""
    config = dataclasses.replace(
        materials.CatalogConfig.from_json(BROAD_CONFIG), substrate=request.param
    )
    cat = materials.build_catalog(config, materials.load_tables(config))
    eb = bounds.tighten_bounds(cat)
    return cat, eb, hyperplanes_for_catalog(cat, eb)


interval = st.tuples(st.floats(-3.0, 2.0), st.floats(0.0, 4.0))


class TestBatchedMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(interval, min_size=4, max_size=4),
        st.floats(0.5, 5.0), st.floats(0.0, 5.0),
        st.integers(0, 1000),
    )
    def test_hypothesis_boxes(self, intervals, n, k, seed):
        box = Box4(tuple(lo for lo, _ in intervals), tuple(lo + w for lo, w in intervals))
        sub = ComplexIndex(n, k)
        assert outcome(generate_overapproximators, box, sub, seed) == outcome(
            reference_overapproximators, box, sub, seed
        )

    def test_every_broad_wavelength(self, broad):
        cat, eb, planes = broad
        for li in range(len(cat.spectrum)):
            box = Box4.from_entry_bounds(eb, li)
            sub = cat.substrate_indices[li]
            want = outcome(reference_overapproximators, box, sub, 42)
            assert outcome(generate_overapproximators, box, sub, 42) == want
            if not isinstance(want, list):
                want = [constant_overapproximator(box, sub).coefficients()]
            assert [h.coefficients() for h in planes[li]] == want

    @pytest.mark.parametrize("count", [5, 9, 12, 13, 16, 24, 40])
    @pytest.mark.parametrize("seed", [42, 7])
    def test_subsets_match_per_subset_order(self, count, seed):
        gvals = np.random.default_rng(count).uniform(0.0, 10.0, size=count)
        draws = {}
        want = list(reference_subsets(count, gvals, seed))
        assert [tuple(r) for r in relax._subsets(gvals, seed, draws).tolist()] == want
        # a second wavelength with the same count reuses the draws of the first
        other = gvals[::-1].copy()
        again = relax._subsets(other, seed, draws).tolist()
        assert [tuple(r) for r in again] == list(reference_subsets(count, other, seed))


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
                for h in planes[li]:
                    assert h.value(x) >= d - 1e-9 * max(1.0, abs(d))


class TestConstantFallback:
    def test_dominates_on_box_corners_and_samples(self):
        box = Box4((-2.0, -1.0, -3.0, 0.5), (1.0, 2.0, 0.0, 4.0))
        sub = ComplexIndex(2.5, 3.0)
        h = constant_overapproximator(box, sub)
        g = denominator_on_x(sub)
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = rng.uniform(box.lower, box.upper)
            assert h.value(x) >= g(x)

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
        assert planes[0][0].coefficients()[1:] == (0.0, 0.0, 0.0, 0.0)


class TestBox4:
    def test_inconsistent(self):
        with pytest.raises(InconsistentBounds):
            Box4((0.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 0.0))
