import itertools
import random
from unittest.mock import patch

import numpy as np
import pytest

from filmopt import bounds, optics, solver
from filmopt.bounds import EntryBounds, suffix_product_bounds, tighten_bounds
from filmopt.errors import InternalError
from filmopt.materials import CatalogConfig, build_catalog
from filmopt.optics import ComplexIndex, StructuredMatrix

from conftest import (
    corner_propagation, enumerate_designs, flat_table, identity_suffix_bounds, random_catalog,
    single_wavelength_config,
)
from oracles import interval_product_box, max_denominator_over_box

TOL = 1e-9


def upper_bound_objective(prefixes, suffix_los, suffix_his, substrate_indices, weights):
    """Scalar optimistic completion value for fixed per-wavelength prefixes.

    For each wavelength the final matrix lies in prefix * suffix-box; the
    reflectance term 1 - 4 Re / D is maximized by maximizing D over that box,
    which makes the weighted sum an upper bound on every completion.
    """
    total = 0.0
    for li, (prefix, sub, phi) in enumerate(zip(prefixes, substrate_indices, weights)):
        lo, hi = interval_product_box(prefix, suffix_los[li], suffix_his[li])
        dmax = max_denominator_over_box(lo, hi, sub)
        total += phi * (1.0 - 4.0 * sub.re / dmax)
    return total


def prefix_products(catalog, li):
    """All reachable partial products, grouped by depth."""
    wl = catalog.spectrum.wavelengths[li]
    levels = [[optics.IDENTITY]]
    for layer in range(1, catalog.n_layers + 1):
        nxt = []
        for m in levels[-1]:
            for mat, t in catalog.choices_at(layer):
                nxt.append(optics.multiply(m, catalog.matrix(mat, t, wl)))
        levels.append(nxt)
    return levels


class TestTightenBounds:
    def test_first_layer_is_min_max_over_choices(self):
        tables = {"A": flat_table("A", 2.5, 2.5), "B": flat_table("B", 1.4, 1.4),
                  "S": flat_table("S", 3.0, 3.0, 3.0, 3.0)}
        cfg = CatalogConfig(substrate="S", materials=("A", "B"),
                            thicknesses={"A": (30.0, 60.0), "B": (50.0, 90.0)},
                            wavelengths=(500.0,), layers=1)
        cat = build_catalog(cfg, tables)
        eb = tighten_bounds(cat)
        mats = np.array([cat.matrix(m, t, 500.0).entries() for m, t in cat.choices_at(1)])
        assert np.allclose(eb.lower[0, 1], mats.min(axis=0), atol=1e-15)
        assert np.allclose(eb.upper[0, 1], mats.max(axis=0), atol=1e-15)

    def test_depth_zero_is_identity(self):
        rng = random.Random(7)
        cat, _ = random_catalog(rng)
        eb = tighten_bounds(cat)
        for li in range(len(cat.spectrum)):
            assert np.array_equal(eb.lower[li, 0], [1, 0, 0, 1])
            assert np.array_equal(eb.upper[li, 0], [1, 0, 0, 1])

    def test_single_choice_chain_collapses(self):
        tables = {"A": flat_table("A", 2.5, 2.5), "S": flat_table("S", 3.0, 3.0, 3.0, 3.0)}
        cfg = CatalogConfig(substrate="S", materials=("A",),
                            thicknesses={"A": (65.0,)}, wavelengths=(430.0, 610.0), layers=4)
        cat = build_catalog(cfg, tables)
        eb = tighten_bounds(cat)
        for li, wl in enumerate(cat.spectrum.wavelengths):
            chain = optics.IDENTITY
            for layer in range(1, 5):
                chain = optics.multiply(chain, cat.matrix("A", 65.0, wl))
                assert np.allclose(eb.lower[li, layer], chain.entries(), atol=1e-12)
                assert np.allclose(eb.upper[li, layer], chain.entries(), atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_enumeration_soundness(self, seed):
        rng = random.Random(1000 + seed)
        cat, _ = random_catalog(rng)
        eb = tighten_bounds(cat)
        for li in range(len(cat.spectrum)):
            for depth, level in enumerate(prefix_products(cat, li)):
                for m in level:
                    e = np.array(m.entries())
                    assert np.all(e >= eb.lower[li, depth] - TOL)
                    assert np.all(e <= eb.upper[li, depth] + TOL)

    @pytest.mark.parametrize("seed", range(4))
    def test_suffix_enumeration_soundness(self, seed):
        rng = random.Random(2000 + seed)
        cat, _ = random_catalog(rng)
        sb = identity_suffix_bounds(cat)
        for li, wl in enumerate(cat.spectrum.wavelengths):
            for k in range(cat.n_layers + 1):
                import itertools
                suffix_choices = [cat.choices_at(n) for n in range(k + 1, cat.n_layers + 1)]
                for picks in itertools.product(*suffix_choices):
                    m = optics.chain_product([cat.matrix(mat, t, wl) for mat, t in picks])
                    e = np.array(m.entries())
                    assert np.all(e >= sb.lower[li, k] - TOL)
                    assert np.all(e <= sb.upper[li, k] + TOL)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_split_box_is_sound_and_inside_the_propagated_boxes(self, seed):
        cat, _ = random_catalog(random.Random(2500 + seed), max_layers=5, max_choices=6)
        plain = identity_suffix_bounds(cat)
        for split in range(cat.n_layers):
            tight = suffix_product_bounds(cat, split, solver._suffix_table(cat.layer_matrices[split:])[1])
            assert tight.lower.shape == tight.upper.shape == (len(cat.spectrum), split + 1, 4)
            assert np.all(tight.lower >= plain.lower[:, :split + 1] - TOL)
            assert np.all(tight.upper <= plain.upper[:, :split + 1] + TOL)
            for li, wl in enumerate(cat.spectrum.wavelengths):
                for k in range(split + 1):
                    tails = itertools.product(*[cat.choices_at(n) for n in range(k + 1, cat.n_layers + 1)])
                    for picks in tails:
                        e = np.array(optics.chain_product(
                            [cat.matrix(mat, t, wl) for mat, t in picks]).entries())
                        assert np.all(e >= tight.lower[li, k] - TOL)
                        assert np.all(e <= tight.upper[li, k] + TOL)

    @pytest.mark.parametrize("alternating", [True, False])
    @pytest.mark.parametrize("seed", range(10))
    def test_equals_corner_propagation_bit_for_bit(self, seed, alternating):
        cat, _ = random_catalog(random.Random(5000 + seed), max_layers=6, max_choices=10,
                                alternating=alternating)
        for forward, propagate in ((True, tighten_bounds), (False, identity_suffix_bounds)):
            lower, upper = corner_propagation(cat, forward)
            got = propagate(cat)
            assert got.lower.tobytes() == lower.tobytes()  # bytes: -0.0 differs from 0.0
            assert got.upper.tobytes() == upper.tobytes()

    def test_json_dump_shape(self):
        rng = random.Random(3)
        cat, _ = random_catalog(rng)
        eb = tighten_bounds(cat)
        d = eb.to_json_dict()
        assert len(d) == len(cat.spectrum)
        first = next(iter(d.values()))
        assert len(first) == cat.n_layers + 1
        assert len(first[0]) == 4 and len(first[0][0]) == 2


class TestIntervalProduct:
    def test_identity_prefix_returns_suffix_box(self):
        lo = np.array([-1.0, -2.0, 0.5, 0.0])
        hi = np.array([1.0, 0.0, 2.0, 3.0])
        got_lo, got_hi = interval_product_box(optics.IDENTITY, lo, hi)
        assert np.allclose(got_lo, lo) and np.allclose(got_hi, hi)

    def test_degenerate_box_is_exact_product(self):
        a = StructuredMatrix(0.4, -1.1, 2.0, 0.7)
        b = StructuredMatrix(-0.3, 0.8, 1.5, -0.2)
        pt = np.array(b.entries())
        lo, hi = interval_product_box(a, pt, pt)
        want = optics.multiply(a, b).entries()
        assert np.allclose(lo, want, atol=1e-12) and np.allclose(hi, want, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_encloses_enumerated_products(self, seed):
        rng = random.Random(3000 + seed)
        cat, _ = random_catalog(rng, max_layers=3)
        sb = identity_suffix_bounds(cat)
        li = 0
        wl = cat.spectrum.wavelengths[li]
        prefix = optics.make_transfer_matrix(ComplexIndex(rng.uniform(1.5, 3.0)),
                                             rng.uniform(10, 200), wl)
        lo, hi = interval_product_box(prefix, sb.lower[li, 0], sb.upper[li, 0])
        import itertools
        for picks in itertools.product(*[cat.choices_at(n) for n in range(1, cat.n_layers + 1)]):
            w = optics.multiply(prefix, optics.chain_product(
                [cat.matrix(m, t, wl) for m, t in picks]))
            e = np.array(w.entries())
            assert np.all(e >= lo - TOL) and np.all(e <= hi + TOL)


class TestUpperBoundObjective:
    def test_degenerate_box_is_exact_completion(self):
        rng = random.Random(11)
        cat, _ = random_catalog(rng, max_layers=3)
        designs = list(enumerate_designs(cat))
        design = designs[len(designs) // 2]
        point_lo = np.empty((len(cat.spectrum), 4))
        prefixes = []
        for li, wl in enumerate(cat.spectrum.wavelengths):
            w = optics.chain_product([cat.matrix(m, t, wl) for m, t in design])
            prefixes.append(w)
            point_lo[li] = w.entries()
        got = upper_bound_objective(
            [optics.IDENTITY] * len(cat.spectrum),
            point_lo, point_lo.copy(),
            cat.substrate_indices, cat.spectrum.weights,
        )
        _, avg = solver.evaluate_design(design, cat)
        assert got == pytest.approx(avg, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_root_bound_dominates_optimum(self, seed):
        rng = random.Random(4000 + seed)
        cat, _ = random_catalog(rng)
        sb = identity_suffix_bounds(cat)
        bound = upper_bound_objective(
            [optics.IDENTITY] * len(cat.spectrum),
            sb.lower[:, 0], sb.upper[:, 0],
            cat.substrate_indices, cat.spectrum.weights,
        )
        assert bound >= solver.brute_force(cat).objective - 1e-12

    def test_bound_monotone_along_search_paths(self):
        rng = random.Random(12)
        cat, _ = random_catalog(rng, max_layers=4, max_choices=4)
        # raises internally if any child bound exceeds its parent
        solver.branch_and_bound(cat)

    def test_monotone_check_fires_on_collapsed_root_box(self, data_tables):
        # an identity depth-0 box makes the root bound the uncoated mirror's
        # reflectance, which every coated child's bound exceeds
        cat = build_catalog(single_wavelength_config("Molybdenum", 410.0, layers=2), data_tables)
        sb = identity_suffix_bounds(cat)
        lower, upper = sb.lower.copy(), sb.upper.copy()
        lower[:, 0] = upper[:, 0] = [1.0, 0.0, 0.0, 1.0]
        collapsed = EntryBounds(sb.wavelengths, lower, upper)
        with patch.object(solver.bounds_mod, "suffix_product_bounds", lambda *args: collapsed):
            with pytest.raises(InternalError, match="exceeds parent bound"):
                solver.branch_and_bound(cat)
        with patch.object(solver.bounds_mod, "suffix_product_bounds", lambda *args: sb):
            solver.branch_and_bound(cat)

    def test_corner_max_dominates_interior_samples(self):
        rng = np.random.default_rng(5)
        lo = rng.uniform(-3, 0, size=4)
        hi = lo + rng.uniform(0.5, 3, size=4)
        sub = ComplexIndex(2.5, 1.5)
        dmax = max_denominator_over_box(lo, hi, sub)
        from filmopt.optics import denominator_D
        for _ in range(200):
            e = rng.uniform(lo, hi)
            d = denominator_D(StructuredMatrix(*e), sub)
            assert d <= dmax + 1e-9


class TestEntryBounds:
    def test_rejects_crossed_bounds(self):
        lo = np.zeros((1, 2, 4))
        hi = np.zeros((1, 2, 4))
        hi[0, 1, 2] = -1.0
        with pytest.raises(ValueError):
            EntryBounds(wavelengths=(500.0,), lower=lo, upper=hi)

    @pytest.mark.parametrize("lower, upper", [(np.nan, 1.0), (1.0, np.nan), (1.0, 1.0 - 8.9e-16),
                                              (6.4e4, np.nextafter(6.4e4, 0.0))],
                             ids=["nan-lower", "nan-upper", "crossed-near-1", "crossed-1-ulp-at-6.4e4"])
    def test_order_check_is_exact_and_rejects_nan(self, lower, upper):
        """Sound boxes come out of monotonically rounded propagation, so no tolerance is needed."""
        lo, hi = np.zeros((1, 2, 4)), np.ones((1, 2, 4))
        lo[0, 1, 3], hi[0, 1, 3] = lower, upper
        with pytest.raises(ValueError, match="exceeds upper"):
            EntryBounds(wavelengths=(500.0,), lower=lo, upper=hi)
        hi[0, 1, 3] = lower
        if not np.isnan(lower):
            EntryBounds(wavelengths=(500.0,), lower=lo, upper=hi)  # equal bounds are a box
