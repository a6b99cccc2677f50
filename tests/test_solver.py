import dataclasses
import json
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmopt import optics, solver
from filmopt.arrayops import LeafScreen
from filmopt.errors import InadmissibleDesign, InstanceTooLarge
from filmopt.materials import CatalogConfig, build_catalog
from filmopt.solver import (
    branch_and_bound,
    brute_force,
    design_from_json,
    design_to_json,
    evaluate_design,
    evaluate_design_on_grid,
)

from conftest import (
    enumerate_designs,
    flat_table,
    naive_best,
    random_catalog,
    single_wavelength_config,
)


def tiny_catalog(n_layers=2, thick_a=(40.0, 80.0), thick_b=(90.0, 150.0)):
    tables = {"A": flat_table("A", 2.5, 2.5), "B": flat_table("B", 1.4, 1.4),
              "S": flat_table("S", 3.2, 3.2, 3.4, 3.4)}
    cfg = CatalogConfig(substrate="S", materials=("A", "B"),
                        thicknesses={"A": thick_a, "B": thick_b},
                        wavelengths=(500.0, 650.0), layers=n_layers)
    return build_catalog(cfg, tables)


class TestEvaluateDesign:
    def test_empty_design_is_uncoated_fresnel(self):
        tables = {"A": flat_table("A", 2.5, 2.5), "S": flat_table("S", 3.0, 3.0, 2.0, 2.0)}
        cfg = CatalogConfig(substrate="S", materials=("A",),
                            thicknesses={"A": (50.0,)}, wavelengths=(500.0,), layers=0)
        cat = build_catalog(cfg, tables)
        per, avg = evaluate_design((), cat)
        want = ((3.0 - 1) ** 2 + 4.0) / ((3.0 + 1) ** 2 + 4.0)
        assert per == (pytest.approx(want, abs=1e-14),)
        assert avg == pytest.approx(want, abs=1e-14)

    def test_rejects_wrong_length(self):
        cat = tiny_catalog()
        with pytest.raises(InadmissibleDesign):
            evaluate_design((("A", 40.0),), cat)

    def test_rejects_off_grid_choice(self):
        cat = tiny_catalog()
        with pytest.raises(InadmissibleDesign):
            evaluate_design((("A", 41.0), ("B", 90.0)), cat)

    def test_grid_evaluation_matches_catalog_on_spectrum(self, data_tables):
        cfg = single_wavelength_config("Molybdenum", 410.0, layers=2)
        cfg = CatalogConfig(**{**cfg.__dict__, "wavelengths": (410.0, 550.0)})
        cat = build_catalog(cfg, data_tables)
        design = (("TiO2", 40.0), ("MgF2", 80.0))
        per, avg = evaluate_design(design, cat)
        per_g, avg_g = evaluate_design_on_grid(
            design, data_tables, data_tables["Molybdenum"], [410.0, 550.0])
        assert per_g == pytest.approx(list(per), abs=1e-12)
        assert avg_g == pytest.approx(avg, abs=1e-12)

    def test_json_round_trip(self):
        design = (("TiO2", 40.0), ("MgF2", 82.5))
        assert design_from_json(json.loads(json.dumps(design_to_json(design)))) == design


class TestBruteForce:
    def test_single_layer_argmax(self):
        cat = tiny_catalog(n_layers=1)
        rep = brute_force(cat)
        vals = {d: evaluate_design(d, cat)[1] for d in enumerate_designs(cat)}
        best = max(vals.values())
        assert rep.objective == pytest.approx(best, abs=1e-12)
        assert rep.nodes_explored == cat.design_count()
        assert rep.proven_optimal

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_independent_enumerator(self, seed):
        rng = random.Random(5000 + seed)
        cat, _ = random_catalog(rng, max_layers=3, max_choices=4)
        rep = brute_force(cat)
        obj, design = naive_best(cat)
        assert rep.objective == pytest.approx(obj, abs=1e-10)
        assert rep.design == design

    def test_lexicographic_tie_break(self):
        # two identical thickness offerings at a layer produce exact ties
        tables = {"A": flat_table("A", 2.5, 2.5), "B": flat_table("B", 2.5, 2.5),
                  "S": flat_table("S", 3.2, 3.2, 3.4, 3.4)}
        cfg = CatalogConfig(substrate="S", materials=("A", "B"),
                            thicknesses={"A": (60.0,), "B": (60.0,)},
                            wavelengths=(500.0,), layers=2)
        cat = build_catalog(cfg, tables)
        rep = brute_force(cat)
        assert rep.design == (("A", 60.0), ("A", 60.0))

    def test_instance_too_large(self):
        cat = tiny_catalog()
        with pytest.raises(InstanceTooLarge):
            brute_force(cat, leaf_cap=3)

    def test_zero_layers(self):
        tables = {"A": flat_table("A", 2.0, 2.0), "S": flat_table("S", 3.0, 3.0, 1.0, 1.0)}
        cfg = CatalogConfig(substrate="S", materials=("A",),
                            thicknesses={"A": (50.0,)}, wavelengths=(500.0,), layers=0)
        cat = build_catalog(cfg, tables)
        rep = brute_force(cat)
        assert rep.design == ()
        assert rep.nodes_explored == 1

    def test_objective_equals_reevaluation(self):
        cat = tiny_catalog(n_layers=3)
        rep = brute_force(cat)
        _, avg = evaluate_design(rep.design, cat)
        assert abs(rep.objective - avg) <= 1e-10


class TestBranchAndBound:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = random.Random(6000 + seed)
        cat, _ = random_catalog(rng)
        rb = brute_force(cat)
        rn = branch_and_bound(cat)
        assert abs(rb.objective - rn.objective) <= 1e-10
        assert rn.proven_optimal

    def test_single_choice_instance(self):
        tables = {"A": flat_table("A", 2.5, 2.5), "S": flat_table("S", 3.0, 3.0, 2.0, 2.0)}
        cfg = CatalogConfig(substrate="S", materials=("A",),
                            thicknesses={"A": (70.0,)}, wavelengths=(500.0,), layers=3)
        cat = build_catalog(cfg, tables)
        rep = branch_and_bound(cat)
        assert rep.nodes_explored == 1
        assert rep.nodes_pruned == 0

    def test_incumbents_nondecreasing(self):
        rng = random.Random(13)
        cat, _ = random_catalog(rng, max_layers=4)
        rep = branch_and_bound(cat)
        assert all(a <= b for a, b in zip(rep.incumbents, rep.incumbents[1:]))

    def test_prunes_on_most_instances(self):
        fewer = 0
        total = 12
        for seed in range(total):
            rng = random.Random(7000 + seed)
            cat, _ = random_catalog(rng, max_layers=4, max_choices=5)
            if cat.design_count() < 8:
                fewer += 1  # nothing to prune on near-trivial instances
                continue
            rep = branch_and_bound(cat)
            if rep.nodes_explored < cat.design_count():
                fewer += 1
        assert fewer >= total * 0.75

    def test_node_cap_gives_incumbent_only(self):
        cat = tiny_catalog(n_layers=3)
        rep = branch_and_bound(cat, node_cap=1)
        assert not rep.proven_optimal
        assert rep.objective > 0

    def test_determinism(self):
        rng = random.Random(31)
        cat, _ = random_catalog(rng)
        r1 = branch_and_bound(cat)
        r2 = branch_and_bound(cat)
        assert r1.design == r2.design
        assert r1.nodes_explored == r2.nodes_explored
        assert r1.objective == r2.objective


def near_tied_catalog(seed: int):
    """Six layers of seven thicknesses, three of them within 1e-9 to 1e-3 nm of another."""
    rng = random.Random(seed)

    def grid() -> tuple[float, ...]:
        base = rng.sample(range(20, 300, 10), 4)
        return tuple(sorted(base + [t + rng.choice((1e-9, 1e-6, 1e-3)) for t in base[:3]]))

    tables = {"A": flat_table("A", rng.uniform(2.0, 2.6), rng.uniform(2.0, 2.6)),
              "B": flat_table("B", rng.uniform(1.3, 1.6), rng.uniform(1.3, 1.6)),
              "S": flat_table("S", rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0),
                              rng.uniform(0.5, 6.0), rng.uniform(0.5, 6.0))}
    cfg = CatalogConfig(substrate="S", materials=("A", "B"),
                        thicknesses={"A": grid(), "B": grid()},
                        wavelengths=tuple(sorted(rng.sample(range(400, 1001, 50), 3))),
                        layers=6, alternating=True)
    return build_catalog(cfg, tables)


def _untimed(report):
    return dataclasses.replace(report, wall_time_s=0.0)


class TestFloat32Screen:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_reports_identical_to_float64_only_on_near_ties(self, seed):
        """Forcing every block through float64 (margin inf) is the path before the screen."""
        cat = near_tied_catalog(seed)
        with patch.object(solver, "SCREEN_MIN_ENTRIES", 0):
            screened = [brute_force(cat), branch_and_bound(cat)]
            with patch.object(LeafScreen, "margin", lambda *args: np.inf):
                plain = [brute_force(cat), branch_and_bound(cat)]
        assert [_untimed(r) for r in screened] == [_untimed(r) for r in plain]

    def test_mo_410_scores_few_blocks_in_float64(self, data_tables):
        cat = build_catalog(single_wavelength_config("Molybdenum", 410.0), data_tables)
        scored = []
        kernel = solver.weighted_reflectance4

        def counted(*args):
            scored.append(1)
            return kernel(*args)

        with patch.object(solver, "weighted_reflectance4", counted):
            report = brute_force(cat)
        blocks = cat.layer_matrices[0].shape[0] * cat.layer_matrices[1].shape[0]
        assert report.nodes_explored == cat.design_count()
        assert len(scored) <= blocks // 10
        with patch.object(LeafScreen, "margin", lambda *args: np.inf):
            assert _untimed(brute_force(cat)) == _untimed(report)


class TestReportSerialization:
    def test_json_dict(self):
        cat = tiny_catalog(n_layers=1)
        rep = brute_force(cat)
        d = rep.to_json_dict()
        assert set(d) >= {"design", "objective", "nodes_explored", "nodes_pruned",
                          "wall_time_s", "proven_optimal", "incumbents"}
        assert design_from_json(d["design"]) == rep.design
