import dataclasses
import json
import math
import random
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmopt import optics, solver
from filmopt.arrayops import DenominatorScreen, mul4
from filmopt.errors import InadmissibleDesign, InstanceTooLarge
from filmopt.materials import CatalogConfig, build_catalog, load_tables
from filmopt.solver import (
    branch_and_bound,
    brute_force,
    design_from_json,
    design_to_json,
    evaluate_design,
    evaluate_design_on_grid,
)

from conftest import (
    SUBSTRATES,
    enumerate_designs,
    flat_table,
    identity_suffix_bounds,
    naive_best,
    random_catalog,
    single_wavelength_config,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        cat = tiny_catalog(n_layers=27, thick_a=(40.0,), thick_b=(90.0,))
        assert cat.design_count() == 2**27 > solver.LEAF_CAP
        # the cap is checked before any work: building the suffix table would trip this
        with patch.object(solver, "_suffix_table", side_effect=AssertionError("searched")):
            with pytest.raises(InstanceTooLarge):
                brute_force(cat)

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

    def test_node_cap_above_the_designs_proves_the_optimum(self):
        cat = tiny_catalog(n_layers=3)
        rep = branch_and_bound(cat, node_cap=cat.design_count() + 1)
        assert rep.proven_optimal
        assert rep.design == brute_force(cat).design

    def test_instance_too_large_without_a_node_cap(self):
        cat = tiny_catalog(n_layers=27, thick_a=(40.0,), thick_b=(90.0,))
        assert cat.design_count() == 2**27 > solver.LEAF_CAP
        with patch.object(solver, "_suffix_table", side_effect=AssertionError("searched")):
            with pytest.raises(InstanceTooLarge):
                branch_and_bound(cat)
        rep = branch_and_bound(cat, node_cap=1)
        assert not rep.proven_optimal
        assert rep.nodes_explored >= 1

    def test_determinism(self):
        rng = random.Random(31)
        cat, _ = random_catalog(rng)
        r1 = branch_and_bound(cat)
        r2 = branch_and_bound(cat)
        assert r1.design == r2.design
        assert r1.nodes_explored == r2.nodes_explored
        assert r1.objective == r2.objective


def near_tied_catalog(seed: int, n_wl: int = 3):
    """Six layers of seven thicknesses, three of them within 1e-9 to 1e-3 nm of another, at `n_wl` wavelengths."""
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
                        wavelengths=tuple(sorted(rng.sample(range(400, 1001, 50), n_wl))),
                        layers=6, alternating=True)
    return build_catalog(cfg, tables)


def _untimed(report):
    return dataclasses.replace(report, wall_time_s=0.0)


def _unscreened(margins):
    """``DenominatorScreen.margins`` with every δ forced to inf: every block is scored in float64."""
    def forced(self, prefixes):
        den_rows, h, delta = margins(self, prefixes)
        return den_rows, h, np.full_like(delta, np.inf)
    return forced


def _counting_kernel(scored):
    """The solver's float64 kernel, appending (prefix rows, column count) of each call to `scored`."""
    kernel = solver.weighted_reflectance4

    def counted(rows, table, *args):
        scored.append((rows.tobytes(), table.shape[2]))
        return kernel(rows, table, *args)
    return counted


def _blocks(scored):
    """The prefixes scored in float64: the first block's top groups are scored before the rest of it."""
    return len({rows for rows, _ in scored})


class TestDenominatorScreen:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), st.sampled_from([1, 3]))
    def test_reports_identical_to_float64_only_on_near_ties(self, seed, n_wl):
        """Forcing every block through float64 (margin inf) is the search without the screen.

        One wavelength runs the ellipse screen, three the column screen.
        """
        cat = near_tied_catalog(seed, n_wl)
        screened = [brute_force(cat), branch_and_bound(cat)]
        with patch.object(DenominatorScreen, "margins", _unscreened(DenominatorScreen.margins)):
            plain = [brute_force(cat), branch_and_bound(cat)]
        assert [_untimed(r) for r in screened] == [_untimed(r) for r in plain]

    @pytest.mark.parametrize("substrate", SUBSTRATES)
    def test_mo_410_scores_13_blocks_in_float64_and_equals_the_unscreened_search(self, data_tables, substrate):
        """The ellipse screen leaves brute force 13 of its 312 blocks, and changes no report."""
        cat = build_catalog(single_wavelength_config(substrate, 410.0), data_tables)
        scored = []
        with patch.object(solver, "weighted_reflectance4", _counting_kernel(scored)):
            brute = brute_force(cat)
        assert cat.layer_matrices[0].shape[0] * cat.layer_matrices[1].shape[0] == 312
        assert brute.nodes_explored == cat.design_count()
        assert _blocks(scored) == 13
        screened = [brute, branch_and_bound(cat)]
        with patch.object(DenominatorScreen, "margins", _unscreened(DenominatorScreen.margins)):
            assert [_untimed(r) for r in screened] == [_untimed(brute_force(cat)), _untimed(branch_and_bound(cat))]

    # 97,344 columns a block: whole blocks would be 1,265,472 columns for brute force and 1.36M-1.85M for B&B
    @pytest.mark.parametrize("substrate, brute_columns, bnb_columns", [("Molybdenum", 13_272, 5_376),
                                                                       ("Tungsten", 13_584, 5_688),
                                                                       ("Niobium", 13_056, 5_136),
                                                                       ("Tantalum", 13_056, 5_136)])
    def test_mo_410_scores_only_the_groups_that_can_win(self, data_tables, substrate, brute_columns, bnb_columns):
        """The float64 kernel scores the columns of the groups whose own bound can beat the incumbent."""
        cat = build_catalog(single_wavelength_config(substrate, 410.0), data_tables)
        for solve, columns in ((brute_force, brute_columns), (branch_and_bound, bnb_columns)):
            scored = []
            with patch.object(solver, "weighted_reflectance4", _counting_kernel(scored)):
                solve(cat)
            assert sum(count for _, count in scored) == columns

    def test_choices_tied_across_materials_keep_the_first_column(self, data_tables):
        """A last layer of two materials whose choices tie bit for bit keeps the first column, as without the screen.

        mo_410_n6 with a twin of its MgF2 last layer named ZnS: each ZnS column scores what the MgF2 column 24
        before it scores, so the block maximum is always tied, and only partly gathered blocks are scored.
        """
        cat = build_catalog(single_wavelength_config("Molybdenum", 410.0), data_tables)
        last, mats = cat.layer_choices[-1], cat.layer_matrices
        assert {m for m, _ in last} == {"MgF2"}
        twin_layer = last + tuple(("ZnS", t) for _, t in last)
        twin = dataclasses.replace(cat, layer_choices=cat.layer_choices[:-1] + (twin_layer,),
                                   layer_matrices=mats[:-1] + (np.concatenate([mats[-1], mats[-1]]),))
        screens, scored = [], []
        init = DenominatorScreen.__init__

        def recorded(screen, *args):
            init(screen, *args)
            screens.append(screen)

        for solve in (brute_force, branch_and_bound):
            with patch.object(DenominatorScreen, "__init__", recorded), \
                    patch.object(solver, "weighted_reflectance4", _counting_kernel(scored)):
                report = solve(twin)
            assert screens.pop().head is not None
            assert report.design[-1][0] == "MgF2" and report.objective == brute_force(cat).objective
            with patch.object(DenominatorScreen, "margins", _unscreened(DenominatorScreen.margins)):
                assert _untimed(solve(twin)) == _untimed(report)
        assert scored and max(count for _, count in scored) < 194_688  # groups of columns, never a whole block

    @pytest.mark.parametrize("solve, scored_blocks", [(brute_force, 13), (branch_and_bound, 17)])
    def test_a_folded_last_layer_keeps_the_column_screen(self, data_tables, solve, scored_blocks):
        """A fixed TiO2 layer folded onto the MgF2 last layer is no layer matrix, so the column screen runs.

        Its float64 block counts are the column screen's on this catalog, and reports equal the unscreened search.
        """
        cat = build_catalog(single_wavelength_config("Molybdenum", 410.0), data_tables)
        mats = cat.layer_matrices
        folded = dataclasses.replace(cat, layer_matrices=mats[:-1] + (mul4(mats[-1], mats[0][4][None]),))
        screens, scored = [], []
        init = DenominatorScreen.__init__

        def recorded(screen, *args):
            init(screen, *args)
            screens.append(screen)

        with patch.object(DenominatorScreen, "__init__", recorded), \
                patch.object(solver, "weighted_reflectance4", _counting_kernel(scored)):
            report = solve(folded)
        assert [screen.head for screen in screens] == [None]
        assert _blocks(scored) == len(scored) == scored_blocks
        with patch.object(DenominatorScreen, "margins", _unscreened(DenominatorScreen.margins)):
            assert _untimed(solve(folded)) == _untimed(report)

    # most_scored: the column screen's float64 blocks on each substrate (18, 17, 18, 18), plus 2
    @pytest.mark.parametrize("substrate, designs, most_scored", [("Molybdenum", 15_185_664, 20),
                                                                  ("Tungsten", 15_088_320, 19),
                                                                  ("Niobium", 15_672_384, 20),
                                                                  ("Tantalum", 15_769_728, 20)])
    def test_mo_410_bnb_skips_almost_every_leaf_block(self, data_tables, substrate, designs, most_scored):
        """Exact split boxes cut the designs B&B evaluates; the screen skips most blocks it enters."""
        cat = build_catalog(single_wavelength_config(substrate, 410.0), data_tables)
        scored = []
        with patch.object(solver, "weighted_reflectance4", _counting_kernel(scored)):
            report, (tail,) = _tail_layers(branch_and_bound, cat)
        block = math.prod(m.shape[0] for m in cat.layer_matrices[-tail:])
        assert report.nodes_explored == designs
        assert report.nodes_explored % block == 0
        assert report.design == brute_force(cat).design
        assert _blocks(scored) <= most_scored < report.nodes_explored // block
        identity_boxes = identity_suffix_bounds(cat)  # not from the exact box at the split
        with patch.object(solver.bounds_mod, "suffix_product_bounds", lambda *args: identity_boxes):
            propagated = branch_and_bound(cat)
        assert propagated.design == report.design
        assert designs < propagated.nodes_explored


def _tail_layers(solve, cat):
    """The report of ``solve(cat)`` and the layer count of each tail block it built."""
    tails = []
    table = solver._suffix_table

    def recorded(mats):
        tails.append(len(mats))
        return table(mats)

    with patch.object(solver, "_suffix_table", recorded):
        return solve(cat), tails


def _bundled(name, **changes):
    return dataclasses.replace(CatalogConfig.from_json(CONFIGS / f"{name}.json"), **changes)


class TestOneTree:
    """Both solvers split the same tree, so B&B never evaluates a design brute force does not."""

    @staticmethod
    def assert_same_tree(cat):
        brute, brute_tails = _tail_layers(brute_force, cat)
        bnb, bnb_tails = _tail_layers(branch_and_bound, cat)
        assert bnb_tails == brute_tails and len(bnb_tails) == 1
        assert bnb.nodes_explored <= brute.nodes_explored
        assert abs(bnb.objective - brute.objective) <= 1e-10

    @pytest.mark.parametrize("seed", range(12))
    def test_random_instances(self, seed):
        cat, _ = random_catalog(random.Random(8000 + seed), max_layers=6, max_choices=6)
        self.assert_same_tree(cat)

    @pytest.mark.parametrize("config", [
        _bundled("mo_410_n6"),
        _bundled("visible_n6_lambda40"),
        # the bench's multi-wl instance: the visible config on 20-nm grids
        _bundled("visible_n6_lambda40", thicknesses={"TiO2": tuple(map(float, range(20, 141, 20))),
                                                     "MgF2": tuple(map(float, range(50, 271, 20)))}),
    ], ids=["mo_410_n6", "visible_n6_lambda40", "multi-wl"])
    def test_bundled_configs(self, config):
        self.assert_same_tree(build_catalog(config, load_tables(config)))


class TestReportSerialization:
    def test_json_dict(self):
        cat = tiny_catalog(n_layers=1)
        rep = brute_force(cat)
        d = rep.to_json_dict()
        assert set(d) >= {"design", "objective", "nodes_explored", "nodes_pruned",
                          "wall_time_s", "proven_optimal", "incumbents"}
        assert design_from_json(d["design"]) == rep.design
