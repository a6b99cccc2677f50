import math

import pytest

from filmopt import heuristics, materials, optics, solver
from filmopt.errors import MissingDispersion, ValidationError
from filmopt.heuristics import (
    StackSpec,
    compare_methods,
    comparison_csv,
    quarter_wave_design,
)
from filmopt.materials import CatalogConfig, build_catalog, index_at, progression

from conftest import THETA1, flat_table

KS_TARGETS = (450.0, 500.0, 750.0, 900.0, 1000.0, 1200.0, 1500.0, 2000.0, 2200.0)


class TestQuarterWaveDesign:
    def test_single_target_single_layer(self, data_tables):
        spec = StackSpec((550.0,), 1, "TiO2", "MgF2")
        design = quarter_wave_design(spec, data_tables)
        n = index_at(data_tables["TiO2"], 550.0).re
        assert design == ((("TiO2", 550.0 / (4 * n))),)

    def test_length_is_targets_times_layers(self, data_tables):
        spec = StackSpec(KS_TARGETS, 2, "TiO2", "MgF2")
        assert len(quarter_wave_design(spec, data_tables)) == 18
        spec = StackSpec(KS_TARGETS, 7, "TiO2", "MgF2")
        assert len(quarter_wave_design(spec, data_tables)) == 63

    def test_alternation_starts_high(self, data_tables):
        spec = StackSpec((600.0, 1200.0), 3, "TiO2", "MgF2")
        design = quarter_wave_design(spec, data_tables)
        mats = [m for m, _ in design]
        assert mats == ["TiO2", "MgF2", "TiO2"] * 2

    def test_ascending_vs_descending(self, data_tables):
        spec = StackSpec((600.0, 1200.0), 1, "TiO2", "MgF2")
        asc = quarter_wave_design(spec, data_tables, ascending=True)
        desc = quarter_wave_design(spec, data_tables, ascending=False)
        assert asc == tuple(reversed(desc))
        n600 = index_at(data_tables["TiO2"], 600.0).re
        assert asc[0][1] == pytest.approx(600.0 / (4 * n600))

    def test_quarter_wave_phase_at_target(self, data_tables):
        spec = StackSpec(KS_TARGETS, 2, "TiO2", "MgF2")
        design = quarter_wave_design(spec, data_tables)
        targets = [t for t in sorted(KS_TARGETS) for _ in range(2)]
        for (mat, thick), target in zip(design, targets):
            n = index_at(data_tables[mat], target).re
            m = optics.make_transfer_matrix(optics.ComplexIndex(n), thick, target)
            assert abs(m.a11) <= 1e-10  # cos(pi/2) up to rounding

    def test_thickness_cross_check_via_interpolation(self, data_tables):
        n = index_at(data_tables["TiO2"], 550.0).re
        spec = StackSpec((550.0,), 1, "TiO2", "MgF2")
        (mat, thick), = quarter_wave_design(spec, data_tables)
        assert thick == pytest.approx(550.0 / (4 * n), rel=1e-12)

    def test_missing_material(self, data_tables):
        spec = StackSpec((550.0,), 1, "Nope", "MgF2")
        with pytest.raises(MissingDispersion):
            quarter_wave_design(spec, data_tables)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            StackSpec((), 2, "A", "B")
        with pytest.raises(ValidationError):
            StackSpec((500.0,), 8, "A", "B")
        with pytest.raises(ValidationError):
            StackSpec((500.0,), 0, "A", "B")


class TestCompareMethods:
    def test_single_design_equals_evaluator(self, data_tables):
        spec = StackSpec((550.0,), 2, "TiO2", "MgF2")
        design = quarter_wave_design(spec, data_tables)
        rows = compare_methods([("qw", design)], data_tables, data_tables["Tungsten"])
        vis = progression(*heuristics.VISIBLE_GRID)
        _, want = solver.evaluate_design_on_grid(
            design, data_tables, data_tables["Tungsten"], vis)
        assert rows[0].visible_average == want
        assert rows[0].layer_count == 2

    def test_empty_design_list_gives_header_only_csv(self, data_tables):
        text = comparison_csv(compare_methods([], data_tables, data_tables["Tungsten"]))
        assert text == "design,visible_average,broad_average,layers\n"

    def test_csv_shape(self, data_tables):
        spec = StackSpec((550.0, 1000.0), 1, "TiO2", "MgF2")
        design = quarter_wave_design(spec, data_tables)
        text = comparison_csv(
            compare_methods([("a", design), ("b", design)], data_tables, data_tables["Molybdenum"]))
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("a,") and lines[2].startswith("b,")

    def test_optimizer_dominates_heuristic_at_optimized_wavelength(self, data_tables):
        wl = 550.0
        cfg = CatalogConfig(
            substrate="Molybdenum", materials=("TiO2", "MgF2"),
            thicknesses=THETA1, wavelengths=(wl,), layers=6, alternating=True)
        cat = build_catalog(cfg, data_tables)
        rep = solver.brute_force(cat)
        spec = StackSpec((wl,), 6, "TiO2", "MgF2")
        qw = quarter_wave_design(spec, data_tables)
        _, qw_at_wl = solver.evaluate_design_on_grid(
            qw, data_tables, data_tables["Molybdenum"], [wl])
        assert rep.objective >= qw_at_wl - 1e-12
