import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmopt import materials
from filmopt.errors import (
    ConfigError,
    MissingDispersion,
    OutOfRange,
    ParseError,
    SpectrumCoverage,
    ValidationError,
)
from filmopt.materials import (
    Catalog,
    CatalogConfig,
    DispersionTable,
    ThicknessSet,
    build_catalog,
    index_at,
    load_dispersion,
    load_tables,
)
from filmopt.optics import ComplexIndex, make_transfer_matrix

from conftest import THETA1, flat_table

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_csv(tmp_path, name, rows, header="wavelength_nm,n,k"):
    p = tmp_path / f"{name}.csv"
    p.write_text(header + "\n" + "\n".join(",".join(map(str, r)) for r in rows) + "\n")
    return p


class TestLoadDispersion:
    def test_two_rows(self, tmp_path):
        t = load_dispersion(write_csv(tmp_path, "X", [(400, 2.5, 0), (700, 2.3, 0)]))
        assert t.material_id == "X"
        assert t.wavelengths_nm == (400.0, 700.0)

    def test_duplicate_wavelength(self, tmp_path):
        with pytest.raises(ValidationError):
            load_dispersion(write_csv(tmp_path, "X", [(400, 2.5, 0), (400, 2.3, 0)]))

    def test_decreasing_wavelength(self, tmp_path):
        with pytest.raises(ValidationError):
            load_dispersion(write_csv(tmp_path, "X", [(700, 2.5, 0), (400, 2.3, 0)]))

    def test_malformed_row(self, tmp_path):
        with pytest.raises(ParseError):
            load_dispersion(write_csv(tmp_path, "X", [(400, "abc", 0), (700, 2.3, 0)]))

    def test_wrong_field_count(self, tmp_path):
        p = tmp_path / "X.csv"
        p.write_text("wavelength_nm,n,k\n400,2.5\n700,2.3,0\n")
        with pytest.raises(ParseError):
            load_dispersion(p)

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError):
            load_dispersion(write_csv(tmp_path, "X", [(400, 2.5, 0)], header="nm,n,k"))

    def test_nonpositive_n(self, tmp_path):
        with pytest.raises(ValidationError):
            load_dispersion(write_csv(tmp_path, "X", [(400, 0.0, 0), (700, 2.3, 0)]))

    @pytest.mark.parametrize("row", [("nan", 2.5, 0), (300, "nan", 0), (300, 2.5, "inf")])
    def test_non_finite_value(self, tmp_path, row):
        with pytest.raises(ValidationError):
            load_dispersion(write_csv(tmp_path, "X", [row, (700, 2.3, 0)]))

    def test_non_utf8(self, tmp_path):
        p = tmp_path / "X.csv"
        p.write_bytes(b"wavelength_nm,n,k\n400,2.5,0\n700,2.3,0\xff\n")
        with pytest.raises(ParseError):
            load_dispersion(p)

    def test_bundled_tungsten_coverage(self, data_tables):
        t = data_tables["Tungsten"]
        assert t.wavelengths_nm[0] <= 300.0 and t.wavelengths_nm[-1] >= 3000.0
        assert all(k > 0 for k in t.k)


class TestIndexAt:
    def test_grid_point_exact(self, data_tables):
        t = data_tables["Molybdenum"]
        idx = index_at(t, t.wavelengths_nm[3])
        assert (idx.re, idx.im) == (t.n[3], t.k[3])

    def test_midpoint(self):
        t = DispersionTable("X", (400.0, 600.0), (2.0, 3.0), (0.0, 1.0))
        idx = index_at(t, 500.0)
        assert idx.re == pytest.approx(2.5, abs=1e-15)
        assert idx.im == pytest.approx(0.5, abs=1e-15)

    def test_out_of_range(self):
        t = DispersionTable("X", (300.0, 600.0), (2.0, 3.0), (0.0, 0.0))
        with pytest.raises(OutOfRange):
            index_at(t, 299.0)
        with pytest.raises(OutOfRange):
            index_at(t, 600.5)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_monotone_within_segment(self, f1, f2):
        t = DispersionTable("X", (400.0, 600.0), (2.0, 3.0), (0.0, 0.0))
        lam1, lam2 = 400 + 200 * min(f1, f2), 400 + 200 * max(f1, f2)
        n1, n2 = index_at(t, lam1).re, index_at(t, lam2).re
        assert 2.0 <= n1 <= n2 <= 3.0


class TestThicknessSet:
    def test_rejects_unsorted_and_nonpositive(self):
        with pytest.raises(ValidationError):
            ThicknessSet("A", (30.0, 20.0))
        with pytest.raises(ValidationError):
            ThicknessSet("A", (0.0, 20.0))
        with pytest.raises(ValidationError):
            ThicknessSet("A", (20.0, 20.0))


class TestBuildCatalog:
    def test_fixed_matrix_count_theta1(self, data_tables):
        cfg = CatalogConfig(
            substrate="Molybdenum", materials=("TiO2", "MgF2"),
            thicknesses=THETA1,
            wavelengths=tuple(float(w) for w in range(370, 771, 40)),
            layers=6, alternating=True)
        cat = build_catalog(cfg, data_tables)
        assert len(cfg.wavelengths) == 11
        assert len(cat.fixed) == 13 * 11 + 24 * 11 == 407

    def test_theta2_sizes(self):
        t2 = {"MgF2": tuple(float(t) for t in range(50, 551, 20)),
              "TiO2": tuple(float(t) for t in range(20, 301, 20))}
        assert len(t2["MgF2"]) == 26
        assert len(t2["TiO2"]) == 15

    def test_single_choice_single_matrix(self):
        tables = {"A": flat_table("A", 2.0, 2.0), "S": flat_table("S", 3.0, 3.0, 2.0, 2.0)}
        cfg = CatalogConfig(substrate="S", materials=("A",),
                            thicknesses={"A": (50.0,)}, wavelengths=(500.0,), layers=1)
        cat = build_catalog(cfg, tables)
        assert len(cat.fixed) == 1
        assert cat.design_count() == 1

    def test_alternating_assignment(self, data_tables):
        cfg = CatalogConfig(
            substrate="Molybdenum", materials=("MgF2", "TiO2"),
            thicknesses=THETA1, wavelengths=(410.0,), layers=4, alternating=True)
        cat = build_catalog(cfg, data_tables)
        # high-index material on odd layers counting from the substrate
        assert {m for m, _ in cat.choices_at(1)} == {"TiO2"}
        assert {m for m, _ in cat.choices_at(2)} == {"MgF2"}
        assert {m for m, _ in cat.choices_at(3)} == {"TiO2"}
        assert {m for m, _ in cat.choices_at(4)} == {"MgF2"}

    def test_alternating_needs_two_materials(self, data_tables):
        cfg = CatalogConfig(
            substrate="Molybdenum", materials=("TiO2",),
            thicknesses={"TiO2": THETA1["TiO2"]}, wavelengths=(410.0,),
            layers=2, alternating=True)
        with pytest.raises(ConfigError):
            build_catalog(cfg, data_tables)

    def test_unit_determinant_of_fixed_matrices(self, data_tables):
        cfg = CatalogConfig(
            substrate="Tungsten", materials=("TiO2", "MgF2"),
            thicknesses=THETA1, wavelengths=(370.0, 770.0, 2000.0), layers=2,
            alternating=True)
        cat = build_catalog(cfg, data_tables)
        assert all(abs(m.det() - 1.0) <= 1e-12 for m in cat.fixed.values())

    @pytest.mark.parametrize("alternating", [True, False])
    def test_layer_matrices_equal_scalar_matrices(self, data_tables, alternating):
        cfg = CatalogConfig(
            substrate="Tungsten", materials=("TiO2", "MgF2"),
            thicknesses=THETA1, wavelengths=(370.0, 770.0, 2000.0), layers=5,
            alternating=alternating)
        cat = build_catalog(cfg, data_tables)
        assert len(cat.layer_matrices) == cat.n_layers
        assert len({id(a) for a in cat.layer_matrices}) == (2 if alternating else 1)
        for arr, choices in zip(cat.layer_matrices, cat.layer_choices):
            assert arr.shape == (len(choices), len(cat.spectrum), 4)
            assert not arr.flags.writeable
            for j, (m, t) in enumerate(choices):
                for li, wl in enumerate(cat.spectrum.wavelengths):
                    n = ComplexIndex(index_at(data_tables[m], wl).re)
                    assert tuple(arr[j, li]) == make_transfer_matrix(n, t, wl).entries()
        with pytest.raises(ValueError):
            cat.layer_matrices[0][0, 0, 0] = 2.0

    @pytest.mark.parametrize("name, count", [
        ("mo_410_n6", 37), ("visible_n6_lambda40", 407), ("broad_n20_theta2", 533),
    ])
    def test_fixed_is_a_view_built_on_first_use(self, name, count):
        cfg = CatalogConfig.from_json(CONFIGS / f"{name}.json")
        cat = build_catalog(cfg, load_tables(cfg))
        assert "fixed" not in vars(cat)
        assert "fixed" not in {f.name for f in dataclasses.fields(Catalog)}
        assert len(cat.fixed) == count
        assert "fixed" in vars(cat)
        for choices, arr in zip(cat.layer_choices, cat.layer_matrices):
            for j, (m, t) in enumerate(choices):
                for li, wl in enumerate(cat.spectrum.wavelengths):
                    assert cat.matrix(m, t, wl).entries() == tuple(arr[j, li])

    def test_replaced_arrays_give_a_new_view_and_a_different_catalog(self, data_tables):
        cfg = CatalogConfig(
            substrate="Tungsten", materials=("TiO2", "MgF2"),
            thicknesses=THETA1, wavelengths=(410.0, 550.0), layers=3, alternating=True)
        cat = build_catalog(cfg, data_tables)
        m, t = cat.choices_at(1)[2]
        before = cat.matrix(m, t, 550.0)
        halved = dataclasses.replace(cat, layer_matrices=tuple(a / 2 for a in cat.layer_matrices))
        assert halved.matrix(m, t, 550.0).entries() == tuple(x / 2 for x in before.entries())
        assert cat.matrix(m, t, 550.0) == before
        assert halved != cat
        assert build_catalog(cfg, data_tables) != cat  # catalogs compare by identity

    def test_deterministic_construction(self, data_tables):
        cfg = CatalogConfig(
            substrate="Niobium", materials=("TiO2", "MgF2"),
            thicknesses=THETA1, wavelengths=(410.0, 550.0), layers=3, alternating=True)
        c1 = build_catalog(cfg, data_tables)
        c2 = build_catalog(cfg, data_tables)
        assert c1.layer_choices == c2.layer_choices
        assert len(c1.layer_matrices) == len(c2.layer_matrices) == 3
        for a1, a2 in zip(c1.layer_matrices, c2.layer_matrices):
            assert np.array_equal(a1, a2)

    def test_missing_dispersion(self, data_tables):
        cfg = CatalogConfig(
            substrate="Molybdenum", materials=("TiO2", "Unknowium"),
            thicknesses={"TiO2": (50.0,), "Unknowium": (50.0,)},
            wavelengths=(410.0,), layers=1)
        with pytest.raises(MissingDispersion):
            build_catalog(cfg, data_tables)

    def test_spectrum_coverage(self, data_tables):
        cfg = CatalogConfig(
            substrate="Molybdenum", materials=("TiO2", "MgF2"),
            thicknesses=THETA1, wavelengths=(200.0,), layers=1)
        with pytest.raises(SpectrumCoverage):
            build_catalog(cfg, data_tables)

    def test_lossy_coating_warns_and_forces_dielectric(self):
        tables = {"A": flat_table("A", 2.0, 2.0, 0.3, 0.3),
                  "S": flat_table("S", 3.0, 3.0, 2.0, 2.0)}
        cfg = CatalogConfig(substrate="S", materials=("A",),
                            thicknesses={"A": (50.0,)}, wavelengths=(500.0,), layers=1)
        with pytest.warns(UserWarning, match="extinction"):
            cat = build_catalog(cfg, tables)
        assert abs(cat.matrix("A", 50.0, 500.0).det() - 1.0) <= 1e-12

    def test_weights_normalized(self, data_tables):
        cfg = CatalogConfig(
            substrate="Molybdenum", materials=("TiO2", "MgF2"),
            thicknesses=THETA1, wavelengths=(410.0, 550.0), layers=1,
            weights=(2.0, 6.0))
        cat = build_catalog(cfg, data_tables)
        assert cat.spectrum.weights == (0.25, 0.75)


class TestCatalogConfigJson:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "substrate": "Molybdenum",
            "materials": ["TiO2", "MgF2"],
            "thicknesses": {"TiO2": {"start": 20, "step": 10, "end": 140},
                            "MgF2": [50, 60, 70]},
            "wavelengths": {"start": 370, "step": 40, "end": 770},
            "layers": 6,
            "alternating": True,
        }))
        cfg = CatalogConfig.from_json(p)
        assert cfg.thicknesses["TiO2"] == THETA1["TiO2"]
        assert cfg.thicknesses["MgF2"] == (50.0, 60.0, 70.0)
        assert len(cfg.wavelengths) == 11
        assert cfg.alternating

    def test_missing_key(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"substrate": "Molybdenum"}))
        with pytest.raises(ConfigError):
            CatalogConfig.from_json(p)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            CatalogConfig.from_json(p)

    def test_load_tables_missing_file(self, tmp_path):
        cfg = CatalogConfig(
            substrate="Nothingium", materials=("TiO2",),
            thicknesses={"TiO2": (50.0,)}, wavelengths=(500.0,), layers=1,
            dispersion_dir=tmp_path)
        with pytest.raises(MissingDispersion):
            load_tables(cfg)
