import itertools
import json
import os
import random

import numpy as np
import pytest

from filmopt import bounds, lpio, materials, relax, solver
from filmopt.errors import (
    InconsistentBounds,
    InfeasibleAssignment,
    MissingHyperplanes,
    ParseError,
)
from filmopt.materials import CatalogConfig, build_catalog
from filmopt.model import (
    Model,
    Objective,
    build_miqcp,
    build_misocp,
    design_point,
    variable_map_text,
    x_name,
)

from conftest import (
    THETA1, enumerate_designs, flat_table, linear_constraint_count, models_close, random_catalog,
)


def desk_catalog(n_layers=3, wavelengths=(500.0, 650.0)):
    tables = {"A": flat_table("A", 2.5, 2.4), "B": flat_table("B", 1.4, 1.38),
              "S": flat_table("S", 3.2, 3.0, 3.4, 3.2)}
    cfg = CatalogConfig(substrate="S", materials=("A", "B"),
                        thicknesses={"A": (40.0, 80.0), "B": (90.0, 150.0)},
                        wavelengths=wavelengths, layers=n_layers)
    return build_catalog(cfg, tables)


class TestBuildMiqcp:
    def test_single_choice_model_forces_design(self):
        tables = {"A": flat_table("A", 2.5, 2.5), "S": flat_table("S", 3.0, 3.0, 2.0, 2.0)}
        cfg = CatalogConfig(substrate="S", materials=("A",),
                            thicknesses={"A": (70.0,)}, wavelengths=(500.0,), layers=1)
        cat = build_catalog(cfg, tables)
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        binaries = [v for v in m.variables if v.kind == "binary"]
        assert len(binaries) == 1
        point = design_point(cat, (("A", 70.0),))
        assert m.check_point(point) <= 1e-9
        _, avg = solver.evaluate_design((("A", 70.0),), cat)
        assert m.objective_value(point) == pytest.approx(avg, abs=1e-12)

    def test_binary_count_single_wavelength_six_layers(self, data_tables):
        cfg = CatalogConfig(
            substrate="Molybdenum", materials=("TiO2", "MgF2"),
            thicknesses=THETA1, wavelengths=(410.0,), layers=6, alternating=True)
        cat = build_catalog(cfg, data_tables)
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        binaries = [v for v in m.variables if v.kind == "binary"]
        assert len(binaries) == 3 * 13 + 3 * 24 == 111

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_constraint_count_formula(self, seed):
        cat, _ = random_catalog(random.Random(1200 + seed))
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        assert len(m.linear) == linear_constraint_count(cat)
        assert len(m.quadratic) == 2 * len(cat.spectrum)

    @pytest.mark.parametrize("seed", range(5))
    def test_every_design_satisfies_model(self, seed):
        cat, _ = random_catalog(random.Random(1300 + seed), max_layers=3, max_choices=4)
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        for design in enumerate_designs(cat):
            point = design_point(cat, design)
            assert m.check_point(point) <= 1e-8
            _, avg = solver.evaluate_design(design, cat)
            assert abs(m.objective_value(point) - avg) <= 1e-8

    def test_quadratics_tight_at_design_points(self):
        cat = desk_catalog()
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        qc = {q.name: q for q in m.quadratic}
        design = next(enumerate_designs(cat))
        point = design_point(cat, design)
        for li in range(len(cat.spectrum)):
            cone = qc[f"qc_cone_{li}"]
            lhs = sum(point[n1] * point[n2] * c for (n1, n2), c in cone.quad.items())
            assert lhs == pytest.approx(cone.rhs, rel=1e-12)  # f*d = 4 Re exactly
            cap = qc[f"qc_dcap_{li}"]
            lhs = point[f"d_{li}"] + sum(
                point[n1] * point[n2] * c for (n1, n2), c in cap.quad.items())
            assert lhs == pytest.approx(cap.rhs, rel=1e-9)  # d = D(w) exactly

    def test_mismatched_bounds_rejected(self):
        cat = desk_catalog(n_layers=2)
        other = desk_catalog(n_layers=3)
        with pytest.raises(InconsistentBounds):
            build_miqcp(cat, bounds.tighten_bounds(other))

    def test_validate_passes(self):
        cat = desk_catalog()
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        m.validate()


class TestBuildMisocp:
    def test_requires_hyperplanes(self):
        cat = desk_catalog()
        eb = bounds.tighten_bounds(cat)
        with pytest.raises(MissingHyperplanes):
            build_misocp(cat, eb, [[]] * len(cat.spectrum))
        with pytest.raises(MissingHyperplanes):
            build_misocp(cat, eb, [])

    def test_constant_fallback_gives_single_cap(self):
        cat = desk_catalog(wavelengths=(500.0,))
        eb = bounds.tighten_bounds(cat)
        box = relax.Box4.from_entry_bounds(eb, 0)
        h = relax.constant_overapproximator(box, cat.substrate_indices[0])
        m = build_misocp(cat, eb, [[h]])
        caps = [c for c in m.linear if c.name.startswith("c_hyp_")]
        assert len(caps) == 1
        assert caps[0].coeffs["d_0"] == -1.0
        assert caps[0].rhs == -h.a0

    def test_coefficient_wiring(self):
        cat = desk_catalog(wavelengths=(500.0,))
        eb = bounds.tighten_bounds(cat)
        h = relax.Hyperplane(10.0, 1.0, 2.0, 3.0, 4.0)
        m = build_misocp(cat, eb, [[h]])
        cap = next(c for c in m.linear if c.name == "c_hyp_0_0")
        assert cap.coeffs["w_0_11"] == 1.0
        assert cap.coeffs["w_0_22"] == 2.0
        assert cap.coeffs["w_0_12"] == 3.0
        assert cap.coeffs["w_0_21"] == 4.0

    @pytest.mark.parametrize("seed", range(4))
    def test_relaxation_accepts_every_design(self, seed):
        cat, _ = random_catalog(random.Random(1400 + seed), max_layers=3, max_choices=4)
        eb = bounds.tighten_bounds(cat)
        planes = relax.hyperplanes_for_catalog(cat, eb)
        m = build_misocp(cat, eb, planes)
        for design in enumerate_designs(cat):
            point = design_point(cat, design, overapproximators=planes)
            assert m.check_point(point) <= 1e-8

    def test_linear_count_is_structural_plus_hyperplanes(self):
        cat = desk_catalog()
        eb = bounds.tighten_bounds(cat)
        planes = relax.hyperplanes_for_catalog(cat, eb)
        m = build_misocp(cat, eb, planes)
        assert len(m.linear) == linear_constraint_count(cat) + sum(len(p) for p in planes)
        assert len(m.quadratic) == len(cat.spectrum)


class TestZeroLayers:
    def test_models_are_the_bare_identity(self, tmp_path):
        cat = desk_catalog(n_layers=0)
        eb = bounds.tighten_bounds(cat)
        planes = relax.hyperplanes_for_catalog(cat, eb)
        _, avg = solver.evaluate_design((), cat)
        for m, point in ((build_miqcp(cat, eb), design_point(cat, ())),
                         (build_misocp(cat, eb, planes), design_point(cat, (), planes))):
            for li in range(len(cat.spectrum)):
                rows = [(c.name, c.coeffs, c.sense, c.rhs) for c in m.linear
                        if c.name.startswith(f"c_final_{li}_")]
                assert rows == [
                    (f"c_final_{li}_{tag}", {f"w_{li}_{tag}": 1.0}, "=", rhs)
                    for tag, rhs in zip(("11", "12", "21", "22"), (1.0, 0.0, 0.0, 1.0))
                ]
            assert m.check_point(point) <= 1e-9
            assert m.objective_value(point) == pytest.approx(avg, abs=1e-12)
            p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
            lpio.export_lp(m, p1)
            lpio.export_lp(lpio.import_lp(p1), p2)
            assert p1.read_bytes() == p2.read_bytes()


class TestLpExport:
    def test_empty_model_is_header_and_end(self, tmp_path):
        path = tmp_path / "empty.lp"
        lpio.export_lp(Model(name="void"), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "\\ Model: void"
        assert lines[-1] == "End"
        assert all(l.startswith("\\") for l in lines[:-1])

    def test_cone_constraint_serialization(self, tmp_path):
        cat = desk_catalog(wavelengths=(500.0,))
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        path = tmp_path / "m.lp"
        lpio.export_lp(m, path)
        text = path.read_text()
        a = cat.substrate_indices[0].re
        assert f"qc_cone_0: [ 1 d_0 * f_0 ] >= {format(4*a, '.17g')}" in text

    def test_round_trip_desk(self, tmp_path):
        cat = desk_catalog()
        eb = bounds.tighten_bounds(cat)
        for build in (lambda: build_miqcp(cat, eb),
                      lambda: build_misocp(cat, eb, relax.hyperplanes_for_catalog(cat, eb))):
            m = build()
            p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
            lpio.export_lp(m, p1)
            m2 = lpio.import_lp(p1)
            assert models_close(m, m2)
            lpio.export_lp(m2, p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_deterministic_export(self, tmp_path):
        cat = desk_catalog()
        eb = bounds.tighten_bounds(cat)
        p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
        lpio.export_lp(build_miqcp(cat, eb), p1)
        lpio.export_lp(build_miqcp(cat, eb), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_back_counts(self, tmp_path):
        cat = desk_catalog()
        eb = bounds.tighten_bounds(cat)
        m = build_miqcp(cat, eb)
        path = tmp_path / "m.lp"
        lpio.export_lp(m, path)
        m2 = lpio.import_lp(path)
        assert len(m2.variables) == len(m.variables)
        assert len(m2.linear) == linear_constraint_count(cat)
        assert len(m2.quadratic) == 2 * len(cat.spectrum)

    def test_undeclared_variable_raises_and_writes_nothing(self, tmp_path):
        m = Model(name="bad", objective=Objective({"ghost": 1.0}))
        with pytest.raises(ValueError, match="undeclared"):
            lpio.export_lp(m, tmp_path / "model.lp")
        assert list(tmp_path.iterdir()) == []

    def test_imported_model_is_validated_before_writing(self, tmp_path):
        path = tmp_path / "in.lp"
        path.write_text("Maximize\n obj: 1 x\nSubject To\n c1: 1 x + 1 y <= 1\nBinaries\n x\nEnd\n")
        parsed = lpio.import_lp(path)  # y appears in no bounds line, so it is unbounded
        with pytest.raises(ValueError, match="finite bounds"):
            lpio.export_lp(parsed, tmp_path / "out.lp")
        assert not (tmp_path / "out.lp").exists()

    def test_blocks_join_to_the_one_string_text(self, tmp_path, monkeypatch):
        cat = desk_catalog()
        eb = bounds.tighten_bounds(cat)
        model = build_misocp(cat, eb, relax.hyperplanes_for_catalog(cat, eb))
        lpio.export_lp(model, tmp_path / "whole.lp")
        monkeypatch.setattr(lpio, "_BLOCK_LINES", 7)
        lpio.export_lp(model, tmp_path / "blocks.lp")
        assert (tmp_path / "blocks.lp").read_bytes() == (tmp_path / "whole.lp").read_bytes()
        text = (tmp_path / "whole.lp").read_text()
        assert text == "\n".join(lpio._lp_lines(model)) + "\n"

    def test_write_failing_mid_stream_leaves_no_file(self, tmp_path):
        def chunks():
            yield "first block\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            materials.write_atomic(tmp_path / "model.lp", chunks())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        cat = desk_catalog()
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        point = design_point(cat, tuple(c[0] for c in cat.layer_choices))

        def disk_full(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", disk_full)
        with pytest.raises(OSError, match="disk full"):
            lpio.export_lp(m, tmp_path / "model.lp")
        with pytest.raises(OSError, match="disk full"):
            lpio.write_solution(point, tmp_path / "solution.txt")
        assert list(tmp_path.iterdir()) == []

    def test_parse_error_on_garbage(self, tmp_path):
        p = tmp_path / "bad.lp"
        p.write_text("Subject To\n nonsense without sense\nEnd\n")
        with pytest.raises(ParseError):
            lpio.import_lp(p)

    @pytest.mark.parametrize("text", [
        "Subject To\n c1: 1 x <= abc\nEnd\n",
        "Subject To\n c1: 1 x <=\nEnd\n",
        "Maximize\n obj: 1 x\nBounds\n 0 <= x <= zz\nEnd\n",
        "Subject To\n c1: 1 x <= 3 junk 7\nEnd\n",
    ], ids=["non-numeric-rhs", "missing-rhs", "non-numeric-bound", "tokens-after-rhs"])
    def test_parse_error_on_bad_numbers(self, tmp_path, text):
        p = tmp_path / "bad.lp"
        p.write_text(text)
        with pytest.raises(ParseError):
            lpio.import_lp(p)

    def test_parse_error_on_non_utf8(self, tmp_path):
        p = tmp_path / "bad.lp"
        p.write_bytes(b"Subject To\n c1: 1 x <= 1\n \xff\xfe\nEnd\n")
        with pytest.raises(ParseError):
            lpio.import_lp(p)


class TestImportSolution:
    def test_hand_written_single_layer(self, tmp_path):
        tables = {"A": flat_table("A", 2.5, 2.5), "S": flat_table("S", 3.0, 3.0, 2.0, 2.0)}
        cfg = CatalogConfig(substrate="S", materials=("A",),
                            thicknesses={"A": (70.0, 90.0)}, wavelengths=(500.0,), layers=1)
        cat = build_catalog(cfg, tables)
        p = tmp_path / "sol.txt"
        p.write_text(f"{x_name(1, 'A', 90.0)} 1.0\n{x_name(1, 'A', 70.0)} 0.0\n")
        assert lpio.import_solution(p, cat) == (("A", 90.0),)

    def test_all_zero_binaries_infeasible(self, tmp_path):
        cat = desk_catalog(n_layers=1)
        p = tmp_path / "sol.txt"
        p.write_text("\n".join(f"{x_name(1, m, t)} 0.0" for m, t in cat.choices_at(1)) + "\n")
        with pytest.raises(InfeasibleAssignment):
            lpio.import_solution(p, cat)

    def test_double_selection_infeasible(self, tmp_path):
        cat = desk_catalog(n_layers=1)
        choices = cat.choices_at(1)
        p = tmp_path / "sol.txt"
        p.write_text(f"{x_name(1, *choices[0])} 1.0\n{x_name(1, *choices[1])} 0.9\n")
        with pytest.raises(InfeasibleAssignment):
            lpio.import_solution(p, cat)

    def test_round_trip_from_optimum(self, tmp_path):
        cat = desk_catalog()
        rep = solver.brute_force(cat)
        values = design_point(cat, rep.design)
        p = tmp_path / "sol.txt"
        lpio.write_solution(values, p)
        decoded = lpio.import_solution(p, cat)
        assert decoded == rep.design
        _, avg = solver.evaluate_design(decoded, cat)
        assert avg == pytest.approx(rep.objective, abs=1e-6)

    def test_parse_error_on_non_utf8(self, tmp_path):
        p = tmp_path / "sol.txt"
        p.write_bytes(b"x_1 \xff1\n")
        with pytest.raises(ParseError):
            lpio.import_solution(p, desk_catalog(n_layers=1))

    def test_rounding_at_half(self, tmp_path):
        cat = desk_catalog(n_layers=1)
        choices = cat.choices_at(1)
        lines = [f"{x_name(1, *choices[0])} 0.51"]
        lines += [f"{x_name(1, m, t)} 0.05" for m, t in choices[1:]]
        p = tmp_path / "sol.txt"
        p.write_text("\n".join(lines) + "\n")
        assert lpio.import_solution(p, cat) == (choices[0],)


class TestVariableMap:
    def test_bijective_and_complete(self):
        cat = desk_catalog()
        vm = json.loads(variable_map_text(cat))
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        mapped = set()
        for group in vm.values():
            for name in group:
                assert name not in mapped
                mapped.add(name)
        assert mapped == m.variable_names()
