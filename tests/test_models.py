import dataclasses
import itertools
import json
import os
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from filmopt import bounds, lpio, materials, relax, solver
from filmopt.arrayops import mul4
from filmopt.errors import (
    InadmissibleDesign,
    InconsistentBounds,
    InfeasibleAssignment,
    MissingHyperplanes,
    ParseError,
)
from filmopt.materials import CatalogConfig, build_catalog, invalid_name
from filmopt.model import (
    ENTRY_TAGS,
    LinearRows,
    Model,
    Objective,
    QuadraticConstraint,
    Variables,
    _labels,
    build_miqcp,
    build_misocp,
    design_point,
    variable_map_pieces,
    w_name,
    x_name,
)
from filmopt.optics import StructuredMatrix, chain_product, reflectance

from conftest import (
    THETA1, enumerate_designs, flat_table, linear_constraint_count, linear_rows, models_close, random_catalog,
    reference_lp_text, single_wavelength_config,
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
        assert m.variables.binary.sum() == 1
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
        assert m.variables.binary.sum() == 3 * 13 + 3 * 24 == 111

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

    @pytest.mark.parametrize("value", [0.125, -0.125], ids=["above-c_ub", "below-c_lb"])
    def test_check_point_returns_a_gate_violation(self, value):
        cat = desk_catalog()
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        design = next(enumerate_designs(cat))
        point = design_point(cat, design)
        assert m.check_point(point) == 0.0
        # An unpicked choice's copy is gated to 0, so moving it by 0.125 breaks its c_ub or
        # c_lb row by exactly 0.125.  The layer-1 copies sum to the identity exactly, and no
        # chain coefficient on this copy is 1 or more, so no other row is broken by more.
        unpicked = next(j for j, choice in enumerate(cat.choices_at(1)) if choice != design[0])
        point[f"v_0_{_labels(cat)[0][unpicked]}_11"] = value
        assert m.check_point(point) == 0.125

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
        m = build_misocp(cat, eb, [h])
        caps = [(coeffs, rhs) for name, coeffs, _, rhs in linear_rows(m) if name.startswith("c_hyp_")]
        assert len(caps) == 1
        coeffs, rhs = caps[0]
        assert coeffs["d_0"] == -1.0
        assert rhs == -h[0, 0]

    def test_coefficient_wiring(self):
        cat = desk_catalog(wavelengths=(500.0,))
        eb = bounds.tighten_bounds(cat)
        m = build_misocp(cat, eb, [np.array([[10.0, 1.0, 2.0, 3.0, 4.0]])])
        cap = next(coeffs for name, coeffs, _, _ in linear_rows(m) if name == "c_hyp_0_0")
        assert cap["w_0_11"] == 1.0
        assert cap["w_0_22"] == 2.0
        assert cap["w_0_12"] == 3.0
        assert cap["w_0_21"] == 4.0

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


class TestDesignPoint:
    @pytest.mark.parametrize("change", ["extra-layer", "low-index-at-layer-1", "short", "unknown-pair"])
    def test_inadmissible_design_rejected(self, data_tables, change):
        cat = build_catalog(single_wavelength_config("Molybdenum", 410.0), data_tables)
        design = tuple(c[0] for c in cat.layer_choices)
        assert cat.choices_at(1)[0][0] == "TiO2" and cat.choices_at(2)[0][0] == "MgF2"
        bad = {
            "extra-layer": design + (cat.choices_at(1)[3],),
            "low-index-at-layer-1": (cat.choices_at(2)[0], *design[1:]),
            "short": design[:-1],
            "unknown-pair": (("TiO2", 25.0), *design[1:]),
        }[change]
        with pytest.raises(InadmissibleDesign):
            design_point(cat, bad)
        with pytest.raises(InadmissibleDesign):
            solver.evaluate_design(bad, cat)

    @pytest.mark.parametrize("families", ["none", "all-empty", "one", "one-extra"])
    def test_hyperplane_families_checked_as_in_build_misocp(self, families):
        """One nonempty family per wavelength, or MissingHyperplanes from both."""
        config = CatalogConfig.from_json(Path(__file__).resolve().parents[1] / "configs" / "visible_n6_lambda40.json")
        cat = build_catalog(config, materials.load_tables(config))
        count = len(cat.spectrum)
        assert count == 11
        plane = np.array([[10.0, 0.0, 0.0, 0.0, 0.0]])
        planes = {
            "none": [],
            "all-empty": [np.zeros((0, 5))] * count,
            "one": [plane],
            "one-extra": [plane] * (count + 1),
        }[families]
        design = tuple(c[0] for c in cat.layer_choices)
        with pytest.raises(MissingHyperplanes):
            design_point(cat, design, planes)
        with pytest.raises(MissingHyperplanes):
            build_misocp(cat, bounds.tighten_bounds(cat), planes)
        design_point(cat, design, [plane] * count)  # one nonempty family per wavelength passes

    def test_points_follow_the_layer_arrays(self, data_tables):
        """A fixed layer product P folded into layer 1's array is part of every design."""
        config = single_wavelength_config("Tungsten", 410.0)
        cat = build_catalog(dataclasses.replace(config, wavelengths=(410.0, 550.0, 700.0)), data_tables)
        m0, *rest = cat.layer_matrices
        p = mul4(cat.layer_matrices[1][4], cat.layer_matrices[0][7])  # (wavelengths, 4)
        folded = dataclasses.replace(cat, layer_matrices=(mul4(p, m0), *rest))
        design = tuple(c[len(c) // 2] for c in cat.layer_choices)
        per, avg = solver.evaluate_design(design, folded)
        point = design_point(folded, design)
        for li, wl in enumerate(cat.spectrum.wavelengths):
            chain = [StructuredMatrix(*p[li]), *(cat.matrix(m, t, wl) for m, t in design)]
            w = chain_product(chain)
            assert per[li] == reflectance(w, cat.substrate_indices[li])
            assert tuple(point[w_name(li, tag)] for tag in ENTRY_TAGS) == w.entries()
            # the copies entering layer 2 hold P times layer 1's pick
            label = _labels(cat)[1][cat.layer_choices[1].index(design[1])]
            entering = chain_product(chain[:2]).entries()
            assert tuple(point[f"v_{li}_{label}_{tag}"] for tag in ENTRY_TAGS) == entering
        assert per != solver.evaluate_design(design, cat)[0]
        model = build_miqcp(folded, bounds.tighten_bounds(folded))
        assert model.check_point(point) <= 1e-9
        assert model.objective_value(point) == pytest.approx(avg, abs=1e-12)


class TestZeroLayers:
    def test_models_are_the_bare_identity(self, tmp_path):
        cat = desk_catalog(n_layers=0)
        eb = bounds.tighten_bounds(cat)
        planes = relax.hyperplanes_for_catalog(cat, eb)
        _, avg = solver.evaluate_design((), cat)
        for m, point in ((build_miqcp(cat, eb), design_point(cat, ())),
                         (build_misocp(cat, eb, planes), design_point(cat, (), planes))):
            for li in range(len(cat.spectrum)):
                rows = [row for row in linear_rows(m) if row[0].startswith(f"c_final_{li}_")]
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


X, Y = ("x", 0.0, 1.0, False), ("y", 0.0, 1.0, False)
coefficients = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                     -1.7976931348623157e308, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
senses = st.sampled_from(["<=", ">=", "="])
# names LP text can carry; a section keyword such as "end" matches the patterns but is no name
row_names = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(lambda n: invalid_name([n]) is None)
variable_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,4}", fullmatch=True).filter(
    lambda n: invalid_name([n]) is None)


def small_model(variables, rows=(), quadratic=(), objective=None, name="m", comments=()) -> Model:
    """A model from `variables` as ``(name, lower, upper, binary)`` and `rows` as ``(name, terms, sense, rhs)``.

    The terms of a row are ``(column, coefficient)`` pairs, the column an index into `variables`.
    """
    names, lower, upper, binary = (tuple(v[k] for v in variables) for k in range(4))
    terms = [term for row in rows for term in row[1]]
    linear = LinearRows(names, tuple(row[0] for row in rows), np.cumsum([0, *(len(row[1]) for row in rows)]),
                        np.array([c for c, _ in terms], np.intp), np.array([v for _, v in terms], float),
                        np.array([row[2] for row in rows], str), np.array([row[3] for row in rows], float))
    variables = Variables(names, np.array(lower, float), np.array(upper, float), np.array(binary, bool))
    return Model(name, variables, linear, quadratic, objective, comments)


@st.composite
def lp_models(draw):
    """Small valid models: binary and bounded continuous variables, linear and quadratic rows."""
    names = draw(st.lists(variable_names, min_size=1, max_size=8, unique=True))
    variables = [
        (n, 0.0, 1.0, True) if draw(st.booleans())
        else (n, *sorted(draw(st.tuples(coefficients, coefficients))), False)
        for n in names
    ]
    columns = st.dictionaries(st.integers(0, len(names) - 1), coefficients, max_size=12)
    terms = st.dictionaries(st.sampled_from(names), coefficients, max_size=12)
    pairs = st.tuples(st.sampled_from(names), st.sampled_from(names))
    # row names are unique across the linear and quadratic rows
    rows = draw(st.lists(row_names, max_size=6, unique=True))
    split = draw(st.integers(0, len(rows)))
    linear = [(row, list(draw(columns).items()), draw(senses), draw(coefficients)) for row in rows[:split]]
    quadratic = [
        QuadraticConstraint(row, draw(st.dictionaries(pairs, coefficients, min_size=1, max_size=4)),
                            draw(terms), draw(senses), draw(coefficients))
        for row in rows[split:]
    ]
    objective = Objective(draw(terms), draw(coefficients), draw(st.sampled_from(["max", "min"])))
    return small_model(variables, linear, quadratic, objective, draw(row_names))


class TestLpExport:
    def test_empty_model_is_header_and_end(self, tmp_path):
        path = tmp_path / "empty.lp"
        lpio.export_lp(small_model([], name="void"), path)
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
        m = small_model([], objective=Objective({"ghost": 1.0}), name="bad")
        with pytest.raises(ValueError, match="undeclared"):
            lpio.export_lp(m, tmp_path / "model.lp")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model", [
        small_model([X], objective=Objective({"x": float("nan")})),
        small_model([X], objective=Objective({"x": 1.0}, float("inf"))),
        small_model([X], [("c1", [(0, float("-inf"))], "<=", 1.0)]),
        small_model([X], [("c1", [(0, 1.0)], "<=", float("nan"))]),
        small_model([X], quadratic=[QuadraticConstraint("q1", {("x", "x"): float("inf")}, {}, "<=", 1.0)]),
    ], ids=["objective-coefficient", "objective-constant", "linear-coefficient", "rhs",
            "quadratic-coefficient"])
    def test_non_finite_numbers_raise_and_write_nothing(self, model, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            lpio.export_lp(model, tmp_path / "model.lp")
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_row_names_raise_and_write_nothing(self, tmp_path):
        model = small_model([X, Y], [("c1", [(0, 1.0)], "<=", 1.0), ("c1", [(1, 1.0)], "<=", 1.0)],
                            [QuadraticConstraint("c1", {("x", "y"): 1.0}, {}, "<=", 1.0)])
        with pytest.raises(ValueError, match="c1: duplicate row name"):
            lpio.export_lp(model, tmp_path / "model.lp")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("model", [
        small_model([X], [("c1", [(0, 1.0)], "<", 1.0)]),
        small_model([X], quadratic=[QuadraticConstraint("q1", {("x", "x"): 1.0}, {}, "=<", 1.0)]),
        small_model([X], [("c:1", [(0, 1.0)], "<=", 1.0)]),
        small_model([("1x", 0.0, 1.0, False)], [("c1", [(0, 1.0)], "<=", 1.0)]),
        small_model([("x y", 0.0, 1.0, False)], [("c1", [(0, 1.0)], "<=", 1.0)]),
        small_model([("End", 0.0, 1.0, True)], [("c1", [(0, 1.0)], "<=", 1.0)]),
        small_model([X], [("", [(0, 1.0)], "<=", 1.0)]),
        small_model([("subject", 0.0, 1.0, True), ("to", 0.0, 1.0, True)]),
        small_model([X], name="m\nEnd"),
        small_model([X], name="m\rEnd"),
        small_model([X], name="m\u2028End"),
        small_model([X], comments=["a\nb"]),
        small_model([X], name=" m"),
        small_model([X], name=""),
    ], ids=["sense-<", "quadratic-sense", "row-c:1", "variable-1x", "variable-x-y", "binary-End",
            "empty-row-name", "binaries-subject-to", "model-name-LF", "model-name-CR", "model-name-U+2028",
            "comment-LF", "model-name-leading-space", "empty-model-name"])
    def test_what_lp_cannot_read_back_raises_and_writes_nothing(self, model, tmp_path):
        with pytest.raises(ValueError, match="sense|not a name"):
            lpio.export_lp(model, tmp_path / "model.lp")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("names, bad", [
        (["x", "c 1", "y"], "c 1"), (["x", "a\tb"], "a\tb"), (["x", "a\nb"], "a\nb"), (["x", "y:z"], "y:z"),
        (["x", ""], ""), (["", "x"], ""), (["x", "-y"], "-y"), (["x", "[y"], "[y"), (["x", "BOUNDS"], "BOUNDS"),
        (["x", "maximize"], "maximize"), (["x", "\u00e9", "1\u00e9"], "1\u00e9"), (["x", "a\xa0b"], "a\xa0b"),
        (["x", "end_1", "subject", "obj", "\u00e9"], "subject"), (["x", "to"], None), ([], None),
    ])
    def test_invalid_name_finds_the_first_name_lp_cannot_carry(self, names, bad):
        assert invalid_name(names) == bad

    def test_finite_numbers_with_an_overflowing_sum_pass(self):
        small_model([X, Y], [("c1", [(0, 1e308), (1, 1e308)], "<=", 1e308)]).validate()

    def test_rows_over_an_equal_but_distinct_names_tuple_rejected(self):
        variables = Variables(("x",), np.zeros(1), np.ones(1), np.zeros(1, bool))
        names = tuple(list(variables.names))
        assert names == variables.names and names is not variables.names
        empty = (np.zeros(1, np.intp), np.zeros(0, np.intp), np.zeros(0), np.zeros(0, str), np.zeros(0))
        with pytest.raises(ValueError, match="other than the model's"):
            Model("m", variables, LinearRows(names, (), *empty))
        assert Model("m", variables, LinearRows(variables.names, (), *empty)).linear.columns is variables.names

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
        "Subject To\n q1: - [ 2 x ^ 2 ] <= 1\nEnd\n",
        "Subject To\n q1: [ 1 x * ] <= 1\nEnd\n",
        "Subject To\n c1: 3 4 x <= 1\nEnd\n",
        "Subject To\n q1: [ 1 x ^ 2 <= 1\nEnd\n",
        "Maximize\n obj: x + nan\nEnd\n",
        "Subject To\n c1: x + 1e999 <= 3\nEnd\n",
        "Subject To\n c1: -inf x <= 3\nEnd\n",
        "Subject To\n q1: [ nan x ^ 2 ] <= 1\nEnd\n",
        "Subject To\n c1: x <= nan\nEnd\n",
        "Subject To\n c1: x >= -inf\nEnd\n",
        "Bounds\n nan <= x <= 1\nEnd\n",
        "Subject To\n : x <= 1\nEnd\n",
        "Subject To\n c1: x + bounds <= 1\nEnd\n",
        "Bounds\n 0 <= x:y <= 1\nEnd\n",
        "Binaries\n x 2y\nEnd\n",
    ], ids=["non-numeric-rhs", "missing-rhs", "non-numeric-bound", "tokens-after-rhs",
            "minus-before-bracket", "star-without-name", "number-as-name", "unclosed-bracket",
            "nan-constant", "inf-constant", "inf-coefficient", "nan-quadratic-coefficient",
            "nan-rhs", "inf-rhs", "nan-bound", "empty-row-name", "keyword-as-name", "colon-in-name",
            "binary-starting-like-a-number"])
    def test_parse_error_on_bad_numbers(self, tmp_path, text):
        p = tmp_path / "bad.lp"
        p.write_text(text)
        with pytest.raises(ParseError):
            lpio.import_lp(p)

    def test_missing_coefficient_is_one(self, tmp_path):
        p = tmp_path / "implicit.lp"
        p.write_text("Maximize\n obj: x\nSubject To\n c1: x + y <= 1\n c2: - x >= -3\n"
                     " q1: y + [ x * y - x ^ 2 ] <= 2\nEnd\n")
        m = lpio.import_lp(p)
        assert m.objective.coeffs == {"x": 1.0}
        assert linear_rows(m) == [
            ("c1", {"x": 1.0, "y": 1.0}, "<=", 1.0), ("c2", {"x": -1.0}, ">=", -3.0)]
        (q,) = m.quadratic
        assert (q.lin, q.quad) == ({"y": 1.0}, {("x", "y"): 1.0, ("x", "x"): -1.0})

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lp_models())
    def test_random_models_round_trip_exactly(self, tmp_path, model):
        p1, p2 = tmp_path / "a.lp", tmp_path / "b.lp"
        lpio.export_lp(model, p1)
        # signed zeros, wrapped rows and empty rows print as the token-at-a-time writer prints them
        assert p1.read_bytes() == reference_lp_text(model).encode()
        parsed = lpio.import_lp(p1)
        assert models_close(model, parsed, rtol=0)
        lpio.export_lp(parsed, p2)
        assert p1.read_bytes() == p2.read_bytes()

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_parse_error_on_non_finite_value(self, tmp_path, value):
        cat = desk_catalog(n_layers=1)
        p = tmp_path / "sol.txt"
        p.write_text(f"{x_name(1, *cat.choices_at(1)[0])} {value}\n")
        with pytest.raises(ParseError):
            lpio.import_solution(p, cat)

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
        vm = json.loads("".join(variable_map_pieces(cat)))
        m = build_miqcp(cat, bounds.tighten_bounds(cat))
        mapped = set()
        for group in vm.values():
            for name in group:
                assert name not in mapped
                mapped.add(name)
        assert mapped == set(m.variables.names)
