"""Input parsers raise only FilmoptError subclasses, and the CLI exits 1 on them."""
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from filmopt import cli, lpio, solver
from filmopt.errors import ConfigError, FilmoptError, ParseError
from filmopt.materials import CatalogConfig

from conftest import THETA1

VALID = {
    "substrate": "Molybdenum",
    "materials": ["TiO2", "MgF2"],
    "thicknesses": {"TiO2": {"start": 20, "step": 10, "end": 140}, "MgF2": [50, 60]},
    "wavelengths": {"start": 370, "step": 40, "end": 770},
    "layers": 2,
    "alternating": True,
    "weights": [1] * 11,
}
DESIGN = [{"material": "TiO2", "thickness_nm": 40}, {"material": "MgF2", "thickness_nm": 90}]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# where one arbitrary value replaces part of a valid config
config_slots = st.sampled_from([
    ("substrate",), ("materials",), ("materials", 0), ("thicknesses",), ("thicknesses", "TiO2"),
    ("thicknesses", "TiO2", "step"), ("thicknesses", "MgF2", 1), ("wavelengths",),
    ("wavelengths", "end"), ("layers",), ("alternating",), ("weights",), ("weights", 3),
    ("dispersion_dir",), ("extra",),
])
fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def with_value(obj, slot, value):
    obj = json.loads(json.dumps(obj))
    *path, last = slot
    target = obj
    for key in path:
        target = target[key]
    target[last] = value
    return obj


def only_filmopt_errors(parse, *args):
    try:
        return parse(*args)
    except FilmoptError:
        return None


class TestConfigJson:
    @fuzz
    @given(config_slots, json_values)
    def test_arbitrary_value_per_key(self, tmp_path, slot, value):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(with_value(VALID, slot, value)))
        cfg = only_filmopt_errors(CatalogConfig.from_json, p)
        if cfg is not None:
            assert all(isinstance(m, str) for m in cfg.materials)
            assert all(math.isfinite(w) for w in cfg.wavelengths)
            assert isinstance(cfg.layers, int) and isinstance(cfg.alternating, bool)

    @fuzz
    @given(st.binary(max_size=64))
    def test_random_bytes(self, tmp_path, data):
        p = tmp_path / "cfg.json"
        p.write_bytes(data)
        only_filmopt_errors(CatalogConfig.from_json, p)

    @pytest.mark.parametrize("slot, value, error", [
        ((), [], ParseError),
        (("thicknesses",), [50, 60], ConfigError),
        (("wavelengths",), None, ConfigError),
        (("thicknesses", "TiO2", "step"), "ten", ConfigError),
        (("thicknesses", "TiO2", "step"), 1e-300, ConfigError),
        (("layers",), "abc", ConfigError),
        (("thicknesses", "MgF2", 1), "sixty", ConfigError),
        (("wavelengths", "end"), float("nan"), ConfigError),
    ], ids=["top-level-list", "thicknesses-list", "wavelengths-null", "step-text",
            "step-tiny", "layers-text", "thickness-text", "end-nan"])
    def test_malformed_values(self, tmp_path, slot, value, error):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(value if not slot else with_value(VALID, slot, value)))
        with pytest.raises(error):
            CatalogConfig.from_json(p)

    def test_non_utf8(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_bytes(b'{"substrate": "\xff"}')
        with pytest.raises(ParseError):
            CatalogConfig.from_json(p)

    def test_valid_values_unchanged(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(VALID))
        cfg = CatalogConfig.from_json(p)
        assert cfg.thicknesses["TiO2"] == THETA1["TiO2"]
        assert cfg.thicknesses["MgF2"] == (50.0, 60.0)
        assert cfg.weights == (1.0,) * 11


LP_TOKENS = ["Maximize", "Minimize", "Subject To", "Bounds", "Binaries", "End", "\\ Model: m", "\\",
             "obj:", "c1:", ":", "+", "-", "[", "]", "*", "^", "2", "0", "1.5", "-3", "1e999", "inf",
             "nan", "x", "y_1", "<=", ">=", "=", "\n", "\n ", "\n  "]


class TestLpText:
    @fuzz
    @given(st.lists(st.sampled_from(LP_TOKENS) | st.text(max_size=4), max_size=40))
    def test_token_soup(self, tmp_path, tokens):
        p = tmp_path / "model.lp"
        p.write_text(" ".join(tokens), encoding="utf-8")
        model = only_filmopt_errors(lpio.import_lp, p)
        if model is not None:
            assert all(name[0] not in "0123456789.+-[]*^<>=" for name in model.variables.names)


class TestCatalogSize:
    def test_huge_layer_count_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(VALID, layers=1_000_000_000)))
        assert cli.main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "layer choices" in capsys.readouterr().err


class TestDesignJson:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_design_from_json_arbitrary_value(self, value):
        design = only_filmopt_errors(solver.design_from_json, value)
        if design is not None:
            assert all(isinstance(m, str) and math.isfinite(t) and t >= 0 for m, t in design)

    @fuzz
    @given(st.binary(max_size=64))
    def test_read_design_random_bytes(self, tmp_path, data):
        p = tmp_path / "design.json"
        p.write_bytes(data)
        only_filmopt_errors(cli._read_design, p)

    @pytest.mark.parametrize("items", [
        [{"material": "TiO2"}],
        [["TiO2", 40]],
        [{"material": 7, "thickness_nm": 40}],
        [{"material": "TiO2", "thickness_nm": "forty"}],
        [{"material": "TiO2", "thickness_nm": -40}],
        {"material": "TiO2", "thickness_nm": 40},
    ], ids=["no-thickness", "item-list", "material-number", "thickness-text", "thickness-negative",
            "not-a-list"])
    def test_malformed_items(self, items):
        with pytest.raises((ParseError, ConfigError)):
            solver.design_from_json(items)

    def test_round_trip(self):
        assert solver.design_from_json(DESIGN) == (("TiO2", 40.0), ("MgF2", 90.0))


class TestCliExitCodes:
    def run_evaluate(self, tmp_path, config, design_bytes):
        cfg, design = tmp_path / "cfg.json", tmp_path / "design.json"
        cfg.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        design.write_bytes(design_bytes)
        return cli.main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                         "--design", str(design)])

    @pytest.mark.parametrize("config, design", [
        (dict(VALID, layers="abc"), json.dumps(DESIGN).encode()),
        (dict(VALID, wavelengths=[], weights=None), json.dumps(DESIGN).encode()),
        (VALID, b'[{"material": "TiO2", "thickness_nm": 40}] \xff'),
        (VALID, b'[{"material": "TiO2"}]'),
        (VALID, b'[{"material": "TiO2", "thickness_nm": -40}]'),
        (VALID, b"[" * 100_000),
        (b'{"layers": ' + b"[" * 100_000, json.dumps(DESIGN).encode()),
    ], ids=["config-layers-text", "config-no-wavelengths", "design-non-utf8",
            "design-no-thickness", "design-negative-thickness", "design-nested-too-deep", "config-nested-too-deep"])
    def test_bad_input_exits_1(self, tmp_path, capsys, config, design):
        assert self.run_evaluate(tmp_path, config, design) == 1
        assert "internal error" not in capsys.readouterr().err

    def test_valid_input_exits_0(self, tmp_path):
        assert self.run_evaluate(tmp_path, VALID, json.dumps(DESIGN).encode()) == 0
