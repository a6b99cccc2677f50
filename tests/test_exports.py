"""The LP writer and varmap.json, byte for byte against the reference writers in conftest."""
import dataclasses
import functools
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filmopt import bounds, lpio, materials, relax
from filmopt.materials import CatalogConfig, build_catalog
from filmopt.model import build_miqcp, build_misocp, variable_map_pieces

from conftest import LP_MAX_LINE, flat_table, reference_lp_text, reference_wrap, variable_map

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def bundled(name: str, **changes) -> CatalogConfig:
    return dataclasses.replace(CatalogConfig.from_json(CONFIGS / f"{name}.json"), **changes)


INSTANCES = {
    "mo_410_n6": lambda: bundled("mo_410_n6"),
    "visible_n6_lambda40": lambda: bundled("visible_n6_lambda40"),
    "broad_tungsten": lambda: bundled("broad_n20_theta2", substrate="Tungsten"),
    "zero_layers": lambda: bundled("mo_410_n6", layers=0),
    "fractional": lambda: CatalogConfig(
        substrate="Tantalum", materials=("TiO2", "MgF2"),
        thicknesses={"TiO2": (12.5, 40.25, 101.75), "MgF2": (80.5, 140.0)},
        wavelengths=(410.5, 550.0, 700.25), layers=4, alternating=True),
}


@functools.cache
def instance(name: str):
    config = INSTANCES[name]()
    catalog = build_catalog(config, materials.load_tables(config))
    return catalog, bounds.tighten_bounds(catalog)


@functools.cache
def exported_model(name: str, kind: str):
    catalog, eb = instance(name)
    if kind == "miqcp":
        return build_miqcp(catalog, eb)
    return build_misocp(catalog, eb, relax.hyperplanes_for_catalog(catalog, eb))


@pytest.mark.parametrize("kind", ["miqcp", "misocp"])
@pytest.mark.parametrize("name", INSTANCES)
def test_lp_file_matches_reference(name, kind, tmp_path):
    model = exported_model(name, kind)
    lpio.export_lp(model, tmp_path / "model.lp")
    assert (tmp_path / "model.lp").read_bytes() == reference_lp_text(model).encode()


@pytest.mark.parametrize("name", INSTANCES)
def test_varmap_matches_json_dumps(name):
    catalog, _ = instance(name)
    assert "".join(variable_map_pieces(catalog)) == json.dumps(variable_map(catalog), indent=2) + "\n"


def test_varmap_escapes_names_and_keeps_number_forms():
    """Quotes, backslashes and non-ASCII names are escaped; int and float numbers keep their form."""
    tables = {"Tiö₂": flat_table("Tiö₂", 2.4, 2.3), 'Mg"F\\2': flat_table('Mg"F\\2', 1.4, 1.38),
              "S": flat_table("S", 3.2, 3.0, 3.4, 3.2)}
    config = CatalogConfig(substrate="S", materials=("Tiö₂", 'Mg"F\\2'),
                           thicknesses={"Tiö₂": (12.5, 20), 'Mg"F\\2': (1e-3, 90.0)},
                           wavelengths=(500, 612.5), layers=3)
    catalog = build_catalog(config, tables)
    assert "".join(variable_map_pieces(catalog)) == json.dumps(variable_map(catalog), indent=2) + "\n"


token = st.one_of(
    st.text(st.sampled_from("x_19.+-e[]*^:"), min_size=1, max_size=12),
    st.builds(lambda ch, n: ch * n, st.sampled_from("ab7"), st.integers(1, 250)),
)
prefix = st.one_of(
    st.sampled_from([" ", " obj:", " c_ub_0_1_TiO2_20_11:"]),
    st.builds(lambda n: f" {'c' * n}:", st.integers(150, 260)),
)


class TestWrap:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(token, min_size=1, max_size=60), prefix)
    @example(["a" * 250], " ")
    @example(["a" * 250, "b"], " ")
    @example(["b", "a" * 250, "c"], " obj:")
    @example(["a" * (LP_MAX_LINE - 6)], " obj:")
    @example(["a" * (LP_MAX_LINE - 5)], " obj:")
    @example(["a"] * 150, " ")
    @example(["x"], f" {'c' * 220}:")
    def test_matches_token_loop(self, tokens, first_prefix):
        assert lpio._wrap(" ".join(tokens), first_prefix) == reference_wrap(tokens, first_prefix)
