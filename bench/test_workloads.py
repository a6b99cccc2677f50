"""Tests of the seeded workload generator.

    PYTHONPATH=src python3 -m pytest -q bench/test_workloads.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from filmopt.materials import CatalogConfig, build_catalog, load_tables  # noqa: E402


def catalog_of(config: dict, tmp_path: Path):
    path = tmp_path / "instance.json"
    path.write_text(workloads.config_text(config), encoding="utf-8")
    config = CatalogConfig.from_json(path)
    return build_catalog(config, load_tables(config))


@pytest.mark.parametrize(
    "workload, bundled", [("single-wl", "mo_410_n6.json"), ("export-broad", "broad_n20_theta2.json")]
)
def test_default_seed_reproduces_bundled_config_bytes(workload, bundled):
    text = workloads.config_text(workloads.make_config(workload, workloads.DEFAULT_SEED))
    assert text.encode("utf-8") == (ROOT / "configs" / bundled).read_bytes()


def test_multi_wl_changes_only_the_thickness_grids():
    generated = workloads.make_config("multi-wl", workloads.DEFAULT_SEED)
    bundled = json.loads((ROOT / "configs" / "visible_n6_lambda40.json").read_text(encoding="utf-8"))
    assert {k: v for k, v in generated.items() if k != "thicknesses"} == {
        k: v for k, v in bundled.items() if k != "thicknesses"
    }
    assert generated["thicknesses"] == {
        "TiO2": {"start": 20, "step": 20, "end": 140},
        "MgF2": {"start": 50, "step": 20, "end": 270},
    }


def test_multi_wl_design_count(tmp_path):
    catalog = catalog_of(workloads.make_config("multi-wl", workloads.DEFAULT_SEED), tmp_path)
    assert catalog.design_count() == 592_704


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_is_deterministic_and_other_seeds_give_other_valid_instances(workload, tmp_path):
    default = workloads.make_config(workload, workloads.DEFAULT_SEED)
    assert workloads.make_config(workload, 7) == workloads.make_config(workload, 7)
    others = [workloads.make_config(workload, seed) for seed in range(1, 20)]
    different = [c for c in others if c != default]
    assert different, "no seed in 1..19 changes the instance"
    substrates = workloads.WORKLOADS[workload].get("substrates", workloads.SUBSTRATES)
    assert {c["substrate"] for c in others} <= set(substrates)
    reference = catalog_of(default, tmp_path)
    catalog = catalog_of(different[0], tmp_path)
    assert catalog.substrate_id != reference.substrate_id
    assert catalog.design_count() == reference.design_count()
