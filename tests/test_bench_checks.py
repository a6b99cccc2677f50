"""The benchmark's scalar checks pass on correct outputs.

``bench/checks.py`` re-evaluates every benchmark result with
``Catalog.matrix`` and ``optics.chain_product``; a change to either that
made the checks reject correct output would fail every benchmark run.
These tests run the checks on real CLI output, as ``bench/run.py`` does.
"""
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import checks  # noqa: E402
from filmopt.cli import main  # noqa: E402

CONFIG = ROOT / "configs" / "mo_410_n6.json"


def test_brute_force_output_passes_check_solve(tmp_path):
    assert main(["optimize", "--config", str(CONFIG), "--out", str(tmp_path), "--mode", "brute"]) == 0
    catalog = checks.load_catalog(CONFIG)
    assert checks.check_solve(catalog, tmp_path, "single-wl", True) == []


def test_exported_hyperplanes_pass_check_hyperplanes(tmp_path):
    assert main(["hyperplanes", "--config", str(CONFIG), "--out", str(tmp_path)]) == 0
    catalog = checks.load_catalog(CONFIG)
    assert checks.check_hyperplanes(catalog, tmp_path, checks.random_designs(catalog, 20, seed=0)) == []


def test_bound_slack_ratios_are_finite_and_at_least_one():
    catalog = checks.load_catalog(CONFIG)
    slack = checks.bound_slack(catalog, checks.random_designs(catalog, 20, seed=0), (1, 3, 6))
    assert sorted(slack) == [1, 3, 6]
    assert all(math.isfinite(r) and r >= 1.0 for r in slack.values())
