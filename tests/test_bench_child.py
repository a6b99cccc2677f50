"""The package surface that the benchmark's traced runs rely on.

``bench/child.py trace`` wraps filmopt functions by name and reads catalog
attributes, so removing or renaming one of them breaks ``bench/run.py
--trace 1``.  These runs go through it as the benchmark does.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def child(*args):
    # no bytecode, so the runs write nothing under bench/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), *map(str, args)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("op, spans", [
    (["setup", "configs/mo_410_n6.json"], []),
    (["cli", "optimize", "--config", "configs/mo_410_n6.json", "--out", "{out}", "--mode", "bnb"],
     ["solver.bnb"]),
    (["cli", "export", "--config", "configs/mo_410_n6.json", "--out", "{out}", "--kind", "misocp"],
     ["relax.hyperplanes", "model.build_misocp", "lpio.export_lp"]),
    (["cli", "heuristic", "--config", "configs/mo_410_n6.json", "--out", "{out}", "--targets", "410"],
     ["heuristics.quarter_wave_design", "heuristics.compare_methods"]),
], ids=["setup", "optimize-bnb", "export-misocp", "heuristic"])
def test_traced_run_exits_cleanly(tmp_path, op, spans):
    """The layers ``cli`` loads on first use are wrapped like the others."""
    trace = tmp_path / "trace.json"
    child("trace", trace, *(arg.format(out=tmp_path / "o") for arg in op))
    totals = json.loads(trace.read_text())["totals"]
    assert totals["materials.build_catalog"]["layer_matrices"] == 13 + 24
    assert {name: totals[name]["calls"] for name in spans} == dict.fromkeys(spans, 1)
    if op[1:2] == ["optimize"]:
        assert json.loads((tmp_path / "o" / "report.json").read_text())["proven_optimal"]
