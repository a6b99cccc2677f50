import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import filmopt
from filmopt import lpio, model as model_mod, solver
from filmopt.cli import main
from filmopt.errors import InternalError

CONFIG = {
    "substrate": "Molybdenum",
    "materials": ["TiO2", "MgF2"],
    "thicknesses": {"TiO2": [40, 100], "MgF2": [80, 140]},
    "wavelengths": [410, 550],
    "layers": 3,
    "alternating": True,
}


@pytest.fixture()
def config_path(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(CONFIG))
    return p


def run(*args):
    return main([str(a) for a in args])


class TestOptimize:
    def test_brute_and_bnb_agree(self, config_path, tmp_path):
        out_b = tmp_path / "brute"
        out_n = tmp_path / "bnb"
        assert run("optimize", "--config", config_path, "--out", out_b, "--mode", "brute") == 0
        assert run("optimize", "--config", config_path, "--out", out_n, "--mode", "bnb") == 0
        rb = json.loads((out_b / "report.json").read_text())
        rn = json.loads((out_n / "report.json").read_text())
        assert abs(rb["objective"] - rn["objective"]) <= 1e-10
        assert rb["design"] == rn["design"]
        assert rb["proven_optimal"] and rn["proven_optimal"]

    def test_bnb_under_optimize_flag_matches_plain_run(self, config_path, tmp_path):
        # `python -O` strips assert statements; the solver's invariant checks
        # must not depend on them
        env = dict(os.environ, PYTHONPATH=str(Path(filmopt.__file__).parents[1]))
        designs = []
        for flags in ([], ["-O"]):
            out = tmp_path / f"bnb{len(flags)}"
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "filmopt.cli", "optimize", "--config",
                 str(config_path), "--out", str(out), "--mode", "bnb"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            designs.append((out / "design.json").read_text())
        assert designs[0] == designs[1]

    def test_instance_too_large_exit_2(self, tmp_path):
        cfg = dict(CONFIG, layers=40, thicknesses={"TiO2": list(range(20, 141, 10)),
                                                   "MgF2": list(range(50, 281, 10))})
        p = tmp_path / "big.json"
        p.write_text(json.dumps(cfg))
        assert run("optimize", "--config", p, "--out", tmp_path / "o") == 2


class TestEvaluate:
    def test_empty_design_gives_uncoated_curve(self, config_path, tmp_path):
        design = tmp_path / "design.json"
        design.write_text("[]")
        out = tmp_path / "eval"
        assert run("evaluate", "--config", config_path, "--design", design, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["visible_average"] == pytest.approx(0.570, abs=0.02)
        assert summary["broad_average"] == pytest.approx(0.826, abs=0.02)
        with open(out / "spectrum.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["wavelength_nm", "reflectance"]
        assert float(rows[1][0]) == 300.0

    def test_optimized_design_round_trip(self, config_path, tmp_path):
        out1 = tmp_path / "opt"
        run("optimize", "--config", config_path, "--out", out1)
        out2 = tmp_path / "eval"
        assert run("evaluate", "--config", config_path,
                   "--design", out1 / "design.json", "--out", out2) == 0
        assert (out2 / "spectrum.csv").exists()

    def test_grid_refinement_stability(self, config_path, tmp_path):
        design = tmp_path / "design.json"
        design.write_text("[]")
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        run("evaluate", "--config", config_path, "--design", design, "--out", out1,
            "--grid", "380:10:770")
        run("evaluate", "--config", config_path, "--design", design, "--out", out2,
            "--grid", "380:5:770")
        r1 = [float(r[1]) for r in list(csv.reader(open(out1 / "spectrum.csv")))[1:]]
        r2 = [float(r[1]) for r in list(csv.reader(open(out2 / "spectrum.csv")))[1:]]
        avg1 = sum(r1) / len(r1)
        avg2 = sum(r2) / len(r2)
        assert abs(avg1 - avg2) < 0.005

    def test_grid_end_is_floored(self, config_path, tmp_path):
        # 2700 / 7 is not whole: the grid must stop at 2995, inside the tables
        design = tmp_path / "design.json"
        design.write_text("[]")
        out = tmp_path / "eval"
        assert run("evaluate", "--config", config_path, "--design", design, "--out", out,
                   "--grid", "300:7:3000") == 0
        rows = list(csv.reader(open(out / "spectrum.csv")))[1:]
        assert float(rows[-1][0]) == 2995.0

    def test_missing_design_file_exit_1(self, config_path, tmp_path):
        assert run("evaluate", "--config", config_path,
                   "--design", tmp_path / "none.json", "--out", tmp_path / "o") == 1


class TestExport:
    def test_miqcp_files(self, config_path, tmp_path):
        out = tmp_path / "exp"
        assert run("export", "--config", config_path, "--out", out, "--kind", "miqcp") == 0
        assert (out / "model.lp").exists() and (out / "varmap.json").exists()
        m = lpio.import_lp(out / "model.lp")
        assert any(v.kind == "binary" for v in m.variables)

    def test_misocp_files_and_hyperplane_dump(self, config_path, tmp_path):
        out = tmp_path / "exp"
        assert run("export", "--config", config_path, "--out", out, "--kind", "misocp") == 0
        planes = json.loads((out / "hyperplanes.json").read_text())
        assert set(planes) == {"410", "550"}
        assert all(len(h) == 5 for hs in planes.values() for h in hs)
        m = lpio.import_lp(out / "model.lp")
        assert sum(1 for c in m.linear if c.name.startswith("c_hyp_")) == sum(
            len(hs) for hs in planes.values())

    def test_outputs_get_the_umask_mode(self, config_path, tmp_path):
        out = tmp_path / "exp"
        old = os.umask(0o027)
        try:
            assert run("export", "--config", config_path, "--out", out, "--kind", "misocp") == 0
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert modes == {"model.lp": 0o640, "varmap.json": 0o640, "hyperplanes.json": 0o640}

    def test_deterministic_across_runs(self, config_path, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        run("export", "--config", config_path, "--out", out1, "--kind", "misocp")
        run("export", "--config", config_path, "--out", out2, "--kind", "misocp")
        assert (out1 / "model.lp").read_bytes() == (out2 / "model.lp").read_bytes()


class TestBoundsAndHyperplanes:
    def test_bounds_dump(self, config_path, tmp_path):
        out = tmp_path / "b"
        assert run("bounds", "--config", config_path, "--out", out) == 0
        data = json.loads((out / "bounds.json").read_text())
        assert set(data) == {"410", "550"}
        assert len(data["410"]) == CONFIG["layers"] + 1
        # single-choice collapse: pin layer thicknesses to one option each
        cfg = dict(CONFIG, thicknesses={"TiO2": [40], "MgF2": [80]})
        p = tmp_path / "single.json"
        p.write_text(json.dumps(cfg))
        out2 = tmp_path / "b2"
        run("bounds", "--config", p, "--out", out2)
        data2 = json.loads((out2 / "bounds.json").read_text())
        for layers in data2.values():
            for entry_pairs in layers:
                for lo, hi in entry_pairs:
                    assert lo == pytest.approx(hi, abs=1e-12)

    def test_hyperplane_dump(self, config_path, tmp_path):
        out = tmp_path / "h"
        assert run("hyperplanes", "--config", config_path, "--out", out) == 0
        planes = json.loads((out / "hyperplanes.json").read_text())
        assert all(len(hs) >= 1 for hs in planes.values())


class TestHeuristicAndCompare:
    def test_heuristic_then_compare(self, config_path, tmp_path):
        out = tmp_path / "h"
        assert run("heuristic", "--config", config_path, "--out", out,
                   "--targets", "450,900,1500", "--layers-per-target", "2") == 0
        design = json.loads((out / "design.json").read_text())
        assert len(design) == 6
        assert design[0]["material"] == "TiO2"
        out2 = tmp_path / "cmp"
        assert run("compare", "--config", config_path, "--out", out2,
                   "--design", f"qw={out / 'design.json'}") == 0
        lines = (out2 / "compare.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("qw,")


class TestExtremePoints:
    def test_worked_example(self, capsys):
        assert run("extreme-points", "--beta", "4", "--box=-3,3,-2,2") == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, data["points"])) == sorted(
            [(-3.0, -4 / 3), (3.0, 4 / 3), (-2.0, -2.0), (2.0, 2.0)])


class TestExitCodes:
    def test_bad_config_exit_1(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert run("optimize", "--config", p, "--out", tmp_path / "o") == 1

    def test_missing_required_flag_exit_1(self):
        assert run("optimize") == 1

    def test_unknown_material_exit_1(self, tmp_path):
        cfg = dict(CONFIG, substrate="Vibranium")
        p = tmp_path / "v.json"
        p.write_text(json.dumps(cfg))
        assert run("bounds", "--config", p, "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize("name", ["Ti O2", "Ti\tO2", *(f"Ti{ch}O2" for ch in ":[]*^<>=\\")])
    def test_lp_significant_coating_name_exit_1(self, name, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for src, dst in (("Molybdenum", "Molybdenum"), ("MgF2", "MgF2"), ("TiO2", name)):
            shutil.copy(filmopt.materials.DATA_DIR / f"{src}.csv", data / f"{dst}.csv")
        cfg = dict(CONFIG, materials=[name, "MgF2"], dispersion_dir=str(data),
                   thicknesses={name: [40, 100], "MgF2": [80, 140]})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run("export", "--config", p, "--out", out, "--kind", "miqcp") == 1
        assert repr(name) in capsys.readouterr().err
        assert not (out / "model.lp").exists()

    @pytest.mark.parametrize("command", [("optimize", "--mode", "brute"), ("export", "--kind", "miqcp")])
    def test_repeated_coating_exit_1(self, command, tmp_path, capsys):
        cfg = dict(CONFIG, materials=["TiO2", "TiO2"], alternating=False,
                   thicknesses={"TiO2": [40, 100]}, layers=2)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        assert run(*command, "--config", p, "--out", out) == 1
        assert "repeat" in capsys.readouterr().err
        assert not any(out.glob("*"))

    @pytest.mark.parametrize("command", ["compare", "evaluate"])
    def test_design_material_without_dispersion_exit_1(self, command, config_path, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(json.dumps([{"material": "Unobtainium", "thickness_nm": 50}]))
        out = tmp_path / "o"
        flag = f"d={design}" if command == "compare" else design
        assert run(command, "--config", config_path, "--out", out, "--design", flag) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Unobtainium" in err
        assert not out.exists()

    def test_internal_error_exit_3(self, config_path, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise InternalError("search ended without an incumbent design")

        monkeypatch.setattr(solver, "branch_and_bound", broken)
        assert run("optimize", "--config", config_path, "--out", tmp_path / "o",
                   "--mode", "bnb") == 3

    @pytest.mark.parametrize("command", [
        ("bounds",),
        ("export", "--kind", "misocp"),
        ("optimize", "--mode", "bnb"),
    ])
    def test_output_under_a_regular_file_exit_1(self, command, config_path, tmp_path, capsys):
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        assert run(*command, "--config", config_path, "--out", blocker / "o") == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [
        ("evaluate", "--grid", "300:x:3000"),
        ("evaluate", "--grid", "300:nan:3000"),
        ("evaluate", "--grid", "300:0:3000"),
        ("evaluate", "--grid", "3000:20:300"),
        ("heuristic", "--targets", "450,nine hundred"),
        ("extreme-points", "--beta", "4", "--box", "0,1,a,2"),
        ("extreme-points", "--beta", "four", "--box", "0,1,0,2"),
        ("heuristic", "--targets", "450,900", "--layers-per-target", "two"),
        ("optimize", "--mode", "bnb", "--cap-nodes", "-1"),
        ("optimize", "--mode", "bnb", "--cap-nodes", "0"),
        ("extreme-points", "--beta", "nan", "--box", "0,1,0,2"),
        ("extreme-points", "--beta", "inf", "--box", "0,1,0,2"),
        ("extreme-points", "--beta", "1,2", "--box", "0,1,0,2"),
        ("extreme-points", "--beta", "4", "--box", "0,2,2,0"),
        ("extreme-points", "--beta", "4", "--box", "2,0,0,2"),
    ])
    def test_malformed_number_exit_1(self, command, config_path, tmp_path, capsys):
        args = list(command)
        if args[0] != "extreme-points":
            args += ["--config", config_path, "--out", tmp_path / "o"]
        if args[0] == "evaluate":
            design = tmp_path / "design.json"
            design.write_text("[]")
            args += ["--design", design]
        assert run(*args) == 1
        assert "internal error" not in capsys.readouterr().err
