import csv
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import filmopt
from filmopt import cli, errors, lpio, model as model_mod, solver
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

    @staticmethod
    def big_config(tmp_path):
        cfg = dict(CONFIG, layers=40, thicknesses={"TiO2": list(range(20, 141, 10)),
                                                   "MgF2": list(range(50, 281, 10))})
        p = tmp_path / "big.json"
        p.write_text(json.dumps(cfg))
        return p

    @pytest.mark.parametrize("mode", ["brute", "bnb"])
    def test_instance_too_large_exit_2(self, tmp_path, mode):
        # in a subprocess with a timeout: a search that skips the size cap does not end
        env = dict(os.environ, PYTHONPATH=str(Path(filmopt.__file__).parents[1]))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "filmopt.cli", "optimize", "--config", str(self.big_config(tmp_path)),
             "--out", str(out), "--mode", mode],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "exceed cap" in proc.stderr
        # the way on: a node budget, which only bnb takes
        rerun = {"brute": "--mode bnb --cap-nodes N", "bnb": "--cap-nodes N"}[mode]
        assert f"rerun with {rerun} " in proc.stderr
        assert not out.exists()

    def test_instance_too_large_with_a_node_cap_returns_the_incumbent(self, tmp_path):
        out = tmp_path / "o"
        assert run("optimize", "--config", self.big_config(tmp_path), "--out", out,
                   "--mode", "bnb", "--cap-nodes", 1000) == 0
        assert json.loads((out / "report.json").read_text())["proven_optimal"] is False


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
        assert m.variables.binary.any()

    def test_misocp_files_and_hyperplane_dump(self, config_path, tmp_path):
        out = tmp_path / "exp"
        assert run("export", "--config", config_path, "--out", out, "--kind", "misocp") == 0
        planes = json.loads((out / "hyperplanes.json").read_text())
        assert set(planes) == {"410", "550"}
        assert all(len(h) == 5 for hs in planes.values() for h in hs)
        m = lpio.import_lp(out / "model.lp")
        assert sum(name.startswith("c_hyp_") for name in m.linear.names) == sum(
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

    def test_hyperplane_dump(self, config_path, tmp_path, capsys):
        out = tmp_path / "h"
        assert run("hyperplanes", "--config", config_path, "--out", out) == 0
        planes = json.loads((out / "hyperplanes.json").read_text())
        assert all(len(hs) >= 1 for hs in planes.values())
        counts = ", ".join(f"{key}:{len(hs)}" for key, hs in planes.items())
        assert capsys.readouterr().out == f"hyperplanes per wavelength: {counts}\n"

    def test_wavelengths_equal_to_six_digits_keep_their_own_keys(self, tmp_path, capsys):
        # both print as 550 with :g, so one family used to overwrite the other
        p = tmp_path / "close.json"
        p.write_text(json.dumps(dict(CONFIG, wavelengths=[550.00001, 550.00002])))
        keys = ["550.00001", "550.00002"]
        assert run("bounds", "--config", p, "--out", tmp_path / "b") == 0
        assert run("hyperplanes", "--config", p, "--out", tmp_path / "h") == 0
        assert run("export", "--config", p, "--out", tmp_path / "e", "--kind", "misocp") == 0
        for path in (tmp_path / "b" / "bounds.json", tmp_path / "h" / "hyperplanes.json",
                     tmp_path / "e" / "hyperplanes.json"):
            assert list(json.loads(path.read_text())) == keys
        printed = capsys.readouterr().out
        assert all(f"{key}:" in printed for key in keys)
        design = tmp_path / "design.json"
        design.write_text("[]")
        assert run("evaluate", "--config", p, "--design", design, "--out", tmp_path / "ev",
                   "--grid", "550:0.00001:550.0001") == 0
        rows = list(csv.reader(open(tmp_path / "ev" / "spectrum.csv")))[1:]
        assert len({r[0] for r in rows}) == len(rows) > 5


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

    @pytest.mark.parametrize("count", ["0", "8", "-2"])
    def test_heuristic_layers_per_target_out_of_range_names_the_flag_exit_1(self, count, config_path, tmp_path,
                                                                            capsys):
        assert run("heuristic", "--config", config_path, "--out", tmp_path / "h", "--targets", "450,900",
                   "--layers-per-target", count) == 1
        assert capsys.readouterr().err == f"error: --layers-per-target must be in 1..7, got {count}\n"
        assert not (tmp_path / "h").exists()

    def test_heuristic_on_three_coatings_asks_for_a_pair_exit_1(self, tmp_path, capsys):
        # a config without alternating mode, its third coating's table a copy of MgF2's
        data = tmp_path / "data"
        data.mkdir()
        for src, dst in (("Molybdenum", "Molybdenum"), ("TiO2", "TiO2"), ("MgF2", "MgF2"), ("MgF2", "SiO2")):
            shutil.copy(filmopt.materials.DATA_DIR / f"{src}.csv", data / f"{dst}.csv")
        config = {key: value for key, value in CONFIG.items() if key != "alternating"}
        config.update(materials=["TiO2", "MgF2", "SiO2"], thicknesses=dict(CONFIG["thicknesses"], SiO2=[90]),
                      dispersion_dir=str(data))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert run("heuristic", "--config", path, "--out", tmp_path / "h", "--targets", "450,900") == 1
        err = capsys.readouterr().err
        assert err == "error: a high/low pair needs exactly two coating materials, got 3\n"
        assert "alternating" not in err


class TestExtremePoints:
    def test_worked_example(self, capsys):
        assert run("extreme-points", "--beta", "4", "--box=-3,3,-2,2") == 0
        data = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, data["points"])) == sorted(
            [(-3.0, -4 / 3), (3.0, 4 / 3), (-2.0, -2.0), (2.0, 2.0)])


#: Runs ``cli.main(argv)`` in a fresh interpreter and prints its exit code and
#: the package files whose module code ran (audit "exec" events).
LAYER_PROBE = """
import json, sys
from pathlib import Path
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(getattr(args[0], "co_filename", "")))
from filmopt import cli
code = cli.main(sys.argv[1:])
pkg = Path(cli.__file__).parent
print(json.dumps([code, sorted(Path(f).name for f in ran if Path(f).parent == pkg)]))
"""
LAZY_LAYERS = {"heuristics.py", "lpio.py", "model.py", "relax.py", "solver.py"}


def fresh_python(code: str, *args) -> str:
    """Stdout of ``python -c code args`` in a new interpreter that compiles from source."""
    env = dict(os.environ, PYTHONPATH=str(Path(filmopt.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLayersLoaded:
    """Each command compiles and runs only the layer modules it calls."""

    @pytest.mark.parametrize("command, runs", [
        (["optimize", "--mode", "brute"], {"solver.py"}),
        (["optimize", "--mode", "bnb"], {"solver.py"}),
        (["heuristic", "--targets", "450,900"], {"heuristics.py", "solver.py"}),
        (["export", "--kind", "miqcp"], {"model.py", "lpio.py"}),
        (["bounds"], set()),
        (["hyperplanes"], {"relax.py"}),
    ], ids=["optimize-brute", "optimize-bnb", "heuristic", "export-miqcp", "bounds", "hyperplanes"])
    def test_command_runs_only_its_layers(self, config_path, tmp_path, command, runs):
        out = fresh_python(LAYER_PROBE, *command, "--config", config_path, "--out", tmp_path / "o")
        code, ran = json.loads(out.splitlines()[-1])
        assert code == 0
        assert {"cli.py", "bounds.py", "materials.py"} <= set(ran)
        assert set(ran) & LAZY_LAYERS == runs

    def test_layer_imported_before_cli_is_the_one_cli_uses(self):
        out = fresh_python(
            "import sys\n"
            "from filmopt import model\n"
            "import filmopt.cli as cli\n"
            "print(cli.model_mod is model is sys.modules['filmopt.model'], cli.lpio.Model is model.Model)"
        )
        assert out.split() == ["True", "True"]

    def test_layer_imported_after_cli_is_the_one_cli_uses(self):
        out = fresh_python(
            "import sys, filmopt.cli as cli\n"
            "from filmopt import lpio\n"
            "print(lpio is sys.modules['filmopt.lpio'] is cli.lpio,"
            " lpio.export_lp is cli.lpio.export_lp, type(lpio).__name__)"
        )
        assert out.split() == ["True", "True", "module"]


#: Imports the bare package in a fresh interpreter and prints the package files whose module code ran, then how
#: the lazy names resolve: the check of ``dir`` and ``filmopt.bounds`` come before anything loads ``solver``.
PACKAGE_PROBE = """
import json, sys
from pathlib import Path
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(getattr(args[0], "co_filename", "")))
import filmopt
pkg = Path(filmopt.__file__).parent
executed = sorted(Path(f).name for f in ran if Path(f).parent == pkg)
all_in_dir = set(filmopt.__all__) <= set(dir(filmopt))
bounds = filmopt.bounds.__name__
try:
    filmopt.nope
    nope = "resolved"
except AttributeError:
    nope = "AttributeError"
print(json.dumps([executed, all_in_dir, bounds, nope, filmopt.branch_and_bound is filmopt.solver.branch_and_bound]))
"""


class TestPackageImport:
    """``import filmopt`` runs only what building a catalog needs; the rest loads on first access."""

    def test_bare_import_runs_four_files_and_resolves_the_rest_on_access(self):
        executed, all_in_dir, bounds, nope, same = json.loads(fresh_python(PACKAGE_PROBE).splitlines()[-1])
        assert executed == ["__init__.py", "errors.py", "materials.py", "optics.py"]
        assert all_in_dir
        assert bounds == "filmopt.bounds"
        assert nope == "AttributeError"
        assert same

    def test_every_exported_name_is_the_object_its_module_defines(self):
        from filmopt import materials, optics

        for name in filmopt.__all__:
            home = next(m for m in (materials, optics, solver) if hasattr(m, name))
            assert getattr(filmopt, name) is getattr(home, name), name

    def test_a_submodule_whose_import_fails_raises_that_error_not_attribute_error(self):
        out = fresh_python(
            "import sys, filmopt\n"
            "sys.modules['numpy'] = None\n"  # relax's "import numpy" now fails
            "try:\n"
            "    filmopt.relax\n"
            "except ModuleNotFoundError as exc:\n"
            "    print(type(exc).__name__, exc.name)\n"
        )
        assert out.split() == ["ModuleNotFoundError", "numpy"]


#: Runs the module as ``python -m filmopt.cli`` does, with the arguments as ``sys.argv``, and prints its exit
#: code and whether the import heap was frozen.
ENTRY_PROBE = """
import gc, runpy, sys
sys.argv = ["filmopt", *sys.argv[1:]]
try:
    runpy.run_module("filmopt.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count() > 0, gc.isenabled())
"""


class TestEntry:
    """Run as the program, ``main()`` freezes the import heap; ``main(argv)`` leaves the collector alone."""

    def test_module_run_freezes_and_writes_what_main_argv_writes(self, config_path, tmp_path):
        command = ["optimize", "--config", config_path, "--mode", "bnb", "--out"]
        out = fresh_python(ENTRY_PROBE, *command, tmp_path / "module")
        assert out.split()[-3:] == ["0", "True", "True"]
        state = gc.isenabled(), gc.get_freeze_count()
        assert run(*command, tmp_path / "argv") == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == state
        assert (tmp_path / "module/design.json").read_bytes() == (tmp_path / "argv/design.json").read_bytes()
        reports = [json.loads((tmp_path / d / "report.json").read_text()) for d in ("module", "argv")]
        for report in reports:
            del report["wall_time_s"]
        assert reports[0] == reports[1]

    def test_console_script_takes_the_argumentless_entry(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((Path(filmopt.__file__).parents[2] / "pyproject.toml").read_text(encoding="utf-8"))
        # the installed ``filmopt`` command calls this with no argument
        assert project["project"]["scripts"]["filmopt"] == "filmopt.cli:main"


#: The documented exit codes: 1 for a usage error, 2 for an instance this run cannot solve or decode, 3 for
#: every other package error.
USAGE_ERRORS = {"UsageError", "ParseError", "ValidationError", "OutOfRange", "MissingDispersion",
                "SpectrumCoverage", "ConfigError", "InadmissibleDesign"}
INSTANCE_ERRORS = {"InstanceError", "InstanceTooLarge", "InfeasibleAssignment"}
ERROR_CLASSES = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.FilmoptError)]


class TestExitCodes:
    def test_the_code_tables_name_package_errors(self):
        assert USAGE_ERRORS | INSTANCE_ERRORS <= {c.__name__ for c in ERROR_CLASSES}

    @pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_every_package_error_exits_with_its_documented_code(self, error, config_path, tmp_path, monkeypatch,
                                                                capsys):
        def failing(**options):
            raise error("planted")

        monkeypatch.setattr(cli, "cmd_bounds", failing)
        code = 1 if error.__name__ in USAGE_ERRORS else 2 if error.__name__ in INSTANCE_ERRORS else 3
        assert run("bounds", "--config", config_path, "--out", tmp_path / "o") == code
        assert capsys.readouterr().err == ("internal error: planted\n" if code == 3 else "error: planted\n")

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

    @staticmethod
    def coating_config(name, tmp_path):
        """A config whose high-index coating is named `name`, its table a copy of TiO2's."""
        data = tmp_path / "data"
        data.mkdir()
        for src, dst in (("Molybdenum", "Molybdenum"), ("MgF2", "MgF2"), ("TiO2", name)):
            shutil.copy(filmopt.materials.DATA_DIR / f"{src}.csv", data / f"{dst}.csv")
        cfg = dict(CONFIG, materials=[name, "MgF2"], dispersion_dir=str(data),
                   thicknesses={name: [40, 100], "MgF2": [80, 140]})
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg))
        return p

    @pytest.mark.parametrize("name", ["Ti O2", "Ti\tO2", "Ti\xa0O2", "Ti\u200bO2", "Ti:O2"])
    def test_lp_significant_coating_name_exit_1(self, name, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("export", "--config", self.coating_config(name, tmp_path), "--out", out, "--kind", "miqcp") == 1
        assert repr(name) in capsys.readouterr().err
        assert not (out / "model.lp").exists()

    @pytest.mark.parametrize("name", [f"Ti{ch}O2" for ch in "[]*^<>=\\"])
    def test_coating_name_lp_carries_round_trips(self, name, tmp_path):
        out = tmp_path / "o"
        assert run("export", "--config", self.coating_config(name, tmp_path), "--out", out, "--kind", "miqcp") == 0
        assert f"x_1_{name}_40" in json.loads((out / "varmap.json").read_text())["x"]
        lpio.export_lp(lpio.import_lp(out / "model.lp"), tmp_path / "again.lp")
        assert (tmp_path / "again.lp").read_bytes() == (out / "model.lp").read_bytes()

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

    # Molybdenum is the config's substrate: it has a table, but no coating is made of it
    @pytest.mark.parametrize("material", ["Unobtainium", "Molybdenum"])
    @pytest.mark.parametrize("command", ["compare", "evaluate"])
    def test_design_material_without_dispersion_exit_1(self, command, material, config_path, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text(json.dumps([{"material": material, "thickness_nm": 50}]))
        out = tmp_path / "o"
        flag = f"d={design}" if command == "compare" else design
        assert run(command, "--config", config_path, "--out", out, "--design", flag) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and material in err and "no dispersion table" not in err
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
        ("optimize", "--mode", "brute", "--cap-nodes", "5"),
        ("extreme-points", "--beta", "nan", "--box", "0,1,0,2"),
        ("extreme-points", "--beta", "inf", "--box", "0,1,0,2"),
        ("extreme-points", "--beta", "1,2", "--box", "0,1,0,2"),
        ("extreme-points", "--beta", "4", "--box", "0,2,2,0"),
        ("extreme-points", "--beta", "4", "--box", "2,0,0,2"),
        ("compare", "--design", "=DESIGN"),
        ("compare", "--design", "a=DESIGN", "--design", "a=DESIGN"),
    ])
    def test_malformed_number_exit_1(self, command, config_path, tmp_path, capsys):
        design = tmp_path / "design.json"
        design.write_text("[]")
        args = [arg.replace("DESIGN", str(design)) for arg in command]
        if args[0] != "extreme-points":
            args += ["--config", config_path, "--out", tmp_path / "o"]
        if args[0] == "evaluate":
            args += ["--design", design]
        assert run(*args) == 1
        assert "internal error" not in capsys.readouterr().err
