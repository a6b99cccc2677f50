"""Benchmark of filmopt, measured from outside the package.

    python3 bench/run.py --workload single-wl --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is taken from ./src.
Every operation is one command in a fresh interpreter, one at a time, with
BLAS/OpenMP pools limited to one thread.  ``--trace 0`` times the commands,
scales each time by the speed probe (see probe()) and prints the
end-to-end metrics; ``--trace 1`` runs each command once
plain and once with every layer wrapped (tracer.py) and prints the
per-layer metrics, including the tracing overhead.  Every output is
checked (checks.py).  The last line of stdout is the result as JSON.
See README.md for the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
sys.path[:0] = [str(SRC), str(BENCH)]
try:
    import numpy as np

    import checks
    import workloads
    from filmopt.solver import design_to_json
except ImportError as exc:  # a checkout without the package
    sys.exit(f"error: cannot import filmopt from {SRC}: {exc}")

#: A run must end within 180 s; commands still running at this point are killed.
RUN_LIMIT_S = 170.0
#: Fresh-interpreter set-up probes per timed run; setup_s is their median.
SETUP_REPEATS = 7
#: Designs sampled for the hyperplane check, the bound slack and the LP solution.
SAMPLED_DESIGNS = 200
SLACK_DEPTHS = (1, 5, 10, 15, 20)
KERNELS = ("mul4", "reflectance4", "denominator4")
#: Speed probe: a timed command is stopped after each PROBE_EVERY_S of run
#: time while the parent runs probe(); PROBE_REF_S is the probe's median time
#: on the 2-core Xeon VM the benchmark was defined on.
PROBE_EVERY_S = 0.1
PROBE_REF_S = 0.0009
_PROBE_RNG = np.random.default_rng(0)
_PROBE_SMALL = _PROBE_RNG.standard_normal((12, 11, 4))
_PROBE_LARGE = _PROBE_RNG.standard_normal((8192, 4))


def probe() -> float:
    """Time a fixed job: how fast this machine runs right now.

    On a shared host the same command can take 20-30% longer a minute
    later.  The job has the three kinds of work filmopt's commands do, in
    about equal parts: interpreter loops (LP text, search bookkeeping),
    numpy calls on tiny arrays (B&B node bounds, hyperplane fits) and
    elementwise numpy over large blocks (leaf evaluation).  It runs twice
    and the faster run counts, so an interrupt during one run is ignored.
    """
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        total = 0
        for i in range(3_000):
            total += i * i % 7
        for _ in range(45):
            total += int((_PROBE_SMALL[..., 0] * _PROBE_SMALL[..., 3] + _PROBE_SMALL[..., 1]).max() > 0)
        for _ in range(14):
            total += int((_PROBE_LARGE[:, 0] * _PROBE_LARGE[:, 1] - _PROBE_LARGE[:, 2]).max() > 0)
        best = min(best, perf_counter() - start)
    return best


class Runner:
    """Runs one workload's commands, checks their outputs, counts failures."""

    def __init__(self, workload: str, seed: int, work: Path, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.spec = workloads.WORKLOADS[workload]
        self.config_path = work / "instance.json"
        self.config_path.write_text(
            workloads.config_text(workloads.make_config(workload, seed)), encoding="utf-8"
        )
        self.catalog = checks.load_catalog(self.config_path)
        self.samples = checks.random_designs(self.catalog, SAMPLED_DESIGNS, seed)
        self.design_path = work / "design.json"
        self.design_path.write_text(
            json.dumps(design_to_json(self.samples[0])), encoding="utf-8"
        )
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_kb = 0

    def argv(self, name: str, trace: Path | None) -> list[str]:
        config, out = str(self.config_path), str(self.work / name)
        if name == "setup":
            op = ["setup", config]
        elif name == "lp_import":
            op = ["lp", str(self.work / "export_misocp" / "model.lp"), config, str(self.design_path), out]
        else:
            common = ["--config", config, "--out", out]
            op = ["cli", *{
                "optimize_brute": ["optimize", *common, "--mode", "brute"],
                "optimize_bnb": ["optimize", *common, "--mode", "bnb"],
                "export_misocp": ["export", *common, "--kind", "misocp"],
                "export_miqcp": ["export", *common, "--kind", "miqcp"],
                "heuristic": ["heuristic", *common, "--targets", workloads.HEURISTIC_TARGETS,
                              "--layers-per-target", "2"],
            }[name]]
        if trace is not None:
            return [str(BENCH / "child.py"), "trace", str(trace), *op]
        if op[0] == "cli":
            return ["-m", "filmopt.cli", *op[1:]]
        return [str(BENCH / "child.py"), *op]

    def spawn(self, argv: list[str], log: Path, probing: bool) -> tuple[float, float, int, str, int]:
        """Run one fresh interpreter to completion.

        Returns its wall time, the wall time scaled by the speed probe, its
        exit code, stdout and peak RSS (KiB).  With `probing`, the command
        is stopped every PROBE_EVERY_S and the parent times probe() while it
        waits; paused time is not counted, and the scaled time is
        wall * PROBE_REF_S / mean(probe times, including one just before the
        start and one just after the end).
        """
        probes = [probe()] if probing else []
        with open(log.with_suffix(".out"), "w+", encoding="utf-8") as out, \
                open(log.with_suffix(".err"), "w", encoding="utf-8") as err:
            start = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=CHILD_ENV, stdout=out, stderr=err)
            pidfd = os.pidfd_open(proc.pid)
            paused, reaped = 0.0, False
            try:
                while not reaped:
                    if select.select([pidfd], [], [], PROBE_EVERY_S)[0]:
                        end = perf_counter()
                        result, reaped = os.wait4(proc.pid, 0), True
                        break
                    if perf_counter() > self.deadline:
                        proc.kill()
                    elif probing:
                        stopped = perf_counter()
                        os.kill(proc.pid, signal.SIGSTOP)
                        result = os.wait4(proc.pid, os.WUNTRACED)
                        if not os.WIFSTOPPED(result[1]):  # exited before the stop landed
                            end, reaped = stopped, True
                            break
                        probes.append(probe())
                        os.kill(proc.pid, signal.SIGCONT)
                        paused += perf_counter() - stopped
            finally:
                os.close(pidfd)
                if not reaped:  # interrupted: end the command even if it is stopped
                    proc.kill()
                    os.waitpid(proc.pid, 0)
            wall = end - start - paused
            proc.returncode = os.waitstatus_to_exitcode(result[1])
            out.seek(0)
            stdout = out.read()
        if probing:
            probes.append(probe())
            scaled = wall * PROBE_REF_S / statistics.fmean(probes)
        else:
            scaled = wall
        return wall, scaled, proc.returncode, stdout, result[2].ru_maxrss

    def run(self, name: str, trace: Path | None = None, probing: bool = False) -> tuple[float, float]:
        """Run and check one command; returns its wall time and scaled time."""
        tag = f"{name}{'.traced' if trace else ''}.{self.attempted}"
        wall, scaled, code, stdout, rss_kb = self.spawn(self.argv(name, trace), self.work / "logs" / tag, probing)
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        try:
            problems = [f"exit code {code}"] if code else self.check(name, stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{tag}: {p}" for p in problems)
        return wall, scaled

    def check(self, name: str, stdout: str) -> list[str]:
        out = self.work / name
        if name == "setup":
            where = Path(json.loads(stdout)["filmopt"]).resolve()
            return [] if where.is_relative_to(SRC) else [f"filmopt imported from {where}"]
        if name.startswith("optimize_"):
            default = self.seed == workloads.DEFAULT_SEED
            problems = checks.check_solve(self.catalog, out, self.workload, default)
            if name == "optimize_bnb":
                problems += checks.check_same_optimum(self.work / "optimize_brute", out)
            return problems
        if name.startswith("export_"):
            problems = checks.check_export(out, stdout)
            if name == "export_misocp":
                problems += checks.check_hyperplanes(self.catalog, out, self.samples)
            return problems
        if name == "lp_import":
            return checks.check_lp_round_trip(self.work / "export_misocp" / "model.lp", out, self.samples[0])
        return checks.check_heuristic(out)


def timed_run(runner: Runner, seconds: float, started: float) -> tuple[dict, dict]:
    """End-to-end metrics in probe-scaled seconds, and the raw medians."""
    runner.run("setup")  # untimed: writes bytecode caches, checks the import path
    setup = [runner.run("setup", probing=True) for _ in range(SETUP_REPEATS)]
    passes = []
    while True:
        t0 = perf_counter()
        passes.append({name: runner.run(name, probing=True) for name in runner.spec["commands"]})
        if perf_counter() - started + (perf_counter() - t0) > seconds:
            break
    heavy, light = runner.spec["heavy"], runner.spec["light"]

    def medians(i: int) -> dict:  # i = 0: wall seconds, 1: probe-scaled seconds
        return {
            "setup_s": statistics.median(s[i] for s in setup),
            "total_s": statistics.median(sum(t[i] for t in p.values()) for p in passes),
            "heavy_cmd_s": statistics.median(p[heavy][i] for p in passes),
            "light_cmd_s": statistics.median(p[light][i] for p in passes),
        }

    raw = dict(medians(0), passes=len(passes))
    metrics = {name: (value, "s") for name, value in medians(1).items()}
    metrics["peak_rss_mb"] = (runner.peak_rss_kb / 1024.0, "MB")
    metrics["ok_ops_share"] = ((runner.attempted - runner.failed) / runner.attempted, "ratio")
    return metrics, raw


def traced_run(runner: Runner) -> dict:
    runner.run("setup")
    setup_trace = runner.work / "setup.trace.json"
    runner.run("setup", trace=setup_trace)
    traces, plain, traced = [], 0.0, 0.0
    for name in runner.spec["commands"]:
        plain += runner.run(name)[0]
        path = runner.work / f"{name}.trace.json"
        wall = runner.run(name, trace=path)[0]
        traced += wall
        # a command that died before writing spans is already counted as failed
        record = checks.read_json(path) if path.exists() else {"totals": {}, "top_s": 0.0}
        record["wall_s"] = wall
        traces.append(record)
    return layer_metrics(runner, traces, checks.read_json(setup_trace), plain, traced)


def layer_metrics(runner: Runner, traces: list[dict], setup: dict, plain: float, traced: float) -> dict:
    def get(span: str, key: str = "s", records=traces) -> float:
        return sum(r["totals"].get(span, {}).get(key, 0) for r in records)

    m: dict[str, tuple[float, str]] = {}
    for k in KERNELS:
        m[f"arrayops.{k}.calls"] = (get(f"arrayops.{k}", "calls"), "count")
        m[f"arrayops.{k}.s"] = (get(f"arrayops.{k}"), "s")
        m[f"arrayops.{k}.matrices"] = (get(f"arrayops.{k}", "matrices"), "count")
        m[f"arrayops.{k}.computed_mb"] = (get(f"arrayops.{k}", "bytes") / 1e6, "MB")
    space = get("solver.bnb", "design_space")
    m["solver.brute.self_s"] = (get("solver.brute", "self_s"), "s")
    m["solver.bnb.self_s"] = (get("solver.bnb", "self_s"), "s")
    m["solver.bnb.designs"] = (get("solver.bnb", "designs"), "count")
    m["solver.bnb.pruned"] = (get("solver.bnb", "pruned"), "count")
    m["solver.bnb.evaluated_share"] = (get("solver.bnb", "designs") / space if space else 0.0, "ratio")
    m["solver.bnb.incumbents"] = (get("solver.bnb", "incumbents"), "count")
    m["solver.evaluate_design_s"] = (get("solver.evaluate_design"), "s")
    m["bounds.suffix_product_bounds_s"] = (get("bounds.suffix_product_bounds"), "s")
    m["bounds.tighten_bounds_s"] = (get("bounds.tighten_bounds"), "s")
    slack = checks.bound_slack(runner.catalog, runner.samples, SLACK_DEPTHS)
    for depth in SLACK_DEPTHS:
        m[f"bounds.slack.d{depth}"] = (slack.get(depth, 0.0), "ratio")
    fits = get("relax.fit_hyperplane", "calls")
    kept = get("relax.hyperplanes", "planes_kept")
    m["relax.hyperplanes_s"] = (get("relax.hyperplanes"), "s")
    m["relax.fit_calls"] = (fits, "count")
    m["relax.planes_kept"] = (kept, "count")
    m["relax.fit_accept_ratio"] = (kept / fits if fits else 0.0, "ratio")
    m["relax.candidates"] = (get("relax.collect_candidates", "candidates"), "count")
    m["model.build_misocp_s"] = (get("model.build_misocp"), "s")
    m["model.build_miqcp_s"] = (get("model.build_miqcp"), "s")
    for key in ("variables", "linear_rows", "quadratic_rows"):
        m[f"model.{key}"] = (get("model.build_misocp", key) + get("model.build_miqcp", key), "count")
    m["lpio.export_lp_s"] = (get("lpio.export_lp"), "s")
    m["lpio.lp_mb"] = (get("lpio.export_lp", "lp_bytes") / 1e6, "MB")
    m["lpio.import_lp_s"] = (get("lpio.import_lp"), "s")
    m["lpio.import_solution_s"] = (get("lpio.import_solution"), "s")
    m["materials.load_tables_s"] = (get("materials.load_tables", records=[setup]), "s")
    m["materials.build_catalog_s"] = (get("materials.build_catalog", records=[setup]), "s")
    m["materials.layer_matrices"] = (get("materials.build_catalog", "layer_matrices", [setup]), "count")
    m["heuristics.quarter_wave_design_s"] = (get("heuristics.quarter_wave_design"), "s")
    m["heuristics.compare_methods_s"] = (get("heuristics.compare_methods"), "s")
    m["cli.other_s"] = (sum(r["wall_s"] - r["top_s"] for r in traces), "s")
    m["trace.untraced_s"] = (plain, "s")
    m["trace.traced_s"] = (traced, "s")
    m["trace.overhead_share"] = (traced / plain - 1.0, "ratio")
    return m


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "processes": "one command at a time, no workers",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = perf_counter()
    # Commands and the speed probe share one CPU, so the probe measures the CPU the command runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = ROOT / ".bench_run" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, started)
    if args.trace:
        metrics, raw = traced_run(runner), {}
    else:
        metrics, raw = timed_run(runner, args.seconds, started)

    print("env " + json.dumps(environment(args.seed)))
    print("raw " + json.dumps(raw))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    if runner.failed:
        return 1
    for path in work.rglob("*"):  # keep only the span files of a run that passed
        if path.is_file() and not path.name.endswith(".trace.json"):
            path.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
