#!/usr/bin/env python3
"""Alternate the benchmark between two checkouts and tabulate the pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE                      # 10 pairs per workload
    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 3 --workloads export-broad
    python3 scripts/bench_pairs.py PARENT CHANGE --workloads single-wl,multi-wl,single-wl:1 \\
        --json BENCH.json --claim "single-wl setup_s falls"

PARENT and CHANGE are the roots of two source checkouts.  A pair runs
``bench/run.py --workload W --seed S --seconds T --trace 0`` once in each,
one after the other, with T the ``run_seconds`` of ``BENCHMARK.json``.  The
side that goes first alternates from pair to pair, so a drift in machine
speed lands on both sides.  A workload is run at ``--seed``, or at the seed
after its colon (``single-wl:1``).  The environment is passed on unchanged:
set ``PYTHONDONTWRITEBYTECODE=1`` to time every command from source.

For each workload, seed and end-to-end metric of ``BENCHMARK.json`` it
prints a markdown row: each side's median with its quartiles ``[q1, q3]``,
and in how many pairs the change read better, in the metric's direction.  A
metric with the same value in every run is named under the table instead.
A run that ends without a result, or with failed operations, is reported
and left out of its pair.

``--json PATH`` also writes the record a ``BENCH_*.json`` holds: the same
medians, quartiles and win counts per workload and seed (``summary``), every
run's result line (``runs``), the parent's commit, the machine as the
benchmark's ``env`` line gives it, and whether bytecode caches were off.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
QUARTILES = ("q1/q3 are statistics.quantiles(values, n=4, method='inclusive'); change_wins counts pairs where "
             "the change reads better (lower, or higher for a metric where higher is better), ties for neither")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict | None, dict | None]:
    """The result line of one benchmark run, or None if the run failed, and its ``env`` line."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or not result or result.get("failed"):
        print(f"  {checkout}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None, env
    return result, env


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; one value is its own median and quartiles."""
    return tuple(statistics.quantiles(values, n=4, method="inclusive")) if len(values) > 1 else tuple(values * 3)


def summary(values: list[float], unit: str) -> str:
    """``median [q1, q3]``, to the precision the unit is read at."""
    digits = 2 if unit == "MB" else 3
    q1, median, q3 = quartiles(values)
    return f"{median:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def group_pairs(runs: list[dict]) -> dict[str, list[dict[str, dict]]]:
    """Each side's metric values of every complete pair, under ``"<workload> seed <seed>"``, in run order."""
    sides_of: dict[tuple, dict] = {}
    for run in runs:
        sides_of.setdefault((run["workload"], run["seed"], run["pair"]), {})[run["side"]] = run["result"]
    groups: dict[str, list[dict[str, dict]]] = {}
    for (workload, seed, _), results in sides_of.items():
        pairs = groups.setdefault(f"{workload} seed {seed}", [])
        if all(results.get(side) for side in SIDES):
            pairs.append({side: {name: entry["value"] for name, entry in results[side]["metrics"].items()}
                          for side in SIDES})
    return groups


def compare(pairs: list[dict[str, dict]], metric: dict) -> dict:
    """Each side's median, quartiles and count of one metric, and the pairs the change won."""
    sides = {side: [pair[side][metric["name"]] for pair in pairs] for side in SIDES}
    sign = -1.0 if metric["better"] == "lower" else 1.0
    won = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
    record = {}
    for side, values in sides.items():
        q1, median, q3 = quartiles(values)
        record[side] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    record["change_wins"] = f"{won}/{len(pairs)}"
    return record


def table(label: str, pairs: list[dict[str, dict]], metrics: list[dict]) -> tuple[list[str], list[str]]:
    """Markdown rows of one workload's metrics, and notes on the metrics that never moved."""
    rows, constant = [], []
    for metric in metrics:
        name = metric["name"]
        sides = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        if len(set(sides["parent"] + sides["change"])) == 1:
            constant.append(f"`{label}` `{name}` read {sides['parent'][0]:g} in all {2 * len(pairs)} runs")
            continue
        rows.append(f"| `{label}` | `{name}` | {summary(sides['parent'], metric['unit'])} | "
                    f"{summary(sides['change'], metric['unit'])} | {compare(pairs, metric)['change_wins']} |")
    return rows, constant


def bench_record(runs: list[dict], metrics: list[dict], *, seconds: float, parent: str, machine: dict | None,
                 claim: str | None, bytecode_off: bool) -> dict:
    """The ``BENCH_*.json`` record of `runs` (``pair``, ``side``, ``workload``, ``seed`` and ``result``)."""
    groups = group_pairs(runs)
    counts = "; ".join(f"{len(pairs)} complete pairs on {label}" for label, pairs in groups.items())
    return {
        "what": "bench/run.py result lines (the last stdout line of each run) for the parent commit and for "
                "this change, run alternately in pairs by scripts/bench_pairs.py",
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0, "
                   "run from the root of each checkout",
        "parent": parent,
        "machine": machine,
        "order": f"pair i runs the parent first when i is odd and the change first when i is even; {counts}",
        "bytecode": "PYTHONDONTWRITEBYTECODE=1 was set, so every timed command compiled filmopt from source on "
                    "both sides" if bytecode_off else
                    "PYTHONDONTWRITEBYTECODE was not set, so commands could read bytecode caches",
        "claim": claim,
        "quartiles": QUARTILES,
        "summary": {label: {metric["name"]: compare(pairs, metric) for metric in metrics}
                    for label, pairs in groups.items() if pairs},
        "runs": runs,
    }


def commit_of(checkout: Path) -> str:
    """The short commit of a git checkout, or its path if it is not one."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else str(checkout)


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]),
                        help="comma-separated WORKLOAD or WORKLOAD:SEED")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", type=Path, help="also write the BENCH_*.json record here")
    parser.add_argument("--claim", help="the claimed metric, for the --json record")
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = benchmark["run_seconds"]
    runs, machine = [], None
    for item in args.workloads.split(","):
        workload, _, seed = item.partition(":")
        seed = int(seed) if seed else args.seed
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                results[side], env = run_bench(checkouts[side], workload, seed, seconds)
                machine = machine or (env and {k: v for k, v in env.items() if k != "seed"})
                runs.append({"pair": i + 1, "side": side, "workload": workload, "seed": seed, "result": results[side]})
            print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {results[side]['metrics']['heavy_cmd_s']['value']:.3f}" if results[side] else f"{side} failed"
                for side in SIDES
            ) + " heavy_cmd_s", file=sys.stderr, flush=True)
    rows, notes, complete = [], [], True
    for label, pairs in group_pairs(runs).items():
        if len(pairs) < args.pairs:
            complete = False
            notes.append(f"`{label}`: {args.pairs - len(pairs)} of {args.pairs} pairs left out, a run failed")
        if pairs:
            label_rows, constant = table(label, pairs, benchmark["end_to_end"])
            rows += label_rows
            notes += constant
    print("| workload | metric | parent | change | change won |")
    print("|---|---|---|---|---|")
    print("\n".join(rows))
    print("\n".join(notes))
    if args.json:
        record = bench_record(runs, benchmark["end_to_end"], seconds=seconds, parent=commit_of(args.parent),
                              machine=machine, claim=args.claim,
                              bytecode_off=bool(os.environ.get("PYTHONDONTWRITEBYTECODE")))
        args.json.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
