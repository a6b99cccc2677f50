#!/usr/bin/env python3
"""Alternate the benchmark between two checkouts and tabulate the pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE                      # 10 pairs per workload
    python3 scripts/bench_pairs.py PARENT CHANGE --pairs 3 --workloads export-broad

PARENT and CHANGE are the roots of two source checkouts.  A pair runs
``bench/run.py --workload W --seed S --seconds T --trace 0`` once in each,
one after the other, with T the ``run_seconds`` of ``BENCHMARK.json``.  The
side that goes first alternates from pair to pair, so a drift in machine
speed lands on both sides.  The environment is
passed on unchanged: set ``PYTHONDONTWRITEBYTECODE=1`` to time every
command from source.

For each workload and end-to-end metric of ``BENCHMARK.json`` it prints a
markdown row: each side's median with its quartiles ``[q1, q3]``, and in
how many pairs the change read better, in the metric's direction.  A
metric with the same value in every run is named under the table instead.
A run that ends without a result, or with failed operations, is reported
and left out of its pair.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark run, or None if the run failed."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode or not result or result.get("failed"):
        print(f"  {checkout}: run failed (exit {proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summary(values: list[float], unit: str) -> str:
    """``median [q1, q3]``, to the precision the unit is read at."""
    digits = 2 if unit == "MB" else 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return f"{median:.{digits}f} [{q1:.{digits}f}, {q3:.{digits}f}]"


def table(workload: str, pairs: list[dict[str, dict]], metrics: list[dict]) -> tuple[list[str], list[str]]:
    """Markdown rows of one workload's metrics, and notes on the metrics that never moved."""
    rows, constant = [], []
    for metric in metrics:
        name = metric["name"]
        sides = {side: [pair[side][name] for pair in pairs] for side in SIDES}
        if len(set(sides["parent"] + sides["change"])) == 1:
            constant.append(f"`{workload}` `{name}` read {sides['parent'][0]:g} in all {2 * len(pairs)} runs")
            continue
        sign = -1.0 if metric["better"] == "lower" else 1.0
        won = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        rows.append(f"| `{workload}` | `{name}` | {summary(sides['parent'], metric['unit'])} | "
                    f"{summary(sides['change'], metric['unit'])} | {won}/{len(pairs)} |")
    return rows, constant


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rows, notes, complete = [], [], True
    for workload in args.workloads.split(","):
        pairs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_bench(checkouts[side], workload, args.seed, benchmark["run_seconds"]) for side in order}
            print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {pair[side]['heavy_cmd_s']:.3f}" if pair[side] else f"{side} failed" for side in SIDES
            ) + " heavy_cmd_s", file=sys.stderr, flush=True)
            if all(pair.values()):
                pairs.append(pair)
        if len(pairs) < args.pairs:
            complete = False
            notes.append(f"`{workload}`: {args.pairs - len(pairs)} of {args.pairs} pairs left out, a run failed")
        if pairs:
            workload_rows, constant = table(workload, pairs, benchmark["end_to_end"])
            rows += workload_rows
            notes += constant
    print("| workload | metric | parent | change | change won |")
    print("|---|---|---|---|---|")
    print("\n".join(rows))
    print("\n".join(notes))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
