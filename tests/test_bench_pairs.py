"""``scripts/bench_pairs.py`` tabulates alternating benchmark pairs."""
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import bench_pairs  # noqa: E402

METRICS = [
    {"name": "heavy_cmd_s", "unit": "s", "better": "lower"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
    {"name": "ok_ops_share", "unit": "ratio", "better": "higher"},
]


def pair(parent_s, change_s, parent_mb=50.0, change_mb=50.0):
    return {
        "parent": {"heavy_cmd_s": parent_s, "peak_rss_mb": parent_mb, "ok_ops_share": 1.0},
        "change": {"heavy_cmd_s": change_s, "peak_rss_mb": change_mb, "ok_ops_share": 1.0},
    }


def test_rows_give_median_quartiles_and_pairs_won():
    pairs = [pair(0.75, 0.66), pair(0.74, 0.67), pair(0.76, 0.78, change_mb=50.1), pair(0.73, 0.65, change_mb=49.9),
             pair(0.77, 0.68, change_mb=50.2)]
    rows, constant = bench_pairs.table("export-broad", pairs, METRICS)
    assert rows == [
        "| `export-broad` | `heavy_cmd_s` | 0.750 [0.740, 0.760] | 0.670 [0.660, 0.680] | 4/5 |",
        "| `export-broad` | `peak_rss_mb` | 50.00 [50.00, 50.00] | 50.00 [50.00, 50.10] | 1/5 |",
    ]
    assert constant == ["`export-broad` `ok_ops_share` read 1 in all 10 runs"]


def test_a_tie_counts_for_neither_side():
    rows, _ = bench_pairs.table("single-wl", [pair(0.5, 0.5), pair(0.5, 0.4)], METRICS[:1])
    assert rows[0].endswith("| 1/2 |")


def test_one_pair_reads_its_value_as_median_and_quartiles():
    assert bench_pairs.summary([0.5], "s") == "0.500 [0.500, 0.500]"


def result_line(heavy_s, rss_mb=50.0):
    """A ``bench/run.py`` result line with three metrics."""
    metrics = {"heavy_cmd_s": (heavy_s, "s"), "peak_rss_mb": (rss_mb, "MB"), "ok_ops_share": (1.0, "ratio")}
    return {"correct": True, "attempted": 8, "failed": 0,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}


def runs_of(workload, seed, sides):
    """Run records of alternating pairs, from ``(parent line, change line)`` per pair."""
    runs = []
    for i, lines in enumerate(sides):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        runs += [{"pair": i + 1, "side": bench_pairs.SIDES[s], "workload": workload, "seed": seed, "result": lines[s]}
                 for s in order]
    return runs


def test_json_record_holds_the_printed_tables_numbers():
    heavy = [(0.75, 0.66), (0.74, 0.67), (0.76, 0.78), (0.73, 0.65), (0.77, 0.68)]
    runs = runs_of("export-broad", 0, [(result_line(p), result_line(c, 49.5)) for p, c in heavy])
    runs += runs_of("single-wl", 1, [(result_line(0.2), result_line(0.1)), (result_line(0.3), None)])
    record = bench_pairs.bench_record(runs, METRICS, seconds=35, parent="abc1234", machine={"nproc": 2},
                                      claim="export-broad heavy_cmd_s", bytecode_off=True)
    assert json.loads(json.dumps(record)) == record
    assert record["runs"] == runs and record["parent"] == "abc1234" and record["machine"] == {"nproc": 2}
    assert record["bytecode"].startswith("PYTHONDONTWRITEBYTECODE=1 was set")
    assert "5 complete pairs on export-broad seed 0; 1 complete pairs on single-wl seed 1" in record["order"]

    heavy_s = record["summary"]["export-broad seed 0"]["heavy_cmd_s"]
    assert heavy_s == {
        "parent": {"median": 0.75, "q1": pytest.approx(0.74), "q3": pytest.approx(0.76), "n": 5},
        "change": {"median": 0.67, "q1": pytest.approx(0.66), "q3": pytest.approx(0.68), "n": 5},
        "change_wins": "4/5",
    }
    for label, pairs in bench_pairs.group_pairs(runs).items():
        rows, _ = bench_pairs.table(label, pairs, METRICS)
        for row in rows:
            _, name, parent, change, won = [cell.strip() for cell in row.strip("|").split("|")]
            entry = record["summary"][label][name.strip("`")]
            digits = 2 if name == "`peak_rss_mb`" else 3
            for side, cell in (("parent", parent), ("change", change)):
                stats = entry[side]
                assert cell == f"{stats['median']:.{digits}f} [{stats['q1']:.{digits}f}, {stats['q3']:.{digits}f}]"
            assert won == entry["change_wins"]
    # the pair with a failed run is left out of the summary, and its run is kept with no result
    assert record["summary"]["single-wl seed 1"]["heavy_cmd_s"]["change_wins"] == "1/1"
    assert record["summary"]["single-wl seed 1"]["peak_rss_mb"]["change"]["n"] == 1
    assert [run["result"] for run in record["runs"][-2:]] == [None, result_line(0.3)]


def test_record_says_when_bytecode_caches_were_on():
    record = bench_pairs.bench_record([], METRICS, seconds=35, parent="p", machine=None, claim=None,
                                      bytecode_off=False)
    assert record["bytecode"].startswith("PYTHONDONTWRITEBYTECODE was not set")
    assert record["summary"] == {} and record["runs"] == []
