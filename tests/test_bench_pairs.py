"""``scripts/bench_pairs.py`` tabulates alternating benchmark pairs."""
import sys
from pathlib import Path

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
