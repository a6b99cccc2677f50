#!/usr/bin/env python3
"""Benchmark runs: exact single-wavelength optima, uncoated baselines, and
the quarter-wave stacking comparison.

    python scripts/run_experiments.py --quick    # one substrate, ~0.5 s
    python scripts/run_experiments.py            # all four substrates, ~2 s

Each 6-layer single-wavelength solve enumerates ~3.0e7 designs in about
0.02 s; the sweep over 4 substrates x 11 wavelengths takes about 0.8 s
(measured on one core of a 2-core Intel Xeon VM, OPENBLAS_NUM_THREADS=1).
"""
from __future__ import annotations

import argparse
import time

from filmopt import solver
from filmopt.heuristics import (
    BROAD_GRID,
    VISIBLE_GRID,
    StackSpec,
    compare_methods,
    comparison_csv,
    quarter_wave_design,
)
from filmopt.materials import DATA_DIR, CatalogConfig, build_catalog, load_dispersion, progression

THETA1 = {"TiO2": tuple(float(t) for t in range(20, 141, 10)),
          "MgF2": tuple(float(t) for t in range(50, 281, 10))}
SUBSTRATES = ("Molybdenum", "Niobium", "Tantalum", "Tungsten")
MATERIALS = ("TiO2", "MgF2", *SUBSTRATES)
KS_TARGETS = (450.0, 500.0, 750.0, 900.0, 1000.0, 1200.0, 1500.0, 2000.0, 2200.0)


def uncoated_baselines(tables) -> None:
    print("\nUncoated substrates (average reflectance)")
    print(f"{'substrate':12s} {'visible':>8s} {'broad':>8s}")
    for sub in SUBSTRATES:
        _, vis = solver.evaluate_design_on_grid((), {}, tables[sub], progression(*VISIBLE_GRID))
        _, broad = solver.evaluate_design_on_grid((), {}, tables[sub], progression(*BROAD_GRID))
        print(f"{sub:12s} {vis:8.3f} {broad:8.3f}")


def single_wavelength_sweep(tables, substrates, wavelengths) -> None:
    print("\n6-layer single-wavelength optima (alternating TiO2/MgF2, 10 nm grids)")
    print(f"{'wavelength':>10s} " + " ".join(f"{s:>12s}" for s in substrates))
    for wl in wavelengths:
        row = [f"{wl:>10g}"]
        for sub in substrates:
            cfg = CatalogConfig(
                substrate=sub, materials=("TiO2", "MgF2"), thicknesses=THETA1,
                wavelengths=(float(wl),), layers=6, alternating=True)
            cat = build_catalog(cfg, tables)
            t0 = time.perf_counter()
            rep = solver.brute_force(cat)
            row.append(f"{rep.objective:.3f} ({(time.perf_counter() - t0) * 1e3:.0f}ms)")
        print(" ".join(f"{c:>12s}" for c in row))


def quarter_wave_table(tables, substrates) -> None:
    print("\nQuarter-wave stacks at the nine benchmark targets (broad average)")
    designs = []
    for k in range(2, 8):
        spec = StackSpec(KS_TARGETS, k, "TiO2", "MgF2")
        designs.append((f"qw-9x{k}", quarter_wave_design(spec, tables)))
    for sub in substrates:
        rows = compare_methods(designs, tables, tables[sub])
        print(f"\n{sub}:")
        print(comparison_csv(rows), end="")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="one substrate, three wavelengths")
    args = parser.parse_args()

    tables = {m: load_dispersion(DATA_DIR / f"{m}.csv") for m in MATERIALS}
    substrates = SUBSTRATES[:1] if args.quick else SUBSTRATES
    wavelengths = (370, 410, 770) if args.quick else range(370, 771, 40)

    uncoated_baselines(tables)
    single_wavelength_sweep(tables, substrates, wavelengths)
    quarter_wave_table(tables, substrates)


if __name__ == "__main__":
    main()
