"""Correctness checks on the outputs of each benchmark operation.

Every check returns a list of problems; an empty list means the output is
correct.  Objectives are re-evaluated with the scalar carrier API
(``optics.chain_product`` + ``optics.reflectance``), which is independent of
the vectorized kernels the solvers use.
"""
from __future__ import annotations

import csv
import json
import random
import re
from pathlib import Path

from filmopt import bounds, materials, optics, solver

#: Largest objective difference accepted between two evaluations.
OBJECTIVE_TOL = 1e-12
#: Optima of the default-seed instances, as printed to six digits.
REFERENCE_OPTIMA = {"single-wl": 0.993572, "multi-wl": 0.912490}


def load_catalog(config_path: Path) -> materials.Catalog:
    config = materials.CatalogConfig.from_json(config_path)
    return materials.build_catalog(config, materials.load_tables(config))


def random_designs(catalog: materials.Catalog, count: int, seed: int) -> list[solver.Design]:
    rng = random.Random(seed)
    return [
        tuple(rng.choice(catalog.choices_at(layer)) for layer in range(1, catalog.n_layers + 1))
        for _ in range(count)
    ]


def _final_matrices(catalog: materials.Catalog, design: solver.Design) -> list[optics.StructuredMatrix]:
    return [
        optics.chain_product([catalog.matrix(m, t, wl) for m, t in design])
        for wl in catalog.spectrum.wavelengths
    ]


def scalar_objective(catalog: materials.Catalog, design: solver.Design) -> float:
    per = [
        optics.reflectance(w, sub)
        for w, sub in zip(_final_matrices(catalog, design), catalog.substrate_indices)
    ]
    return sum(r * phi for r, phi in zip(per, catalog.spectrum.weights))


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def solve_result(out_dir: Path) -> tuple[solver.Design, float]:
    report = read_json(out_dir / "report.json")
    return solver.design_from_json(report["design"]), report["objective"]


def check_solve(catalog, out_dir: Path, workload: str, default_seed: bool) -> list[str]:
    """report.json is complete, admissible and re-evaluates to its objective."""
    problems = []
    design, objective = solve_result(out_dir)
    if solver.design_from_json(read_json(out_dir / "design.json")) != design:
        problems.append("design.json differs from report.json")
    if len(design) != catalog.n_layers or any(
        pair not in catalog.choices_at(layer) for layer, pair in enumerate(design, 1)
    ):
        return problems + ["reported design is not admissible"]
    rescored = scalar_objective(catalog, design)
    if abs(rescored - objective) > OBJECTIVE_TOL:
        problems.append(f"objective {objective!r} but scalar re-evaluation gives {rescored!r}")
    if default_seed and workload in REFERENCE_OPTIMA:
        if round(objective, 6) != REFERENCE_OPTIMA[workload]:
            problems.append(f"objective {objective:.6f}, reference {REFERENCE_OPTIMA[workload]}")
    return problems


def check_same_optimum(brute_dir: Path, bnb_dir: Path) -> list[str]:
    (d1, o1), (d2, o2) = solve_result(brute_dir), solve_result(bnb_dir)
    if d1 != d2 or abs(o1 - o2) > OBJECTIVE_TOL:
        return [f"brute {o1!r} {d1} but bnb {o2!r} {d2}"]
    return []


def check_hyperplanes(catalog, out_dir: Path, designs: list[solver.Design]) -> list[str]:
    """Every exported hyperplane lies on or above D at each sampled design."""
    planes = read_json(out_dir / "hyperplanes.json")
    problems = []
    for design in designs:
        for wl, w, sub in zip(
            catalog.spectrum.wavelengths, _final_matrices(catalog, design), catalog.substrate_indices
        ):
            d = optics.denominator_D(w, sub)
            x = (w.a11, w.a22, w.a12, w.a21)
            for a0, a1, a2, a3, a4 in planes[f"{wl:g}"]:
                value = a0 + a1 * x[0] + a2 * x[1] + a3 * x[2] + a4 * x[3]
                if value < d - 1e-9 * max(1.0, abs(d)):
                    problems.append(f"{wl:g} nm: hyperplane {value!r} below D {d!r}")
    return problems[:5]


def check_export(out_dir: Path, stdout: str) -> list[str]:
    """model.lp exists, and the printed variable count matches varmap.json."""
    if not (out_dir / "model.lp").stat().st_size:
        return ["empty model.lp"]
    varmap = read_json(out_dir / "varmap.json")
    declared = sum(len(group) for group in varmap.values())
    # last line: "<kind>: <n> variables, <n> linear, <n> quadratic constraints -> <path>"
    match = re.match(r"\w+: (\d+) variables", stdout.strip().splitlines()[-1] if stdout.strip() else "")
    printed = int(match.group(1)) if match else -1
    if printed != declared:
        return [f"CLI reports {printed} variables, varmap.json has {declared}"]
    return []


def check_lp_round_trip(lp_path: Path, out_dir: Path, design: solver.Design) -> list[str]:
    problems = []
    if lp_path.read_bytes() != (out_dir / "roundtrip.lp").read_bytes():
        problems.append("export -> import_lp -> export is not byte-identical")
    if solver.design_from_json(read_json(out_dir / "decoded.json")) != design:
        problems.append("decoded solution differs from the design written")
    return problems


def check_heuristic(out_dir: Path) -> list[str]:
    with open(out_dir / "compare.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        return [f"compare.csv has {len(rows)} rows"]
    averages = (float(rows[0]["visible_average"]), float(rows[0]["broad_average"]))
    if not all(0.0 < a <= 1.0 for a in averages):
        return [f"window averages {averages} outside (0, 1]"]
    return []


def bound_slack(catalog, designs: list[solver.Design], depths) -> dict[int, float]:
    """Corner-propagated entry bound over the largest sampled entry, per depth.

    Both sides take the largest absolute entry over all wavelengths; a depth
    beyond the instance's layer count is left out.
    """
    eb = bounds.tighten_bounds(catalog)
    out = {}
    for depth in depths:
        if depth > catalog.n_layers:
            continue
        corner = max(abs(eb.lower[:, depth]).max(), abs(eb.upper[:, depth]).max())
        sampled = max(
            max(abs(e) for e in optics.chain_product(
                [catalog.matrix(m, t, wl) for m, t in design[:depth]]).entries())
            for design in designs
            for wl in catalog.spectrum.wavelengths
        )
        out[depth] = float(corner / sampled)
    return out
