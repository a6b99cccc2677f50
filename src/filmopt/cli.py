"""Command-line front end.

Subcommands: evaluate, optimize, export, bounds, hyperplanes, heuristic,
compare, extreme-points.  Exit codes: 0 success, 1 usage/config error
(including an input or output path that cannot be read or written), 2
infeasible or too-large instance, 3 internal invariant violation
(InternalError).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bounds as bounds_mod
from . import heuristics, lpio, relax, solver
from . import model as model_mod
from .errors import (
    ConfigError,
    FilmoptError,
    InadmissibleDesign,
    InfeasibleAssignment,
    InstanceTooLarge,
    MissingDispersion,
    OutOfRange,
    ParseError,
    SpectrumCoverage,
    ValidationError,
)
from .materials import (
    Catalog, CatalogConfig, build_catalog, load_tables, progression, read_text, write_atomic,
)

USAGE_ERRORS = (
    ConfigError,
    ParseError,
    ValidationError,
    MissingDispersion,
    SpectrumCoverage,
    OutOfRange,
    OSError,
    InadmissibleDesign,
)
INSTANCE_ERRORS = (InstanceTooLarge, InfeasibleAssignment)


@dataclass(frozen=True)
class RunConfig:
    config_path: Path
    out_dir: Path
    grid: tuple[float, ...] | None = None
    cap_nodes: int | None = None


def _write_json(path: Path, obj) -> None:
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=False) + "\n")


def _parse_numbers(text: str, sep: str, flag: str) -> list[float]:
    """Finite numbers from a `sep`-separated list; anything else is a usage error."""
    try:
        values = [float(p) for p in text.split(sep)]
    except ValueError:
        raise ConfigError(f"{flag}: expected numbers separated by {sep!r}, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{flag}: numbers must be finite, got {text!r}")
    return values


def _parse_grid(text: str) -> tuple[float, ...]:
    parts = _parse_numbers(text, ":", "--grid")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:step:end, got {text!r}")
    return progression(*parts)


def _load_instance(run: RunConfig) -> tuple[CatalogConfig, dict, Catalog]:
    config = CatalogConfig.from_json(run.config_path)
    tables = load_tables(config)
    return config, tables, build_catalog(config, tables)


def _read_design(path: Path) -> solver.Design:
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        return solver.design_from_json(raw)
    except (ParseError, ConfigError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def cmd_evaluate(run: RunConfig, design_path: Path) -> int:
    config, tables, _ = _load_instance(run)
    design = _read_design(design_path)
    for mat, _t in design:
        if mat not in tables:
            raise ConfigError(f"design uses material {mat!r} with no dispersion table")
    substrate = tables[config.substrate]

    vis_pts = progression(*heuristics.VISIBLE_GRID)
    broad_pts = progression(*heuristics.BROAD_GRID)
    curve_pts = run.grid or sorted(set(vis_pts) | set(broad_pts))
    curve, _ = solver.evaluate_design_on_grid(design, tables, substrate, curve_pts)
    _, vis_avg = solver.evaluate_design_on_grid(design, tables, substrate, vis_pts)
    _, broad_avg = solver.evaluate_design_on_grid(design, tables, substrate, broad_pts)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["wavelength_nm", "reflectance"])
    for wl, r in zip(curve_pts, curve):
        writer.writerow([f"{wl:g}", f"{r:.9f}"])
    write_atomic(run.out_dir / "spectrum.csv", buf.getvalue())
    _write_json(
        run.out_dir / "summary.json",
        {
            "design_layers": len(design),
            "substrate": config.substrate,
            "visible_average": vis_avg,
            "broad_average": broad_avg,
            "visible_window_nm": list(heuristics.VISIBLE_GRID),
            "broad_window_nm": list(heuristics.BROAD_GRID),
        },
    )
    print(f"visible average {vis_avg:.3f}, broad average {broad_avg:.3f}")
    return 0


def cmd_optimize(run: RunConfig, mode: str) -> int:
    _, _, catalog = _load_instance(run)
    if mode == "brute":
        report = solver.brute_force(catalog)
    else:
        report = solver.branch_and_bound(catalog, node_cap=run.cap_nodes)
    _write_json(run.out_dir / "report.json", report.to_json_dict())
    _write_json(run.out_dir / "design.json", solver.design_to_json(report.design))
    print(
        f"{mode}: objective {report.objective:.3f}, "
        f"{report.nodes_explored} designs evaluated, {report.nodes_pruned} pruned"
    )
    return 0


def _write_hyperplanes(out_dir: Path, catalog: Catalog, planes: list[list[relax.Hyperplane]]) -> None:
    """hyperplanes.json: the coefficient lists of each wavelength, keyed by wavelength."""
    _write_json(
        out_dir / "hyperplanes.json",
        {
            f"{wl:g}": [list(h.coefficients()) for h in planes[li]]
            for li, wl in enumerate(catalog.spectrum.wavelengths)
        },
    )


def cmd_export(run: RunConfig, kind: str) -> int:
    _, _, catalog = _load_instance(run)
    eb = bounds_mod.tighten_bounds(catalog)
    if kind == "miqcp":
        model = model_mod.build_miqcp(catalog, eb)
    else:
        planes = relax.hyperplanes_for_catalog(catalog, eb)
        model = model_mod.build_misocp(catalog, eb, planes)
        _write_hyperplanes(run.out_dir, catalog, planes)
        print(
            "hyperplanes per wavelength: "
            + ", ".join(f"{wl:g}:{len(planes[li])}" for li, wl in enumerate(catalog.spectrum.wavelengths))
        )
    lpio.export_lp(model, run.out_dir / "model.lp")
    _write_json(run.out_dir / "varmap.json", model_mod.variable_map(catalog))
    print(
        f"{kind}: {len(model.variables)} variables, {len(model.linear)} linear, "
        f"{len(model.quadratic)} quadratic constraints -> {run.out_dir / 'model.lp'}"
    )
    return 0


def cmd_bounds(run: RunConfig) -> int:
    _, _, catalog = _load_instance(run)
    eb = bounds_mod.tighten_bounds(catalog)
    _write_json(run.out_dir / "bounds.json", eb.to_json_dict())
    print(f"bounds for {len(catalog.spectrum)} wavelengths, {catalog.n_layers} layers")
    return 0


def cmd_hyperplanes(run: RunConfig) -> int:
    _, _, catalog = _load_instance(run)
    eb = bounds_mod.tighten_bounds(catalog)
    planes = relax.hyperplanes_for_catalog(catalog, eb)
    _write_hyperplanes(run.out_dir, catalog, planes)
    print(", ".join(f"{wl:g}: {len(planes[li])}" for li, wl in enumerate(catalog.spectrum.wavelengths)))
    return 0


def cmd_heuristic(run: RunConfig, targets: str, layers_per_target: int, order: str) -> int:
    wls = tuple(_parse_numbers(targets, ",", "--targets"))
    config, tables, _ = _load_instance(run)
    from .materials import _rank_by_mean_index

    high, low = _rank_by_mean_index(list(config.materials), tables, wls)
    spec = heuristics.StackSpec(wls, layers_per_target, high, low)
    design = heuristics.quarter_wave_design(spec, tables, ascending=order == "asc")
    _write_json(run.out_dir / "design.json", solver.design_to_json(design))
    rows = heuristics.compare_methods(
        [(f"qw-{len(wls)}x{layers_per_target}", design)], tables, tables[config.substrate]
    )
    write_atomic(run.out_dir / "compare.csv", heuristics.comparison_csv(rows))
    print(
        f"{rows[0].name}: visible {rows[0].visible_average:.3f}, "
        f"broad {rows[0].broad_average:.3f} ({rows[0].layer_count} layers)"
    )
    return 0


def cmd_compare(run: RunConfig, named_designs: list[str]) -> int:
    config, tables, _ = _load_instance(run)
    designs = []
    for item in named_designs:
        if "=" not in item:
            raise ConfigError(f"--design must be name=path, got {item!r}")
        name, path = item.split("=", 1)
        designs.append((name, _read_design(Path(path))))
    rows = heuristics.compare_methods(designs, tables, tables[config.substrate])
    write_atomic(run.out_dir / "compare.csv", heuristics.comparison_csv(rows))
    for r in rows:
        print(f"{r.name}: visible {r.visible_average:.3f}, broad {r.broad_average:.3f}")
    return 0


def cmd_extreme_points(beta: float, box: str) -> int:
    parts = _parse_numbers(box, ",", "--box")
    if len(parts) != 4:
        raise ConfigError("--box must be lo1,hi1,lo2,hi2")
    pts = relax.extreme_points_2d((parts[0], parts[1]), (parts[2], parts[3]), beta)
    print(json.dumps({"beta": beta, "box": parts, "points": [list(p) for p in pts]}))
    return 0


def _int_at_least(low: int):
    """argparse type: an integer >= `low`; anything else is a usage error."""

    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="filmopt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, type=Path, help="catalog config JSON")
        p.add_argument("--out", required=True, type=Path, help="output directory")

    p = sub.add_parser("evaluate", help="reflectance curve and window averages of a design")
    common(p)
    p.add_argument("--design", required=True, type=Path, help="design JSON file")
    p.add_argument("--grid", help="curve grid start:step:end (nm)")

    p = sub.add_parser("optimize", help="solve the instance exactly")
    common(p)
    p.add_argument("--mode", choices=("brute", "bnb"), default="brute")
    p.add_argument("--cap-nodes", type=_int_at_least(1), default=None)

    p = sub.add_parser("export", help="write the algebraic model as LP text")
    common(p)
    p.add_argument("--kind", choices=("miqcp", "misocp"), default="miqcp")

    p = sub.add_parser("bounds", help="dump tightened entry bounds as JSON")
    common(p)

    p = sub.add_parser("hyperplanes", help="dump overapproximator coefficients as JSON")
    common(p)

    p = sub.add_parser("heuristic", help="quarter-wave stacking baseline")
    common(p)
    p.add_argument("--targets", required=True, help="comma-separated wavelengths (nm)")
    p.add_argument("--layers-per-target", type=int, default=2)
    p.add_argument("--order", choices=("asc", "desc"), default="asc")

    p = sub.add_parser("compare", help="evaluate named designs side by side")
    common(p)
    p.add_argument("--design", action="append", required=True, help="name=path, repeatable")

    p = sub.add_parser("extreme-points", help="debug: 2-d extreme points of y1*y2=beta in a box")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--box", required=True, help="lo1,hi1,lo2,hi2")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        if args.command == "extreme-points":
            return cmd_extreme_points(args.beta, args.box)
        run = RunConfig(
            config_path=args.config,
            out_dir=args.out,
            grid=_parse_grid(args.grid) if getattr(args, "grid", None) else None,
            cap_nodes=getattr(args, "cap_nodes", None),
        )
        if args.command == "evaluate":
            return cmd_evaluate(run, args.design)
        if args.command == "optimize":
            return cmd_optimize(run, args.mode)
        if args.command == "export":
            return cmd_export(run, args.kind)
        if args.command == "bounds":
            return cmd_bounds(run)
        if args.command == "hyperplanes":
            return cmd_hyperplanes(run)
        if args.command == "heuristic":
            return cmd_heuristic(run, args.targets, args.layers_per_target, args.order)
        if args.command == "compare":
            return cmd_compare(run, args.design)
        parser.error(f"unknown command {args.command}")
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except INSTANCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FilmoptError, AssertionError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
