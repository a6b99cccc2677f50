"""Command-line front end.

Subcommands: evaluate, optimize, export, bounds, hyperplanes, heuristic,
compare, extreme-points.  Exit codes: 0 success, 1 usage/config error
(including an input or output path that cannot be read or written), 2
infeasible or too-large instance, 3 internal invariant violation
(InternalError).

Each command compiles and runs only the layers it calls.  ``materials``,
``bounds`` and ``solver`` load with this module; ``heuristics``, ``lpio``,
``model`` and ``relax`` are bound here as lazy modules that load on their
first attribute access.  So ``optimize`` loads none of the four;
``evaluate``, ``heuristic`` and ``compare`` load ``heuristics``;
``hyperplanes`` and ``extreme-points`` load ``relax``; ``export`` loads
``model`` and ``lpio``, and ``relax`` too for ``--kind misocp``.  A run
from a source tree without bytecode caches compiles every module it loads,
and the four are about 1,570 lines that ``optimize`` never calls.  Exit
codes follow the bases in :mod:`filmopt.errors`: ``UsageError`` 1,
``InstanceError`` 2.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import sys
from pathlib import Path
from types import ModuleType

from . import bounds as bounds_mod
from . import solver
from .errors import ConfigError, FilmoptError, InstanceError, ParseError, UsageError
from .materials import (
    Catalog, CatalogConfig, _rank_by_mean_index, build_catalog, csv_text, load_tables, progression, read_json,
    wavelength_key, write_atomic,
)

def _lazy(name: str) -> ModuleType:
    """``filmopt.<name>``, the loaded module if there is one, else one that loads on first use.

    The lazy module is registered in ``sys.modules`` and on the package as
    an import would, so a later ``import`` of it returns the same module.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


heuristics, lpio, model_mod, relax = map(_lazy, ("heuristics", "lpio", "model", "relax"))


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


def _load_instance(config_path: Path) -> tuple[CatalogConfig, dict, Catalog]:
    config = CatalogConfig.from_json(config_path)
    tables = load_tables(config)
    return config, tables, build_catalog(config, tables)


def _read_design(path: Path) -> solver.Design:
    raw = read_json(path)
    try:
        return solver.design_from_json(raw)
    except (ParseError, ConfigError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def cmd_evaluate(config: Path, out: Path, design: Path, grid: str | None) -> int:
    curve_pts = _parse_grid(grid) if grid else sorted(
        set(progression(*heuristics.VISIBLE_GRID)) | set(progression(*heuristics.BROAD_GRID))
    )
    cfg, tables, _ = _load_instance(config)
    layers = _read_design(design)
    substrate = tables[cfg.substrate]

    curve, _ = solver.evaluate_design_on_grid(layers, tables, substrate, curve_pts)
    (row,) = heuristics.compare_methods([("design", layers)], tables, substrate)

    rows = [[wavelength_key(wl), f"{r:.9f}"] for wl, r in zip(curve_pts, curve)]
    write_atomic(out / "spectrum.csv", csv_text([["wavelength_nm", "reflectance"], *rows]))
    _write_json(
        out / "summary.json",
        {
            "design_layers": len(layers),
            "substrate": cfg.substrate,
            "visible_average": row.visible_average,
            "broad_average": row.broad_average,
            "visible_window_nm": list(heuristics.VISIBLE_GRID),
            "broad_window_nm": list(heuristics.BROAD_GRID),
        },
    )
    print(f"visible average {row.visible_average:.3f}, broad average {row.broad_average:.3f}")
    return 0


def cmd_optimize(config: Path, out: Path, mode: str, cap_nodes: int | None) -> int:
    if mode == "brute" and cap_nodes is not None:
        raise ConfigError("--cap-nodes applies to --mode bnb only")
    if cap_nodes is not None and cap_nodes < 1:
        raise ConfigError(f"--cap-nodes must be >= 1, got {cap_nodes}")
    _, _, catalog = _load_instance(config)
    if mode == "brute":
        report = solver.brute_force(catalog)
    else:
        report = solver.branch_and_bound(catalog, node_cap=cap_nodes)
    _write_json(out / "report.json", report.to_json_dict())
    _write_json(out / "design.json", solver.design_to_json(report.design))
    print(
        f"{mode}: objective {report.objective:.3f}, "
        f"{report.nodes_explored} designs evaluated, {report.nodes_pruned} pruned"
    )
    return 0


def _write_hyperplanes(out_dir: Path, catalog: Catalog, planes: list) -> None:
    """Write each wavelength's (P, 5) coefficient rows to hyperplanes.json, and their counts to stdout."""
    keys = list(map(wavelength_key, catalog.spectrum.wavelengths))
    _write_json(out_dir / "hyperplanes.json", {key: p.tolist() for key, p in zip(keys, planes)})
    print("hyperplanes per wavelength: " + ", ".join(f"{key}:{len(p)}" for key, p in zip(keys, planes)))


def cmd_export(config: Path, out: Path, kind: str) -> int:
    _, _, catalog = _load_instance(config)
    eb = bounds_mod.tighten_bounds(catalog)
    if kind == "miqcp":
        model = model_mod.build_miqcp(catalog, eb)
    else:
        planes = relax.hyperplanes_for_catalog(catalog, eb)
        model = model_mod.build_misocp(catalog, eb, planes)
        _write_hyperplanes(out, catalog, planes)
    lpio.export_lp(model, out / "model.lp")
    write_atomic(out / "varmap.json", model_mod.variable_map_pieces(catalog))
    print(
        f"{kind}: {len(model.variables)} variables, {len(model.linear)} linear, "
        f"{len(model.quadratic)} quadratic constraints -> {out / 'model.lp'}"
    )
    return 0


def cmd_bounds(config: Path, out: Path) -> int:
    _, _, catalog = _load_instance(config)
    eb = bounds_mod.tighten_bounds(catalog)
    _write_json(out / "bounds.json", eb.to_json_dict())
    print(f"bounds for {len(catalog.spectrum)} wavelengths, {catalog.n_layers} layers")
    return 0


def cmd_hyperplanes(config: Path, out: Path) -> int:
    _, _, catalog = _load_instance(config)
    eb = bounds_mod.tighten_bounds(catalog)
    planes = relax.hyperplanes_for_catalog(catalog, eb)
    _write_hyperplanes(out, catalog, planes)
    return 0


def cmd_heuristic(config: Path, out: Path, targets: str, layers_per_target: int, order: str) -> int:
    wls = tuple(_parse_numbers(targets, ",", "--targets"))
    cfg, tables, _ = _load_instance(config)
    high, low = _rank_by_mean_index(list(cfg.materials), tables, wls)
    spec = heuristics.StackSpec(wls, layers_per_target, high, low)
    design = heuristics.quarter_wave_design(spec, tables, ascending=order == "asc")
    _write_json(out / "design.json", solver.design_to_json(design))
    rows = heuristics.compare_methods(
        [(f"qw-{len(wls)}x{layers_per_target}", design)], tables, tables[cfg.substrate]
    )
    write_atomic(out / "compare.csv", heuristics.comparison_csv(rows))
    print(
        f"{rows[0].name}: visible {rows[0].visible_average:.3f}, "
        f"broad {rows[0].broad_average:.3f} ({rows[0].layer_count} layers)"
    )
    return 0


def cmd_compare(config: Path, out: Path, design: list[str]) -> int:
    cfg, tables, _ = _load_instance(config)
    designs = []
    for item in design:
        if "=" not in item:
            raise ConfigError(f"--design must be name=path, got {item!r}")
        name, path = item.split("=", 1)
        if not name or name in (n for n, _ in designs):
            raise ConfigError(f"--design names must be nonempty and distinct, got {name!r}")
        designs.append((name, _read_design(Path(path))))
    rows = heuristics.compare_methods(designs, tables, tables[cfg.substrate])
    write_atomic(out / "compare.csv", heuristics.comparison_csv(rows))
    for r in rows:
        print(f"{r.name}: visible {r.visible_average:.3f}, broad {r.broad_average:.3f}")
    return 0


def cmd_extreme_points(beta: str, box: str) -> int:
    betas, parts = _parse_numbers(beta, ",", "--beta"), _parse_numbers(box, ",", "--box")
    if len(betas) != 1 or len(parts) != 4 or parts[0] > parts[1] or parts[2] > parts[3]:
        raise ConfigError(f"expected --beta b --box lo1,hi1,lo2,hi2, each lo <= its hi; got {beta!r} {box!r}")
    pts = relax.extreme_points_2d((parts[0], parts[1]), (parts[2], parts[3]), betas[0])
    print(json.dumps({"beta": betas[0], "box": parts, "points": [list(p) for p in pts]}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; each subcommand's ``func`` takes its parsed options as keywords."""
    # --help shows the docstring's first two paragraphs; the layer note is for readers of the code
    parser = argparse.ArgumentParser(prog="filmopt", description="\n\n".join(__doc__.split("\n\n")[:2]))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True, type=Path, help="catalog config JSON")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        return p

    p = command("evaluate", cmd_evaluate, "reflectance curve and window averages of a design")
    p.add_argument("--design", required=True, type=Path, help="design JSON file")
    p.add_argument("--grid", help="curve grid start:step:end (nm)")

    p = command("optimize", cmd_optimize, "solve the instance exactly")
    p.add_argument("--mode", choices=("brute", "bnb"), default="brute")
    p.add_argument("--cap-nodes", type=int, default=None,
                   help="bnb only: stop after this many designs and report the incumbent")

    p = command("export", cmd_export, "write the algebraic model as LP text")
    p.add_argument("--kind", choices=("miqcp", "misocp"), default="miqcp")

    command("bounds", cmd_bounds, "dump tightened entry bounds as JSON")
    command("hyperplanes", cmd_hyperplanes, "dump overapproximator coefficients as JSON")

    p = command("heuristic", cmd_heuristic, "quarter-wave stacking baseline")
    p.add_argument("--targets", required=True, help="comma-separated wavelengths (nm)")
    p.add_argument("--layers-per-target", type=int, default=2)
    p.add_argument("--order", choices=("asc", "desc"), default="asc")

    p = command("compare", cmd_compare, "evaluate named designs side by side")
    p.add_argument("--design", action="append", required=True, help="name=path, repeatable")

    p = sub.add_parser("extreme-points", help="debug: 2-d extreme points of y1*y2=beta in a box")
    p.set_defaults(func=cmd_extreme_points)
    p.add_argument("--beta", required=True)
    p.add_argument("--box", required=True, help="lo1,hi1,lo2,hi2")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    del args["command"]
    try:
        return args.pop("func")(**args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FilmoptError, AssertionError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
