"""Operations the benchmark runs in a fresh interpreter, besides the CLI.

    python bench/child.py setup CONFIG
        import filmopt, load the dispersion tables, build the catalog.
    python bench/child.py lp LP CONFIG DESIGN OUTDIR
        parse LP with lpio.import_lp and write it again to OUTDIR/roundtrip.lp;
        write the exact-model assignment of DESIGN as OUTDIR/solution.txt and
        decode it with lpio.import_solution into OUTDIR/decoded.json.
    python bench/child.py trace TRACE_JSON (cli ARGS... | setup ... | lp ...)
        the same operation (cli = ``filmopt ARGS``) with every layer wrapped
        by tracer.install(); spans go to TRACE_JSON at exit.

Layer functions are called through their modules, so tracer.install() can
replace them after this module is loaded.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path


def setup(config_path: str) -> int:
    import filmopt

    config = filmopt.CatalogConfig.from_json(config_path)
    filmopt.build_catalog(config, filmopt.load_tables(config))
    print(json.dumps({"filmopt": filmopt.__file__}))
    return 0


def lp_round_trip(lp_path: str, config_path: str, design_path: str, out_dir: str) -> int:
    from filmopt import lpio, materials, model, solver

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    parsed = lpio.import_lp(lp_path)
    lpio.export_lp(parsed, out / "roundtrip.lp")

    config = materials.CatalogConfig.from_json(config_path)
    catalog = materials.build_catalog(config, materials.load_tables(config))
    design = solver.design_from_json(json.loads(Path(design_path).read_text(encoding="utf-8")))
    lpio.write_solution(model.design_point(catalog, design), out / "solution.txt")
    decoded = lpio.import_solution(out / "solution.txt", catalog)
    (out / "decoded.json").write_text(json.dumps(solver.design_to_json(decoded)), encoding="utf-8")
    return 0


def run(op: str, args: list[str]) -> int:
    if op == "setup":
        return setup(*args)
    if op == "lp":
        return lp_round_trip(*args)
    if op == "cli":
        from filmopt import cli

        return cli.main(args)
    raise SystemExit(f"unknown operation {op!r}")


def main(argv: list[str]) -> int:
    if argv[0] != "trace":
        return run(argv[0], argv[1:])
    import tracer

    spans = tracer.install()
    try:
        return run(argv[2], argv[3:])
    finally:
        spans.dump(Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
