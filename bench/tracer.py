"""Outside-in spans around the public functions of each filmopt layer.

:func:`install` replaces each listed function, in every ``filmopt`` module
that binds it, with a wrapper that times the call and keeps the stack of
open spans.  A layer's self time is its span minus the spans of the calls
it makes into other wrapped functions.

Kernel-level functions (the ``arrayops`` kernels, ``relax.fit_hyperplane``,
``relax.collect_candidates``) run hundreds of thousands of times per solve,
so their spans are folded into per-name totals as they close; every other
span is also kept as a record (id, parent id, name, start, end).  Everything
stays in memory until :meth:`Tracer.dump` writes it.  Bookkeeping done after
a call (array sizes, result counts) is not charged to the caller's self
time.
"""
from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path
from time import perf_counter


def _operand_bytes(args) -> int:
    return sum(getattr(a, "nbytes", 8) for a in args)


def _mul4_counts(args, kwargs, out) -> dict:
    # (..., 4) x (..., 4) -> (..., 4): count the product matrices
    return {"matrices": out.size // 4, "bytes": out.nbytes + _operand_bytes(args)}


def _scalar_kernel_counts(args, kwargs, out) -> dict:
    # reflectance4 / denominator4 map (..., 4) matrices to (...) values
    return {"matrices": out.size, "bytes": out.nbytes + _operand_bytes(args)}


def _catalog_counts(args, kwargs, out) -> dict:
    return {"layer_matrices": len(out.fixed)}


def _solve_counts(args, kwargs, out) -> dict:
    return {
        "designs": out.nodes_explored,
        "pruned": out.nodes_pruned,
        "incumbents": len(out.incumbents),
        "design_space": args[0].design_count(),
    }


def _planes_counts(args, kwargs, out) -> dict:
    return {"planes_kept": sum(len(family) for family in out)}


def _candidate_counts(args, kwargs, out) -> dict:
    return {"candidates": len(out)}


def _model_counts(args, kwargs, out) -> dict:
    return {
        "variables": len(out.variables),
        "linear_rows": len(out.linear),
        "quadratic_rows": len(out.quadratic),
    }


def _lp_counts(args, kwargs, out) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"lp_bytes": Path(path).stat().st_size}


#: (module, function, span name, folded into totals only, counter hook)
TARGETS = (
    ("materials", "load_tables", "materials.load_tables", False, None),
    ("materials", "build_catalog", "materials.build_catalog", False, _catalog_counts),
    ("arrayops", "mul4", "arrayops.mul4", True, _mul4_counts),
    ("arrayops", "reflectance4", "arrayops.reflectance4", True, _scalar_kernel_counts),
    ("arrayops", "denominator4", "arrayops.denominator4", True, _scalar_kernel_counts),
    ("bounds", "tighten_bounds", "bounds.tighten_bounds", False, None),
    ("bounds", "suffix_product_bounds", "bounds.suffix_product_bounds", False, None),
    ("solver", "brute_force", "solver.brute", False, _solve_counts),
    ("solver", "branch_and_bound", "solver.bnb", False, _solve_counts),
    ("solver", "evaluate_design", "solver.evaluate_design", False, None),
    ("relax", "hyperplanes_for_catalog", "relax.hyperplanes", False, _planes_counts),
    ("relax", "collect_candidates", "relax.collect_candidates", True, _candidate_counts),
    ("relax", "fit_hyperplane", "relax.fit_hyperplane", True, None),
    ("model", "build_misocp", "model.build_misocp", False, _model_counts),
    ("model", "build_miqcp", "model.build_miqcp", False, _model_counts),
    ("lpio", "export_lp", "lpio.export_lp", False, _lp_counts),
    ("lpio", "import_lp", "lpio.import_lp", False, None),
    ("lpio", "write_solution", "lpio.write_solution", False, None),
    ("lpio", "import_solution", "lpio.import_solution", False, None),
    ("heuristics", "quarter_wave_design", "heuristics.quarter_wave_design", False, None),
    ("heuristics", "compare_methods", "heuristics.compare_methods", False, None),
)


class Tracer:
    def __init__(self) -> None:
        # Open spans: [child time, span id]; the root frame is never closed.
        self.stack: list[list] = [[0.0, None]]
        self.totals: dict[str, dict] = {}
        self.spans: list[tuple] = []
        self.ids = itertools.count()
        self.t0 = perf_counter()

    def wrap(self, name: str, fn, folded: bool, hook):
        stack = self.stack
        total = self.totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        spans = self.spans
        ids = self.ids

        def wrapper(*args, **kwargs):
            span_id = None if folded else next(ids)
            frame = [0.0, span_id]
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:  # calls that raise (relax.fit_hyperplane often does) count too
                end = perf_counter()
                stack.pop()
                dt = end - start
                total["calls"] += 1
                total["s"] += dt
                total["self_s"] += dt - frame[0]
                if not folded:
                    spans.append((span_id, parent[1], name, start - self.t0, end - self.t0))
                parent[0] += dt
            if hook is not None:
                for key, value in hook(args, kwargs, out).items():
                    total[key] = total.get(key, 0) + value
                parent[0] += perf_counter() - end
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path: Path) -> None:
        record = {
            "top_s": self.stack[0][0],
            "totals": self.totals,
            "spans": [
                {"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in self.spans
            ],
        }
        Path(path).write_text(json.dumps(record), encoding="utf-8")


def install() -> Tracer:
    """Wrap every target in every loaded filmopt module that binds it."""
    import filmopt.cli  # noqa: F401  (loads every layer module)

    tracer = Tracer()
    modules = [m for name, m in sys.modules.items() if name.startswith("filmopt") and m is not None]
    for module_name, attr, name, folded, hook in TARGETS:
        original = getattr(sys.modules[f"filmopt.{module_name}"], attr)
        wrapper = tracer.wrap(name, original, folded, hook)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    return tracer
