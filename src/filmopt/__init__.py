"""Multilayer dielectric mirror design on metallic substrates.

Core surface: transfer-matrix reflectance evaluation in a real 2x2 carrier
(:mod:`filmopt.optics`), dispersion-backed instance catalogs
(:mod:`filmopt.materials`), interval-propagated entry bounds
(:mod:`filmopt.bounds`), exact enumeration / branch-and-bound
(:mod:`filmopt.solver`), affine overapproximators of the reflectance
denominator (:mod:`filmopt.relax`), and solver-agnostic MIQCP/MISOCP model
construction with LP-format export (:mod:`filmopt.model`,
:mod:`filmopt.lpio`).

``import filmopt`` runs only ``errors``, ``materials`` and ``optics``.  The
solver names (``SolveReport``, ``branch_and_bound``, ``brute_force``,
``evaluate_design``) and every submodule (``filmopt.solver``,
``filmopt.bounds``, ...) load on first access, through the module
``__getattr__`` (PEP 562).  Each run of filmopt is a one-shot process,
and without bytecode caches it compiles every module it loads: a process
that only builds a catalog compiles none of ``solver``, ``bounds`` and
``arrayops`` (about 790 lines), and a CLI command that never searches
compiles no ``solver``.
"""

import importlib

from .materials import Catalog, CatalogConfig, DispersionTable, build_catalog, load_tables
from .optics import (
    IDENTITY,
    ComplexIndex,
    Spectrum,
    StructuredMatrix,
    average_reflectance,
    chain_product,
    make_transfer_matrix,
    multiply,
    reflectance,
)

__all__ = [
    "Catalog",
    "CatalogConfig",
    "ComplexIndex",
    "DispersionTable",
    "IDENTITY",
    "SolveReport",
    "Spectrum",
    "StructuredMatrix",
    "average_reflectance",
    "branch_and_bound",
    "brute_force",
    "build_catalog",
    "chain_product",
    "evaluate_design",
    "load_tables",
    "make_transfer_matrix",
    "multiply",
    "reflectance",
]

__version__ = "0.1.0"

_SOLVER_NAMES = ("SolveReport", "branch_and_bound", "brute_force", "evaluate_design")


def __getattr__(name: str):
    """A solver name or a submodule, loaded on first access."""
    if name in _SOLVER_NAMES:
        globals()[name] = value = getattr(importlib.import_module(".solver", __name__), name)
        return value
    if not name.startswith("_"):
        try:
            return importlib.import_module(f"{__name__}.{name}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
