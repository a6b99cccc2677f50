"""Multilayer dielectric mirror design on metallic substrates.

Core surface: transfer-matrix reflectance evaluation in a real 2x2 carrier
(:mod:`filmopt.optics`), dispersion-backed instance catalogs
(:mod:`filmopt.materials`), interval-propagated entry bounds
(:mod:`filmopt.bounds`), exact enumeration / branch-and-bound
(:mod:`filmopt.solver`), affine overapproximators of the reflectance
denominator (:mod:`filmopt.relax`), and solver-agnostic MIQCP/MISOCP model
construction with LP-format export (:mod:`filmopt.model`,
:mod:`filmopt.lpio`).
"""

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
from .solver import SolveReport, branch_and_bound, brute_force, evaluate_design

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
