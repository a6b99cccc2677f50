import itertools
import random

import numpy as np
import pytest

from filmopt import materials, optics
from filmopt.materials import CatalogConfig, DispersionTable, build_catalog
from filmopt.model import Model

THETA1 = {"TiO2": tuple(float(t) for t in range(20, 141, 10)),
          "MgF2": tuple(float(t) for t in range(50, 281, 10))}
SUBSTRATES = ("Molybdenum", "Niobium", "Tantalum", "Tungsten")


@pytest.fixture(scope="session")
def data_tables():
    cfg = CatalogConfig(
        substrate="Molybdenum", materials=("TiO2", "MgF2"),
        thicknesses=THETA1, wavelengths=(550.0,), layers=1)
    tables = materials.load_tables(cfg)
    for sub in SUBSTRATES:
        tables[sub] = materials.load_dispersion(materials.DATA_DIR / f"{sub}.csv")
    return tables


def single_wavelength_config(substrate: str, wavelength: float, layers: int = 6) -> CatalogConfig:
    return CatalogConfig(
        substrate=substrate, materials=("TiO2", "MgF2"),
        thicknesses=THETA1, wavelengths=(wavelength,), layers=layers,
        alternating=True)


def flat_table(material_id: str, n0: float, n1: float, k0: float = 0.0, k1: float = 0.0) -> DispersionTable:
    return DispersionTable(material_id, (200.0, 4000.0), (n0, n1), (k0, k1))


def random_catalog(rng: random.Random, max_layers: int = 4, max_choices: int = 6,
                   max_wavelengths: int = 3):
    """Small synthetic instance: two dielectric coatings on a lossy substrate."""
    n_layers = rng.randint(1, max_layers)
    n_wl = rng.randint(1, max_wavelengths)
    wls = tuple(sorted(rng.sample(range(350, 2001, 25), n_wl)))
    tables = {
        "A": flat_table("A", rng.uniform(2.0, 3.4), rng.uniform(2.0, 3.4)),
        "B": flat_table("B", rng.uniform(1.2, 1.9), rng.uniform(1.2, 1.9)),
        "S": flat_table("S", rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0),
                        rng.uniform(0.5, 6.0), rng.uniform(0.5, 6.0)),
    }

    def grid() -> tuple[float, ...]:
        count = rng.randint(1, max(1, max_choices // 2))
        return tuple(sorted(rng.sample(range(20, 301, 10), count)))

    cfg = CatalogConfig(
        substrate="S", materials=("A", "B"),
        thicknesses={"A": grid(), "B": grid()},
        wavelengths=tuple(float(w) for w in wls),
        layers=n_layers,
        alternating=bool(rng.getrandbits(1)),
    )
    return build_catalog(cfg, tables), tables


def enumerate_designs(catalog):
    return itertools.product(
        *[catalog.choices_at(n) for n in range(1, catalog.n_layers + 1)]
    )


def naive_best(catalog):
    """Independent enumerator: scalar products, no prefix sharing."""
    best_obj, best_design = -1.0, None
    for picks in enumerate_designs(catalog):
        total = 0.0
        for li, wl in enumerate(catalog.spectrum.wavelengths):
            m = optics.IDENTITY
            for mat, t in picks:
                m = optics.multiply(m, catalog.matrix(mat, t, wl))
            total += catalog.spectrum.weights[li] * optics.reflectance(
                m, catalog.substrate_indices[li]
            )
        if total > best_obj + 1e-12:
            best_obj, best_design = total, picks
    return best_obj, best_design


def complex_from_structured(m: optics.StructuredMatrix) -> np.ndarray:
    return np.array([[m.a11, 1j * m.a12], [1j * m.a21, m.a22]], dtype=complex)


def structured_from_complex(c: np.ndarray) -> optics.StructuredMatrix:
    return optics.StructuredMatrix(c[0, 0].real, c[0, 1].imag, c[1, 0].imag, c[1, 1].real)


def denominator_on_x(substrate: optics.ComplexIndex):
    """D as a scalar function of the x-ordered 4-vector (w11, w22, w12, w21)."""

    def g(x):
        x1, x2, x3, x4 = x
        return optics.denominator_D(optics.StructuredMatrix(x1, x3, x4, x2), substrate)

    return g


def models_close(a: Model, b: Model, rtol: float = 1e-15) -> bool:
    """Structural equality up to relative coefficient tolerance."""

    def close(x: float, y: float) -> bool:
        return abs(x - y) <= rtol * max(1.0, abs(x), abs(y))

    avars = {v.name: v for v in a.variables}
    bvars = {v.name: v for v in b.variables}
    if set(avars) != set(bvars):
        return False
    for name, va in avars.items():
        vb = bvars[name]
        if va.kind != vb.kind or not (close(va.lower, vb.lower) and close(va.upper, vb.upper)):
            return False
    if len(a.linear) != len(b.linear) or len(a.quadratic) != len(b.quadratic):
        return False
    for ca, cb in zip(a.linear, b.linear):
        if ca.name != cb.name or ca.sense != cb.sense or not close(ca.rhs, cb.rhs):
            return False
        if set(ca.coeffs) != set(cb.coeffs):
            return False
        if not all(close(ca.coeffs[n], cb.coeffs[n]) for n in ca.coeffs):
            return False
    for qa, qb in zip(a.quadratic, b.quadratic):
        if qa.name != qb.name or qa.sense != qb.sense or not close(qa.rhs, qb.rhs):
            return False
        if set(qa.lin) != set(qb.lin) or set(qa.quad) != set(qb.quad):
            return False
        if not all(close(qa.lin[n], qb.lin[n]) for n in qa.lin):
            return False
        if not all(close(qa.quad[p], qb.quad[p]) for p in qa.quad):
            return False
    if a.objective.sense != b.objective.sense:
        return False
    if set(a.objective.coeffs) != set(b.objective.coeffs):
        return False
    if not all(close(a.objective.coeffs[n], b.objective.coeffs[n]) for n in a.objective.coeffs):
        return False
    return close(a.objective.constant, b.objective.constant)
