import itertools
import random

import numpy as np
import pytest

from filmopt import materials, optics
from filmopt.arrayops import mul4
from filmopt.bounds import suffix_product_bounds
from filmopt.materials import CatalogConfig, DispersionTable, build_catalog
from filmopt.model import ENTRY_TAGS, Model, _labels, d_name, f_name, w_name

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
                   max_wavelengths: int = 3, alternating: bool | None = None):
    """Small synthetic instance: two dielectric coatings on a lossy substrate.

    The layer mode is drawn at random unless `alternating` fixes it.
    """
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
        alternating=bool(rng.getrandbits(1)) if alternating is None else alternating,
    )
    return build_catalog(cfg, tables), tables


#: Row i picks hi[e] where set and lo[e] elsewhere: the 16 corners of a box.
_CORNER_PICKS = np.array(list(itertools.product((False, True), repeat=4)))


def corner_propagation(catalog, forward: bool) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bound arrays by stepping the 16 corners of each box.

    Reference for ``bounds.tighten_bounds`` (forward) and
    ``bounds.suffix_product_bounds``: each step multiplies every corner of
    the previous box by every choice of the next layer (from the right
    going forward, from the left going backward) and takes the entrywise
    min/max of all the products.
    """
    n_layers = catalog.n_layers
    n_wl = len(catalog.spectrum)
    identity = np.array([1.0, 0.0, 0.0, 1.0])
    lower = np.empty((n_wl, n_layers + 1, 4))
    upper = np.empty_like(lower)
    start, depths = (0, range(1, n_layers + 1)) if forward else (n_layers, range(n_layers - 1, -1, -1))
    lower[:, start] = upper[:, start] = identity
    corners = np.broadcast_to(identity, (n_wl, 1, 1, 4))
    for depth in depths:
        mats = catalog.layer_matrices[depth - 1 if forward else depth].transpose(1, 0, 2)[:, None]
        reached = mul4(corners, mats) if forward else mul4(mats, corners)
        lo, hi = reached.min(axis=(1, 2)), reached.max(axis=(1, 2))
        lower[:, depth], upper[:, depth] = lo, hi
        corners = np.where(_CORNER_PICKS, hi[..., None, :], lo[..., None, :])[:, :, None]
    return lower, upper


def identity_suffix_bounds(catalog):
    """``bounds.suffix_product_bounds`` split after the last layer: every depth, from the identity."""
    identity = np.tile(np.array([1.0, 0.0, 0.0, 1.0])[:, None], (len(catalog.spectrum), 1, 1))
    return suffix_product_bounds(catalog, catalog.n_layers, identity)


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
    """Structural equality up to relative coefficient tolerance, the variables in any order."""

    def close(x, y) -> bool:
        return bool(np.all(abs(x - y) <= rtol * np.maximum(1.0, np.maximum(abs(x), abs(y)))))

    va, vb, ra, rb = a.variables, b.variables, a.linear, b.linear
    if sorted(va.names) != sorted(vb.names):
        return False
    column_in_b = {n: i for i, n in enumerate(vb.names)}
    at = np.array([column_in_b[n] for n in va.names], np.intp)  # b's column of each of a's variables
    if not (np.array_equal(va.binary, vb.binary[at]) and close(va.lower, vb.lower[at])
            and close(va.upper, vb.upper[at])):
        return False
    if (ra.names, ra.senses.tolist()) != (rb.names, rb.senses.tolist()) or len(a.quadratic) != len(b.quadratic):
        return False
    if not (np.array_equal(ra.indptr, rb.indptr) and np.array_equal(at[ra.cols], rb.cols)
            and close(ra.vals, rb.vals) and close(ra.rhs, rb.rhs)):
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


def linear_rows(model: Model) -> list[tuple[str, dict[str, float], str, float]]:
    """Each linear row of `model` as ``(name, {variable name: coefficient}, sense, rhs)``, read from its CSR."""
    rows, names = model.linear, model.variables.names
    ptr, cols, vals = rows.indptr.tolist(), rows.cols.tolist(), rows.vals.tolist()
    return [(name, {names[cols[j]]: vals[j] for j in range(ptr[i], ptr[i + 1])}, sense, rhs)
            for i, (name, sense, rhs) in enumerate(zip(rows.names, rows.senses.tolist(), rows.rhs.tolist()))]


def linear_constraint_count(catalog) -> int:
    """Closed form for the structural linear-constraint count of the exact model."""
    n_wl = len(catalog.spectrum)
    n_layers = catalog.n_layers
    per_layer_choices = sum(len(catalog.choices_at(n)) for n in range(1, n_layers + 1))
    return n_wl * (4 + 4 * n_layers + 8 * per_layer_choices) + n_layers


def variable_map(catalog) -> dict:
    """Oracle for ``model.variable_map_pieces``: the name -> meaning map as nested dicts."""
    labels = _labels(catalog)
    out: dict[str, dict] = {"x": {}, "v": {}, "w": {}, "d": {}, "f": {}}
    for layer, choices in enumerate(catalog.layer_choices, start=1):
        for label, (m, t) in zip(labels[layer - 1], choices):
            out["x"][f"x_{label}"] = {"layer": layer, "material": m, "thickness_nm": t}
    for li, wl in enumerate(catalog.spectrum.wavelengths):
        for layer, choices in enumerate(catalog.layer_choices, start=1):
            for label, (m, t) in zip(labels[layer - 1], choices):
                for tag in ENTRY_TAGS:
                    out["v"][f"v_{li}_{label}_{tag}"] = {
                        "wavelength_nm": wl, "layer": layer, "material": m,
                        "thickness_nm": t, "entry": tag,
                    }
        for tag in ENTRY_TAGS:
            out["w"][w_name(li, tag)] = {"wavelength_nm": wl, "entry": tag}
        out["d"][d_name(li)] = {"wavelength_nm": wl}
        out["f"][f_name(li)] = {"wavelength_nm": wl}
    return out


# Reference LP writer: one token at a time, as the writer worked before it
# built each row as one string.  Oracle for ``lpio.export_lp``.

LP_MAX_LINE = 200


def _num(x: float) -> str:
    return format(x, ".17g")


def reference_wrap(tokens, first_prefix: str) -> list[str]:
    lines: list[str] = []
    current = first_prefix
    for tok in tokens:
        if len(current) + len(tok) + 1 > LP_MAX_LINE and current.strip():
            lines.append(current)
            current = "  " + tok
        else:
            current = current + " " + tok if current.strip() else current + tok
    lines.append(current)
    return lines


def _linear_tokens(coeffs: dict[str, float], constant: float | None = None) -> list[str]:
    toks: list[str] = []
    for name, c in coeffs.items():
        sign = "-" if c < 0 else "+"
        toks.extend([sign, _num(abs(c)), name])
    if constant is not None and constant != 0.0:
        sign = "-" if constant < 0 else "+"
        toks.extend([sign, _num(abs(constant))])
    if not toks:
        toks = ["+", "0"]
    if toks[0] == "+":
        toks = toks[1:]
    return toks


def _quad_tokens(quad: dict[tuple[str, str], float]) -> list[str]:
    toks: list[str] = ["["]
    first = True
    for (n1, n2), c in quad.items():
        sign = "-" if c < 0 else "+"
        group = [_num(abs(c))] if first and sign == "+" else [sign, _num(abs(c))]
        group.extend([n1, "^", "2"] if n1 == n2 else [n1, "*", n2])
        toks.extend(group)
        first = False
    toks.append("]")
    return toks


def reference_lp_text(model: Model) -> str:
    """The LP text that ``lpio.export_lp`` must write for `model`."""
    lines: list[str] = [f"\\ Model: {model.name}"]
    lines.extend(f"\\ {c}" for c in model.header_comments)
    if (model.variables or model.linear or model.quadratic
            or model.objective.coeffs or model.objective.constant):
        lines.append("Maximize" if model.objective.sense == "max" else "Minimize")
        lines.extend(reference_wrap(_linear_tokens(model.objective.coeffs, model.objective.constant), " obj:"))
        if model.linear or model.quadratic:
            lines.append("Subject To")
        for name, coeffs, sense, rhs in linear_rows(model):
            lines.extend(reference_wrap(_linear_tokens(coeffs) + [sense, _num(rhs)], f" {name}:"))
        for q in model.quadratic:
            toks = _linear_tokens(q.lin) + ["+"] if q.lin else []
            toks += _quad_tokens(q.quad) + [q.sense, _num(q.rhs)]
            lines.extend(reference_wrap(toks, f" {q.name}:"))
        var = model.variables
        continuous = np.flatnonzero(~var.binary)
        if len(continuous):
            lines.append("Bounds")
            lines.extend(f" {_num(var.lower[i])} <= {var.names[i]} <= {_num(var.upper[i])}" for i in continuous)
        binaries = [var.names[i] for i in np.flatnonzero(var.binary)]
        if binaries:
            lines.append("Binaries")
            lines.extend(reference_wrap(binaries, " "))
    lines.append("End")
    return "\n".join(lines) + "\n"
