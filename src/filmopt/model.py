"""Solver-agnostic algebraic models of the discrete coating problem.

The exact formulation is a nonconvex MIQCP.  Binary variables pick one
(material, thickness) per layer; gated copies `v` of the running cumulative
matrix linearize the product recursion (the copy is boxed to zero unless its
binary fires, and to the tightened entry bounds when it does); auxiliaries
`d <= D(w)` and `f*d >= 4 Re(a)` turn the reflectance into the linear
objective sum phi*(1 - f).  Intermediate cumulative matrices are eliminated
by substitution: the chain constraints tie consecutive copy sums together,
so only v, w, d, f and the binaries remain.  Per wavelength the structure is
one loop over layer boundaries, with coefficients read from the dense
``Catalog.layer_matrices``.

The relaxation keeps everything except the reverse-convex cap `d <= D(w)`,
which is replaced by validated affine overapproximators of D.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import bounds as bounds_mod
from .bounds import EntryBounds
from .errors import InconsistentBounds, MissingHyperplanes
from .materials import Catalog
from .optics import StructuredMatrix, chain_product, denominator_D
from .relax import X_ORDER, Hyperplane

ENTRY_TAGS = ("11", "12", "21", "22")


# ---------------------------------------------------------------------------
# Generic container


@dataclass
class Variable:
    name: str
    lower: float
    upper: float
    kind: str = "continuous"  # or "binary"


@dataclass
class LinearConstraint:
    name: str
    coeffs: dict[str, float]
    sense: str  # "<=", "=", ">="
    rhs: float


@dataclass
class QuadraticConstraint:
    name: str
    quad: dict[tuple[str, str], float]
    lin: dict[str, float]
    sense: str
    rhs: float


@dataclass
class Objective:
    coeffs: dict[str, float]
    constant: float = 0.0
    sense: str = "max"


@dataclass
class Model:
    name: str
    variables: list[Variable] = field(default_factory=list)
    linear: list[LinearConstraint] = field(default_factory=list)
    quadratic: list[QuadraticConstraint] = field(default_factory=list)
    objective: Objective = field(default_factory=lambda: Objective({}))
    header_comments: list[str] = field(default_factory=list)

    def variable_names(self) -> set[str]:
        return {v.name for v in self.variables}

    def validate(self) -> None:
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        declared = set(names)
        for v in self.variables:
            if v.kind == "continuous" and not (
                math.isfinite(v.lower) and math.isfinite(v.upper)
            ):
                raise ValueError(f"{v.name}: continuous variable needs finite bounds")
            if v.lower > v.upper:
                raise ValueError(f"{v.name}: lower bound exceeds upper")
        referenced = set(self.objective.coeffs)
        for c in self.linear:
            referenced.update(c.coeffs)
        for q in self.quadratic:
            referenced.update(q.lin)
            for pair in q.quad:
                referenced.update(pair)
        missing = referenced - declared
        if missing:
            raise ValueError(f"constraints reference undeclared variables: {sorted(missing)[:5]}")

    def objective_value(self, values: dict[str, float]) -> float:
        return self.objective.constant + sum(
            c * values[n] for n, c in self.objective.coeffs.items()
        )

    def check_point(self, values: dict[str, float]) -> float:
        """Largest constraint/bound violation of a full assignment (0 if feasible)."""
        worst = 0.0

        def residual(lhs: float, sense: str, rhs: float) -> float:
            if sense == "<=":
                return lhs - rhs
            if sense == ">=":
                return rhs - lhs
            return abs(lhs - rhs)

        for v in self.variables:
            x = values[v.name]
            worst = max(worst, v.lower - x, x - v.upper)
            if v.kind == "binary":
                worst = max(worst, min(abs(x), abs(x - 1.0)))
        for c in self.linear:
            lhs = sum(coef * values[n] for n, coef in c.coeffs.items())
            worst = max(worst, residual(lhs, c.sense, c.rhs))
        for q in self.quadratic:
            lhs = sum(coef * values[n] for n, coef in q.lin.items())
            lhs += sum(coef * values[n1] * values[n2] for (n1, n2), coef in q.quad.items())
            worst = max(worst, residual(lhs, q.sense, q.rhs))
        return worst


# ---------------------------------------------------------------------------
# Naming scheme


def _fmt_thickness(t: float) -> str:
    if t == int(t):
        return str(int(t))
    return str(t).replace(".", "p").replace("-", "m")


def _label(layer: int, material: str, thickness: float) -> str:
    return f"{layer}_{material}_{_fmt_thickness(thickness)}"


def _labels(catalog: Catalog) -> list[list[str]]:
    """`<layer>_<material>_<thickness>` of every choice, per layer in choice order."""
    return [
        [_label(layer, m, t) for m, t in choices]
        for layer, choices in enumerate(catalog.layer_choices, start=1)
    ]


def x_name(layer: int, material: str, thickness: float) -> str:
    return f"x_{_label(layer, material, thickness)}"


def v_name(li: int, layer: int, material: str, thickness: float, tag: str) -> str:
    return f"v_{li}_{_label(layer, material, thickness)}_{tag}"


def w_name(li: int, tag: str) -> str:
    return f"w_{li}_{tag}"


def d_name(li: int) -> str:
    return f"d_{li}"


def f_name(li: int) -> str:
    return f"f_{li}"


def variable_map_text(catalog: Catalog) -> str:
    """varmap.json: name -> meaning of every variable of the catalog's models.

    Equal to ``json.dumps(..., indent=2)`` of ``{"x": {name: meaning}, "v":
    ..., "w": ..., "d": ..., "f": ...}``.  The large ``v`` group is joined from
    per-choice pieces: ``json.dumps`` escapes a string one character at a
    time, so escaped labels concatenate into escaped names.
    """
    q = json.dumps
    x: dict[str, dict] = {}
    v_pieces: list[tuple[str, str]] = []  # each v entry's text after its wavelength index, and after the wavelength
    for layer, (layer_labels, choices) in enumerate(zip(_labels(catalog), catalog.layer_choices), start=1):
        for label, (m, t) in zip(layer_labels, choices):
            x[f"x_{label}"] = {"layer": layer, "material": m, "thickness_nm": t}
            meaning = f'"layer": {layer},\n    "material": {q(m)},\n    "thickness_nm": {q(t)}'
            v_pieces += [(f'_{q(label)[1:-1]}_{tag}": {{\n    "wavelength_nm": ',
                          f',\n    {meaning},\n    "entry": "{tag}"\n  }}') for tag in ENTRY_TAGS]
    wls = list(enumerate(catalog.spectrum.wavelengths))
    v = [f'  "v_{li}{head}{wl}{tail}' for li, wl in enumerate(map(q, catalog.spectrum.wavelengths))
         for head, tail in v_pieces]
    groups = {
        "x": q(x, indent=2),
        "v": "{\n" + ",\n".join(v) + "\n}" if v else "{}",
        "w": q({w_name(li, tag): {"wavelength_nm": wl, "entry": tag} for li, wl in wls for tag in ENTRY_TAGS}, indent=2),
        "d": q({d_name(li): {"wavelength_nm": wl} for li, wl in wls}, indent=2),
        "f": q({f_name(li): {"wavelength_nm": wl} for li, wl in wls}, indent=2),
    }
    # JSON text holds no raw newline, so indenting each line nests a group one level down
    return "{\n" + ",\n".join(f'  "{key}": ' + text.replace("\n", "\n  ") for key, text in groups.items()) + "\n}\n"


# ---------------------------------------------------------------------------
# Builders

_HEADER = [
    "variable naming: x_<layer>_<material>_<thickness> binary layer choice;",
    "v_<l>_<layer>_<material>_<thickness>_<ij> gated copy (wavelength index l) of the",
    "cumulative-product entry ij entering <layer>; w_<l>_<ij> final cumulative entries;",
    "d_<l> denominator auxiliary; f_<l> loss auxiliary (objective = sum phi*(1 - f)).",
    "entry tags: 11,12,21,22 address the real carrier (a11, a12, a21, a22).",
]


#: Entry e of (copy * T) as (copy entry, T entry, sign) terms; the product
#: rule of the carrier, so each row of a chain constraint is linear in the copies.
_IMAGE = (
    ((0, 0, 1.0), (1, 2, -1.0)),  # a11*t11 - a12*t21
    ((0, 1, 1.0), (1, 3, 1.0)),   # a11*t12 + a12*t22
    ((2, 0, 1.0), (3, 2, 1.0)),   # a21*t11 + a22*t21
    ((3, 3, 1.0), (2, 1, -1.0)),  # a22*t22 - a21*t12
)
_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _structure(catalog: Catalog, entry_bounds: EntryBounds, name: str) -> Model:
    """Common part of both models: everything except the d <= D(w) coupling.

    Per wavelength, boundary 0 ties the copies entering layer 1 to the
    identity, and boundary k ties the image of layer k's copies under their
    layer matrices to the copies entering layer k+1; the last boundary ties
    it to w instead (with 0 layers, w itself is the identity).
    """
    if entry_bounds.lower.shape[1] != catalog.n_layers + 1:
        raise InconsistentBounds("entry bounds depth does not match the catalog")
    if (entry_bounds.lower > entry_bounds.upper).any():
        raise InconsistentBounds("entrywise lower bound exceeds upper bound")

    n_layers = catalog.n_layers
    n_wl = len(catalog.spectrum)
    labels = _labels(catalog)
    model = Model(name=name, header_comments=list(_HEADER))

    for layer_labels in labels:
        model.variables.extend(Variable(f"x_{lab}", 0.0, 1.0, "binary") for lab in layer_labels)
    for li in range(n_wl):
        lower, upper = entry_bounds.lower[li].tolist(), entry_bounds.upper[li].tolist()
        # copies[k] enter layer k+1; w enters the (absent) layer N+1
        copies = [[f"v_{li}_{lab}" for lab in layer_labels] for layer_labels in labels] + [[f"w_{li}"]]
        for k in range(n_layers + 1):
            rows = [{} for _ in ENTRY_TAGS]
            if k:
                for v, t in zip(copies[k - 1], catalog.layer_matrices[k - 1][:, li].tolist()):
                    for row, terms in zip(rows, _IMAGE):
                        for src, entry, sign in terms:
                            row[f"{v}_{ENTRY_TAGS[src]}"] = sign * t[entry]
            prefix = f"c_final_{li}" if k == n_layers else f"c_chain_{li}_{k}" if k else f"c_u0_{li}"
            for e, (tag, row) in enumerate(zip(ENTRY_TAGS, rows)):
                row.update({f"{v}_{tag}": -1.0 if k else 1.0 for v in copies[k]})
                model.linear.append(LinearConstraint(f"{prefix}_{tag}", row, "=", 0.0 if k else _IDENTITY[e]))
        for layer_labels, layer_copies, lo, hi in zip(labels, copies, lower, upper):
            for lab, v in zip(layer_labels, layer_copies):
                xn = f"x_{lab}"
                for e, tag in enumerate(ENTRY_TAGS):
                    vn = f"{v}_{tag}"
                    model.variables.append(Variable(vn, min(lo[e], 0.0), max(hi[e], 0.0)))
                    for kind, bound, sense in (("ub", hi, "<="), ("lb", lo, ">=")):
                        model.linear.append(LinearConstraint(
                            f"c_{kind}_{li}_{lab}_{tag}", {vn: 1.0, xn: -bound[e]}, sense, 0.0
                        ))
        model.variables.extend(
            Variable(w_name(li, tag), lo, hi) for tag, lo, hi in zip(ENTRY_TAGS, lower[-1], upper[-1])
        )
    for li in range(n_wl):
        sub = catalog.substrate_indices[li]
        lo, hi = entry_bounds.box(li, n_layers)
        dmax = bounds_mod.max_denominator_over_box(lo, hi, sub)
        model.variables.append(Variable(d_name(li), 0.0, dmax))
        model.variables.append(Variable(f_name(li), 0.0, 2.0))

    for layer, layer_labels in enumerate(labels, start=1):
        coeffs = {f"x_{lab}": 1.0 for lab in layer_labels}
        model.linear.append(LinearConstraint(f"c_pick_{layer}", coeffs, "=", 1.0))

    for li in range(n_wl):
        a = catalog.substrate_indices[li].re
        model.quadratic.append(
            QuadraticConstraint(
                f"qc_cone_{li}",
                quad={(d_name(li), f_name(li)): 1.0},
                lin={},
                sense=">=",
                rhs=4.0 * a,
            )
        )

    phi = catalog.spectrum.weights
    model.objective = Objective(
        coeffs={f_name(li): -phi[li] for li in range(n_wl)},
        constant=sum(phi),
        sense="max",
    )
    return model


def build_miqcp(catalog: Catalog, entry_bounds: EntryBounds) -> Model:
    """Exact nonconvex model: structure plus the reverse-convex cap d <= D(w)."""
    model = _structure(catalog, entry_bounds, "miqcp")
    for li in range(len(catalog.spectrum)):
        sub = catalog.substrate_indices[li]
        a, b = sub.re, sub.im
        w = lambda tag: w_name(li, tag)  # noqa: E731
        quad = {
            (w("11"), w("11")): -1.0,
            (w("12"), w("12")): -(a * a + b * b),
            (w("21"), w("21")): -1.0,
            (w("22"), w("22")): -(a * a + b * b),
            (w("11"), w("12")): 2.0 * b,
            (w("21"), w("22")): -2.0 * b,
        }
        model.quadratic.append(
            QuadraticConstraint(
                f"qc_dcap_{li}", quad=quad, lin={d_name(li): 1.0}, sense="<=", rhs=2.0 * a
            )
        )
    return model


def build_misocp(
    catalog: Catalog,
    entry_bounds: EntryBounds,
    overapproximators: list[list[Hyperplane]],
) -> Model:
    """Convex relaxation: the cap is replaced by affine overapproximators of D."""
    if len(overapproximators) != len(catalog.spectrum):
        raise MissingHyperplanes(
            f"{len(overapproximators)} hyperplane families for "
            f"{len(catalog.spectrum)} wavelengths"
        )
    if any(not planes for planes in overapproximators):
        raise MissingHyperplanes("a wavelength has an empty hyperplane family")
    model = _structure(catalog, entry_bounds, "misocp")
    for li, planes in enumerate(overapproximators):
        for k, h in enumerate(planes):
            #  a1*x1 + a2*x2 + a3*x3 + a4*x4 - d >= -a0
            coeffs = {
                w_name(li, ENTRY_TAGS[e]): a
                for e, a in zip(X_ORDER, h.coefficients()[1:])
            }
            coeffs[d_name(li)] = -1.0
            model.linear.append(
                LinearConstraint(f"c_hyp_{li}_{k}", coeffs, ">=", -h.a0)
            )
    return model


def design_point(
    catalog: Catalog,
    design: tuple[tuple[str, float], ...],
    overapproximators: list[list[Hyperplane]] | None = None,
) -> dict[str, float]:
    """Full variable assignment induced by a concrete design.

    For the exact model, d = D(w) and f = 4 Re(a)/d make both quadratic
    couplings tight.  With hyperplanes given, d is additionally capped by
    their minimum so the point is feasible in the relaxation as well.
    """
    values: dict[str, float] = {}
    for layer in range(1, catalog.n_layers + 1):
        for m, t in catalog.choices_at(layer):
            values[x_name(layer, m, t)] = 1.0 if design[layer - 1] == (m, t) else 0.0
    for li, wl in enumerate(catalog.spectrum.wavelengths):
        mats = [catalog.matrix(m, t, wl) for m, t in design]
        running: list[StructuredMatrix] = [chain_product(mats[:k]) for k in range(len(design) + 1)]
        for layer in range(1, catalog.n_layers + 1):
            u_prev = running[layer - 1].entries()
            for m, t in catalog.choices_at(layer):
                chosen = design[layer - 1] == (m, t)
                for e, tag in enumerate(ENTRY_TAGS):
                    values[v_name(li, layer, m, t, tag)] = u_prev[e] if chosen else 0.0
        w = running[-1]
        w_entries = w.entries()
        for e, tag in enumerate(ENTRY_TAGS):
            values[w_name(li, tag)] = w_entries[e]
        sub = catalog.substrate_indices[li]
        d = denominator_D(w, sub)
        if overapproximators is not None:
            x = [w_entries[e] for e in X_ORDER]
            d = min(d, min(h.value(x) for h in overapproximators[li]))
        values[d_name(li)] = d
        values[f_name(li)] = 4.0 * sub.re / d
    return values
