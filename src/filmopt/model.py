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

A :class:`Model` keeps its variables and linear rows as columns: name,
bound and binary arrays, and the rows in CSR form over variable indices.
The builders fill them one numpy block at a time.  Quadratic rows and the
objective stay dicts keyed by variable name.  A model and its parts are
frozen, and a model is checked once, when it is made: one that breaks a
rule its LP text needs to read back as itself never exists.

The relaxation keeps everything except the reverse-convex cap `d <= D(w)`,
which is replaced by validated affine overapproximators of D.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .arrayops import (
    IDENTITY4, PRODUCT_LEFT, PRODUCT_RIGHT, PRODUCT_SIGN, X_ORDER, box_max_denominator4, plane_values,
)
from .bounds import EntryBounds
from .errors import InconsistentBounds, MissingHyperplanes
from .materials import Catalog, invalid_name
from .optics import IDENTITY, StructuredMatrix, denominator_D, multiply

ENTRY_TAGS = ("11", "12", "21", "22")
SENSES = ("<=", "=", ">=")


# ---------------------------------------------------------------------------
# Generic container


@dataclass(frozen=True)
class QuadraticConstraint:
    name: str
    quad: dict[tuple[str, str], float]
    lin: dict[str, float]
    sense: str
    rhs: float


@dataclass(frozen=True)
class Objective:
    coeffs: dict[str, float]
    constant: float = 0.0
    sense: str = "max"


def _frozen(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Variables:
    """The variables as columns: names, bound arrays and a binary mask; the arrays are read-only."""

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    binary: np.ndarray

    def __post_init__(self) -> None:
        _frozen(self.lower, self.upper, self.binary)

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True, eq=False)
class LinearRows:
    """The linear rows in CSR form.

    Row ``i`` is ``names[i]: sum_j vals[j] * x[cols[j]] senses[i] rhs[i]``
    over ``j`` in ``indptr[i]:indptr[i + 1]``, where ``cols`` index
    ``columns``, the model's variable names, so every term names a declared
    variable.  The arrays are read-only.
    """

    columns: tuple[str, ...]
    names: tuple[str, ...]
    indptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    senses: np.ndarray  # "<=", "=" or ">=" per row
    rhs: np.ndarray

    def __post_init__(self) -> None:
        _frozen(self.indptr, self.cols, self.vals, self.senses, self.rhs)

    def __len__(self) -> int:
        return len(self.names)


def _repeated(names: Sequence[str]) -> str | None:
    """The first name that occurs a second time, or None."""
    if len(set(names)) == len(names):
        return None
    seen: set[str] = set()
    return next(n for n in names if n in seen or seen.add(n))


def _all_finite(*numbers: float) -> bool:
    return all(map(math.isfinite, numbers))


@dataclass(frozen=True, eq=False)
class Model:
    """Variables and linear rows as columns, quadratic rows and the objective as dicts; valid once made.

    ``linear.columns`` must be ``variables.names`` itself, so every row
    indexes the model's own variables.  ``quadratic`` and
    ``header_comments`` are kept as tuples, and ``objective=None`` means
    an empty objective.  Construction checks the rules its LP text needs
    to read back as itself, so no model that breaks one exists.
    """

    name: str
    variables: Variables
    linear: LinearRows
    quadratic: tuple[QuadraticConstraint, ...] = ()
    objective: Objective = None  # None is made Objective({})
    header_comments: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        """Raise ValueError naming the first rule the model breaks.

        The rules go in this order: header, names, repeated names, senses,
        crossed bounds, continuous variables without finite bounds,
        undeclared variables, non-finite numbers.
        """
        var, rows = self.variables, self.linear
        if rows.columns is not var.names:
            raise ValueError("linear rows index variables other than the model's")
        quadratic, header = tuple(self.quadratic), tuple(self.header_comments)
        obj = Objective({}) if self.objective is None else self.objective
        for field, value in (("quadratic", quadratic), ("objective", obj), ("header_comments", header)):
            object.__setattr__(self, field, value)
        # the reader strips the name and each comment, ends each at a line break and names an unnamed model
        # after its file: each must be printable (no ``str.splitlines`` break) and its own ``strip()``, the
        # name nonempty
        texts = (self.name, *header)
        bad = next((t for t in texts if not t.isprintable() or t != t.strip()), None) if self.name else ""
        if bad is not None:
            raise ValueError(f"{bad!r}: not a name or header comment LP text can carry")
        row_names = [*rows.names, *(q.name for q in quadratic)]
        bad = invalid_name(chain(var.names, row_names))
        if bad is not None:
            raise ValueError(f"{bad!r}: not a name LP text can carry")
        for kind, names in (("variable", var.names), ("row", row_names)):
            repeated = _repeated(names)
            if repeated is not None:
                raise ValueError(f"{repeated}: duplicate {kind} name")
        senses = np.concatenate([rows.senses, np.array([q.sense for q in quadratic], dtype=str)])
        odd = np.flatnonzero(~np.isin(senses, SENSES))
        if len(odd):
            raise ValueError(f"{row_names[odd[0]]}: unknown row sense {str(senses[odd[0]])!r}")
        crossed = var.lower > var.upper
        if crossed.any():
            raise ValueError(f"{var.names[crossed.argmax()]}: lower bound exceeds upper")
        unbounded = ~var.binary & ~(np.isfinite(var.lower) & np.isfinite(var.upper))
        if unbounded.any():
            raise ValueError(f"{var.names[unbounded.argmax()]}: continuous variable needs finite bounds")
        referenced = set(obj.coeffs)
        for q in quadratic:
            referenced.update(q.lin)
            for pair in q.quad:
                referenced.update(pair)
        missing = referenced.difference(var.names)
        if missing:
            raise ValueError(f"constraints reference undeclared variables: {sorted(missing)[:5]}")
        bad_rows = ~np.isfinite(rows.rhs)
        bad_rows[np.searchsorted(rows.indptr, np.flatnonzero(~np.isfinite(rows.vals)), side="right") - 1] = True
        non_finite = chain(
            [] if _all_finite(obj.constant, *obj.coeffs.values()) else ["objective"],
            (rows.names[i] for i in np.flatnonzero(bad_rows)),
            (q.name for q in quadratic if not _all_finite(q.rhs, *q.lin.values(), *q.quad.values())),
        )
        row = next(non_finite, None)
        if row is not None:
            raise ValueError(f"{row}: non-finite coefficient, constant or right-hand side")

    def objective_value(self, values: dict[str, float]) -> float:
        return self.objective.constant + sum(
            c * values[n] for n, c in self.objective.coeffs.items()
        )

    def check_point(self, values: dict[str, float]) -> float:
        """Largest constraint/bound violation of a full assignment (0 if feasible)."""
        var, rows, quad = self.variables, self.linear, self.quadratic
        x = np.array([values[n] for n in var.names], dtype=float)
        row_of_term = np.repeat(np.arange(len(rows)), np.diff(rows.indptr))
        quad_lhs = [
            sum(c * values[n] for n, c in q.lin.items())
            + sum(c * values[n1] * values[n2] for (n1, n2), c in q.quad.items())
            for q in quad
        ]
        gaps = [np.maximum(var.lower - x, x - var.upper), np.minimum(abs(x), abs(x - 1.0))[var.binary]]
        for lhs, senses, rhs in (
            (np.bincount(row_of_term, rows.vals * x[rows.cols], len(rows)), rows.senses, rows.rhs),
            (np.array(quad_lhs, dtype=float), np.array([q.sense for q in quad], dtype=str),
             np.array([q.rhs for q in quad], dtype=float)),
        ):
            gap = lhs - rhs
            gaps.append(np.where(senses == "<=", gap, np.where(senses == ">=", -gap, abs(gap))))
        return float(max(g.max(initial=0.0) for g in gaps))


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


def w_name(li: int, tag: str) -> str:
    return f"w_{li}_{tag}"


def d_name(li: int) -> str:
    return f"d_{li}"


def f_name(li: int) -> str:
    return f"f_{li}"


def variable_map_pieces(catalog: Catalog) -> Iterator[str]:
    """varmap.json in pieces: name -> meaning of every variable of the catalog's models.

    The pieces join to ``json.dumps(..., indent=2)`` of ``{"x": {name:
    meaning}, "v": ..., "w": ..., "d": ..., "f": ...}``.  The large ``v``
    group comes one wavelength at a time, joined from per-choice pieces:
    ``json.dumps`` escapes a string one character at a time, so escaped
    labels concatenate into escaped names.
    """
    q = json.dumps

    def nested(group: dict) -> str:
        # JSON text holds no raw newline, so indenting each line nests it one level down
        return q(group, indent=2).replace("\n", "\n  ")

    x: dict[str, dict] = {}
    # each v entry's text after its wavelength index and after its wavelength, indented for its place
    v_pieces: list[tuple[str, str]] = []
    for layer, (layer_labels, choices) in enumerate(zip(_labels(catalog), catalog.layer_choices), start=1):
        for label, (m, t) in zip(layer_labels, choices):
            x[f"x_{label}"] = {"layer": layer, "material": m, "thickness_nm": t}
            meaning = f'"layer": {layer},\n      "material": {q(m)},\n      "thickness_nm": {q(t)}'
            v_pieces += [(f'_{q(label)[1:-1]}_{tag}": {{\n      "wavelength_nm": ',
                          f',\n      {meaning},\n      "entry": "{tag}"\n    }}') for tag in ENTRY_TAGS]
    yield '{\n  "x": ' + nested(x) + ',\n  "v": '
    wls = list(enumerate(catalog.spectrum.wavelengths))
    if not (wls and v_pieces):
        yield "{}"
    else:
        for li, wl in enumerate(map(q, catalog.spectrum.wavelengths)):
            yield ("{\n" if li == 0 else ",\n") + ",\n".join(
                [f'    "v_{li}{head}{wl}{tail}' for head, tail in v_pieces])
        yield "\n  }"
    w = {w_name(li, tag): {"wavelength_nm": wl, "entry": tag} for li, wl in wls for tag in ENTRY_TAGS}
    yield ',\n  "w": ' + nested(w)
    yield ',\n  "d": ' + nested({d_name(li): {"wavelength_nm": wl} for li, wl in wls})
    yield ',\n  "f": ' + nested({f_name(li): {"wavelength_nm": wl} for li, wl in wls})
    yield "\n}\n"


# ---------------------------------------------------------------------------
# Builders

_HEADER = [
    "variable naming: x_<layer>_<material>_<thickness> binary layer choice;",
    "v_<l>_<layer>_<material>_<thickness>_<ij> gated copy (wavelength index l) of the",
    "cumulative-product entry ij entering <layer>; w_<l>_<ij> final cumulative entries;",
    "d_<l> denominator auxiliary; f_<l> loss auxiliary (objective = sum phi*(1 - f)).",
    "entry tags: 11,12,21,22 address the real carrier (a11, a12, a21, a22).",
]


_TAG_OFFSETS = np.arange(4)


def _join(columns: tuple[str, ...], blocks: list[tuple]) -> LinearRows:
    """The rows of `blocks`, in order, as one :class:`LinearRows` over `columns`.

    A block is ``(names, cols, vals, senses, rhs)``: rows with as many terms
    each, ``cols`` of shape (rows, terms), ``vals`` broadcast to that shape
    and ``senses`` and ``rhs`` to one value per row.
    """
    names: list[str] = []
    cols, vals, senses, rhs, lengths = [], [], [], [], []
    for block_names, block_cols, block_vals, block_senses, block_rhs in blocks:
        n = len(block_names)
        names += block_names
        cols.append(block_cols.ravel())
        vals.append(np.broadcast_to(block_vals, block_cols.shape).ravel())
        senses.append(np.broadcast_to(block_senses, n))
        rhs.append(np.broadcast_to(block_rhs, n))
        lengths.append(np.full(n, block_cols.shape[1]))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(lengths))])
    return LinearRows(columns, tuple(names), indptr, np.concatenate(cols), np.concatenate(vals),
                      np.concatenate(senses), np.concatenate(rhs))


def _build(
    catalog: Catalog,
    entry_bounds: EntryBounds,
    overapproximators: Sequence[np.ndarray] | None = None,
) -> Model:
    """The exact model, or given `overapproximators` its relaxation; the two differ only in the d <= D(w) cap.

    Per wavelength, boundary 0 ties the copies entering layer 1 to the
    identity, and boundary k ties the image of layer k's copies under their
    layer matrices to the copies entering layer k+1; the last boundary ties
    it to w instead (with 0 layers, w itself is the identity).  Given
    `overapproximators`, the rows ``c_hyp_<l>_<k>`` of the relaxation follow;
    without them the reverse-convex caps ``qc_dcap_<l>`` follow the cones.

    Every block of rows is built with numpy from ``Catalog.layer_matrices``
    and the entry bounds.  Variable columns are: the binaries x in choice
    order; per wavelength the 4 copies of each choice, then the 4 entries
    of w; then d and f of each wavelength.
    """
    if entry_bounds.lower.shape[1] != catalog.n_layers + 1:
        raise InconsistentBounds("entry bounds depth does not match the catalog")

    n_layers = catalog.n_layers
    n_wl = len(catalog.spectrum)
    labels = _labels(catalog)
    flat = [lab for layer_labels in labels for lab in layer_labels]
    n_x = len(flat)
    counts = [len(layer_labels) for layer_labels in labels]
    first = np.cumsum([0, *counts])  # column of each layer's first binary
    layer_of = np.repeat(np.arange(n_layers), counts)
    per_wl = 4 * n_x + 4
    d_col = n_x + n_wl * per_wl  # d of wavelength l is column d_col + 2l, f the next one

    names = [f"x_{lab}" for lab in flat]
    lower, upper = [np.zeros(n_x)], [np.ones(n_x)]
    blocks: list[tuple] = []
    for li in range(n_wl):
        lo, hi = entry_bounds.lower[li], entry_bounds.upper[li]
        copies = n_x + li * per_wl + 4 * np.arange(n_x)  # column of each choice's 11 copy
        w = n_x + li * per_wl + 4 * n_x
        # heads[k]: the 11 columns of the copies entering layer k+1 (w after the last layer)
        heads = [copies[first[k]:first[k + 1]] for k in range(n_layers)] + [np.array([w])]
        for k in range(n_layers + 1):
            prefix = f"c_final_{li}" if k == n_layers else f"c_chain_{li}_{k}" if k else f"c_u0_{li}"
            row_names = [f"{prefix}_{tag}" for tag in ENTRY_TAGS]
            entering = _TAG_OFFSETS[:, None] + heads[k]
            if not k:
                blocks.append((row_names, entering, 1.0, "=", IDENTITY4))
                continue
            layer = catalog.layer_matrices[k - 1][:, li]  # (choices, 4)
            # row e of (copies * T) by the product table, linear in the copies
            image_cols = (heads[k - 1][:, None] + PRODUCT_LEFT[:, None]).reshape(4, -1)
            image_vals = (PRODUCT_SIGN[:, None] * layer[:, PRODUCT_RIGHT].transpose(1, 0, 2)).reshape(4, -1)
            blocks.append((row_names, np.hstack([image_cols, entering]),
                           np.hstack([image_vals, np.full(entering.shape, -1.0)]), "=", 0.0))
        # the copies of a choice are boxed to 0 unless its binary fires, and by its layer's box if it does
        gate_lo, gate_hi = lo[layer_of], hi[layer_of]
        names += [f"v_{li}_{lab}_{tag}" for lab in flat for tag in ENTRY_TAGS]
        names += [w_name(li, tag) for tag in ENTRY_TAGS]
        # min(lo, 0.0) and max(hi, 0.0) as Python gives them, the bound itself unless 0 is strictly
        # past it, so a -0.0 bound stays -0.0 (np.minimum(-0.0, 0.0) is 0.0)
        lower += [np.where(gate_lo > 0.0, 0.0, gate_lo).ravel(), lo[-1]]
        upper += [np.where(gate_hi < 0.0, 0.0, gate_hi).ravel(), hi[-1]]
        # rows c_ub (v - hi*x <= 0) and c_lb (v - lo*x >= 0) of each copy v, in turn
        gate_cols = np.column_stack([(copies[:, None] + _TAG_OFFSETS).repeat(2), np.arange(n_x).repeat(8)])
        gate_vals = np.column_stack([np.ones(8 * n_x), -np.stack([gate_hi, gate_lo], axis=-1).ravel()])
        blocks.append((
            [f"c_{kind}_{li}_{lab}_{tag}" for lab in flat for tag in ENTRY_TAGS for kind in ("ub", "lb")],
            gate_cols, gate_vals, np.tile(["<=", ">="], 4 * n_x), 0.0,
        ))
    dmax = []
    for li, sub in enumerate(catalog.substrate_indices):
        lo, hi = entry_bounds.box(li, n_layers)
        dmax.append(float(box_max_denominator4(lo, hi, sub.re, sub.im)))
        names += [d_name(li), f_name(li)]
    lower.append(np.zeros(2 * n_wl))
    upper.append(np.column_stack([dmax, np.full(n_wl, 2.0)]).ravel())
    variables = Variables(tuple(names), np.concatenate(lower), np.concatenate(upper), np.arange(len(names)) < n_x)

    for layer in range(n_layers):
        blocks.append(([f"c_pick_{layer + 1}"], np.arange(first[layer], first[layer + 1])[None], 1.0, "=", 1.0))
    for li, planes in enumerate(overapproximators or ()):
        #  a1*x1 + a2*x2 + a3*x3 + a4*x4 - d >= -a0
        hyp_cols = [*(n_x + li * per_wl + 4 * n_x + np.array(X_ORDER)), d_col + 2 * li]
        blocks.append(([f"c_hyp_{li}_{k}" for k in range(len(planes))], np.tile(hyp_cols, (len(planes), 1)),
                       np.column_stack([planes[:, 1:], np.full(len(planes), -1.0)]), ">=", -planes[:, 0]))

    quadratic = [
        QuadraticConstraint(f"qc_cone_{li}", quad={(d_name(li), f_name(li)): 1.0}, lin={}, sense=">=",
                            rhs=4.0 * catalog.substrate_indices[li].re)
        for li in range(n_wl)
    ]
    for li, sub in enumerate(catalog.substrate_indices if overapproximators is None else ()):
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
        quadratic.append(QuadraticConstraint(f"qc_dcap_{li}", quad, {d_name(li): 1.0}, "<=", 2.0 * a))
    phi = catalog.spectrum.weights
    objective = Objective(coeffs={f_name(li): -phi[li] for li in range(n_wl)}, constant=sum(phi), sense="max")
    name = "miqcp" if overapproximators is None else "misocp"
    return Model(name, variables, _join(variables.names, blocks), quadratic, objective, _HEADER)


def build_miqcp(catalog: Catalog, entry_bounds: EntryBounds) -> Model:
    """Exact nonconvex model: structure plus the reverse-convex cap d <= D(w)."""
    return _build(catalog, entry_bounds)


def build_misocp(
    catalog: Catalog,
    entry_bounds: EntryBounds,
    overapproximators: list[np.ndarray],
) -> Model:
    """Convex relaxation: the cap is replaced by affine overapproximators of D."""
    _check_families(catalog, overapproximators)
    return _build(catalog, entry_bounds, overapproximators)


def _check_families(catalog: Catalog, overapproximators: Sequence[np.ndarray]) -> None:
    """MissingHyperplanes unless there is one nonempty hyperplane family per wavelength."""
    if len(overapproximators) != len(catalog.spectrum):
        raise MissingHyperplanes(
            f"{len(overapproximators)} hyperplane families for {len(catalog.spectrum)} wavelengths")
    if any(len(planes) == 0 for planes in overapproximators):
        raise MissingHyperplanes("a wavelength has an empty hyperplane family")


def design_point(
    catalog: Catalog,
    design: tuple[tuple[str, float], ...],
    overapproximators: list[np.ndarray] | None = None,
) -> dict[str, float]:
    """Full variable assignment induced by a concrete design.

    The copies entering each layer are one running product, per
    wavelength, of the ``Catalog.layer_matrices`` entries that
    ``Catalog.choice_indices`` picks (InadmissibleDesign off the catalog).
    For the exact model, d = D(w) and f = 4 Re(a)/d make both quadratic
    couplings tight.  Given hyperplanes (one nonempty family per wavelength,
    else MissingHyperplanes), d is capped by their minimum to fit the relaxation too.
    """
    picks = catalog.choice_indices(design)
    if overapproximators is not None:
        _check_families(catalog, overapproximators)
    labels = _labels(catalog)
    rows = [m[j].tolist() for m, j in zip(catalog.layer_matrices, picks)]
    values = {f"x_{lab}": float(j == pick) for layer_labels, pick in zip(labels, picks)
              for j, lab in enumerate(layer_labels)}
    for li, sub in enumerate(catalog.substrate_indices):
        w = IDENTITY
        for layer_labels, pick, r in zip(labels, picks, rows):
            entering = w.entries()
            for j, lab in enumerate(layer_labels):
                copy = entering if j == pick else (0.0,) * 4
                values.update({f"v_{li}_{lab}_{tag}": x for tag, x in zip(ENTRY_TAGS, copy)})
            w = multiply(w, StructuredMatrix(*r[li]))
        values.update({w_name(li, tag): x for tag, x in zip(ENTRY_TAGS, w.entries())})
        d = denominator_D(w, sub)
        if overapproximators is not None:
            d = min(d, float(plane_values(overapproximators[li], [w.entries()[e] for e in X_ORDER]).min()))
        values[d_name(li)] = d
        values[f_name(li)] = 4.0 * sub.re / d
    return values
