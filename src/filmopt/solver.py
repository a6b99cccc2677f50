"""Exact optimization of the discrete coating design problem.

One depth-first engine, :func:`_search`, serves both public entry points,
which return a :class:`SolveReport`:

* :func:`brute_force` — exhaustive enumeration (``prune=False``).
* :func:`branch_and_bound` — the same search with interval-box pruning
  (``prune=True``): each child prefix gets an optimistic completion value
  from its matrix times the box of the remaining-layer product, with the
  box maximum of ``D`` taken separably; children are visited in decreasing
  bound order and cut when the bound cannot beat the incumbent.  The box at
  the split is the exact entrywise range of the suffix table, and shallower
  boxes are interval-propagated from it.  A child bound above its parent's
  means unsound boxes and raises InternalError.

The layers split into leading layers, searched node by node with shared
prefix products, and a trailing block whose products are built once as an
(L, 4, K) suffix table.  Every prefix that reaches the split is scored
against the whole table with one matmul per wavelength, in chunks of at
most ``LEAF_CHUNK_COLUMNS`` (2^15) columns whatever L is, into buffers
allocated once per solve.  The tail grows from the last layer while its
block fits in ``max(1024, 262_144 // L)`` designs and at least
``MIN_PREFIXES`` prefixes stay above the split, where B&B prunes; so from
8 wavelengths on, a block is one chunk.  Both solvers split alike, so B&B
evaluates no design brute force does not.

Denominator screen: since D - N = 4a det(W), reflectance is
1 - 4a det(P) det(S)/D, so the denominators alone bound every score of a
block (:class:`~filmopt.arrayops.DenominatorScreen`, with a rigorous
margin δ from a γ_n error analysis).  With several wavelengths the screen
computes every column's denominators in float32.  With one, the table is
built as a head table (every tail layer but the last) times the last
layer, and a last-layer choice cos δ·I + sin δ·B_n puts the denominators
of a head column's choices of one material on an ellipse in δ; the
screen takes the largest eigenvalue of each ellipse in float64, one per
head column and material in place of one denominator per column.  A last
layer whose choices are no layer matrices keeps the float32 column
screen.  A block whose bound cannot beat the incumbent plus
``OBJECTIVE_EPS`` is skipped; every other block, the first and every
block where δ is inf are scored by the float64 kernel over the whole
block, so the objective, design, tie-break, incumbents and node counts
are the same as without the screen.

Node accounting: ``nodes_explored`` counts designs evaluated, each tail
block counted whole; ``nodes_pruned`` counts subtrees cut above the split
(each cut subtree counts once).
"""
from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from . import bounds as bounds_mod
from .arrayops import (
    IDENTITY4,
    DenominatorScreen,
    box_max_denominator4,
    interval_product4,
    leaf_chunk_width,
    mul4,
    reflectance_rows4,
    weighted_reflectance4,
)
from .errors import ConfigError, InstanceTooLarge, InternalError, MissingDispersion, ParseError
from .materials import Catalog, DispersionTable, expect, finite_number, index_at
from .optics import ComplexIndex, StructuredMatrix, chain_product, make_transfer_matrix, reflectance

Design = tuple[tuple[str, float], ...]

#: A candidate must beat the incumbent by more than this to replace it, so
#: among tolerance-equal optima the enumeration-first (lexicographically
#: smallest) design is kept.
OBJECTIVE_EPS = 1e-12
#: The fewest prefixes the tail block leaves above the split, for B&B to cut.
MIN_PREFIXES = 16
#: The most designs a search without a node budget may face; above it, InstanceTooLarge.
LEAF_CAP = 100_000_000


@dataclass(frozen=True)
class SolveReport:
    design: Design
    objective: float
    per_wavelength: tuple[float, ...]
    nodes_explored: int
    nodes_pruned: int
    wall_time_s: float
    proven_optimal: bool
    incumbents: tuple[float, ...]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "design": design_to_json(self.design)}


def design_to_json(design: Design) -> list[dict]:
    return [{"material": m, "thickness_nm": t} for m, t in design]


def design_from_json(items: object) -> Design:
    """Parse a JSON design list; malformed content is a ParseError or ConfigError."""
    if not isinstance(items, list):
        raise ParseError("design must be a JSON list")
    design = []
    for i, item in enumerate(items):
        if not isinstance(item, dict) or not {"material", "thickness_nm"} <= item.keys():
            raise ParseError(f"design item {i}: expected material and thickness_nm, got {item!r}")
        thickness = float(finite_number(item["thickness_nm"], f"design item {i} thickness_nm"))
        if thickness < 0:
            raise ConfigError(f"design item {i}: thickness_nm must be nonnegative, got {thickness}")
        design.append((expect(item["material"], str, f"design item {i} material"), thickness))
    return tuple(design)


def evaluate_design(design: Design, catalog: Catalog) -> tuple[tuple[float, ...], float]:
    """Per-wavelength reflectances and the weighted average, on the catalog spectrum.

    The scalar ``chain_product`` and ``reflectance``, an independent check of
    the array kernels, run on the ``Catalog.layer_matrices`` entries that
    ``Catalog.choice_indices`` picks (InadmissibleDesign off the catalog).
    """
    rows = [m[j].tolist() for m, j in zip(catalog.layer_matrices, catalog.choice_indices(design))]
    per = tuple(
        reflectance(chain_product([StructuredMatrix(*r[li]) for r in rows]), sub)
        for li, sub in enumerate(catalog.substrate_indices)
    )
    return per, sum(p * phi for p, phi in zip(per, catalog.spectrum.weights))


def evaluate_design_on_grid(
    design: Design,
    coating_tables: Mapping[str, DispersionTable],
    substrate_table: DispersionTable,
    grid: Sequence[float],
) -> tuple[list[float], float]:
    """Reflectance curve of an arbitrary design on a fresh wavelength grid.

    Layer matrices are rebuilt from dispersion data (coating extinction is
    dropped), so the design need not come from any catalog; thicknesses may
    be off-grid.  The average is unweighted.
    """
    for m, _ in design:
        if m not in coating_tables:
            raise MissingDispersion(f"design material {m!r} is not one of the coatings")
    per = []
    for wl in grid:
        mats = []
        for m, t in design:
            idx = index_at(coating_tables[m], wl)
            mats.append(make_transfer_matrix(ComplexIndex(idx.re), t, wl))
        per.append(reflectance(chain_product(mats), index_at(substrate_table, wl)))
    return per, sum(per) / len(per)


def _report(
    catalog: Catalog,
    design: Design,
    nodes: int,
    pruned: int,
    t0: float,
    proven: bool,
    incumbents: list[float],
) -> SolveReport:
    per, avg = evaluate_design(design, catalog)
    return SolveReport(
        design=design,
        objective=avg,
        per_wavelength=per,
        nodes_explored=nodes,
        nodes_pruned=pruned,
        wall_time_s=time.perf_counter() - t0,
        proven_optimal=proven,
        incumbents=tuple(incumbents),
    )


def _split_depth(counts: list[int], n_wl: int) -> int:
    """Number of leading layers searched node by node; the rest form the tail block.

    The tail grows from the last layer while its block of designs fits in
    ``max(1024, 262_144 // n_wl)`` columns and leaves at least
    ``MIN_PREFIXES`` prefixes above the split.  Brute force and B&B share it.
    """
    limit = min(max(1024, 262_144 // n_wl), math.prod(counts) // MIN_PREFIXES)
    tail, size = 1, counts[-1]
    while tail < len(counts) and size * counts[-tail - 1] <= limit:
        tail += 1
        size *= counts[-tail]
    return len(counts) - tail


def _suffix_table(mats: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(L, 4, K) products of every choice sequence over `mats`, last layer fastest, and their head.

    The head (L, 4, K/m) holds the products over every layer but the last
    (the identity, one column, for one layer), and the table is the head
    times each of the last layer's m choices, in the same loop.
    """
    table = np.ascontiguousarray(mats[0].transpose(1, 2, 0))
    head = np.tile(IDENTITY4, (table.shape[0], 1))[:, :, None]
    for m in mats[1:]:
        n_wl, _, k = table.shape
        nxt = np.empty((n_wl, 4, k, m.shape[0]))
        mul4(
            table.transpose(0, 2, 1)[:, :, None, :],
            m.transpose(1, 0, 2)[:, None, :, :],
            out=nxt.transpose(0, 2, 3, 1),
        )
        head, table = table, nxt.reshape(n_wl, 4, -1)
    return head, table


def _search(catalog: Catalog, prune: bool, node_cap: int | None = None) -> SolveReport:
    """Depth-first search over the leading layers, tail block scored by GEMM.

    Prefixes of the first `split` layers are enumerated depth first (with
    `prune`, children in decreasing bound order and cut when their bound
    cannot beat the incumbent).  Each surviving prefix is scored against
    the whole suffix table of the trailing layers at once.
    """
    total = catalog.design_count()
    if node_cap is None and total > LEAF_CAP:
        raise InstanceTooLarge(f"{total} designs exceed cap {LEAF_CAP}")
    t0 = time.perf_counter()
    n_layers = catalog.n_layers
    if n_layers == 0:
        _, avg = evaluate_design((), catalog)
        return _report(catalog, (), 1, 0, t0, True, [avg])

    mats = catalog.layer_matrices
    a = np.array([s.re for s in catalog.substrate_indices])
    b = np.array([s.im for s in catalog.substrate_indices])
    phi = np.array(catalog.spectrum.weights)
    counts = [m.shape[0] for m in mats]
    n_wl = len(phi)
    split = _split_depth(counts, n_wl)
    head, suffix = _suffix_table(mats[split:])
    work = np.empty((n_wl, 4, leaf_chunk_width(suffix.shape[2])))
    screen = DenominatorScreen(suffix, a, b, phi, work, head, mats[-1], [m for m, _ in catalog.layer_choices[-1]])
    scores = np.empty(suffix.shape[2])
    if prune:
        boxes = bounds_mod.suffix_product_bounds(catalog, split, suffix)
        slo, shi = boxes.lower, boxes.upper

    best = -np.inf
    best_design: list[int] | None = None
    incumbents: list[float] = []
    nodes = 0
    pruned = 0
    capped = False

    def bounds_at(prefixes: np.ndarray, depth: int) -> np.ndarray:
        """Optimistic objective of every completion of (c, L, 4) depth-`depth` prefixes."""
        lo, hi = interval_product4(prefixes, slo[:, depth], shi[:, depth])
        return (1.0 - 4.0 * a / box_max_denominator4(lo, hi, a, b)) @ phi

    def leaf(prefix: np.ndarray, screened: tuple, j: int, chosen: list[int]) -> None:
        """Score `prefix` against the table unless entry `j` of its `screened` margins rules it out."""
        nonlocal best, best_design, nodes, capped
        nodes += scores.shape[0]
        den_rows, h, delta = screened
        # No float64 score can beat the incumbent when the screen's bound does not.
        if best_design is None or not screen.bound(den_rows[j], h[j], delta[j]) <= best + OBJECTIVE_EPS:
            obj = weighted_reflectance4(reflectance_rows4(prefix, a, b), suffix, phi, work, scores)
            i = int(np.argmax(obj))
            if obj[i] > best + OBJECTIVE_EPS:
                best = float(obj[i])
                best_design = chosen + list(np.unravel_index(i, counts[split:]))
                incumbents.append(best)
        if node_cap is not None and nodes >= node_cap:
            capped = True

    def descend(depth: int, chosen: list[int], bound: float, children: np.ndarray,
                screened: tuple | None) -> None:
        """Visit the (c, L, 4) `children` of prefix `chosen`; `screened` are their margins at the split."""
        nonlocal pruned
        order = range(counts[depth])
        child_bound = np.full(counts[depth], np.inf)
        if prune:
            child_bound = bounds_at(children, depth + 1)
            if np.any(child_bound > bound + 1e-9):
                raise InternalError(f"child bound exceeds parent bound at depth {depth + 1}")
            order = np.argsort(-child_bound, kind="stable")
        last = depth + 1 == split
        if not last:
            grand = mul4(children[:, None], mats[depth + 1][None])
            if depth + 2 == split:  # one margins call for all prefixes at the split below
                screened = screen.margins(grand)
        for j in order:
            if capped:
                return
            if child_bound[j] <= best + OBJECTIVE_EPS:
                pruned += 1
                continue
            if last:
                leaf(children[j], screened, j, chosen + [int(j)])
            else:
                below = None if screened is None else tuple(m[j] for m in screened)
                descend(depth + 1, chosen + [int(j)], child_bound[j], grand[j], below)

    identity = np.tile(IDENTITY4, (n_wl, 1))
    if split == 0:
        leaf(identity, screen.margins(identity[None]), 0, [])
    else:
        children = mul4(identity[None], mats[0])
        descend(0, [], bounds_at(identity[None], 0)[0] if prune else np.inf, children,
                screen.margins(children) if split == 1 else None)
    if best_design is None:
        raise InternalError("search ended without an incumbent design")
    design = tuple(catalog.choices_at(n + 1)[j] for n, j in enumerate(best_design))
    return _report(catalog, design, nodes, pruned, t0, not capped, incumbents)


def brute_force(catalog: Catalog) -> SolveReport:
    """Provably optimal design by exhaustive enumeration.

    Ties within the improvement tolerance keep the first (lexicographically
    smallest) design found.  Raises InstanceTooLarge above ``LEAF_CAP`` designs.
    """
    return _search(catalog, prune=False)


def branch_and_bound(catalog: Catalog, node_cap: int | None = None) -> SolveReport:
    """Optimal design by bound-pruned depth-first search.

    Children are expanded in decreasing order of their optimistic bound; a
    child whose bound cannot beat the incumbent (plus tolerance) is pruned
    together with its whole subtree.  With `node_cap` set, the search stops
    early once that many designs were evaluated and the report is flagged as
    incumbent-only; it runs at any size.  Without it, more than ``LEAF_CAP``
    designs raise InstanceTooLarge.  Raises InternalError if a child's bound
    ever exceeds its parent's (a sign of unsound suffix boxes).
    """
    return _search(catalog, prune=True, node_cap=node_cap)
