"""Reference implementations that production code is tested against.

``interval_product_box`` is the reference for ``arrayops.interval_product4``
and ``max_denominator_over_box`` for ``arrayops.box_max_denominator4``, both
scalar, on the StructuredMatrix API; the corner propagation of the entry
bounds is ``conftest.corner_propagation``.  ``invalid_name`` checks all
names in one joined text, where ``materials.invalid_name`` checks them in
blocks, and ``import_lp`` parses the whole LP text into a dict per row,
each row and the objective by its own copy of the term grammar, and keeps
its own copy of the model rules as the reference, checking row names,
bounds and numbers one at a time, and builds its ``Model`` last, where
``lpio.import_lp`` reads the text in chunks, appends each row to flat
arrays and leaves the rules to ``Model`` itself.
``solution_values`` reads a solution file line by line and parses every
value, where ``lpio._solution_values`` parses each distinct value once.
``hyperplanes_for_catalog`` fits in blocks like ``relax``, but unranks each
block on its own and puts every fit through every test, residual first.
"""
import math
from itertools import product
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from filmopt import relax
from filmopt.arrayops import ENTRY_ORDER, denominator4
from filmopt.errors import EmptyCandidateSet, NoValidHyperplane, ParseError
from filmopt.materials import _BAD_START, LP_SECTIONS, read_text
from filmopt.model import SENSES, LinearRows, Model, Objective, QuadraticConstraint, Variables
from filmopt.optics import ComplexIndex, StructuredMatrix, denominator_D


def interval_product_box(
    prefix: StructuredMatrix, suffix_lo: np.ndarray, suffix_hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact entrywise range of prefix * S over S in the suffix box.

    Each output entry is a fixed linear combination of two suffix entries,
    so the interval extension is tight, not just enclosing.
    """
    p11, p12, p21, p22 = prefix.entries()
    lo = np.empty(4)
    hi = np.empty(4)

    def scaled(c: float, e: int) -> tuple[float, float]:
        a, b = c * suffix_lo[e], c * suffix_hi[e]
        return (a, b) if a <= b else (b, a)

    combos = (
        ((p11, 0), (-p12, 2)),  # a11*s11 - a12*s21
        ((p11, 1), (p12, 3)),   # a11*s12 + a12*s22
        ((p21, 0), (p22, 2)),   # a21*s11 + a22*s21
        ((p22, 3), (-p21, 1)),  # a22*s22 - a21*s12
    )
    for e, ((c1, e1), (c2, e2)) in enumerate(combos):
        lo1, hi1 = scaled(c1, e1)
        lo2, hi2 = scaled(c2, e2)
        lo[e], hi[e] = lo1 + lo2, hi1 + hi2
    return lo, hi


def max_denominator_over_box(
    lo: np.ndarray, hi: np.ndarray, substrate: ComplexIndex
) -> float:
    """Maximum of the convex quadratic D over an entrywise box: the largest D at its 16 corners."""
    return max(
        denominator_D(StructuredMatrix(*corner), substrate)
        for corner in product(*zip(lo.tolist(), hi.tolist()))
    )


def invalid_name(names):
    """A name LP text cannot carry, or None: ``materials.invalid_name``'s rule on all `names` joined at once."""
    text = " ".join(["", *names, ""]).lower()
    codes = np.frombuffer(text.encode(), np.uint8)  # printable ASCII runs from " " to "~"
    printable = codes.min() >= 32 and codes.max() < 127 or text.isprintable()
    if not printable or ":" in text or text.count(" ") != len(names) + 1:
        return next(n for n in names if not n.isprintable() or ":" in n or " " in n)
    bad = _BAD_START.search(text)
    return None if bad is None else names[text.count(" ", 0, bad.start())]


#: Tokens after which a coefficient stands alone, as a constant.
_TERM_ENDS = {"+", "-", "[", "]"}


def _finite(tok: str) -> float:
    """``float(tok)``; a ValueError unless it is a finite number."""
    value = float(tok)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {tok!r}")
    return value


def _terms(tokens: list[str]) -> tuple[dict[str, float], dict[tuple[str, str], float] | None, float]:
    """An expression's terms -> (linear coeffs, quadratic coeffs or None without ``[ ]``, constant).

    ``float`` runs only where a coefficient may stand, so a name costs an
    exception only where it stands without a coefficient.
    """
    lin: dict[str, float] = {}
    quad: dict[tuple[str, str], float] | None = None
    const, inside, i, n = 0.0, False, 0, len(tokens)
    while i < n:
        tok, sign = tokens[i], 1.0
        i += 1
        if tok == "+" or tok == "-":
            if i == n:
                raise ParseError(f"{tok!r} ends the expression")
            sign, tok = (1.0 if tok == "+" else -1.0), tokens[i]
            i += 1
            if tok == "]" or (tok == "[" and sign < 0):
                raise ParseError(f"{tokens[i - 2]!r} before {tok!r}")
        if tok == "[" or tok == "]":
            if inside == (tok == "["):
                raise ParseError(f"unbalanced {tok!r}")
            inside = not inside
            if quad is None:
                quad = {}
            continue
        try:
            coef = sign * float(tok)
        except ValueError:
            coef = sign
        else:
            if not math.isfinite(coef):
                raise ParseError(f"non-finite number {tok!r}")
            if i == n or tokens[i] in _TERM_ENDS:
                const += coef
                continue
            tok = tokens[i]
            i += 1
        if not inside:
            lin[tok] = lin.get(tok, 0.0) + coef
            continue
        op = tokens[i:i + 2]
        if op == ["^", "2"]:
            pair = (tok, tok)
        elif len(op) == 2 and op[0] == "*":
            pair = (tok, op[1])
        else:
            raise ParseError(f"malformed quadratic term: {' '.join(tokens[i - 1:i + 2])!r}")
        quad[pair] = quad.get(pair, 0.0) + coef
        i += 2
    if inside:
        raise ParseError("unclosed '['")
    return lin, quad, const


def import_lp(path):
    """LP text -> Model: the whole text at once, continuations joined by one replace, a dict per row."""
    text = read_text(path).replace("\n  ", " ")
    name, header, sense, objective, objective_read = "", [], "max", ({}, 0.0), False
    listed: dict[str, tuple[float, float, bool]] = {}  # name -> (lower, upper, binary)
    used: set[str] = set()
    row_names: list[str] = []
    row_coeffs: list[dict[str, float]] = []
    row_senses: list[str] = []
    row_rhs: list[float] = []
    quadratic: list[QuadraticConstraint] = []
    section = None
    for raw in text.splitlines():
        if raw.startswith("\\"):
            if section is None:
                content = raw[1:].strip()
                if not name and content.startswith("Model:"):
                    name = content[6:].strip()
                else:
                    header.append(content)
            continue
        key = raw.strip().lower()
        if key in LP_SECTIONS:
            if key == "end":
                break
            section = key
            if key in ("maximize", "minimize"):
                section, sense = "objective", key[:3]
            continue
        if not key:
            continue
        if section == "bounds":
            toks = raw.split()
            if len(toks) != 5 or toks[1] != "<=" or toks[3] != "<=":
                raise ParseError(f"unsupported bounds line: {raw.strip()!r}")
            try:
                lo, hi = float(toks[0]), float(toks[4])
            except ValueError:
                raise ParseError(f"non-numeric bound: {raw.strip()!r}") from None
            if math.isnan(lo) or math.isnan(hi):
                raise ParseError(f"NaN bound: {raw.strip()!r}")
            listed[toks[2]] = (lo, hi, False)
        elif section == "binaries":
            for vname in raw.split():
                listed[vname] = (0.0, 1.0, True)
        elif section == "objective":
            if objective_read:
                raise ParseError(f"second objective line: {raw.strip()!r}")
            objective_read = True
            head, colon, body = raw.partition(":")
            lin, quad, const = _terms((body if colon else head).split())
            if quad is not None:
                raise ParseError("quadratic objective not supported")
            objective = lin, const
            used.update(lin)
        elif section == "subject to":
            row, colon, body = raw.partition(":")
            row, tokens = row.strip(), body.split()
            if not colon or len(tokens) < 2 or tokens[-2] not in SENSES:
                raise ParseError(f"expected 'name: terms sense rhs', got {raw.strip()!r}")
            try:
                rhs = _finite(tokens[-1])
            except ValueError:
                raise ParseError(f"{row}: expected a finite number after {tokens[-2]!r}") from None
            lin, quad, const = _terms(tokens[:-2])
            used.update(lin)
            if quad is None:
                row_names.append(row)
                row_coeffs.append(lin)
                row_senses.append(tokens[-2])
                row_rhs.append(rhs - const)
            else:
                used.update(*quad)
                quadratic.append(QuadraticConstraint(row, quad, lin, tokens[-2], rhs - const))
        else:
            raise ParseError(f"content outside any section: {raw.strip()!r}")
    name = name or Path(path).stem
    bad = next((t for t in (name, *header) if not t.isprintable() or t != t.strip()), None)
    if bad is not None:
        raise ParseError(f"{bad!r}: not a name or header comment LP text can carry")
    unlisted = sorted(used.difference(listed))
    bad = invalid_name([*listed, *unlisted, *row_names, *(q.name for q in quadratic)])
    if bad is not None:
        raise ParseError(f"{bad!r}: not a name LP text can carry")
    seen = set()
    for row in [*row_names, *(q.name for q in quadratic)]:
        if row in seen:
            raise ParseError(f"{row}: duplicate row name")
        seen.add(row)
    for vname, (lo, hi, _) in listed.items():
        if lo > hi:
            raise ParseError(f"{vname}: lower bound exceeds upper")
    bounds = [*listed.values(), *[(-math.inf, math.inf, False)] * len(unlisted)]
    for vname, (lo, hi, binary) in zip([*listed, *unlisted], bounds):
        if not binary and not (math.isfinite(lo) and math.isfinite(hi)):
            raise ParseError(f"{vname}: continuous variable needs finite bounds")
    numbers = [("objective", [objective[1], *objective[0].values()])]
    numbers += [(row, [rhs, *coeffs.values()]) for row, coeffs, rhs in zip(row_names, row_coeffs, row_rhs)]
    numbers += [(q.name, [q.rhs, *q.lin.values(), *q.quad.values()]) for q in quadratic]
    for row, values in numbers:
        if not all(math.isfinite(v) for v in values):
            raise ParseError(f"{row}: non-finite coefficient, constant or right-hand side")
    lower, upper, binary = (np.array([b[k] for b in bounds], dtype=t) for k, t in enumerate((float, float, bool)))
    variables = Variables((*listed, *unlisted), lower, upper, binary)
    column = {n: i for i, n in enumerate(variables.names)}
    linear = LinearRows(
        variables.names, tuple(row_names), np.cumsum([0, *map(len, row_coeffs)]),
        np.array([column[n] for coeffs in row_coeffs for n in coeffs], np.intp),
        np.array([c for coeffs in row_coeffs for c in coeffs.values()], float),
        np.array(row_senses, str), np.array(row_rhs, float),
    )
    return Model(name, variables, linear, quadratic, Objective(*objective, sense), header)


def solution_values(path):
    """The values of a solution file by name, read line by line."""
    values = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), 1):
        if not raw.strip() or raw.lstrip().startswith(("#", "\\")):
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'name value'")
        try:
            values[parts[0]] = _finite(parts[1])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return values


def subset_blocks(count, block=512):
    """Every 5-subset of ``range(count)`` in lexicographic order, each block of rows unranked on its own."""
    binom = np.array([[math.comb(x, i) for x in range(count)] for i in range(6)])
    total = math.comb(count, 5)
    for start in range(0, total, block):
        rank = total - 1 - np.arange(start, min(start + block, total))
        rows = np.empty((len(rank), 5), np.intp)
        for i in range(5, 0, -1):
            x = np.searchsorted(binom[i], rank, side="right") - 1
            rows[:, 5 - i] = count - 1 - x
            rank -= binom[i, x]
        yield rows


def dominating_fits(pts, gvals, subsets):
    """Lifted fits of one block that pass the residual test, are finite and dominate ``gvals``, in order."""
    mat = np.ones((len(subsets), 5, 5))
    mat[:, :, 1:] = pts[subsets]
    rhs = gvals[subsets]
    with np.errstate(invalid="ignore", over="ignore"):
        alpha = _umath_linalg.solve(mat, rhs[:, :, None], signature="dd->d")[:, :, 0]
        residual = np.abs((mat @ alpha[:, :, None])[:, :, 0] - rhs).max(axis=1)
    tol = relax.RESIDUAL_TOL * np.maximum(1.0, np.abs(rhs).max(axis=1))
    alpha = alpha[np.isfinite(alpha).all(axis=1) & ~(residual > tol)]
    vals = alpha[:, :1] + alpha[:, 1:] @ pts.T
    scale = np.abs(alpha[:, :1]) + np.abs(alpha[:, 1:]) @ np.abs(pts).T
    ok = (vals + relax.REL_TOL * scale >= gvals).all(axis=1)
    alpha, scale = alpha[ok], scale[ok]
    alpha[:, 0] += 2.0 * relax.REL_TOL * scale.max(axis=1)
    return alpha


def overapproximators(box, substrate):
    """``relax.generate_overapproximators`` with the fits of :func:`dominating_fits`."""
    pts = relax.collect_candidates(box)
    gvals = denominator4(pts[:, ENTRY_ORDER], substrate.re, substrate.im)
    if len(pts) < 5:
        raise NoValidHyperplane(f"only {len(pts)} candidates, need 5")
    center = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
    centred = pts - center
    reach = np.concatenate([[1.0], np.abs(centred).max(axis=0)])
    kept = np.empty((0, 5))
    for subsets in subset_blocks(len(pts)):
        for row in dominating_fits(centred, gvals, subsets):
            if not (np.abs(kept - row) @ reach <= relax.DEDUPE_TOL * (np.abs(row) @ reach)).any():
                kept = np.vstack([kept, row])
    if not len(kept):
        raise NoValidHyperplane("no 5-point fit dominates D on the candidate set")
    kept[:, 0] -= (kept[:, 1:] * center).sum(axis=1)
    scale = np.abs(kept[:, :1]) + np.abs(kept[:, 1:]) @ np.abs(pts).T
    kept[:, 0] += relax.UNCENTRED_ROUNDING * scale.max(axis=1)
    return kept


def hyperplanes_for_catalog(catalog, entry_bounds):
    """``relax.hyperplanes_for_catalog`` with the planes of :func:`overapproximators`."""
    out = []
    for li in range(len(catalog.spectrum)):
        box = relax.Box4.from_entry_bounds(entry_bounds, li)
        sub = catalog.substrate_indices[li]
        try:
            out.append(overapproximators(box, sub))
        except (NoValidHyperplane, EmptyCandidateSet):
            out.append(relax.constant_overapproximator(box, sub))
    return out
