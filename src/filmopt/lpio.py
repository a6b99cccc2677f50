"""LP-format text export/import and solution-file decoding.

The emitted dialect is the common solver LP format: `Maximize` /
`Subject To` / `Bounds` / `Binaries` / `End`, quadratic parts in square
brackets with `*` and `^ 2` terms.  Every coefficient is written with 17
significant digits, so a parse-back reproduces the exact doubles and a
re-emission is byte-identical.  Long expressions wrap onto continuation
lines indented by two spaces; item lines are indented by one.

:func:`import_lp` reads that dialect in one pass over the lines, with one
term grammar.  An expression is a run of terms ``[+|-] [coef] name``: a
missing coefficient is 1, and a coefficient followed by a sign, a bracket
or the end is a constant.  Inside ``[ ]`` each name is followed by
``* name`` or ``^ 2``.  A row is ``name: expression sense rhs``, a bounds
line ``lo <= name <= hi``.  A name that breaks the rule of
:func:`~filmopt.model.invalid_name` (the one ``Model.validate`` applies),
a ``-`` before ``[`` (the writer puts ``+``), a malformed bracket term, a
NaN anywhere and an infinite coefficient, constant or right-hand side are
a ``ParseError``.

Solution files are plain `name value` pairs, one per line.
"""
from __future__ import annotations

import math
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import InfeasibleAssignment, ParseError
from .materials import Catalog, read_text, write_atomic
from .model import (
    SENSES, LinearRows, Model, Objective, QuadraticConstraint, Variables, invalid_name, x_name,
)

_MAX_LINE = 200
#: Lines per block handed to the file by export_lp.
_BLOCK_LINES = 4096


def _wrap(text: str, prefix: str) -> list[str]:
    """Lines of ``prefix`` and the space-separated tokens of ``text``, filled greedily.

    A line takes tokens while it stays within ``_MAX_LINE``; a token that
    does not fit starts a continuation line, indented by two spaces, and a
    longer token stands on a line of its own.  A blank prefix (Binaries)
    takes the first token without a separating space.
    """
    if prefix.strip():
        text, floor = f"{prefix} {text}", len(prefix)
    else:
        text, floor = prefix + text, len(prefix) + 1
    lines: list[str] = []
    start, indent = 0, ""
    while len(indent) + len(text) - start > _MAX_LINE:
        cut = text.rfind(" ", floor, start + _MAX_LINE - len(indent) + 1)
        if cut < 0:
            cut = text.find(" ", floor)
            if cut < 0:
                break
        lines.append(indent + text[start:cut])
        start, indent = cut + 1, "  "
        floor = start + 1
    lines.append(indent + text[start:])
    return lines


class _Signed(dict):
    """``c`` -> ``"+ |c|"`` or ``"- |c|"`` to 17 digits, formatted once: rows repeat coefficients."""

    def __missing__(self, c: float) -> str:
        text = self[c] = f"{'-' if c < 0 else '+'} {abs(c):.17g}"
        return text


def _linear_text(signed: _Signed, coeffs: dict[str, float], constant: float = 0.0) -> str:
    """Signed terms ``c name`` (and a nonzero constant), without a leading ``+``."""
    terms = [f"{signed[c]} {name}" for name, c in coeffs.items()]
    if constant:
        terms.append(signed[constant])
    return " ".join(terms).removeprefix("+ ") or "0"


def _quad_text(signed: _Signed, quad: dict[tuple[str, str], float]) -> str:
    """The bracketed quadratic part, ``[ c x * y - c z ^ 2 ]``, without a leading ``+``."""
    text = " ".join([
        f"{signed[c]} {n1} ^ 2" if n1 == n2 else f"{signed[c]} {n1} * {n2}"
        for (n1, n2), c in quad.items()
    ]).removeprefix("+ ")
    return f"[ {text} ]" if text else "[ ]"


def export_lp(model: Model, path: str | Path) -> None:
    """Validate `model` and write it to `path` in LP format, atomically.

    ``build_miqcp`` and ``build_misocp`` leave validation to this call, so
    each exported model is checked once; a model from :func:`import_lp` or
    made by hand is checked here too.  The text goes out in blocks of
    ``_BLOCK_LINES`` lines rather than as one string.
    """
    model.validate()
    write_atomic(path, _blocks(_lp_lines(model)))


def _blocks(lines: Iterator[str]) -> Iterator[str]:
    """The lines, each ended by a newline, joined ``_BLOCK_LINES`` at a time."""
    while block := list(islice(lines, _BLOCK_LINES)):
        yield "\n".join(block) + "\n"


def _lp_lines(model: Model) -> Iterator[str]:
    """The lines of the LP text of `model`, without newlines."""
    yield f"\\ Model: {model.name}"
    yield from (f"\\ {c}" for c in model.header_comments)
    obj, var, signed = model.objective, model.variables, _Signed()
    if var or model.linear or model.quadratic or obj.coeffs or obj.constant:
        yield "Maximize" if obj.sense == "max" else "Minimize"
        yield from _wrap(_linear_text(signed, obj.coeffs, obj.constant), " obj:")
        if model.linear or model.quadratic:
            yield "Subject To"
        yield from _row_lines(signed, model.linear)
        for q in model.quadratic:
            body = f"{_quad_text(signed, q.quad)} {q.sense} {q.rhs:.17g}"
            yield from _wrap(f"{_linear_text(signed, q.lin)} + {body}" if q.lin else body, f" {q.name}:")
        continuous = ~var.binary
        if continuous.any():
            yield "Bounds"
            names = [var.names[i] for i in np.flatnonzero(continuous).tolist()]
            lower, upper = _numbers(var.lower[continuous]), _numbers(var.upper[continuous])
            yield from (f" {lo} <= {name} <= {hi}" for lo, name, hi in zip(lower, names, upper))
        binaries = [var.names[i] for i in np.flatnonzero(var.binary).tolist()]
        if binaries:
            yield "Binaries"
            yield from _wrap(" ".join(binaries), " ")
    yield "End"


def _numbers(values: np.ndarray) -> list[str]:
    """``f"{v:.17g}"`` of each value, formatted once per distinct bit pattern, so ``-0.0`` stays ``-0``."""
    bits, which = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64), return_inverse=True)
    texts = [f"{v:.17g}" for v in bits.view(np.float64).tolist()]
    return [texts[i] for i in which.tolist()]


def _row_lines(signed: _Signed, rows: LinearRows) -> Iterator[str]:
    """The lines of the linear rows, built ``_BLOCK_LINES`` rows at a time.

    Each distinct coefficient is formatted once (``-0.0`` and ``0.0`` both
    print as ``+ 0``), as is each distinct right-hand side; a row's text is
    joined from its CSR slice, and only a row longer than ``_MAX_LINE``
    goes through :func:`_wrap`.
    """
    distinct, which = np.unique(rows.vals, return_inverse=True)
    texts = [signed[c] for c in distinct.tolist()]
    columns, ptr, senses, rhs = rows.columns, rows.indptr.tolist(), rows.senses.tolist(), _numbers(rows.rhs)
    for start in range(0, len(rows), _BLOCK_LINES):
        stop = min(start + _BLOCK_LINES, len(rows))
        lo, hi = ptr[start], ptr[stop]
        terms = [f"{texts[t]} {columns[c]}" for t, c in zip(which[lo:hi].tolist(), rows.cols[lo:hi].tolist())]
        for i, name in zip(range(start, stop), rows.names[start:stop]):
            body = f"{' '.join(terms[ptr[i] - lo:ptr[i + 1] - lo]).removeprefix('+ ') or '0'} {senses[i]} {rhs[i]}"
            line = f" {name}: {body}"
            if len(line) <= _MAX_LINE:
                yield line
            else:
                yield from _wrap(body, f" {name}:")


# ---------------------------------------------------------------------------
# Parsing

_SECTIONS = {"maximize", "minimize", "subject to", "bounds", "binaries", "end"}
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


def import_lp(path: str | Path) -> Model:
    """Parse LP text in the dialect :func:`export_lp` writes.

    Lines indented by two spaces continue the line before; comment lines
    before the first section are the header, the first ``Model:`` one
    naming the model.  Variables appear in Bounds order, then Binaries
    order, then the unlisted ones (free) by name.
    """
    text = read_text(path).replace("\n  ", " ")
    name, header, objective = "", [], Objective({})
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
        if key in _SECTIONS:
            if key == "end":
                break
            section = key
            if key in ("maximize", "minimize"):
                section, objective.sense = "objective", key[:3]
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
            head, colon, body = raw.partition(":")
            lin, quad, const = _terms((body if colon else head).split())
            if quad is not None:
                raise ParseError("quadratic objective not supported")
            objective = Objective(lin, const, objective.sense)
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
    unlisted = sorted(used.difference(listed))
    bad = invalid_name([*listed, *unlisted, *row_names, *(q.name for q in quadratic)])
    if bad is not None:
        raise ParseError(f"{bad!r} is not a name")
    bounds = [*listed.values(), *[(-math.inf, math.inf, False)] * len(unlisted)]
    lower, upper, binary = (np.array([b[k] for b in bounds], dtype=t) for k, t in enumerate((float, float, bool)))
    variables = Variables((*listed, *unlisted), lower, upper, binary)
    linear = LinearRows.pack(variables.names, row_names, row_coeffs, row_senses, row_rhs)
    return Model(name or Path(path).stem, variables, linear, quadratic, objective, header)


def write_solution(values: dict[str, float], path: str | Path) -> None:
    lines = [f"{name} {val:.17g}" for name, val in values.items()]
    write_atomic(path, "\n".join(lines) + "\n")


def import_solution(path: str | Path, catalog: Catalog) -> tuple[tuple[str, float], ...]:
    """Decode the binary block of a solution file into a design.

    Values are rounded at 0.5; exactly one choice per layer must fire.
    """
    values: dict[str, float] = {}
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
    design: list[tuple[str, float]] = []
    for layer in range(1, catalog.n_layers + 1):
        fired = [
            (m, t)
            for m, t in catalog.choices_at(layer)
            if values.get(x_name(layer, m, t), 0.0) >= 0.5
        ]
        if len(fired) != 1:
            raise InfeasibleAssignment(
                f"layer {layer}: {len(fired)} choices selected, need exactly 1"
            )
        design.append(fired[0])
    return tuple(design)
