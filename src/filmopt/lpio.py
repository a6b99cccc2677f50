"""LP-format text export/import and solution-file decoding.

The emitted dialect is the common solver LP format: the sections of
:data:`~filmopt.materials.LP_SECTIONS` (`Maximize` or `Minimize`,
`Subject To`, `Bounds`, `Binaries`, `End`), quadratic parts in square
brackets with `*` and `^ 2` terms.  Every coefficient is written with 17
significant digits, so a parse-back reproduces the exact doubles and a
re-emission is byte-identical.  Long expressions wrap onto continuation
lines indented by two spaces; item lines are indented by one.

:func:`import_lp` reads that dialect with one term grammar, :func:`_terms`.
An expression is a run of terms ``[+|-] [coef] name``: a missing
coefficient is 1, and a coefficient followed by a sign, a bracket or the
end is a constant.  Inside ``[ ]`` each name is followed by ``* name`` or
``^ 2``.  A row is ``name: expression sense rhs``, a bounds line
``lo <= name <= hi``.  A ``-`` before ``[`` (the writer puts ``+``), a
malformed bracket term, a NaN anywhere, an infinite coefficient, constant or
right-hand side and a second objective line are a ``ParseError``; so is
a model that breaks a rule of :class:`~filmopt.model.Model`, with that
rule's message.  A model is checked once, when it is made, so
:func:`export_lp` only writes, and the reader refuses every model that
could not have been written.

Memory grows with the model, not with its text.  :func:`export_lp`
formats and writes one block of ``_BLOCK_LINES`` rows, bounds or lines at
a time.  :func:`import_lp` reads ``_READ_CHARS`` characters at a time, cut
back to whole lines, and reads each line by the grammar in file order: one
split, and :func:`_terms` for a row or the objective.  It appends each
row's, bounds line's and binaries line's numbers to growing arrays, never
holding the whole text or a dict per row.

Solution files are plain `name value` pairs, one per line, read in chunks of
the same size and then line by line; an error names its line.
"""
from __future__ import annotations

import math
from array import array
from collections import defaultdict
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import InfeasibleAssignment, ParseError
from .materials import _BLOCK_LINES, LP_SECTIONS, Catalog, read_chunks, write_atomic
from .model import SENSES, LinearRows, Model, Objective, QuadraticConstraint, Variables, x_name

_MAX_LINE = 200


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


def _signed(c: float) -> str:
    """``"+ |c|"`` or ``"- |c|"`` to 17 digits; ``-0.0`` prints as ``+ 0``."""
    return f"{'-' if c < 0 else '+'} {abs(c):.17g}"


def _linear_text(coeffs: dict[str, float], constant: float = 0.0) -> str:
    """Signed terms ``c name`` (and a nonzero constant), without a leading ``+``."""
    terms = [f"{_signed(c)} {name}" for name, c in coeffs.items()]
    if constant:
        terms.append(_signed(constant))
    return " ".join(terms).removeprefix("+ ") or "0"


def _quad_text(quad: dict[tuple[str, str], float]) -> str:
    """The bracketed quadratic part, ``[ c x * y - c z ^ 2 ]``, without a leading ``+``."""
    text = " ".join([
        f"{_signed(c)} {n1} ^ 2" if n1 == n2 else f"{_signed(c)} {n1} * {n2}"
        for (n1, n2), c in quad.items()
    ]).removeprefix("+ ")
    return f"[ {text} ]" if text else "[ ]"


def export_lp(model: Model, path: str | Path) -> None:
    """Write `model` to `path` in LP format, atomically, in blocks of ``_BLOCK_LINES`` lines.

    The model was checked when it was made, so its text reads back as itself.
    """
    write_atomic(path, _blocks(_lp_lines(model)))


def _blocks(lines: Iterator[str]) -> Iterator[str]:
    """The lines, each ended by a newline, joined ``_BLOCK_LINES`` at a time."""
    while block := list(islice(lines, _BLOCK_LINES)):
        yield "\n".join(block) + "\n"


def _lp_lines(model: Model) -> Iterator[str]:
    """The lines of the LP text of `model`, without newlines."""
    yield f"\\ Model: {model.name}"
    yield from (f"\\ {c}" for c in model.header_comments)
    obj, var = model.objective, model.variables
    if var or model.linear or model.quadratic or obj.coeffs or obj.constant:
        yield "Maximize" if obj.sense == "max" else "Minimize"
        yield from _wrap(_linear_text(obj.coeffs, obj.constant), " obj:")
        if model.linear or model.quadratic:
            yield "Subject To"
        yield from _row_lines(model.linear)
        for q in model.quadratic:
            body = f"{_quad_text(q.quad)} {q.sense} {q.rhs:.17g}"
            yield from _wrap(f"{_linear_text(q.lin)} + {body}" if q.lin else body, f" {q.name}:")
        continuous = np.flatnonzero(~var.binary)
        if len(continuous):
            yield "Bounds"
        for start in range(0, len(continuous), _BLOCK_LINES):
            block = continuous[start:start + _BLOCK_LINES]
            names = map(var.names.__getitem__, block.tolist())
            lower, upper = _numbers(var.lower[block]), _numbers(var.upper[block])
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


def _row_lines(rows: LinearRows) -> Iterator[str]:
    """The lines of the linear rows, built ``_BLOCK_LINES`` rows at a time.

    Within a block each distinct coefficient is formatted once (``-0.0``
    and ``0.0`` both print as ``+ 0``), as is each distinct right-hand
    side; a row's text is joined from the words of its CSR slice, and only
    a row longer than ``_MAX_LINE`` goes through :func:`_wrap`.
    """
    columns = np.array(rows.columns, dtype=object)
    for start in range(0, len(rows), _BLOCK_LINES):
        stop = min(start + _BLOCK_LINES, len(rows))
        ptr = rows.indptr[start:stop + 1]
        lo, hi = ptr[0], ptr[-1]
        distinct, which = np.unique(rows.vals[lo:hi], return_inverse=True)
        words = np.empty((hi - lo, 2), dtype=object)  # each term's signed coefficient and name
        words[:, 0] = np.array([_signed(c) for c in distinct.tolist()], dtype=object)[which]
        words[:, 1] = columns[rows.cols[lo:hi]]
        words, ends = words.ravel().tolist(), (2 * (ptr - lo)).tolist()
        senses, rhs = rows.senses[start:stop].tolist(), _numbers(rows.rhs[start:stop])
        for i, name in enumerate(rows.names[start:stop]):
            body = f"{' '.join(words[ends[i]:ends[i + 1]]).removeprefix('+ ') or '0'} {senses[i]} {rhs[i]}"
            line = f" {name}: {body}"
            if len(line) <= _MAX_LINE:
                yield line
            else:
                yield from _wrap(body, f" {name}:")


# ---------------------------------------------------------------------------
# Parsing

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


#: Characters the reader takes from the file at once, about a thousand lines of the writer's text.
_READ_CHARS = 96 * 1024
#: The index in ``SENSES`` of each sense.
_SENSE_INDEX = {sense: i for i, sense in enumerate(SENSES)}


def _line_blocks(path: str | Path) -> Iterator[list[str]]:
    """The lines of the LP text at `path`, each with its continuation lines joined on, a block at a time.

    The text is read ``_READ_CHARS`` characters at a time and cut after the
    last newline that no two-space indent follows, so joining continuations
    (``"\\n  "`` -> ``" "``) within each piece and ``str.splitlines`` give
    the lines of the whole text.
    """
    rest = ""
    for chunk in read_chunks(path, _READ_CHARS):
        text = rest + chunk
        # each newline of `rest` that has two characters after it is followed by an indent
        floor = max(len(rest) - 2, 0)
        cut = text.rfind("\n", floor, len(text) - 2)
        while cut >= 0 and text.startswith("  ", cut + 1):
            cut = text.rfind("\n", floor, cut)
        if lines := text[:cut + 1].replace("\n  ", " ").splitlines():
            yield lines
        rest = text[cut + 1:]
    if lines := rest.replace("\n  ", " ").splitlines():
        yield lines


def import_lp(path: str | Path) -> Model:
    """Parse LP text in the dialect :func:`export_lp` writes.

    Lines indented by two spaces continue the line before; comment lines
    before the first section are the header, the first ``Model:`` one
    naming the model.  Variables appear in the order of their first bounds
    or binaries line, then the unlisted ones (free) by name; a variable
    listed twice keeps its first place and its last bounds.  A second
    objective line is a ``ParseError``, and so is a model that breaks a
    rule of :class:`~filmopt.model.Model`, with its message.
    """
    parts = _read_lp(path)
    try:
        return Model(*parts)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _read_lp(path: str | Path) -> tuple:
    """The arguments of the ``Model`` of the LP text at `path`.

    Each line is split once and read by the grammar, in file order.  Each
    name gets an id at its first use, the rows, bounds and binaries go into
    growing columns, and one take maps the ids to columns at the end.  The
    columns die with this call, so they are gone before the model's rules
    run.
    """
    name, header, sense, objective = "", [], "max", None  # objective: the objective line's (coeffs, constant)
    ids: defaultdict[str, int] = defaultdict()
    ids.default_factory = ids.__len__  # a name's id is the count of names seen before it
    # Columns that grow in file order: (id, binary, lower, upper) of each name on a bounds or binaries
    # line, and (term ids, coefficients, term counts, sense indices, rhs) of the linear rows.  They are
    # ``array`` buffers, which grow in place and which numpy reads without a copy.
    listed = listed_ids, binary, lower, upper = [array(t) for t in "qbdd"]
    linear = term_ids, coeffs, lengths, senses, rhs = [array(t) for t in "qdqqd"]
    row_names: list[str] = []
    quadratic: list[QuadraticConstraint] = []
    section = None
    for raw in chain.from_iterable(_line_blocks(path)):
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
        if section == "subject to":
            row, colon, body = raw.partition(":")
            row, tokens = row.strip(), body.split()
            if not colon or len(tokens) < 2 or tokens[-2] not in SENSES:
                raise ParseError(f"expected 'name: terms sense rhs', got {raw.strip()!r}")
            try:
                value = _finite(tokens[-1])
            except ValueError:
                raise ParseError(f"{row}: expected a finite number after {tokens[-2]!r}") from None
            lin, quad, const = _terms(tokens[:-2])
            if quad is None:
                row_names.append(row)
                term_ids.extend(map(ids.__getitem__, lin))
                coeffs.extend(lin.values())
                lengths.append(len(lin))
                senses.append(_SENSE_INDEX[tokens[-2]])
                rhs.append(value - const)
            else:
                for term in chain(lin, *quad):
                    ids[term]  # a name's first use gives it an id
                quadratic.append(QuadraticConstraint(row, quad, lin, tokens[-2], value - const))
        elif section == "bounds":
            toks = raw.split()
            if len(toks) != 5 or toks[1] != "<=" or toks[3] != "<=":
                raise ParseError(f"unsupported bounds line: {raw.strip()!r}")
            try:
                lo, hi = float(toks[0]), float(toks[4])
            except ValueError:
                raise ParseError(f"non-numeric bound: {raw.strip()!r}") from None
            if math.isnan(lo) or math.isnan(hi):
                raise ParseError(f"NaN bound: {raw.strip()!r}")
            listed_ids.append(ids[toks[2]])
            binary.append(False)
            lower.append(lo)
            upper.append(hi)
        elif section == "binaries":
            toks = raw.split()
            listed_ids.extend(map(ids.__getitem__, toks))
            binary.extend([True] * len(toks))
            lower.extend([0.0] * len(toks))
            upper.extend([1.0] * len(toks))
        elif section == "objective":
            if objective is not None:
                raise ParseError(f"second objective line: {raw.strip()!r}")
            head, colon, body = raw.partition(":")
            lin, quad, const = _terms((body if colon else head).split())
            if quad is not None:
                raise ParseError("quadratic objective not supported")
            objective = lin, const
            for term in lin:
                ids[term]
        else:
            raise ParseError(f"content outside any section: {raw.strip()!r}")
    # the id map is freed as soon as its names have moved, to keep the peak low
    names = np.fromiter(ids, object, len(ids))
    ids.clear()
    term_ids, coeffs, lengths, senses, rhs = (np.frombuffer(c, c.typecode) for c in linear)
    variables, column = _variables(names, *(np.frombuffer(c, t) for c, t in zip(listed, "q?dd")))
    rows = LinearRows(
        variables.names, tuple(row_names), np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)]),
        column[term_ids], coeffs, np.array(SENSES)[senses], rhs,
    )
    objective = Objective(*(objective or ({}, 0.0)), sense)
    return name or Path(path).stem, variables, rows, quadratic, objective, header


def _variables(
    names: np.ndarray, listed: np.ndarray, binary: np.ndarray, lower: np.ndarray, upper: np.ndarray,
) -> tuple[Variables, np.ndarray]:
    """The variables (Bounds and Binaries order, then the unlisted ones by name) and each id's column.

    `names` holds the names by id.  `listed` holds the id of each name on a
    bounds or binaries line, in file order, and `binary`, `lower` and
    `upper` what that line gives it.  A name listed twice keeps its
    first place and its last bounds; an unlisted one is free.
    """
    once, first = np.unique(listed, return_index=True)
    last = len(listed) - 1 - np.unique(listed[::-1], return_index=True)[1]
    by_place = np.argsort(first)
    kept = last[by_place]
    unlisted = np.ones(len(names), bool)
    unlisted[once] = False
    free = np.flatnonzero(unlisted)
    free = free[np.argsort(names[free])]
    order = np.concatenate([once[by_place], free])
    column = np.empty(len(names), np.intp)
    column[order] = np.arange(len(names))
    variables = Variables(
        tuple(names[order]),
        np.concatenate([lower[kept], np.full(len(free), -math.inf)]),
        np.concatenate([upper[kept], np.full(len(free), math.inf)]),
        np.concatenate([binary[kept], np.zeros(len(free), bool)]),
    )
    return variables, column


def write_solution(values: dict[str, float], path: str | Path) -> None:
    """Write `values` as ``name value`` lines, in blocks; no values give one empty line."""
    lines = (f"{name} {val:.17g}" for name, val in values.items())
    write_atomic(path, _blocks(lines) if values else "\n")


def _solution_values(path: str | Path) -> dict[str, float]:
    """The values of a solution file by name, read ``_READ_CHARS`` characters and then one line at a time.

    Blank lines and lines starting with ``#`` or ``\\`` are skipped; every other line is ``name value`` with a
    finite value, or a ParseError names its line.  Each distinct value text is parsed once.
    """
    values: dict[str, float] = {}
    parsed: dict[str, float] = {}
    lineno, rest = 0, ""
    for chunk in chain(read_chunks(path, _READ_CHARS), [""]):  # the empty chunk flushes the last line
        lines = (rest + chunk).splitlines(keepends=True)
        rest = lines.pop() if chunk else ""
        for lineno, raw in enumerate(lines, lineno + 1):
            parts = raw.split()
            if not parts or parts[0][0] in "#\\":
                continue
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'name value'")
            name, text = parts
            value = parsed.get(text)
            if value is None:
                try:
                    value = parsed[text] = _finite(text)
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
            values[name] = value
    return values


def import_solution(path: str | Path, catalog: Catalog) -> tuple[tuple[str, float], ...]:
    """Decode the binary block of a solution file into a design.

    Values are rounded at 0.5; exactly one choice per layer must fire.
    """
    values = _solution_values(path)
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
