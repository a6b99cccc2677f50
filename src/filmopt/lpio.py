"""LP-format text export/import and solution-file decoding.

The emitted dialect is the common solver LP format: `Maximize` /
`Subject To` / `Bounds` / `Binaries` / `End`, quadratic parts in square
brackets with `*` and `^ 2` terms.  Every coefficient is written with 17
significant digits, so a parse-back reproduces the exact doubles and a
re-emission is byte-identical.  Long expressions wrap onto continuation
lines indented by two spaces; item lines are indented by one.

Solution files are plain `name value` pairs, one per line.
"""
from __future__ import annotations

from pathlib import Path

from .errors import InfeasibleAssignment, ParseError
from .materials import Catalog, read_text, write_atomic
from .model import (
    LinearConstraint,
    Model,
    Objective,
    QuadraticConstraint,
    Variable,
    x_name,
)

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
    model.validate()
    lines: list[str] = [f"\\ Model: {model.name}"]
    lines.extend(f"\\ {c}" for c in model.header_comments)
    obj, signed = model.objective, _Signed()
    if model.variables or model.linear or model.quadratic or obj.coeffs or obj.constant:
        lines.append("Maximize" if obj.sense == "max" else "Minimize")
        lines.extend(_wrap(_linear_text(signed, obj.coeffs, obj.constant), " obj:"))
        if model.linear or model.quadratic:
            lines.append("Subject To")
        for c in model.linear:
            lines.extend(_wrap(f"{_linear_text(signed, c.coeffs)} {c.sense} {c.rhs:.17g}", f" {c.name}:"))
        for q in model.quadratic:
            body = f"{_quad_text(signed, q.quad)} {q.sense} {q.rhs:.17g}"
            lines.extend(_wrap(f"{_linear_text(signed, q.lin)} + {body}" if q.lin else body, f" {q.name}:"))
        continuous = [v for v in model.variables if v.kind != "binary"]
        if continuous:
            lines.append("Bounds")
            lines.extend(f" {v.lower:.17g} <= {v.name} <= {v.upper:.17g}" for v in continuous)
        binaries = [v.name for v in model.variables if v.kind == "binary"]
        if binaries:
            lines.append("Binaries")
            lines.extend(_wrap(" ".join(binaries), " "))
    lines.append("End")
    write_atomic(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Parsing


def _logical_lines(text: str) -> tuple[list[str], str | None, list[str]]:
    """Split into logical item lines, the model name, and header comments.

    Two-space-indented lines continue the previous item; leading comment
    lines (before any section) are the exported header.
    """
    out: list[str] = []
    header: list[str] = []
    name: str | None = None
    for raw in text.splitlines():
        if raw.startswith("\\"):
            if out:
                continue
            content = raw[1:].strip()
            if name is None and content.startswith("Model:"):
                name = content.split(":", 1)[1].strip()
            else:
                header.append(content)
            continue
        if not raw.strip():
            continue
        if raw.startswith("  ") and out:
            out[-1] += " " + raw.strip()
        else:
            out.append(raw.rstrip())
    return out, name, header


def _parse_terms(tokens: list[str]) -> tuple[dict[str, float], dict[tuple[str, str], float], float]:
    """Signed term groups -> (linear coeffs, quadratic coeffs, constant)."""
    lin: dict[str, float] = {}
    quad: dict[tuple[str, str], float] = {}
    const = 0.0
    sign = 1.0
    i = 0
    in_quad = False
    while i < len(tokens):
        tok = tokens[i]
        if tok == "+":
            sign = 1.0
            i += 1
            continue
        if tok == "-":
            sign = -1.0
            i += 1
            continue
        if tok == "[":
            in_quad = True
            sign = 1.0
            i += 1
            continue
        if tok == "]":
            in_quad = False
            sign = 1.0
            i += 1
            continue
        try:
            coef = sign * float(tok)
        except ValueError:
            raise ParseError(f"expected a coefficient, got {tok!r}")
        if i + 1 < len(tokens) and tokens[i + 1] not in {"+", "-", "]", "["} and not _is_number(tokens[i + 1]):
            name = tokens[i + 1]
            if in_quad:
                if i + 3 < len(tokens) and tokens[i + 2] == "*":
                    quad[(name, tokens[i + 3])] = quad.get((name, tokens[i + 3]), 0.0) + coef
                    i += 4
                elif i + 3 < len(tokens) and tokens[i + 2] == "^" and tokens[i + 3] == "2":
                    quad[(name, name)] = quad.get((name, name), 0.0) + coef
                    i += 4
                else:
                    raise ParseError(f"malformed quadratic term near {name!r}")
            else:
                lin[name] = lin.get(name, 0.0) + coef
                i += 2
        else:
            const += coef
            i += 1
        sign = 1.0
    return lin, quad, const


def _is_number(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def import_lp(path: str | Path) -> Model:
    """Parse a file previously written by :func:`export_lp`."""
    text = read_text(path)
    lines, name, header = _logical_lines(text)
    model = Model(name=name or Path(path).stem, header_comments=header)
    section = None
    sense = "max"
    declared: dict[str, Variable] = {}
    bounds_order: list[str] = []
    binaries_order: list[str] = []

    def ensure_var(name: str) -> None:
        if name not in declared:
            declared[name] = Variable(name, float("-inf"), float("inf"))

    for line in lines:
        stripped = line.strip()
        lowered = stripped.lower()
        if lowered in {"maximize", "minimize"}:
            section = "objective"
            sense = "max" if lowered == "maximize" else "min"
            continue
        if lowered == "subject to":
            section = "constraints"
            continue
        if lowered == "bounds":
            section = "bounds"
            continue
        if lowered == "binaries":
            section = "binaries"
            continue
        if lowered == "end":
            break
        if section == "objective":
            body = stripped.split(":", 1)[1] if ":" in stripped else stripped
            lin, quad, const = _parse_terms(body.split())
            if quad:
                raise ParseError("quadratic objective not supported")
            for n in lin:
                ensure_var(n)
            model.objective = Objective(coeffs=lin, constant=const, sense=sense)
        elif section == "constraints":
            if ":" not in stripped:
                raise ParseError(f"constraint line without name: {stripped!r}")
            name, body = stripped.split(":", 1)
            tokens = body.split()
            sense_pos = max(
                (tokens.index(s) for s in ("<=", ">=", "=") if s in tokens),
                default=-1,
            )
            if sense_pos < 0:
                raise ParseError(f"{name}: no constraint sense")
            csense = tokens[sense_pos]
            try:
                (rhs,) = map(float, tokens[sense_pos + 1:])
            except ValueError:
                raise ParseError(f"{name}: expected one number after {csense!r}") from None
            lin, quad, const = _parse_terms(tokens[:sense_pos])
            for n in lin:
                ensure_var(n)
            for n1, n2 in quad:
                ensure_var(n1)
                ensure_var(n2)
            if quad:
                model.quadratic.append(
                    QuadraticConstraint(name.strip(), quad, lin, csense, rhs - const)
                )
            else:
                model.linear.append(
                    LinearConstraint(name.strip(), lin, csense, rhs - const)
                )
        elif section == "bounds":
            toks = stripped.split()
            if len(toks) != 5 or toks[1] != "<=" or toks[3] != "<=":
                raise ParseError(f"unsupported bounds line: {stripped!r}")
            try:
                lo, vname, hi = float(toks[0]), toks[2], float(toks[4])
            except ValueError:
                raise ParseError(f"non-numeric bound: {stripped!r}") from None
            ensure_var(vname)
            declared[vname].lower = lo
            declared[vname].upper = hi
            bounds_order.append(vname)
        elif section == "binaries":
            for vname in stripped.split():
                ensure_var(vname)
                declared[vname].kind = "binary"
                declared[vname].lower = 0.0
                declared[vname].upper = 1.0
                binaries_order.append(vname)
        else:
            raise ParseError(f"content outside any section: {stripped!r}")

    listed = bounds_order + binaries_order
    leftover = sorted(set(declared) - set(listed))
    model.variables = [declared[n] for n in listed + leftover]
    return model


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
            values[parts[0]] = float(parts[1])
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
