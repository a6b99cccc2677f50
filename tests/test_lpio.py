"""The chunked LP reader against the whole-text oracle, and the memory budgets of the export path."""
import dataclasses
import functools
import io
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from filmopt import bounds, lpio, materials, model, relax
from filmopt.errors import ParseError
from filmopt.materials import CatalogConfig, build_catalog, write_atomic
from filmopt.model import QuadraticConstraint, build_miqcp, build_misocp, variable_map_pieces

from conftest import linear_rows
from test_models import X, Y, lp_models, model_parts

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SUBSTRATES = ("Molybdenum", "Niobium", "Tantalum", "Tungsten")
#: Line counts of the writer's and the name check's blocks: a block boundary after every line, every other
#: line and nowhere.
BLOCKS = (1, 2, 3, 4096)
#: Character counts of the LP reader's chunks: chunk ends inside lines, between a ``\n`` and the two spaces of
#: a continuation, and at the default size nowhere in a small text.
SIZES = (1, 2, 3, 5, lpio._READ_CHARS)
MB = 1_000_000

hypothesis_settings = settings(max_examples=150, deadline=None,
                               suppress_health_check=[HealthCheck.function_scoped_fixture])


@functools.cache
def bundled_model(config: str, substrate: str, kind: str) -> model.Model:
    cfg = dataclasses.replace(CatalogConfig.from_json(CONFIGS / f"{config}.json"), substrate=substrate)
    catalog = build_catalog(cfg, materials.load_tables(cfg))
    eb = bounds.tighten_bounds(catalog)
    if kind == "miqcp":
        return build_miqcp(catalog, eb)
    return build_misocp(catalog, eb, relax.hyperplanes_for_catalog(catalog, eb))


def model_state(m: model.Model) -> tuple:
    """Everything a model holds, arrays as bytes and floats by repr, so equal states are equal bit for bit."""
    var, rows = m.variables, m.linear
    return (
        m.name, m.header_comments, var.names, var.lower.tobytes(), var.upper.tobytes(), var.binary.tobytes(),
        rows.names, rows.indptr.tobytes(), rows.cols.tobytes(), rows.vals.tobytes(), rows.senses.tolist(),
        rows.rhs.tobytes(), repr([(q.name, q.quad, q.lin, q.sense, q.rhs) for q in m.quadratic]),
        repr((m.objective.coeffs, m.objective.constant, m.objective.sense)),
    )


def import_both(path: Path, size: int, monkeypatch) -> tuple:
    """The model state, or the ParseError message, of lpio.import_lp in chunks of `size` characters and of the
    oracle."""
    results = []
    with monkeypatch.context() as patch:
        patch.setattr(lpio, "_READ_CHARS", size)
        for parse in (lpio.import_lp, oracles.import_lp):
            try:
                results.append(model_state(parse(path)))
            except ParseError as exc:
                results.append(str(exc))
    return tuple(results)


def rows_in_chunks(path: Path, size: int, monkeypatch) -> list:
    """The linear rows lpio.import_lp reads in chunks of `size` characters, after checking them against the
    oracle."""
    new, old = import_both(path, size, monkeypatch)
    assert new == old
    with monkeypatch.context() as patch:
        patch.setattr(lpio, "_READ_CHARS", size)
        return linear_rows(lpio.import_lp(path))


@pytest.mark.parametrize("kind", ["miqcp", "misocp"])
@pytest.mark.parametrize("substrate", SUBSTRATES)
@pytest.mark.parametrize("config", ["mo_410_n6", "visible_n6_lambda40", "broad_n20_theta2"])
def test_bundled_lp_imports_as_the_oracle_and_writes_back_the_same_bytes(config, substrate, kind, tmp_path):
    p1, p2 = tmp_path / "model.lp", tmp_path / "again.lp"
    lpio.export_lp(bundled_model(config, substrate, kind), p1)
    parsed = lpio.import_lp(p1)
    assert model_state(parsed) == model_state(oracles.import_lp(p1))
    lpio.export_lp(parsed, p2)
    assert p1.read_bytes() == p2.read_bytes()


@hypothesis_settings
@given(lp_models(), st.sampled_from(SIZES))
def test_random_models_import_as_the_oracle(tmp_path, monkeypatch, m, size):
    path = tmp_path / "model.lp"
    lpio.export_lp(m, path)
    new, old = import_both(path, size, monkeypatch)
    assert new == old


LP_WORDS = ["Maximize", "Minimize", "Subject To", "Bounds", "Binaries", "End", "\\ Model: m", "\\ note",
            "obj:", "c1:", "c2:", "q1:", "+", "-", "[", "]", "*", "^ 2", "0", "1.5", "-3", "x", "y", "z", "<=",
            ">=", "=", "0 <= x <= 1", "-1 <= y <= 2",
            # rows of the shape the writer gives every linear row but an empty one
            "c3: 2 x - 1.5 y + 0 z <= 4", "c4: - 1 x + 3 y >= -2", "c5: 1 y - 0 x = -0", "c6: 0.5 z <= 1e3",
            # rows the writer never gives: a constant, non-finite numbers, a repeated name, a row head with a
            # space and a second colon
            "+2", "1e999", "inf", "nan", "c7: 1 x + 2 x >= 1", "c 8: 1 x <= 1", "c9:c10: 1 x <= 1",
            "c11: 1 x + 1e999 y <= 1", "c12: 1 x <= nan", "inf <= z <= 1",
            # a finite coefficient two of which sum past a double
            "1.7e308"]
LP_BREAKS = ["\n", "\n ", "\n  ", "\n   ", "\r\n", "\r\n  ", "\r", "\r  ", "\x0c", "\x0c  ", "\x1e", "\x85",
             "\u2028", " ", "  ", "\t", "\x1f", "\xa0"]


@hypothesis_settings
@given(st.lists(st.tuples(st.sampled_from(LP_WORDS), st.sampled_from(LP_BREAKS)), max_size=30),
       st.sampled_from(SIZES))
@example([("Maximize", "\n"), ("obj:", " "), ("1.7e308", " "), ("x", " "), ("+", " "), ("1.7e308", " "),
          ("x", "\n"), ("Binaries", "\n"), ("x", "\n")], 1)
def test_random_lp_text_imports_as_the_oracle(tmp_path, monkeypatch, words, size):
    path = tmp_path / "model.lp"
    path.write_text("".join(w + b for w, b in words), encoding="utf-8", newline="")
    new, old = import_both(path, size, monkeypatch)
    assert new == old
    if not isinstance(new, str):
        lpio.export_lp(lpio.import_lp(path), tmp_path / "again.lp")


#: The head of the hand-written texts: x, y and z get finite bounds, as a continuous variable must.
HEAD = "Maximize\n obj: x\nBounds\n 0 <= x <= 1\n 0 <= y <= 1\n 0 <= z <= 1\nSubject To\n"


@pytest.mark.parametrize("space", ["\t", "\x1f", "\xa0", "\u3000"])
@pytest.mark.parametrize("size", SIZES)
def test_whitespace_other_than_one_space_splits_the_tokens_of_its_own_line(tmp_path, monkeypatch, space, size):
    # a line with a token more than its spaces, next to one with a space more than its tokens
    path = tmp_path / "model.lp"
    path.write_text(HEAD + f" c1: 1 x{space}<= 1\n c2:  1 y <= 1\nEnd\n", encoding="utf-8")
    assert rows_in_chunks(path, size, monkeypatch) == [("c1", {"x": 1.0}, "<=", 1.0), ("c2", {"y": 1.0}, "<=", 1.0)]
    # the same, where tokens counted by spaces would read as the two canonical rows c1 and c2
    path.write_text(HEAD + f" c1: 1 x + 1 y <= 1{space}c2:\n 1 z <=  2\nEnd\n", encoding="utf-8")
    new, old = import_both(path, size, monkeypatch)
    assert isinstance(new, str) and new == old


@pytest.mark.parametrize("bad", ["c5: 1 x + 1e999 y <= 1", "c5: 1 x + nan y <= 1", "c5: 1 x <= y", "c5: 1 x 1",
                                 "c5: 1 x - ] <= 1", "c5 1 x <= 1", "c5: 1 x - [ y * y ] <= 1"])
@pytest.mark.parametrize("size", SIZES)
def test_a_bad_row_among_canonical_rows_raises_the_oracles_message(tmp_path, monkeypatch, bad, size):
    rows = [f" c{i}: 1 x - 2.5 y{i} + 0 z >= -{i}" for i in range(9)]
    rows[5] = f" {bad}"
    rows[7] = " c7: 1 x + nan z <= 1"  # a later bad row does not speak first
    path = tmp_path / "model.lp"
    path.write_text(HEAD + "\n".join(rows) + "\nEnd\n", encoding="utf-8")
    new, old = import_both(path, size, monkeypatch)
    assert isinstance(new, str) and new == old


@pytest.mark.parametrize("head, bad", [("\\ Model: m\n\\ a\tb\n", "a\tb"), ("\\ Model: a\tb\n", "a\tb"),
                                       ("\\ Model: m\n\\ a\x00\n", "a\x00")])
def test_header_text_the_writer_refuses_is_a_parse_error(tmp_path, monkeypatch, head, bad):
    path = tmp_path / "model.lp"
    path.write_text(head + "Maximize\n obj: 1 x\nBinaries\n x\nEnd\n", encoding="utf-8")
    new, old = import_both(path, lpio._READ_CHARS, monkeypatch)
    assert new == old == f"{bad!r}: not a name or header comment LP text can carry"


@pytest.mark.parametrize("text, rows", [
    # every separator str.splitlines knows ends a line
    (HEAD.replace("\n", "\r\n") + " c1: x + y <= 1\r\n c2: y >= 0\r\nEnd\r\n", ["c1", "c2"]),
    (HEAD.replace("\n", "\r") + " c1: x + y <= 1\r c2: y >= 0\rEnd\r", ["c1", "c2"]),
    (HEAD + " c1: x + y <= 1\x0c c2: y >= 0\x1e c3: x = 1\x85 c4: y <= 3\u2028End", ["c1", "c2", "c3", "c4"]),
    # \r\n and \r read as \n, so two spaces after them continue the line; after \x0c they do not
    (HEAD + " c1: x\r\n  + y\r  - z >= 0\nEnd\n", ["c1"]),
    (HEAD + " c1: x + y <= 1\x0c  c2: y >= 0\nEnd\n", ["c1", "c2"]),
    # a last line without a newline, with and without End
    (HEAD + " c1: x + y <= 1\nEnd", ["c1"]),
    (HEAD + " c1: x + y <= 1", ["c1"]),
])
@pytest.mark.parametrize("size", SIZES)
def test_line_separators(tmp_path, monkeypatch, text, rows, size):
    path = tmp_path / "model.lp"
    path.write_text(text, encoding="utf-8", newline="")
    new, old = import_both(path, size, monkeypatch)
    assert new == old
    assert list(new[6]) == rows


def test_a_continuation_after_crlf_joins_the_row(tmp_path):
    path = tmp_path / "model.lp"
    path.write_bytes(b"Subject To\r\n c1: x\r\n  + y <= 1\r\nBounds\r\n 0 <= x <= 1\r\n 0 <= y <= 1\r\nEnd\r\n")
    assert linear_rows(lpio.import_lp(path)) == [("c1", {"x": 1.0, "y": 1.0}, "<=", 1.0)]


CHUNKED = HEAD + " c1: 1 x + 2 y <= 3\n c2: 1 x\n  + 1 y >= 1\nEnd\n"
CHUNKED_ROWS = [("c1", {"x": 1.0, "y": 2.0}, "<=", 3.0), ("c2", {"x": 1.0, "y": 1.0}, ">=", 1.0)]


def test_a_chunk_may_end_inside_a_line(tmp_path, monkeypatch):
    path = tmp_path / "model.lp"
    path.write_text(CHUNKED, encoding="utf-8")
    size = CHUNKED.index("+ 2 y")
    assert next(materials.read_chunks(path, size)).endswith(" c1: 1 x ")
    assert rows_in_chunks(path, size, monkeypatch) == CHUNKED_ROWS


def test_a_chunk_may_end_between_a_newline_and_a_continuation(tmp_path, monkeypatch):
    path = tmp_path / "model.lp"
    path.write_text(CHUNKED, encoding="utf-8")
    size = CHUNKED.index("\n  + 1 y") + 1
    first, second = list(materials.read_chunks(path, size))[:2]
    assert first.endswith(" c2: 1 x\n") and second.startswith("  + 1 y")
    assert rows_in_chunks(path, size, monkeypatch) == CHUNKED_ROWS


def test_a_file_buffer_may_end_inside_a_crlf(tmp_path, monkeypatch):
    # the text layer decodes the file a buffer at a time; the first buffer here ends between \r and \n, and
    # the first chunk ends at the same place, before a continuation
    buffer = io.TextIOWrapper(io.BytesIO())._CHUNK_SIZE
    text = CHUNKED.replace("\n", "\r\n")
    text = f"\\ {'p' * (buffer - text.index(' c2: 1 x') - 13)}\r\n{text}"
    path = tmp_path / "model.lp"
    path.write_bytes(text.encode())
    assert text.encode()[buffer - 1:buffer + 3] == b"\r\n  "
    size = len(text[:buffer].replace("\r\n", "\n"))
    assert next(materials.read_chunks(path, size)).endswith(" c2: 1 x\n")
    assert rows_in_chunks(path, size, monkeypatch) == CHUNKED_ROWS


@pytest.mark.parametrize("size", SIZES)
def test_names_sums_and_empty_rows(tmp_path, monkeypatch, size):
    path = tmp_path / "model.lp"
    path.write_text(
        "Maximize\n obj: z + 2 b\nSubject To\n c1: x + 2 x - y + y <= 3\n c0: 0 <= 1\n c2: 5 >= 2\n"
        " q1: x + [ ] <= 1\n q2: [ w * z - v ^ 2 ] <= 4\nBounds\n 0 <= y <= 1\n 0 <= x <= 2\n"
        "Binaries\n b x\nBounds\n 0 <= z <= 1\n 0 <= w <= 1\n -1 <= v <= 0\nEnd\n", encoding="utf-8")
    new, old = import_both(path, size, monkeypatch)
    assert new == old
    with monkeypatch.context() as patch:
        patch.setattr(lpio, "_READ_CHARS", size)
        m = lpio.import_lp(path)
    var = m.variables
    # the order of first listing; x keeps its first place and last kind
    assert var.names == ("y", "x", "b", "z", "w", "v")
    assert var.binary.tolist() == [False, True, True, False, False, False]
    assert var.upper.tolist()[:3] == [1.0, 1.0, 1.0]
    assert linear_rows(m) == [
        ("c1", {"x": 3.0, "y": 0.0}, "<=", 3.0), ("c0", {}, "<=", 1.0), ("c2", {}, ">=", -3.0)]
    assert [(q.name, q.lin, q.quad) for q in m.quadratic] == [
        ("q1", {"x": 1.0}, {}), ("q2", {}, {("w", "z"): 1.0, ("v", "v"): -1.0})]


@pytest.mark.parametrize("text", [
    # a one-space indent starts a line, so "+ 2 y" is a second objective line, not a continuation
    "Maximize\n obj: 1 x\n + 2 y\nBounds\n 0 <= x <= 1\n 0 <= y <= 1\nEnd\n",
    # a second objective section
    HEAD + " c1: 1 x <= 1\nMaximize\n obj: 2 y\nEnd\n",
    HEAD + " c1: 1 x <= 1\nMinimize\n obj: 2 y\nEnd\n",
], ids=["one-space-indent", "second-maximize", "then-minimize"])
@pytest.mark.parametrize("size", SIZES)
def test_a_second_objective_line_is_a_parse_error(tmp_path, monkeypatch, text, size):
    path = tmp_path / "model.lp"
    path.write_text(text, encoding="utf-8")
    second = "+ 2 y" if "+ 2 y" in text else "obj: 2 y"
    message = f"second objective line: {second!r}"
    assert import_both(path, size, monkeypatch) == (message, message)


@pytest.mark.parametrize("text, message", [
    # a row name twice: among canonical rows, and once as a linear and once as a quadratic row
    (HEAD + " c1: 1 x <= 1\n c2: 1 y <= 1\n c1: 2 x >= 0\nEnd\n", "c1: duplicate row name"),
    (HEAD + " c1: x + [ x ^ 2 ] <= 1\n c1: 1 y <= 1\nEnd\n", "c1: duplicate row name"),
    # a crossed bounds line, and crossed bounds a name keeps from its last line
    (HEAD + " c1: 1 y <= 1\nBounds\n 0 <= x <= 1\n 2 <= y <= 1\nEnd\n", "y: lower bound exceeds upper"),
    (HEAD + " c1: 1 y <= 1\nBounds\n 2 <= y <= 3\n 0 <= x <= 1\n 2 <= y <= 1\nEnd\n",
     "y: lower bound exceeds upper"),
    (HEAD + "Bounds\n inf <= x <= 1\nEnd\n", "x: lower bound exceeds upper"),
    # the row check speaks first, as in Model
    (HEAD + " c1: 1 y <= 1\n c1: 1 y <= 1\nBounds\n 2 <= y <= 1\nEnd\n", "c1: duplicate row name"),
], ids=["row-twice", "linear-and-quadratic-row", "crossed", "crossed-last", "infinite-lower", "row-first"])
@pytest.mark.parametrize("size", SIZES)
def test_text_the_writer_refuses_is_a_parse_error(tmp_path, monkeypatch, text, message, size):
    path = tmp_path / "model.lp"
    path.write_text(text, encoding="utf-8")
    assert import_both(path, size, monkeypatch) == (message, message)


@pytest.mark.parametrize("text, name", [
    # a name on no bounds or binaries line, in a linear row and only in a quadratic row
    ("Maximize\n obj: x\nSubject To\n c1: 1 x <= 1\nEnd\n", "x"),
    ("Maximize\n obj: x\nSubject To\n q1: [ y ^ 2 ] <= 1\nBounds\n 0 <= x <= 1\nEnd\n", "y"),
    # infinite bounds on a bounds line, on both sides and on one
    ("Maximize\n obj: x\nSubject To\n c1: 1 x <= 1\nBounds\n -inf <= x <= inf\nEnd\n", "x"),
    ("Maximize\n obj: x\nSubject To\n c1: 1 x <= 1\nBounds\n -inf <= x <= 1\nEnd\n", "x"),
    # a binary that a later bounds line makes continuous
    ("Maximize\n obj: x\nBinaries\n x\nBounds\n 0 <= x <= inf\nEnd\n", "x"),
    # the first in variable order: listed names before unlisted ones
    ("Maximize\n obj: a + x + z\nBounds\n 0 <= x <= 1\n -inf <= z <= 1\nEnd\n", "z"),
], ids=["unlisted", "unlisted-quadratic", "infinite-both", "infinite-lower", "binary-made-continuous", "first"])
@pytest.mark.parametrize("size", SIZES)
def test_a_continuous_variable_without_finite_bounds_is_a_parse_error(tmp_path, monkeypatch, text, name, size):
    # the writer refuses such a model, so the reader does too, with the writer's message
    path = tmp_path / "model.lp"
    path.write_text(text, encoding="utf-8")
    message = f"{name}: continuous variable needs finite bounds"
    assert import_both(path, size, monkeypatch) == (message, message)


INF = float("inf")
C1 = ("c1", [(0, 1.0)], "<=", 1.0)
Q1 = QuadraticConstraint("q1", {("x", "x"): 1.0}, {}, "<=", 1.0)


@pytest.mark.parametrize("parts", [
    model_parts([("1x", 0.0, 1.0, False)], [C1]),
    model_parts([X], [("1c", [(0, 1.0)], "<=", 1.0)]),
    model_parts([X], [C1, C1]),
    model_parts([X], quadratic=[Q1, Q1]),
    model_parts([X, ("y", 2.0, 1.0, False)]),
    model_parts([("x", INF, 1.0, False)]),
    model_parts([X, ("y", 0.0, INF, False)]),
    model_parts([("x", -INF, INF, False)]),
    model_parts([X], [("1c", [(0, 1.0)], "<=", 1.0), C1, C1]),
    model_parts([X, Y], comments=["a\x1fb"]),
], ids=["variable-1x", "row-1c", "linear-row-twice", "quadratic-row-twice", "crossed", "infinite-lower-crossed",
        "infinite-upper", "free", "name-before-repeat", "header-unit-separator"])
def test_reader_and_model_refuse_a_model_with_the_same_message(tmp_path, parts):
    path = tmp_path / "model.lp"
    # the text such a model would have, written from a stand-in, since the model itself cannot be made
    write_atomic(path, lpio._blocks(lpio._lp_lines(types.SimpleNamespace(**parts))))
    with pytest.raises(ValueError) as made:
        model.Model(**parts)
    with pytest.raises(ParseError) as read:
        lpio.import_lp(path)
    assert str(read.value) == str(made.value)


def test_coefficients_that_sum_past_a_double_are_a_parse_error(tmp_path):
    # each number is finite, but the row's two x terms add up to inf, which the writer refuses
    path = tmp_path / "model.lp"
    path.write_text(HEAD + " c1: 1e308 x + 1e308 x <= 1\nEnd\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^c1: non-finite coefficient, constant or right-hand side$"):
        lpio.import_lp(path)


@pytest.mark.parametrize("size", SIZES)
def test_crossed_bounds_a_later_line_replaces_are_read(tmp_path, monkeypatch, size):
    path = tmp_path / "model.lp"
    path.write_text(HEAD + " x: 1 y <= 1\nBounds\n 2 <= y <= 1\n 0 <= x <= 1\n 0 <= y <= 1\nBinaries\n x\nEnd\n",
                    encoding="utf-8")
    new, old = import_both(path, size, monkeypatch)
    assert new == old and not isinstance(new, str)
    lpio.export_lp(lpio.import_lp(path), tmp_path / "again.lp")


NAME_PARTS = st.sampled_from(["x", "y_1", "é", "Ω", "end", "END", "Bounds", "maximize", "MiniMize", "binaries",
                              "subject", "1", ".", "-", "[", "^", "<", "=", " ", "\t", "\n", ":", "\xa0", ""])


@hypothesis_settings
@given(st.lists(st.lists(NAME_PARTS, max_size=3).map("".join), max_size=12), st.sampled_from(BLOCKS))
@example(["x", "Bounds"], 1)
@example(["x"] * 5 + [""], 2)
@example(["", " "], 1)  # a name with a space is reported before an earlier empty one
def test_invalid_name_in_blocks_finds_what_the_joined_text_finds(monkeypatch, names, block):
    monkeypatch.setattr(materials, "_BLOCK_LINES", block)
    assert materials.invalid_name(names) == oracles.invalid_name(names)


SOLUTION_WORDS = ["x", "y", "x_1_A_40", "0", "1", "0.5", "-0", "1e999", "nan", "inf", "1_0", "#", "# c", "\\ c",
                  "é"]
SOLUTION_BREAKS = ["\n", " ", "  ", "\t", "\r\n", "\x0c", "\u2028", "\n\n", "\n "]


def solution_both(path: Path, size: int, monkeypatch) -> list[str]:
    """The values by name, or the ParseError message, of lpio._solution_values in chunks of `size` characters
    and of the oracle."""
    results = []
    with monkeypatch.context() as patch:
        patch.setattr(lpio, "_READ_CHARS", size)
        for read in (lpio._solution_values, oracles.solution_values):
            try:
                results.append(repr(read(path)))
            except ParseError as exc:
                results.append(str(exc))
    return results


@hypothesis_settings
@given(st.lists(st.tuples(st.sampled_from(SOLUTION_WORDS), st.sampled_from(SOLUTION_BREAKS)), max_size=12),
       st.sampled_from(SIZES))
@example([("x", " "), ("1", "\n"), ("y", " "), ("0.5", "\n"), ("x", " "), ("0", "\n")], 2)
def test_solution_values_are_read_as_line_by_line(tmp_path, monkeypatch, words, size):
    path = tmp_path / "solution.txt"
    path.write_text("".join(w + b for w, b in words), encoding="utf-8", newline="")
    new, old = solution_both(path, size, monkeypatch)
    assert new == old


@pytest.mark.parametrize("text, want", [
    ("# x 1 2\nx 1\n \\ y\ny 0.5\n", {"x": 1.0, "y": 0.5}),  # comment lines
    ("x 1\n\n \t\ny 0\n", {"x": 1.0, "y": 0.0}),  # blank lines
    ("x 1\r\ny 1e999\r\n", "{path}:2: non-finite number '1e999'"),  # a \r\n file counts lines as \n does
    ("x 1\ny nan\n", "{path}:2: non-finite number 'nan'"),
    ("x 1\ny 0 z\n", "{path}:2: expected 'name value'"),
])
@pytest.mark.parametrize("size", SIZES)
def test_solution_file_examples(tmp_path, monkeypatch, text, want, size):
    path = tmp_path / "solution.txt"
    path.write_text(text, encoding="utf-8", newline="")
    want = want.format(path=path) if isinstance(want, str) else repr(want)
    assert solution_both(path, size, monkeypatch) == [want, want]


# ---------------------------------------------------------------------------
# Memory budgets on the broad Tungsten MISOCP model (21,808 variables, 44,575 rows)


def traced_peak(call) -> float:
    """Bytes allocated by `call()` at its peak, above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def broad_lp(tmp_path_factory):
    path = tmp_path_factory.mktemp("broad") / "model.lp"
    lpio.export_lp(bundled_model("broad_n20_theta2", "Tungsten", "misocp"), path)
    lpio.import_lp(path)  # the first call loads what numpy loads lazily
    return path


def test_import_peaks_below_three_times_the_text(broad_lp):
    assert traced_peak(lambda: lpio.import_lp(broad_lp)) <= 3 * broad_lp.stat().st_size


def test_export_of_a_built_model_peaks_below_5_mb(broad_lp, tmp_path):
    m = bundled_model("broad_n20_theta2", "Tungsten", "misocp")
    assert traced_peak(lambda: lpio.export_lp(m, tmp_path / "model.lp")) <= 5 * MB
    assert (tmp_path / "model.lp").read_bytes() == broad_lp.read_bytes()


def test_varmap_write_peaks_below_5_mb(tmp_path):
    cfg = dataclasses.replace(CatalogConfig.from_json(CONFIGS / "broad_n20_theta2.json"), substrate="Tungsten")
    catalog = build_catalog(cfg, materials.load_tables(cfg))
    path = tmp_path / "varmap.json"
    assert traced_peak(lambda: write_atomic(path, variable_map_pieces(catalog))) <= 5 * MB
    assert path.stat().st_size > 3 * MB


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("point", ["broad", "empty"])
def test_solution_file_is_the_joined_lines(tmp_path, monkeypatch, block, point):
    """write_solution's blocks give the bytes of all ``name value`` lines joined at once."""
    values = {}
    if point == "broad":
        cfg = dataclasses.replace(CatalogConfig.from_json(CONFIGS / "broad_n20_theta2.json"), substrate="Tungsten")
        catalog = build_catalog(cfg, materials.load_tables(cfg))
        values = model.design_point(catalog, tuple(c[0] for c in catalog.layer_choices))
    monkeypatch.setattr(lpio, "_BLOCK_LINES", block)
    lpio.write_solution(values, tmp_path / "solution.txt")
    want = "\n".join(f"{name} {val:.17g}" for name, val in values.items()) + "\n"
    assert (tmp_path / "solution.txt").read_bytes() == want.encode()
