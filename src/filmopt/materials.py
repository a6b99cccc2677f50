"""Dispersion tables, index interpolation, and the per-layer choice catalog.

Dispersion data comes in as CSV (`wavelength_nm,n,k`, strictly increasing
wavelengths).  A :class:`Catalog` freezes one optimization instance: the
spectrum, the substrate index at each wavelength, the admissible
(material, thickness) choices per layer, and the precomputed layer matrices
as one dense array per layer.  Those arrays are the only stored copy, and
every solver, bound and model reads them; `Catalog.fixed` and
`Catalog.matrix` are a scalar view of them, built on first use.
"""
from __future__ import annotations

import bisect
import csv
import io
import json
import math
import os
import re
import tempfile
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InadmissibleDesign,
    MissingDispersion,
    OutOfRange,
    ParseError,
    SpectrumCoverage,
    ValidationError,
)
from .optics import ComplexIndex, Spectrum, StructuredMatrix, make_transfer_matrix

CSV_HEADER = ["wavelength_nm", "n", "k"]

#: Directory with the bundled dispersion tables.
DATA_DIR = Path(__file__).parent / "data"
#: Longest arithmetic progression accepted from a config or the command line.
MAX_PROGRESSION = 1_000_000
#: Lines per block: LP text is written and read, and names are checked, this many at a time.
_BLOCK_LINES = 4096
#: The section headers of LP text, lowercased; the LP reader and the name rule both read them here.
LP_SECTIONS: tuple[str, ...] = ("maximize", "minimize", "subject to", "bounds", "binaries", "end")
#: In lowercased names joined by spaces: an empty name, a bad first character or a section's first word.
_BAD_START = re.compile(r" (?:[0-9.+\-\[\]*^<>= ]|(?:%s) )" % "|".join(s.split()[0] for s in LP_SECTIONS))


def read_text(path: str | Path) -> str:
    """The UTF-8 text of `path`; other bytes are a ParseError."""
    return "".join(read_chunks(path))


def read_chunks(path: str | Path, size: int | None = None) -> Iterator[str]:
    """The UTF-8 text of `path`, read `size` characters at a time (all at once if None).

    The file is read as ``open(path, encoding="utf-8")`` reads it: ``\\r\\n``
    and ``\\r`` read as ``\\n``, and a chunk may end anywhere in a line.  Bytes
    that are not UTF-8 are a ParseError that gives their offset in the file.
    """
    try:
        with open(path, encoding="utf-8", newline=None) as fh:
            while text := fh.read(size):
                yield text
    except UnicodeDecodeError:
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
        raise


def read_json(path: str | Path):
    """The JSON value in the UTF-8 text of `path`; text that is not JSON is a ParseError."""
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def csv_text(rows: Iterable[Sequence]) -> str:
    """`rows` as CSV text, each row ended by ``\\n``."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def wavelength_key(wl: float) -> str:
    """A wavelength as a JSON key or CSV field: ``f"{wl:g}"`` if that reads back as `wl`, else ``repr``.

    Distinct wavelengths get distinct keys, and the short form stays where it is exact.
    """
    text = f"{wl:g}"
    return text if float(text) == wl else repr(wl)


def invalid_name(names: Iterable[str]) -> str | None:
    """A name of `names` that LP text cannot carry and read back as itself, or None.

    A name is printable without spaces or ``:``, does not start like a number, an operator or a
    bracket (``0-9.+-[]*^<>=``) and is not the first word of an ``LP_SECTIONS`` header in any
    case.  The first name that breaks the first rule is returned if there is one, else the first
    that breaks another.  The names are checked ``_BLOCK_LINES`` at a time, each block joined and
    checked at once.
    ``Model.validate``, the LP reader and the config's coating names use this rule.
    """
    names, first_bad_start = iter(names), None
    while block := list(islice(names, _BLOCK_LINES)):
        text = " ".join(["", *block, ""]).lower()
        codes = np.frombuffer(text.encode(), np.uint8)  # printable ASCII runs from " " to "~"
        printable = codes.min() >= 32 and codes.max() < 127 or text.isprintable()
        if not printable or ":" in text or text.count(" ") != len(block) + 1:
            return next(n for n in block if not n.isprintable() or ":" in n or " " in n)
        bad = None if first_bad_start is not None else _BAD_START.search(text)
        if bad is not None:
            first_bad_start = block[text.count(" ", 0, bad.start())]
    return first_bad_start


def invalid_header(name: str, comments: Iterable[str]) -> str | None:
    """The model name or header comment that LP text cannot carry and read back as itself, or None.

    The reader strips the name and each comment, ends each at a line break and names an unnamed
    model after its file, so each must be printable (which excludes every ``str.splitlines``
    break) and equal its own ``strip()``, and the name must be nonempty; the name is checked first.
    ``Model.validate`` and the LP reader use this rule.
    """
    if not name:
        return name
    return next((text for text in (name, *comments) if not text.isprintable() or text != text.strip()), None)


def write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write `text` as UTF-8 to `path` via a temp file in the same directory.

    `text` is one string or an iterable of strings, written as they come,
    so a caller need not hold the whole text.  The file appears whole or
    not at all: a failed write leaves neither `path` nor the temp file
    behind.  Missing parent directories are made, and the file gets the
    mode `open()` would give it under the umask.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp creates the file 0600
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if isinstance(text, str):
                text = (text,)
            fh.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class DispersionTable:
    """Tabulated complex refractive index of one material."""

    material_id: str
    wavelengths_nm: tuple[float, ...]
    n: tuple[float, ...]
    k: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.wavelengths_nm) < 2:
            raise ValidationError(f"{self.material_id}: need at least 2 rows")
        if len(self.n) != len(self.wavelengths_nm) or len(self.k) != len(self.wavelengths_nm):
            raise ValidationError(f"{self.material_id}: ragged columns")
        if not all(map(math.isfinite, (*self.wavelengths_nm, *self.n, *self.k))):
            raise ValidationError(f"{self.material_id}: wavelengths, n and k must be finite")
        if any(b <= a for a, b in zip(self.wavelengths_nm, self.wavelengths_nm[1:])):
            raise ValidationError(f"{self.material_id}: wavelengths must be strictly increasing")
        if self.wavelengths_nm[0] <= 0:
            raise ValidationError(f"{self.material_id}: wavelengths must be positive")
        if any(v <= 0 for v in self.n):
            raise ValidationError(f"{self.material_id}: n must be positive")
        if any(v < 0 for v in self.k):
            raise ValidationError(f"{self.material_id}: k must be nonnegative")

    def covers(self, wavelength: float) -> bool:
        return self.wavelengths_nm[0] <= wavelength <= self.wavelengths_nm[-1]


def load_dispersion(path: str | Path) -> DispersionTable:
    """Read a dispersion CSV; the material id is the file stem."""
    path = Path(path)
    rows: list[tuple[float, float, float]] = []
    reader = csv.reader(read_text(path).splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(f"{path}: empty file") from None
    if [h.strip() for h in header] != CSV_HEADER:
        raise ParseError(f"{path}: expected header {','.join(CSV_HEADER)}, got {header}")
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
        try:
            rows.append((float(row[0]), float(row[1]), float(row[2])))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from None
    return DispersionTable(
        material_id=path.stem,
        wavelengths_nm=tuple(r[0] for r in rows),
        n=tuple(r[1] for r in rows),
        k=tuple(r[2] for r in rows),
    )


def index_at(table: DispersionTable, wavelength: float) -> ComplexIndex:
    """Linear interpolation of n and k; exact at grid points."""
    wls = table.wavelengths_nm
    if not table.covers(wavelength):
        raise OutOfRange(
            f"{table.material_id}: {wavelength} nm outside "
            f"[{wls[0]}, {wls[-1]}] nm"
        )
    i = bisect.bisect_left(wls, wavelength)
    if i < len(wls) and wls[i] == wavelength:
        return ComplexIndex(table.n[i], table.k[i])
    lo, hi = i - 1, i
    t = (wavelength - wls[lo]) / (wls[hi] - wls[lo])
    return ComplexIndex(
        table.n[lo] + t * (table.n[hi] - table.n[lo]),
        table.k[lo] + t * (table.k[hi] - table.k[lo]),
    )


@dataclass(frozen=True)
class ThicknessSet:
    """Admissible thickness grid (nm) for one coating material."""

    material_id: str
    thicknesses: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.thicknesses:
            raise ValidationError(f"{self.material_id}: empty thickness set")
        if any(t <= 0 for t in self.thicknesses):
            raise ValidationError(f"{self.material_id}: thicknesses must be positive")
        if any(b <= a for a, b in zip(self.thicknesses, self.thicknesses[1:])):
            raise ValidationError(f"{self.material_id}: thicknesses must be sorted, unique")


def progression(start: float, step: float, end: float) -> tuple[float, ...]:
    """start, start + step, ... up to end; the count is floored, so end is never passed.

    Takes finite numbers; at most ``MAX_PROGRESSION`` terms.
    """
    if step <= 0:
        raise ConfigError("progression step must be positive")
    span = (end - start) / step
    if not -1.0 < span < MAX_PROGRESSION:
        raise ConfigError(f"progression {start}:{step}:{end} is empty or over {MAX_PROGRESSION} terms")
    count = int(math.floor(span + 1e-9)) + 1
    if count < 1:
        raise ConfigError("empty progression")
    return tuple(start + i * step for i in range(count))


def expect(value, kind: type, what: str):
    """`value` if it has the JSON type `kind` (a bool is not an int), else ConfigError."""
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{what}: expected {kind.__name__}, got {value!r}")
    return value


def _coating_name(value) -> str:
    """`value` if it is a string that can sit inside an LP variable name, else ConfigError."""
    name = expect(value, str, "materials")
    if invalid_name([f"x_1_{name}_1"]) is not None:
        raise ConfigError(f"materials: {name!r} cannot sit in an LP name (whitespace, ':' or non-printable)")
    return name


def finite_number(value, what: str) -> float:
    """`value` if it is a finite JSON number (an int stays an int), else ConfigError."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"{what}: expected a finite number, got {value!r}")
    return value


def _number_list(spec, what: str) -> tuple[float, ...]:
    return tuple(float(finite_number(v, what)) for v in expect(spec, list, what))


def _grid(spec, what: str) -> tuple[float, ...]:
    """A list of numbers, or a {"start", "step", "end"} progression."""
    if isinstance(spec, dict):
        return progression(*(finite_number(spec[k], f"{what}.{k}") for k in ("start", "step", "end")))
    return _number_list(spec, what)


@dataclass(frozen=True)
class CatalogConfig:
    """Declarative description of one optimization instance."""

    substrate: str
    materials: tuple[str, ...]
    thicknesses: Mapping[str, tuple[float, ...]]
    wavelengths: tuple[float, ...]
    layers: int
    alternating: bool = False
    weights: tuple[float, ...] | None = None
    dispersion_dir: Path | None = None

    @classmethod
    def from_json(cls, path: str | Path) -> "CatalogConfig":
        """Parse a config file; malformed content is a ParseError or ConfigError."""
        path = Path(path)
        raw = read_json(path)
        if not isinstance(raw, dict):
            raise ParseError(f"{path}: config must be a JSON object")
        try:
            thicknesses = expect(raw["thicknesses"], dict, "thicknesses")
            weights = raw.get("weights")
            ddir = raw.get("dispersion_dir")
            return cls(
                substrate=expect(raw["substrate"], str, "substrate"),
                materials=tuple(_coating_name(m) for m in expect(raw["materials"], list, "materials")),
                thicknesses={m: _grid(spec, f"thicknesses.{m}") for m, spec in thicknesses.items()},
                wavelengths=_grid(raw["wavelengths"], "wavelengths"),
                layers=expect(raw["layers"], int, "layers"),
                alternating=expect(raw.get("alternating", False), bool, "alternating"),
                weights=_number_list(weights, "weights") if weights is not None else None,
                dispersion_dir=Path(expect(ddir, str, "dispersion_dir")) if ddir is not None else None,
            )
        except KeyError as exc:
            raise ConfigError(f"{path}: missing config key {exc}") from None
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None


@dataclass(frozen=True, eq=False)
class Catalog:
    """Frozen optimization instance with precomputed layer matrices.

    `layer_choices[i]` lists the admissible (material, thickness) pairs of
    layer i+1 (layer 1 sits next to the substrate), sorted by material then
    thickness.  `layer_matrices[i]` is the read-only (choices, wavelengths,
    4) array of its layer matrices in `layer_choices[i]` order; layers with
    the same choices share one array.  These arrays are the only stored
    copy: every production path reads them, by (layer, choice) through
    :meth:`choice_indices`.  `fixed` and :meth:`matrix` are a scalar view of
    them, built on first use, for the benchmark's checks and tracer.
    Catalogs compare by identity.
    """

    layer_choices: tuple[tuple[tuple[str, float], ...], ...]
    spectrum: Spectrum
    substrate_id: str
    substrate_indices: tuple[ComplexIndex, ...]
    layer_matrices: tuple[np.ndarray, ...] = field(repr=False)

    @property
    def n_layers(self) -> int:
        return len(self.layer_choices)

    @cached_property
    def fixed(self) -> dict[tuple[str, float, float], StructuredMatrix]:
        """(material, thickness, wavelength) -> layer matrix; where layer arrays differ, the last wins."""
        shared = {id(arr): (choices, arr) for choices, arr in zip(self.layer_choices, self.layer_matrices)}
        return {
            (m, t, wl): StructuredMatrix(*entries)
            for choices, arr in shared.values()
            for (m, t), rows in zip(choices, arr.tolist())
            for wl, entries in zip(self.spectrum.wavelengths, rows)
        }

    def matrix(self, material: str, thickness: float, wavelength: float) -> StructuredMatrix:
        return self.fixed[(material, thickness, wavelength)]

    def choice_indices(self, design: Sequence[tuple[str, float]]) -> list[int]:
        """Each layer's index of its pair of `design`; InadmissibleDesign if the length or a pair is off."""
        if len(design) != self.n_layers:
            raise InadmissibleDesign(f"design has {len(design)} layers, catalog expects {self.n_layers}")
        picks = []
        for layer, (pair, choices) in enumerate(zip(design, self.layer_choices), start=1):
            if pair not in choices:
                raise InadmissibleDesign(f"layer {layer}: {pair!r} not admissible")
            picks.append(choices.index(pair))
        return picks

    def choices_at(self, layer: int) -> tuple[tuple[str, float], ...]:
        """Admissible pairs of 1-based `layer`."""
        return self.layer_choices[layer - 1]

    def design_count(self) -> int:
        return math.prod(map(len, self.layer_choices))


def load_tables(config: CatalogConfig) -> dict[str, DispersionTable]:
    """Load dispersion tables for the config's substrate and coatings."""
    directory = config.dispersion_dir or DATA_DIR
    tables: dict[str, DispersionTable] = {}
    for mat in (config.substrate, *config.materials):
        path = Path(directory) / f"{mat}.csv"
        if not path.exists():
            raise MissingDispersion(f"no dispersion file for {mat!r} in {directory}")
        tables[mat] = load_dispersion(path)
    return tables


def _rank_by_mean_index(
    materials: Sequence[str],
    tables: Mapping[str, DispersionTable],
    wavelengths: Sequence[float],
) -> tuple[str, str]:
    """(high, low) coating pair for alternating mode, by mean n over the spectrum."""
    if len(materials) != 2:
        raise ConfigError("alternating mode needs exactly two coating materials")
    means = {
        m: sum(index_at(tables[m], w).re for w in wavelengths) / len(wavelengths)
        for m in materials
    }
    ordered = sorted(materials, key=lambda m: means[m], reverse=True)
    if means[ordered[0]] == means[ordered[1]]:
        raise ConfigError("cannot rank materials: equal mean refractive index")
    return ordered[0], ordered[1]


def build_catalog(
    config: CatalogConfig, tables: Mapping[str, DispersionTable]
) -> Catalog:
    """Validate coverage and precompute every admissible layer matrix.

    In alternating mode odd layers (counting from the substrate) carry the
    high-index material, even layers the low-index one.  Coating extinction
    is forced to zero; a warning is emitted if the table says otherwise.
    """
    if config.layers < 0:
        raise ConfigError("layer count must be nonnegative")
    if not config.materials:
        raise ConfigError("at least one coating material required")
    if len(set(config.materials)) != len(config.materials):
        raise ConfigError(f"coating materials repeat: {list(config.materials)}")
    for mat in (config.substrate, *config.materials):
        if mat not in tables:
            raise MissingDispersion(f"no dispersion table for {mat!r}")
        table = tables[mat]
        missing = [w for w in config.wavelengths if not table.covers(w)]
        if missing:
            raise SpectrumCoverage(
                f"{mat}: table [{table.wavelengths_nm[0]}, {table.wavelengths_nm[-1]}] nm "
                f"does not cover {missing[:3]}..."
            )
    for mat in config.materials:
        if mat not in config.thicknesses:
            raise ConfigError(f"no thickness set for coating {mat!r}")

    try:
        if config.weights is not None:
            total = sum(config.weights)
            if total <= 0:
                raise ConfigError("weights must have a positive sum")
            spectrum = Spectrum(tuple(config.wavelengths), tuple(w / total for w in config.weights))
        else:
            spectrum = Spectrum.uniform(config.wavelengths)
    except ValueError as exc:  # Spectrum rejects empty or unsorted wavelengths and bad weights
        raise ConfigError(f"bad spectrum: {exc}") from None

    by_mat = {
        mat: ThicknessSet(mat, tuple(sorted(config.thicknesses[mat])))
        for mat in config.materials
    }
    per_layer = sum(len(by_mat[m].thicknesses) for m in config.materials)
    if config.layers * per_layer > MAX_PROGRESSION:
        raise ConfigError(
            f"{config.layers} layers x {per_layer} thicknesses is over {MAX_PROGRESSION} layer choices"
        )

    if config.alternating:
        high, low = _rank_by_mean_index(config.materials, tables, spectrum.wavelengths)
        allowed = [(high,) if n % 2 == 1 else (low,) for n in range(1, config.layers + 1)]
    else:
        allowed = [tuple(sorted(config.materials))] * config.layers

    layer_choices = tuple(
        tuple(sorted((m, t) for m in mats for t in by_mat[m].thicknesses))
        for mats in allowed
    )

    coating_matrices = {}
    for mat in sorted({m for mats in allowed for m in mats}):
        indices = [index_at(tables[mat], w) for w in spectrum.wavelengths]
        if any(idx.im != 0 for idx in indices):
            warnings.warn(f"{mat}: nonzero extinction in dispersion data ignored "
                          "(coatings are treated as ideal dielectrics)", stacklevel=2)
        coating_matrices[mat] = np.array([[make_transfer_matrix(ComplexIndex(idx.re), t, w).entries()
                                           for idx, w in zip(indices, spectrum.wavelengths)]
                                          for t in by_mat[mat].thicknesses])

    # one read-only array per choice set, its coatings stacked in sorted order as the choices sort
    stacked: dict[tuple[str, ...], np.ndarray] = {}
    for mats in allowed:
        if mats not in stacked:
            stacked[mats] = np.concatenate([coating_matrices[m] for m in mats])
            stacked[mats].setflags(write=False)

    return Catalog(
        layer_choices=layer_choices,
        spectrum=spectrum,
        substrate_id=config.substrate,
        substrate_indices=tuple(index_at(tables[config.substrate], w) for w in spectrum.wavelengths),
        layer_matrices=tuple(stacked[mats] for mats in allowed),
    )
