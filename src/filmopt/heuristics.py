"""Quarter-wave stacking baseline and method comparison tables.

The baseline builds, for each target wavelength, a small film of layers
alternating high/low index (high first), every layer at its quarter-wave
optical thickness lam/(4 n(lam)), and stacks the films on the substrate in
ascending target order (configurable).  Thicknesses are real-valued: the
heuristic is a benchmark curve, not a feasible point of any discrete grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import MissingDispersion, ValidationError
from .materials import DispersionTable, csv_text, index_at, progression
from .solver import Design, evaluate_design_on_grid

VISIBLE_GRID = (380.0, 10.0, 770.0)
BROAD_GRID = (300.0, 20.0, 3000.0)


#: The most quarter-wave films a stack puts per target wavelength.
MAX_LAYERS_PER_WAVELENGTH = 7


@dataclass(frozen=True)
class StackSpec:
    """Targets and per-target film size for the quarter-wave baseline."""

    targets: tuple[float, ...]
    layers_per_wavelength: int
    high: str
    low: str

    def __post_init__(self) -> None:
        if not self.targets or any(t <= 0 for t in self.targets):
            raise ValidationError("targets must be positive wavelengths")
        if not 1 <= self.layers_per_wavelength <= MAX_LAYERS_PER_WAVELENGTH:
            raise ValidationError(f"layers_per_wavelength must be in 1..{MAX_LAYERS_PER_WAVELENGTH}")


def quarter_wave_design(
    spec: StackSpec,
    tables: Mapping[str, DispersionTable],
    ascending: bool = True,
) -> Design:
    """Concatenated quarter-wave films, one per target wavelength.

    Film order along the stack follows the target order (ascending from the
    substrate by default); inside each film the high-index material comes
    first.  Total length is len(targets) * layers_per_wavelength.
    """
    for mat in (spec.high, spec.low):
        if mat not in tables:
            raise MissingDispersion(f"no dispersion table for {mat!r}")
        for t in spec.targets:
            if not tables[mat].covers(t):
                raise MissingDispersion(f"{mat}: no data at {t} nm")
    layers: list[tuple[str, float]] = []
    order = sorted(spec.targets) if ascending else sorted(spec.targets, reverse=True)
    for target in order:
        for j in range(spec.layers_per_wavelength):
            mat = spec.high if j % 2 == 0 else spec.low
            n = index_at(tables[mat], target).re
            layers.append((mat, target / (4.0 * n)))
    return tuple(layers)


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    visible_average: float
    broad_average: float
    layer_count: int


def compare_methods(
    designs: Sequence[tuple[str, Design]],
    coating_tables: Mapping[str, DispersionTable],
    substrate_table: DispersionTable,
) -> list[ComparisonRow]:
    """Visible/broad averages for each named design, via the shared evaluator."""
    vis = progression(*VISIBLE_GRID)
    broad = progression(*BROAD_GRID)
    rows = []
    for name, design in designs:
        _, vavg = evaluate_design_on_grid(design, coating_tables, substrate_table, vis)
        _, bavg = evaluate_design_on_grid(design, coating_tables, substrate_table, broad)
        rows.append(ComparisonRow(name, vavg, bavg, len(design)))
    return rows


def comparison_csv(rows: Sequence[ComparisonRow]) -> str:
    return csv_text([
        ["design", "visible_average", "broad_average", "layers"],
        *([r.name, f"{r.visible_average:.6f}", f"{r.broad_average:.6f}", r.layer_count] for r in rows),
    ])
