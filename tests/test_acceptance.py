"""End-to-end acceptance suite.

One test per shipping requirement; each prints a `[acceptance NN] ... PASS`
line (visible with `pytest -s`) so the suite doubles as a checklist.  The
numeric targets quoted from external reports carry data-provenance
tolerances: the bundled dispersion tables are literature interpolations,
not the exact measurement sets behind those reports.
"""
import itertools
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from filmopt import bounds, lpio, optics, relax, solver
from filmopt.arrayops import plane_values
from filmopt.errors import InstanceTooLarge
from filmopt.materials import CatalogConfig, DispersionTable, build_catalog, index_at, progression
from filmopt.model import (
    build_miqcp,
    build_misocp,
    design_point,
)
from filmopt.optics import ComplexIndex, StructuredMatrix
from filmopt.relax import Box4, collect_candidates, extreme_points_2d

from conftest import (
    SUBSTRATES,
    THETA1,
    complex_from_structured,
    denominator_on_x,
    enumerate_designs,
    models_close,
    random_catalog,
    single_wavelength_config,
)

THETA2 = {"MgF2": tuple(float(t) for t in range(50, 551, 20)),
          "TiO2": tuple(float(t) for t in range(20, 301, 20))}

# Externally reported single-wavelength optima for 6 alternating layers; the
# assertions allow a 0.01 data-provenance slack below each.
REPORTED_SINGLE_WL = {
    ("Molybdenum", 370.0): 0.995, ("Molybdenum", 410.0): 0.996, ("Molybdenum", 770.0): 0.992,
    ("Niobium", 370.0): 0.996, ("Niobium", 410.0): 0.996, ("Niobium", 770.0): 0.994,
    ("Tantalum", 370.0): 0.995, ("Tantalum", 410.0): 0.996, ("Tantalum", 770.0): 0.995,
    ("Tungsten", 370.0): 0.996, ("Tungsten", 410.0): 0.996, ("Tungsten", 770.0): 0.990,
}


@contextmanager
def acceptance(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] {name}: FAIL")
        raise
    print(f"[acceptance {num:02d}] {name}: PASS")


_brute_cache: dict[tuple[str, float], solver.SolveReport] = {}


def benchmark_instance_report(data_tables, substrate: str, wavelength: float) -> solver.SolveReport:
    key = (substrate, wavelength)
    if key not in _brute_cache:
        cat = build_catalog(single_wavelength_config(substrate, wavelength), data_tables)
        _brute_cache[key] = solver.brute_force(cat)
    return _brute_cache[key]


def test_01_carrier_product_matches_complex_oracle():
    with acceptance(1, "carrier product vs complex oracle, 10k pairs, <1s"):
        rng = np.random.default_rng(1)
        pairs = rng.uniform(-2.0, 2.0, size=(10_000, 2, 4))
        t0 = time.perf_counter()
        products = [
            optics.multiply(StructuredMatrix(*a), StructuredMatrix(*b))
            for a, b in pairs
        ]
        elapsed = time.perf_counter() - t0
        mats = pairs.astype(complex)
        ca = np.zeros((len(pairs), 2, 2), dtype=complex)
        cb = np.zeros_like(ca)
        for dst, src in ((ca, 0), (cb, 1)):
            dst[:, 0, 0] = mats[:, src, 0]
            dst[:, 0, 1] = 1j * mats[:, src, 1]
            dst[:, 1, 0] = 1j * mats[:, src, 2]
            dst[:, 1, 1] = mats[:, src, 3]
        oracle = ca @ cb
        got = np.array([p.entries() for p in products])
        want = np.stack(
            [oracle[:, 0, 0].real, oracle[:, 0, 1].imag,
             oracle[:, 1, 0].imag, oracle[:, 1, 1].real], axis=1)
        assert np.abs(got - want).max() <= 1e-12
        assert elapsed < 1.0


def test_02_determinant_preserved_along_products():
    with acceptance(2, "unit determinant of up-to-20-layer products, 1000 trials"):
        rng = random.Random(2)
        for _ in range(1000):
            k = rng.randint(1, 20)
            layers = [
                optics.make_transfer_matrix(
                    ComplexIndex(rng.uniform(1.3, 3.6)),
                    rng.uniform(20.0, 550.0),
                    rng.uniform(300.0, 3000.0),
                )
                for _ in range(k)
            ]
            assert abs(optics.chain_product(layers).det() - 1.0) <= 1e-9


def test_03_reflectance_equals_denominator_form(data_tables):
    with acceptance(3, "reflectance identity 1 - 4Re/D on det-1 matrices"):
        rng = random.Random(3)
        subs = [index_at(data_tables[s], 550.0) for s in SUBSTRATES]
        for _ in range(1000):
            x1 = rng.choice([-1, 1]) * rng.uniform(0.1, 10.0)
            x3 = rng.uniform(-5.0, 5.0)
            x4 = rng.uniform(-5.0, 5.0)
            w = StructuredMatrix(x1, x3, x4, (1.0 - x3 * x4) / x1)
            for sub in subs:
                r = optics.reflectance(w, sub)
                d = optics.denominator_D(w, sub)
                assert abs(r - (1.0 - 4.0 * sub.re / d)) <= 1e-10


def test_04_fresnel_baseline_on_every_substrate_row(data_tables):
    with acceptance(4, "uncoated reflectance is the Fresnel ratio at every data row"):
        for sub in SUBSTRATES:
            t = data_tables[sub]
            for wl, n, k in zip(t.wavelengths_nm, t.n, t.k):
                got = optics.reflectance(optics.IDENTITY, ComplexIndex(n, k))
                want = ((n - 1) ** 2 + k**2) / ((n + 1) ** 2 + k**2)
                assert abs(got - want) <= 1e-12


def test_05_uncoated_molybdenum_window_averages(data_tables):
    with acceptance(5, "uncoated Mo averages: visible ~0.570, broad ~0.826, <1s"):
        t0 = time.perf_counter()
        mo = data_tables["Molybdenum"]
        from filmopt.heuristics import BROAD_GRID, VISIBLE_GRID
        _, vis = solver.evaluate_design_on_grid((), {}, mo, progression(*VISIBLE_GRID))
        _, broad = solver.evaluate_design_on_grid((), {}, mo, progression(*BROAD_GRID))
        elapsed = time.perf_counter() - t0
        assert vis == pytest.approx(0.570, abs=0.02)
        assert broad == pytest.approx(0.826, abs=0.02)
        assert elapsed < 1.0


def test_06_bound_soundness_by_enumeration():
    with acceptance(6, "entry bounds contain every enumerated prefix product, 20 catalogs, <10s"):
        t0 = time.perf_counter()
        for seed in range(20):
            cat, _ = random_catalog(random.Random(600 + seed),
                                    max_layers=4, max_choices=6, max_wavelengths=3)
            eb = bounds.tighten_bounds(cat)
            for li, wl in enumerate(cat.spectrum.wavelengths):
                level = [optics.IDENTITY]
                for layer in range(1, cat.n_layers + 1):
                    level = [
                        optics.multiply(u, cat.matrix(m, t, wl))
                        for u in level
                        for m, t in cat.choices_at(layer)
                    ]
                    arr = np.array([u.entries() for u in level])
                    assert np.all(arr >= eb.lower[li, layer] - 1e-9)
                    assert np.all(arr <= eb.upper[li, layer] + 1e-9)
        assert time.perf_counter() - t0 < 10.0


def test_07_overapproximator_validity():
    with acceptance(7, "hyperplanes dominate D on candidates and every reachable final matrix, <60s"):
        t0 = time.perf_counter()
        for seed in range(10):
            cat, _ = random_catalog(random.Random(700 + seed),
                                    max_layers=3, max_choices=4, max_wavelengths=2)
            eb = bounds.tighten_bounds(cat)
            planes = relax.hyperplanes_for_catalog(cat, eb)
            for li, wl in enumerate(cat.spectrum.wavelengths):
                g = denominator_on_x(cat.substrate_indices[li])
                box = Box4.from_entry_bounds(eb, li)
                for p in collect_candidates(box):
                    assert (plane_values(planes[li], p) >= g(p) - 1e-9).all()
                for picks in enumerate_designs(cat):
                    w = optics.chain_product([cat.matrix(m, t, wl) for m, t in picks])
                    x = (w.a11, w.a22, w.a12, w.a21)
                    assert (plane_values(planes[li], x) >= g(x) - 1e-6).all()
        assert time.perf_counter() - t0 < 60.0


def test_08_worked_two_dimensional_geometry():
    with acceptance(8, "2-d extreme-point geometry matches the worked examples"):
        got = sorted(extreme_points_2d((-3, 3), (-2, 2), 4.0))
        want = sorted([(2.0, 2.0), (3.0, 4.0 / 3.0), (-2.0, -2.0), (-3.0, -4.0 / 3.0)])
        assert got == want

        pts = extreme_points_2d((-1, 3), (-2, 4), 4.0)
        crossings = [p for p in pts if abs(p[0] * p[1] - 4.0) <= 1e-9]
        tangent = [p for p in pts if abs(p[0] * p[1] - 4.0) > 1e-9]
        assert sorted(crossings) == [(1.0, 4.0), (3.0, 4.0 / 3.0)]
        assert len(tangent) == 2
        t1, t2 = math.sqrt(3.0), 4.0 / math.sqrt(3.0)
        for x, y in tangent:
            # both endpoints lie on the tangent line at (sqrt(3), 4/sqrt(3))
            assert abs(y - (2.0 * t2 - (t2 / t1) * x)) <= 1e-9
        assert sorted(tangent)[0] == pytest.approx((1.0, 3.285), abs=1e-3)
        assert sorted(tangent)[1] == pytest.approx((2.465, 4.0 / 3.0), abs=1e-3)


def test_09_branch_and_bound_equals_enumeration(data_tables):
    with acceptance(9, "branch-and-bound matches exhaustive optimum, random + 6-layer runs"):
        for seed in range(20):
            cat, _ = random_catalog(random.Random(900 + seed), max_layers=4)
            rb = solver.brute_force(cat)
            rn = solver.branch_and_bound(cat)
            assert abs(rb.objective - rn.objective) <= 1e-10
        for substrate in SUBSTRATES:
            cat = build_catalog(single_wavelength_config(substrate, 410.0), data_tables)
            rb = benchmark_instance_report(data_tables, substrate, 410.0)
            rn = solver.branch_and_bound(cat)
            assert abs(rb.objective - rn.objective) <= 1e-10
            assert rn.design == rb.design
            assert rn.nodes_explored < cat.design_count()


def test_10_single_wavelength_reported_optima(data_tables):
    with acceptance(10, "6-layer single-wavelength optima reach reported values - 0.01"):
        for (substrate, wl), reported in REPORTED_SINGLE_WL.items():
            rep = benchmark_instance_report(data_tables, substrate, wl)
            assert rep.objective >= reported - 0.01, (
                f"{substrate}@{wl}: {rep.objective:.4f} < {reported - 0.01:.4f}"
            )
            assert rep.proven_optimal


def test_11_model_encoding_exactness():
    with acceptance(11, "every design satisfies the exact model; optimum feasible in relaxation"):
        for seed in range(5):
            cat, _ = random_catalog(random.Random(1100 + seed),
                                    max_layers=3, max_choices=4, max_wavelengths=2)
            eb = bounds.tighten_bounds(cat)
            exact = build_miqcp(cat, eb)
            for design in enumerate_designs(cat):
                point = design_point(cat, design)
                assert exact.check_point(point) <= 1e-8
                _, avg = solver.evaluate_design(design, cat)
                assert abs(exact.objective_value(point) - avg) <= 1e-8
            planes = relax.hyperplanes_for_catalog(cat, eb)
            relaxed = build_misocp(cat, eb, planes)
            best = solver.brute_force(cat).design
            point = design_point(cat, best, overapproximators=planes)
            assert relaxed.check_point(point) <= 1e-8


def test_12_lp_round_trip(tmp_path, data_tables):
    with acceptance(12, "LP export parses back equal and re-emits byte-identically"):
        instances = []
        cat, _ = random_catalog(random.Random(1234), max_layers=3, max_choices=4)
        instances.append(cat)
        instances.append(build_catalog(single_wavelength_config("Molybdenum", 410.0), data_tables))
        for i, cat in enumerate(instances):
            eb = bounds.tighten_bounds(cat)
            planes = relax.hyperplanes_for_catalog(cat, eb)
            for model in (build_miqcp(cat, eb), build_misocp(cat, eb, planes)):
                p1 = tmp_path / f"{model.name}_{i}.lp"
                p2 = tmp_path / f"{model.name}_{i}_again.lp"
                lpio.export_lp(model, p1)
                parsed = lpio.import_lp(p1)
                assert models_close(model, parsed, rtol=1e-15)
                assert len(parsed.variables) == len(model.variables)
                lpio.export_lp(parsed, p2)
                assert p1.read_bytes() == p2.read_bytes()


def test_13_quarter_wave_stack_benchmark(data_tables):
    with acceptance(13, "9x2 quarter-wave stack on W lands near the reported broad average"):
        from filmopt.heuristics import BROAD_GRID, StackSpec, quarter_wave_design
        spec = StackSpec(
            (450.0, 500.0, 750.0, 900.0, 1000.0, 1200.0, 1500.0, 2000.0, 2200.0),
            2, "TiO2", "MgF2")
        broad = progression(*BROAD_GRID)
        _, default_avg = solver.evaluate_design_on_grid(
            quarter_wave_design(spec, data_tables, ascending=True),
            data_tables, data_tables["Tungsten"], broad)
        reported = 0.924
        if abs(default_avg - reported) <= 0.03:
            assert True
        else:
            # stacking order is a known ambiguity; accept either implemented order
            _, flipped_avg = solver.evaluate_design_on_grid(
                quarter_wave_design(spec, data_tables, ascending=False),
                data_tables, data_tables["Tungsten"], broad)
            assert min(abs(default_avg - reported), abs(flipped_avg - reported)) <= 0.03


def test_14_large_instances_are_export_only(tmp_path, data_tables):
    with acceptance(14, "20-layer instances refuse internal solve but export exactly"):
        cfg = CatalogConfig(
            substrate="Molybdenum", materials=("TiO2", "MgF2"),
            thicknesses=THETA2, wavelengths=(500.0, 1000.0, 2000.0),
            layers=20, alternating=True)
        cat = build_catalog(cfg, data_tables)
        assert cat.design_count() > 10**8
        with pytest.raises(InstanceTooLarge):
            solver.brute_force(cat)
        eb = bounds.tighten_bounds(cat)
        model = build_miqcp(cat, eb)
        path = tmp_path / "large.lp"
        lpio.export_lp(model, path)
        parsed = lpio.import_lp(path)
        assert models_close(model, parsed, rtol=1e-15)
