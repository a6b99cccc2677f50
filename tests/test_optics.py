import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filmopt import optics
from filmopt.errors import (
    DegenerateDenominator,
    MismatchedSpectrumLength,
    NonDielectricIndex,
    NonPositiveWavelength,
)
from filmopt.optics import (
    IDENTITY,
    ComplexIndex,
    Spectrum,
    StructuredMatrix,
    average_reflectance,
    chain_product,
    denominator_D,
    make_transfer_matrix,
    multiply,
    reflectance,
)

from conftest import complex_from_structured

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)
index_n = st.floats(min_value=0.2, max_value=6.0)
index_k = st.floats(min_value=0.0, max_value=8.0)
thickness = st.floats(min_value=0.0, max_value=600.0)
wavelength = st.floats(min_value=250.0, max_value=3200.0)

structured = st.builds(StructuredMatrix, finite, finite, finite, finite)
layer = st.builds(
    lambda n, t, wl: make_transfer_matrix(ComplexIndex(n), t, wl),
    index_n, thickness, wavelength,
)


def entries_close(a: StructuredMatrix, b: StructuredMatrix, tol: float) -> bool:
    return all(abs(x - y) <= tol for x, y in zip(a.entries(), b.entries()))


class TestMakeTransferMatrix:
    def test_zero_thickness_is_identity(self):
        m = make_transfer_matrix(ComplexIndex(2.4), 0.0, 550.0)
        assert m == IDENTITY

    def test_quarter_wave(self):
        n = 2.4
        m = make_transfer_matrix(ComplexIndex(n), 550.0 / (4 * n), 550.0)
        assert abs(m.a11) < 1e-12 and abs(m.a22) < 1e-12
        assert m.a12 == pytest.approx(1 / n, abs=1e-12)
        assert m.a21 == pytest.approx(n, abs=1e-12)

    def test_against_high_precision_phase(self):
        # (n, t, lam) = (1.38, 100, 550); compare entries against mpmath
        with mpmath.workdps(50):
            s = 2 * mpmath.pi * mpmath.mpf("1.38") * 100 / 550
            expected = (
                float(mpmath.cos(s)),
                float(mpmath.sin(s) / mpmath.mpf("1.38")),
                float(mpmath.mpf("1.38") * mpmath.sin(s)),
                float(mpmath.cos(s)),
            )
        m = make_transfer_matrix(ComplexIndex(1.38), 100.0, 550.0)
        assert m.entries() == pytest.approx(expected, abs=1e-12)

    def test_rejects_absorbing_index(self):
        with pytest.raises(NonDielectricIndex):
            make_transfer_matrix(ComplexIndex(2.0, 0.5), 100.0, 550.0)

    def test_rejects_nonpositive_wavelength(self):
        with pytest.raises(NonPositiveWavelength):
            make_transfer_matrix(ComplexIndex(2.0), 100.0, 0.0)

    def test_rejects_negative_thickness(self):
        with pytest.raises(ValueError):
            make_transfer_matrix(ComplexIndex(2.0), -1.0, 550.0)

    @given(index_n, thickness, wavelength)
    @settings(max_examples=100)
    def test_unit_determinant(self, n, t, wl):
        m = make_transfer_matrix(ComplexIndex(n), t, wl)
        assert m.det() == pytest.approx(1.0, abs=1e-12)


class TestMultiply:
    def test_identity_neutral(self):
        m = StructuredMatrix(0.3, -1.2, 4.0, 0.9)
        assert multiply(IDENTITY, m) == m
        assert multiply(m, IDENTITY) == m

    def test_quarter_wave_pair(self):
        n1, n2 = 2.4, 1.38
        q1 = make_transfer_matrix(ComplexIndex(n1), 550 / (4 * n1), 550.0)
        q2 = make_transfer_matrix(ComplexIndex(n2), 550 / (4 * n2), 550.0)
        p = multiply(q1, q2)
        expected = StructuredMatrix(-n2 / n1, 0.0, 0.0, -n1 / n2)
        assert entries_close(p, expected, 1e-12)

    @given(structured, structured)
    @settings(max_examples=200)
    def test_matches_complex_oracle(self, a, b):
        got = multiply(a, b)
        want = complex_from_structured(a) @ complex_from_structured(b)
        assert got.a11 == pytest.approx(want[0, 0].real, abs=1e-9, rel=1e-12)
        assert got.a12 == pytest.approx(want[0, 1].imag, abs=1e-9, rel=1e-12)
        assert got.a21 == pytest.approx(want[1, 0].imag, abs=1e-9, rel=1e-12)
        assert got.a22 == pytest.approx(want[1, 1].real, abs=1e-9, rel=1e-12)
        assert want[0, 0].imag == 0 and want[1, 1].imag == 0
        assert want[0, 1].real == 0 and want[1, 0].real == 0

    @given(st.lists(layer, max_size=20))
    @settings(max_examples=100)
    def test_products_keep_unit_determinant(self, layers):
        assert chain_product(layers).det() == pytest.approx(1.0, abs=1e-9)


class TestChainProduct:
    def test_empty_is_identity(self):
        assert chain_product([]) == IDENTITY

    def test_singleton(self):
        m = StructuredMatrix(1.0, 2.0, 3.0, 4.0)
        assert chain_product([m]) == m

    @given(structured, structured, structured)
    @settings(max_examples=100)
    def test_associativity(self, a, b, c):
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        scale = max(1.0, *(abs(e) for e in left.entries()))
        assert entries_close(left, right, 1e-9 * scale)

    @given(st.lists(layer, min_size=1, max_size=8), st.integers(min_value=0, max_value=8),
           index_n, wavelength)
    @settings(max_examples=100)
    def test_zero_thickness_layer_is_neutral(self, layers, pos, n, wl):
        pos = min(pos, len(layers))
        padded = layers[:pos] + [make_transfer_matrix(ComplexIndex(n), 0.0, wl)] + layers[pos:]
        assert chain_product(padded) == chain_product(layers)


class TestReflectance:
    def test_index_matched_is_zero(self):
        assert reflectance(IDENTITY, ComplexIndex(1.0, 0.0)) == 0.0

    @given(index_n, index_k)
    @settings(max_examples=100)
    def test_uncoated_fresnel(self, n, k):
        got = reflectance(IDENTITY, ComplexIndex(n, k))
        want = ((n - 1) ** 2 + k**2) / ((n + 1) ** 2 + k**2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_degenerate_denominator(self):
        # substrate 1+0i and w = [[1, i], [-i, -1]] zero both denominator squares
        with pytest.raises(DegenerateDenominator):
            reflectance(StructuredMatrix(1.0, 1.0, -1.0, -1.0), ComplexIndex(1.0))

    @given(st.lists(layer, max_size=12), index_n, index_k)
    @settings(max_examples=200)
    def test_range(self, layers, n, k):
        r = reflectance(chain_product(layers), ComplexIndex(n, k))
        assert 0.0 <= r <= 1.0 + 1e-12


det_one = st.tuples(
    st.floats(min_value=0.1, max_value=10).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5),
).map(lambda v: StructuredMatrix(v[0], v[1], v[2], (1 - v[1] * v[2]) / v[0]))


class TestDenominator:
    @given(index_n, index_k)
    @settings(max_examples=50)
    def test_identity_matrix_value(self, n, k):
        assert denominator_D(IDENTITY, ComplexIndex(n, k)) == pytest.approx(
            (n + 1) ** 2 + k**2, rel=1e-12
        )

    def test_index_matched_consistency(self):
        d = denominator_D(IDENTITY, ComplexIndex(1.0))
        assert d == pytest.approx(4.0, abs=1e-14)
        assert 1 - 4 * 1.0 / d == pytest.approx(0.0, abs=1e-14)

    @given(det_one, index_n, index_k)
    @settings(max_examples=300)
    def test_reflectance_identity_on_det_one(self, w, n, k):
        sub = ComplexIndex(n, k)
        d = denominator_D(w, sub)
        assert abs(reflectance(w, sub) - (1 - 4 * sub.re / d)) <= 1e-10

    @given(det_one, index_n, index_k)
    @settings(max_examples=100)
    def test_lower_bound(self, w, n, k):
        assert denominator_D(w, ComplexIndex(n, k)) >= 2 * n


class TestSpectrum:
    def test_uniform(self):
        s = Spectrum.uniform([400, 500, 600])
        assert s.weights == (pytest.approx(1 / 3),) * 3

    @pytest.mark.parametrize(
        "wls,weights",
        [((500, 400), (0.5, 0.5)), ((400, 400), (0.5, 0.5)), ((400, 500), (0.6, 0.6)),
         ((400, 500), (-0.5, 1.5)), ((), ())],
    )
    def test_invalid(self, wls, weights):
        with pytest.raises(ValueError):
            Spectrum(tuple(map(float, wls)), tuple(map(float, weights)))


class TestAverageReflectance:
    def test_single_wavelength(self):
        sub = ComplexIndex(3.0, 3.5)
        s = Spectrum.uniform([550])
        assert average_reflectance([IDENTITY], sub, s) == reflectance(IDENTITY, sub)

    def test_two_wavelength_linearity(self):
        w1 = make_transfer_matrix(ComplexIndex(2.4), 60, 400.0)
        w2 = make_transfer_matrix(ComplexIndex(2.4), 60, 700.0)
        sub = ComplexIndex(3.0, 3.5)
        s = Spectrum((400.0, 700.0), (0.3, 0.7))
        want = 0.3 * reflectance(w1, sub) + 0.7 * reflectance(w2, sub)
        assert average_reflectance([w1, w2], sub, s) == pytest.approx(want, abs=1e-15)

    def test_mismatched_length(self):
        with pytest.raises(MismatchedSpectrumLength):
            average_reflectance([IDENTITY], ComplexIndex(2.0), Spectrum.uniform([400, 500]))
        with pytest.raises(MismatchedSpectrumLength):
            average_reflectance(
                [IDENTITY, IDENTITY], [ComplexIndex(2.0)], Spectrum.uniform([400, 500])
            )


class TestComplexIndex:
    def test_invariants(self):
        with pytest.raises(ValueError):
            ComplexIndex(0.0)
        with pytest.raises(ValueError):
            ComplexIndex(1.5, -0.1)
