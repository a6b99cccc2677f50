"""Transfer-matrix arithmetic for lossless layers in a real 2x2 carrier.

The normal-incidence transfer matrix of a non-absorbing layer of index n and
thickness t at wavelength lam is

    [[cos s,        i sin s / n],
     [i n sin s,    cos s      ]],     s = 2 pi n t / lam,

real on the diagonal and purely imaginary off it.  Dropping the explicit i
gives a real 2x2 matrix that carries the full complex information; products
of such matrices follow a twisted rule (implemented in :func:`multiply`) and
stay in the same family.  All downstream machinery (bound propagation,
relaxations, model export) operates on these four real entries, so complex
numbers never appear outside the test oracles.

Entry order everywhere in the package: (a11, a12, a21, a22).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DegenerateDenominator,
    MismatchedSpectrumLength,
    NonDielectricIndex,
    NonPositiveWavelength,
)

#: Below this, the reflectance denominator is treated as degenerate.
DENOMINATOR_EPS = 1e-12


@dataclass(frozen=True)
class ComplexIndex:
    """Complex refractive index n + i*k (k = 0 for ideal dielectrics)."""

    re: float
    im: float = 0.0

    def __post_init__(self) -> None:
        if not self.re > 0:
            raise ValueError(f"refractive part must be positive, got {self.re!r}")
        if self.im < 0:
            raise ValueError(f"extinction coefficient must be nonnegative, got {self.im!r}")


@dataclass(frozen=True)
class StructuredMatrix:
    """Real carrier (a11, a12, a21, a22) of the complex matrix [[a11, i*a12], [i*a21, a22]].

    The determinant of the represented complex matrix is a11*a22 + a12*a21
    (note the plus: i*i = -1 flips the usual minus sign); it equals 1 for any
    product of layer matrices.
    """

    a11: float
    a12: float
    a21: float
    a22: float

    def det(self) -> float:
        return self.a11 * self.a22 + self.a12 * self.a21

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a11, self.a12, self.a21, self.a22)


IDENTITY = StructuredMatrix(1.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class Spectrum:
    """Wavelength grid with normalized intensity weights."""

    wavelengths: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.wavelengths) != len(self.weights):
            raise ValueError("wavelengths and weights differ in length")
        if not self.wavelengths:
            raise ValueError("spectrum must contain at least one wavelength")
        if any(w2 <= w1 for w1, w2 in zip(self.wavelengths, self.wavelengths[1:])):
            raise ValueError("wavelengths must be strictly increasing")
        if any(w <= 0 for w in self.wavelengths):
            raise ValueError("wavelengths must be positive")
        if any(p < 0 for p in self.weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    def __len__(self) -> int:
        return len(self.wavelengths)

    @classmethod
    def uniform(cls, wavelengths: Iterable[float]) -> "Spectrum":
        wls = tuple(float(w) for w in wavelengths)
        if not wls:
            raise ValueError("spectrum must contain at least one wavelength")
        return cls(wls, tuple(1.0 / len(wls) for _ in wls))


def make_transfer_matrix(index: ComplexIndex, thickness: float, wavelength: float) -> StructuredMatrix:
    """Layer matrix for a dielectric of the given index and thickness (nm) at `wavelength` (nm).

    The index must be purely real (im == 0): an absorbing layer would put
    complex values on the diagonal and break the real-carrier structure.
    """
    if index.im != 0:
        raise NonDielectricIndex(
            f"coating index must have zero extinction, got k={index.im!r}"
        )
    if wavelength <= 0:
        raise NonPositiveWavelength(f"wavelength must be positive, got {wavelength!r}")
    if thickness < 0:
        raise ValueError(f"thickness must be nonnegative, got {thickness!r}")
    n = index.re
    s = 2.0 * math.pi * n * thickness / wavelength
    c, sn = math.cos(s), math.sin(s)
    return StructuredMatrix(c, sn / n, n * sn, c)


def multiply(a: StructuredMatrix, b: StructuredMatrix) -> StructuredMatrix:
    """Product of two carriers, equal to the complex product of the represented matrices.

    The minus signs come from i*i = -1 in the off-diagonal cross terms.
    """
    return StructuredMatrix(
        a.a11 * b.a11 - a.a12 * b.a21,
        a.a11 * b.a12 + a.a12 * b.a22,
        a.a21 * b.a11 + a.a22 * b.a21,
        a.a22 * b.a22 - a.a21 * b.a12,
    )


def chain_product(layers: Sequence[StructuredMatrix]) -> StructuredMatrix:
    """Left-to-right product of layer matrices, identity for the empty chain."""
    out = IDENTITY
    for m in layers:
        out = multiply(out, m)
    return out


def reflectance(w: StructuredMatrix, substrate: ComplexIndex) -> float:
    """Normal-incidence reflectance of a coated substrate from the cumulative matrix `w`.

    For w = identity this reduces to the bare-substrate Fresnel value
    ((n-1)^2 + k^2) / ((n+1)^2 + k^2).
    """
    a, b = substrate.re, substrate.im
    x1, x3, x4, x2 = w.a11, w.a12, w.a21, w.a22
    # Squares as products, bit for bit what the arrayops kernels compute
    # (a Python float ** 2 goes through libm pow).
    p, q = x1 - b * x3 - a * x2, x4 + b * x2 - a * x3
    r, t = x1 - b * x3 + a * x2, x4 + b * x2 + a * x3
    num = p * p + q * q
    den = r * r + t * t
    if den <= DENOMINATOR_EPS:
        raise DegenerateDenominator(f"reflectance denominator {den!r} below threshold")
    return num / den


def denominator_D(w: StructuredMatrix, substrate: ComplexIndex) -> float:
    """Quadratic D(w) with reflectance(w) == 1 - 4*Re(index)/D(w) whenever det(w) == 1.

    D is a sum of four squares plus 2*Re(index), hence always >= 2*Re(index);
    unlike the raw reflectance denominator it is convex in the four entries,
    which is what the relaxation machinery exploits.
    """
    a, b = substrate.re, substrate.im
    x1, x3, x4, x2 = w.a11, w.a12, w.a21, w.a22
    p, q, r, t = x1 - b * x3, a * x3, x4 + b * x2, a * x2
    return p * p + q * q + r * r + t * t + 2.0 * a


def average_reflectance(
    design_matrices: Sequence[StructuredMatrix],
    substrate: ComplexIndex | Sequence[ComplexIndex],
    spectrum: Spectrum,
) -> float:
    """Weighted average of per-wavelength reflectances.

    `substrate` may be a single index (flat substrate data) or one index per
    spectrum wavelength.
    """
    if len(design_matrices) != len(spectrum):
        raise MismatchedSpectrumLength(
            f"{len(design_matrices)} matrices for {len(spectrum)} wavelengths"
        )
    if isinstance(substrate, ComplexIndex):
        subs: Sequence[ComplexIndex] = [substrate] * len(spectrum)
    else:
        subs = substrate
        if len(subs) != len(spectrum):
            raise MismatchedSpectrumLength(
                f"{len(subs)} substrate indices for {len(spectrum)} wavelengths"
            )
    return sum(
        phi * reflectance(w, s)
        for w, s, phi in zip(design_matrices, subs, spectrum.weights)
    )
