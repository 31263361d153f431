"""Semiclassical Hamiltonian pieces and polynomial observables.

The Hamiltonian splits as H = A + B with a kinetic part
A = -kinetic_coeff * h * (second derivative matrix) and a potential part
B = (1/h) diag(V(x_j)). The default kinetic_coeff of 1/2 gives the
-(h/2) Laplacian + (1/h) V(x) form used in the numerical experiments;
height/width structure is insensitive to the constant.

Observables are polynomial in the derivative: O = sum_m diag(y_m) h^m D_m,
with D_m the finite-difference ladder (build_Dk) or its spectral analogue.
Smooth coefficients keep ||O|| of order h^0 across the semiclassical range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import (
    Grid,
    SchemeKind,
    build_diag,
    build_Dk,
    build_Dk_backward,
    build_laplacian,
    build_spectral_derivative,
    sample,
)
from .expr import Expr


@dataclass(frozen=True)
class ModelParams:
    h: float
    potential: Expr
    grid: Grid
    scheme: SchemeKind = SchemeKind.FINITE_DIFFERENCE
    kinetic_coeff: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.h <= 1.0:
            raise ValueError(f"need 0 < h <= 1, got h={self.h}")
        if not self.kinetic_coeff > 0.0:
            raise ValueError(f"need kinetic_coeff > 0, got {self.kinetic_coeff}")


@dataclass(frozen=True)
class PolyObservableSpec:
    """Terms (m, y_m) encoding O = sum_m y_m(x) h^m d^m/dx^m."""

    terms: tuple[tuple[int, Expr], ...]
    h: float

    def __post_init__(self):
        degrees = [m for m, _ in self.terms]
        if any(m < 0 for m in degrees):
            raise ValueError(f"negative derivative degree in {degrees}")
        if len(set(degrees)) != len(degrees):
            raise ValueError(f"duplicate derivative degrees in {degrees}")


def second_derivative_matrix(grid: Grid, scheme: SchemeKind) -> np.ndarray:
    if scheme is SchemeKind.FINITE_DIFFERENCE:
        return build_laplacian(grid)
    return build_spectral_derivative(grid, 2)


def build_A(p: ModelParams) -> np.ndarray:
    """Kinetic term -kinetic_coeff * h * (d^2/dx^2 matrix); Hermitian."""
    a = -p.kinetic_coeff * p.h * second_derivative_matrix(p.grid, p.scheme)
    # the FFT-built spectral matrix carries ~1e-16 asymmetry; project it out
    return 0.5 * (a + a.conj().T)


def build_B(p: ModelParams) -> np.ndarray:
    """Potential term (1/h) diag(V(x_j)); real diagonal."""
    return build_diag(p.grid, p.potential) / p.h


def build_H(p: ModelParams) -> np.ndarray:
    return build_A(p) + build_B(p)


def build_observable(
    spec: PolyObservableSpec,
    grid: Grid,
    scheme: SchemeKind = SchemeKind.FINITE_DIFFERENCE,
    odd_backward: bool = False,
    symmetrize: bool = False,
) -> np.ndarray:
    """Assemble sum_m diag(y_m) h^m D_m for the chosen scheme.

    odd_backward switches the odd finite-difference factors from D_F to
    D_B; symmetrize replaces the result by its Hermitian part (off by
    default, the error analysis does not require Hermitian observables).
    """
    out = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for m, y_m in spec.terms:
        if scheme is SchemeKind.FINITE_DIFFERENCE:
            deriv = build_Dk_backward(grid, m) if odd_backward else build_Dk(grid, m)
        else:
            deriv = build_spectral_derivative(grid, m)
        out += sample(grid, y_m)[:, None] * deriv * spec.h**m
    if symmetrize:
        out = 0.5 * (out + out.conj().T)
    return out
