"""Semiclassical Hamiltonian pieces and polynomial observables.

The Hamiltonian splits as H = A + B with the kinetic part A = -(h/2) D_2,
D_2 the second-derivative matrix of the scheme (the finite-difference
Laplacian or the spectral d^2/dx^2), and the potential part
B = (1/h) diag(V(x_j)).

Observables are polynomial in the derivative: O = sum_m diag(y_m) h^m D_m,
with D_m the finite-difference ladder or its spectral analogue.
Smooth coefficients keep ||O|| of order h^0 across the semiclassical range.

A and O each have one builder of their declared form: FD's are stencils (linalg.Stencil), D_m the
m + 1 taps of fd_stencil, and the spectral ones dense. build_A and build_observable are their matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretize import Grid, SchemeKind, build_diag, build_spectral_derivative, fd_stencil, sample
from .expr import Expr
from .linalg import Stencil


@dataclass(frozen=True)
class ModelParams:
    h: float
    potential: Expr
    grid: Grid
    scheme: SchemeKind = SchemeKind.FINITE_DIFFERENCE

    def __post_init__(self):
        if not 0.0 < self.h <= 1.0:
            raise ValueError(f"need 0 < h <= 1, got h={self.h}")


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


def declared_A(p: ModelParams):
    """Kinetic term -(h/2) D_2 in declared form; Hermitian."""
    if p.scheme is SchemeKind.FINITE_DIFFERENCE:
        return Stencil({r: -0.5 * p.h * c for r, c in fd_stencil(p.grid, 2).taps.items()}, p.grid.n)
    a = -0.5 * p.h * build_spectral_derivative(p.grid, 2)
    # the FFT-built spectral matrix carries ~1e-16 asymmetry; project it out
    return 0.5 * (a + a.T)


def build_A(p: ModelParams) -> np.ndarray:
    """Kinetic term -(h/2) D_2 as a dense matrix."""
    return np.asarray(declared_A(p))


def build_B(p: ModelParams) -> np.ndarray:
    """Potential term (1/h) diag(V(x_j)); real diagonal."""
    return build_diag(p.grid, p.potential) / p.h


def declared_observable(spec: PolyObservableSpec, grid: Grid, scheme: SchemeKind = SchemeKind.FINITE_DIFFERENCE):
    """O = sum_m diag(y_m) h^m D_m in declared form, not symmetrized: the error analysis allows any O."""
    if scheme is SchemeKind.SPECTRAL:
        return sum(sample(grid, y_m)[:, None] * build_spectral_derivative(grid, m) * spec.h**m for m, y_m in spec.terms)
    taps = {}
    for m, y_m in spec.terms:
        y = sample(grid, y_m)
        for r, c in fd_stencil(grid, m).taps.items():
            taps[r] = taps.get(r, 0.0) + y * c * spec.h**m
    return Stencil(taps, grid.n)


def build_observable(spec: PolyObservableSpec, grid: Grid, scheme: SchemeKind = SchemeKind.FINITE_DIFFERENCE) -> np.ndarray:
    """O = sum_m diag(y_m) h^m D_m as a dense matrix."""
    return np.asarray(declared_observable(spec, grid, scheme))
