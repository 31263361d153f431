"""Semiclassical Hamiltonian pieces and polynomial observables.

The Hamiltonian splits as H = A + B with the kinetic part A = -(h/2) D_2,
D_2 the second-derivative matrix of the scheme (the finite-difference
Laplacian or the spectral d^2/dx^2), and the potential part
B = (1/h) diag(V(x_j)).

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
    build_spectral_derivative,
    fd_stencil,
    sample,
)
from .expr import Expr

_LADDER = {SchemeKind.FINITE_DIFFERENCE: build_Dk, SchemeKind.SPECTRAL: build_spectral_derivative}


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


def build_A(p: ModelParams) -> np.ndarray:
    """Kinetic term -(h/2) D_2; Hermitian."""
    a = -0.5 * p.h * _LADDER[p.scheme](p.grid, 2)
    # the FFT-built spectral matrix carries ~1e-16 asymmetry; project it out
    return 0.5 * (a + a.conj().T)


def build_B(p: ModelParams) -> np.ndarray:
    """Potential term (1/h) diag(V(x_j)); real diagonal."""
    return build_diag(p.grid, p.potential) / p.h


def build_observable(
    spec: PolyObservableSpec,
    grid: Grid,
    scheme: SchemeKind = SchemeKind.FINITE_DIFFERENCE,
) -> np.ndarray:
    """Assemble O = sum_m diag(y_m) h^m D_m, not symmetrized: the error analysis allows any O.

    D_m is the D_F ladder of build_Dk (finite differences) or the spectral d^m/dx^m.
    """
    out = np.zeros((grid.n, grid.n))
    for m, y_m in spec.terms:
        out += sample(grid, y_m)[:, None] * _LADDER[scheme](grid, m) * spec.h**m
    return out


def declared_operators(p: ModelParams, spec: PolyObservableSpec):
    """A and O in declared form: FD's stencils (see linalg), bit for bit build_A's entries and, up
    to degree 2, build_observable's (O's taps hold one value per row); the spectral dense matrices."""
    if p.scheme is SchemeKind.SPECTRAL:
        return build_A(p), build_observable(spec, p.grid, p.scheme)
    taps = {}
    for m, y_m in spec.terms:
        y = sample(p.grid, y_m)
        for r, c in fd_stencil(p.grid, m).items():
            taps[r] = taps.get(r, 0.0) + y * c * spec.h**m
    return {r: -0.5 * p.h * c for r, c in fd_stencil(p.grid, 2).items()}, taps
