"""Suzuki stage schedules and Trotterized evolution.

A stage plan is an ordered list of (coefficient, generator) pairs; the
first stage acts first on the state, i.e. the full step is

    U = u_l ... u_2 u_1,    u_j = exp(-i dt c_j H_j),  H_j in {A, B}.

Order 1 is the Lie-Trotter product, order 2 the Strang splitting
(1/2, A)(1, B)(1/2, A), and higher even orders follow the fractal
recursion U_{2k}(dt) = U_{2k-2}(u_k dt)^2 U_{2k-2}((1-4u_k) dt)
U_{2k-2}(u_k dt)^2 with u_k = 1/(4 - 4^(1/(2k-1))). Adjacent stages with
the same generator are merged, which yields the canonical
2*5^(k-1) + 1 stage count; the intermediate coefficients 1 - 4 u_k are
negative and are exponentiated directly.

trotter_step is the time-splitting spectral method (Bao, Jin & Markowich,
J. Comput. Phys. 175, 2002). It takes each generator as the vector that
defines it: A, the periodic kinetic term of either scheme, as the first row
of its Hermitian circulant, and B as its real diagonal, the potential. An A
stage is an FFT pair and a B stage a row scaling, not an N^3 product.

A palindromic step of real generators is complex symmetric. The exponential
of a symmetric matrix is symmetric, and a real Hermitian A is symmetric, as
is the diagonal B, so every u_j is symmetric; transposing u_l ... u_1
reverses the order of the factors, which leaves a palindrome unchanged.
So the palindrome u_1 ... u_m u_{m+1} u_m ... u_1 is X^T X with
X = u_{m+1}^{1/2} u_m ... u_1 (no middle factor when l = 2m is even): half
the stages and one symmetric product build the step, and its power
squares as U^T U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg

Stage = tuple[float, str]


@dataclass(frozen=True)
class StagePlan:
    stages: tuple[Stage, ...]

    def coefficient_sum(self, generator: str) -> float:
        return sum(c for c, g in self.stages if g == generator)

    def is_palindromic(self) -> bool:
        return self.stages == self.stages[::-1]


def _merge_adjacent(stages: list[Stage]) -> list[Stage]:
    merged: list[Stage] = []
    for c, g in stages:
        if merged and merged[-1][1] == g:
            merged[-1] = (merged[-1][0] + c, g)
        else:
            merged.append((c, g))
    return merged


def suzuki_plan(p: int) -> StagePlan:
    """Stage schedule for the order-p scheme (p = 1 or even, p <= 10)."""
    if p == 1:
        return StagePlan(((1.0, "A"), (1.0, "B")))
    if p < 2 or p % 2 != 0 or p > 10:
        raise ValueError(f"order must be 1 or an even integer <= 10, got {p}")
    stages: list[Stage] = [(0.5, "A"), (1.0, "B"), (0.5, "A")]
    for k in range(2, p // 2 + 1):
        u = 1.0 / (4.0 - 4.0 ** (1.0 / (2 * k - 1)))
        scaled = []
        for factor in (u, u, 1.0 - 4.0 * u, u, u):
            scaled.extend((c * factor, g) for c, g in stages)
        stages = _merge_adjacent(scaled)
    return StagePlan(tuple(stages))


def trotter_step(
    plan: StagePlan, a_row: np.ndarray, potential: np.ndarray, dt: float, steps: int = 1
) -> np.ndarray:
    """U_p(dt)^steps, with U_p(dt) = u_l ... u_1 built by the FFT split-step method.

    a_row is the first row of A, a Hermitian circulant: its stage maps each
    column x to ifft(e^{-i dt c_j lam} fft(x)), lam its real DFT symbol.
    potential is the diagonal of B: its stage scales rows by e^{-i dt c_j d}.
    Vectors that are not 1-D of one nonzero length raise DimensionMismatchError,
    non-finite entries ConvergenceError, and a complex symbol of A or a complex
    potential NonHermitianError.

    For a palindromic plan and a real A the step is complex symmetric (see
    the module docstring): the split-step runs the first l // 2 stages and,
    for odd l, the middle one at half its coefficient, and the step is X^T X,
    which BLAS computes as a symmetric rank-k update. The power is taken by
    binary powering, each square of this step formed as X^T X too. Order 1,
    or a complex Hermitian A, runs every stage and squares as X X.
    """
    a_row = np.asarray(a_row)
    potential = np.asarray(potential)
    n = a_row.size
    if a_row.ndim != 1 or a_row.shape != potential.shape or n == 0:
        raise linalg.DimensionMismatchError(
            f"need A's first row and B's diagonal of one nonzero length: {a_row.shape} vs {potential.shape}"
        )
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if not (np.isfinite(a_row).all() and np.isfinite(potential).all()):
        raise linalg.ConvergenceError("A or B has non-finite entries")
    if potential.imag.any():
        raise linalg.NonHermitianError("B must have a real diagonal")
    symbol = linalg.hermitian_circulant_symbol(a_row)
    symmetric = plan.is_palindromic() and np.isrealobj(a_row)
    stages = plan.stages
    if symmetric:  # the first half, then the middle stage (if any) at half its coefficient
        half = len(stages) // 2
        stages = stages[:half] + tuple((c / 2, g) for c, g in stages[half : len(stages) - half])
    # build the transpose u_1^T ... u_k^T of the stage product, so the FFTs run along
    # contiguous rows; the inverse FFTs run unnormalized, with 1/N folded into the A
    # phases; scaling by a power of two is exact, so at power-of-two N this changes no bit
    x_t = np.eye(n, dtype=np.complex128)
    for c, g in stages:
        if g == "A":
            np.fft.fft(x_t, axis=1, out=x_t)
            x_t *= np.exp(-1j * (c * dt) * symbol) / n
            np.fft.ifft(x_t, axis=1, out=x_t, norm="forward")
        else:
            x_t *= np.exp(-1j * (c * dt) * potential)
    # x_t @ x_t.T reads one buffer twice (a zsyrk); rebinding frees the split-step buffer
    x_t = x_t @ x_t.T if symmetric else x_t.T
    return _power(x_t, steps, symmetric)


def _power(x: np.ndarray, steps: int, symmetric: bool) -> np.ndarray:
    """x^steps by binary powering; squares as x^T x (a zsyrk) when x is symmetric."""
    result = np.eye(x.shape[0], dtype=x.dtype) if steps == 0 else None
    while steps:
        if steps & 1:
            result = x if result is None else result @ x
        steps >>= 1
        if steps:
            x = x.T @ x if symmetric else x @ x
    return result


def compute_steps(t: float, eps: float, p: int, c: float) -> int:
    """Smallest step count n with C t^(p+1) / n^p <= eps."""
    if t <= 0 or eps <= 0 or c <= 0:
        raise ValueError("t, eps and C must be positive")
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    n = max(1, math.ceil((c * t ** (p + 1) / eps) ** (1.0 / p) - 1e-12))
    while c * t ** (p + 1) / n**p > eps:
        n += 1
    return n
