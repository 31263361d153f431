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

trotter_step is the time-splitting spectral method and reads the generators
by role: A is the periodic kinetic term of either scheme, a Hermitian
circulant, and B the potential, a diagonal. An A stage is an FFT pair and a
B stage a row scaling, not an N^3 product.
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


def trotter_step(plan: StagePlan, a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """One step U_p(dt) = u_l ... u_1 by the FFT split-step method.

    A is the kinetic term, a Hermitian circulant: its stage maps each column
    x to ifft(e^{-i dt c_j lam} fft(x)), lam its real DFT symbol. B is the
    potential, a diagonal: its stage scales rows by e^{-i dt c_j d}. A that
    is not exactly circulant(a[:, 0]), or B that is not exactly diagonal,
    raises ValueError, and a non-finite A or B ConvergenceError.
    """
    a = linalg.as_matrix(a)
    b = linalg.as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise linalg.DimensionMismatchError(f"need equal square A and B: {a.shape} vs {b.shape}")
    potential = np.diag(b)
    if not np.array_equal(b, np.diag(potential), equal_nan=True):
        raise ValueError("B must be diagonal")
    if not np.array_equal(a, linalg.circulant(a[:, 0]), equal_nan=True):
        raise ValueError("A must be circulant")
    if not (np.isfinite(a[:, 0]).all() and np.isfinite(potential).all()):
        raise linalg.ConvergenceError("A or B has non-finite entries")
    symbol = linalg.hermitian_circulant_symbol(a[0])
    # build U^T = u_1^T ... u_l^T, so the FFTs run along contiguous rows
    step_t = np.eye(a.shape[0], dtype=np.complex128)
    for c, g in plan.stages:
        if g == "A":
            step_t = np.fft.fft(step_t, axis=1)
            step_t *= np.exp(-1j * (c * dt) * symbol)
            step_t = np.fft.ifft(step_t, axis=1)
        else:
            step_t *= np.exp(-1j * (c * dt) * potential)
    return step_t.T


def exact_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} for Hermitian H."""
    return linalg.unitary_exp(h, t)


def heisenberg_evolve(u: np.ndarray, obs: np.ndarray, n: int) -> np.ndarray:
    """(U^dagger)^n O U^n by successive conjugation."""
    u = linalg.as_matrix(u)
    obs = linalg.as_matrix(obs)
    if u.shape != obs.shape:
        raise linalg.DimensionMismatchError(f"shapes differ: {u.shape} vs {obs.shape}")
    defect = linalg.unitarity_defect(u)
    if defect > 1e-8:
        raise linalg.LinalgError(f"U is not unitary (defect {defect:.3e})")
    uh = u.conj().T
    for _ in range(n):
        obs = uh @ obs @ u
    return obs


def compute_steps(t: float, eps: float, p: int, c: float) -> int:
    """Smallest step count n with C t^(p+1) / n^p <= eps."""
    if t <= 0 or eps <= 0 or c <= 0:
        raise ValueError("t, eps and C must be positive")
    n = max(1, math.ceil((c * t ** (p + 1) / eps) ** (1.0 / p) - 1e-12))
    while c * t ** (p + 1) / n**p > eps:
        n += 1
    return n
