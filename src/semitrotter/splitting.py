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

Given a matrix M, trotter_step forms U_p(dt)^s M, the evolution cells'
W = U_p(dt)^s U_exact^dagger, by the route a cost rule picks at every N. A short
plan, such as the default p = 2, runs its s steps' stages, merged where one step
meets the next, on a copy of M, which needs M and W alone and no N^3 product; a
longer plan builds U and U^2 and applies them to M inside U's buffer, panel by
panel, or takes the binary power where that needs fewer products.
"""

from __future__ import annotations

import math
import operator
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
    plan: StagePlan, a_row: np.ndarray, potential: np.ndarray, dt: float, steps: int = 1, m: np.ndarray | None = None
) -> np.ndarray:
    """U_p(dt)^steps, or U_p(dt)^steps M for an N x N matrix m, with U_p(dt) = u_l ... u_1.

    a_row is the first row of A, a Hermitian circulant: its stage maps each
    column x to ifft(e^{-i dt c_j lam} fft(x)), lam its real DFT symbol.
    potential is the diagonal of B: its stage scales rows by e^{-i dt c_j d}.
    Vectors that are not 1-D of one nonzero length, or an m that is not N x N,
    raise DimensionMismatchError, non-finite entries (m's too) ConvergenceError,
    and a complex symbol of A or a complex potential NonHermitianError; steps
    must be a non-negative integer.

    For a palindromic plan and a real A the step is complex symmetric (see
    the module docstring): the split-step runs the first l // 2 stages and,
    for odd l, the middle one at half its coefficient, and the step is X^T X,
    which BLAS computes as a symmetric rank-k update. Order 1, or a complex
    Hermitian A, runs every stage and squares as X X.

    Without m the power is taken by binary powering, each square of a
    symmetric step formed as X^T X too. With m, which is left as it is, the
    result is a new complex array, and _route picks one of three routes:
    - stages, where their FFT pairs cost less than the products of the others: the plan's
      stages, repeated steps times and merged where they meet, run on the rows of a complex
      copy of M^T, whose transpose, Fortran-ordered, is W (M and W alone);
    - in place, unless it takes more products than powering: the step U and its square U^2
      are built, the odd factor (U M, or U^2 M for even steps) is written into U's own
      buffer by row panels, and U^2 is applied to that by column panels (M, U, U^2 and one
      N x 128 panel);
    - binary powering and one product with M (M, the power's three buffers and W).
    """
    symbol, symmetric, steps = _checked(plan, a_row, potential, steps)
    if m is None:
        return _power(_step(plan, symbol, potential, dt, symmetric), steps, symmetric)
    m = np.asarray(m)
    if m.shape != (symbol.size, symbol.size):
        raise linalg.DimensionMismatchError(f"need an N x N matrix for N = {symbol.size}, got {m.shape}")
    if not np.isfinite(m).all():
        raise linalg.ConvergenceError("M has non-finite entries")
    route = _route(plan, symbol.size, steps, symmetric)
    if route == "stages":
        return _by_stages(_merge_adjacent(list(plan.stages) * steps), symbol, potential, dt, m)
    if route == "in place":  # a temporary, which _in_place may replace by a copy
        return _in_place(_step(plan, symbol, potential, dt, symmetric), steps, symmetric, m)
    return _power(_step(plan, symbol, potential, dt, symmetric), steps, symmetric) @ m


def _checked(plan: StagePlan, a_row, potential, steps) -> tuple[np.ndarray, bool, int]:
    """A's real DFT symbol, whether the step is symmetric, and steps as an int, after trotter_step's checks."""
    try:
        steps = operator.index(steps)
    except TypeError:
        raise TypeError(f"steps must be an integer, got {steps!r}") from None
    a_row = np.asarray(a_row)
    potential = np.asarray(potential)
    if a_row.ndim != 1 or a_row.shape != potential.shape or a_row.size == 0:
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
    return symbol, plan.is_palindromic() and np.isrealobj(a_row), steps


def _step(plan: StagePlan, symbol: np.ndarray, potential: np.ndarray, dt: float, symmetric: bool) -> np.ndarray:
    """U_p(dt): X^T X from the first half of the stages when symmetric, else all of them."""
    stages = plan.stages
    if symmetric:  # the first half, then the middle stage (if any) at half its coefficient
        half = len(stages) // 2
        stages = stages[:half] + tuple((c / 2, g) for c, g in stages[half : len(stages) - half])
    x = _by_stages(stages, symbol, potential, dt, np.eye(symbol.size))
    # x.T @ x reads one buffer twice (a zsyrk); returning it frees the split-step buffer
    return x.T @ x if symmetric else x


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


# An N x N product costs about N / (_FFT_PAIRS_LOG2 log2 N) FFT pairs with their phases over
# the rows of an N x N matrix. Medians of five on 2-core x86-64 (OpenBLAS 0.3.31, numpy's
# pocketfft): a pair took 1.18, 5.17 and 22.4 ms at N = 256, 512 and 1024, a zgemm 1.88,
# 13.9 and 98.7 ms and a zsyrk 1.80, 11.1 and 76.0 ms, 1.5, 2.4 and 3.9 pairs per product
# on average, against 1.3, 2.3 and 4.1 by this rule; a B stage costs a tenth of a pair and
# is left out. The default p = 2 cell of 5 steps takes 6 pairs by stages against 5 products,
# and p = 4 takes 26 against 5, so p = 2 runs by stages from N = 256 on, in place below, and
# p = 4 from N = 2048 on. At N = 1024 (medians of five) p = 2 took 165 ms by stages against
# 496 ms by powering, and p = 4 727 ms against 516 ms (596 ms in place); at N = 2048 (medians
# of three) p = 4 took 2.61 s by stages, 3.09 s by powering and 4.08 s in place.
_FFT_PAIRS_LOG2 = 25


def _route(plan: StagePlan, n: int, steps: int, symmetric: bool) -> str:
    """trotter_step's route given M: "stages", "in place" or "powering", by the cost rule above."""
    if not steps:
        return "stages"  # W = M: a copy, with no stage to run
    build = int(symmetric)  # the product X^T X
    step_pairs = sum(g == "A" for _, g in plan.stages[: (len(plan.stages) + 1) // 2 if symmetric else None])
    stage_pairs = sum(g == "A" for _, g in _merge_adjacent(list(plan.stages) * steps))
    # squares, multiplies and the product with M; the square U^2, then ceil(steps / 2) products
    powering = build + steps.bit_length() - 1 + bin(steps).count("1")
    in_place = build + (steps > 1) + (steps + 1) // 2
    if (stage_pairs - step_pairs) * _FFT_PAIRS_LOG2 * math.log2(n) < min(powering, in_place) * n:
        return "stages"
    return "in place" if in_place <= powering else "powering"


def _by_stages(stages, symbol: np.ndarray, potential: np.ndarray, dt: float, m: np.ndarray) -> np.ndarray:
    """u_k ... u_1 M, Fortran-ordered: the stages run on the contiguous rows of a complex copy of M^T.

    Its transpose is built so that the FFTs run along rows, each stage in the copy's own
    buffer; the inverse FFTs run unnormalized, with 1/N folded into the A phases; scaling by
    a power of two is exact, so at power-of-two N this changes no bit.
    """
    n = symbol.size
    w_t = m.T.astype(np.complex128, order="C")
    for c, g in stages:
        if g == "A":
            np.fft.fft(w_t, axis=1, out=w_t)
            w_t *= np.exp(-1j * (c * dt) * symbol) / n
            np.fft.ifft(w_t, axis=1, out=w_t, norm="forward")
        else:
            w_t *= np.exp(-1j * (c * dt) * potential)
    return w_t.T


def _in_place(u: np.ndarray, steps: int, symmetric: bool, m: np.ndarray) -> np.ndarray:
    """U^steps M (steps >= 1) in U's buffer, beside U^2 and one N x _PANEL panel.

    Row panel i of the odd factor U M (U^2 M for even steps) reads only row panel i of U,
    so it is written back over that panel; column panel j of U^2 Z reads only column panel
    j of Z, so U^2 is applied over each column panel of Z in turn.
    """
    u = np.ascontiguousarray(u)  # order 1's step is the transpose of a split-step buffer
    n, b = u.shape[0], linalg._PANEL
    square = None if steps < 2 else (u.T @ u if symmetric else u @ u)
    first = u if steps % 2 else square
    panel = np.empty((min(b, n), n), u.dtype)
    for i in range(0, n, b):
        rows = np.matmul(first[i : i + b], m, out=panel[: min(b, n - i)])
        u[i : i + b] = rows
    panel = panel.reshape(n, -1)
    for _ in range((steps - 1) // 2):
        for j in range(0, n, b):
            cols = np.matmul(square, u[:, j : j + b], out=panel[:, : min(b, n - j)])
            u[:, j : j + b] = cols
    return u


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
