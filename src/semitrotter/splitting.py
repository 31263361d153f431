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

Given a matrix M, trotter_step forms U_p(dt)^s M by the route a cost rule picks at
every N (the evolution cells pass H's real eigenvectors). A short plan, such as the
default p = 2, runs its s steps' stages, merged where one step meets the next, on a
complex copy of M, which needs M and that copy alone and no N^3 product; a longer plan
takes U^s M by binary powering, each multiply written over a power of U, panel by panel.
Every N x N buffer is Fortran-ordered, the split-step's own layout, so a real M takes one
real product per panel (linalg.matmul_by_rows), never a complex copy.
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

    The result is a new complex array, Fortran-ordered, the split-step's own layout. steps = 0
    gives the identity, or a complex copy of m. Otherwise, without m, _power takes the power,
    and with m, which is left as it is, _route picks one of two routes:
    - stages, where their FFT pairs cost less than powering's products: the plan's stages,
      repeated steps times and merged where they meet, run on the rows of a complex copy of
      M^T (M and the result alone);
    - powering: _power builds U, squares it, writes the product with M over a power of U by
      row panels and applies the odd powers to it by column panels.
    Traced at N = 1024 in complex N x N buffers, with the h-sweep's real eigenvectors as M:
    1.51 by stages (the h-sweep's p = 2 and 4 cells there); by powering 2.50 at a power of two,
    2.63 at other step counts whose odd part is below 9 (the p = 6 cells, 5 steps) and 3.50 from
    9 on, where a square of U is squared beside the power so far; a complex M adds half a
    buffer. The split-step that builds X runs in a complex identity, so one step of order 1
    without M is that one buffer (1.01; 1.51 with a real identity copied to complex).
    """
    symbol, symmetric, steps = _checked(plan, a_row, potential, steps)
    n = symbol.size
    if m is not None:
        m = np.asarray(m)
        if m.shape != (n, n):
            raise linalg.DimensionMismatchError(f"need an N x N matrix for N = {n}, got {m.shape}")
        if not np.isfinite(m).all():
            raise linalg.ConvergenceError("M has non-finite entries")
    if not steps:
        return np.eye(n, dtype=np.complex128, order="F") if m is None else np.array(m, np.complex128, order="F")
    if m is not None and _route(plan, n, steps, symmetric) == "stages":
        stages = _merge_adjacent(list(plan.stages) * steps)
        return _by_stages(stages, symbol, potential, dt, m.T.astype(np.complex128, order="C"))
    return _power(plan, symbol, potential, dt, symmetric, steps, m)


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
    x = _by_stages(stages, symbol, potential, dt, np.eye(symbol.size, dtype=np.complex128))
    return _square(x, True) if symmetric else x  # returning it frees the split-step buffer


def _square(x: np.ndarray, symmetric: bool) -> np.ndarray:
    """x^T x when symmetric, else x x, as the transpose of a product of C-ordered x^T: Fortran-ordered, as x is.

    x^T x is a zsyrk, which reads one buffer twice, and exactly symmetric: its transpose has its bits.
    """
    return (x.T @ x).T if symmetric else (x.T @ x.T).T


def _power(plan: StagePlan, symbol, potential, dt: float, symmetric: bool, steps: int, m) -> np.ndarray:
    """U^steps M, or U^steps when m is None (steps >= 1), by binary powering, each multiply over a power of U.

    With steps = 2^j (2r + 1): U is squared j times to X = U^(2^j), each square dropping the
    one before; where r > 0, Z = X^2 is taken beside X. Row panel i of X M reads row panel i
    of X alone, so linalg.matmul_by_rows writes X M over X; column panel k of Z W reads column
    panel k of W alone, so Z is applied over each column panel of W = X M in turn. While r > 3,
    Z is applied where r's low bit is set and then squared as r is halved; then it is applied r
    times. So M, two N x N buffers and one N x _PANEL panel are alive, and a third N x N buffer
    only while Z is squared, for odd parts of 9 on.
    """
    x = _step(plan, symbol, potential, dt, symmetric)
    while not steps & 1:
        x = _square(x, symmetric)
        steps >>= 1
    r = steps >> 1
    z = _square(x, symmetric) if r else None
    w = x if m is None else linalg.matmul_by_rows(x, m, out=x)
    while r > 3:
        if r & 1:
            _by_columns(z, w)
        r >>= 1
        z = _square(z, symmetric)
    for _ in range(r):
        _by_columns(z, w)
    return w


def _by_columns(z: np.ndarray, w: np.ndarray) -> None:
    """Writes Z W over W, one N x _PANEL column panel at a time, the panel freed on return."""
    n, b = w.shape[0], linalg._PANEL
    panel = np.empty((n, min(b, n)), w.dtype, order="F")
    for k in range(0, n, b):
        w[:, k : k + b] = np.matmul(z, w[:, k : k + b], out=panel[:, : min(b, n - k)])


# An N x N product costs about N / (_FFT_PAIRS_LOG2 log2 N) FFT pairs with their phases over
# the rows of an N x N matrix. Medians on 2-core x86-64 (OpenBLAS 0.3.31, numpy's pocketfft):
# a pair took 0.26, 1.14 and 5.30 ms at N = 256, 512 and 1024, a zgemm 0.63, 4.96 and 38.4 ms
# and a zsyrk 0.62, 3.58 and 25.9 ms, 2.4, 3.7 and 6.1 pairs per product on average, against
# 2.3, 4.1 and 7.3 by this rule; a B stage costs a tenth of a pair and is left out. The
# default p = 2 cell of 5 steps takes 6 pairs by stages against 5 products, and p = 4 takes 26
# against 5, so p = 2 runs by stages from N = 128 on, by powering below, and p = 4 from N =
# 1024 on. Routes forced at 5 steps (medians of five): at N = 1024 p = 4 took 142 ms by stages
# against 182 ms by powering, at N = 512 32 ms against 24 ms, and at N = 2048 (medians of
# three) 0.71 s against 1.39 s; p = 2 took 33 ms by stages against 160 ms by powering at N =
# 1024. Below N = 256 (medians of 41): at N = 64, p = 2 of 2 steps 0.09 ms by stages against
# 0.11 ms by powering, of 5 steps 0.16 against 0.11 ms; at N = 128, of 5 steps 0.50 ms against
# 0.89 ms, and of 4 steps 0.73-0.81 ms against 1.01-1.04 ms (two runs on a busier machine).
# Every constant from 12.4 up to but not including 16 picks the faster route in each of these.
_FFT_PAIRS_LOG2 = 14


def _route(plan: StagePlan, n: int, steps: int, symmetric: bool) -> str:
    """trotter_step's route given M and steps >= 1: "stages" or "powering", by the cost rule above."""
    step_pairs = sum(g == "A" for _, g in plan.stages[: (len(plan.stages) + 1) // 2 if symmetric else None])
    stage_pairs = sum(g == "A" for _, g in _merge_adjacent(list(plan.stages) * steps))
    if (stage_pairs - step_pairs) * _FFT_PAIRS_LOG2 * math.log2(n) < _products(steps, symmetric) * n:
        return "stages"
    return "powering"


def _products(steps: int, symmetric: bool) -> int:
    """N^3 products of _power given M: a symmetric step's X^T X, the squares, the odd factors and the product with M."""
    return int(symmetric) + steps.bit_length() - 1 + bin(steps).count("1")


def _by_stages(stages, symbol: np.ndarray, potential: np.ndarray, dt: float, w_t: np.ndarray) -> np.ndarray:
    """u_k ... u_1 M, Fortran-ordered, for w_t = M^T as a C-ordered complex array, whose rows the stages run on.

    The caller's w_t is the one buffer: the transpose is taken so that the FFTs run along
    contiguous rows, each stage written over w_t; the inverse FFTs run unnormalized, with 1/N
    folded into the A phases; scaling by a power of two is exact, so at power-of-two N this
    changes no bit. Returns w_t's transpose.
    """
    n = symbol.size
    for c, g in stages:
        if g == "A":
            np.fft.fft(w_t, axis=1, out=w_t)
            w_t *= np.exp(-1j * (c * dt) * symbol) / n
            np.fft.ifft(w_t, axis=1, out=w_t, norm="forward")
        else:
            w_t *= np.exp(-1j * (c * dt) * potential)
    return w_t.T


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
