"""Periodic grid and discrete derivative operators.

Finite differences form one periodic ladder, D_k = D_F^(k mod 2) D_2^(k//2),
a linalg.Stencil of k + 1 taps: dx^-k (S - I)^k S^-(k//2) for the
shift S: M[i] -> M[i + 1] (fd_stencil). The forward difference
D_F = build_Dk(g, 1) has -1/dx on the diagonal and +1/dx on the
superdiagonal with wraparound, D_B = -D_F^dagger = -build_Dk(g, 1).T, and
the Laplacian D_2 = build_Dk(g, 2) = D_B D_F = D_F D_B is the
(-2, 1, 1)/dx^2 circulant.

The scaling convention uses the physical 1/dx = N/(b-a) so that D_F
approximates d/dx on any interval; on a length-1 domain this coincides
with the convention that absorbs the domain length into N. Norm-growth
exponents ("discrete heights") are unaffected by the choice.

Spectral derivatives are IDFT diag((i xi)^k) DFT on the standard DFT
frequency layout; for odd k the unpaired Nyquist multiplier at
xi = -N/2 is zeroed so real samples map to real samples. The multiplier is
then Hermitian-symmetric, so every matrix here is real (float64).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .expr import Expr, ExprEvalError, eval_expr
from .linalg import Stencil, circulant


class SchemeKind(enum.Enum):
    FINITE_DIFFERENCE = "fd"
    SPECTRAL = "spectral"


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [a, b) with N nodes x_j = a + (b-a) j/N."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.b > self.a:
            raise ValueError(f"need b > a, got [{self.a}, {self.b}]")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"need N >= 4 and even, got N={self.n}")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.a + (self.b - self.a) * np.arange(self.n) / self.n


def fd_stencil(g: Grid, k: int) -> Stencil:
    """D_k as the stencil of taps D_k[i, i + r mod N] = (-1)^(k-j) C(k, j) dx^-k at r = j - k//2, j = 0 ... k."""
    scale = math.prod([1.0 / g.dx] * k, start=1.0)
    return Stencil({j - k // 2: (-1) ** (k - j) * math.comb(k, j) * scale for j in range(k + 1)}, g.n)


def build_Dk(g: Grid, k: int) -> np.ndarray:
    """k-th order difference D_F^(k mod 2) D_2^(k//2), the dense matrix of fd_stencil(g, k)."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    return np.asarray(fd_stencil(g, k))


def spectral_frequencies(g: Grid) -> np.ndarray:
    """Frequency grid 2 pi/(b-a) * (0, 1, ..., N/2-1, -N/2, ..., -1)."""
    k_int = np.fft.fftfreq(g.n, d=1.0 / g.n)
    return 2.0 * np.pi / (g.b - g.a) * k_int


def build_spectral_derivative(g: Grid, k: int) -> np.ndarray:
    """Real circulant IDFT diag((i xi)^k) DFT approximating d^k/dx^k."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k == 0:
        return np.eye(g.n)
    mult = (1j * spectral_frequencies(g)) ** k
    if k % 2 == 1:
        mult[g.n // 2] = 0.0  # unpaired Nyquist mode
    return circulant(np.fft.ifft(mult).real)


def sample(g: Grid, f: Expr) -> np.ndarray:
    """Samples f(x_j) at the grid nodes; ExprEvalError if one is not finite."""
    values = np.asarray([eval_expr(f, x) for x in g.nodes], dtype=np.float64)
    if not np.isfinite(values).all():
        raise ExprEvalError(f"not finite at x = {float(g.nodes[~np.isfinite(values)][0])!r}")
    return values


def build_diag(g: Grid, f: Expr) -> np.ndarray:
    """Diagonal matrix of samples f(x_j)."""
    return np.diag(sample(g, f))
