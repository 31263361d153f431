"""Periodic grid and discrete derivative operators.

Finite-difference matrices follow the periodic first-order stencils:
the forward difference D_F has -1/dx on the diagonal and +1/dx on the
superdiagonal with wraparound, D_B = -D_F^dagger, and the Laplacian
D_2 = D_B D_F = D_F D_B is the (-2, 1, 1)/dx^2 circulant. Higher orders
compose as D_2^(k/2) for even k and D_F D_2^((k-1)/2) for odd k.

The scaling convention uses the physical 1/dx = N/(b-a) so that D_F
approximates d/dx on any interval; on a length-1 domain this coincides
with the convention that absorbs the domain length into N. Norm-growth
exponents ("discrete heights") are unaffected by the choice.

Spectral derivatives are IDFT diag((i xi)^k) DFT on the standard DFT
frequency layout; for odd k the unpaired Nyquist multiplier at
xi = -N/2 is zeroed so real samples map to real samples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .expr import Expr, eval_expr


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


def build_forward_diff(g: Grid) -> np.ndarray:
    inv_dx = 1.0 / g.dx
    d = np.zeros((g.n, g.n), dtype=np.complex128)
    idx = np.arange(g.n)
    d[idx, idx] = -inv_dx
    d[idx, (idx + 1) % g.n] = inv_dx
    return d


def build_backward_diff(g: Grid) -> np.ndarray:
    return -build_forward_diff(g).conj().T


def build_laplacian(g: Grid) -> np.ndarray:
    """(-2, 1, 1)/dx^2 periodic circulant; equals D_B @ D_F entrywise."""
    inv_dx = 1.0 / g.dx
    w = inv_dx * inv_dx
    d = np.zeros((g.n, g.n), dtype=np.complex128)
    idx = np.arange(g.n)
    d[idx, idx] = -2.0 * w
    d[idx, (idx + 1) % g.n] = w
    d[idx, (idx - 1) % g.n] = w
    return d


def build_Dk(g: Grid, k: int) -> np.ndarray:
    """k-th order difference: D_2^(k/2) for even k, D_F D_2^((k-1)/2) for odd."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k == 0:
        return np.eye(g.n, dtype=np.complex128)
    d2 = build_laplacian(g)
    if k % 2 == 0:
        return np.linalg.matrix_power(d2, k // 2)
    return build_forward_diff(g) @ np.linalg.matrix_power(d2, (k - 1) // 2)


def build_Dk_backward(g: Grid, k: int) -> np.ndarray:
    """Variant of build_Dk using D_B for the odd factor."""
    if k % 2 == 0:
        return build_Dk(g, k)
    return build_backward_diff(g) @ np.linalg.matrix_power(build_laplacian(g), (k - 1) // 2)


def spectral_frequencies(g: Grid) -> np.ndarray:
    """Frequency grid 2 pi/(b-a) * (0, 1, ..., N/2-1, -N/2, ..., -1)."""
    k_int = np.fft.fftfreq(g.n, d=1.0 / g.n)
    return 2.0 * np.pi / (g.b - g.a) * k_int


def build_spectral_derivative(g: Grid, k: int) -> np.ndarray:
    """Dense IDFT diag((i xi)^k) DFT matrix approximating d^k/dx^k."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    if k == 0:
        return np.eye(g.n, dtype=np.complex128)
    xi = spectral_frequencies(g)
    mult = (1j * xi) ** k
    if k % 2 == 1:
        mult[g.n // 2] = 0.0  # unpaired Nyquist mode
    f_un = np.fft.fft(np.eye(g.n), axis=0)
    return np.fft.ifft(mult[:, None] * f_un, axis=0)


def sample(g: Grid, f: Expr) -> np.ndarray:
    """Samples f(x_j) at the grid nodes."""
    return np.asarray([eval_expr(f, x) for x in g.nodes], dtype=np.complex128)


def build_diag(g: Grid, f: Expr) -> np.ndarray:
    """Diagonal matrix of samples f(x_j)."""
    return np.diag(sample(g, f))
