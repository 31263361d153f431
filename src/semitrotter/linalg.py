"""Dense complex matrix kernel.

Matrices are plain numpy arrays of complex128, row-major, square for all
operator uses. Everything here is pure: no function mutates its inputs,
so results can be shared freely across workers.

The spectral norm is computed by power iteration on M^dagger M (relative
tolerance 1e-10, at most 20000 iterations) with a full-SVD fallback for
N <= 256; commutator matrices can have clustered top singular values and
the fallback keeps the advertised accuracy in that regime.
"""

from __future__ import annotations

import numpy as np

POWER_ITER_TOL = 1e-10
POWER_ITER_MAX = 20000
# iterations granted before giving up and using the SVD when available
POWER_ITER_PATIENCE = 500
SVD_FALLBACK_MAX_N = 2048


class LinalgError(Exception):
    """Base class for kernel failures."""


class DimensionMismatchError(LinalgError):
    pass


class NonHermitianError(LinalgError):
    pass


class ConvergenceError(LinalgError):
    """An iterative routine failed to converge; carries the iteration count."""

    def __init__(self, message: str, iterations: int):
        super().__init__(f"{message} after {iterations} iterations")
        self.iterations = iterations


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array without copying when possible."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D array, got shape {a.shape}")
    return a


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] = XY - YX for square matrices of equal size."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatchError(f"need equal square shapes: {x.shape}, {y.shape}")
    return x @ y - y @ x


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dagger| relative to max |M| (0 for the zero matrix)."""
    m = as_matrix(m)
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(m - m.conj().T))) / scale


def _require_hermitian(m: np.ndarray, tol: float = 1e-10) -> None:
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NonHermitianError(f"matrix is not Hermitian (relative defect {defect:.3e})")


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition M = V diag(w) V^dagger of a Hermitian matrix.

    Returns (w, V) with w real ascending and V unitary.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"not square: {m.shape}")
    _require_hermitian(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}", 0) from exc
    return w, v


def unitary_exp(m: np.ndarray, theta: float) -> np.ndarray:
    """e^{-i theta M} for Hermitian M, via eigendecomposition."""
    w, v = hermitian_eig(m)
    phases = np.exp(-1j * theta * w)
    return (v * phases) @ v.conj().T


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of M (relative accuracy 1e-8)."""
    m = as_matrix(m)
    n = max(m.shape)
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if scale == 0.0:
        return 0.0

    # Power iteration on M^dagger M, kept in matvec form. A deterministic
    # start vector with a mild ramp avoids accidental orthogonality to the
    # top singular vector for the structured (circulant/diagonal) matrices
    # built elsewhere in the package.
    v = np.ones(m.shape[1], dtype=np.complex128)
    v += np.linspace(0.0, 0.5, m.shape[1])
    v /= np.linalg.norm(v)
    mh = m.conj().T
    sigma2_old = 0.0
    # circulant-symbol commutators have top singular values clustered at
    # spacing ~1/N^2, where the Rayleigh quotient crawls; stop early and
    # take the SVD rather than exhausting the full iteration budget
    budget = POWER_ITER_PATIENCE if n <= SVD_FALLBACK_MAX_N else POWER_ITER_MAX
    for iteration in range(1, budget + 1):
        w = mh @ (m @ v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        sigma2 = float(np.real(np.vdot(v, w)))
        v = w / norm_w
        if abs(sigma2 - sigma2_old) <= POWER_ITER_TOL * abs(sigma2):
            return float(np.sqrt(max(sigma2, 0.0)))
        sigma2_old = sigma2

    if n <= SVD_FALLBACK_MAX_N:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    raise ConvergenceError("power iteration did not converge", budget)


def unitarity_defect(u: np.ndarray) -> float:
    """|| U^dagger U - I ||_2."""
    u = as_matrix(u)
    eye = np.eye(u.shape[1], dtype=np.complex128)
    return spectral_norm(u.conj().T @ u - eye)


def circulant_eigenvalues(first_row: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant with the given first row.

    The eigenvector for frequency m is e^{2*pi*i*m*j/N}, so the eigenvalue
    is sum_r c_r e^{2*pi*i*m*r/N} = N * ifft(c)[m].
    """
    c = np.asarray(first_row, dtype=np.complex128).ravel()
    return c.size * np.fft.ifft(c)


def hermitian_circulant_symbol(first_row: np.ndarray) -> np.ndarray:
    """Real DFT symbol of a Hermitian circulant; NonHermitianError if it is complex."""
    lam = circulant_eigenvalues(first_row)
    scale = float(np.max(np.abs(lam)))
    if scale > 0.0 and float(np.max(np.abs(lam.imag))) > 1e-10 * scale:
        raise NonHermitianError("circulant first row does not define a Hermitian matrix")
    return lam.real


def circulant_exp(first_row: np.ndarray, theta: float) -> np.ndarray:
    """e^{-i theta C} for the Hermitian circulant C with the given first row.

    Diagonalized by the DFT; cost O(N^2 log N) instead of a dense
    eigendecomposition. Raises NonHermitianError if the circulant is not
    Hermitian (its DFT symbol must be real).
    """
    phases = np.exp(-1j * theta * hermitian_circulant_symbol(first_row))
    # F_un[m, j] = e^{-2 pi i m j / N}; the result is F_un^dagger D F_un / N
    f_un = np.fft.fft(np.eye(phases.size), axis=0)
    return np.fft.ifft(phases[:, None] * f_un, axis=0)
