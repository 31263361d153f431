"""Dense complex matrix kernel.

Matrices are plain numpy arrays of complex128, row-major, square for all
operator uses. Everything here is pure: no function mutates its inputs,
so results can be shared freely.

The spectral norm is the largest singular value from LAPACK's SVD, exact
to rounding; commutator matrices often have a degenerate top singular
value, which defeats iterative estimates started from a fixed vector.
"""

from __future__ import annotations

import numpy as np


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
    """Largest singular value of M, from LAPACK's SVD (exact to rounding)."""
    try:
        return float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular value decomposition failed: {exc}", 0) from exc


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
