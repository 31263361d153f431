"""Dense matrix kernel.

Matrices are numpy arrays, row-major, square for all operator uses: float64
for real operators (A, B, observables), complex128 for unitaries. Nothing
here mutates its inputs, so results can be shared freely.

The spectral norm is the root of the Gram matrix's top eigenvalue, exact to
rounding; commutator matrices often have a degenerate top singular value,
which defeats iterative estimates started from a fixed vector.
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
    """A LAPACK solve failed or its input has non-finite entries."""


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 (complex input) or float64 (real input) array."""
    a = np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D array, got shape {a.shape}")
    return a


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[X, Y] = XY - YX for square matrices of equal size."""
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != y.shape or x.shape[0] != x.shape[1]:
        raise DimensionMismatchError(f"need equal square shapes: {x.shape}, {y.shape}")
    if np.iscomplexobj(x) != np.iscomplexobj(y):  # real with complex: half the flops
        r, c, sign = (x, y, 1.0) if np.isrealobj(x) else (y, x, -1.0)
        return sign * (commutator(r, c.real.copy()) + 1j * commutator(r, c.imag.copy()))
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
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return w, v


def unitary_exp(m: np.ndarray, theta: float) -> np.ndarray:
    """e^{-i theta M} for Hermitian M, via eigendecomposition."""
    w, v = hermitian_eig(m)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value s sqrt(lambda_max((M/s)^dagger (M/s))), s = max |M_ij|.

    The top eigenvalue of a PSD matrix is backward-stable (exact to O(N eps) relative),
    and the scaling rules out overflow and underflow. Non-finite entries raise ConvergenceError.
    """
    m = as_matrix(m)
    scale = float(np.max(np.abs(m)))
    if not np.isfinite(scale):
        raise ConvergenceError("spectral norm of a matrix with non-finite entries")
    if scale == 0.0:
        return 0.0
    m = m / scale
    try:
        top = np.linalg.eigvalsh(m.conj().T @ m)[-1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Gram eigenvalue solve failed: {exc}") from exc
    return scale * float(np.sqrt(max(top, 0.0)))


def unitarity_defect(u: np.ndarray) -> float:
    """|| U^dagger U - I ||_2."""
    u = as_matrix(u)
    return spectral_norm(u.conj().T @ u - np.eye(u.shape[1]))


def hermitian_circulant_symbol(first_row: np.ndarray) -> np.ndarray:
    """Real DFT symbol of the Hermitian circulant with first row c; NonHermitianError if complex.

    The eigenvector for frequency m is e^{2*pi*i*m*j/N}, so the eigenvalue
    is sum_r c_r e^{2*pi*i*m*r/N} = N * ifft(c)[m].
    """
    c = np.asarray(first_row, dtype=np.complex128).ravel()
    lam = c.size * np.fft.ifft(c)
    scale = float(np.max(np.abs(lam)))
    if scale > 0.0 and float(np.max(np.abs(lam.imag))) > 1e-10 * scale:
        raise NonHermitianError("circulant first row does not define a Hermitian matrix")
    return lam.real


def circulant_exp(first_row: np.ndarray, theta: float) -> np.ndarray:
    """e^{-i theta C} for the Hermitian circulant C with the given first row.

    Diagonalized by the DFT: the circulant with first column ifft(phases), O(N^2)
    instead of a dense eigendecomposition. Raises NonHermitianError if the
    circulant is not Hermitian (its DFT symbol must be real).
    """
    phases = np.exp(-1j * theta * hermitian_circulant_symbol(first_row))
    return circulant(np.fft.ifft(phases))


def circulant(first_column: np.ndarray) -> np.ndarray:
    """C[i, j] = c[(i - j) mod N], i.e. IDFT diag(fft(c)) DFT."""
    c = np.asarray(first_column).ravel()
    return c[(np.arange(c.size)[:, None] - np.arange(c.size)) % c.size]
