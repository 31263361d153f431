"""Matrix kernel: dense matrices and banded stencils.

Matrices are numpy arrays, row-major, square for all operator uses: float64 for real operators
(A, B, observables), complex128 for unitaries. Nothing here mutates its inputs, so results can be
shared freely. A stencil is a banded periodic matrix given by its taps {r: c_r}, with S[i, (i + r)
mod N] = c_r a scalar or one value per row i: FD's A and O are stencils, spectral ones are dense.
The bracket of two stencils is a stencil, so FD's commutator chains never leave that form; it
carries its N, so numpy reads it as its dense matrix. stencil_matrix makes either form dense
where a metric needs the matrix.

The spectral norm is the root of the Gram matrix's top eigenvalue. A stencil's
Gram is formed from its taps, in O(taps^2 N), and only that Gram is made dense.
Small or real Grams read it from a full eigenvalue solve. A large complex Gram G gets
it from Lanczos started at a seeded random vector, which reaches the top of
the spectrum even when that eigenvalue is degenerate (as for the commutator
and unitary matrices the sweeps build), because a random start has a nonzero
component in the top eigenspace with probability one (Kuczynski &
Wozniakowski, SIAM J. Matrix Anal. Appl. 13, 1992). The Ritz value theta is a
lower bound, and a Cholesky factorization of theta (1 + tau) I - G proves
the upper bound; if it fails, the eigenvalue is read exactly from that
shifted matrix. So no value rests on the iteration having converged.
"""

from __future__ import annotations

from itertools import product

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
        out = np.empty(x.shape, dtype=np.complex128)
        if np.isrealobj(x):
            out.real = commutator(x, y.real.copy())
            out.imag = commutator(x, y.imag.copy())
        else:
            out.real = commutator(x.real.copy(), y)
            out.imag = commutator(x.imag.copy(), y)
        return out
    return x @ y - y @ x


def _size(taps) -> int:
    """N read from a stencil's per-row taps; 0 when every tap is a scalar."""
    return max((np.size(c) for c in taps if np.ndim(c)), default=0)


class _Stencil(dict):
    """A bracket's taps with their N: numpy reads it as its dense matrix (np.asarray, shape)."""

    def __init__(self, taps: dict, n: int):
        super().__init__(taps)
        self.shape = (n, n)

    def __array__(self, dtype=None, copy=None):
        m = stencil_matrix(self, self.shape[0])
        return m if dtype is None else m.astype(dtype)


def stencil_commutator(stencil: dict, m):
    """[S, M] in O(taps N^2): row i of SM adds c_r[i] M[i + r], column j of MS M[:, j - r] c_r[j - r].

    A stencil M = {q: d_q} gives the stencil [S, M] in O(taps_S taps_M N), with taps at
    (r + q) mod N of c_r[i] d_q[i + r] - d_q[i] c_r[i + q], taken as
    c_r[i] (d_q[i + r] - d_q[i]) + d_q[i] (c_r[i] - c_r[i + q]): the differences of
    neighbouring taps cancel before the products, so smooth taps lose no digits to it
    and a scalar tap's own term is exactly 0. Two scalar taps commute, so two stencils
    of scalar taps give {}; otherwise the per-row taps give N, and the result has it.
    """
    if isinstance(m, dict):
        n = _size((*stencil.values(), *m.values()))
        if n == 0:
            return {}
        out = {}
        for (r, c), (q, d) in product(stencil.items(), m.items()):
            if np.ndim(c) == np.ndim(d) == 0:
                continue
            k = (r + q) % n
            tap = c * (np.roll(d, -r) - d) + d * (c - np.roll(c, -q))
            out[k] = out[k] + tap if k in out else tap
        return _Stencil(out, n)
    n = m.shape[0]
    out = np.zeros((n, n), np.result_type(m, *stencil.values()))
    for r, c in stencil.items():
        k = r % n
        if k == 0 and np.ndim(c) == 0:
            continue  # a multiple of I commutes with M
        c = np.broadcast_to(c, (n,))
        for dst, src in ((slice(0, n - k), slice(k, n)), (slice(n - k, n), slice(0, k))):
            out[dst] += c[dst, None] * m[src]
            out[:, src] -= m[:, dst] * c[dst]
    return out


def stencil_matrix(stencil, n: int) -> np.ndarray:
    """The dense N x N matrix of a stencil, taps whose offsets agree mod N adding up; a matrix is returned as is."""
    if not isinstance(stencil, dict):
        return stencil
    out = np.zeros((n, n), np.result_type(0.0, *stencil.values()))  # {} is the zero matrix
    for r, c in stencil.items():
        out[np.arange(n), (np.arange(n) + r) % n] += c
    return out


def is_finite(op) -> bool:
    """True when every tap of a stencil, or every entry of a matrix, is finite."""
    return all(np.isfinite(c).all() for c in (op.values() if isinstance(op, dict) else [op]))


def hermiticity_defect(m: np.ndarray) -> float:
    """max |M - M^dagger| relative to max |M| (0 for the zero and the empty matrix)."""
    m = as_matrix(m)
    scale = float(np.max(np.abs(m), initial=0.0))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(m - m.conj().T))) / scale


def _require_hermitian(m: np.ndarray, tol: float = 1e-10) -> None:
    defect = hermiticity_defect(m)
    if defect > tol:
        raise NonHermitianError(f"matrix is not Hermitian (relative defect {defect:.3e})")


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition M = V diag(w) V^dagger of a Hermitian matrix.

    Returns (w, V) with w real ascending and V unitary. Non-finite entries raise
    ConvergenceError (eigh reads one triangle; a NaN passes the Hermiticity check).
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"not square: {m.shape}")
    if not np.isfinite(m).all():
        raise ConvergenceError("eigendecomposition of a matrix with non-finite entries")
    _require_hermitian(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    return w, v


def unitary_exp(m: np.ndarray, theta: float) -> np.ndarray:
    """e^{-i theta M} for Hermitian M, via eigendecomposition; real V takes two real products."""
    w, v = hermitian_eig(m)
    phases = np.exp(-1j * theta * w)
    if np.iscomplexobj(v):
        return (v * phases) @ v.conj().T
    out = np.empty(v.shape, dtype=np.complex128)
    out.real = (v * phases.real) @ v.T
    out.imag = (v * phases.imag) @ v.T
    return out


# Complex Grams with more rows than this take the Lanczos path. Eigenvalue solve
# against Lanczos plus certificate, on the h-sweep's matrices (2-core x86-64,
# OpenBLAS 0.3.31): 1.4-1.9 ms against 1.1-3.5 ms at N = 128, 11-13 ms against
# 5-10 ms at N = 256, 0.31-0.33 s against 0.09-0.14 s at N = 1024. Real Grams
# always keep the solve: the real tridiagonalization costs about a third of
# the complex one (82 ms against 268 ms at N = 1024).
_EIGVALSH_MAX_N = 128
_TAU = 1e-10  # relative accuracy of the certified top eigenvalue
_LANCZOS_MAX_STEPS = 200  # the sweep matrices need 16-108; the certificate catches a shortfall
_LANCZOS_CHECK_EVERY = 4  # a Ritz solve costs more than a step at N = 256


def spectral_norm(m) -> float:
    """Largest singular value s sqrt(lambda_max((M/s)^dagger (M/s))), s = max |M_ij| or max |tap|.

    The scaling rules out overflow and underflow. A stencil M (one value per row in some
    tap) forms its Gram from the taps, G[j, j + q - r] += conj(c_r[j - r]) c_q[j - r] in
    O(taps^2 N), instead of the N^3 product. Real and small Grams take a full
    eigenvalue solve, exact to O(N eps) relative (the top eigenvalue of a PSD matrix is
    backward-stable). Large complex Grams take a certified Lanczos value, within 1e-10
    (tau) relative plus O(N eps) of lambda_max, so the norm is within half that.
    Non-finite entries or taps raise ConvergenceError.
    """
    stencil = isinstance(m, dict)
    if not stencil:
        m = as_matrix(m)
    scale = float(np.max([np.max(np.abs(c), initial=0.0) for c in (m.values() if stencil else [m])], initial=0.0))
    if not np.isfinite(scale):
        raise ConvergenceError("spectral norm of a matrix with non-finite entries")
    if scale == 0.0:  # the zero or empty M has norm 0
        return 0.0
    if stencil:
        gram = _stencil_gram({r: c / scale for r, c in m.items()})
    else:
        m = m / scale
        gram = m.conj().T @ m
    del m  # the certificate's Cholesky buffers take the place of the scaled copy
    try:
        if np.isrealobj(gram) or gram.shape[0] <= _EIGVALSH_MAX_N:
            top = np.linalg.eigvalsh(gram)[-1]
        else:
            top = _certified_top(gram, _lanczos_top(gram))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Gram eigenvalue solve failed: {exc}") from exc
    return scale * float(np.sqrt(max(top, 0.0)))


def _stencil_gram(taps: dict) -> np.ndarray:
    """The dense Gram M^dagger M of a stencil M whose per-row taps give N."""
    n = _size(taps.values())
    if n == 0:
        raise DimensionMismatchError("a stencil's size is read from its per-row taps; every tap is a scalar")
    gram = {}
    for (r, c), (q, d) in product(taps.items(), repeat=2):
        k = (q - r) % n
        g = np.roll(np.conj(c) * d, r)
        gram[k] = gram[k] + g if k in gram else g
    return stencil_matrix(gram, n)


def _lanczos_top(gram: np.ndarray) -> float:
    """Top Ritz value of a Hermitian PSD matrix, a lower bound on lambda_max.

    Lanczos with full reorthogonalization (two Gram-Schmidt passes) from a start
    vector seeded afresh on every call, so a value never depends on earlier calls.
    Stops once the top Ritz pair's residual is at most tau times its value.
    """
    n = gram.shape[0]
    steps = min(n, _LANCZOS_MAX_STEPS)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    basis = np.empty((steps, n), dtype=np.complex128)
    alpha, beta = np.empty(steps), np.empty(steps)
    for k in range(steps):
        basis[k] = v
        w = gram @ v
        alpha[k] = np.vdot(v, w).real
        q = basis[: k + 1]
        for _ in range(2):
            w -= (q @ w.conj()).conj() @ q
        b = float(np.linalg.norm(w))
        stop = b == 0.0 or k + 1 == steps  # an invariant subspace, or the step budget
        if stop or (k + 1) % _LANCZOS_CHECK_EVERY == 0:
            ritz, vecs = np.linalg.eigh(
                np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            )
            if stop or b * abs(vecs[-1, -1]) <= _TAU * ritz[-1]:
                break
        beta[k] = b
        v = w / b
    return float(ritz[-1])


def _certified_top(gram: np.ndarray, theta: float) -> float:
    """lambda_max of a Hermitian PSD Gram, given a Ritz value theta <= lambda_max.

    Overwrites gram with theta (1 + tau) I - gram. If that has a Cholesky factor,
    lambda_max <= theta (1 + tau) (1 + O(N eps)) and theta is returned; otherwise the
    exact top eigenvalue is read off the shifted matrix.
    """
    shift = theta * (1.0 + _TAU)
    np.negative(gram, out=gram)
    gram[np.diag_indices_from(gram)] += shift
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return shift - float(np.linalg.eigvalsh(gram)[0])
    return theta


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


def circulant(first_column: np.ndarray) -> np.ndarray:
    """C[i, j] = c[(i - j) mod N], i.e. IDFT diag(fft(c)) DFT; row i reversed is c doubled from i + 1."""
    c = np.asarray(first_column).ravel()
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((c, c)), c.size)[1:, ::-1].copy()
