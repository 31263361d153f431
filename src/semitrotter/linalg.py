"""Matrix kernel: dense matrices and banded stencils.

Matrices are numpy arrays, row-major, square for all operator uses: float64 for real operators
(A, B, observables), complex128 for unitaries. Nothing here mutates its inputs, so results can be
shared freely. A Stencil is a banded periodic matrix kept as its taps, S[i, (i + r) mod N] = c_r
a scalar or one value per row i: FD's A and O are stencils, spectral ones are dense, and B is
the one-tap stencil of its diagonal. The bracket of two stencils is a stencil, so FD's
commutator chains never leave that form; numpy reads a stencil as its dense matrix where a
metric needs the matrix.

The spectral norm is the root of the Gram matrix's top eigenvalue (spectral_norm lists
every route and its accuracy). A stencil with one tap is a weighted shift, whose norm is
its largest |tap|. Any other stencil forms its Gram as a stencil, in O(taps^2 N); a
small one makes that Gram dense, and a large one never does (the banded path below). Small
or real dense Grams read the eigenvalue from a full eigenvalue solve. A large complex dense
Gram G, and every banded one, gets it from Lanczos started at a seeded random vector, which
reaches the top of the spectrum even when that eigenvalue is degenerate (as for the
commutator and unitary matrices the sweeps build), because a random start has a nonzero
component in the top eigenspace with probability one (Kuczynski & Wozniakowski, SIAM J.
Matrix Anal. Appl. 13, 1992). The Ritz value theta is a lower bound, whether or not Lanczos
converged, and a Cholesky factorization of theta (1 + tau) I - G proves the upper bound; for
a dense G that fails, the eigenvalue is read exactly from that shifted matrix. A banded G of
half-bandwidth w, its rows reordered 0, N - 1, 1, N - 2, ..., is a plain band of half-width
2w, factored in blocks in O(N w^2); that factor then drives a block shift-invert iteration
whose Rayleigh-Ritz value lands on lambda_max to rounding (Parlett, The Symmetric Eigenvalue
Problem, ch. 4 and 11). Where no shift has a factor, the Gram is made dense after all, if it
fits in memory. So no value rests on an iteration having converged.
"""

from __future__ import annotations

import os
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


class Stencil:
    """A banded periodic N x N matrix S[i, (i + r) mod N] = c_r[i], kept as its taps {r: c_r}.

    Each tap is a scalar or one value per row; taps whose offsets agree mod N add up. It has
    a shape and a dtype, and numpy reads it as its dense matrix (np.asarray). Its bracket with
    a stencil is a stencil, in O(taps_S taps_M N), and so is its Gram, in O(taps^2 N); @ applies
    it to a vector or an N x m block in O(taps N m). Every tap moves along the rows through _shift.
    """

    def __init__(self, taps: dict, n: int):
        for r, c in taps.items():
            if np.ndim(c) and np.shape(c) != (n,):
                raise DimensionMismatchError(f"tap {r} has shape {np.shape(c)}: a per-row tap of an N = {n} stencil has N values")
        self.taps, self.n, self.shape = taps, n, (n, n)
        self.dtype = np.result_type(0.0, *taps.values())

    def _shift(self, c, s: int):
        """c[(i + s) mod N] at every row i; a scalar tap is its own shift."""
        s %= self.n
        if s == 0 or np.ndim(c) == 0:
            return c
        return np.concatenate((c[s:], c[:s]))

    def _centred(self, r: int) -> int:
        """The offset of r mod N in (-N/2, N/2]."""
        k = r % self.n
        return k - self.n if 2 * k > self.n else k

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("a stencil's dense matrix is always a new array; copy=False cannot be met")
        out = np.zeros(self.shape, self.dtype)  # no taps: the zero matrix
        rows = np.arange(self.n)
        for r, c in self.taps.items():
            out[rows, (rows + r) % self.n] += c
        return out if dtype is None else out.astype(dtype, copy=False)

    def commutator(self, m):
        """[S, M]: a stencil for a stencil M, in O(taps_S taps_M N), else a matrix, in O(taps N^2).

        A dense M takes row i of SM as the sum of c_r[i] M[i + r] and column j of MS as that of
        M[:, j - r] c_r[j - r], _PANEL rows of the result at a time, so its temporaries are two
        _PANEL x N slices, not two N x N ones; each entry takes its terms in tap order, as a
        whole-matrix pass would. A stencil M = {q: d_q} gives taps at (r + q) mod N of
        c_r[i] d_q[i + r] - d_q[i] c_r[i + q], taken as
        c_r[i] (d_q[i + r] - d_q[i]) + d_q[i] (c_r[i] - c_r[i + q]): the differences of
        neighbouring taps cancel before the products, so smooth taps lose no digits to it
        and a scalar tap's own term is exactly 0. Two scalar taps commute and are skipped, and
        taps that cancel to exactly 0 are dropped: ad_B = [{0: b}, .] zeroes the offset-0 tap.
        """
        n = self.n
        if np.shape(m) != self.shape:
            raise DimensionMismatchError(f"need equal square shapes: {self.shape}, {np.shape(m)}")
        if isinstance(m, Stencil):
            out = {}
            for (r, c), (q, d) in product(self.taps.items(), m.taps.items()):
                if np.ndim(c) == np.ndim(d) == 0:
                    continue
                k = (r + q) % n
                tap = c * (self._shift(d, r) - d) + d * (c - self._shift(c, q))
                out[k] = out[k] + tap if k in out else tap
            return Stencil({k: tap for k, tap in out.items() if tap.any()}, n)
        m = as_matrix(m)
        out = np.zeros(self.shape, np.result_type(m, *self.taps.values()))
        # a multiple of I commutes with M
        taps = [(r % n, np.broadcast_to(c, (n,))) for r, c in self.taps.items() if r % n or np.ndim(c)]
        for start in range(0, n, _PANEL):
            stop = min(start + _PANEL, n)
            for k, c in taps:
                for dst, src in ((slice(0, n - k), slice(k, n)), (slice(n - k, n), slice(0, k))):
                    lo, hi = max(dst.start, start), min(dst.stop, stop)  # the block's rows in dst
                    if lo < hi:
                        shift = src.start - dst.start
                        out[lo:hi] += c[lo:hi, None] * m[lo + shift : hi + shift]
                    out[start:stop, src] -= m[start:stop, dst] * c[dst]
        return out

    def gram(self) -> Stencil:
        """S^dagger S, G[j, j + q - r] += conj(c_r[j - r]) c_q[j - r], with its offsets in (-N/2, N/2]."""
        out = {}
        for (r, c), (q, d) in product(self.taps.items(), repeat=2):
            k = self._centred(q - r)
            g = self._shift(np.conj(c) * d, -r)
            out[k] = out[k] + g if k in out else g
        return Stencil(out, self.n)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """S x for a vector or an N x m block: one padded slice of x per tap, offsets added in ascending order."""
        n = self.n
        taps = sorted(((self._centred(r), c) for r, c in self.taps.items()), key=lambda tap: tap[0])
        w = max((abs(k) for k, _ in taps), default=0)
        padded = np.concatenate((x[n - w :], x, x[:w]))  # padded[w + i + k] = x[(i + k) mod N]
        out = np.zeros(x.shape, np.result_type(self.dtype, x))
        for k, c in taps:
            out += np.reshape(c, np.shape(c) + (1,) * (x.ndim - 1)) * padded[w + k : w + k + n]
        return out

    def abs_sums(self) -> tuple:
        """The row and column sums of |S|'s taps: row i adds |c_r[i]|, column j |c_r[j - r]|."""
        mags = {r: np.abs(c) for r, c in self.taps.items()}
        return sum(mags.values()), sum(self._shift(g, -r) for r, g in mags.items())


def is_finite(op) -> bool:
    """True when every tap of a stencil, or every entry of a matrix, is finite."""
    return all(np.isfinite(c).all() for c in (op.taps.values() if isinstance(op, Stencil) else [op]))


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


_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))  # about 1.5e-154


def unitary_exp(m: np.ndarray, theta: float) -> np.ndarray:
    """e^{-i theta M} for Hermitian M, via eigendecomposition; real V takes two real products.

    Entries of V below sqrt(tiny) are set to 0 first, so that no product of two kept entries
    is subnormal: eigenvectors localized in the wells of a steep potential (V/h at N = 1024)
    hold thousands of subnormal entries, and BLAS takes several times longer on them. Each
    dropped term of an entry of the result is below sqrt(tiny) in size.
    """
    w, v = hermitian_eig(m)
    v[np.abs(v) < _SQRT_TINY] = 0.0
    phases = np.exp(-1j * theta * w)
    if np.iscomplexobj(v):
        return (v * phases) @ v.conj().T
    out = np.empty(v.shape, dtype=np.complex128)
    out.real = (v * phases.real) @ v.T
    out.imag = (v * phases.imag) @ v.T
    return out


# Complex Grams with more rows than this take the Lanczos path. Per whole norm of the
# h-sweep's W - I and [O, W - I] (2-core x86-64, OpenBLAS 0.3.31; medians of thirty
# norms in each of three rounds), eigenvalue solve against Lanczos plus the in-place
# certificate: 1.4-2.0 ms against 3.1-4.3 ms at N = 96, 3.1-3.2 against 3.7-5.4 ms at
# N = 128, 7.0-9.7 against 10.1-10.4 ms at N = 192, 18-21 against 16-18 ms at N = 256
# (at the last re-timing, 0.31-0.33 s against 0.09-0.14 s at N = 1024). Real Grams
# always keep the solve: the real tridiagonalization costs about a third of the complex
# one (82 ms against 268 ms at N = 1024).
_EIGVALSH_MAX_N = 192
# Columns per panel of a dense Gram (_dense_gram) and of its certificate's factor
# (_certified_top). On an N = 1024 h-sweep [O, W - I] (same machine, medians of nine),
# panels of 64, 96, 128 and 192 columns built the Gram in 79-99, 79-94, 85-94 and
# 81-87 ms, against 117-129 ms for the full product, and factored in 75, 77, 72 and
# 79 ms (92 ms at 256, 80-88 ms for np.linalg.cholesky). At 128 a panel is a fifth of
# an N x N buffer at N = 600 and an eighth at N = 1024.
_PANEL = 128
_TAU = 1e-10  # relative accuracy of the certified top eigenvalue
_LANCZOS_MAX_STEPS = 200  # the sweep matrices need 16-108 up to N = 1024; the certificate judges a run that stops here
_LANCZOS_CHECK_EVERY = 4  # a Ritz solve costs more than a step at N = 256


def spectral_norm(m) -> float:
    """Largest singular value s sqrt(lambda_max((M/s)^dagger (M/s))), s = max |M_ij| or max |tap|.

    The scaling rules out overflow and underflow. Routes, with the accuracy of each:
    - a stencil with one tap is a weighted shift, whose singular values are its |c_i|:
      the norm is s, exactly;
    - any other stencil M forms its Gram from the taps, G[j, j + q - r] += conj(c_r[j - r])
      c_q[j - r] in O(taps^2 N), instead of the N^3 product. With more than 256 rows it
      takes the banded path (_banded_top): lambda_max is certified to lie within tau
      (1e-10) relative of the value, or 16 tau where the shift had to widen, plus O(N eps),
      and the shift-invert refinement puts the value within a few eps of it (within 4e-15
      of an SVD on the sweeps' words at N = 512 and 1024). Where no shift has a factor,
      the Gram is made dense and takes the route of a dense Gram below (ConvergenceError
      if it and eigvalsh's working copy need more than the machine's physical memory);
    - a dense M forms its Gram by panels (_dense_gram), the one N x N buffer made beside M.
      A real or small dense Gram takes a full eigenvalue solve, exact to O(N eps)
      relative (the top eigenvalue of a PSD matrix is backward-stable);
    - a large complex dense Gram takes a certified Lanczos value, within tau relative
      plus O(N eps) of lambda_max, its certificate factored in the Gram's own buffer.
    The norm's relative error is about half that of lambda_max. Non-finite entries or taps
    raise ConvergenceError.
    """
    stencil = isinstance(m, Stencil)
    if not stencil:
        m = as_matrix(m)
    pieces = m.taps.values() if stencil else (m[i : i + _PANEL] for i in range(0, m.shape[0], _PANEL))
    scale = float(np.max([np.max(np.abs(c), initial=0.0) for c in pieces], initial=0.0))
    if not np.isfinite(scale):
        raise ConvergenceError("spectral norm of a matrix with non-finite entries")
    if scale == 0.0:  # the zero or empty M has norm 0
        return 0.0
    if stencil:
        if len(m.taps) == 1:  # row i holds c[i] alone, in a column of its own
            return scale
        gram = Stencil({r: c / scale for r, c in m.taps.items()}, m.n).gram()
    else:
        gram = _dense_gram(m, scale)
    del m  # frees a copy that as_matrix made of the input (another dtype, a list)
    try:
        top = _banded_top(gram) if stencil and gram.n > _STENCIL_DENSE_MAX_N else None
        if top is None:
            need = 2 * gram.shape[0] ** 2 * gram.dtype.itemsize  # the dense Gram and eigvalsh's working copy
            if stencil and need > _physical_memory():
                raise ConvergenceError(
                    f"the dense Gram of an N = {gram.n} stencil needs {need} bytes, "
                    f"more than the machine's {_physical_memory()} bytes"
                )
            gram = np.asarray(gram)
            if np.isrealobj(gram) or gram.shape[0] <= _EIGVALSH_MAX_N:
                top = np.linalg.eigvalsh(gram)[-1]
            else:
                top = _certified_top(gram, _lanczos_top(gram))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Gram eigenvalue solve failed: {exc}") from exc
    return scale * float(np.sqrt(max(top, 0.0)))


def _dense_gram(m: np.ndarray, scale: float) -> np.ndarray:
    """(M/s)^dagger (M/s), built by row panels of its lower block triangle in one new array.

    Row panel I is (M[:, I] / s / s)^dagger M[:, :stop(I)]: no scaled copy of M is made, only
    one N x _PANEL left factor, and about half the flops of the full product are spent. The
    column above panel I's diagonal block is its mirror, and that block is replaced by its
    Hermitian part, so G is exactly Hermitian. Dividing by s twice keeps the left factor
    finite for any finite s, where 1/s^2 overflows once s is below about 1e-154 (and s^2 above
    1e154); every product of the two factors is then at most 1 in size.
    A Gram of one panel takes (M/s)^dagger (M/s) from one scaled copy of M, which is no
    larger than a panel, and so has the same bits as a stencil's Gram made dense.
    """
    n = m.shape[1]
    if n <= _PANEL:
        m = m / scale
        return m.conj().T @ m
    gram, panel = np.empty((n, n), m.dtype), np.empty((m.shape[0], min(n, _PANEL)), m.dtype)
    for start in range(0, n, _PANEL):
        stop = min(start + _PANEL, n)
        left = np.divide(m[:, start:stop], scale, out=panel[:, : stop - start])
        left /= scale
        np.matmul(np.conjugate(left, out=left).T, m[:, :stop], out=gram[start:stop, :stop])
        diagonal = gram[start:stop, start:stop]
        diagonal += diagonal.conj().T  # its Hermitian part, so G is exactly Hermitian
        diagonal /= 2
        for j in range(0, start, _PANEL):  # square blocks: numpy copies the input of an overlapping view
            np.conjugate(gram[start:stop, j : j + _PANEL].T, out=gram[j : j + _PANEL, start:stop])
    return gram


def _physical_memory() -> int:
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _lanczos_top(gram: np.ndarray) -> float:
    """Top Ritz value of a Hermitian PSD matrix, a lower bound on lambda_max.

    Lanczos with full reorthogonalization (two Gram-Schmidt passes) from a start
    vector seeded afresh on every call, so a value never depends on earlier calls;
    a real matrix keeps a real start vector and basis. The basis doubles as steps
    are taken. Stops once the top Ritz pair's residual is at most tau times its value.
    """
    n = gram.shape[0]
    steps = min(n, _LANCZOS_MAX_STEPS)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    if np.iscomplexobj(gram):
        v = v + 1j * rng.standard_normal(n)
    v /= np.linalg.norm(v)
    basis = np.empty((1, n), v.dtype)
    alpha, beta = np.empty(steps), np.empty(steps)
    for k in range(steps):
        if k == basis.shape[0]:
            basis = np.concatenate((basis, np.empty((min(k, steps - k), n), v.dtype)))
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

    The factor is a pass/fail test, so it is made in place, panel by panel of _PANEL columns
    (left-looking; Golub & Van Loan, Matrix Computations, sec. 4.2): each panel first takes
    away the product of the factor's columns to its left, then its diagonal block is
    factored and the rows below it solved through _right_solve, never through an explicit
    inverse (backward stable, Higham, Accuracy and Stability of Numerical Algorithms, ch. 10,
    where sigma I - G has a condition number near 1 / tau). Only the blocks below the diagonal
    blocks are written, so the shifted matrix's upper triangle, diagonal included, is still
    whole when a block fails, and the exact eigenvalue is read from it.
    """
    shift = theta * (1.0 + _TAU)
    np.negative(gram, out=gram)
    gram[np.diag_indices_from(gram)] += shift
    n = gram.shape[0]
    try:
        for start in range(0, n, _PANEL):
            stop = min(start + _PANEL, n)
            diagonal, below = gram[start:stop, start:stop], gram[stop:, start:stop]
            if start:  # take away the product of the factor's columns left of the panel
                left = gram[start:, :start] @ gram[start:stop, :start].conj().T
                diagonal = diagonal - left[: stop - start]
                below -= left[stop - start :]
                del left
            below[...] = _right_solve(below, np.linalg.cholesky(diagonal))
    except np.linalg.LinAlgError:
        return shift - float(np.linalg.eigvalsh(gram, UPLO="U")[0])
    return theta


# Stencil Grams with more rows than this take the banded path. Per norm of the default
# comm-sweep's four words (2-core x86-64, OpenBLAS 0.3.31; median of twelve norms in each of
# three rounds), eigvalsh of the dense Gram against the folded banded path: 3.2-5.4 ms against
# 4.0-7.8 ms at N = 256, 7.7-12 ms against 5.2-5.9 ms at N = 384, 15-19 ms against 6.7-6.9 ms
# at N = 512, 95-116 ms against 13-14 ms at N = 1024.
_STENCIL_DENSE_MAX_N = 256
# Rows per Cholesky block of the folded band, raised to its half-width 2w where that is wider.
# In the same runs, blocks of 16, 32 and 64 rows took 7.4, 6.7-7.0 and 7.3-7.5 ms at N = 512
# and 14-15, 13-15 and 14-15 ms at N = 1024; a block's cost is mostly call overhead.
_BLOCK = 32
# Columns of the shift-invert block: the sweeps' words have up to 8 top singular values
# within 5e-13 of each other (then a 5 % gap), and the block must hold that cluster.
_REFINE_WIDTH = 16
# Inverse iterations before Rayleigh-Ritz; each scales the share of an eigenvalue at
# distance d below the shift by (sigma - lambda_max) / d. One already read the sweeps'
# words at N = 512 and 1024 as closely as two (within 6e-15 of their chains folded in long
# double); the second covers a top spectrum with no gap below its cluster.
_REFINE_STEPS = 2
_WIDENINGS = (1, 4, 16)  # the certificate's shift is theta (1 + k tau), each k tried in turn


def _right_solve(x: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """X L^-dagger for a lower triangular L, as (conj(L)^-1 X^T)^T: no conjugate copy of X."""
    return np.linalg.solve(lower.conj(), x.T).T


def _fold(n: int) -> np.ndarray:
    """The rows 0, N - 1, 1, N - 2, ...: (P M P^T)[p, q] = M[fold[p], fold[q]]."""
    p = np.arange(n)
    return np.where(p % 2, n - 1 - p // 2, p // 2)


def _folded_cholesky(gram: Stencil, sigma: float, b: int) -> tuple[list, list]:
    """The block Cholesky factor L of P (sigma I - G) P^T, P the fold; LinAlgError unless it is positive definite.

    The fold puts rows i and i + k mod N at most 2|k| apart, so G's taps, at offsets k with
    2|k| <= b, make it a plain band of half-width b (Golub & Van Loan, Matrix Computations,
    sec. 4.3). Its rows split into blocks of b rows, the last taking the remainder, so block
    i meets only blocks i - 1 and i + 1 and L is block bidiagonal: O(N b^2) work, one dense
    block where b >= N. Returns L's diagonal blocks and its subdiagonal blocks L[i + 1, i].
    """
    n = gram.n
    fold = _fold(n)
    offsets = np.array(list(gram.taps))[:, None]
    cols = np.argsort(fold)[(fold + offsets) % n]  # tap t of folded row p sits in folded column cols[t, p]
    taps = np.array([np.broadcast_to(g, (n,))[fold] for g in gram.taps.values()], gram.dtype)
    diag, sub = [], []
    for start in range(0, n, b):
        stop, lo = min(start + b, n), max(start - b, 0)
        t, i = np.nonzero(cols[:, start:stop] < stop)  # the entries left of the next block
        rows = np.zeros((stop - start, stop - lo), gram.dtype)
        rows[i, cols[t, start + i] - lo] = -taps[t, start + i]
        d = rows[:, start - lo :]
        d[np.diag_indices(stop - start)] += sigma
        if start:
            below = _right_solve(rows[:, : start - lo], diag[-1])
            sub.append(below)
            d = d - below @ below.conj().T
        diag.append(np.linalg.cholesky(d))
    return diag, sub


def _folded_solve(factor: tuple[list, list], y: np.ndarray) -> np.ndarray:
    """X with (sigma I - G) X = Y: block forward and back substitution on P Y with L from _folded_cholesky, then P^T."""
    diag, sub = factor
    fold, b = _fold(y.shape[0]), diag[0].shape[0]
    blocks = [slice(start, start + b) for start in range(0, y.shape[0], b)]
    x = y[fold]
    for i, block in enumerate(blocks):  # L Z = P Y
        if i:
            x[block] -= sub[i - 1] @ x[blocks[i - 1]]
        x[block] = np.linalg.solve(diag[i], x[block])
    for i in range(len(blocks) - 1, -1, -1):  # L^dagger P X = Z
        if i + 1 < len(blocks):
            x[blocks[i]] -= sub[i].conj().T @ x[blocks[i + 1]]
        x[blocks[i]] = np.linalg.solve(diag[i].conj().T, x[blocks[i]])
    return x[np.argsort(fold)]


def _banded_top(gram: Stencil) -> float | None:
    """lambda_max of a stencil's Gram from its taps, never making it dense; None where it cannot.

    Lanczos on the band gives theta <= lambda_max, whether it converged or spent its step
    budget. A Cholesky factor of the folded sigma I - G (_folded_cholesky) with
    sigma = theta (1 + tau), widened to 4 and 16 tau if it fails, proves lambda_max <= sigma.
    Inverse iteration with that factor, which magnifies the top of the spectrum by
    1 / (sigma - lambda), from a seeded N x 16 block, then Rayleigh-Ritz with G, gives
    rho <= lambda_max, which no longer sits inside a rounding-split top cluster as a Ritz
    value may (theta alone normed the sweeps' last two words up to 1.6e-13 low at N = 512
    and 1e-12 at N = 1024); max(theta, rho) is returned.
    None when no shift has a factor; a band of any width factors, as one dense block where 2w >= N.
    """
    b = max(_BLOCK, 2 * max(abs(k) for k in gram.taps))
    theta = _lanczos_top(gram)
    for widening in _WIDENINGS:
        try:
            factor = _folded_cholesky(gram, theta * (1.0 + widening * _TAU), b)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        return None
    rng = np.random.default_rng(0)
    x = rng.standard_normal((gram.n, _REFINE_WIDTH))
    if np.iscomplexobj(gram):
        x = x + 1j * rng.standard_normal((gram.n, _REFINE_WIDTH))
    for _ in range(_REFINE_STEPS):
        x = np.linalg.qr(_folded_solve(factor, x))[0]
    return max(theta, float(np.linalg.eigvalsh(x.conj().T @ (gram @ x))[-1]))


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
