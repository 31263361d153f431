"""Matrix kernel: dense matrices and banded stencils.

Matrices are numpy arrays, square for all operator uses: float64 for real operators (A, B,
observables), complex128 for unitaries, which the evolution builds Fortran-ordered. Nothing here
mutates its inputs, so results can be shared freely. A Stencil is a banded periodic matrix kept
as its taps, S[i, (i + r) mod N] = c_r[i], each tap N values: FD's A and O are
stencils, spectral ones are dense, and B is the one-tap stencil of its diagonal. The bracket of
two stencils is a stencil, so FD's commutator chains never leave that form; numpy reads a
stencil as its dense matrix where a metric needs the matrix.

The spectral norm is the root of the Gram matrix's top eigenvalue; spectral_norm lists its
routes. A stencil with one tap is a weighted shift, whose norm is its largest |tap|. Any other
stencil forms its Gram as a stencil, in O(taps^2 N), a dense matrix by panels. Every Gram, dense
or banded, real or complex, of any size, takes one certified pipeline (_certified_top):
Lanczos from a seeded random start gives theta <= lambda_max, also where that eigenvalue is
degenerate (as for the sweeps' commutator and unitary matrices), since a random start has a
nonzero component in the top eigenspace with probability one (Kuczynski & Wozniakowski, SIAM J.
Matrix Anal. Appl. 13, 1992); a Cholesky factor of sigma I - G, sigma = theta (1 + tau), proves
lambda_max <= sigma, and shift-invert with that factor reads lambda_max within a few eps. A
form supplies only its factor, one block Cholesky on two patterns, and one block substitution
solves with either: a dense Gram's is made in its own buffer, and a banded Gram of half-width w,
rows reordered 0, N - 1, 1, N - 2, ..., is a plain band of half-width 2w, factored in O(N w^2).
Where no shift factors, the dense Gram's eigenvalues are solved after all. So no value rests on
an iteration having converged.
"""

from __future__ import annotations

import os
from functools import partial
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

    Each tap is an array of N values, one per row; a scalar c given for a tap is stored as
    np.full(N, c), of c's dtype. Taps whose offsets agree mod N add up. It has a shape and a
    dtype, and numpy reads it as its dense matrix (np.asarray). Its bracket with a stencil is a
    stencil, in O(taps_S taps_M N), and so is its Gram, in O(taps^2 N); @ applies it to a vector
    or an N x m block in O(taps N m). Every tap moves along the rows through _shift.
    """

    def __init__(self, taps: dict, n: int):
        self.taps = {r: np.asarray(c) if np.ndim(c) else np.full(n, c) for r, c in taps.items()}
        for r, c in self.taps.items():
            if c.shape != (n,):
                raise DimensionMismatchError(f"tap {r} has shape {c.shape}: a tap of an N = {n} stencil has N values")
        self.n, self.shape = n, (n, n)
        self.dtype = np.result_type(0.0, *self.taps.values())

    def _shift(self, c, s: int):
        """c[(i + s) mod N] at every row i."""
        s %= self.n
        return np.concatenate((c[s:], c[:s])) if s else c

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
        and a constant tap's own term is exactly 0. Taps that cancel to exactly 0 are dropped:
        two constant taps commute, and ad_B = [{0: b}, .] zeroes the offset-0 tap.
        """
        n = self.n
        if np.shape(m) != self.shape:
            raise DimensionMismatchError(f"need equal square shapes: {self.shape}, {np.shape(m)}")
        if isinstance(m, Stencil):
            out = {}
            for (r, c), (q, d) in product(self.taps.items(), m.taps.items()):
                k = (r + q) % n
                tap = c * (self._shift(d, r) - d) + d * (c - self._shift(c, q))
                out[k] = out[k] + tap if k in out else tap
            return Stencil({k: tap for k, tap in out.items() if tap.any()}, n)
        m = as_matrix(m)
        out = np.zeros(self.shape, np.result_type(m, *self.taps.values()))
        for start in range(0, n, _PANEL):
            stop = min(start + _PANEL, n)
            for r, c in self.taps.items():
                k = r % n
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
            out += c.reshape((n,) + (1,) * (x.ndim - 1)) * padded[w + k : w + k + n]
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


def hermitian_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition M = V diag(w) V^dagger of a Hermitian matrix.

    Returns (w, V) with w real ascending and V unitary. Non-finite entries raise
    ConvergenceError (eigh reads one triangle; a NaN passes the Hermiticity check).
    Entries of V below sqrt(tiny) are set to 0, so that no product of two kept entries is
    subnormal: eigenvectors localized in the wells of a steep potential (V/h at N = 1024)
    hold thousands of subnormal entries, and BLAS takes several times longer on them. Each
    term that a product with V then drops is below sqrt(tiny) in size.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"not square: {m.shape}")
    if not np.isfinite(m).all():
        raise ConvergenceError("eigendecomposition of a matrix with non-finite entries")
    defect = hermiticity_defect(m)
    if defect > 1e-10:
        raise NonHermitianError(f"matrix is not Hermitian (relative defect {defect:.3e})")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition failed: {exc}") from exc
    for start in range(0, len(v), _PANEL):  # by row panels: no N x N temporary
        rows = v[start : start + _PANEL]
        rows[np.abs(rows) < _SQRT_TINY] = 0.0
    return w, v


_SQRT_TINY = float(np.sqrt(np.finfo(np.float64).tiny))  # about 1.5e-154


def unitary_exp(m: np.ndarray, theta: float) -> np.ndarray:
    """e^{-i theta M} for Hermitian M: V diag(e^{-i theta w}), made in the result's buffer, times V^dagger there.

    The result is Fortran-ordered, so matmul_by_rows takes a real V by one real product per
    panel: beyond M, V, the result and one panel are alive, 1.63 complex N x N buffers at N = 1024
    (3.13 for a complex V). No sweep calls it, since the evolution keeps the exact propagator as
    H's real eigenvectors and N phases; it is the exact propagator of the tests, of two demos and
    of acceptance criterion 8, and stays as their reference implementation.
    """
    w, v = hermitian_eig(m)
    out = np.multiply(v, np.exp(-1j * theta * w), order="F")
    return matmul_by_rows(out, v.conj().T, out=out)


def matmul_by_rows(z: np.ndarray, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Z R for a complex Z, by _PANEL-row panels, into out: a new complex array, or Z itself.

    Z and out are Fortran-ordered complex128, the layout of every evolution buffer; out, when
    new, is made so. Row panel i of Z R reads row panel i of Z alone, so it may be written back
    over it. A complex R takes one complex product per panel. A real R takes one real product
    per panel, where numpy's matmul would cast R to a complex copy for every product:
    (Z R)^T = R^T Z^T, and the real view of the C-ordered Z^T holds Z's row panel as 2 _PANEL
    contiguous columns of re/im pairs. Its only temporary is one panel's product, 2 _PANEL N
    floats. Any other Z or out (C-ordered, real, complex64) takes numpy's matmul whole.
    """
    if out is None:
        out = np.empty((z.shape[0], r.shape[1]), np.complex128, order="F")
    if z.dtype != np.complex128 or not (z.flags.f_contiguous and out.flags.f_contiguous):
        return np.matmul(z, r, out=out)
    rows = min(_PANEL, z.shape[0])
    if np.iscomplexobj(r):
        panel = np.empty((rows, r.shape[1]), np.complex128, order="F")
        for start in range(0, z.shape[0], _PANEL):
            block = z[start : start + _PANEL]
            out[start : start + _PANEL] = np.matmul(block, r, out=panel[: len(block)])
        return out
    z_t, out_t = z.T.view(np.float64), out.T.view(np.float64)  # column j of Z^T is its re/im columns 2j, 2j + 1
    panel = np.empty((r.shape[1], 2 * rows))
    for start in range(0, z.shape[0], _PANEL):
        cols = slice(2 * start, 2 * min(start + _PANEL, z.shape[0]))
        out_t[:, cols] = np.matmul(r.T, z_t[:, cols], out=panel[:, : cols.stop - cols.start])
    return out


# Columns per panel of a dense Gram (_dense_gram), rows per panel of its factor (_dense_factor).
# On an N = 1024 h-sweep [O, W - I] (same machine, medians of nine), panels of 64, 96, 128 and
# 192 columns built the Gram in 79-99, 79-94, 85-94 and 81-87 ms, against 117-129 ms for the
# full product, and factored in 75, 77, 72 and 79 ms (92 ms at 256, 80-88 ms for
# np.linalg.cholesky). At 128 a panel is a fifth of a buffer at N = 600, an eighth at 1024.
_PANEL = 128
_TAU = 1e-10  # the certificate's shift above the Ritz value, relative to it
_LANCZOS_MAX_STEPS = 200  # the sweep matrices need 16-108 up to N = 1024; the certificate judges a run that stops here
_LANCZOS_CHECK_EVERY = 4  # a Ritz solve costs more than a step at N = 256
_LANCZOS_BLOCK = 32  # rows per block of the Lanczos basis: each pass makes two products per block


def spectral_norm(m) -> float:
    """Largest singular value s sqrt(lambda_max((M/s)^dagger (M/s))), s = max |M_ij| or max |tap|.

    The scaling rules out overflow and underflow. Every route reads lambda_max within a few eps
    (the norm within about half that), and a certified value is proved to be at most its shift
    sigma; the sweeps' matrices at N = 32 to 1024 came within 4e-15 of an SVD. Routes:
    - a stencil with one tap is a weighted shift, whose singular values are its |c_i|: s;
    - any other stencil M forms its Gram from the taps, G[j, j + q - r] += conj(c_r[j - r])
      c_q[j - r], in O(taps^2 N), and keeps it banded;
    - a dense M forms its Gram by panels (_dense_gram), the one N x N buffer made beside M;
    - every Gram, dense or banded, real or complex, of any size, is certified (_certified_top)
      with the factor of its folded band (_banded_factor) or one made in the dense Gram's
      buffer (_dense_factor);
    - a Gram that no shift factors takes a full eigenvalue solve of the dense Gram, exact to
      O(N eps) relative (the top eigenvalue of a PSD matrix is backward-stable);
      ConvergenceError where a stencil's dense Gram and eigvalsh's working copy would not fit
      in the machine's physical memory, or an entry or tap is not finite.
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
        banded = isinstance(gram, Stencil)
        factor = partial(_banded_factor if banded else _dense_factor, gram)
        top = _certified_top(gram, factor)
        if top is None:
            need = 2 * gram.shape[0] ** 2 * gram.dtype.itemsize  # the dense Gram and eigvalsh's working copy
            if banded and need > _physical_memory():
                raise ConvergenceError(f"the dense Gram of an N = {gram.n} stencil needs {need} bytes, "
                                       f"more than the machine's {_physical_memory()} bytes")
            top = np.linalg.eigvalsh(np.asarray(gram))[-1]
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
    """
    n = m.shape[1]
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


def _seeded(shape, gram) -> np.ndarray:
    """Standard normal entries from default_rng(0), seeded afresh on every call; complex for a complex gram."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if np.iscomplexobj(gram) else x


def _lanczos_top(gram: np.ndarray) -> float:
    """Top Ritz value of a Hermitian PSD matrix, a lower bound on lambda_max.

    Lanczos with full reorthogonalization (two Gram-Schmidt passes) from a start
    vector seeded afresh on every call, so a value never depends on earlier calls;
    a real matrix keeps a real start vector and basis. The basis is kept in blocks of
    _LANCZOS_BLOCK rows, one added when the last is full, so no block is ever copied and
    at most _LANCZOS_BLOCK - 1 rows are unused; each pass takes the basis block by block.
    Stops once the top Ritz pair's residual is at most tau times its value.
    """
    n = gram.shape[0]
    steps = min(n, _LANCZOS_MAX_STEPS)
    v = _seeded(n, gram)
    v /= np.linalg.norm(v)
    blocks = []
    alpha, beta = np.empty(steps), np.empty(steps)
    for k in range(steps):
        row = k % _LANCZOS_BLOCK
        if not row:
            blocks.append(np.empty((min(_LANCZOS_BLOCK, steps - k), n), v.dtype))
        blocks[-1][row] = v
        w = gram @ v
        alpha[k] = np.vdot(v, w).real
        basis = blocks[:-1] + [blocks[-1][: row + 1]]
        for _ in range(2):
            for q in basis:
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


def _certified_top(gram, factor) -> float | None:
    """lambda_max of a Hermitian PSD Gram within a few eps, certified; None where no shift has a factor.

    Lanczos gives theta <= lambda_max, converged or not. factor(sigma) returns the solve of a
    Cholesky factor of sigma I - G, proving lambda_max <= sigma, or raises LinAlgError; sigma =
    theta (1 + k tau) for each k in _WIDENINGS in turn. Inverse iteration with that solve from a
    seeded N x 16 block magnifies the top of the spectrum by 1 / (sigma - lambda); the top Ritz
    value mu of (sigma I - G)^-1 on the block gives rho = sigma - 1 / mu <= lambda_max, on it to
    rounding (Parlett, The Symmetric Eigenvalue Problem, ch. 4 and 11), where theta may sit in a
    rounding-split top cluster (3.5e-12 low on the h-sweep's W - I). Returns max(theta, rho).
    After Lanczos only the solve runs, never a product with G, so a factor may overwrite G.
    """
    theta = _lanczos_top(gram)
    for widening in _WIDENINGS:
        sigma = theta * (1.0 + widening * _TAU)
        try:
            solve = factor(sigma)
            break
        except np.linalg.LinAlgError:
            continue
    else:
        return None
    x = _seeded((gram.shape[0], _REFINE_WIDTH), gram)
    for _ in range(_REFINE_STEPS - 1):
        x = np.linalg.qr(solve(x))[0]
    mu = float(np.linalg.eigvalsh(x.conj().T @ solve(x))[-1])
    return max(theta, sigma - 1.0 / mu)


def _dense_factor(gram: np.ndarray, sigma: float):
    """_block_solve with a Cholesky factor U^dagger U of sigma I - G made in G's buffer; LinAlgError unless it is positive definite.

    G is read from its lower triangle, never written: a wider shift starts again from it, and
    where no shift factors eigvalsh still reads G. U is made by panels of _PANEL rows, in place
    of G's mirror image (left-looking; Golub & Van Loan, Matrix Computations, sec. 4.2): a panel
    takes away the product of U's rows above it, then its diagonal block L L^dagger is factored
    and the rows right of it multiplied by L^-1, taken once per panel. _block_solve multiplies
    by these inverses already; a diagonal block of sigma I - G has a condition number at most
    that of sigma I - G, about 1 / tau, so cond(L) <= tau^(-1/2), about 1e5 (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 14). The updates and the products go by square _PANEL
    blocks, U's rows above the panel conjugated in place while the rows right of it read them,
    so beside G no more than four _PANEL x _PANEL blocks are alive (0.22 complex N x N buffers
    at N = 512, where N x _PANEL products, conjugate copies and solve outputs held 0.50). No
    panel reads an earlier diagonal block, so each is kept as its inverse U_ii^-1 = L^-dagger,
    for the solve alone: its diagonal in an N-vector until every panel has factored.
    """
    n = gram.shape[0]
    blocks = [slice(start, min(start + _PANEL, n)) for start in range(0, n, _PANEL)]
    diagonal = np.empty(n)
    product = np.empty((min(_PANEL, n),) * 2, gram.dtype)
    for block in blocks:  # each square block is dropped once read
        start, stop = block.start, block.stop
        lower_part = np.tri(stop - start, dtype=bool)
        d = np.conjugate(gram[block, block].T)  # upper triangle: the mirror of G's lower one
        np.copyto(d, gram[block, block], where=lower_part)
        np.negative(d, out=d)
        d[np.diag_indices(stop - start)] += sigma
        update = product[: stop - start]
        above = gram[:start, block]  # the factor's rows above the panel
        for i in range(0, start, _PANEL):  # take away their product, by square blocks
            d -= np.matmul(above[i : i + _PANEL].conj().T, above[i : i + _PANEL], out=update[:, : stop - start])
        lower = np.linalg.cholesky(d)  # U's diagonal block is its conjugate transpose
        del d
        inverse = np.linalg.inv(lower.T)  # L^-T: no pivot moves a row of a triangle
        del lower
        np.conjugate(above, out=above)  # conjugated in place while the rows right of it read it
        for j in range(stop, n, _PANEL):  # those rows by square blocks: G's mirror, less the update, times -L^-1
            right = gram[block, j : j + _PANEL]
            np.conjugate(gram[j : j + _PANEL, block].T, out=right)
            out = update[:, : right.shape[1]]
            if start:
                right += np.matmul(above.T, gram[:start, j : j + _PANEL], out=out)
            np.negative(np.matmul(inverse.T, right, out=out), out=right)
        np.conjugate(above, out=above)
        np.conjugate(inverse, out=inverse)  # U_ii^-1 = L^-dagger, for the solve alone
        np.copyto(gram[block, block], inverse, where=~lower_part)
        diagonal[block] = inverse.diagonal().real
        del inverse
    for block in blocks:  # every panel factored: G is read no more
        gram[block, block] = np.triu(gram[block, block], 1) + np.diag(diagonal[block])
    return _block_solve([(block, gram[block, block], gram[block, block.stop :], slice(block.stop, n)) for block in blocks])


def _block_solve(factor):
    """The solve of U^dagger U X = Y, U block upper triangular: down its blocks, then up them.

    factor holds (rows, U_ii^-1, U[rows, cols], cols) per block, cols the columns right of it.
    """

    def solve(y):
        x = y.copy()
        for rows, inverse, right, cols in factor:  # U^dagger Z = Y
            x[rows] = inverse.conj().T @ x[rows]
            x[cols] -= (x[rows].conj().T @ right).conj().T
        for rows, inverse, right, cols in reversed(factor):  # U X = Z
            x[rows] -= right @ x[cols]
            x[rows] = inverse @ x[rows]
        return x

    return solve


# Rows per Cholesky block of the folded band, raised to its half-width 2w where that is wider.
# On the FD comm-sweep's six many-tap stencils (same machine, medians of twelve, ranges over the stencils and six
# interleaved passes), blocks of 16, 32 and 64 rows took 6.3-13.5, 5.4-11.9 and 6.4-13.9 ms at N = 512 and
# 11.5-22.4, 10.2-21.6 and 13.0-24.3 ms at N = 1024; a block's cost is mostly call overhead.
_BLOCK = 32
# Columns of the shift-invert block: the sweeps' words have up to 8 top singular values
# within 5e-13 of each other (then a 5 % gap), and the block must hold that cluster.
_REFINE_WIDTH = 16
# Solves with the factor: one inverse iteration, each scaling the share of an eigenvalue d
# below the shift by (sigma - lambda_max) / d, then the Ritz quotient's. That read the sweeps'
# matrices within 4e-15 of an SVD; a second iteration would cover a top cluster with no gap.
_REFINE_STEPS = 2
_WIDENINGS = (1, 4, 16)  # the certificate's shift is theta (1 + k tau), each k tried in turn


def _fold(n: int) -> np.ndarray:
    """The rows 0, N - 1, 1, N - 2, ...: (P M P^T)[p, q] = M[fold[p], fold[q]]."""
    p = np.arange(n)
    return np.where(p % 2, n - 1 - p // 2, p // 2)


def _banded_factor(gram: Stencil, sigma: float):
    """_block_solve with a Cholesky factor U^dagger U of P (sigma I - G) P^T, P the fold; LinAlgError unless it is positive definite.

    The fold puts rows i and i + k mod N at most 2|k| apart, so G's taps make it a plain band
    of half-width b = max(_BLOCK, 2w) (Golub & Van Loan, Matrix Computations, sec. 4.3). Its
    rows split into blocks of b rows, the last taking the remainder, so U is block bidiagonal:
    O(N b^2) work, one dense block where b >= N. Each block takes _dense_factor's steps on that
    pattern, its coupling U[i - 1, i] a product with the inverse above. The solve works on P Y, then undoes P.
    """
    n = gram.n
    b = max(_BLOCK, 2 * max(abs(k) for k in gram.taps))
    fold = _fold(n)
    unfold = np.argsort(fold)
    offsets = np.array(list(gram.taps))[:, None]
    cols = unfold[(fold + offsets) % n]  # tap t of folded row p sits in folded column cols[t, p]
    taps = np.array([g[fold] for g in gram.taps.values()], gram.dtype)
    blocks = [slice(start, min(start + b, n)) for start in range(0, n, b)]
    inverses, rights = [], []  # U_ii^-1, and U[i, i + 1] for every block but the last
    for block in blocks:
        start, stop, lo = block.start, block.stop, max(block.start - b, 0)
        t, i = np.nonzero(cols[:, block] < stop)  # the entries left of the next block
        rows = np.zeros((stop - start, stop - lo), gram.dtype)
        rows[i, cols[t, start + i] - lo] = -taps[t, start + i]
        d = rows[:, start - lo :]
        d[np.diag_indices(stop - start)] += sigma
        if start:  # U[i - 1, i] = U_{i-1}^-dagger (sigma I - G)[i - 1, i] = ((sigma I - G)[i, i - 1] U_{i-1}^-1)^dagger
            rights.append((rows[:, : start - lo] @ inverses[-1]).conj().T)
            d -= rights[-1].conj().T @ rights[-1]
        inverses.append(np.linalg.inv(np.linalg.cholesky(d).conj().T))  # U_ii^-1; U_ii is L^dagger
    rights.append(np.empty((stop - start, 0), gram.dtype))  # no rows right of the last block
    solve = _block_solve(list(zip(blocks, inverses, rights, blocks[1:] + [slice(n, n)])))
    return lambda y: solve(y[fold])[unfold]


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
