"""Dense kernel tests against brute-force oracles."""

import math
from functools import partial

import numpy as np
import pytest

from semitrotter import linalg
from semitrotter.commutator_lab import ad
from semitrotter.discretize import Grid, build_Dk, fd_stencil
from semitrotter.expr import parse_expr
from semitrotter.linalg import (
    ConvergenceError,
    DimensionMismatchError,
    NonHermitianError,
    Stencil,
    circulant,
    commutator,
    hermitian_eig,
    hermiticity_defect,
    spectral_norm,
    unitarity_defect,
    unitary_exp,
)
from semitrotter.model import ModelParams, PolyObservableSpec, declared_A, declared_observable


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_commutator_self_is_zero():
    rng = np.random.default_rng(2)
    m = _random_complex(rng, 6)
    assert np.all(commutator(m, m) == 0)


def test_forward_backward_commute():
    g = Grid(-math.pi, math.pi, 16)
    c = commutator(build_Dk(g, 1), -build_Dk(g, 1).T)
    assert np.all(c == 0)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(3)
    x, y = _random_complex(rng, 8), _random_complex(rng, 8)
    assert np.array_equal(commutator(x, y), -commutator(y, x))


def test_hermitian_eig_diagonal():
    w, v = hermitian_eig(np.diag([1.0, 2.0, 3.0]).astype(complex))
    assert np.allclose(sorted(w), [1.0, 2.0, 3.0])
    assert unitarity_defect(v) < 1e-12


def test_hermitian_eig_pauli_x():
    w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.allclose(sorted(w), [-1.0, 1.0])


def test_hermitian_eig_discrete_laplacian_spectrum():
    # oracle: eigenvalues of -D_2 on [0,1) are 2 N^2 (1 - cos(2 pi k / N))
    n = 4
    g = Grid(0.0, 1.0, n)
    w, _ = hermitian_eig(-build_Dk(g, 2))
    expected = sorted(2.0 * n**2 * (1.0 - np.cos(2.0 * np.pi * k / n)) for k in range(n))
    assert np.allclose(sorted(w), expected, atol=1e-9)
    assert sorted(round(v / n**2) for v in w) == [0, 2, 2, 4]


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


# a NaN above the diagonal alone: eigh reads only the lower triangle and would return [1, 1, 1, 1]
@pytest.mark.parametrize("index, value", [((2, 2), np.inf), ((0, 1), np.nan)], ids=["inf-diagonal", "nan-upper"])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hermitian_eig_non_finite_raises(index, value, dtype):
    m = np.eye(4, dtype=dtype)
    m[index] = value
    with pytest.raises(ConvergenceError):
        hermitian_eig(m)
    with pytest.raises(ConvergenceError):
        unitary_exp(m, 0.5)


def test_hermitian_eig_reconstruction_random():
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(2, 65))
        m = _random_complex(rng, n)
        m = m + m.conj().T
        w, v = hermitian_eig(m)
        recon = (v * w) @ v.conj().T
        assert spectral_norm(recon - m) <= 1e-10 * spectral_norm(m)


def test_unitary_exp_theta_zero():
    rng = np.random.default_rng(5)
    m = _random_complex(rng, 6)
    m = m + m.conj().T
    assert np.allclose(unitary_exp(m, 0.0), np.eye(6), atol=1e-12)


def test_unitary_exp_diagonal_case():
    d = np.diag([0.3, -1.2, 2.5]).astype(complex)
    theta = 0.7
    assert np.allclose(unitary_exp(d, theta), np.diag(np.exp(-1j * theta * np.diag(d))), atol=1e-12)


def test_unitary_exp_group_inverse():
    rng = np.random.default_rng(6)
    m = _random_complex(rng, 8)
    m = m + m.conj().T
    u = unitary_exp(m, 0.37)
    v = unitary_exp(m, -0.37)
    assert spectral_norm(u @ v - np.eye(8)) < 1e-10


def test_unitary_exp_semigroup():
    rng = np.random.default_rng(7)
    m = _random_complex(rng, 12)
    m = m + m.conj().T
    lhs = unitary_exp(m, 0.9)
    rhs = unitary_exp(m, 0.5) @ unitary_exp(m, 0.4)
    assert spectral_norm(lhs - rhs) < 1e-9


def test_unitary_exp_of_real_symmetric_matches_complex_product():
    # real eigenvectors take one real product per row panel; the complex product is the reference
    rng = np.random.default_rng(9)
    for n in (40, 300):  # one panel, and three with a short last one
        m = rng.standard_normal((n, n))
        m = m + m.T
        w, v = hermitian_eig(m)
        reference = (v * np.exp(-1j * 0.8 * w)) @ v.T.astype(complex)
        assert np.max(np.abs(unitary_exp(m, 0.8) - reference)) <= 1e-14
        assert unitary_exp(m, 0.8).dtype == np.complex128


def test_unitary_exp_of_a_real_h_peaks_below_two_buffers(traced_peak):
    # the h-sweep's H at N = 512: beyond H, V (half a complex N x N buffer), the result and one
    # panel's product, 1.77 buffers; whole-matrix real products held two more halves (2.50)
    import semitrotter.experiments as ex

    n = 512
    _, a, b, _ = ex._build_operators(ex.build_config("h-sweep"), 1.0 / n)
    h = np.asarray(a)
    h[np.diag_indices(n)] += b
    _, peak = traced_peak(unitary_exp, h, 0.5)
    assert peak <= 2 * 16 * n**2, peak / (16 * n**2)


def test_unitary_exp_of_a_complex_h_peaks_below_three_and_a_third_buffers(traced_peak):
    # beyond M: V, the result made from V's scaled columns and multiplied by V^dagger in its own
    # buffer by row panels, V^dagger and one panel, 3.13 buffers; the whole product beside the
    # scaled V, V^dagger and the result held 4.00
    n = 512
    m = _random_complex(np.random.default_rng(5), n)
    m = m + m.conj().T
    _, peak = traced_peak(unitary_exp, m, 0.5)
    assert peak <= 3.3 * 16 * n**2, peak / (16 * n**2)


@pytest.mark.parametrize("n", (1, 127, 128, 129, 300))
def test_matmul_by_rows_matches_the_product(n):
    # one short panel, one full, one and a short one, and three; real and complex R, into a new array
    # and into Z itself, for an F-ordered Z (every trotter_step route hands the evolution cell an
    # F-ordered Y) and a C-ordered one; R is never written, and Z only when it is the output
    rng = np.random.default_rng(n)
    for r in (rng.standard_normal((n, n)), _random_complex(rng, n)):
        r_kept = r.copy()
        for order in ("C", "F"):
            z = np.asarray(_random_complex(rng, n), order=order)
            z_kept, expected = z.copy(), z @ r
            tol = 1e-14 * np.max(np.abs(expected))
            new = linalg.matmul_by_rows(z, r)
            assert new.dtype == np.complex128 and np.array_equal(z, z_kept)
            assert np.max(np.abs(new - expected)) <= tol, (r.dtype, order)
            assert linalg.matmul_by_rows(z, r, out=z) is z
            assert np.max(np.abs(z - expected)) <= tol, (r.dtype, order)
        # what takes numpy's matmul whole: an F-ordered real or complex64 Z, and a C-ordered out
        c = _random_complex(rng, n)
        for z, out in ((np.asfortranarray(c.real), None), (np.asfortranarray(c, np.complex64), None),
                       (np.asfortranarray(c), np.empty((n, n), np.complex128))):
            expected = z @ r
            got = linalg.matmul_by_rows(z, r, out=out)
            assert got.dtype == np.complex128 and (out is None or got is out)
            assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected)), (z.dtype, r.dtype)
        assert np.array_equal(r, r_kept)


def test_unitary_exp_flushes_tiny_eigenvector_entries_without_moving_the_propagator():
    # FD's H = A + V/h at N = 1024 (the h-sweep's finest point): eigenvectors localized in the
    # wells of V/h hold subnormal entries, which hermitian_eig sets to 0 before unitary_exp's
    # products (and the evolution cell's); eigh is the LAPACK call hermitian_eig makes
    import semitrotter.experiments as ex

    n, t = 1024, 0.5
    _, a, b, _ = ex._build_operators(ex.build_config("h-sweep"), 1.0 / n)
    h = np.asarray(a)
    h[np.diag_indices(n)] += b
    w, v = np.linalg.eigh(h)
    assert np.count_nonzero((v != 0) & (np.abs(v) < np.finfo(np.float64).tiny)) > 0
    flushed_w, flushed = hermitian_eig(h)
    small = np.abs(v) < np.sqrt(np.finfo(np.float64).tiny)
    assert np.array_equal(flushed_w, w) and np.array_equal(flushed[~small], v[~small])
    assert not flushed[small].any()
    phases = np.exp(-1j * t * w)
    unflushed = (v * phases.real) @ v.T + 1j * ((v * phases.imag) @ v.T)
    assert np.max(np.abs(unitary_exp(h, t) - unflushed)) <= 1e-30


def test_unitary_exp_is_unitary():
    rng = np.random.default_rng(8)
    m = _random_complex(rng, 16)
    m = m + m.conj().T
    assert unitarity_defect(unitary_exp(m, 1.3)) <= 1e-10


def test_spectral_norm_identity_and_diag():
    assert spectral_norm(np.eye(7)) == pytest.approx(1.0, rel=1e-8)
    assert spectral_norm(np.diag([3.0, -4.0]).astype(complex)) == pytest.approx(4.0, rel=1e-8)
    assert spectral_norm(np.zeros((5, 5))) == 0.0
    assert spectral_norm(np.zeros((0, 0))) == 0.0  # the empty operator
    assert unitarity_defect(np.zeros((0, 0), dtype=np.complex128)) == 0.0
    assert hermiticity_defect(np.zeros((0, 0))) == 0.0
    w, v = hermitian_eig(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)
    assert unitary_exp(np.zeros((0, 0)), 0.5).shape == (0, 0)


def test_spectral_norm_forward_diff_symbol():
    # oracle 1: the circulant symbol max_k |e^{2 pi i k/8} - 1| / dx
    # oracle 2: brute-force SVD
    n = 8
    g = Grid(-math.pi, math.pi, n)
    d_f = build_Dk(g, 1)
    symbol_max = max(abs(np.exp(2j * np.pi * k / n) - 1.0) for k in range(n)) / g.dx
    svd_max = float(np.linalg.svd(d_f, compute_uv=False)[0])
    assert symbol_max == pytest.approx(svd_max, rel=1e-12)
    assert spectral_norm(d_f) == pytest.approx(symbol_max, rel=1e-8)


def test_spectral_norm_vs_svd_oracle_random():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 33))
        m = _random_complex(rng, n)
        oracle = float(np.linalg.svd(m, compute_uv=False)[0])
        assert spectral_norm(m) == pytest.approx(oracle, rel=1e-8)


def test_spectral_norm_clustered_singular_values():
    # unitary matrices have all singular values equal: the top one is fully degenerate
    rng = np.random.default_rng(10)
    m = _random_complex(rng, 24)
    _, v = hermitian_eig(m + m.conj().T)
    assert spectral_norm(v) == pytest.approx(1.0, rel=1e-8)


def test_spectral_norm_nan_raises_convergence_error():
    m = np.eye(4, dtype=complex)
    m[1, 2] = np.nan
    with pytest.raises(ConvergenceError):
        spectral_norm(m)


@pytest.mark.parametrize(
    "dtype, bad",
    [
        (np.float64, np.nan),
        (np.float64, np.inf),
        (np.float64, -np.inf),
        (np.complex128, np.inf),
        (np.complex128, complex(0.0, -np.inf)),
    ],
)
def test_spectral_norm_non_finite_raises_convergence_error(dtype, bad):
    # complex NaN is the case above
    m = np.eye(4, dtype=dtype)
    m[1, 2] = bad
    with pytest.raises(ConvergenceError):
        spectral_norm(m)


def _norm_oracle(m):
    # a complex SVD, independent of the Gram eigenvalue that spectral_norm uses; numpy reads a
    # bracket's stencil as its dense matrix
    return float(np.linalg.norm(np.asarray(m, np.complex128), 2))


def test_spectral_norm_matches_oracle_on_sweep_matrices(monkeypatch):
    # the comm-sweep word chains at h = 1/32 (FD's four are stencils on N = 32, the spectral
    # ones dense) have a degenerate top singular value, and the order-6 h-sweep [O, W - I]
    # and W - I are below 1e-8
    import semitrotter.experiments as ex

    pairs = []
    stencils = []

    def checked(m):
        stencils.append(isinstance(m, Stencil))
        pairs.append((spectral_norm(m), _norm_oracle(m)))
        return pairs[-1][0]

    monkeypatch.setattr(ex, "spectral_norm", checked)
    ex.run_experiment(ex.build_config("comm-sweep", {"h": "1/32"}))
    ex.run_experiment(ex.build_config("comm-sweep", {"h": "1/32", "scheme": "spectral"}))
    ex.run_experiment(ex.build_config("h-sweep", {"h": "1/32, 1/64", "orders": "6"}))
    assert len(pairs) == 2 * len(ex.COMM_WORD_LABELS) + 2 * 2
    assert sum(stencils) == len(ex.COMM_WORD_LABELS)
    for value, oracle in pairs:
        assert value == pytest.approx(oracle, rel=1e-8)


def test_spectral_norm_matches_oracle_above_crossover(monkeypatch):
    # at and above the crossover, the 256 to 512 rows where the certified pipeline's cost meets a
    # full eigenvalue solve's: the h-sweep's [O, W - I] and W - I at N = 256 and 512, and a
    # unitary, whose top singular value is fully degenerate
    import semitrotter.experiments as ex

    pairs = []

    def checked(m):
        assert m.shape[0] >= 256 and np.iscomplexobj(m)
        pairs.append((spectral_norm(m), _norm_oracle(m)))
        return pairs[-1][0]

    monkeypatch.setattr(ex, "spectral_norm", checked)
    for scheme in ("fd", "spectral"):
        raw = {"h": "1/256, 1/512", "orders": "2, 4, 6", "scheme": scheme}
        ex.run_experiment(ex.build_config("h-sweep", raw))
    assert len(pairs) == 2 * 2 * 3 * 2
    rng = np.random.default_rng(14)
    m = _random_complex(rng, 256)
    _, v = hermitian_eig(m + m.conj().T)
    pairs.append((spectral_norm(v), _norm_oracle(v)))
    for value, oracle in pairs:
        assert value == pytest.approx(oracle, rel=1e-13)


def test_real_dense_sweep_norms_above_crossover_are_certified(monkeypatch):
    # the spectral comm-sweep at h = 1/512: its four words and the p = 2 beta chains that
    # compute_beta_comm norms are real dense matrices, each certified and within 1e-14 of an SVD
    import semitrotter.commutator_lab as lab
    import semitrotter.experiments as ex

    values, pairs = [], []
    certified_top = linalg._certified_top

    def recording(gram, factor):
        values.append(certified_top(gram, factor))
        return values[-1]

    def checked(m):
        assert isinstance(m, np.ndarray) and m.dtype == np.float64 and m.shape[0] == 512
        taken = len(values)
        pairs.append((spectral_norm(m), float(np.linalg.norm(m, 2))))
        assert len(values) == taken + 1 and values[-1] is not None
        return pairs[-1][0]

    monkeypatch.setattr(linalg, "_certified_top", recording)
    monkeypatch.setattr(ex, "spectral_norm", checked)
    monkeypatch.setattr(lab, "spectral_norm", checked)
    ex.run_experiment(ex.build_config("comm-sweep", {"h": "1/512", "scheme": "spectral"}))
    assert len(pairs) > len(ex.COMM_WORD_LABELS)
    for value, oracle in pairs:
        assert value == pytest.approx(oracle, rel=1e-14, abs=0)


def _recording_cholesky(monkeypatch):
    """Patch np.linalg.cholesky to record, per call, whether its block factored."""
    factored = []
    cholesky = np.linalg.cholesky

    def recording(a):
        try:
            factor = cholesky(a)
        except np.linalg.LinAlgError:
            factored.append(False)
            raise
        factored.append(True)
        return factor

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return factored


def test_spectral_norm_of_an_h_sweep_point_matches_svd_to_rounding(monkeypatch):
    # the twelve matrices of the default h-sweep at N = 64 and 256, W - I and [O, W - I] at
    # p = 2, 4 and 6, each certified; a Lanczos value alone read p = 4's W - I at N = 256 3.45e-12 low
    import semitrotter.experiments as ex

    mats = []

    def kept(m):
        mats.append(np.array(m, copy=True))
        return 1.0

    monkeypatch.setattr(ex, "spectral_norm", kept)
    ex.run_experiment(ex.build_config("h-sweep", {"h": "1/64, 1/256", "orders": "2, 4, 6"}))
    assert sorted(m.shape[0] for m in mats) == [64] * 6 + [256] * 6
    certified, tops = linalg._certified_top, []
    monkeypatch.setattr(linalg, "_certified_top", lambda *args: tops.append(certified(*args)) or tops[-1])
    for m in mats:
        assert np.iscomplexobj(m)
        assert spectral_norm(m) == pytest.approx(_norm_oracle(m), rel=1e-14, abs=0)
    assert len(tops) == 12 and None not in tops


def _low_lanczos(monkeypatch):
    """Make every Ritz value 10 % low, which leaves sigma I - G indefinite at every widening."""
    lanczos_top = linalg._lanczos_top
    monkeypatch.setattr(linalg, "_lanczos_top", lambda gram: 0.9 * lanczos_top(gram))


def test_certificate_failure_reads_exact_top_eigenvalue(monkeypatch):
    # every widening fails at the same block and leaves G's lower triangle whole, so the norm is
    # the full eigenvalue solve's, bit for bit
    n = 300
    m = _random_complex(np.random.default_rng(15), n)
    exact = _fallback_norm(monkeypatch, m)
    assert exact == pytest.approx(np.linalg.norm(m, 2), rel=1e-13, abs=0)
    gram = linalg._dense_gram(m, 1.0)
    top = float(np.linalg.eigvalsh(gram)[-1])
    assert linalg._lanczos_top(gram) <= top * (1 + 1e-14)
    factored = _recording_cholesky(monkeypatch)
    shifted = gram.copy()
    assert linalg._certified_top(shifted, partial(linalg._dense_factor, shifted)) == pytest.approx(top, rel=1e-14)
    assert factored == [True] * -(-n // linalg._PANEL)
    _low_lanczos(monkeypatch)
    factored.clear()
    shifted = gram.copy()
    assert linalg._certified_top(shifted, partial(linalg._dense_factor, shifted)) is None
    attempt = factored[: len(factored) // len(linalg._WIDENINGS)]
    assert attempt[-1] is False and all(attempt[:-1]) and factored == attempt * len(linalg._WIDENINGS)
    assert np.array_equal(np.tril(shifted), np.tril(gram))
    assert spectral_norm(m) == exact


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_blocked_certificate_at_several_panels(monkeypatch, dtype):
    n = 600
    rng = np.random.default_rng(40)
    m = rng.standard_normal((n, n)).astype(dtype)
    if dtype == np.complex128:
        m += 1j * rng.standard_normal((n, n))
    gram = m.conj().T @ m
    top = float(np.linalg.eigvalsh(gram)[-1])
    y = rng.standard_normal((n, 3)).astype(dtype)
    for sigma in (1.01 * top, 2.0 * top):  # the factor's solve, across five panels
        x = linalg._dense_factor(gram.copy(), sigma)(y)
        expected = np.linalg.solve(sigma * np.eye(n) - gram, y)
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    # a stencil's Gram at N = 300: the folded band's factor and the dense one solve alike
    stencil = _band_gram(rng, 300, 5, complex_taps=dtype == np.complex128)
    sigma = 1.01 * float(np.linalg.eigvalsh(np.asarray(stencil))[-1])
    banded = linalg._banded_factor(stencil, sigma)(y[:300])
    dense = linalg._dense_factor(np.asarray(stencil), sigma)(y[:300])
    assert np.linalg.norm(banded - dense) <= 1e-12 * np.linalg.norm(dense)
    shifted = gram.copy()
    assert linalg._certified_top(shifted, partial(linalg._dense_factor, shifted)) == pytest.approx(top, rel=1e-14)
    _low_lanczos(monkeypatch)
    shifted = gram.copy()
    assert linalg._certified_top(shifted, partial(linalg._dense_factor, shifted)) is None
    assert np.array_equal(np.tril(shifted), np.tril(gram))


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_certificate_fails_in_its_last_block_only(monkeypatch, dtype):
    # G = 1000 u u^dagger plus a little noise, u spread evenly: at theta = 0.9 lambda_max,
    # theta (1 + tau) I - G is positive definite on its first 512 rows (512 / 600 < 0.9) and on
    # every diagonal block alone, so only the updates from the panels above the last block make
    # its factor fail; G's lower triangle is still whole, and its eigenvalue solve exact
    n = 600
    rng = np.random.default_rng(43)
    m = rng.standard_normal((50, n)).astype(dtype)
    if dtype == np.complex128:
        m += 1j * rng.standard_normal((50, n))
    u = np.full(n, n**-0.5)
    gram = 1e3 * np.outer(u, u).astype(dtype) + 1e-3 * (m.conj().T @ m) / n
    top = float(np.linalg.eigvalsh(gram)[-1])
    factored = _recording_cholesky(monkeypatch)
    shifted = gram.copy()
    with pytest.raises(np.linalg.LinAlgError):
        linalg._dense_factor(shifted, 0.9 * top * (1.0 + linalg._TAU))
    assert factored == [True] * (n // linalg._PANEL) + [False]
    assert np.array_equal(np.tril(shifted), np.tril(gram))
    assert float(np.linalg.eigvalsh(shifted)[-1]) == top


@pytest.mark.parametrize("n", [129, 255, 256, 257, 600])
@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_dense_spectral_norm_across_panel_edges(n, dtype):
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n)).astype(dtype)
    if dtype == np.complex128:
        m += 1j * rng.standard_normal((n, n))
    assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12, abs=0)
    s = float(np.max(np.abs(m)))
    gram = linalg._dense_gram(m, s)
    assert np.array_equal(gram, gram.conj().T)  # the Hermitian mirror holds, and the diagonal is real
    assert np.max(np.abs(gram - (m / s).conj().T @ (m / s))) <= 1e-14 * n


def test_dense_spectral_norm_peaks_below_one_and_a_half_buffers(traced_peak):
    # the Gram is the one N x N buffer beside M: its row panels and the certificate's panels
    # are N x 128; the scaled copy of M and its conjugate are gone
    n = 600
    m = _random_complex(np.random.default_rng(41), n)
    expected = np.linalg.norm(m, 2)
    norm, peak = traced_peak(spectral_norm, m)
    assert norm == pytest.approx(expected, rel=1e-12, abs=0)
    assert peak <= 1.5 * 16 * n**2, peak / (16 * n**2)


def test_lanczos_at_512_holds_its_basis_in_blocks(traced_peak):
    # 64 steps on a random complex Gram at N = 512: beside G, two 32-row blocks of the basis, a
    # few vectors and the Ritz solve's 64 x 64 arrays (0.16 buffers); a basis doubled by
    # concatenation held the old and the new one at once (0.26)
    n = 512
    m = _random_complex(np.random.default_rng(40), n)
    gram = m.conj().T @ m
    del m
    _, peak = traced_peak(linalg._lanczos_top, gram)
    assert peak <= 0.2 * 16 * n**2, peak / (16 * n**2)


def test_dense_factor_at_512_holds_square_blocks_alone(traced_peak):
    # beside G, the factor holds no more than four _PANEL x _PANEL blocks (0.25 buffers at
    # N = 512; 0.22 read): the updates from U's rows above a panel and the products with L^-1
    # right of it go by square blocks; N x _PANEL products, solve outputs and conjugate copies held 0.50
    n = 512
    m = _random_complex(np.random.default_rng(40), n)
    gram = m.conj().T @ m
    del m
    top = float(np.linalg.eigvalsh(gram)[-1])
    _, peak = traced_peak(linalg._dense_factor, gram, top * (1.0 + linalg._TAU))
    assert peak <= 4 * 16 * linalg._PANEL**2, peak / (16 * n**2)


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
@pytest.mark.parametrize("c", [1e-300, 1e300])
def test_dense_spectral_norm_scales_without_overflow(dtype, c):
    # the Gram divides its left panel by s twice: at c = 1e300 an s^2 overflows, at 1e-300 1/s^2 does
    rng = np.random.default_rng(42)
    m = rng.standard_normal((200, 200)).astype(dtype)
    if dtype == np.complex128:
        m += 1j * rng.standard_normal((200, 200))
    assert spectral_norm(c * m) == pytest.approx(c * spectral_norm(m), rel=1e-12, abs=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_spectral_norm_non_finite_above_crossover_raises(bad):
    # the scale check refuses a non-finite entry before any Gram is formed, at N = 257 as at N = 4
    m = _random_complex(np.random.default_rng(16), 257)
    m[3, 5] = bad
    with pytest.raises(ConvergenceError):
        spectral_norm(m)


def test_spectral_norm_is_deterministic():
    # the Lanczos start is seeded afresh on every call: no state carries over
    rng = np.random.default_rng(17)
    m = _random_complex(rng, 257)
    first = spectral_norm(m)
    spectral_norm(_random_complex(rng, 300))
    assert spectral_norm(m) == first


def test_spectral_norm_takes_one_route_at_every_size(monkeypatch):
    # a real, a complex and a stencil Gram are each certified at every size, and eigvalsh runs
    # on the refinement's block alone, never on a Gram
    krylov, solved, tops = [], [], []
    lanczos_top, certified_top = linalg._lanczos_top, linalg._certified_top
    eigvalsh = np.linalg.eigvalsh

    def counting_lanczos(g):
        krylov.append((type(g), g.dtype, g.shape[0]))
        return lanczos_top(g)

    def counting_eigvalsh(g):
        solved.append(g.shape[0])
        return eigvalsh(g)

    monkeypatch.setattr(linalg, "_lanczos_top", counting_lanczos)
    monkeypatch.setattr(linalg, "_certified_top", lambda *args: tops.append(certified_top(*args)) or tops[-1])
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    rng = np.random.default_rng(18)
    sizes = (2, 64, 256, 257)
    for n in sizes:
        for m in (rng.standard_normal((n, n)), _random_complex(rng, n), _random_stencils(rng, n)[0]):
            assert spectral_norm(m) == pytest.approx(np.linalg.norm(np.asarray(m), 2), rel=1e-12, abs=0)
    kinds = [(np.float64, np.ndarray), (np.complex128, np.ndarray), (np.float64, Stencil)]
    assert krylov == [(form, dtype, n) for n in sizes for dtype, form in kinds]
    assert len(tops) == len(krylov) and None not in tops
    assert solved == [min(n, linalg._REFINE_WIDTH) for n in sizes for _ in kinds]  # one Ritz solve per norm


def test_no_default_gram_leaves_the_certified_route(monkeypatch):
    # the default comm-sweep, both dt-sweep --state runs (FD and spectral) and an h-sweep over
    # h = 1/32 ... 1/256: every Gram's certificate holds, so none takes the eigvalsh fallback
    import semitrotter.experiments as ex

    certified, tops = linalg._certified_top, []
    monkeypatch.setattr(linalg, "_certified_top", lambda *args: tops.append(certified(*args)) or tops[-1])
    runs = [
        ("comm-sweep", {}, False, 24),
        ("dt-sweep", {}, True, 40),
        ("dt-sweep", {"scheme": "spectral"}, True, 40),
        ("h-sweep", {"h": "1/32, 1/64, 1/128, 1/256"}, False, 24),
    ]
    for name, raw, state, grams in runs:
        tops.clear()
        ex.run_experiment(ex.build_config(name, raw, state=state))
        assert len(tops) == grams and tops.count(None) == 0, (name, raw, tops.count(None))


def test_comm_sweep_routes_fd_norms_off_dense_grams(monkeypatch, traced_peak):
    # FD words at N = 512 and 1024 never make a Gram dense, one N = 1024 word norm peaks below
    # one N x N float64 array, and the spectral scheme's real dense chains at N = 512 are certified
    import semitrotter.experiments as ex

    solved, krylov = [], []
    eigvalsh, lanczos_top = np.linalg.eigvalsh, linalg._lanczos_top

    def counting_eigvalsh(g):
        solved.append((g.dtype, g.shape[0]))
        return eigvalsh(g)

    def counting_lanczos(g):
        krylov.append(isinstance(g, np.ndarray))
        return lanczos_top(g)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(linalg, "_lanczos_top", counting_lanczos)
    banded = _banded_values(monkeypatch)
    ex.run_experiment(ex.build_config("comm-sweep", {"h": "1/512, 1/1024"}))
    assert all(n == linalg._REFINE_WIDTH for _, n in solved)  # the Ritz solves alone
    assert len(banded) >= 2 * len(ex.COMM_WORD_LABELS) and None not in banded
    assert krylov == [False] * len(banded)

    _, a, b, obs = ex._build_operators(ex.build_config("comm-sweep"), 1.0 / 1024)
    chain = ad(a, ad(a, ad(obs, ad(Stencil({0: b}, 1024), a))))  # [A,[A,[[A,B],O]]]
    _, peak = traced_peak(spectral_norm, chain)
    assert peak < 8 * 1024 * 1024

    solved.clear(), krylov.clear(), banded.clear()
    ex.run_experiment(ex.build_config("comm-sweep", {"h": "1/512", "scheme": "spectral"}))
    assert len(krylov) >= len(ex.COMM_WORD_LABELS)
    assert krylov == [True] * len(krylov)
    assert all(n == linalg._REFINE_WIDTH for _, n in solved) and banded == []


def test_commutator_keeps_dtype_family():
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((2, 6, 6))
    z = _random_complex(rng, 6)
    assert commutator(x, y).dtype == np.float64
    assert commutator(x.astype(int), y).dtype == np.float64
    assert commutator(z, y).dtype == np.complex128
    # a real factor with a complex one goes through real products; both orders
    for p, q in ((x, z), (z, x)):
        exact = p.astype(complex) @ q.astype(complex) - q.astype(complex) @ p.astype(complex)
        assert np.max(np.abs(commutator(p, q) - exact)) <= 1e-13 * np.max(np.abs(exact))


def test_real_complex_commutator_is_two_real_commutators():
    # the real x complex path writes [R, C.real] and [R, C.imag] into one output
    rng = np.random.default_rng(13)
    r = rng.standard_normal((8, 8))
    c = _random_complex(rng, 8)
    parts = commutator(r, c.real) + 1j * commutator(r, c.imag)
    assert np.array_equal(commutator(r, c), parts)
    assert np.array_equal(commutator(c, r), -parts)


def test_spectral_norm_keeps_dtype_family(monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(g):
        seen.append(g.dtype)
        return eigvalsh(g)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    rng = np.random.default_rng(12)
    spectral_norm(rng.standard_normal((5, 5)))
    spectral_norm(_random_complex(rng, 5))
    assert seen == [np.float64, np.complex128]


def test_spectral_norm_real_matches_complex_svd():
    rng = np.random.default_rng(13)
    g = Grid(-math.pi, math.pi, 64)
    d = build_Dk(g, 2)
    v = np.diag(np.cos(g.nodes))
    word = commutator(commutator(d, v), d)  # a sweep-like word, ||.|| ~ N^3
    mats = [rng.standard_normal((n, n)) for n in (2, 7, 33, 128)] + [word, 1e-200 * word]
    for m in mats:
        assert m.dtype == np.float64
        oracle = float(np.linalg.norm(m.astype(np.complex128), 2))
        assert spectral_norm(m) == pytest.approx(oracle, rel=1e-12)


def test_convergence_error_message_has_no_iteration_count():
    m = np.eye(4)
    m[0, 1] = np.nan
    with pytest.raises(ConvergenceError) as exc:
        spectral_norm(m)
    assert str(exc.value) == "spectral norm of a matrix with non-finite entries"
    assert not hasattr(exc.value, "iterations")


@pytest.mark.parametrize("n", [4, 5, 16, 63, 256, 1024])
def test_circulant_matches_index_formula(n):
    rng = np.random.default_rng(n)
    for c in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
        expected = c[(np.arange(n)[:, None] - np.arange(n)) % n]
        assert np.array_equal(circulant(c), expected)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_stencil_commutator_matches_dense(n):
    # FD's D_0 ... D_3 and A, plain and with a coefficient per row (as in O), on real and complex M
    rng = np.random.default_rng(n)
    grid = Grid(-math.pi, math.pi, n)
    stencils = [fd_stencil(grid, k) for k in range(4)]
    stencils.append(Stencil({r: -0.5 / n * c for r, c in fd_stencil(grid, 2).taps.items()}, n))
    stencils += [Stencil({r: rng.standard_normal(n) * c for r, c in s.taps.items()}, n) for s in stencils]
    for s in stencils:
        dense = np.asarray(s)
        for m in (rng.standard_normal((n, n)), _random_complex(rng, n)):
            expected = commutator(dense, m)
            got = s.commutator(m)
            assert got.dtype == expected.dtype
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _whole_bracket(s, m):
    """[S, M] for a dense M with whole-matrix slices, one tap at a time: the row-block bracket's reference."""
    n = s.n
    out = np.zeros(s.shape, np.result_type(m, *s.taps.values()))
    for r, c in s.taps.items():
        k = r % n
        for dst, src in ((slice(0, n - k), slice(k, n)), (slice(n - k, n), slice(0, k))):
            out[dst] += c[dst, None] * m[src]
            out[:, src] -= m[:, dst] * c[dst]
    return out


@pytest.mark.parametrize("n", [5, 16, 300])
def test_stencil_bracket_by_row_blocks_keeps_every_bit(n):
    # wrapping offsets, scalar taps beside per-row ones, and N past one and two row blocks
    rng = np.random.default_rng(n + 1)
    for s in _random_stencils(rng, n):
        for m in (rng.standard_normal((n, n)), _random_complex(rng, n)):
            assert np.array_equal(s.commutator(m), _whole_bracket(s, m))


@pytest.mark.parametrize("n", [64, 1024])
def test_dense_bracket_with_fd_observable_peaks_below_one_and_a_half_buffers(n, traced_peak):
    # [O, M] with the h-sweep's FD O on a dense complex M, as evolution_errors brackets W - I:
    # the output and two slices of _PANEL rows (2.02 buffers with whole-matrix slices)
    import semitrotter.experiments as ex

    _, _, _, obs = ex._build_operators(ex.build_config("h-sweep"), 1.0 / n)
    m = _random_complex(np.random.default_rng(n), n)
    got, peak = traced_peak(ad, obs, m)
    assert np.array_equal(got, _whole_bracket(obs, m))
    if n >= 4 * linalg._PANEL:
        assert peak <= 1.5 * 16 * n**2, peak / (16 * n**2)


# at N = 4 and 5, the offsets -3 and 5 land on others mod N
_WRAPPING_OFFSETS = (-3, -1, 0, 2, 5)


def _random_stencils(rng, n):
    """Per-row real and complex taps at wrapping offsets, and A-like scalar taps beside per-row ones."""
    real = {r: rng.standard_normal(n) for r in _WRAPPING_OFFSETS}
    cplx = {r: rng.standard_normal(n) + 1j * rng.standard_normal(n) for r in _WRAPPING_OFFSETS}
    mixed = {-1: 0.5, 0: -1.0, 1: 0.5, 3: rng.standard_normal(n)}
    return [Stencil(real, n), Stencil(cplx, n), Stencil(mixed, n)]


def _dense_oracle(s):
    """S[i, (i + r) mod N] = c_r[i] summed as diag(c_r) times the permutation with ones at (i, (i + r) mod N)."""
    shifts = np.eye(s.n)
    return sum((c[:, None] * np.roll(shifts, r, axis=1) for r, c in s.taps.items()), np.zeros(s.shape))


@pytest.mark.parametrize("n", [4, 5, 16, 64])
def test_stencil_matmul_matches_dense(n):
    # S @ x for a vector and an N x 3 block, real and complex: non-Hermitian per-row taps at gapped
    # offsets that wrap (and collide mod N at N = 4 and 5), scalar taps beside per-row ones, and
    # scalar taps alone at offsets 7 apart
    rng = np.random.default_rng(60 + n)
    stencils = _random_stencils(rng, n) + [Stencil({-5: 1.5, 2: -0.25}, n)]
    for s in stencils:
        dense = _dense_oracle(s)
        assert np.array_equal(np.asarray(s), dense)
        for shape in ((n,), (n, 3)):
            for x in (rng.standard_normal(shape), rng.standard_normal(shape) + 1j * rng.standard_normal(shape)):
                got = s @ x
                assert got.shape == shape and got.dtype == np.result_type(dense, x)
                assert np.max(np.abs(got - dense @ x)) <= 1e-14 * np.max(np.abs(dense) @ np.abs(x))


def test_stencil_checks_per_row_tap_length():
    for tap in (np.ones(7), np.ones(9), np.ones((8, 1))):
        with pytest.raises(DimensionMismatchError):
            Stencil({-1: 1.0, 2: tap}, 8)
    assert Stencil({-1: 1.0, 2: np.ones(8)}, 8).shape == (8, 8)


def test_every_tap_holds_n_values():
    # one tap form: the constant taps of fd_stencil and declared_A, declared_observable's taps,
    # a bracket of two stencils and a Gram are each an array of N values
    n = 16
    grid = Grid(-math.pi, math.pi, n)
    a = declared_A(ModelParams(1.0 / n, parse_expr("cos(x)"), grid))
    obs = declared_observable(PolyObservableSpec(((0, parse_expr("cos(x)")), (1, parse_expr("sin(x)"))), 1.0 / n), grid)
    d4 = fd_stencil(grid, 4)
    for s in (fd_stencil(grid, 1), d4, a, obs, a.commutator(obs), obs.gram(), d4.gram()):
        assert s.taps and all(isinstance(c, np.ndarray) and c.shape == (n,) for c in s.taps.values())
    assert a.commutator(d4).taps == {}  # constant taps commute: every tap cancels to exactly 0
    # a scalar becomes N writable values of its own dtype
    s = Stencil({0: 2, 1: 0.5j}, n)
    assert s.taps[0].dtype == np.int_ and s.taps[1].dtype == np.complex128
    s.taps[0][0] = 3
    assert np.array_equal(np.asarray(s)[:2, :2], [[3, 0.5j], [0, 2]])


@pytest.mark.parametrize("n", [4, 5, 16, 64])
def test_stencil_bracket_matches_dense_products(n):
    # [S, T] of two stencils is a stencil; the reference is XY - YX of their dense matrices, and
    # the tolerance scales with |X||Y| + |Y||X|, which bounds the rounding of both
    rng = np.random.default_rng(30 + n)
    stencils = _random_stencils(rng, n) + [Stencil({-1: 2.0, 0: -4.0, 1: 2.0}, n)]
    for s in stencils:
        for t in stencils:
            got = s.commutator(t)
            assert isinstance(got, Stencil)
            x, y = _dense_oracle(s), _dense_oracle(t)
            # numpy reads the bracket as its dense matrix
            assert got.shape == (n, n) and np.array_equal(np.asarray(got), _dense_oracle(got))
            scale = np.max(np.abs(x) @ np.abs(y) + np.abs(y) @ np.abs(x))
            assert np.max(np.abs(np.asarray(got) - commutator(x, y)), initial=0.0) <= 1e-14 * scale
    assert Stencil({-1: 2.0, 1: 3.0}, n).commutator(Stencil({0: 5.0, 2: 1.0}, n)).taps == {}  # circulants commute


def test_stencil_bracket_dense_matrix_is_always_a_copy():
    # numpy 2's __array__ protocol: copy=False must raise where a copy cannot be avoided
    s, t = _random_stencils(np.random.default_rng(37), 16)[:2]
    got = s.commutator(t)
    with pytest.raises(ValueError):
        np.asarray(got, copy=False)
    dense = _dense_oracle(got)
    assert np.array_equal(np.asarray(got), dense) and np.array_equal(np.array(got, copy=True), dense)
    assert np.asarray(got, dtype=np.complex64).dtype == np.complex64


@pytest.mark.parametrize("n", [4, 5, 16, 64])
def test_stencil_spectral_norm_matches_dense(n):
    rng = np.random.default_rng(40 + n)
    for s in _random_stencils(rng, n):
        expected = float(np.linalg.norm(np.asarray(s), 2))
        assert spectral_norm(s) == pytest.approx(expected, rel=1e-12, abs=0)


def _banded_values(monkeypatch):
    """The values _certified_top returns for banded Grams from here on (None where no shift factors)."""
    values = []
    certified_top = linalg._certified_top

    def recording(gram, factor):
        value = certified_top(gram, factor)
        if isinstance(gram, Stencil):
            values.append(value)
        return value

    monkeypatch.setattr(linalg, "_certified_top", recording)
    return values


def _fallback_norm(monkeypatch, m):
    """The norm the eigvalsh fallback gives, the dense Gram's full eigenvalue solve, with the certificate switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_certified_top", lambda gram, factor: None)
        return spectral_norm(m)


# 257 and 777 are no multiple of the 32-row block
@pytest.mark.parametrize("n", [256, 257, 512, 777])
def test_banded_spectral_norm_matches_svd(monkeypatch, n):
    banded = _banded_values(monkeypatch)
    rng = np.random.default_rng(50 + n)
    stencils = _random_stencils(rng, n)
    for s in stencils:
        expected = float(np.linalg.norm(np.asarray(s), 2))
        assert spectral_norm(s) == pytest.approx(expected, rel=1e-13, abs=0)
    assert len(banded) == len(stencils) and None not in banded


def _wrapped_stencil(n):
    """A real stencil whose taps peak on the rows around the wrap-around, where its top singular vector sits."""
    rng = np.random.default_rng(n)
    distance = np.minimum(np.arange(n), n - np.arange(n))  # from row 0, around the circle
    bump = 1.0 + 4.0 * np.exp(-((distance / 6.0) ** 2))
    return Stencil({r: bump * (1.0 + 0.1 * rng.standard_normal(n)) for r in (-2, 0, 1)}, n)


def test_banded_certificate_failure_takes_dense_value(monkeypatch):
    # a Ritz value 10 % low leaves sigma I - G indefinite at every widening of sigma
    n = 300
    s = _wrapped_stencil(n)
    dense = _fallback_norm(monkeypatch, s)
    assert dense == pytest.approx(float(np.linalg.norm(np.asarray(s), 2)), rel=1e-13, abs=0)
    factored = []
    banded_factor = linalg._banded_factor

    def recording(band, sigma):
        try:
            solve = banded_factor(band, sigma)
        except np.linalg.LinAlgError:
            factored.append(False)
            raise
        factored.append(True)
        return solve

    monkeypatch.setattr(linalg, "_banded_factor", recording)
    assert spectral_norm(s) == pytest.approx(dense, rel=1e-13, abs=0)
    assert factored == [True]
    _low_lanczos(monkeypatch)
    banded = _banded_values(monkeypatch)
    assert spectral_norm(s) == dense
    assert banded == [None] and factored == [True] + [False] * len(linalg._WIDENINGS)


def test_dense_fallback_that_cannot_fit_raises(monkeypatch):
    # with no factor the Gram would go dense: its two N x N float64 buffers must fit in memory
    n = 300
    s = _wrapped_stencil(n)
    dense = _fallback_norm(monkeypatch, s)
    _low_lanczos(monkeypatch)
    need = 2 * n * n * 8
    monkeypatch.setattr(linalg, "_physical_memory", lambda: need - 1)
    densified = []
    to_dense = Stencil.__array__

    def recording(self, dtype=None, copy=None):
        densified.append(self.n)
        return to_dense(self, dtype, copy)

    monkeypatch.setattr(Stencil, "__array__", recording)
    with pytest.raises(ConvergenceError, match=f"N = {n} stencil needs {need} bytes"):
        spectral_norm(s)
    assert densified == []
    monkeypatch.setattr(linalg, "_physical_memory", lambda: need)
    assert spectral_norm(s) == dense and densified == [n]


class _RecordingMatrix:
    """A matrix whose @ records the dtype of every vector it is applied to."""

    def __init__(self, matrix):
        self.matrix, self.shape, self.dtype, self.seen = matrix, matrix.shape, matrix.dtype, []

    def __matmul__(self, x):
        self.seen.append(x.dtype)
        return self.matrix @ x


def test_lanczos_on_a_real_band_stays_real_and_lean(traced_peak):
    # the default comm-sweep's [A,[A,[[A,B],O]]] at N = 1024 has a real band Gram: Lanczos keeps
    # a real basis that grows with its 36 steps, so one norm peaks at about 1.6 MiB
    import semitrotter.experiments as ex

    n = 1024
    _, a, b, obs = ex._build_operators(ex.build_config("comm-sweep"), 1.0 / n)
    chain = ad(a, ad(a, ad(obs, ad(Stencil({0: b}, n), a))))
    gram = chain.gram()
    band = _RecordingMatrix(gram)
    theta = linalg._lanczos_top(band)
    assert band.dtype == np.float64 and set(band.seen) == {np.dtype(np.float64)}
    assert len(band.seen) < linalg._LANCZOS_MAX_STEPS
    top = np.linalg.eigvalsh(np.asarray(gram))[-1]
    assert theta <= top * (1 + 1e-13) and theta == pytest.approx(top, rel=2 * linalg._TAU)

    expected = float(np.linalg.norm(np.asarray(chain), 2))
    norm, peak = traced_peak(spectral_norm, chain)
    assert norm == pytest.approx(expected, rel=1e-13, abs=0)
    assert peak < 2 * 1024 * 1024


def test_lanczos_on_a_complex_gram_stays_complex():
    rng = np.random.default_rng(19)
    m = _random_complex(rng, 300)
    gram = _RecordingMatrix(m.conj().T @ m)
    theta = linalg._lanczos_top(gram)
    assert set(gram.seen) == {np.dtype(np.complex128)}
    assert theta == pytest.approx(np.linalg.norm(m, 2) ** 2, rel=2 * linalg._TAU)


def test_banded_step_cap_takes_dense_value(monkeypatch):
    s = _wrapped_stencil(300)
    dense = _fallback_norm(monkeypatch, s)
    monkeypatch.setattr(linalg, "_LANCZOS_MAX_STEPS", 4)
    banded = _banded_values(monkeypatch)
    assert spectral_norm(s) == dense
    assert banded == [None]


def test_banded_value_stands_when_lanczos_spends_its_budget(monkeypatch):
    # [A,[A,[[A,B],O]]] of the default comm-sweep at N = 1024 takes 36 Lanczos steps. With the
    # budget cut to 36 the run stops on it, and its Ritz value is still a lower bound: the
    # certificate, not the step count, decides, so the banded path gives the SVD's norm
    import semitrotter.experiments as ex

    n = 1024
    _, a, b, obs = ex._build_operators(ex.build_config("comm-sweep"), 1.0 / n)
    chain = ad(a, ad(a, ad(obs, ad(Stencil({0: b}, n), a))))
    expected = float(np.linalg.norm(np.asarray(chain), 2))
    steps = []
    lanczos_top = linalg._lanczos_top

    def counting_lanczos(gram):
        band = _RecordingMatrix(gram)
        theta = lanczos_top(band)
        steps.append(len(band.seen))
        return theta

    monkeypatch.setattr(linalg, "_LANCZOS_MAX_STEPS", 36)
    monkeypatch.setattr(linalg, "_lanczos_top", counting_lanczos)
    banded = _banded_values(monkeypatch)
    assert spectral_norm(chain) == pytest.approx(expected, rel=1e-13, abs=0)
    assert steps == [36] and len(banded) == 1 and banded[0] is not None


def test_wide_band_takes_banded_path(monkeypatch):
    # taps 120 apart give a Gram of half-bandwidth 120; folded it is a band of half-width 240,
    # two blocks of 240 and 60 rows, and no N x N eigenvalue solve runs
    n = 300
    rng = np.random.default_rng(51)
    s = Stencil({0: rng.standard_normal(n), 120: rng.standard_normal(n)}, n)
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(g):
        solved.append(g.shape[0])
        return eigvalsh(g)

    expected = float(np.linalg.norm(np.asarray(s), 2))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    banded = _banded_values(monkeypatch)
    assert spectral_norm(s) == pytest.approx(expected, rel=1e-13, abs=0)
    assert len(banded) == 1 and banded[0] is not None and n not in solved


@pytest.mark.parametrize("n", [6, 7, 64, 65])
def test_fold_puts_neighbours_at_most_twice_their_offset_apart(n):
    fold = linalg._fold(n)
    assert sorted(fold) == list(range(n))
    place = np.argsort(fold)
    rows = np.arange(n)
    for k in range(-n, n + 1):
        assert np.max(np.abs(place[rows] - place[(rows + k) % n])) <= 2 * abs(k)


def _recording_lu(monkeypatch):
    """Patch np.linalg.solve and np.linalg.inv to record the name of each call."""
    calls = []
    for name in ("solve", "inv"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    return calls


@pytest.mark.parametrize("banded", [False, True])
def test_factors_multiply_by_block_inverses_and_never_solve(monkeypatch, banded):
    # each diagonal block's inverse is taken once; the blocks right of it, or the coupling block
    # below it, are products with that inverse, never an LU solve per block
    n = 300
    rng = np.random.default_rng(54)
    if banded:
        gram = _band_gram(rng, n, 7, True)
        dense = np.asarray(gram)
    else:
        m = _random_complex(rng, n)
        gram = dense = m.conj().T @ m
    top = float(np.linalg.eigvalsh(dense)[-1])
    y = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    expected = np.linalg.solve(top * (1.0 + 1e-6) * np.eye(n) - dense, y)
    lu = _recording_lu(monkeypatch)
    solve = (linalg._banded_factor if banded else linalg._dense_factor)(gram, top * (1.0 + 1e-6))
    assert "solve" not in lu and lu.count("inv") == math.ceil(n / (linalg._BLOCK if banded else linalg._PANEL))
    x = solve(y)
    assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)


def _band_gram(rng, n, w, complex_taps):
    """The Gram of a stencil with taps at 0 ... w: a Hermitian PSD band of half-width min(w, N/2)."""
    taps = {r: rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_taps else 0.0) for r in range(w + 1)}
    return Stencil(taps, n).gram()


# 5 and 20 are below one 32-row block, 33 and 257 odd and no multiple of it; 5 at w >= 2 and
# 20 at w >= 5 have 2w >= N/2, and 5 at w >= 3 wraps its taps around the circle
@pytest.mark.parametrize("n", [5, 20, 33, 64, 257, 300])
@pytest.mark.parametrize("w", range(1, 8))
@pytest.mark.parametrize("complex_taps", [False, True])
def test_folded_factor_solves_the_shifted_gram(monkeypatch, n, w, complex_taps):
    rng = np.random.default_rng(1000 * n + 10 * w + complex_taps)
    gram = _band_gram(rng, n, w, complex_taps)
    dense = np.asarray(gram)
    top = float(np.linalg.eigvalsh(dense)[-1])
    y = rng.standard_normal((n, 3)) + (1j * rng.standard_normal((n, 3)) if complex_taps else 0.0)
    for sigma in (1.01 * top, 2.0 * top):
        solve = linalg._banded_factor(gram, sigma)
        expected = np.linalg.solve(sigma * np.eye(n) - dense, y)
        with monkeypatch.context() as patch:  # each block is substituted by a product with its inverse
            lu = _recording_lu(patch)
            x = solve(y)
        assert lu == []
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)
    with pytest.raises(np.linalg.LinAlgError):
        linalg._banded_factor(gram, 0.99 * top)


@pytest.mark.parametrize("n", [8, 300, 1024])
def test_one_tap_stencil_norm_is_its_largest_tap(monkeypatch, n):
    # a weighted shift: row i holds c[i] alone, in a column of its own, so no Gram is formed
    banded = _banded_values(monkeypatch)
    rng = np.random.default_rng(52)
    c = rng.standard_normal(n)
    for s in (Stencil({3: c}, n), Stencil({-1: c + 1j * rng.standard_normal(n)}, n), Stencil({0: c}, n)):
        (tap,) = s.taps.values()
        assert spectral_norm(s) == float(np.max(np.abs(tap)))
    assert banded == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_banded_non_finite_tap_raises(bad):
    n = 300
    s = _random_stencils(np.random.default_rng(53), n)[1]
    s.taps[2][7] = bad
    with pytest.raises(ConvergenceError):
        spectral_norm(s)


def test_stencil_spectral_norm_above_crossover():
    # a complex stencil's Gram above the crossover, where its banded certificate costs less than
    # a full eigenvalue solve of its dense Gram
    n = 328
    s = _random_stencils(np.random.default_rng(47), n)[1]
    assert spectral_norm(s) == pytest.approx(float(np.linalg.norm(np.asarray(s), 2)), rel=1e-10, abs=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, -np.inf)])
def test_stencil_spectral_norm_non_finite_tap_raises(bad):
    taps = {-1: np.ones(8), 2: np.ones(8, dtype=type(bad))}
    taps[2][3] = bad
    with pytest.raises(ConvergenceError):
        spectral_norm(Stencil(taps, 8))
    with pytest.raises(ConvergenceError):
        spectral_norm(Stencil({0: np.ones(8), 1: bad}, 8))


def test_stencil_spectral_norm_of_zero_and_of_scalar_taps():
    assert spectral_norm(Stencil({}, 8)) == 0.0
    assert spectral_norm(Stencil({0: np.zeros(8), 3: 0.0}, 8)) == 0.0
    # scalar taps alone: the stencil carries its N; its matrix is the circulant of first column e_1 + e_7
    column = np.zeros(8)
    column[[1, 7]] = 1.0
    assert spectral_norm(Stencil({-1: 1.0, 1: 1.0}, 8)) == spectral_norm(circulant(column))


def test_stencil_matrix_adds_taps_that_wrap_onto_each_other():
    # D_4 at N = 4 has taps at -2 and 2, the same diagonal mod 4
    s = fd_stencil(Grid(0.0, 4.0, 4), 4)
    assert list(s.taps) == [-2, -1, 0, 1, 2]
    for r, c in zip(s.taps, (1.0, -4.0, 6.0, -4.0, 1.0)):
        assert np.array_equal(s.taps[r], np.full(4, c))
    assert np.array_equal(np.asarray(s)[0], [6.0, -4.0, 2.0, -4.0])
    m = np.arange(16.0).reshape(4, 4)
    assert np.allclose(s.commutator(m), commutator(np.asarray(s), m), rtol=0, atol=1e-12)


@pytest.mark.parametrize("certify", [False, True], ids=["fallback", "certified"])
def test_tiny_grams_match_the_svd(monkeypatch, certify):
    # N = 1 ... 5: real and complex dense matrices, and three-tap stencils (whose offsets meet
    # mod N below N = 3), by the certified pipeline and by the eigvalsh fallback
    certified, tops = linalg._certified_top if certify else (lambda gram, factor: None), []
    monkeypatch.setattr(linalg, "_certified_top", lambda *args: tops.append(certified(*args)) or tops[-1])
    rng = np.random.default_rng(11)
    for n in range(1, 6):
        ops = [rng.standard_normal((n, n)), _random_complex(rng, n)]
        ops += [Stencil({r: rng.standard_normal(n) for r in (-1, 0, 1)}, n)]
        ops += [Stencil({r: rng.standard_normal(n) + 1j * rng.standard_normal(n) for r in (-1, 0, 1)}, n)]
        for op in ops:
            expected = np.linalg.norm(np.asarray(op), 2)
            assert spectral_norm(op) == pytest.approx(expected, rel=1e-15, abs=0), (n, op)
    assert len(tops) == 20 and tops.count(None) == (0 if certify else 20)  # every certificate held
