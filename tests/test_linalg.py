"""Dense kernel tests against brute-force oracles."""

import math

import numpy as np
import pytest

from semitrotter.discretize import Grid, build_forward_diff, build_backward_diff, build_laplacian
from semitrotter.linalg import (
    ConvergenceError,
    NonHermitianError,
    circulant_exp,
    commutator,
    hermitian_eig,
    spectral_norm,
    unitarity_defect,
    unitary_exp,
)


def _random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_commutator_self_is_zero():
    rng = np.random.default_rng(2)
    m = _random_complex(rng, 6)
    assert np.all(commutator(m, m) == 0)


def test_forward_backward_commute():
    g = Grid(-math.pi, math.pi, 16)
    c = commutator(build_forward_diff(g), build_backward_diff(g))
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
    w, _ = hermitian_eig(-build_laplacian(g))
    expected = sorted(2.0 * n**2 * (1.0 - np.cos(2.0 * np.pi * k / n)) for k in range(n))
    assert np.allclose(sorted(w), expected, atol=1e-9)
    assert sorted(round(v / n**2) for v in w) == [0, 2, 2, 4]


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


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


def test_unitary_exp_is_unitary():
    rng = np.random.default_rng(8)
    m = _random_complex(rng, 16)
    m = m + m.conj().T
    assert unitarity_defect(unitary_exp(m, 1.3)) <= 1e-10


def test_spectral_norm_identity_and_diag():
    assert spectral_norm(np.eye(7)) == pytest.approx(1.0, rel=1e-8)
    assert spectral_norm(np.diag([3.0, -4.0]).astype(complex)) == pytest.approx(4.0, rel=1e-8)
    assert spectral_norm(np.zeros((5, 5))) == 0.0


def test_spectral_norm_forward_diff_symbol():
    # oracle 1: the circulant symbol max_k |e^{2 pi i k/8} - 1| / dx
    # oracle 2: brute-force SVD
    n = 8
    g = Grid(-math.pi, math.pi, n)
    d_f = build_forward_diff(g)
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


def _norm_oracle(m):
    # independent of the SVD that spectral_norm uses
    return math.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)[-1], 0.0))


def test_spectral_norm_matches_oracle_on_sweep_matrices(monkeypatch):
    # the comm-sweep word chain at h = 1/32 has a degenerate top singular
    # value, and the order-6 h-sweep matrices [O, W - I] and W - I are below 1e-8
    import semitrotter.experiments as ex

    pairs = []

    def checked(m):
        pairs.append((spectral_norm(m), _norm_oracle(m)))
        return pairs[-1][0]

    monkeypatch.setattr(ex, "spectral_norm", checked)
    ex.run_comm_sweep(ex.build_config("comm-sweep", {"h": "1/32"}))
    ex.run_h_sweep(ex.build_config("h-sweep", {"h": "1/32, 1/64", "orders": "6"}))
    assert len(pairs) == len(ex.COMM_WORD_LABELS) + 2 * 2
    for value, oracle in pairs:
        assert value == pytest.approx(oracle, rel=1e-8)


def test_circulant_exp_zero_row():
    assert np.allclose(circulant_exp(np.zeros(6), 1.7), np.eye(6), atol=1e-12)


def test_circulant_exp_theta_zero():
    g = Grid(0.0, 1.0, 8)
    first_row = build_laplacian(g)[0]
    assert np.allclose(circulant_exp(first_row, 0.0), np.eye(8), atol=1e-12)


def test_circulant_exp_matches_dense_oracle():
    g = Grid(-math.pi, math.pi, 8)
    c = -build_laplacian(g)
    theta = 0.23
    fast = circulant_exp(c[0], theta)
    dense = unitary_exp(c, theta)
    assert spectral_norm(fast - dense) <= 1e-10
    assert unitarity_defect(fast) <= 1e-10


def test_circulant_exp_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        circulant_exp(np.array([0.0, 1.0, 0.0, 0.0]), 0.5)  # pure shift is not Hermitian


def test_convergence_error_has_iterations():
    err = ConvergenceError("test", 42)
    assert err.iterations == 42
    assert "42" in str(err)
