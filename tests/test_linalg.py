"""Dense kernel tests against brute-force oracles."""

import math

import numpy as np
import pytest

from semitrotter import linalg
from semitrotter.discretize import Grid, build_Dk, fd_stencil
from semitrotter.linalg import (
    ConvergenceError,
    NonHermitianError,
    circulant,
    commutator,
    hermitian_eig,
    hermiticity_defect,
    spectral_norm,
    stencil_commutator,
    stencil_matrix,
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
    # real eigenvectors take two real products; the complex product is the reference
    rng = np.random.default_rng(9)
    m = rng.standard_normal((40, 40))
    m = m + m.T
    w, v = hermitian_eig(m)
    reference = (v * np.exp(-1j * 0.8 * w)) @ v.T.astype(complex)
    assert np.max(np.abs(unitary_exp(m, 0.8) - reference)) <= 1e-14
    assert unitary_exp(m, 0.8).dtype == np.complex128


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
    # a complex SVD, independent of the Gram eigenvalue that spectral_norm uses
    return float(np.linalg.norm(np.asarray(m, np.complex128), 2))


def test_spectral_norm_matches_oracle_on_sweep_matrices(monkeypatch):
    # the comm-sweep word chains at h = 1/32 (FD and spectral) have a degenerate
    # top singular value, and the order-6 h-sweep [O, W - I] and W - I are below 1e-8
    import semitrotter.experiments as ex

    pairs = []

    def checked(m):
        pairs.append((spectral_norm(m), _norm_oracle(m)))
        return pairs[-1][0]

    monkeypatch.setattr(ex, "spectral_norm", checked)
    ex.run_experiment(ex.build_config("comm-sweep", {"h": "1/32"}))
    ex.run_experiment(ex.build_config("comm-sweep", {"h": "1/32", "scheme": "spectral"}))
    ex.run_experiment(ex.build_config("h-sweep", {"h": "1/32, 1/64", "orders": "6"}))
    assert len(pairs) == 2 * len(ex.COMM_WORD_LABELS) + 2 * 2
    for value, oracle in pairs:
        assert value == pytest.approx(oracle, rel=1e-8)


def test_spectral_norm_matches_oracle_above_crossover(monkeypatch):
    # the h-sweep's [O, W - I] and W - I at N = 256 and 512 take the Lanczos path,
    # and so does a unitary, whose top singular value is fully degenerate
    import semitrotter.experiments as ex

    pairs = []

    def checked(m):
        assert m.shape[0] > linalg._EIGVALSH_MAX_N and np.iscomplexobj(m)
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
        assert value == pytest.approx(oracle, rel=1e-10)


def _complex_gram(n, seed):
    m = _random_complex(np.random.default_rng(seed), n)
    return m.conj().T @ m


def test_certificate_failure_reads_exact_top_eigenvalue(monkeypatch):
    gram = _complex_gram(200, 15)
    top = float(np.linalg.eigvalsh(gram)[-1])
    factored = []
    cholesky = np.linalg.cholesky

    def recording(a):
        try:
            cholesky(a)
        except np.linalg.LinAlgError:
            factored.append(False)
            raise
        factored.append(True)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    assert linalg._certified_top(gram.copy(), 0.9 * top) == pytest.approx(top, rel=1e-12)
    assert factored == [False]
    theta = linalg._lanczos_top(gram)
    assert theta <= top * (1 + 1e-14)
    assert linalg._certified_top(gram.copy(), theta) == theta
    assert factored == [False, True]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_spectral_norm_non_finite_above_crossover_raises(bad):
    m = _random_complex(np.random.default_rng(16), linalg._EIGVALSH_MAX_N + 1)
    m[3, 5] = bad
    with pytest.raises(ConvergenceError):
        spectral_norm(m)


def test_spectral_norm_is_deterministic():
    # the Lanczos start is seeded afresh on every call: no state carries over
    rng = np.random.default_rng(17)
    m = _random_complex(rng, 256)
    first = spectral_norm(m)
    spectral_norm(_random_complex(rng, 300))
    assert spectral_norm(m) == first


def test_spectral_norm_routes_by_dtype_and_size(monkeypatch):
    krylov, solved = [], []
    lanczos_top = linalg._lanczos_top
    eigvalsh = np.linalg.eigvalsh

    def counting_lanczos(g):
        krylov.append(g.shape[0])
        return lanczos_top(g)

    def counting_eigvalsh(g):
        solved.append((g.dtype, g.shape[0]))
        return eigvalsh(g)

    monkeypatch.setattr(linalg, "_lanczos_top", counting_lanczos)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    rng = np.random.default_rng(18)
    crossover = linalg._EIGVALSH_MAX_N
    for n in (2, crossover, crossover + 1, 512):
        spectral_norm(rng.standard_normal((n, n)))
    for n in (2, 64, crossover):
        spectral_norm(_random_complex(rng, n))
    assert krylov == []
    assert solved == [(np.float64, n) for n in (2, crossover, crossover + 1, 512)] + [
        (np.complex128, n) for n in (2, 64, crossover)
    ]
    spectral_norm(_random_complex(rng, crossover + 1))
    assert krylov == [crossover + 1]


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
    stencils.append({r: -0.5 / n * c for r, c in fd_stencil(grid, 2).items()})
    stencils += [{r: rng.standard_normal(n) * c for r, c in s.items()} for s in stencils]
    for s in stencils:
        dense = stencil_matrix(s, n)
        for m in (rng.standard_normal((n, n)), _random_complex(rng, n)):
            expected = commutator(dense, m)
            got = stencil_commutator(s, m)
            assert got.dtype == expected.dtype
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_stencil_matrix_adds_taps_that_wrap_onto_each_other():
    # D_4 at N = 4 has taps at -2 and 2, the same diagonal mod 4
    s = fd_stencil(Grid(0.0, 4.0, 4), 4)
    assert s == {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}
    assert np.array_equal(stencil_matrix(s, 4)[0], [6.0, -4.0, 2.0, -4.0])
    m = np.arange(16.0).reshape(4, 4)
    assert np.allclose(stencil_commutator(s, m), commutator(stencil_matrix(s, 4), m), rtol=0, atol=1e-12)
