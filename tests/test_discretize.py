"""Grid and derivative-operator tests."""

import math

import numpy as np
import pytest

from semitrotter.discretize import (
    Grid,
    SchemeKind,
    build_diag,
    build_Dk,
    build_spectral_derivative,
    fd_stencil,
    sample,
    spectral_frequencies,
)
from semitrotter.expr import ExprEvalError, parse_expr
from semitrotter.linalg import circulant, commutator, spectral_norm
from semitrotter.model import ModelParams, build_A


def test_grid_nodes():
    g = Grid(-math.pi, math.pi, 8)
    assert g.dx == pytest.approx(2 * math.pi / 8)
    assert g.nodes[0] == -math.pi
    assert g.nodes[-1] == pytest.approx(math.pi - g.dx)
    assert np.all(np.diff(g.nodes) > 0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 6 + 1)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 8)
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 2)


def test_forward_diff_stencil():
    g = Grid(0.0, 1.0, 4)
    d = build_Dk(g, 1)
    assert np.array_equal(d[0].real, np.array([-4.0, 4.0, 0.0, 0.0]))
    assert d[3, 0] == 4.0  # wraparound
    assert np.allclose(d @ np.ones(4), 0.0)


def test_forward_diff_first_order_accuracy():
    # Taylor-remainder oracle: |D_F f - f'| <= dx/2 * max|f''| for f = e^{ix}
    g = Grid(-math.pi, math.pi, 64)
    f = np.exp(1j * g.nodes)
    err = np.max(np.abs(build_Dk(g, 1) @ f - 1j * f))
    assert err <= 0.5 * g.dx * 1.0 * 1.05


def test_backward_diff_is_minus_adjoint():
    # D_B = -D_F^dagger is the backward difference (f_i - f_{i-1})/dx
    g = Grid(-math.pi, math.pi, 16)
    d_b = -build_Dk(g, 1).T
    f = np.arange(16.0) ** 2
    assert np.allclose(d_b @ f, (f - np.roll(f, 1)) / g.dx, rtol=1e-14, atol=0)
    assert np.allclose(d_b @ np.ones(16), 0.0)


def test_backward_forward_product_symmetric():
    g = Grid(-math.pi, math.pi, 16)
    m = -build_Dk(g, 1).T @ build_Dk(g, 1)
    assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_laplacian_entries_and_factorizations():
    g = Grid(0.0, 1.0, 4)
    d2 = build_Dk(g, 2)
    assert np.all(np.diag(d2) == -32.0)
    assert np.allclose(d2 @ np.ones(4), 0.0)
    d_f, d_b = build_Dk(g, 1), -build_Dk(g, 1).T
    assert np.array_equal(d2, d_b @ d_f)
    assert np.array_equal(d2, d_f @ d_b)


def _product_ladder(g, k):
    """D_F^(k mod 2) D_2^(k//2) by matrix products, from D_F = (S - I)/dx and D_2 = D_B D_F."""
    eye = np.eye(g.n)
    d_f = (np.roll(eye, 1, axis=1) - eye) / g.dx
    out = np.linalg.matrix_power(-d_f.T @ d_f, k // 2)
    return d_f @ out if k % 2 else out


def _assert_is_product_ladder(g, k):
    # equal to rounding above k = 2: the taps scale C(k, j) by (1/dx)^k, the products round per factor
    got, expected = build_Dk(g, k), _product_ladder(g, k)
    if k <= 2:
        assert np.array_equal(got, expected)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_build_Dk_ladder():
    g = Grid(-math.pi, math.pi, 8)
    assert np.array_equal(build_Dk(g, 0), np.eye(8))
    for k in range(6):
        _assert_is_product_ladder(g, k)
    with pytest.raises(ValueError):
        build_Dk(g, -1)


def test_build_Dk_first_order_and_dtype():
    # D_F is (S - I)/dx to the bit; every order is real
    g = Grid(-math.pi, math.pi, 8)
    assert np.array_equal(build_Dk(g, 1), (np.roll(np.eye(8), 1, axis=1) - np.eye(8)) / g.dx)
    for k in range(5):
        assert build_Dk(g, k).dtype == np.float64


def test_Dk_family_commutes():
    g = Grid(-math.pi, math.pi, 12)
    mats = {k: build_Dk(g, k) for k in range(1, 5)}
    for k in range(1, 5):
        for j in range(1, 5):
            bound = 1e-10 * spectral_norm(mats[k]) * spectral_norm(mats[j])
            assert spectral_norm(commutator(mats[k], mats[j])) <= max(bound, 1e-12)


def test_Dk_norm_growth_is_discrete_height():
    sizes = (16, 32, 64, 128)
    for k in (1, 2, 3):
        norms = [spectral_norm(build_Dk(Grid(-math.pi, math.pi, n), k)) for n in sizes]
        slope = np.polyfit(np.log(sizes), np.log(norms), 1)[0]
        assert abs(slope - k) <= 0.15


def test_spectral_derivative_identity():
    g = Grid(-math.pi, math.pi, 16)
    assert np.allclose(build_spectral_derivative(g, 0), np.eye(16), atol=1e-12)


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("k", range(5))
def test_spectral_derivative_matches_dense_fft_product(n, k):
    # the circulant gathered from ifft of the multiplier against IDFT diag(mult) DFT
    g = Grid(-math.pi, math.pi, n)
    mult = (1j * spectral_frequencies(g)) ** k
    if k % 2 == 1:
        mult[n // 2] = 0.0
    dense = np.fft.ifft(mult[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    got = build_spectral_derivative(g, k)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_spectral_derivative_exact_on_trig():
    g = Grid(-math.pi, math.pi, 32)
    x = g.nodes
    d1 = build_spectral_derivative(g, 1)
    assert np.max(np.abs(d1 @ np.sin(x) - np.cos(x))) < 1e-12
    d2 = build_spectral_derivative(g, 2)
    f3 = np.exp(3j * x)
    assert np.max(np.abs(d2 @ f3 - (-9.0) * f3)) < 1e-11


def test_spectral_derivative_nyquist_guard():
    # odd derivatives zero the unpaired +-N/2 mode so real maps stay real
    g = Grid(-math.pi, math.pi, 16)
    nyquist = np.cos(8 * g.nodes)
    d1 = build_spectral_derivative(g, 1)
    assert np.max(np.abs(d1 @ nyquist)) < 1e-10
    real_samples = np.cos(g.nodes) + 0.3 * np.sin(3 * g.nodes)
    assert np.max(np.abs((d1 @ real_samples).imag)) < 1e-12


def test_spectral_frequencies_layout():
    g = Grid(-math.pi, math.pi, 8)
    assert np.array_equal(spectral_frequencies(g), np.array([0, 1, 2, 3, -4, -3, -2, -1]))


def test_build_diag_constant_one():
    g = Grid(-math.pi, math.pi, 8)
    assert np.array_equal(build_diag(g, parse_expr("1")), np.eye(8))


def test_build_diag_cos_samples():
    g = Grid(-math.pi, math.pi, 4)
    d = build_diag(g, parse_expr("cos(x)"))
    assert np.allclose(np.diag(d), [-1.0, 0.0, 1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("text", ["1e200*1e200*cos(x)", "1e308*2*x"])
def test_sample_refuses_a_non_finite_value(text):
    # the arithmetic overflows to inf (or inf * 0 = nan) without raising in eval_expr
    g = Grid(-math.pi, math.pi, 8)
    with pytest.raises(ExprEvalError, match="not finite"):
        sample(g, parse_expr(text))
    with pytest.raises(ExprEvalError):
        build_diag(g, parse_expr(text))


def test_build_diag_outputs_commute():
    g = Grid(-math.pi, math.pi, 16)
    y1 = build_diag(g, parse_expr("cos(x)"))
    y2 = build_diag(g, parse_expr("sin(x)*exp(cos(x))"))
    assert np.all(commutator(y1, y2) == 0)


@pytest.mark.parametrize("n", (16, 64, 1024))
def test_periodic_operators_are_exact_circulants(n):
    # the sweeps pass A to trotter_step as its first row and check no structure at run
    # time: this test holds the equality exactly, and A[0] = A[:, 0] (A is symmetric)
    g = Grid(-math.pi, math.pi, n)
    matrices = [build_Dk(g, 1), build_Dk(g, 2)]
    matrices += [build_spectral_derivative(g, k) for k in range(5)]
    for scheme in SchemeKind:
        params = ModelParams(h=1.0 / n, potential=parse_expr("cos(x)"), grid=g, scheme=scheme)
        a = build_A(params)
        assert np.array_equal(a[0], a[:, 0])
        matrices.append(a)
    for m in matrices:
        assert np.array_equal(m, circulant(m[:, 0]))


@pytest.mark.parametrize("n", [8, 64])
def test_fd_stencil_is_the_difference_ladder(n):
    # D_k's k + 1 taps are (-1)^(k-j) C(k, j) dx^-k at offset j - k//2 (exact where 1/dx = n),
    # and build_Dk, their matrix, is the product ladder
    for k in range(9):
        s = fd_stencil(Grid(0.0, 1.0, n), k)
        assert s == {j - k // 2: (-1) ** (k - j) * math.comb(k, j) * n**k for j in range(k + 1)}
    for k in range(6):
        _assert_is_product_ladder(Grid(-math.pi, math.pi, n), k)
