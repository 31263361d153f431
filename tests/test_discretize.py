"""Grid and derivative-operator tests."""

import math

import numpy as np
import pytest

from semitrotter.discretize import (
    Grid,
    SchemeKind,
    build_backward_diff,
    build_diag,
    build_Dk,
    build_forward_diff,
    build_laplacian,
    build_spectral_derivative,
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
    d = build_forward_diff(g)
    assert np.array_equal(d[0].real, np.array([-4.0, 4.0, 0.0, 0.0]))
    assert d[3, 0] == 4.0  # wraparound
    assert np.allclose(d @ np.ones(4), 0.0)


def test_forward_diff_first_order_accuracy():
    # Taylor-remainder oracle: |D_F f - f'| <= dx/2 * max|f''| for f = e^{ix}
    g = Grid(-math.pi, math.pi, 64)
    f = np.exp(1j * g.nodes)
    err = np.max(np.abs(build_forward_diff(g) @ f - 1j * f))
    assert err <= 0.5 * g.dx * 1.0 * 1.05


def test_backward_diff_is_minus_adjoint():
    g = Grid(-math.pi, math.pi, 16)
    d_f = build_forward_diff(g)
    assert np.array_equal(build_backward_diff(g), -d_f.conj().T)
    assert np.allclose(build_backward_diff(g) @ np.ones(16), 0.0)


def test_backward_forward_product_symmetric():
    g = Grid(-math.pi, math.pi, 16)
    m = build_backward_diff(g) @ build_forward_diff(g)
    assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_laplacian_entries_and_factorizations():
    g = Grid(0.0, 1.0, 4)
    d2 = build_laplacian(g)
    assert np.all(np.diag(d2) == -32.0)
    assert np.allclose(d2 @ np.ones(4), 0.0)
    d_f, d_b = build_forward_diff(g), build_backward_diff(g)
    assert np.array_equal(d2, d_b @ d_f)
    assert np.array_equal(d2, d_f @ d_b)


def test_build_Dk_ladder():
    g = Grid(-math.pi, math.pi, 8)
    assert np.array_equal(build_Dk(g, 0), np.eye(8))
    assert np.array_equal(build_Dk(g, 2), build_laplacian(g))
    assert np.array_equal(build_Dk(g, 3), build_forward_diff(g) @ build_laplacian(g))
    assert np.array_equal(build_Dk(g, 4), np.linalg.matrix_power(build_laplacian(g), 2))
    with pytest.raises(ValueError):
        build_Dk(g, -1)


def test_build_Dk_first_order_and_dtype():
    # k = 1 is the first-order matrix itself; every order is real
    g = Grid(-math.pi, math.pi, 8)
    assert np.array_equal(build_Dk(g, 1), build_forward_diff(g))
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
    matrices = [build_forward_diff(g), build_laplacian(g)]
    matrices += [build_spectral_derivative(g, k) for k in range(5)]
    for scheme in SchemeKind:
        params = ModelParams(h=1.0 / n, potential=parse_expr("cos(x)"), grid=g, scheme=scheme)
        a = build_A(params)
        assert np.array_equal(a[0], a[:, 0])
        matrices.append(a)
    for m in matrices:
        assert np.array_equal(m, circulant(m[:, 0]))
