"""Hamiltonian assembly and polynomial observable tests."""

import math

import numpy as np
import pytest

from semitrotter.discretize import Grid, SchemeKind, build_diag, build_forward_diff, build_laplacian
from semitrotter.expr import parse_expr
from semitrotter.linalg import commutator, hermiticity_defect, spectral_norm, stencil_matrix
from semitrotter.model import (
    ModelParams,
    PolyObservableSpec,
    build_A,
    build_B,
    build_observable,
    declared_operators,
)

COS = parse_expr("cos(x)")
SIN = parse_expr("sin(x)")


def _params(h=1.0 / 64, n=64, scheme=SchemeKind.FINITE_DIFFERENCE, potential=COS):
    return ModelParams(h=h, potential=potential, grid=Grid(-math.pi, math.pi, n), scheme=scheme)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(h=0.0)
    with pytest.raises(ValueError):
        _params(h=1.5)


def test_observable_spec_validation():
    with pytest.raises(ValueError):
        PolyObservableSpec(terms=((0, COS), (0, SIN)), h=0.5)
    with pytest.raises(ValueError):
        PolyObservableSpec(terms=((-1, COS),), h=0.5)


def test_build_A_matches_half_laplacian():
    p = _params()
    expected = -0.5 * p.h * build_laplacian(p.grid)
    assert np.allclose(build_A(p), expected, atol=1e-15)


def test_build_A_linear_in_h():
    a1 = build_A(_params(h=1.0 / 128))
    a2 = build_A(_params(h=1.0 / 64))
    assert spectral_norm(a2) == pytest.approx(2.0 * spectral_norm(a1), rel=1e-10)


def test_build_A_norm_closed_form():
    # circulant spectrum oracle: ||A|| = kc h max_k 2(1 - cos(2 pi k/N))/dx^2 (FD)
    p = _params()
    fd_max = max(
        2.0 * (1.0 - math.cos(2.0 * math.pi * k / p.grid.n)) / p.grid.dx**2
        for k in range(p.grid.n)
    )
    assert spectral_norm(build_A(p)) == pytest.approx(0.5 * p.h * fd_max, rel=1e-8)

    p_sp = _params(scheme=SchemeKind.SPECTRAL)
    xi_max = (2.0 * math.pi / (p_sp.grid.b - p_sp.grid.a)) * (p_sp.grid.n // 2)
    assert spectral_norm(build_A(p_sp)) == pytest.approx(0.5 * p_sp.h * xi_max**2, rel=1e-8)


def test_build_B_cos_norm():
    p = _params()
    b = build_B(p)
    assert np.all(b == np.diag(np.diag(b)))
    assert np.max(np.abs(b.imag)) == 0.0
    # the grid contains x = 0 where |cos| = 1
    assert spectral_norm(b) == pytest.approx(1.0 / p.h, rel=1e-10)


def test_build_B_zero_potential():
    assert np.all(build_B(_params(potential=parse_expr("0"))) == 0)


def test_build_B_commutes_with_diag():
    p = _params(n=16)
    b = build_B(p)
    y = build_diag(p.grid, SIN)
    assert np.all(commutator(b, y) == 0)


def test_model_pieces_hermitian():
    for scheme in (SchemeKind.FINITE_DIFFERENCE, SchemeKind.SPECTRAL):
        p = _params(scheme=scheme)
        for mat in (build_A(p), build_B(p), build_A(p) + build_B(p)):
            assert hermiticity_defect(mat) <= 1e-12


def test_operators_are_real():
    spec = PolyObservableSpec(terms=((0, COS), (1, SIN), (2, COS), (3, SIN)), h=1.0 / 16)
    for scheme in (SchemeKind.FINITE_DIFFERENCE, SchemeKind.SPECTRAL):
        p = _params(h=1.0 / 16, n=16, scheme=scheme)
        assert build_A(p).dtype == np.float64
        assert build_B(p).dtype == np.float64
        assert build_observable(spec, p.grid, scheme).dtype == np.float64


def test_observable_degenerate_multiplication():
    p = _params(n=16)
    spec = PolyObservableSpec(terms=((0, COS),), h=p.h)
    assert np.array_equal(build_observable(spec, p.grid, p.scheme), build_diag(p.grid, COS))


def test_observable_first_order_term():
    p = _params(n=16)
    spec = PolyObservableSpec(terms=((1, parse_expr("1")),), h=p.h)
    got = build_observable(spec, p.grid, SchemeKind.FINITE_DIFFERENCE)
    assert np.allclose(got, p.h * build_forward_diff(p.grid), atol=1e-15)


def test_observable_norm_uniform_in_h():
    # operational form of "operator norm of order h^0"
    grid = Grid(-math.pi, math.pi, 64)
    norms = []
    for k in range(5, 11):
        h = 2.0**-k
        spec = PolyObservableSpec(terms=((0, COS), (1, SIN)), h=h)
        norms.append(spectral_norm(build_observable(spec, grid, SchemeKind.FINITE_DIFFERENCE)))
    assert max(norms) / min(norms) <= 2.0
    two_point = [norms[0], norms[-1]]  # h = 1/32 vs 1/1024
    assert max(two_point) / min(two_point) <= 1.5


def test_observable_fd_spectral_agree_as_N_grows():
    # fixed smooth data: the FD observable converges to the spectral one
    errs = []
    sizes = (16, 32, 64, 128)
    for n in sizes:
        grid = Grid(-math.pi, math.pi, n)
        spec = PolyObservableSpec(terms=((0, COS), (1, SIN)), h=1.0 / 32)
        o_fd = build_observable(spec, grid, SchemeKind.FINITE_DIFFERENCE)
        o_sp = build_observable(spec, grid, SchemeKind.SPECTRAL)
        u = np.sin(2 * grid.nodes) + np.cos(3 * grid.nodes)
        errs.append(np.max(np.abs((o_fd - o_sp) @ u)))
    slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
    assert slope < 0


@pytest.mark.parametrize("n", [4, 16, 64, 1024])
def test_declared_fd_operators_are_the_dense_ones(n):
    # FD's stencils hold bit for bit the entries of build_A and, for degrees up to 2, build_observable
    for h in (1.0 / n, 0.3, 1e-5):
        params = _params(h=h, n=n)
        spec = PolyObservableSpec(((0, COS), (1, SIN), (2, parse_expr("exp(sin(x))"))), h)
        a, obs = declared_operators(params, spec)
        assert np.array_equal(stencil_matrix(a, n), build_A(params))
        assert np.array_equal(stencil_matrix(obs, n), build_observable(spec, params.grid))


def test_declared_spectral_operators_are_dense():
    params = _params(scheme=SchemeKind.SPECTRAL)
    spec = PolyObservableSpec(((0, COS), (1, SIN)), params.h)
    a, obs = declared_operators(params, spec)
    assert np.array_equal(a, build_A(params))
    assert np.array_equal(obs, build_observable(spec, params.grid, SchemeKind.SPECTRAL))
