"""Suzuki plan and Trotter-step tests."""

import math

import numpy as np
import pytest

from semitrotter.discretize import Grid, SchemeKind
from semitrotter.expr import parse_expr
from semitrotter.linalg import ConvergenceError, LinalgError, NonHermitianError, spectral_norm, unitarity_defect, unitary_exp
from semitrotter.model import ModelParams, build_A, build_B, build_H
from semitrotter.splitting import (
    compute_steps,
    exact_unitary,
    heisenberg_evolve,
    suzuki_plan,
    trotter_step,
)


def _operators(h=1.0 / 64, n=64):
    p = ModelParams(
        h=h,
        potential=parse_expr("cos(x)"),
        grid=Grid(-math.pi, math.pi, n),
        scheme=SchemeKind.FINITE_DIFFERENCE,
    )
    return build_A(p), build_B(p), build_H(p)


def test_plan_order_one():
    plan = suzuki_plan(1)
    assert plan.stages == ((1.0, "A"), (1.0, "B"))


def test_plan_order_two():
    plan = suzuki_plan(2)
    assert plan.stages == ((0.5, "A"), (1.0, "B"), (0.5, "A"))


def test_plan_order_four():
    plan = suzuki_plan(4)
    assert len(plan.stages) == 11
    u2 = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
    assert u2 == pytest.approx(0.4144907717943757, abs=1e-15)
    assert plan.stages[0] == (pytest.approx(u2 / 2), "A")


def test_plan_stage_counts():
    assert {p: len(suzuki_plan(p).stages) for p in (2, 4, 6, 8)} == {2: 3, 4: 11, 6: 51, 8: 251}


def test_plan_coefficient_sums():
    for p in (1, 2, 4, 6, 8):
        plan = suzuki_plan(p)
        assert plan.coefficient_sum("A") == pytest.approx(1.0, abs=1e-13)
        assert plan.coefficient_sum("B") == pytest.approx(1.0, abs=1e-13)


def test_plan_palindromic_and_alternating():
    for p in (2, 4, 6, 8):
        plan = suzuki_plan(p)
        assert plan.is_palindromic()
        labels = [g for _, g in plan.stages]
        assert labels[0] == "A"
        assert all(labels[i] != labels[i + 1] for i in range(len(labels) - 1))


def test_plan_rejects_bad_orders():
    for bad in (0, 3, 5, 12, -2):
        with pytest.raises(ValueError):
            suzuki_plan(bad)


def test_trotter_step_dt_zero():
    a, b, _ = _operators(n=16)
    assert np.allclose(trotter_step(suzuki_plan(2), a, b, 0.0), np.eye(16), atol=1e-12)


def test_trotter_step_commuting_case_exact():
    # a constant potential makes B a multiple of the identity: splitting is exact,
    # up to the eigh reference's roundoff, about 10 eps * dt * ||H|| (3e-14 to 4.4e-14 here)
    dt = 0.37
    for scheme in SchemeKind:
        params = ModelParams(
            h=1.0 / 64, potential=parse_expr("0.7"), grid=Grid(-math.pi, math.pi, 64), scheme=scheme
        )
        a, b = build_A(params), build_B(params)
        exact = exact_unitary(a + b, dt)
        for p in (1, 2, 4, 6):
            assert spectral_norm(trotter_step(suzuki_plan(p), a, b, dt) - exact) <= 1e-13


@pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda s: s.value)
@pytest.mark.parametrize("n", (32, 64))
def test_trotter_step_matches_dense_stage_product(scheme, n):
    params = ModelParams(
        h=1.0 / n, potential=parse_expr("cos(x)"), grid=Grid(-math.pi, math.pi, n), scheme=scheme
    )
    a, b = build_A(params), build_B(params)
    dt = 0.1
    for p in (1, 2, 4, 6):  # orders 4 and 6 carry negative coefficients
        plan = suzuki_plan(p)
        dense = np.eye(n, dtype=np.complex128)
        for c, g in plan.stages:
            dense = unitary_exp(a if g == "A" else b, c * dt) @ dense
        assert np.max(np.abs(trotter_step(plan, a, b, dt) - dense)) <= 1e-12


def test_trotter_step_rejects_dense_generator():
    rng = np.random.default_rng(15)
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    dense = m + m.conj().T  # Hermitian, neither diagonal nor circulant
    a, b, _ = _operators(n=16)
    with pytest.raises(ValueError, match="A must be circulant"):
        trotter_step(suzuki_plan(2), dense, b, 0.1)
    with pytest.raises(ValueError, match="B must be diagonal"):
        trotter_step(suzuki_plan(2), a, dense, 0.1)


def test_trotter_step_rejects_non_finite_generator():
    # NaN != NaN must not turn a non-finite generator into a role error
    with pytest.raises(ConvergenceError):
        trotter_step(suzuki_plan(2), np.eye(4), np.diag([1.0, np.nan, 2.0, 3.0]), 0.1)
    with pytest.raises(ConvergenceError):
        trotter_step(suzuki_plan(2), np.full((4, 4), np.nan), np.diag([1.0, 2.0, 3.0, 4.0]), 0.1)


def test_trotter_step_halving_dt_cuts_error_eightfold():
    a, b, h = _operators()
    errs = []
    for dt in (1.0 / 16, 1.0 / 32):
        u = trotter_step(suzuki_plan(2), a, b, dt)
        errs.append(spectral_norm(u - exact_unitary(h, dt)))
    ratio = errs[0] / errs[1]
    assert 2**2.5 <= ratio <= 2**3.5


def test_trotter_step_unitary():
    a, b, _ = _operators()
    for p in (1, 2, 4, 6):
        assert unitarity_defect(trotter_step(suzuki_plan(p), a, b, 0.25)) <= 1e-10


def test_exact_unitary_properties():
    _, _, h = _operators(n=32)
    assert np.allclose(exact_unitary(h, 0.0), np.eye(32), atol=1e-12)
    u = exact_unitary(h, 0.4)
    assert spectral_norm(u @ exact_unitary(h, -0.4) - np.eye(32)) <= 1e-10
    assert spectral_norm(exact_unitary(h, 0.7) - u @ exact_unitary(h, 0.3)) <= 1e-9


def test_heisenberg_evolve_trivial_cases():
    rng = np.random.default_rng(12)
    obs = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    assert np.array_equal(heisenberg_evolve(np.eye(16), obs, 5), obs)
    _, _, h = _operators(n=16)
    u = exact_unitary(h, 0.3)
    assert np.array_equal(heisenberg_evolve(u, obs, 0), obs)


def test_heisenberg_evolve_rejects_non_unitary():
    obs = np.eye(16)
    _, _, h = _operators(n=16)
    with pytest.raises(LinalgError, match="not unitary") as info:
        heisenberg_evolve(1.01 * exact_unitary(h, 0.3), obs, 1)
    assert not isinstance(info.value, NonHermitianError)


def test_heisenberg_evolve_is_isometry():
    rng = np.random.default_rng(13)
    obs = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    _, _, h = _operators(n=32)
    u = exact_unitary(h, 0.21)
    evolved = heisenberg_evolve(u, obs, 7)
    assert spectral_norm(evolved) == pytest.approx(spectral_norm(obs), rel=1e-9)


def test_heisenberg_evolve_matches_power():
    rng = np.random.default_rng(14)
    obs = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    _, _, h = _operators(n=16)
    u = exact_unitary(h, 0.11)
    u3 = np.linalg.matrix_power(u, 3)
    assert spectral_norm(heisenberg_evolve(u, obs, 3) - u3.conj().T @ obs @ u3) < 1e-11


def test_compute_steps_examples():
    assert compute_steps(1.0, 1.0, 2, 1.0) == 1
    assert compute_steps(2.0, 1e-4, 2, 1.0) == 283
    # doubling eps never increases n
    for eps in (1e-6, 1e-4, 1e-2):
        assert compute_steps(1.5, 2 * eps, 4, 3.0) <= compute_steps(1.5, eps, 4, 3.0)
    with pytest.raises(ValueError):
        compute_steps(-1.0, 1e-3, 2, 1.0)


def test_compute_steps_satisfies_bound():
    for p in (1, 2, 4):
        for eps in (1e-2, 1e-5):
            n = compute_steps(2.0, eps, p, 0.7)
            assert 0.7 * 2.0 ** (p + 1) / n**p <= eps
            if n > 1:
                assert 0.7 * 2.0 ** (p + 1) / (n - 1) ** p > eps


def test_order_condition_slopes():
    # unitary order condition: log-log slope of one-step error vs dt >= p - 0.3
    a, b, h = _operators()
    dts = [1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64]
    for p in (1, 2, 4, 6):
        errs = [
            spectral_norm(trotter_step(suzuki_plan(p), a, b, dt) - exact_unitary(h, dt))
            for dt in dts
        ]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        # one-step order is p + 1; p = 6 grazes the roundoff floor at the
        # smallest steps, so assert the scheme-order bound only
        assert slope >= p - 0.3
