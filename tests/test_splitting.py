"""Suzuki plan and Trotter-step tests."""

import functools
import itertools
import math
import threading

import numpy as np
import pytest

from semitrotter import linalg, splitting
from semitrotter.cli import main
from semitrotter.discretize import Grid, SchemeKind
from semitrotter.expr import parse_expr
from semitrotter.linalg import (
    ConvergenceError,
    DimensionMismatchError,
    NonHermitianError,
    hermitian_eig,
    spectral_norm,
    unitarity_defect,
    unitary_exp,
)
from semitrotter.model import ModelParams, build_A, build_B
from semitrotter.splitting import (
    compute_steps,
    suzuki_plan,
    trotter_step,
)


def _operators(h=1.0 / 64, n=64, scheme=SchemeKind.FINITE_DIFFERENCE):
    p = ModelParams(
        h=h,
        potential=parse_expr("cos(x)"),
        grid=Grid(-math.pi, math.pi, n),
        scheme=scheme,
    )
    a, b = build_A(p), build_B(p)
    return a, b, a + b


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
    assert np.allclose(trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.0), np.eye(16), atol=1e-12)


def test_trotter_step_commuting_case_exact():
    # a constant potential makes B a multiple of the identity: splitting is exact,
    # up to the eigh reference's roundoff, about 10 eps * dt * ||H|| (3e-14 to 4.4e-14 here)
    dt = 0.37
    for scheme in SchemeKind:
        params = ModelParams(
            h=1.0 / 64, potential=parse_expr("0.7"), grid=Grid(-math.pi, math.pi, 64), scheme=scheme
        )
        a, b = build_A(params), build_B(params)
        exact = unitary_exp(a + b, dt)
        for p in (1, 2, 4, 6):
            assert spectral_norm(trotter_step(suzuki_plan(p), a[0], np.diag(b), dt) - exact) <= 1e-13


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
        assert np.max(np.abs(trotter_step(plan, a[0], np.diag(b), dt) - dense)) <= 1e-12


def test_trotter_step_rejects_non_finite_generator():
    # a NaN in A's first row or in B's diagonal is a non-finite generator
    with pytest.raises(ConvergenceError):
        trotter_step(suzuki_plan(2), np.eye(4)[0], np.array([1.0, np.nan, 2.0, 3.0]), 0.1)
    with pytest.raises(ConvergenceError):
        trotter_step(suzuki_plan(2), np.full(4, np.nan), np.array([1.0, 2.0, 3.0, 4.0]), 0.1)


def test_trotter_step_rejects_complex_potential():
    # a complex diagonal B would make a non-unitary "step"; the complex-A case raises the same
    a, _, _ = _operators(n=8)
    with pytest.raises(NonHermitianError):
        trotter_step(suzuki_plan(2), a[0], np.linspace(0.0, 1.0, 8) + 0.5j, 0.1)
    with pytest.raises(NonHermitianError):  # a pure shift is a circulant with a complex symbol
        trotter_step(suzuki_plan(2), np.array([0.0, 1.0, 0.0, 0.0]), np.zeros(4), 0.1)
    real_as_complex = np.linspace(0.0, 1.0, 8) + 0j
    assert unitarity_defect(trotter_step(suzuki_plan(2), a[0], real_as_complex, 0.1)) <= 1e-12


def test_trotter_step_rejects_vectors_of_unequal_or_zero_length():
    a, b, _ = _operators(n=16)
    with pytest.raises(DimensionMismatchError):
        trotter_step(suzuki_plan(2), a[0], np.diag(b)[:8], 0.1)
    with pytest.raises(DimensionMismatchError):
        trotter_step(suzuki_plan(2), a[0, :8], np.diag(b), 0.1)
    with pytest.raises(DimensionMismatchError):
        trotter_step(suzuki_plan(2), a, b, 0.1)  # dense matrices are not the vectors
    with pytest.raises(DimensionMismatchError):
        trotter_step(suzuki_plan(2), np.zeros(0), np.zeros(0), 0.1)


@pytest.mark.parametrize(
    "stages",
    [
        ((0.3, "A"), (0.5, "B"), (0.5, "B"), (0.3, "A")),  # even: no middle stage
        ((0.3, "B"), (0.5, "A"), (0.5, "A"), (0.3, "B")),
        ((1.0, "A"),),
        ((1.0, "B"),),
        ((0.2, "A"), (0.4, "B"), (-0.6, "A"), (0.7, "B"), (-0.6, "A"), (0.4, "B"), (0.2, "A")),
    ],
    ids=["even", "even-b-outside", "a-alone", "b-alone", "odd-b-middle"],
)
def test_palindromes_of_every_length_match_dense_stage_product(stages):
    a, b, _ = _operators(n=32)
    plan = splitting.StagePlan(stages)
    assert plan.is_palindromic()
    dense = np.eye(32, dtype=np.complex128)
    for c, g in stages:
        dense = unitary_exp(a if g == "A" else b, c * 0.1) @ dense
    assert np.max(np.abs(trotter_step(plan, a[0], np.diag(b), 0.1) - dense)) <= 1e-12
    power = np.linalg.matrix_power(dense, 3)
    assert np.max(np.abs(trotter_step(plan, a[0], np.diag(b), 0.1, steps=3) - power)) <= 1e-12


def _long_double_trotter_power(plan, a, b, dt, steps):
    """(u_l ... u_1)^steps in clongdouble, from an explicit DFT matrix and dense products.

    Independent of the package's kernels: no FFT, no eigensolver, no unitary_exp.
    A = F^-1 diag(F a[:, 0]) F with F_jk = e^{-2 pi i jk/N}; every stage
    exponential is cos - i sin of a long-double angle.
    """
    n = a.shape[0]
    ld = np.longdouble
    k = np.arange(n)
    angle = (-2 * (4 * np.arctan(ld(1))) / n) * (np.outer(k, k) % n).astype(ld)
    f = np.cos(angle) + 1j * np.sin(angle)
    f_inv = f.conj().T / n
    symbol = (f @ a[:, 0].astype(ld)).real
    potential = np.diag(b).astype(ld)
    step = np.eye(n, dtype=np.clongdouble)
    for c, g in plan.stages:
        theta = ld(c) * ld(dt) * (symbol if g == "A" else potential)
        phase = np.cos(theta) - 1j * np.sin(theta)
        step = (f_inv * phase) @ (f @ step) if g == "A" else phase[:, None] * step
    result = np.eye(n, dtype=np.clongdouble)
    while steps:
        if steps & 1:
            result = result @ step
        steps >>= 1
        if steps:
            step = step @ step
    return result


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs an extended long double")
@pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda s: s.value)
@pytest.mark.parametrize("n", (32, 64))
def test_trotter_power_matches_long_double_oracle(scheme, n):
    params = ModelParams(
        h=1.0 / n, potential=parse_expr("cos(x)"), grid=Grid(-math.pi, math.pi, n), scheme=scheme
    )
    a, b = build_A(params), build_B(params)
    t = 0.5
    for dt in (1.0 / 16, 1.0 / 64):
        steps = round(t / dt)
        for p in (1, 2, 4, 6):
            plan = suzuki_plan(p)
            reference = _long_double_trotter_power(plan, a, b, dt, steps)
            error = trotter_step(plan, a[0], np.diag(b), dt, steps) - reference.astype(np.complex128)
            assert np.linalg.norm(error, 2) <= 1e-12, (p, dt)


@pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda s: s.value)
def test_palindromic_step_is_complex_symmetric(scheme):
    a, b, _ = _operators(h=1.0 / 256, n=256, scheme=scheme)
    for p in (2, 4, 6):
        step = trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.1)
        assert np.max(np.abs(step - step.T)) <= 1e-14
    step = trotter_step(suzuki_plan(1), a[0], np.diag(b), 0.1)
    assert np.max(np.abs(step - step.T)) > 1e-3


@pytest.mark.parametrize("n", (64, 256))
def test_step_power_matches_matrix_power(n):
    a, b, _ = _operators(h=1.0 / n, n=n)
    for p in (1, 2, 4, 6):
        step = trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.1)
        for steps in (1, 5, 9, 27, 32):
            power = trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.1, steps=steps)
            assert np.max(np.abs(power - np.linalg.matrix_power(step, steps))) <= 1e-13
    assert np.array_equal(trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.1, steps=0), np.eye(n))
    with pytest.raises(ValueError, match="non-negative"):
        trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.1, steps=-1)
    with pytest.raises(TypeError, match="steps must be an integer, got 2.0"):
        trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.1, steps=2.0)
    power = trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.1, steps=3)
    assert np.array_equal(trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.1, steps=np.int64(3)), power)


@functools.lru_cache(maxsize=None)
def _dense_case(scheme, p, n=256, dt=0.1):
    """A's first row, B's diagonal, U_exact^dagger at t = 1/2, and the dense stage product of one step.

    An A stage is the dense circulant with first column ifft(e^{-i c dt lam}), each entry
    to rounding (through A's eigenvectors, 255 stages drift to 8e-14)."""
    a, b, h = _operators(h=1.0 / n, n=n, scheme=scheme)
    symbol = linalg.hermitian_circulant_symbol(a[0])
    step = np.eye(n, dtype=np.complex128)
    for c, g in suzuki_plan(p).stages:
        if g == "A":
            step = linalg.circulant(np.fft.ifft(np.exp(-1j * c * dt * symbol))) @ step
        else:
            step *= np.exp(-1j * c * dt * np.diag(b))[:, None]
    return a[0], np.diag(b), unitary_exp(h, 0.5).conj().T, step


@pytest.mark.parametrize("steps", (1, 2, 5))
@pytest.mark.parametrize("p", (1, 2, 4, 6))
@pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda s: s.value)
def test_every_route_of_trotter_apply_builds_the_same_w(monkeypatch, scheme, p, steps):
    a_row, b, u_exact_h, step = _dense_case(scheme, p)
    reference = np.linalg.matrix_power(step, steps) @ u_exact_h
    kept = u_exact_h.copy()
    ws = {}
    for route in ("stages", "powering"):
        monkeypatch.setattr(splitting, "_route", lambda *args, route=route: route)
        ws[route] = trotter_step(suzuki_plan(p), a_row, b, 0.1, steps, m=u_exact_h)
        assert np.max(np.abs(ws[route] - reference)) <= 1e-13, route
        # a real M gives the complex U^steps on every route; every route's result is Fortran-ordered
        power = trotter_step(suzuki_plan(p), a_row, b, 0.1, steps, m=np.eye(256))
        assert power.dtype == np.complex128
        assert ws[route].flags.f_contiguous and power.flags.f_contiguous, route
        assert np.max(np.abs(power - np.linalg.matrix_power(step, steps))) <= 1e-13, route
    assert np.array_equal(u_exact_h, kept)
    assert np.max(np.abs(ws["stages"] - ws["powering"])) <= 1e-13


def test_powering_peaks_by_step_count(monkeypatch, traced_peak):
    # the h-sweep's real eigenvectors V as M at N = 512, V counted, where a panel is 0.25
    # buffers: X = U^(2^j) and its square Z, the odd part's factor, are built beside V alone and
    # X Z is written over X by row panels, so V, two buffers and a panel are alive (2.75; 2.50 at
    # 4 steps, where X is squared beside V); U^s V is then written over U^s, beside V and a panel
    # alone. Without M it is two buffers and a panel (2.25)
    n = 512
    a, b, h = _operators(h=1.0 / n, n=n)
    v = hermitian_eig(h)[1]
    monkeypatch.setattr(splitting, "_route", lambda *args: "powering")
    run = functools.partial(traced_peak, trotter_step, suzuki_plan(4), a[0], np.diag(b), 0.1)
    with_m = {steps: (run(steps, m=v)[1] + v.nbytes) / (16 * n**2) for steps in (4, 5, 6, 7, 10, 12, 14)}
    without_m = {steps: run(steps)[1] / (16 * n**2) for steps in (5, 7, 10, 14)}
    assert max(with_m.values()) <= 2.8, with_m
    assert max(without_m.values()) <= 2.3, without_m


def test_powering_takes_the_products_the_cost_rule_counts(monkeypatch):
    # every _square and matmul_by_rows call (an odd factor, or the product with M) is one N^3
    # product of those that _route prices powering by; without M the product with M is the one
    # not taken
    a, b, _ = _operators(n=16)
    calls = []
    for owner, name in ((splitting, "_square"), (linalg, "matmul_by_rows")):
        kernel = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, kernel=kernel, **kw: calls.append(1) or kernel(*args, **kw))
    monkeypatch.setattr(splitting, "_route", lambda *args: "powering")
    for p, symmetric in ((2, True), (1, False)):
        for steps in range(1, 65):
            for m in (np.eye(16), None):
                calls.clear()
                trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.1, steps, m=m)
                assert len(calls) == splitting._products(steps, symmetric) - (m is None), (p, steps, m is None)


def test_powering_is_the_step_power_then_one_product_with_m(monkeypatch):
    # the powering route builds U^s as it does without M, then writes U^s M over it: bit for bit
    # the step power times M by one matmul_by_rows, for a real and a complex M
    n = 64
    a, b, h = _operators(h=1.0 / n, n=n)
    rng = np.random.default_rng(44)
    ms = (hermitian_eig(h)[1], rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    monkeypatch.setattr(splitting, "_route", lambda *args: "powering")
    for p, steps, m in itertools.product((1, 2, 4, 6), (1, 2, 3, 5, 9, 27, 32), ms):
        u = trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.1, steps)
        w = trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.1, steps, m=m)
        assert np.array_equal(w, linalg.matmul_by_rows(u, m, out=u)), (p, steps, m.dtype)


def test_routes_of_the_default_sweeps():
    # one rule at every N: the dt-sweep's N = 64 cells run by stages at 2 steps for p = 1 and 2
    # (0.09 ms against 0.11 ms by powering at p = 2) and by powering otherwise; the h-sweep's p = 2
    # cells (5 steps) run by powering below N = 128 and by stages from there, and p = 4 by
    # powering until stages win it at N = 1024 (142 ms there, against 182 ms), p = 6 by powering
    route = splitting._route
    for p in (1, 2, 4, 6):
        routes = [route(suzuki_plan(p), 64, s, p > 1) for s in (2, 4, 8, 16, 32)]
        assert routes == ["stages" if p < 4 else "powering"] + ["powering"] * 4, p
    for n in (32, 64):
        assert [route(suzuki_plan(p), n, 5, True) for p in (2, 4, 6)] == ["powering"] * 3
    for n in (128, 256, 512):
        assert [route(suzuki_plan(p), n, 5, True) for p in (2, 4, 6)] == ["stages", "powering", "powering"]
    for n in (1024, 2048):
        assert [route(suzuki_plan(p), n, 5, True) for p in (2, 4, 6)] == ["stages", "stages", "powering"]
    a, b, _ = _operators(h=1.0 / 64, n=64)  # no step: a complex copy of a real M, asking no route
    w = trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.1, 0, m=np.eye(64))
    assert w.dtype == np.complex128 and w.flags.f_contiguous and np.array_equal(w, np.eye(64))


def test_route_counts_the_merged_stages_of_every_step_count():
    # the cost rule with the FFT pairs of s steps counted off their merged stage list, as the
    # stages route runs them; _route counts them in closed form, so it builds no such list
    plans = [suzuki_plan(p) for p in (1, 2, 4, 6, 8)] + [splitting.StagePlan(())]
    plans += [splitting.StagePlan(tuple((1.0, g) for g in labels)) for labels in ("A", "B", "BAB", "AAB", "ABBA", "BABA")]
    for plan, steps in itertools.product(plans, range(1, 65)):
        stage_pairs = sum(g == "A" for _, g in splitting._merge_adjacent(list(plan.stages) * steps))
        for n, symmetric in itertools.product((32, 64, 128, 256, 512, 1024, 2048), (True, False)):
            step_pairs = sum(g == "A" for _, g in plan.stages[: (len(plan.stages) + 1) // 2 if symmetric else None])
            cost = (stage_pairs - step_pairs) * splitting._FFT_PAIRS_LOG2 * math.log2(n)
            expected = "stages" if cost < splitting._products(steps, symmetric) * n else "powering"
            assert splitting._route(plan, n, steps, symmetric) == expected, (plan, n, steps, symmetric)


def test_route_builds_no_list_of_the_steps_stages(traced_peak):
    # 2^12 steps of the 51-stage p = 6 plan: a merged list of every step's stages would hold 14 MB
    route, peak = traced_peak(splitting._route, suzuki_plan(6), 64, 2**12, True)
    assert route == "powering" and peak < 64 * 1024, peak


@pytest.mark.parametrize("n", (64, 256))
def test_trotter_step_with_m_is_the_step_power_times_m(monkeypatch, n):
    # m is U_exact^dagger, and real: H's eigenvectors, as the sweeps pass them, which the
    # powering route multiplies by one real product per panel; the same m cast to complex
    # takes complex products
    a, b, h = _operators(h=1.0 / n, n=n)
    m = unitary_exp(h, 0.5).conj().T
    real_m = hermitian_eig(h)[1]
    kept, real_kept = m.copy(), real_m.copy()
    for p in (1, 2, 4, 6):
        for steps in (0, 1, 2, 5, 8, 9, 27):
            expected = trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.1, steps) @ m
            scale = np.max(np.abs(expected))
            for route in ("stages", "powering"):
                monkeypatch.setattr(splitting, "_route", lambda *args, route=route: route)
                w = trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.1, steps, m=m)
                assert np.max(np.abs(w - expected)) <= 1e-13 * scale, (p, steps, route)
                w = trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.1, steps, m=real_m)
                as_complex = trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.1, steps, m=real_m.astype(complex))
                assert w.dtype == np.complex128
                assert np.max(np.abs(w - as_complex)) <= 1e-13 * np.max(np.abs(as_complex)), (p, steps, route)
    assert np.array_equal(m, kept) and np.array_equal(real_m, real_kept)
    with pytest.raises(DimensionMismatchError):
        trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.1, 1, m=m[: n // 2])


def test_trotter_step_rejects_non_finite_m():
    a, b, h = _operators(n=16)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        m = unitary_exp(h, 0.5).conj().T
        m[3, 5] = bad
        with pytest.raises(ConvergenceError):
            trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.1, 2, m=m)


def test_complex_hermitian_circulant_takes_general_squaring():
    # a real part plus i times an odd real column: Hermitian, not symmetric, so the
    # palindromic step is not symmetric and X^T X is not its square
    n = 64
    rng = np.random.default_rng(16)
    even, odd = rng.standard_normal(n), rng.standard_normal(n)
    column = (even + np.roll(even[::-1], 1)) + 1j * (odd - np.roll(odd[::-1], 1))
    a = linalg.circulant(column)
    assert np.array_equal(a, a.conj().T)
    _, b, _ = _operators(n=n)
    step = trotter_step(suzuki_plan(4), a[0], np.diag(b), 0.1)
    assert np.max(np.abs(step - step.T)) > 1e-3
    expected = np.linalg.matrix_power(step, 5)
    assert np.max(np.abs(trotter_step(suzuki_plan(4), a[0], np.diag(b), 0.1, steps=5) - expected)) <= 1e-13
    assert np.max(np.abs(splitting._square(step, True) - step @ step)) > 1e-3


def test_trotter_step_halving_dt_cuts_error_eightfold():
    a, b, h = _operators()
    errs = []
    for dt in (1.0 / 16, 1.0 / 32):
        u = trotter_step(suzuki_plan(2), a[0], np.diag(b), dt)
        errs.append(spectral_norm(u - unitary_exp(h, dt)))
    ratio = errs[0] / errs[1]
    assert 2**2.5 <= ratio <= 2**3.5


def test_trotter_step_unitary():
    a, b, _ = _operators()
    for p in (1, 2, 4, 6):
        assert unitarity_defect(trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.25)) <= 1e-10


def test_unitary_exp_properties():
    _, _, h = _operators(n=32)
    assert np.allclose(unitary_exp(h, 0.0), np.eye(32), atol=1e-12)
    u = unitary_exp(h, 0.4)
    assert spectral_norm(u @ unitary_exp(h, -0.4) - np.eye(32)) <= 1e-10
    assert spectral_norm(unitary_exp(h, 0.7) - u @ unitary_exp(h, 0.3)) <= 1e-9


def test_compute_steps_examples():
    assert compute_steps(1.0, 1.0, 2, 1.0) == 1
    assert compute_steps(2.0, 1e-4, 2, 1.0) == 283
    # doubling eps never increases n
    for eps in (1e-6, 1e-4, 1e-2):
        assert compute_steps(1.5, 2 * eps, 4, 3.0) <= compute_steps(1.5, eps, 4, 3.0)
    with pytest.raises(ValueError):
        compute_steps(-1.0, 1e-3, 2, 1.0)
    for p in (0, -1):  # p = 0 divided by zero, p = -1 looped forever
        with pytest.raises(ValueError, match="p >= 1"):
            compute_steps(1.0, 1e-3, p, 1.0)


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
            spectral_norm(trotter_step(suzuki_plan(p), a[0], np.diag(b), dt) - unitary_exp(h, dt))
            for dt in dts
        ]
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        # one-step order is p + 1; p = 6 grazes the roundoff floor at the
        # smallest steps, so assert the scheme-order bound only
        assert slope >= p - 0.3


def test_split_step_builds_x_in_one_buffer(monkeypatch, traced_peak):
    # order 1's step at N = 512 is the split-step's X itself: its stages run in the complex
    # identity they start from, one buffer; a real identity copied to complex held a half more (1.50)
    n = 512
    a, b, _ = _operators(h=1.0 / n, n=n)
    a_row, potential = a[0].copy(), np.diag(b).copy()
    del a, b
    for workers in (1, 2, 4):  # each worker's phase products run row by row, with no buffer of their own
        monkeypatch.setattr(splitting, "_WORKERS", workers)
        step, peak = traced_peak(trotter_step, suzuki_plan(1), a_row, potential, 0.1)
        assert step.shape == (n, n)
        assert peak <= 1.05 * 16 * n**2, (workers, peak / (16 * n**2))


def test_a_worker_failure_reaches_the_caller(monkeypatch, tmp_path, capsys):
    # the inverse FFT runs out of memory in every row block but the calling thread's: a block left
    # untransformed would be a plausible but wrong number, so the error is raised in the caller,
    # which the CLI turns into exit code 2 as for any run out of memory
    ifft = np.fft.ifft

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("a worker's block")
        return ifft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", failing)
    monkeypatch.setattr(splitting, "_WORKERS", 2)
    n = 512
    a, b, _ = _operators(h=1.0 / n, n=n)
    with pytest.raises(MemoryError, match="a worker's block"):
        trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.1)
    config = tmp_path / "h.cfg"
    config.write_text("h = 1/512\n", encoding="utf-8")
    assert main(["h-sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "out of memory" in capsys.readouterr().err


@pytest.mark.parametrize("n", (256, 300, 1000, 1024))
def test_every_worker_count_gives_the_same_bits(monkeypatch, n):
    # every row takes the same operations whatever the split, so more workers (blocks of 128 rows
    # at least: two at N = 256 and 300, three uneven ones at N = 1000 and 1024) give one worker's
    # bits on both routes, with and without a real M, and for a complex Hermitian A, whose step
    # squares as X X. At N = 1000 and 1024, p = 6 and powering with M, which is U^s and one product
    # (test_powering_is_the_step_power_then_one_product_with_m), are left out for time
    a, b, _ = _operators(h=1.0 / n, n=n)
    rng = np.random.default_rng(n)
    even, odd, real_m = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal((n, n))
    complex_row = linalg.circulant((even + np.roll(even[::-1], 1)) + 1j * (odd - np.roll(odd[::-1], 1)))[0]
    small = n < 1000
    cases = [(p, a[0]) for p in (1, 2, 4, 6)[: 4 if small else 3]] + [(4, complex_row)]
    routes = (("stages", real_m), ("powering", None), ("powering", real_m))[: 3 if small else 2]
    for (p, a_row), (route, m) in itertools.product(cases, routes):
        monkeypatch.setattr(splitting, "_route", lambda *args, route=route: route)
        results = []
        for workers in (1, 2, 3, 4) if small else (1, 3, 4):
            monkeypatch.setattr(splitting, "_WORKERS", workers)
            results.append(trotter_step(suzuki_plan(p), a_row, np.diag(b), 0.1, 1, m=m))
        assert all(np.array_equal(w, results[0]) for w in results[1:]), (p, route, m is None, a_row.dtype)
