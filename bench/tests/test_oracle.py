"""The oracle against definitions computed a second, independent way."""

import math

import numpy as np
import pytest

import oracle
from semitrotter.splitting import suzuki_plan
from workloads import Invocation


def expm_taylor(m: np.ndarray, theta: float) -> np.ndarray:
    """e^{-i theta M} by scaling and squaring a Taylor series (no eigh)."""
    x = -1j * theta * m
    squarings = max(0, math.ceil(math.log2(max(np.linalg.norm(x, 1), 1e-300))) + 1)
    x = x / 2**squarings
    out = np.eye(len(x), dtype=np.complex128)
    term = out.copy()
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def top_singular_value(m: np.ndarray) -> float:
    return math.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)))


def test_norm2_is_the_largest_singular_value():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    assert oracle.norm2(m) == pytest.approx(top_singular_value(m), rel=1e-12)


def test_exp_from_eigh_matches_taylor():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    h = m + m.conj().T
    u = oracle.exp_from_eigh(*np.linalg.eigh(h), 0.3)
    assert np.max(np.abs(u - expm_taylor(h, 0.3))) < 1e-12


def test_evolution_rows_match_the_definitions():
    inv = Invocation(
        "dt-sweep", n=8, h_values=(1.0 / 8,), dt_values=(0.25, 0.125), orders=(1, 2, 4), state=True
    )
    ref = oracle.reference(inv)
    assert len(ref) == 3 * 2 * 3
    grid, a, b, obs = oracle.operators(inv, 1.0 / 8, 8)
    gens = {"A": a, "B": b}
    u_exact = expm_taylor(a + b, inv.t_final)
    psi = oracle.gaussian(grid)
    for p in inv.orders:
        for dt in inv.dt_values:
            step = np.eye(8, dtype=np.complex128)
            for c, g in suzuki_plan(p).stages:
                step = expm_taylor(gens[g], c * dt) @ step
            u = np.linalg.matrix_power(step, round(inv.t_final / dt))
            diff = u.conj().T @ obs @ u - u_exact.conj().T @ obs @ u_exact
            key = ("dt-sweep", p, "fd", 8, 1.0 / 8, dt, 0.5)
            expected = {
                "observable_error": top_singular_value(diff),
                "unitary_error": top_singular_value(u - u_exact),
                "expectation_error": abs(np.vdot(psi, diff @ psi)),
            }
            for metric, value in expected.items():
                assert ref[key + (metric,)].value == pytest.approx(value, rel=1e-9, abs=1e-13)


def test_comm_sweep_rows_match_the_definitions():
    inv = Invocation("comm-sweep", h_values=(1.0 / 8,))
    ref = oracle.reference(inv)
    _, a, b, obs = oracle.operators(inv, 1.0 / 8, 8)

    def ad(x, y):
        return x @ y - y @ x

    key = ("comm-sweep", None, "fd", 8, 1.0 / 8, None, None)
    words = {
        "[A,B]": ad(a, b),
        "[[A,B],O]": ad(ad(a, b), obs),
        "[A,[[A,B],O]]": ad(a, ad(ad(a, b), obs)),
        "[A,[A,[[A,B],O]]]": ad(a, ad(a, ad(ad(a, b), obs))),
    }
    for label, m in words.items():
        assert ref[key + (label,)].value == pytest.approx(top_singular_value(m), rel=1e-9)
    chains = [obs]
    for _ in range(3):
        chains = [ad(g, c) for c in chains for g in (a, b)]
    beta = max(top_singular_value(c) for c in chains)
    assert ref[("comm-sweep", 2, "fd", 8, 1.0 / 8, None, None, "beta_comm")].value == pytest.approx(beta, rel=1e-9)


def test_resolved_grid_follows_the_cli_rule():
    inv = Invocation("beta")
    assert [oracle.grid_size(inv, h) for h in (1 / 32, 1 / 33, 1 / 2)] == [32, 34, 4]


def test_verify_symbolic_rules():
    ref = oracle.reference(Invocation("verify-symbolic", trials=7, seed=3))
    by_metric = {key[-1]: e for key, e in ref.items()}
    assert by_metric["ht_wd_trials"].accepts(7.0) and not by_metric["ht_wd_trials"].accepts(6.0)
    assert by_metric["ht_wd_violations"].accepts(0.0) and not by_metric["ht_wd_violations"].accepts(1.0)
    assert by_metric["hand_check_v_d2"].accepts(1.0) and not by_metric["hand_check_v_d2"].accepts(0.0)
    assert by_metric["ht_wd_checks"].accepts(31.0) and not by_metric["ht_wd_checks"].accepts(math.nan)
