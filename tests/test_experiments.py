"""Config, sweep, CSV/SVG, and CLI surface tests."""

import csv
import io
import math
import os
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from semitrotter.cli import main
from semitrotter.discretize import Grid, SchemeKind
from semitrotter.experiments import (
    STATE_CENTER,
    STATE_MOMENTUM,
    STATE_WIDTH,
    ConfigError,
    RunConfig,
    _model,
    build_config,
    emit_csv,
    emit_svg,
    evolution_errors,
    fit_slope,
    load_config,
    parse_config_text,
    parse_observable_spec,
    rows_to_csv,
    run_experiment,
    run_verify_symbolic,
    series_from_rows,
)
from semitrotter.expr import parse_expr
from semitrotter.linalg import commutator, unitary_exp
from semitrotter.model import ModelParams, build_A, build_B, build_observable
from semitrotter.splitting import suzuki_plan, trotter_step

FAST_DT = {"N": "16", "h": "1/8", "dt": "1/4, 1/8", "orders": "1, 2", "t_final": "1/2"}


def test_config_defaults_follow_reference_setup():
    cfg = build_config("dt-sweep")
    assert cfg.a == pytest.approx(-math.pi)
    assert cfg.b == pytest.approx(math.pi)
    assert cfg.n == 64
    assert cfg.h_values == (1.0 / 64,)
    assert cfg.dt_values == (0.25, 0.125, 0.0625, 0.03125, 0.015625)
    assert cfg.orders == (1, 2, 4, 6)
    assert cfg.t_final == 0.5
    assert cfg.potential == "cos(x)"
    assert cfg.scheme is SchemeKind.FINITE_DIFFERENCE

    h_cfg = build_config("h-sweep")
    assert h_cfg.dt_values == (0.1,)
    assert h_cfg.h_values[0] == pytest.approx(1.0 / 32)
    assert h_cfg.h_values[-1] == pytest.approx(1.0 / 1024)
    assert h_cfg.n is None  # grid resolves the oscillation scale by default

    beta_cfg = build_config("beta")
    assert beta_cfg.h_values == (1.0 / 32, 1.0 / 256)


def test_config_text_parsing():
    raw = parse_config_text(
        """
        # reference run
        N = 32
        h = 1/64
        dt = 1/4, 1/2/4   # list; a/b/c is (a/b)/c, as in expressions
        potential = "cos(x) + 0.5*sin(x)"
        scheme = spectral
        """
    )
    cfg = build_config("dt-sweep", raw)
    assert cfg.n == 32
    assert cfg.h_values == (1.0 / 64,)
    assert cfg.dt_values == (0.25, 0.125)
    assert cfg.potential == "cos(x) + 0.5*sin(x)"
    assert cfg.scheme is SchemeKind.SPECTRAL
    # a number is any finite constant expression
    for token in ("+1/4", "2^-2", "0.25", "1/2^2"):
        assert build_config("dt-sweep", {"dt": token}).dt_values == (0.25,), token
    assert build_config("dt-sweep", {"a": "-pi/2", "b": "2*pi"}).a == -math.pi / 2
    assert build_config("verify-symbolic", {"trials": "1_000"}).trials == 1000


def test_config_pi_tokens():
    raw = {"a": "-pi", "b": "pi"}
    cfg = build_config("dt-sweep", raw)
    assert cfg.a == pytest.approx(-math.pi)
    assert cfg.b == pytest.approx(math.pi)


def test_config_rejections():
    with pytest.raises(ConfigError):
        build_config("dt-sweep", {"dt": "0.3"})  # t/dt not integral
    with pytest.raises(ConfigError):
        build_config("dt-sweep", {"N": "15"})  # odd
    with pytest.raises(ConfigError):
        build_config("dt-sweep", {"orders": "3"})
    with pytest.raises(ConfigError):
        build_config("dt-sweep", {"h": "2.0"})  # h > 1
    with pytest.raises(ConfigError):
        build_config("dt-sweep", {"nope": "1"})
    with pytest.raises(ConfigError):
        build_config("dt-sweep", {"potential": "cos(q)"})
    with pytest.raises(ConfigError):
        build_config("no-such-experiment")
    with pytest.raises(ConfigError):
        build_config("dt-sweep", {"experiment": "h-sweep"})
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")
    # a list the sweep holds fixed must have one value
    with pytest.raises(ConfigError):
        build_config("dt-sweep", {"h": "1/64, 1/128"})
    with pytest.raises(ConfigError):
        build_config("h-sweep", {"dt": "1/10, 1/20"})
    with pytest.raises(ConfigError):
        build_config("comm-sweep", {"orders": "2, 4"})
    # every number must be a finite constant: no division by zero, overflow, nan or x
    for key, value in (("dt", "1/0"), ("N", "1e400"), ("t_final", "nan"), ("dt", "x/10"), ("a", "sin(x)")):
        with pytest.raises(ConfigError):
            build_config("dt-sweep", {key: value})
    # lists an experiment ignores are not rejected
    build_config("verify-symbolic", {"h": "1/8, 1/16", "orders": "2, 4"})


def test_config_repeated_key_names_both_lines(tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"line 3: key 'h' is already set on line 1"):
        parse_config_text("h = 1/64\nN = 64\nh = 1/32\n")
    config = tmp_path / "twice.cfg"
    config.write_text("h = 1/64\nh = 1/32\n", encoding="utf-8")
    assert main(["h-sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "'h'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, key, value",
    [("h-sweep", "h", "1/32, 1/32"), ("dt-sweep", "dt", "1/4, 0.25"), ("h-sweep", "orders", "2, 4, 2")],
)
def test_config_repeated_list_value(tmp_path, capsys, experiment, key, value):
    # a repeated value would run one cell twice and write rows with identical keys
    with pytest.raises(ConfigError, match=key):
        build_config(experiment, {key: value})
    config = tmp_path / "twice.cfg"
    config.write_text(f"{key} = {value}\n", encoding="utf-8")
    assert main([experiment, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


def test_observable_spec_parsing():
    spec = parse_observable_spec("0:cos(x), 1:sin(x)", h=0.5)
    assert [m for m, _ in spec.terms] == [0, 1]
    with pytest.raises(ConfigError):
        parse_observable_spec("cos(x)", h=0.5)
    with pytest.raises(ConfigError):
        parse_observable_spec("0:cos(x), 0:sin(x)", h=0.5)
    # the degree is a config integer, as N and orders are: 1.0 reads 1, a full-width digit is refused
    assert [m for m, _ in parse_observable_spec("1.0:cos(x)", h=0.5).terms] == [1]
    with pytest.raises(ConfigError, match="cannot parse number"):
        parse_observable_spec("\uff11:cos(x)", h=0.5)


@pytest.mark.parametrize(
    "key, value, owner_message",
    [("b", "-4", "need b > a"), ("N", "2", "need N >= 4"), ("orders", "12", "order must be"), ("h", "2", "need 0 < h")],
)
def test_config_rules_owned_by_the_model_are_config_errors(key, value, owner_message):
    # Grid, ModelParams and suzuki_plan check these; build_config reports their message
    with pytest.raises(ConfigError, match=owner_message):
        build_config("dt-sweep", {key: value})


def test_config_scheme_spellings(tmp_path):
    assert build_config("dt-sweep", {"scheme": "FD"}).scheme is SchemeKind.FINITE_DIFFERENCE
    assert build_config("dt-sweep", {"scheme": " Spectral "}).scheme is SchemeKind.SPECTRAL
    config = tmp_path / "scheme.cfg"
    config.write_text("scheme = finite-difference\n", encoding="utf-8")
    assert main(["dt-sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


def test_dt_sweep_auto_grid_is_one_over_h(tmp_path):
    # N = auto means N = 1/h in every experiment, so at h = 1/64 it is the pinned N = 64
    outputs = []
    for n in ("auto", "64"):
        config = tmp_path / f"{n}.cfg"
        config.write_text(f"N = {n}\nh = 1/64\ndt = 1/4, 1/8\norders = 2\n", encoding="utf-8")
        assert main(["dt-sweep", "--config", str(config), "--out", str(tmp_path / n)]) == 0
        outputs.append((tmp_path / n / "dt_sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "h, n",
    [(1 / 64, 64), (1 / 33, 34), (1 / 65.4, 66), (1 / 3, 4), (0.4, 4), (1.0, 4)],
    ids=["1/64", "1/33", "1/65.4", "1/3", "0.4", "1"],
)
def test_auto_grid_rounds_one_over_h_up_to_even(h, n):
    # _model resolves each h's grid: 1/h to the nearest integer, then up to even, then at least 4
    assert _model(build_config("beta"), h)[0].grid.n == n
    assert _model(build_config("beta", {"N": "16"}), h)[0].grid.n == 16  # a pinned N is kept


def test_fit_slope_exact_power_law():
    fit = fit_slope([(x, x**2) for x in (1.0, 2.0, 4.0, 8.0)])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_constant():
    fit = fit_slope([(1.0, 3.0), (2.0, 3.0), (4.0, 3.0)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 1.0


def test_fit_slope_errors():
    with pytest.raises(ValueError):
        fit_slope([(1.0, 1.0)])
    with pytest.raises(ValueError):
        fit_slope([(1.0, 1.0), (1.0, 2.0)])
    with pytest.raises(ValueError):
        fit_slope([(1.0, -1.0), (2.0, 1.0)])
    for bad in (math.nan, math.inf):  # min(1.0, nan) is 1.0: a perfect-looking fit with slope NaN
        with pytest.raises(ValueError, match="finite"):
            fit_slope([(1.0, bad), (2.0, 1.0)])
        with pytest.raises(ValueError, match="finite"):
            fit_slope([(bad, 1.0), (2.0, 1.0)])


def test_dt_sweep_row_count_and_order():
    cfg = build_config("dt-sweep", FAST_DT)
    rows = run_experiment(cfg)
    assert len(rows) == 2 * len(cfg.orders) * len(cfg.dt_values)
    keys = [(r.p, r.dt, r.metric) for r in rows]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], 0 if k[2] == "observable_error" else 1))
    for r in rows:
        assert r.t == cfg.t_final
        assert round(r.t / r.dt) * r.dt == pytest.approx(r.t, abs=1e-12)


def test_dt_sweep_exact_for_constant_potential():
    # constant V commutes with the kinetic term's... it does not, but V
    # constant makes B a multiple of the identity, so splitting is exact
    cfg = build_config("dt-sweep", dict(FAST_DT, potential="1", observable="0:cos(x)"))
    rows = run_experiment(cfg)
    for r in rows:
        assert r.value <= 1e-9


def test_dt_sweep_state_metric_bounded_by_operator_norm():
    cfg = build_config("dt-sweep", FAST_DT, state=True)
    rows = run_experiment(cfg)
    by_key = {(r.p, r.dt, r.metric): r.value for r in rows}
    for (p, dt, metric), value in by_key.items():
        if metric == "expectation_error":
            assert value <= by_key[(p, dt, "observable_error")] * (1 + 1e-9)


@pytest.mark.parametrize("scheme", ["fd", "spectral"])
def test_expectation_error_matches_state_computation(scheme):
    # |<U_trot psi|O|U_trot psi> - <U_exact psi|O|U_exact psi>| from the states
    # alone; both sides carry ~1e-15 absolute roundoff from the computed
    # propagators' unitarity defect, hence the absolute floor
    cfg = build_config("dt-sweep", {"scheme": scheme}, state=True)
    h, t = cfg.h_values[0], cfg.t_final
    grid = Grid(cfg.a, cfg.b, cfg.n)
    params = ModelParams(h=h, potential=parse_expr(cfg.potential), grid=grid, scheme=cfg.scheme)
    a, b = build_A(params), build_B(params)
    obs = build_observable(parse_observable_spec(cfg.observable, h), grid, cfg.scheme)
    x = grid.nodes
    psi = np.exp(-((x - STATE_CENTER) ** 2) / (2 * STATE_WIDTH**2) + 1j * STATE_MOMENTUM * x)
    psi /= np.linalg.norm(psi)
    exact = unitary_exp(a + b, t) @ psi
    exact_value = np.vdot(exact, obs @ exact)
    checked = 0
    for r in run_experiment(cfg):
        if r.metric != "expectation_error" or r.value < 1e-8:
            continue
        step = trotter_step(suzuki_plan(r.p), a[0], np.diag(b), r.dt)
        trot = np.linalg.matrix_power(step, round(t / r.dt)) @ psi
        expected = abs(np.vdot(trot, obs @ trot) - exact_value)
        assert r.value == pytest.approx(expected, rel=1e-8, abs=1e-14)
        checked += 1
    assert checked >= 12


def test_evolution_errors_of_the_identity_are_exactly_zero():
    rng = np.random.default_rng(3)
    obs = rng.standard_normal((16, 16))
    phi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert evolution_errors(np.eye(16, dtype=complex), obs, phi) == (0.0, 0.0, 0.0)
    assert evolution_errors(np.eye(16, dtype=complex), obs) == (0.0, 0.0, None)


def test_evolution_errors_match_the_subtractive_formulas():
    # p = 2 at dt = 1/4 on N = 16: errors far above roundoff, so the cancellation-free
    # norms must equal the textbook differences; np.linalg.norm is the independent oracle
    h, t = 1.0 / 16, 0.5
    grid = Grid(-math.pi, math.pi, 16)
    params = ModelParams(h=h, potential=parse_expr("cos(x)"), grid=grid, scheme=SchemeKind.FINITE_DIFFERENCE)
    a, b = build_A(params), build_B(params)
    obs = build_observable(parse_observable_spec("0:cos(x), 1:sin(x)", h), grid)
    u_trot = trotter_step(suzuki_plan(2), a[0], np.diag(b), 0.25, steps=2)
    u_exact = unitary_exp(a + b, t)
    psi = np.exp(1j * grid.nodes) * np.exp(-grid.nodes**2)
    psi /= np.linalg.norm(psi)

    unitary, observable, expectation = evolution_errors(u_trot @ u_exact.conj().T, obs, u_exact @ psi)

    t_trot, t_exact = u_trot.conj().T @ obs @ u_trot, u_exact.conj().T @ obs @ u_exact
    assert unitary > 1e-3 and observable > 1e-4
    assert unitary == pytest.approx(np.linalg.norm(u_trot - u_exact, 2), rel=1e-10)
    assert observable == pytest.approx(np.linalg.norm(t_trot - t_exact, 2), rel=1e-10)
    assert expectation == pytest.approx(abs(np.vdot(psi, (t_trot - t_exact) @ psi)), rel=1e-10)


def test_evolution_errors_overwrite_w_with_w_minus_identity():
    rng = np.random.default_rng(4)
    w = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    expected = w - np.eye(8)
    obs = rng.standard_normal((8, 8))
    _, observable, _ = evolution_errors(w, obs)
    assert np.array_equal(w, expected)
    assert observable == pytest.approx(np.linalg.norm(commutator(obs, expected), 2), rel=1e-12)


def test_resolved_h_sweep_point_peaks_below_four_and_a_half_buffers(monkeypatch, traced_peak):
    # one default h-sweep point at N = 512 (orders 2, 4, 6), above the norm's panel width,
    # measured in complex N x N buffers of 16 N^2 bytes; LAPACK workspaces are not traced.
    # The peak is a norm: U_exact^dagger, the matrix normed, its Gram and the certificate's
    # panels. The second run wraps evolution_errors in a lambda that holds its arguments
    # until the call returns, as Python 3.10 does: it holds the list W comes in, not W
    import semitrotter.experiments as ex

    cfg = build_config("h-sweep", {"h": "1/512"})
    evolution_errors = ex.evolution_errors
    peaks = []
    for held in (False, True):
        if held:
            monkeypatch.setattr(ex, "evolution_errors", lambda w, obs, phi=None: evolution_errors(w, obs, phi))
        peaks.append(traced_peak(run_experiment, cfg)[1] / (16 * 512**2))
    assert max(peaks) <= 4.5, peaks


def test_resolved_h_sweep_point_at_1024_peaks_below_two_point_seven_five_buffers(monkeypatch, traced_peak):
    # one default h-sweep point at N = 1024 (orders 2, 4, 6): U_exact^dagger is kept as H's
    # real eigenvectors V (half a buffer) and their phases; p = 2 and 4 build U_trot V by stages
    # beside V alone, p = 6 by powering beside U^2 and a panel, W = U_trot V diag(phases) V^T is
    # written over U_trot V, and the bracket [O, W - I] is built by row blocks, so the peak is
    # the norm of W - I: V, W - I, the Gram and its panels (2.72; 2.81 with the Lanczos basis
    # grown by copies and the factor's N x 128 temporaries, 3.31 with U_exact^dagger kept as a
    # complex matrix, 4.07 with the step power beside it and a whole-matrix bracket). The sweep
    # hands W to evolution_errors in a list, so the peak holds where a caller keeps its call's
    # arguments until the call returns, as Python 3.10 does (the list, emptied, is all that is
    # kept). A caller that holds W itself keeps W - I beside [O, W - I] and its Gram through the
    # observable norm (3.67; 3.76 with the copied basis and N x 128 temporaries, 4.26 beside a
    # complex U_exact^dagger); those two callers run p = 2 only, as their peak is that norm
    import semitrotter.experiments as ex

    n = 1024
    evolution_errors = ex.evolution_errors

    def holding_w(box, obs, phi=None):
        w = box.pop()
        return evolution_errors(w, obs, phi)

    callers = {
        "sweep": (evolution_errors, "2, 4, 6"),
        "arguments held": (lambda box, obs, phi=None: evolution_errors(box, obs, phi), "2"),
        "W held": (holding_w, "2"),
    }
    peaks = {}
    for name, (caller, orders) in callers.items():
        monkeypatch.setattr(ex, "evolution_errors", caller)
        overrides = {"h": f"1/{n}", "orders": orders}
        peaks[name] = traced_peak(lambda: run_experiment(build_config("h-sweep", overrides)))[1] / (16 * n**2)
    assert peaks["sweep"] <= 2.75 and peaks["arguments held"] <= 2.75, peaks
    assert peaks["W held"] <= 3.8, peaks


def test_h_sweep_values_move_with_the_blas_thread_count_by_less_than_their_floor(tmp_path):
    # one h-sweep (h = 1/256 and 1/512, p = 4) in two child interpreters, at one and at two BLAS
    # threads, set in each child's environment alone: BLAS's work split moves the low digits
    # of values at N >= 256, by at most 0.31 phi (unitary_error at N = 512), where
    # phi = t_final eps (max |lambda_A| + max |b|) is the rounding floor of the step's phases
    import semitrotter
    from semitrotter.experiments import _build_operators
    from semitrotter.linalg import hermitian_circulant_symbol

    config = tmp_path / "h_sweep.conf"
    config.write_text("h = 1/256, 1/512\norders = 4\ndt = 0.1\n")
    cfg = load_config("h-sweep", str(config))
    src = os.path.dirname(os.path.dirname(semitrotter.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    values = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=path)
        out = tmp_path / threads
        argv = [sys.executable, "-m", "semitrotter.cli", "h-sweep", "--config", str(config), "--out", str(out)]
        subprocess.run(argv, env=env, check=True, capture_output=True)
        with open(out / "h_sweep.csv", newline="") as fh:
            values.append({(r["N"], r["p"], r["metric"]): float(r["value"]) for r in csv.DictReader(fh)})
    phi = {}
    for h in cfg.h_values:
        grid, a, b, _ = _build_operators(cfg, h)
        lam = hermitian_circulant_symbol(np.asarray(a)[0])  # A is a stencil in the FD scheme
        phi[str(grid.n)] = cfg.t_final * np.finfo(float).eps * (np.max(np.abs(lam)) + np.max(np.abs(b)))
    assert values[0].keys() == values[1].keys() and len(values[0]) == 4
    for key, value in values[0].items():
        assert abs(value - values[1][key]) <= phi[key[0]], (key, abs(value - values[1][key]) / phi[key[0]])


def test_h_sweep_exact_for_zero_potential():
    cfg = build_config(
        "h-sweep",
        {"h": "1/8, 1/16", "N": "16", "dt": "1/4", "t_final": "1/2",
         "orders": "2", "potential": "0", "observable": "0:cos(x)"},
    )
    for r in run_experiment(cfg):
        assert r.value <= 1e-9


@pytest.mark.parametrize(
    "experiment, raw",
    [
        # N = 256 takes trotter_step's routes given M: p = 2 by stages, p = 4 by powering
        ("h-sweep", {"h": "1/8, 1/256", "dt": "1/4", "t_final": "1/2", "orders": "2, 4"}),
        ("dt-sweep", dict(FAST_DT, orders="1, 2, 4", dt="1/4, 1/8, 1/16")),
    ],
)
def test_one_exact_propagator_per_grid(monkeypatch, experiment, raw):
    # the exact propagator is H's eigendecomposition, made once per grid
    from semitrotter import linalg

    cfg = build_config(experiment, raw)
    calls = []
    hermitian_eig = linalg.hermitian_eig

    def counting(h):
        calls.append(h.shape[0])
        return hermitian_eig(h)

    monkeypatch.setattr(linalg, "hermitian_eig", counting)
    rows = run_experiment(cfg)
    assert len(calls) == len(cfg.h_values)
    # sharing the propagator across orders and steps changes no value:
    # the sweep equals its single-order, single-step runs
    alone = [
        row
        for p in cfg.orders
        for dt in cfg.dt_values
        for row in run_experiment(replace(cfg, orders=(p,), dt_values=(dt,)))
    ]
    assert rows == sorted(alone, key=lambda r: (r.p, r.h, r.dt, r.metric != "observable_error"))


def test_comm_sweep_constant_potential_commutes():
    from semitrotter.discretize import Grid
    from semitrotter.expr import parse_expr
    from semitrotter.model import ModelParams, build_A, build_B
    from semitrotter.linalg import spectral_norm

    cfg = build_config("comm-sweep", {"h": "1/8", "N": "16", "potential": "2"})
    rows = run_experiment(cfg)
    ab = next(r.value for r in rows if r.metric == "[A,B]")
    params = ModelParams(h=1 / 8, potential=parse_expr("2"), grid=Grid(cfg.a, cfg.b, 16))
    bound = 1e-12 * spectral_norm(build_A(params)) * spectral_norm(build_B(params))
    assert ab <= bound


def test_csv_format_and_roundtrip():
    cfg = build_config("dt-sweep", FAST_DT)
    rows = run_experiment(cfg)
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "experiment,p,scheme,N,h,dt,t,metric,value"
    parsed = list(csv.reader(io.StringIO(text)))
    assert len(parsed) == len(rows) + 1
    assert all(len(rec) == 9 for rec in parsed)
    # values survive the round trip exactly via repr
    assert float(parsed[1][8]) == rows[0].value


def test_csv_quoting_of_comm_metrics():
    cfg = build_config("beta", {"h": "1/8", "N": "8"})
    rows = run_experiment(cfg)
    comm_cfg = RunConfig(experiment="comm-sweep", n=8, h_values=(1.0 / 8,))
    comm_rows = run_experiment(comm_cfg)
    text = rows_to_csv(comm_rows + rows)
    assert '"[A,B]"' in text  # commas force quotes
    parsed = list(csv.reader(io.StringIO(text)))
    metrics = {rec[7] for rec in parsed[1:]}
    assert "[A,B]" in metrics and "[[A,B],O]" in metrics


def test_csv_determinism_across_runs(tmp_path):
    cfg = build_config("dt-sweep", FAST_DT)
    p1 = emit_csv(run_experiment(cfg), str(tmp_path / "a.csv"))
    p2 = emit_csv(run_experiment(cfg), str(tmp_path / "b.csv"))
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_h_sweep_csv_determinism_at_defaults(default_h_sweep, monkeypatch):
    # N = 256 ... 1024 take the Lanczos norm, whose start must not depend on earlier calls;
    # a second full run, through the library with one split-step worker, against the session's
    # run through the CLI with the default count
    from semitrotter import splitting

    monkeypatch.setattr(splitting, "_WORKERS", 1)
    _, csv_bytes = default_h_sweep
    assert rows_to_csv(run_experiment(build_config("h-sweep"))).encode("utf-8") == csv_bytes


def test_verify_symbolic_rows():
    cfg = build_config("verify-symbolic", {"trials": "50"})
    rows = run_verify_symbolic(cfg)
    by_metric = {r.metric: r.value for r in rows}
    assert by_metric["ht_wd_trials"] == 50.0
    assert by_metric["ht_wd_violations"] == 0.0
    assert by_metric["hand_check_v_d2"] == 1.0


def test_svg_empty_series(tmp_path):
    path = emit_svg([], [], str(tmp_path / "empty.svg"), title="nothing")
    tree = ET.parse(path)
    root = tree.getroot()
    assert root.tag.endswith("svg")
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == 0
    lines = root.findall(".//{http://www.w3.org/2000/svg}line")
    assert len(lines) >= 2  # both axes present


def test_svg_series_and_refs(tmp_path):
    series = [
        ("alpha", [(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)]),
        ("beta", [(1.0, 2.0), (2.0, 2.0)]),
    ]
    path = emit_svg(series, [("x^2", 2.0)], str(tmp_path / "plot.svg"), xlabel="x", ylabel="y")
    root = ET.parse(path).getroot()
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    assert len(polylines) == len(series) + 1  # one per series plus the dashed ref
    dashed = [p for p in polylines if p.get("stroke-dasharray")]
    assert len(dashed) == 1
    texts = [t.text for t in root.findall(".//{http://www.w3.org/2000/svg}text")]
    assert "alpha" in texts and "x^2" in texts


def test_svg_escapes_title_and_axis_labels(tmp_path):
    path = emit_svg(
        [("a<b", [(1.0, 1.0), (2.0, 2.0)])], [], str(tmp_path / "esc.svg"),
        title="err < 1e-3 & flat", xlabel="h > 0", ylabel="<O> & err",
    )
    texts = [t.text for t in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
    assert {"err < 1e-3 & flat", "h > 0", "<O> & err", "a<b"} <= set(texts)


def test_svg_rejects_nonpositive(tmp_path):
    with pytest.raises(ValueError):
        emit_svg([("s", [(0.0, 1.0)])], [], str(tmp_path / "bad.svg"))


def test_series_from_rows_grouping():
    cfg = build_config("dt-sweep", FAST_DT)
    rows = run_experiment(cfg)
    series = series_from_rows(rows, "observable_error", "dt")
    assert [label for label, _ in series] == ["observable_error p=1", "observable_error p=2"]
    assert all(len(pts) == 2 for _, pts in series)


def test_cli_dt_sweep_writes_artifacts(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        "N = 16\nh = 1/8\ndt = 1/4, 1/8\norders = 1, 2\nt_final = 1/2\n", encoding="utf-8"
    )
    out = tmp_path / "out"
    code = main(["dt-sweep", "--config", str(config), "--out", str(out)])
    assert code == 0
    assert (out / "dt_sweep.csv").exists()
    assert (out / "dt_sweep_observable_error.svg").exists()
    assert (out / "dt_sweep_unitary_error.svg").exists()
    printed = capsys.readouterr().out
    assert "slope" in printed


def test_cli_state_flag_comes_from_the_experiment_table(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("N = 16\nh = 1/8\ndt = 1/4, 1/8\norders = 1, 2\nt_final = 1/2\n", encoding="utf-8")

    def metrics(flags):
        out = tmp_path / "_".join(["out", *flags])
        assert main(["dt-sweep", *flags, "--config", str(config), "--out", str(out)]) == 0
        with open(out / "dt_sweep.csv", encoding="utf-8", newline="") as fh:
            return [rec["metric"] for rec in csv.DictReader(fh)]

    assert metrics(["--state"]).count("expectation_error") == 4
    assert "expectation_error" not in metrics([])
    with pytest.raises(SystemExit) as exc:
        main(["h-sweep", "--state", "--out", str(tmp_path / "h")])
    assert exc.value.code == 2


def test_cli_zero_metric_is_left_out_of_plots(tmp_path):
    # the identity observable commutes with W - I, so observable_error is exactly 0
    config = tmp_path / "zero.cfg"
    config.write_text(
        'N = 16\nh = 1/8\ndt = 1/4, 1/8\norders = 1, 2\nobservable = "0:1"\n', encoding="utf-8"
    )
    out = tmp_path / "out"
    assert main(["dt-sweep", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "dt_sweep.csv", encoding="utf-8", newline="") as fh:
        zeros = [rec for rec in csv.DictReader(fh) if rec["metric"] == "observable_error"]
    assert len(zeros) == 4 and all(float(rec["value"]) == 0.0 for rec in zeros)
    root = ET.parse(out / "dt_sweep_observable_error.svg").getroot()
    assert root.findall(".//{http://www.w3.org/2000/svg}polyline") == []
    assert (out / "dt_sweep_unitary_error.svg").exists()


def test_cli_config_error_exit_code(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("dt = 0.3\n", encoding="utf-8")
    assert main(["dt-sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert main(["h-sweep", "--config", str(tmp_path / "missing.cfg"), "--out", "o"]) == 2
    config.write_text("dt = 1/0\n", encoding="utf-8")
    assert main(["dt-sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("potential", ["-" * 1000 + "x", "+".join(["x"] * 5001)], ids=["minus-1000", "sum-5001"])
def test_cli_deeply_nested_expression_exit_code(tmp_path, capsys, potential):
    # nesting past Python's recursion limit is a config error, not a traceback
    config = tmp_path / "deep.cfg"
    config.write_text(f'N = 16\nh = 1/16\npotential = "{potential}"\n', encoding="utf-8")
    assert main(["dt-sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["beta", "dt-sweep"])
@pytest.mark.parametrize("line", ['potential = "1/x"', 'observable = "0:1/x"'])
def test_cli_expression_undefined_at_node_exit_code(tmp_path, capsys, experiment, line):
    # x = 0 is a node of the N = 16 grid on [-pi, pi)
    config = tmp_path / "singular.cfg"
    config.write_text(f"h = 1/16\nN = 16\n{line}\n", encoding="utf-8")
    assert main([experiment, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    # the message names the expression that failed
    assert repr(line.split('"')[1]) in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["h-sweep", "comm-sweep"])
@pytest.mark.parametrize(
    "line",
    ['potential = "1e200*1e200*cos(x)"', 'potential = "1e308*2*x"', 'observable = "0:1e200*1e200*cos(x)"'],
)
def test_cli_expression_not_finite_on_grid_exit_code(tmp_path, capsys, experiment, line):
    # an overflow to inf on the grid is a config error, not a convergence failure downstream
    config = tmp_path / "overflow.cfg"
    config.write_text(f"h = 1/16\nN = 16\n{line}\n", encoding="utf-8")
    assert main([experiment, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert repr(line.split('"')[1]) in capsys.readouterr().err


def _one_line_exit_2(args, capsys) -> str:
    """Run the CLI, check exit 2 with one stderr line and no warning; return that line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 2
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err, err
    return err


@pytest.mark.parametrize(
    "experiment, lines, message",
    [
        ("beta", ["h = 1e-320"], "N = 1/h is not finite at h = 1e-320"),
        ("beta", ["h = 1e-300"], "N = 1e+300 at h = 1e-300 is too large"),
        ("beta", ["N = 1e9"], "N = 1e+09 at h = 0.0312 is too large"),
        ("dt-sweep", ["h = 1e-310", "N = 16"], "'cos(x)' fails on the N=16 grid at h = 1e-310: overflow"),
        ("comm-sweep", ["h = 1e-310", "N = 16"], "'cos(x)' fails on the N=16 grid at h = 1e-310: overflow"),
        ("comm-sweep", ["h = 1e-300", "N = 16"], "potential 'cos(x)' overflow at h = 1e-300: overflow"),
        ("beta", ["h = 1e-300", "N = 16"], "potential 'cos(x)' overflow at h = 1e-300: overflow"),
        ("dt-sweep", ["h = 1e-300", "N = 16"], "potential 'cos(x)' keep no digit at h = 1e-300"),
        ("h-sweep", ["h = 1e-300", "N = 16"], "potential 'cos(x)' keep no digit at h = 1e-300"),
    ],
    ids=[
        "beta-h=1e-320", "beta-h=1e-300", "beta-N=1e9", "dt-sweep-h=1e-310", "comm-sweep-h=1e-310",
        "comm-sweep-huge-B", "beta-huge-B", "dt-sweep-huge-B", "h-sweep-huge-B",
    ],
)
def test_cli_grid_or_potential_out_of_range_exit_code(tmp_path, capsys, experiment, lines, message):
    # a grid N x N matrices cannot hold, or a B = V/h past the float range or whose
    # commutator chains overflow it, is a config error
    config = tmp_path / "range.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    err = _one_line_exit_2([experiment, "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    assert err.startswith("config error: ") and message in err, err


@pytest.mark.parametrize("experiment", ["dt-sweep", "h-sweep", "comm-sweep", "beta"])
@pytest.mark.parametrize("scheme", ["fd", "spectral"])
@pytest.mark.parametrize("observable", ["400:cos(x)", "1100:cos(x)"])
def test_cli_observable_not_finite_exit_code(tmp_path, capsys, experiment, scheme, observable):
    # D_400's (1/dx)^400 overflows and h^400 underflows; D_1100's binomials pass the float range
    config = tmp_path / "degree.cfg"
    config.write_text(f'h = 1/64\nscheme = {scheme}\nobservable = "{observable}"\n', encoding="utf-8")
    err = _one_line_exit_2([experiment, "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    assert err.startswith(f"config error: observable {observable!r} ") and "N=64 grid" in err, err


@pytest.mark.parametrize("experiment", ["dt-sweep", "h-sweep", "comm-sweep", "beta"])
@pytest.mark.parametrize("scheme", ["fd", "spectral"])
def test_cli_kinetic_term_not_finite_exit_code(tmp_path, capsys, experiment, scheme):
    # on an interval of length 1e-300, (h/2)/dx^2 overflows: A is refused where it is built,
    # not as a non-finite H in the eigensolver or as an overflow of the potential's commutators
    config = tmp_path / "interval.cfg"
    config.write_text(f"a = 0\nb = 1e-300\nN = 8\nh = 1/8\nscheme = {scheme}\n", encoding="utf-8")
    err = _one_line_exit_2([experiment, "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    assert err == "config error: kinetic term -(h/2) D_2 is not finite on the N=8 grid of [0, 1e-300) at h = 0.125\n", err


@pytest.mark.parametrize("experiment", ["comm-sweep", "beta"])
@pytest.mark.parametrize("scheme", ["fd", "spectral"])
def test_cli_commutator_overflow_names_the_observable(tmp_path, capsys, experiment, scheme):
    # the potential is tame and O near the float range: the message names both
    observable = "0:1e308*cos(x), 1:1e308"
    config = tmp_path / "huge-O.cfg"
    config.write_text(f'observable = "{observable}"\nN = 8\nh = 1/8\nscheme = {scheme}\n', encoding="utf-8")
    err = _one_line_exit_2([experiment, "--config", str(config), "--out", str(tmp_path / "o")], capsys)
    expected = f"config error: commutators of observable {observable!r} and potential 'cos(x)' overflow at h = 0.125: "
    assert err.startswith(expected), err


def test_cli_out_of_memory_exit_code(tmp_path, capsys, monkeypatch):
    from semitrotter import experiments as exp_mod

    def boom(cfg):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

    monkeypatch.setattr(exp_mod, "run_experiment", boom)
    err = _one_line_exit_2(["beta", "--out", str(tmp_path)], capsys)
    assert err.startswith("out of memory, lower N or raise h: Unable to allocate 74.5 GiB"), err
    assert not any(tmp_path.iterdir())


def test_cli_config_not_utf8_exit_code(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes(b"h = 1/64\xff\n")
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("dt-sweep", str(config))
    assert main(["dt-sweep", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_cli_out_naming_a_file_exit_code(tmp_path, capsys):
    config = tmp_path / "v.cfg"
    config.write_text("trials = 5\n", encoding="utf-8")
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    assert main(["verify-symbolic", "--config", str(config), "--out", str(out)]) == 2
    assert "cannot write output" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "not a directory\n"


def test_cli_verify_symbolic(tmp_path, capsys):
    config = tmp_path / "v.cfg"
    config.write_text("trials = 25\nseed = 42\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["verify-symbolic", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "verify_symbolic.csv").exists()
    assert "violations 0" in capsys.readouterr().out


def test_cli_beta(tmp_path, capsys):
    config = tmp_path / "b.cfg"
    config.write_text("h = 1/8, 1/16\nN = 16\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["beta", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "beta.csv").exists()
    assert "ratio" in capsys.readouterr().out


def test_cli_convergence_failure_exit_code(tmp_path, monkeypatch):
    from semitrotter import experiments as exp_mod
    from semitrotter.linalg import ConvergenceError

    def boom(cfg):
        raise ConvergenceError("stalled", 20000)

    beta = replace(exp_mod.EXPERIMENTS["beta"], runner=boom)
    monkeypatch.setitem(exp_mod.EXPERIMENTS, "beta", beta)
    assert main(["beta", "--out", str(tmp_path)]) == 3


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
