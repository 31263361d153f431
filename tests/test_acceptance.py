"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines as
they are produced. Sweep-shaped criteria are driven through the CLI
subcommands; structural and lemma criteria call the library directly.
"""

import csv
import io
import math
import time

import numpy as np

from semitrotter.cli import main
from semitrotter.commutator_lab import compute_alpha_comm, compute_alpha_tilde
from semitrotter.discretize import Grid, SchemeKind, build_diag, build_Dk
from semitrotter.expr import parse_expr
from semitrotter.linalg import commutator, unitarity_defect, unitary_exp
from semitrotter.model import ModelParams, PolyObservableSpec, build_A, build_B, build_observable
from semitrotter.splitting import suzuki_plan, trotter_step
from semitrotter.symbolic_lie import (
    SymOp,
    discrete_height_estimate,
    sym_commutator,
    verify_height_width,
)
from semitrotter.experiments import fit_slope

COS = parse_expr("cos(x)")
SIN = parse_expr("sin(x)")


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def _run_cli(args: list[str], out_dir, csv_name: str) -> list[dict]:
    code = main(args + ["--out", str(out_dir)])
    assert code == 0, f"CLI exited with {code}"
    with open(out_dir / csv_name, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _series(records: list[dict], metric: str, x_field: str, p: str | None = None):
    pts = [
        (float(rec[x_field]), float(rec["value"]))
        for rec in records
        if rec["metric"] == metric and (p is None or rec["p"] == p)
    ]
    return sorted(pts)


def _default_operators(h=1.0 / 64, n=64, scheme=SchemeKind.FINITE_DIFFERENCE):
    grid = Grid(-math.pi, math.pi, n)
    params = ModelParams(h=h, potential=COS, grid=grid, scheme=scheme)
    spec = PolyObservableSpec(terms=((0, COS), (1, SIN)), h=h)
    return build_A(params), build_B(params), build_observable(spec, grid, scheme)


def test_criterion_1_convergence_order(tmp_path):
    start = time.monotonic()
    records = _run_cli(["dt-sweep"], tmp_path, "dt_sweep.csv")
    elapsed = time.monotonic() - start
    ok = elapsed <= 60.0
    detail = [f"runtime {elapsed:.1f}s"]
    for p in (1, 2, 4, 6):
        for metric in ("observable_error", "unitary_error"):
            fit = fit_slope(_series(records, metric, "dt", p=str(p)))
            good = fit.slope >= p - 0.3 and fit.r2 >= 0.98
            ok = ok and good
            detail.append(f"p={p} {metric.split('_')[0]} slope {fit.slope:.2f} r2 {fit.r2:.3f}")
    _report(1, "dt-convergence: " + "; ".join(detail), ok)


def test_criterion_2_h_uniformity(default_h_sweep):
    elapsed, csv_bytes = default_h_sweep  # the CLI run is shared with the determinism test
    records = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    ok = elapsed <= 60.0
    detail = [f"runtime {elapsed:.1f}s"]
    for p in (2, 4, 6):
        obs = fit_slope(_series(records, "observable_error", "h", p=str(p)))
        unit = fit_slope(_series(records, "unitary_error", "h", p=str(p)))
        good = -0.2 <= obs.slope <= 0.2 and -1.3 <= unit.slope <= -0.7
        ok = ok and good
        detail.append(f"p={p} obs {obs.slope:+.2f} unit {unit.slope:+.2f}")
    _report(2, "h-uniformity (resolved grid N=1/h): " + "; ".join(detail), ok)


def test_criterion_3_commutator_scaling(default_comm_sweep):
    elapsed, csv_bytes = default_comm_sweep  # the CLI run is shared with the symbolic-exponent test
    records = list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))
    ok = elapsed <= 30.0
    detail = [f"runtime {elapsed:.1f}s"]
    ab = fit_slope(_series(records, "[A,B]", "h"))
    ok = ok and abs(ab.slope + 1.0) <= 0.1
    detail.append(f"[A,B] {ab.slope:+.3f}")
    for word in ("[[A,B],O]", "[A,[[A,B],O]]", "[A,[A,[[A,B],O]]]"):
        fit = fit_slope(_series(records, word, "h"))
        ok = ok and abs(fit.slope) <= 0.15
        detail.append(f"{word} {fit.slope:+.3f}")
    _report(3, "commutator scaling: " + "; ".join(detail), ok)


def test_criterion_4_beta_uniformity(tmp_path):
    start = time.monotonic()
    records = _run_cli(["beta"], tmp_path, "beta.csv")
    elapsed = time.monotonic() - start
    values = {rec["h"]: float(rec["value"]) for rec in records if rec["metric"] == "beta_comm"}
    assert len(values) == 2
    ratio = max(values.values()) / min(values.values())
    ok = elapsed <= 30.0 and ratio <= 2.0
    _report(4, f"beta_comm(p=2) at h=1/32 vs 1/256: ratio {ratio:.3f}, runtime {elapsed:.1f}s", ok)


def test_criterion_5_local_bound_witness(tmp_path):
    a, b, obs = _default_operators()
    plan = suzuki_plan(2)
    alpha = compute_alpha_comm(2, len(plan.stages), a, np.diag(b), obs)
    alpha_tilde = compute_alpha_tilde(2, a + b, obs)

    errs = {}
    for idx, dt in enumerate((1.0 / 16, 1.0 / 32)):
        records = _run_cli(
            ["dt-sweep", "--config", str(_one_step_config(tmp_path, dt, idx))],
            tmp_path / f"out{idx}",
            "dt_sweep.csv",
        )
        errs[dt] = float(
            next(r["value"] for r in records if r["metric"] == "observable_error")
        )
    bound_ok = all(errs[dt] <= (alpha + alpha_tilde) * dt**3 for dt in errs)
    ratio = errs[1.0 / 16] / errs[1.0 / 32]
    ratio_ok = 2**2.5 <= ratio <= 2**3.5
    _report(
        5,
        f"one-step bound: err(1/16)={errs[1/16]:.3e} <= {(alpha+alpha_tilde)/16**3:.3e}, "
        f"step ratio {ratio:.2f}",
        bound_ok and ratio_ok,
    )


def _one_step_config(tmp_path, dt: float, idx: int):
    path = tmp_path / f"one_step_{idx}.cfg"
    path.write_text(f"orders = 2\ndt = {dt}\nt_final = {dt}\n", encoding="utf-8")
    return path


def test_criterion_6_symbolic_lemma_suite(tmp_path):
    records = _run_cli(["verify-symbolic"], tmp_path, "verify_symbolic.csv")
    by_metric = {rec["metric"]: float(rec["value"]) for rec in records}
    trials_ok = by_metric["ht_wd_trials"] == 1000.0
    violations_ok = by_metric["ht_wd_violations"] == 0.0
    hand_ok = by_metric["hand_check_v_d2"] == 1.0

    # independent in-process confirmation of the hand expansion
    v = SymOp.term(1, (("V", 0),))
    d2 = SymOp.term(1, (), hpow=0, dord=2)
    expansion = sym_commutator(v, d2)
    expected = SymOp.term(-1, (("V", 2),)) + SymOp.term(-2, (("V", 1),), dord=1)
    hand_ok = hand_ok and expansion == expected

    report = verify_height_width(1000, seed=42)
    _report(
        6,
        f"symbolic lemmas: {report.checks} checks, {report.failures} violations, "
        f"[V,d^2] = -V''-2V'd matches",
        trials_ok and violations_ok and hand_ok and report.failures == 0,
    )


def test_criterion_7_discrete_height_ledger():
    sizes = (16, 32, 64, 128)
    ok = True
    detail = []
    for k in (1, 2, 3, 4):
        slope = discrete_height_estimate(
            lambda n, k=k: build_Dk(Grid(-math.pi, math.pi, n), k), sizes
        )
        ok = ok and abs(slope - k) <= 0.1
        detail.append(f"D_{k} {slope:.3f}")

    slope = discrete_height_estimate(
        lambda n: commutator(
            build_Dk(Grid(-math.pi, math.pi, n), 1),
            build_diag(Grid(-math.pi, math.pi, n), COS),
        ),
        sizes,
    )
    ok = ok and slope <= 0.15
    detail.append(f"[D_F,Y] {slope:.3f}")

    for k in (1, 2):
        for j in (1, 2):

            def build(n, k=k, j=j):
                g = Grid(-math.pi, math.pi, n)
                return commutator(
                    build_diag(g, COS) @ build_Dk(g, k), build_diag(g, SIN) @ build_Dk(g, j)
                )

            slope = discrete_height_estimate(build, sizes)
            ok = ok and slope <= k + j - 1 + 0.15
            detail.append(f"[Y D_{k},Y D_{j}] {slope:.3f}<={k + j - 1}+.15")
    _report(7, "discrete heights: " + "; ".join(detail), ok)


def test_criterion_8_structural_invariants():
    a, b, _ = _default_operators()
    h_mat = a + b
    ok = True
    detail = []

    defects = [unitarity_defect(trotter_step(suzuki_plan(p), a[0], np.diag(b), 0.25)) for p in (1, 2, 4, 6)]
    defects.append(unitarity_defect(unitary_exp(h_mat, 0.5)))
    ok = ok and max(defects) <= 1e-10
    detail.append(f"max unitarity defect {max(defects):.2e}")

    g = Grid(-math.pi, math.pi, 64)
    d_f, d_b, d2 = build_Dk(g, 1), -build_Dk(g, 1).T, build_Dk(g, 2)
    exact = np.array_equal(d2, d_b @ d_f) and np.array_equal(d2, d_f @ d_b)
    ok = ok and exact
    detail.append(f"D_2 factorizations exact: {exact}")

    counts = {p: len(suzuki_plan(p).stages) for p in (2, 4, 6, 8)}
    ok = ok and counts == {2: 3, 4: 11, 6: 51, 8: 251}
    for p in (2, 4, 6, 8):
        plan = suzuki_plan(p)
        ok = (
            ok
            and abs(plan.coefficient_sum("A") - 1.0) <= 1e-13
            and abs(plan.coefficient_sum("B") - 1.0) <= 1e-13
            and plan.is_palindromic()
        )
    detail.append(f"stage counts {counts}, sums 1+-1e-13, palindromic")
    _report(8, "structure: " + "; ".join(detail), ok)


def test_criterion_9_cross_scheme_consistency(tmp_path):
    slopes = {}
    for scheme in ("fd", "spectral"):
        cfg = tmp_path / f"{scheme}.cfg"
        cfg.write_text(f"orders = 2\nscheme = {scheme}\n", encoding="utf-8")
        records = _run_cli(
            ["dt-sweep", "--config", str(cfg)], tmp_path / scheme, "dt_sweep.csv"
        )
        slopes[scheme] = fit_slope(_series(records, "observable_error", "dt", p="2")).slope
    diff = abs(slopes["fd"] - slopes["spectral"])
    _report(
        9,
        f"FD slope {slopes['fd']:.3f} vs spectral {slopes['spectral']:.3f} (diff {diff:.3f})",
        diff <= 0.3,
    )
