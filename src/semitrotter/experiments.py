"""Batch experiments: convergence sweeps, commutator scaling, reports.

Configs are plain ``key = value`` text: ``#`` starts a comment, lists are
comma-separated, expressions are quoted strings, and a number may be any
finite constant expression in the grammar of ``expr``, such as ``1/64``,
``-pi/2`` or ``2^-6``. Defaults
reproduce the reference setup: V(x) = cos(x) on [-pi, pi], N = 64,
t = 0.5, time steps 1/4 ... 1/64 at h = 1/64 for the dt sweep, and
h = 1/32 ... 1/1024 at fixed dt = 0.1 for the h sweep.

``N = auto`` couples the grid to the semiclassical parameter, N = 1/h
(even, at least 4), in every experiment; it is the default of the h
sweep, the commutator sweep and the beta experiment, and the dt sweep
pins N = 64. The uniform error and commutator bounds concern the
resolved regime where the grid tracks the oscillation scale, and a
fixed grid leaves the small-h tail unresolved (observable error then
grows like a power of 1/h instead of staying flat). In operator norm they
are h-uniform for the finite-difference scheme only: cos(x) aliases the top
modes across the Nyquist wrap, where the spectral (i xi)^k is not smooth,
so the spectral [[A,B],O] grows like 1/h (see README).

CSV rows carry exactly the columns
``experiment,p,scheme,N,h,dt,t,metric,value`` with RFC-4180-style
quoting; identical configs produce byte-identical files on one BLAS build
at one BLAS thread count. BLAS splits a product's work by its thread
count, which moves the low digits: 18 of the 36 default h-sweep values
differ between one and two OpenBLAS threads, every one at N >= 256, by up
to 3.1e-14 absolute. Plots are
self-contained log-log SVGs, one polyline per series plus dashed
reference lines.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from dataclasses import astuple, dataclass
from functools import partial
from itertools import product
from typing import Callable

import numpy as np

from .commutator_lab import ad, compute_beta_comm
from .discretize import Grid, SchemeKind, sample
from .expr import Expr, ExprError, eval_expr, parse_expr
from . import linalg
from .linalg import Stencil, is_finite, matmul_by_rows, spectral_norm
from .model import ModelParams, PolyObservableSpec, declared_A, declared_observable
from .splitting import suzuki_plan, trotter_step
from .symbolic_lie import SymOp, sym_commutator, verify_height_width

CSV_HEADER = "experiment,p,scheme,N,h,dt,t,metric,value"

COMM_WORD_LABELS = ("[A,B]", "[[A,B],O]", "[A,[[A,B],O]]", "[A,[A,[[A,B],O]]]")

# fixed Gaussian wavepacket for expectation-value reporting
STATE_CENTER = 0.0
STATE_WIDTH = 0.5
STATE_MOMENTUM = 1.0


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    a: float = -math.pi
    b: float = math.pi
    n: int | None = 64
    h_values: tuple[float, ...] = (1.0 / 64,)
    dt_values: tuple[float, ...] = ()
    t_final: float = 0.5
    orders: tuple[int, ...] = (2,)
    potential: str = "cos(x)"
    observable: str = "0:cos(x), 1:sin(x)"
    scheme: SchemeKind = SchemeKind.FINITE_DIFFERENCE
    seed: int = 0
    trials: int = 1000
    state: bool = False


@dataclass(frozen=True)
class Row:
    experiment: str
    p: int | None
    scheme: str
    n: int
    h: float | None
    dt: float | None
    t: float | None
    metric: str
    value: float


@dataclass
class SlopeFit:
    slope: float
    r2: float


# -- configuration ----------------------------------------------------------


def _parse_scalar(token: str) -> float:
    """A finite constant expression, such as ``1/64``, ``-pi/2`` or ``2^-6``; else ConfigError.

    It is evaluated at x = NaN, so a token whose value depends on x reads NaN and is rejected.
    """
    try:
        value = eval_expr(parse_expr(token), math.nan)
    except ExprError as exc:
        raise ConfigError(f"cannot parse number {token!r}: {exc}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{token!r} is not a finite constant")
    return value


def _parse_value(raw: str):
    raw = raw.strip()
    if raw.startswith('"'):
        end = raw.find('"', 1)
        if end < 0:
            raise ConfigError(f"unterminated string: {raw}")
        trailer = raw[end + 1:].strip()
        if trailer and not trailer.startswith("#"):
            raise ConfigError(f"trailing text after string: {raw}")
        return raw[1: end]
    raw = raw.split("#", 1)[0].strip()
    if not raw:
        raise ConfigError("empty value")
    return raw


def parse_config_text(text: str) -> dict[str, object]:
    """Parse ``key = value`` lines into a raw dictionary; a key may appear once."""
    out: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if lines.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} is already set on line {lines[key]}")
        out[key] = _parse_value(raw)
    return out


_DEFAULT_H_LIST = tuple(1.0 / 2**k for k in range(5, 11))  # 1/32 ... 1/1024


def _as_float_tuple(value: str) -> tuple[float, ...]:
    return tuple(_parse_scalar(tok) for tok in value.split(","))


def _as_int(value: str, key: str) -> int:
    number = _parse_scalar(value)
    if abs(number - round(number)) > 1e-9:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(round(number))


def _parse_scheme(value: str) -> SchemeKind:
    try:
        return SchemeKind(value.strip().lower())
    except ValueError:
        raise ConfigError(f"unknown scheme {value!r}; expected fd or spectral") from None


# config key -> (RunConfig field, parser of the raw text)
_KEYS = {
    "a": ("a", _parse_scalar),
    "b": ("b", _parse_scalar),
    "N": ("n", lambda v: None if v.strip().lower() == "auto" else _as_int(v, "N")),
    "h": ("h_values", _as_float_tuple),
    "dt": ("dt_values", _as_float_tuple),
    "t_final": ("t_final", _parse_scalar),
    "orders": ("orders", lambda v: tuple(_as_int(tok, "orders") for tok in v.split(","))),
    "potential": ("potential", str),
    "observable": ("observable", str),
    "scheme": ("scheme", _parse_scheme),
    "seed": ("seed", lambda v: _as_int(v, "seed")),
    "trials": ("trials", lambda v: _as_int(v, "trials")),
}


def build_config(experiment: str, raw: dict[str, object] | None = None, state: bool = False) -> RunConfig:
    """Merge raw config values over per-experiment defaults and validate."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}; expected one of {tuple(EXPERIMENTS)}")
    raw = dict(raw or {})
    declared = raw.pop("experiment", None)
    if declared is not None and str(declared) != experiment:
        raise ConfigError(f"config is for {declared!r}, requested {experiment!r}")

    values = dict(EXPERIMENTS[experiment].defaults)
    for key, value in raw.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        name, parse = _KEYS[key]
        values[name] = parse(str(value))
        if isinstance(values[name], tuple) and len(set(values[name])) != len(values[name]):
            raise ConfigError(f"{key} lists a value twice: {value}")
    cfg = RunConfig(experiment=experiment, state=state, **values)
    _validate(cfg)
    return cfg


def load_config(experiment: str, path: str | None, state: bool = False) -> RunConfig:
    raw = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = parse_config_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(experiment, raw, state=state)


def _validate(cfg: RunConfig) -> None:
    """Check the rules of the config itself, then build what each h needs, without its arrays.

    The h list comes first, since the grid size N = 1/h divides by h. The grid, the model,
    the observable and the Suzuki schedules check their own rules; their errors become
    ConfigErrors.
    """
    if not cfg.h_values or any(h <= 0 for h in cfg.h_values):
        raise ConfigError(f"h list must be non-empty and positive: {cfg.h_values}")
    if cfg.t_final <= 0:
        raise ConfigError(f"t_final must be positive, got {cfg.t_final}")
    if not cfg.orders:
        raise ConfigError("orders must be non-empty")
    if cfg.trials < 1:
        raise ConfigError(f"trials must be >= 1, got {cfg.trials}")
    spec = EXPERIMENTS[cfg.experiment]
    for key in spec.fixed:
        values = getattr(cfg, _KEYS[key][0])
        if len(values) != 1:
            raise ConfigError(f"{cfg.experiment} holds {key} fixed and takes one value, got {values}")
    if "dt" in (spec.x_field, *spec.fixed):  # the experiment sweeps or holds dt
        if not cfg.dt_values or any(dt <= 0 for dt in cfg.dt_values):
            raise ConfigError(f"dt list must be non-empty and positive: {cfg.dt_values}")
        for dt in cfg.dt_values:
            steps = cfg.t_final / dt
            if abs(steps - round(steps)) > 1e-9:
                raise ConfigError(
                    f"t_final/dt = {steps} is not integral for dt={dt}; "
                    "configs are rejected, not rounded"
                )
    try:
        for p in cfg.orders:
            suzuki_plan(p)
        for h in cfg.h_values:
            _model(cfg, h)
    except (ValueError, ExprError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_observable_spec(text: str, h: float) -> PolyObservableSpec:
    """Parse ``m:expr`` pairs, e.g. ``0:cos(x), 1:sin(x)``."""
    terms: list[tuple[int, Expr]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"observable term {chunk!r} is not of the form m:expr")
        degree_text, expr_text = chunk.split(":", 1)
        terms.append((_as_int(degree_text, "observable degree"), parse_expr(expr_text)))
    if not terms:
        raise ConfigError(f"observable spec {text!r} has no terms")
    try:
        return PolyObservableSpec(terms=tuple(terms), h=h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- shared machinery --------------------------------------------------------


_METRIC_ORDER = {
    "observable_error": 0,
    "unitary_error": 1,
    "expectation_error": 2,
}


def _sort_rows(rows: list[Row]) -> list[Row]:
    return sorted(
        rows,
        key=lambda r: (
            r.p if r.p is not None else -1,
            r.h if r.h is not None else -1.0,
            r.dt if r.dt is not None else -1.0,
            _METRIC_ORDER.get(r.metric, 99),
            r.metric,
        ),
    )


def _row(cfg: RunConfig, metric: str, value: float, p=None, n=0, h=None, dt=None, t=None) -> Row:
    return Row(cfg.experiment, p, cfg.scheme.value, n, h, dt, t, metric, value)


def _model(cfg: RunConfig, h: float) -> tuple[ModelParams, PolyObservableSpec]:
    """The model and observable spec of one h: no arrays, only their checks.

    N is the config's when pinned, else 1/h rounded up to even and at least 4."""
    n = cfg.n
    if n is None:
        if not math.isfinite(1.0 / h):
            raise ValueError(f"N = 1/h is not finite at h = {h:.3g}")
        n = round(1.0 / h)
        n = max(n + n % 2, 4)
    if 16 * n * n > sys.maxsize:  # bytes of an N x N complex128 matrix
        raise ValueError(f"N = {n:.3g} at h = {h:.3g} is too large for N x N matrices")
    grid = Grid(cfg.a, cfg.b, n)
    params = ModelParams(h=h, potential=parse_expr(cfg.potential), grid=grid, scheme=cfg.scheme)
    return params, parse_observable_spec(cfg.observable, h=h)


def _build_operators(cfg: RunConfig, h: float):
    """The grid, A, B's diagonal and O of one h, A and O in declared form (see model)."""
    params, obs_spec = _model(cfg, h)
    grid = params.grid
    try:
        with np.errstate(over="raise"):  # B = V/h must be finite, as V is
            b = sample(grid, params.potential) / h  # the potential: B's diagonal, without dense B
    except (ExprError, FloatingPointError) as exc:
        raise ConfigError(f"potential {cfg.potential!r} fails on the N={grid.n} grid at h = {h:.3g}: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite A or O is refused below
        a = declared_A(params)
        if not is_finite(a):
            raise ConfigError(f"kinetic term -(h/2) D_2 is not finite on the N={grid.n} grid of [{cfg.a:.3g}, {cfg.b:.3g}) at h = {h:.3g}")
        try:
            obs = declared_observable(obs_spec, grid, cfg.scheme)
        except (ExprError, OverflowError) as exc:  # OverflowError: a D_m tap past float range
            raise ConfigError(f"observable {cfg.observable!r} fails on the N={grid.n} grid: {exc}") from exc
    if not is_finite(obs):
        raise ConfigError(f"observable {cfg.observable!r} is not finite on the N={grid.n} grid at h = {h:.3g}")
    return grid, a, b, obs


def _gaussian_state(grid: Grid) -> np.ndarray:
    x = grid.nodes
    psi = np.exp(
        -((x - STATE_CENTER) ** 2) / (2.0 * STATE_WIDTH**2) + 1j * STATE_MOMENTUM * x
    )
    return psi / np.linalg.norm(psi)


def evolution_errors(w: np.ndarray | list[np.ndarray], obs: np.ndarray, phi=None) -> tuple[float, float, float | None]:
    """(||W - I||, ||[O, W - I]||, expectation error or None) for W = U_trot U_exact^dagger.

    By unitary invariance these are ||U_trot - U_exact|| and the observable error
    ||U_trot^dagger O U_trot - U_exact^dagger O U_exact||, read without the cancellation
    of two conjugated observables, so high-order tails stay above roundoff. Given
    phi = U_exact psi, the third is the state-level error |<W phi|[O, W - I]|phi>|,
    which the observable error bounds.

    O is a stencil or a matrix: [O, W - I] is commutator_lab.ad's, so FloatingPointError on overflow.
    Overwrites W with W - I and drops it before the observable norm. w is W, or a list holding
    W alone, which the call empties: then nothing but this call holds W, and it is freed there,
    on any Python (3.10 holds a call's arguments until it returns, 3.11 and later hand them to
    the call). Traced at N = 1024 in complex N x N buffers, with the sweep's real
    eigenvectors V (half a buffer) alive: each norm peaks at 2.72 while its Gram is built
    (V, the matrix, the Gram and one N x 128 panel; the Lanczos basis and the certificate's
    square blocks stay below, at 2.71 and 2.68), FD's bracket, built by row blocks, at 2.70,
    and V and [O, W - I] are what is left. A caller that holds W keeps W - I beside them
    through the observable norm (3.67).
    """
    if isinstance(w, list):
        w = w.pop()
    w[np.diag_indices(w.shape[0])] -= 1.0
    unitary_error = spectral_norm(w)
    w_phi = None if phi is None else w @ phi + phi
    obs_comm = ad(obs, w)
    del w
    observable_error = spectral_norm(obs_comm)
    expectation_error = None if phi is None else float(abs(np.vdot(w_phi, obs_comm @ phi)))
    return unitary_error, observable_error, expectation_error


def _evolution_rows(cfg: RunConfig, h: float) -> list[Row]:
    """Error rows for every order and dt on one h's grid, from one eigendecomposition of H.

    H = A + B is real symmetric, so U_exact^dagger = V diag(e^{i t lam}) V^T is kept as V,
    half a complex N x N buffer, and N phases. splitting.trotter_step(..., m=V) builds
    Y = U_trot V, Fortran-ordered; Y's columns are scaled by the phases, and
    W = Y V^T = U_trot U_exact^dagger is written over Y by linalg.matmul_by_rows, one real
    product per panel. W goes to evolution_errors in a list, so that call frees it before the
    observable norm; beside the norms' buffers only V and O are alive (2.72 buffers, traced at
    N = 1024).
    """
    grid, a, b, obs = _build_operators(cfg, h)
    if cfg.t_final * sys.float_info.epsilon * float(np.max(np.abs(b))) >= 1.0:
        raise ConfigError(f"phases t_final V/h of potential {cfg.potential!r} keep no digit at h = {h:.3g}")
    a = np.asarray(a)  # the cell's one dense operator: it becomes H = A + B
    a_row = a[0].copy()  # the Trotter step reads only A's first row
    a[np.diag_indices_from(a)] += b
    lam, v = linalg.hermitian_eig(a)  # H = V diag(lam) V^T, V real
    a[...] = v  # V is kept in H's buffer: the eigensolver's own V goes with its other temporaries
    v = a
    phases = np.exp(1j * cfg.t_final * lam)  # U_exact^dagger = V diag(phases) V^T
    phi = None
    if cfg.state:  # U_exact psi = V (conj(phases) V^T psi), by real products
        phi = matmul_by_rows(matmul_by_rows(_gaussian_state(grid)[None], v) * phases.conj(), v.T)[0]
    metrics = ("unitary_error", "observable_error", "expectation_error")  # evolution_errors' order
    rows = []
    for p, dt in product(cfg.orders, cfg.dt_values):
        steps = int(round(cfg.t_final / dt))
        y = trotter_step(suzuki_plan(p), a_row, b, dt, steps, m=v)  # U_trot V
        y *= phases
        w = [matmul_by_rows(y, v.T, out=y)]  # W = U_trot V diag(phases) V^T, in y's buffer
        del y
        errors = evolution_errors(w, obs, phi)
        row = partial(_row, cfg, p=p, n=grid.n, h=h, dt=dt, t=cfg.t_final)
        rows += [row(metric, value) for metric, value in zip(metrics, errors) if value is not None]
    return rows


def _commutator_rows(cfg: RunConfig, h: float, words: bool) -> list[Row]:
    """Beta and the words' norms from A and O in declared form (FD's stencils)."""
    grid, a, b, obs = _build_operators(cfg, h)
    row = partial(_row, cfg, n=grid.n, h=h)
    # beta first, so no word of the chain is alive while it runs
    rows = [row("beta_comm", compute_beta_comm(p, a, b, obs), p=p) for p in cfg.orders]
    if words:
        # ad_B(A) = [B, A] = -[A, B], not by products, has [A, B]'s norm; then ad_O of it is [[A, B], O]
        chain = ad(Stencil({0: b}, grid.n), a)
        rows.append(row(COMM_WORD_LABELS[0], spectral_norm(chain)))
        chain = ad(obs, chain)
        rows.append(row(COMM_WORD_LABELS[1], spectral_norm(chain)))
        for label in COMM_WORD_LABELS[2:]:
            chain = ad(a, chain)
            rows.append(row(label, spectral_norm(chain)))
    return rows


def _sweep(cell: Callable[[RunConfig, float], list[Row]], cfg: RunConfig) -> list[Row]:
    """The sorted rows of cell(cfg, h) for every h of the config; a commutator_lab.ad overflow is a ConfigError."""
    rows = []
    for h in cfg.h_values:
        try:
            rows += cell(cfg, h)
        except FloatingPointError as exc:
            raise ConfigError(f"commutators of observable {cfg.observable!r} and potential {cfg.potential!r} overflow at h = {h:.3g}: {exc}") from exc
    return _sort_rows(rows)


def run_verify_symbolic(cfg: RunConfig) -> list[Row]:
    """Randomized lemma verification plus the [V, d^2] hand check."""
    report = verify_height_width(cfg.trials, cfg.seed)

    v_op = SymOp.term(1, (("V", 0),))
    d2_op = SymOp.term(1, (), hpow=0, dord=2)
    expected = SymOp.term(-1, (("V", 2),)) + SymOp.term(-2, (("V", 1),), dord=1)
    hand_check = sym_commutator(v_op, d2_op) == expected

    rows = [
        _row(cfg, "ht_wd_trials", float(report.trials)),
        _row(cfg, "ht_wd_checks", float(report.checks)),
        _row(cfg, "ht_wd_violations", float(report.failures)),
        _row(cfg, "hand_check_v_d2", 1.0 if hand_check else 0.0),
    ]
    if report.first_failure:
        rows.append(_row(cfg, "first_failure_flag", 1.0))
    return rows


# -- slope fitting ------------------------------------------------------------


def fit_slope(points) -> SlopeFit:
    """Ordinary least squares on (log x, log y)."""
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points, got {len(pts)}")
    if not np.isfinite(pts).all():
        raise ValueError("log-log fit requires finite coordinates")
    if any(x <= 0 or y <= 0 for x, y in pts):
        raise ValueError("log-log fit requires strictly positive coordinates")
    xs = np.log([x for x, _ in pts])
    ys = np.log([y for _, y in pts])
    if np.ptp(xs) == 0.0:
        raise ValueError("degenerate fit: all x values coincide")
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return SlopeFit(slope=float(slope), r2=r2)


def series_from_rows(rows: list[Row], metric: str, x_field: str) -> list[tuple[str, list[tuple[float, float]]]]:
    """Group rows with the given metric into (label, points) series by order p.

    Only positive values are kept, so every point fits on a log-log plot;
    an order without one gets no series.
    """
    grouped: dict[int | None, list[tuple[float, float]]] = {}
    for row in rows:
        if row.metric != metric or not row.value > 0:
            continue
        x = getattr(row, x_field)
        if x is None:
            continue
        grouped.setdefault(row.p, []).append((x, row.value))
    series = []
    for p in sorted(grouped, key=lambda v: (v is None, v)):
        label = metric if p is None else f"{metric} p={p}"
        series.append((label, sorted(grouped[p])))
    return series


# -- the experiments -----------------------------------------------------------


@dataclass(frozen=True)
class Plot:
    """One log-log SVG: ``<tag><suffix>.svg`` with a series per metric and order."""

    suffix: str
    metrics: tuple[str, ...]
    title: str
    ylabel: str


@dataclass(frozen=True)
class Experiment:
    runner: Callable[[RunConfig], list[Row]]
    defaults: dict[str, object]  # RunConfig fields that differ from its own defaults
    summary: Callable[[Experiment, list[Row]], list[str]]  # lines printed after a run
    x_field: str | None = None  # Row field on the plots' x axis: the sweep axis
    fixed: tuple[str, ...] = ()  # config keys the sweep holds fixed, one value each
    plots: tuple[Plot, ...] = ()
    refs: Callable[[RunConfig], list[tuple[str, float]]] = lambda cfg: []  # dashed x^slope guides
    state: bool = False  # the CLI offers --state, the Gaussian wavepacket's expectation error

    def series(self, rows: list[Row], plot: Plot) -> list[tuple[str, list[tuple[float, float]]]]:
        return [s for metric in plot.metrics for s in series_from_rows(rows, metric, self.x_field)]


def _slope_lines(spec: Experiment, rows: list[Row]) -> list[str]:
    lines = [f"  slopes vs {spec.x_field}:"]
    for plot in spec.plots:
        for label, points in spec.series(rows, plot):
            if len({x for x, _ in points}) >= 2:
                fit = fit_slope(points)
                lines.append(f"  {label}: slope {fit.slope:+.3f} (r^2 {fit.r2:.4f})")
    return lines


def _ratio_lines(spec: Experiment, rows: list[Row]) -> list[str]:
    return [
        f"  {label}: max/min ratio {max(v for _, v in points) / min(v for _, v in points):.3f}"
        for plot in spec.plots
        for label, points in spec.series(rows, plot)
    ]


def _verification_lines(spec: Experiment, rows: list[Row]) -> list[str]:
    got = {r.metric: r.value for r in rows}
    hand_check = "ok" if got["hand_check_v_d2"] == 1.0 else "FAILED"
    return [
        f"  trials {got['ht_wd_trials']:.0f}, checks {got['ht_wd_checks']:.0f}, "
        f"violations {got['ht_wd_violations']:.0f}, hand check {hand_check}"
    ]


EXPERIMENTS = {
    "dt-sweep": Experiment(
        runner=partial(_sweep, _evolution_rows),
        defaults={"n": 64, "h_values": (1.0 / 64,), "orders": (1, 2, 4, 6),
                  "dt_values": (0.25, 0.125, 0.0625, 0.03125, 0.015625)},
        summary=_slope_lines,
        x_field="dt",
        fixed=("h",),
        plots=(
            Plot("_observable_error", ("observable_error",), "observable_error vs dt", "observable_error"),
            Plot("_unitary_error", ("unitary_error",), "unitary_error vs dt", "unitary_error"),
        ),
        refs=lambda cfg: [(f"dt^{p}", float(p)) for p in cfg.orders],
        state=True,
    ),
    "h-sweep": Experiment(
        runner=partial(_sweep, _evolution_rows),
        defaults={"n": None, "h_values": _DEFAULT_H_LIST, "dt_values": (0.1,), "orders": (2, 4, 6)},
        summary=_slope_lines,
        x_field="h",
        fixed=("dt",),
        plots=(Plot("", ("observable_error", "unitary_error"), "errors vs h at fixed dt", "error"),),
        refs=lambda cfg: [("h^-1", -1.0)],
    ),
    "comm-sweep": Experiment(
        runner=partial(_sweep, partial(_commutator_rows, words=True)),
        defaults={"n": None, "h_values": _DEFAULT_H_LIST, "orders": (2,)},
        summary=_slope_lines,
        x_field="h",
        fixed=("orders",),
        plots=(Plot("", COMM_WORD_LABELS + ("beta_comm",), "commutator norms vs h", "spectral norm"),),
        refs=lambda cfg: [("h^-1", -1.0)],
    ),
    "beta": Experiment(
        runner=partial(_sweep, partial(_commutator_rows, words=False)),
        defaults={"n": None, "h_values": (1.0 / 32, 1.0 / 256), "orders": (2,)},
        summary=_ratio_lines,
        x_field="h",
        plots=(Plot("", ("beta_comm",), "beta_comm vs h", "beta_comm"),),
    ),
    "verify-symbolic": Experiment(
        runner=run_verify_symbolic,
        defaults={"seed": 42},
        summary=_verification_lines,
    ),
}


def run_experiment(cfg: RunConfig) -> list[Row]:
    return EXPERIMENTS[cfg.experiment].runner(cfg)


# -- CSV ----------------------------------------------------------------------


def rows_to_csv(rows: list[Row]) -> str:
    """The header and one line per row: Row's fields in column order, floats by repr."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(astuple(r) for r in rows)
    return out.getvalue()


def emit_csv(rows: list[Row], path: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(rows_to_csv(rows))
    return path


# -- SVG ----------------------------------------------------------------------

_SVG_W, _SVG_H = 720, 520
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 170, 40, 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


def emit_svg(
    series,
    ref_lines=(),
    path: str = "plot.svg",
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
) -> str:
    """Write a self-contained log-log SVG plot.

    series: iterable of (label, [(x, y), ...]) with positive coordinates.
    ref_lines: iterable of (label, slope) drawn dashed through the
    lower-right anchor of the data, giving x^slope guide lines.
    """
    series = [(label, sorted((float(x), float(y)) for x, y in pts)) for label, pts in series]
    all_pts = [pt for _, pts in series for pt in pts]
    if any(x <= 0 or y <= 0 for x, y in all_pts):
        raise ValueError("log-log plot requires positive data")

    if all_pts:
        lx0, lx1 = (min(math.log10(x) for x, _ in all_pts), max(math.log10(x) for x, _ in all_pts))
        ly0, ly1 = (min(math.log10(y) for _, y in all_pts), max(math.log10(y) for _, y in all_pts))
    else:
        lx0, lx1, ly0, ly1 = -1.0, 1.0, -1.0, 1.0
    if lx1 - lx0 < 1e-9:
        lx0, lx1 = lx0 - 0.5, lx1 + 0.5
    if ly1 - ly0 < 1e-9:
        ly0, ly1 = ly0 - 0.5, ly1 + 0.5
    pad_x, pad_y = 0.05 * (lx1 - lx0), 0.05 * (ly1 - ly0)
    lx0, lx1 = lx0 - pad_x, lx1 + pad_x
    ly0, ly1 = ly0 - pad_y, ly1 + pad_y

    plot_w = _SVG_W - _MARGIN_L - _MARGIN_R
    plot_h = _SVG_H - _MARGIN_T - _MARGIN_B

    def to_px(x: float, y: float) -> tuple[float, float]:
        px = _MARGIN_L + (math.log10(x) - lx0) / (lx1 - lx0) * plot_w
        py = _MARGIN_T + (ly1 - math.log10(y)) / (ly1 - ly0) * plot_h
        return px, py

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_W // 2}" y="24" text-anchor="middle" font-size="15">{_xml_escape(title)}</text>',
    ]
    # axes
    x_axis_y = _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{x_axis_y}" x2="{_MARGIN_L + plot_w}" y2="{x_axis_y}" '
        'stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{x_axis_y}" stroke="black"/>'
    )
    for decade in range(math.ceil(lx0), math.floor(lx1) + 1):
        px = _MARGIN_L + (decade - lx0) / (lx1 - lx0) * plot_w
        parts.append(f'<line x1="{px:.1f}" y1="{x_axis_y}" x2="{px:.1f}" y2="{x_axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{x_axis_y + 20}" text-anchor="middle" font-size="11">1e{decade}</text>'
        )
    for decade in range(math.ceil(ly0), math.floor(ly1) + 1):
        py = _MARGIN_T + (ly1 - decade) / (ly1 - ly0) * plot_h
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{py:.1f}" x2="{_MARGIN_L}" y2="{py:.1f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" font-size="11">1e{decade}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w // 2}" y="{_SVG_H - 10}" text-anchor="middle" '
            f'font-size="13">{_xml_escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="18" y="{_MARGIN_T + plot_h // 2}" font-size="13" text-anchor="middle" '
            f'transform="rotate(-90 18 {_MARGIN_T + plot_h // 2})">{_xml_escape(ylabel)}</text>'
        )

    legend_x, legend_y = _MARGIN_L + plot_w + 12, _MARGIN_T + 10

    def legend(label: str, stroke: str) -> None:
        nonlocal legend_y
        parts.append(f'<line x1="{legend_x}" y1="{legend_y}" x2="{legend_x + 22}" y2="{legend_y}" {stroke}/>')
        parts.append(f'<text x="{legend_x + 28}" y="{legend_y + 4}" font-size="11">{_xml_escape(label)}</text>')
        legend_y += 18

    for idx, (label, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in (to_px(x, y) for x, y in pts))
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
            for x, y in pts:
                px, py = to_px(x, y)
                parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="{color}"/>')
        legend(label, f'stroke="{color}" stroke-width="1.5"')

    # dashed reference guides anchored at the max-x, min-y corner of the data
    if all_pts and ref_lines:
        x_hi = max(x for x, _ in all_pts)
        x_lo = min(x for x, _ in all_pts)
        y_anchor = min(y for _, y in all_pts)
        for label, slope in ref_lines:
            y_at = lambda x: y_anchor * (x / x_hi) ** slope
            p0, p1 = to_px(x_lo, y_at(x_lo)), to_px(x_hi, y_at(x_hi))
            parts.append(
                f'<polyline fill="none" stroke="#555555" stroke-dasharray="6,4" '
                f'points="{p0[0]:.2f},{p0[1]:.2f} {p1[0]:.2f},{p1[1]:.2f}"/>'
            )
            legend(label, 'stroke="#555555" stroke-dasharray="6,4"')

    parts.append("</svg>")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
