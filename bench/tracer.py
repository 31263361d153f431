"""Outside-in span tracer for one benchmark pass.

Wraps the package's public functions in the namespaces where their
callers look them up, so no file under ``src/`` changes. Each call
records a span ``[name, start, end, parent, N, flag]``; spans stay in
memory and are written out when the pass ends. ``N`` is the leading
dimension of the first array argument. Work the tracer does for itself
(the spectral-norm oracle, file sizes) runs outside every span and is
removed from the clock, so self times and the traced wall exclude it.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import threading
import time

import numpy as np

NAME, START, END, PARENT, SIZE, FLAG = range(6)

# relative accuracy spectral_norm documents; a result further than this
# from np.linalg.norm(M, 2) on the same input counts as wrong
NORM_REL_TOL = 1e-8
BUCKETS = (64, 256, 1024)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.excluded = 0.0  # seconds of tracer-side work taken off the clock
        self._local = threading.local()

    def now(self) -> float:
        return time.perf_counter() - self.excluded

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def off_clock(self, fn, *args):
        """Run tracer-side work without charging it to any span."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.excluded += time.perf_counter() - t0

    def wrap(self, name: str, fn, after=None, caller: str | None = None):
        """A traced stand-in for ``fn``.

        ``after(args, result)`` runs off the clock once the span closes and
        its return value becomes the span's flag. With ``caller`` set, only
        calls from that module are traced.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if caller is not None and sys._getframe(1).f_globals.get("__name__") != caller:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, _size(args), None]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span[START] = self.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = self.now()
                stack.pop()
            if after is not None:
                span[FLAG] = self.off_clock(after, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _size(args) -> int | None:
    for arg in args:
        shape = getattr(arg, "shape", None)
        if shape:
            return int(shape[0])
    return None


def _norm_is_wrong(args, result) -> bool:
    reference = float(np.linalg.norm(np.asarray(args[0]), 2))
    return abs(result - reference) > NORM_REL_TOL * abs(reference)


def _file_bytes(args, result) -> int:
    return os.path.getsize(result)


# (module, attribute, span name, after, caller): each name is wrapped where
# its callers look it up; a name a later change removes is skipped and
# reports zero calls
TARGETS = (
    ("semitrotter.cli", "main", "cli.main", None, None),
    ("semitrotter.cli", "emit_csv", "experiments.emit_csv", _file_bytes, None),
    ("semitrotter.cli", "emit_svg", "experiments.emit_svg", _file_bytes, None),
    ("semitrotter.experiments", "run_experiment", "experiments.run_experiment", None, None),
    ("semitrotter.experiments", "_sort_rows", "experiments.sort_rows", None, None),
    ("semitrotter.experiments", "build_A", "model.build_A", None, None),
    ("semitrotter.experiments", "build_B", "model.build_B", None, None),
    ("semitrotter.experiments", "build_observable", "model.build_observable", None, None),
    ("semitrotter.experiments", "suzuki_plan", "splitting.suzuki_plan", None, None),
    ("semitrotter.experiments", "trotter_step", "splitting.trotter_step", None, None),
    ("semitrotter.experiments", "exact_unitary", "splitting.exact_unitary", None, None),
    ("semitrotter.experiments", "commutator", "linalg.commutator", None, None),
    ("semitrotter.experiments", "spectral_norm", "linalg.spectral_norm", _norm_is_wrong, None),
    ("semitrotter.experiments", "compute_beta_comm", "commutator_lab.compute_beta_comm", None, None),
    ("semitrotter.experiments", "verify_height_width", "symbolic_lie.verify_height_width", None, None),
    ("semitrotter.experiments", "sym_commutator", "symbolic_lie.sym_commutator", None, None),
    ("semitrotter.splitting", "unitary_exp", "linalg.unitary_exp", None, None),
    ("semitrotter.splitting", "circulant_exp", "linalg.circulant_exp", None, None),
    ("semitrotter.splitting", "is_circulant", "linalg.is_circulant", None, None),
    ("semitrotter.splitting", "is_diagonal", "linalg.is_diagonal", None, None),
    ("semitrotter.linalg", "hermitian_eig", "linalg.hermitian_eig", None, None),
    ("semitrotter.linalg", "spectral_norm", "linalg.spectral_norm", _norm_is_wrong, None),
    ("semitrotter.commutator_lab", "commutator", "linalg.commutator", None, None),
    ("semitrotter.commutator_lab", "spectral_norm", "linalg.spectral_norm", _norm_is_wrong, None),
    ("semitrotter.symbolic_lie", "sym_commutator", "symbolic_lie.sym_commutator", None, None),
    ("semitrotter.symbolic_lie", "spectral_norm", "linalg.spectral_norm", _norm_is_wrong, None),
    ("numpy.linalg", "svd", "linalg.svd", None, "semitrotter.linalg"),
    ("numpy.linalg", "matrix_power", "experiments.step_power", None, "semitrotter.experiments"),
)


def install(tracer: Tracer, patch=setattr) -> list[str]:
    """Wrap every target that exists; return the span names wrapped.

    ``patch(module, attr, value)`` replaces a name; tests pass one that
    restores the original afterwards.
    """
    wrapped = []
    for module_name, attr, name, after, caller in TARGETS:
        module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        patch(module, attr, tracer.wrap(name, fn, after, caller))
        wrapped.append(name)
    return wrapped


# -- aggregation --------------------------------------------------------------

KERNELS = (
    "experiments.step_power",
    "splitting.trotter_step",
    "linalg.hermitian_eig",
    "linalg.circulant_exp",
    "linalg.is_circulant",
    "linalg.commutator",
    "linalg.spectral_norm",
)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    own = self_times(spans)
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    norms = fallbacks = wrong = 0
    for i, s in enumerate(spans):
        name = s[NAME]
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", own[i])
        if name in KERNELS and s[SIZE] in BUCKETS:
            add(f"{name}.self_s.N{s[SIZE]}", own[i])
        if name == "linalg.spectral_norm":
            norms += 1
            wrong += bool(s[FLAG])
        elif name == "linalg.svd" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "linalg.spectral_norm":
            fallbacks += 1
        elif name in ("experiments.emit_csv", "experiments.emit_svg"):
            add("experiments.bytes_written", s[FLAG] or 0)
    out["linalg.spectral_norm.svd_fallback_share"] = fallbacks / norms if norms else 0.0
    out["linalg.spectral_norm.wrong_share"] = wrong / norms if norms else 0.0
    out["cli.self_s"] = out.get("cli.main.self_s", 0.0)
    out["experiments.self_s"] = out.get("experiments.run_experiment.self_s", 0.0)
    out["trace.self_sum_s"] = sum(own)
    return out


def combine(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-pass value over the traced passes."""
    keys = sorted({k for p in passes for k in p})
    return {k: statistics.median(p.get(k, 0) for p in passes) for k in keys}
