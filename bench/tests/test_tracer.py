"""Span bookkeeping: nesting, self times, off-clock work, a traced CLI run."""

import os
import time

import numpy as np

import tracer as tracing
from semitrotter import cli


def test_self_times_sum_to_the_root_span():
    t = tracing.Tracer()
    leaf = t.wrap("leaf", lambda: time.sleep(0.01))

    def middle_body():
        leaf()
        time.sleep(0.005)
        leaf()

    middle = t.wrap("middle", middle_body)
    root = t.wrap("root", lambda: (middle(), time.sleep(0.002)))
    root()
    spans = t.spans
    assert [s[tracing.NAME] for s in spans] == ["root", "middle", "leaf", "leaf"]
    assert [s[tracing.PARENT] for s in spans] == [-1, 0, 1, 1]
    own = tracing.self_times(spans)
    wall = spans[0][tracing.END] - spans[0][tracing.START]
    assert abs(sum(own) - wall) < 1e-9
    assert own[1] >= 0.005 and own[2] >= 0.01
    layer = tracing.aggregate(spans)
    assert layer["leaf.calls"] == 2 and layer["trace.self_sum_s"] == sum(own)


def test_off_clock_work_is_charged_to_no_span():
    t = tracing.Tracer()
    work = t.wrap("work", lambda: 1, after=lambda args, result: time.sleep(0.05) or "flag")
    outer = t.wrap("outer", work)
    start = t.now()
    outer()
    assert t.now() - start < 0.04
    assert t.spans[1][tracing.FLAG] == "flag"
    assert t.spans[0][tracing.END] - t.spans[0][tracing.START] < 0.04


def test_caller_filter_skips_other_modules():
    t = tracing.Tracer()
    traced = t.wrap("power", np.linalg.matrix_power, caller="semitrotter.experiments")
    traced(np.eye(2), 2)
    assert t.spans == []


def test_traced_cli_run(tmp_path, monkeypatch):
    missing = ("semitrotter.linalg", "no_such_kernel", "linalg.no_such_kernel", None, None)
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (missing,))
    t = tracing.Tracer()
    wrapped = tracing.install(t, patch=monkeypatch.setattr)
    assert "linalg.no_such_kernel" not in wrapped
    config = tmp_path / "dt.conf"
    config.write_text("N = 8\nh = 1/8\ndt = 1/4, 1/8\norders = 1, 2\nt_final = 1/2\n")
    start = t.now()
    assert cli.main(["dt-sweep", "--config", str(config), "--out", str(tmp_path)]) == 0
    wall = t.now() - start

    layer = tracing.aggregate(t.spans)
    residual = wall - layer["trace.self_sum_s"]
    assert 0 <= residual < 0.01
    assert layer["cli.main.calls"] == 1
    assert layer["splitting.trotter_step.calls"] == 4
    assert layer["linalg.spectral_norm.calls"] == 8
    assert layer["experiments.step_power.calls"] == 4
    assert "linalg.no_such_kernel.calls" not in layer
    written = sum(os.path.getsize(tmp_path / f) for f in os.listdir(tmp_path) if f != "dt.conf")
    assert layer["experiments.bytes_written"] == written
    for s in t.spans:
        if s[tracing.NAME] == "linalg.svd":
            assert t.spans[s[tracing.PARENT]][tracing.NAME] == "linalg.spectral_norm"
        if s[tracing.NAME] == "splitting.trotter_step":
            assert s[tracing.SIZE] == 8
