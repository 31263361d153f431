"""The entry point refuses to run where it cannot build the program."""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "run.py")


def run(args, cwd):
    return subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd, capture_output=True, text=True, timeout=60
    )


def test_exits_nonzero_without_sources(tmp_path):
    proc = run(["--workload", "commutators", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_rejects_an_unknown_workload():
    root = os.path.dirname(os.path.dirname(RUN))
    proc = run(["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"], root)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_no_child_starts_after_the_deadline(tmp_path, monkeypatch):
    import run as bench_run

    monkeypatch.setattr(bench_run, "CHILDREN_BUDGET_S", 0)
    runner = bench_run.Runner(str(tmp_path), str(tmp_path), (), ())
    assert runner.spawn("setup") is None
    assert runner.count == 0
