"""Shared fixtures."""

import time

import pytest

from semitrotter.cli import main


@pytest.fixture(scope="session")
def default_h_sweep(tmp_path_factory):
    """(wall seconds, CSV bytes) of one default h-sweep through the CLI, run once per session."""
    out = tmp_path_factory.mktemp("h_sweep")
    start = time.monotonic()
    code = main(["h-sweep", "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0, f"CLI exited with {code}"
    return elapsed, (out / "h_sweep.csv").read_bytes()
