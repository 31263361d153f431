"""Shared fixtures."""

import time

import pytest

from semitrotter.cli import main


def _default_cli_run(experiment, tmp_path_factory):
    """(wall seconds, CSV bytes) of one run of the experiment at its defaults through the CLI."""
    out = tmp_path_factory.mktemp(experiment)
    start = time.monotonic()
    code = main([experiment, "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0, f"CLI exited with {code}"
    return elapsed, (out / f"{experiment.replace('-', '_')}.csv").read_bytes()


@pytest.fixture(scope="session")
def default_h_sweep(tmp_path_factory):
    """The default h-sweep's (wall seconds, CSV bytes), run once per session."""
    return _default_cli_run("h-sweep", tmp_path_factory)


@pytest.fixture(scope="session")
def default_comm_sweep(tmp_path_factory):
    """The default comm-sweep's (wall seconds, CSV bytes), run once per session."""
    return _default_cli_run("comm-sweep", tmp_path_factory)
