"""The benchmark's workloads: fixed CLI invocations of semitrotter.

Each workload is a sequence of invocations run in order, in one fresh
interpreter per pass, through ``semitrotter.cli.main``. Every config key
the oracle depends on is pinned in a config file, so a later change of
the CLI defaults shows up as wrong values instead of silently moving the
workload. The benchmark seed reaches only ``verify-symbolic``'s ``seed``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

H_SWEEP = tuple(1.0 / 2**k for k in range(5, 11))  # 1/32 ... 1/1024, N = 1/h
DT_SWEEP = (0.25, 0.125, 0.0625, 0.03125, 0.015625)
OBSERVABLE = ((0, "cos(x)"), (1, "sin(x)"))  # O = cos(x) + sin(x) h d/dx


@dataclass(frozen=True)
class Invocation:
    """One ``semitrotter <experiment> --config <file> --out <dir>`` call."""

    experiment: str
    n: int | None = None  # None: resolved grid N = 1/h
    h_values: tuple[float, ...] = H_SWEEP
    dt_values: tuple[float, ...] = ()
    t_final: float = 0.5
    orders: tuple[int, ...] = (2,)
    scheme: str = "fd"
    state: bool = False
    trials: int = 1000
    seed: int = 42
    a: float = -math.pi
    b: float = math.pi
    potential: str = "cos(x)"
    observable: tuple[tuple[int, str], ...] = field(default=OBSERVABLE)

    @property
    def tag(self) -> str:
        """Stem of the CSV the CLI writes."""
        return self.experiment.replace("-", "_")

    def config_text(self) -> str:
        lines = [
            f"a = {self.a!r}",
            f"b = {self.b!r}",
            f"N = {'auto' if self.n is None else self.n}",
            "h = " + ", ".join(repr(h) for h in self.h_values),
            f"t_final = {self.t_final!r}",
            "orders = " + ", ".join(str(p) for p in self.orders),
            f'potential = "{self.potential}"',
            'observable = "' + ", ".join(f"{m}:{y}" for m, y in self.observable) + '"',
            f"scheme = {self.scheme}",
        ]
        if self.dt_values:
            lines.append("dt = " + ", ".join(repr(dt) for dt in self.dt_values))
        if self.experiment == "verify-symbolic":
            lines += [f"trials = {self.trials}", f"seed = {self.seed}"]
        return "\n".join(lines) + "\n"

    def argv(self, config_path: str, out_dir: str) -> list[str]:
        argv = [self.experiment, "--config", config_path, "--out", out_dir]
        if self.state:
            argv.append("--state")
        return argv


def invocations(workload: str, seed: int) -> tuple[Invocation, ...]:
    """The invocations of one pass of ``workload``."""
    if workload == "evolve":
        dt_sweep = Invocation(
            "dt-sweep",
            n=64,
            h_values=(1.0 / 64,),
            dt_values=DT_SWEEP,
            orders=(1, 2, 4, 6),
            state=True,
        )
        return (
            Invocation("h-sweep", dt_values=(0.1,), orders=(2, 4, 6)),
            dt_sweep,
            replace(dt_sweep, scheme="spectral"),
        )
    if workload == "commutators":
        return (
            Invocation("comm-sweep"),
            Invocation("beta", h_values=(1.0 / 32, 1.0 / 256)),
            Invocation("verify-symbolic", seed=seed),
        )
    raise KeyError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


WORKLOADS = ("evolve", "commutators")


def write_configs(invs, directory: str) -> list[str]:
    """Write one config file per invocation; return their paths."""
    paths = []
    for i, inv in enumerate(invs):
        path = os.path.join(directory, f"{i}-{inv.tag}.conf")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(inv.config_text())
        paths.append(path)
    return paths
