"""Batch command-line front end.

Subcommands: dt-sweep, h-sweep, comm-sweep, beta, verify-symbolic.
Each takes --config <path> (defaults apply when omitted) and --out <dir>
and writes CSV plus SVG artifacts there. Exit codes: 0 on success, 2 on
a configuration error, an output that cannot be written or a run out of
memory, 3 on a numerical-convergence failure. Sweeps run their jobs one
after another; BLAS supplies the threads.

Plots and printed slope fits leave out zero-valued points (the CSV keeps
them). A list the sweep holds fixed (h, dt or orders) must have one value.
Series are labelled by metric and order, so comm-sweep's beta series is
``beta_comm p=<p>``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import experiments
from .experiments import ConfigError, Row, emit_csv, emit_svg
from .linalg import ConvergenceError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semitrotter",
        description="Trotter-Suzuki observable-error experiments for the "
        "semiclassical Schrodinger equation",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in experiments.EXPERIMENTS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", default=None, help="key = value config file")
        cmd.add_argument("--out", default="out", help="output directory")
        if name == "dt-sweep":
            cmd.add_argument(
                "--state",
                action="store_true",
                help="also report |<O>| expectation error for a Gaussian wavepacket",
            )
    return parser


def _write_artifacts(cfg, rows: list[Row], out_dir: str) -> None:
    spec = experiments.EXPERIMENTS[cfg.experiment]
    tag = cfg.experiment.replace("-", "_")
    csv_path = os.path.join(out_dir, f"{tag}.csv")
    emit_csv(rows, csv_path)
    print(f"wrote {csv_path} ({len(rows)} rows)")
    for plot in spec.plots:
        emit_svg(
            spec.series(rows, plot),
            spec.refs(cfg),
            os.path.join(out_dir, f"{tag}{plot.suffix}.svg"),
            title=plot.title,
            xlabel=spec.x_field,
            ylabel=plot.ylabel,
        )
    for line in spec.summary(spec, rows):
        print(line)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = experiments.load_config(args.experiment, args.config, getattr(args, "state", False))
        rows = experiments.run_experiment(cfg)
        _write_artifacts(cfg, rows, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # reading the config raises ConfigError instead
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # an N x N matrix larger than the machine's memory
        print(f"out of memory, lower N or raise h: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"numerical convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
