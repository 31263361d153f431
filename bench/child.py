"""One fresh interpreter of a benchmark run.

    python3 bench/child.py <plan.json> <spawned_at_ns> <result.json>

The plan names the mode (``setup`` or ``pass``), the CLI invocations and
whether to trace. Setup time runs from the parent's spawn timestamp
(CLOCK_MONOTONIC, shared by all processes of the machine) until
``semitrotter.cli`` is imported and ``experiments.load_config`` has
resolved the first invocation's config. A pass then calls
``semitrotter.cli.main`` once per invocation, timing each call, and
reports exit codes and peak resident memory.
"""

import sys
import time


def _blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(plan_path: str, spawned_at_ns: str, result_path: str) -> None:
    import json

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    first = plan["invocations"][0]

    from semitrotter import cli, experiments

    experiments.load_config(first["experiment"], first["config"], state=first["state"])
    setup_s = (time.monotonic_ns() - int(spawned_at_ns)) / 1e9
    result = {"setup_s": setup_s}

    if plan["mode"] == "pass":
        import resource
        import traceback

        clock = time.perf_counter
        tracer = None
        if plan["trace"]:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            clock = tracer.now

        walls, codes = [], []
        for inv in plan["invocations"]:
            start = clock()
            try:
                code = cli.main(inv["argv"])
            except Exception:  # a crash is scored as a failed invocation
                traceback.print_exc()
                code = 1
            walls.append(clock() - start)
            codes.append(code)
        result.update(
            walls=walls,
            exit_codes=codes,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            blas_threads=_blas_threads(),
        )
        if tracer is not None:
            result["spans_file"] = result_path + ".spans.json"
            tracer.dump(result["spans_file"])

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
