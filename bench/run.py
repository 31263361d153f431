"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload evolve --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. A run spawns fresh interpreters: several that only set up
(import ``semitrotter.cli`` and resolve the config) and a fixed number of
passes, each one interpreter calling ``semitrotter.cli.main`` for every
invocation of the workload. The pass count is ``--seconds`` divided by
the workload's nominal pass time, so a run does the same work on every
commit. Every CSV value is scored against the dense oracle, and each
pass's CSV must be byte-identical to the first run of the same code.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` half as many passes each run once
untraced and once traced, and the last line reports the per-layer
metrics. Sweeps use the defaults
users get: one sweep worker, BLAS at its own default thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import score  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# nominal seconds per pass at the commit that defined the benchmark (2 cores,
# OpenBLAS at 2 threads); fixes how many passes --seconds buys
NOMINAL_PASS_S = {"evolve": 22.0, "commutators": 11.0}
SETUP_SPAWNS = 24
# children must finish within this many seconds of the run's start, leaving
# time for the oracle, which takes about 25 s on its first run per checkout
CHILDREN_BUDGET_S = 140
# variables that would move the sweeps off the defaults users get
UNSET_ENV = ("SEMITROTTER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def source_hash(root: str) -> str:
    """Identity of the code under test and of the reference logic."""
    import numpy

    digest = hashlib.sha256(numpy.__version__.encode())
    package = os.path.join(root, "src", "semitrotter")
    files = sorted(
        os.path.join(d, f) for d, _, names in os.walk(package) for f in names if f.endswith(".py")
    )
    files += [os.path.join(BENCH_DIR, f) for f in ("oracle.py", "workloads.py")]
    for path in files:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()[:16]


def _read(path: str) -> bytes | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return fh.read()


def _write_atomic(path: str, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path))
    with os.fdopen(fd, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def load_references(invs, cache_dir: str, key: str) -> list[dict]:
    """Oracle rows per invocation, cached per code identity (they cost minutes)."""
    import oracle

    path = os.path.join(cache_dir, f"oracle-{key}.json")
    cached = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            cached = json.load(fh)
    refs, dirty = [], False
    for inv in invs:
        name = repr(inv)
        if name not in cached:
            cached[name] = [[list(k), e.value, e.exact] for k, e in oracle.reference(inv).items()]
            dirty = True
        refs.append({tuple(k): oracle.Expected(v, exact) for k, v, exact in cached[name]})
    if dirty:
        _write_atomic(path, json.dumps(cached).encode())
    return refs


def machine_context() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "env": {name: os.environ.get(name) for name in UNSET_ENV},
    }


class Runner:
    """Spawns the child interpreters of one run, all before one deadline."""

    def __init__(self, root: str, work: str, invs, configs):
        self.root = root
        self.work = work
        self.invs = invs
        self.configs = configs
        self.env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.deadline = time.monotonic() + CHILDREN_BUDGET_S
        self.count = 0

    def spawn(self, mode: str, traced: bool = False, out: str | None = None) -> dict | None:
        """Run one child to completion; None if it failed or ran out of time."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        self.count += 1
        base = os.path.join(self.work, f"child-{self.count}")
        plan = {
            "mode": mode,
            "trace": traced,
            "invocations": [
                {
                    "experiment": inv.experiment,
                    "config": path,
                    "state": inv.state,
                    "argv": out and inv.argv(path, os.path.join(out, str(j))),
                }
                for j, (inv, path) in enumerate(zip(self.invs, self.configs))
            ],
        }
        with open(base + ".plan.json", "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        result_path = base + ".result.json"
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), base + ".plan.json"]
        spawned_at = time.monotonic_ns()
        try:
            proc = subprocess.run(
                cmd + [str(spawned_at), result_path],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.DEVNULL,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            print(f"bench: child {self.count} ran past the run's deadline", file=sys.stderr)
            return None
        if proc.returncode != 0 or not os.path.exists(result_path):
            return None
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def run_pass(self, traced: bool) -> tuple[dict | None, list[bytes | None]]:
        """One pass: the child's result and the CSV each invocation wrote."""
        out = os.path.join(self.work, f"pass-{self.count + 1}")
        result = self.spawn("pass", traced, out)
        csvs = [_read(os.path.join(out, str(j), inv.tag + ".csv")) for j, inv in enumerate(self.invs)]
        shutil.rmtree(out, ignore_errors=True)
        return result, csvs


def reference_csvs(passes, cache_dir: str, tag: str, n_invs: int) -> list[bytes | None]:
    """The first CSV the same code wrote for each invocation, kept across runs."""
    refs = []
    _, first, first_csvs = passes[0]
    for j in range(n_invs):
        path = os.path.join(cache_dir, f"csv-{tag}-{j}.csv")
        written = first is not None and first["exit_codes"][j] == 0 and first_csvs[j] is not None
        if written and not os.path.exists(path):
            _write_atomic(path, first_csvs[j])
        refs.append(_read(path))
    return refs


def score_passes(passes, invs, refs, ref_bytes) -> tuple[int, int, list[str]]:
    """Attempted and failed CSV values over all passes, and the structural faults."""
    attempted = failed = 0
    broken = []
    for n, (_, result, csvs) in enumerate(passes):
        for j, inv in enumerate(invs):
            code = 1 if result is None else result["exit_codes"][j]
            s = score.score_csv(csvs[j], code, refs[j], ref_bytes[j])
            attempted += s.attempted
            failed += s.failed
            if s.broken:
                broken.append(f"pass {n} {inv.experiment}: {s.reason or 'missing or non-finite rows'}")
            if n == 0:
                for key, got, want in s.wrong:
                    print(f"wrong value: {inv.experiment} {key} got {got!r} want {want!r}")
    return attempted, failed, broken


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "semitrotter", "cli.py")):
        return _fail("no src/semitrotter here; run from the root of a source checkout")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))

    state_dir = os.path.join(root, ".bench_run")
    cache_dir = os.path.join(state_dir, "cache")
    os.makedirs(cache_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state_dir)
    try:
        invs = workloads.invocations(args.workload, args.seed)
        runner = Runner(root, work, invs, workloads.write_configs(invs, work))
        n_passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
        modes = [False]
        if args.trace:  # pairs of an untraced and a traced pass, in about the same time
            n_passes, modes = max(1, round(n_passes / 2)), [False, True]
        # set-up interpreters run in n_passes + 1 groups around the passes, so
        # setup_s samples the machine over the whole run, not only its start
        n_setup = 0 if args.trace else SETUP_SPAWNS
        groups = [n_setup * (i + 1) // (n_passes + 1) - n_setup * i // (n_passes + 1) for i in range(n_passes + 1)]
        setup = []
        passes = []  # (traced, child result or None, CSV bytes or None per invocation)
        for i, group in enumerate(groups):
            for _ in range(group):
                result = runner.spawn("setup")
                if result is None:
                    return _fail("a set-up interpreter failed; see stderr above")
                setup.append(result["setup_s"])
            if i == n_passes:
                break
            for traced in modes if i % 2 == 0 else modes[::-1]:
                passes.append((traced, *runner.run_pass(traced)))

        key = source_hash(root)
        refs = load_references(invs, cache_dir, key)
        ref_bytes = reference_csvs(passes, cache_dir, f"{key}-{args.workload}-{args.seed}", len(invs))
        attempted, failed, broken = score_passes(passes, invs, refs, ref_bytes)
        for line in broken:
            print(f"broken: {line}", file=sys.stderr)

        done = [(t, r) for t, r, _ in passes if r is not None]
        untraced = [r for t, r in done if not t]
        traced = [r for t, r in done if t]
        context = machine_context()
        context["blas_threads"] = next((r["blas_threads"] for r in untraced), None)
        context["passes"] = n_passes
        print("context " + json.dumps(context, sort_keys=True))
        print(f"wrong_value_share: {failed / attempted!r} share ({failed} of {attempted} values)")
        if not untraced or (args.trace and not traced):
            return _fail("no pass completed")

        walls = [sum(r["walls"]) for r in untraced]
        if args.trace:
            names = spec["per_layer"]
            layer = trace_metrics(traced, walls)
            values = {m["name"]: layer.get(m["name"], 0) for m in names}
        else:
            names = spec["end_to_end"]
            samples = {
                "wall_s": walls,
                "setup_s": setup + [r["setup_s"] for _, r in done],
                "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            }
            values = {}
            for m in names:
                q1, median, q3 = quartiles(samples[m["name"]])
                values[m["name"]] = median
                n = len(samples[m["name"]])
                print(f"{m['name']}: median {median!r} {m['unit']} (q1 {q1:.6g}, q3 {q3:.6g}, n={n})")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
        print(json.dumps({"correct": not broken, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def trace_metrics(traced: list[dict], untraced_walls: list[float]) -> dict:
    """Per-layer metrics: medians over traced passes, plus tracing overhead."""
    per_pass = []
    for r in traced:
        with open(r["spans_file"], encoding="utf-8") as fh:
            layer = tracing.aggregate(json.load(fh))
        layer["trace.wall_s"] = sum(r["walls"])
        layer["trace.residual_s"] = layer["trace.wall_s"] - layer["trace.self_sum_s"]
        per_pass.append(layer)
    out = tracing.combine(per_pass)
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_share"] = out["trace.wall_s"] / out["trace.untraced_wall_s"] - 1.0
    for name, value in sorted(out.items()):
        print(f"{name}: {value!r}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
