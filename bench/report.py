"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/report.py --seeds 1-10 [--trace] [--out FILE]
                            [--compare EARLIER.json]

Run from the root of a source checkout. For each workload it runs
``bench/run.py`` once per seed, then prints each end-to-end metric with
its unit, median, quartiles, interquartile spread as a share of the
median, the metric's bound and the sample count, plus
``wrong_value_share`` (failed / attempted CSV values). ``--trace`` adds
one traced run per workload, on the first seed. ``--out`` writes the
summary as JSON. ``--compare`` also prints how far each median moved from
an earlier summary, flagging a metric that got worse by more than its
bound. The exit code is 1 when a spread or a move exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from run import BENCH_DIR, quartiles


def seeds_from(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", default=None, help="an earlier --out file")
    args = parser.parse_args(argv)
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seeds = seeds_from(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, context = [], None
        started = time.monotonic()
        for seed in seeds:
            result, lines = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(result)
            context = next((json.loads(l[8:]) for l in lines if l.startswith("context ")), context)
        entry = {
            "context": context,
            "run_s": (time.monotonic() - started) / len(seeds),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        entry["wrong_value_share"] = entry["failed"] / entry["attempted"]
        print(f"{workload}: {len(runs)} runs of {entry['run_s']:.1f} s, correct={entry['correct']}")
        for m in spec["end_to_end"]:
            s = summary([r["metrics"][m["name"]]["value"] for r in runs])
            s.update(unit=m["unit"], bound=m["bound"])
            entry["metrics"][m["name"]] = s
            within = s["spread"] <= m["bound"]
            ok = ok and within
            print(
                f"  {m['name']}: median {s['median']:.6g} {m['unit']} "
                f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.2%}, bound "
                f"{m['bound']:.0%}, n={s['n']} runs){'' if within else '  SPREAD ABOVE BOUND'}"
            )
            before = earlier.get(workload, {}).get("metrics", {}).get(m["name"])
            if before:
                s["moved"] = s["median"] / before["median"] - 1.0
                steady = s["moved"] <= m["bound"]
                ok = ok and steady
                print(f"    median moved {s['moved']:+.2%} from the earlier summary{'' if steady else '  WORSE THAN BOUND'}")
        print(
            f"  wrong_value_share: {entry['wrong_value_share']:.6g} share "
            f"({entry['failed']} of {entry['attempted']} values, n={len(runs)} runs)"
        )
        if args.trace:
            traced, lines = run_once(workload, seeds[0], spec["run_seconds"], 1)
            entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
            top = sorted(
                ((v, k) for k, v in entry["traced"].items() if k.endswith(".self_s") and k.count(".") == 2),
                reverse=True,
            )[:6]
            print("  traced: " + ", ".join(f"{k} {v:.3g} s" for v, k in top))
            print(f"  trace.overhead_share: {entry['traced']['trace.overhead_share']:.4g}")
        report["workloads"][workload] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
