"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads decide draw --seeds 1 2 3 4 5
    python3 perfbench/spread.py --trace 1 --seeds 1 2

For each workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json.  With ``--trace 1`` it runs the traced run twice per
seed instead, prints the per-layer metrics and exits non-zero if a count
(unit ``count`` or ``bits``) differs between the two.  Runs go one after
another, never in parallel.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", default=None,
                    help="append every run's result line to this file")
    args = ap.parse_args()

    def run(workload, seed):
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=180, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if args.log:
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     "result": result}) + "\n")
        if not result["correct"] or result["failed"]:
            print(f"{workload} seed {seed}: incorrect run", flush=True)
        return result

    if args.trace:
        return compare_counts(run, args.workloads, args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values: dict = {}
        for seed in args.seeds:
            for name, m in run(workload, seed)["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            worst = max(worst, share / bounds[name])
            print(f"{workload:8s} {name:16s} median {med:10.4f} "
                  f"spread {share:6.3f} bound {bounds[name]:.2f}", flush=True)
    print(f"largest spread / bound: {worst:.2f}")
    return 0


def compare_counts(run, workloads, seeds) -> int:
    """Run each traced run twice; the counts must repeat exactly."""
    differ = 0
    for workload in workloads:
        for seed in seeds:
            first, second = run(workload, seed), run(workload, seed)
            for name, m in first["metrics"].items():
                again = second["metrics"][name]["value"]
                exact = m["unit"] in ("count", "bits")
                if exact and again != m["value"]:
                    differ += 1
                print(f"{workload:8s} seed {seed:<3d} {name:40s} "
                      f"{m['value']:12.6g} {again:12.6g}"
                      f"{'  DIFFERS' if exact and again != m['value'] else ''}",
                      flush=True)
    print(f"counts that differ between the two runs: {differ}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
