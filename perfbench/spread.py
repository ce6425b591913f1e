#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--seconds S]
                                [--trace 0|1] [--first-seed 1]

Runs the workload once per seed (first-seed, first-seed+1, ...) and
prints, for every metric, the median of the runs and the distance
between the first and third quartile as a share of that median (the
spread the bounds in BENCHMARK.json are checked against), plus the share
of failed workflows, which must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values, shares = {}, set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed} failed:\n{out.stderr[-2000:]}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: outputs incorrect\n{out.stderr[-2000:]}")
        shares.add((result["failed"], result["attempted"],
                    result["failed"] / result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)

    print(f"failed/attempted per run: {sorted(shares)}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        note = "" if bound is None else f"  bound={bound}  spread/bound={spread / bound:.2f}"
        print(f"{name:36s} median={median:12.4f} iqr/median={spread:.4f}{note}")


if __name__ == "__main__":
    main()
