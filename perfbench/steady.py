#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--seed0 1]
                                [--seconds <s>] [--trace 0]

Runs perfbench/run.py --runs times on one workload, each with its own seed
(seed0, seed0+1, ...), and prints for every metric the median, the first and
third quartiles (statistics.quantiles(values, n=4)) and the spread, the
quartile distance as a share of the median. An end-to-end metric other than
setup_s is flagged when its spread exceeds a tenth, or a third of its bound
in BENCHMARK.json. Run it from the root of a checkout; exits non-zero when a
run fails or reports an incorrect result.
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
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    for k in range(args.runs):
        seed = args.seed0 + k
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        last = r.stdout.rstrip("\n").split("\n")[-1]
        try:
            res = json.loads(last)
        except json.JSONDecodeError:
            print(f"run {k} (seed {seed}) produced no result; exit {r.returncode}")
            return 1
        if r.returncode != 0 or not res["correct"] or res["failed"] != 0:
            print(f"run {k} (seed {seed}) failed: exit {r.returncode}, "
                  f"{res['failed']}/{res['attempted']} transfers failed")
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"run {k} seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in res["metrics"].items()
            if n in bounds), flush=True)

    flagged = []
    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':34s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s}")
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        flag = ""
        if name in bounds and name != "setup_s":
            if spread > 0.1 or spread > bounds[name] / 3:
                flag = "  <-- unsteady"
                flagged.append(name)
        print(f"{name:34s} {units[name]:6s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f}{flag}")
    if flagged:
        print(f"\nunsteady end-to-end metrics: {', '.join(flagged)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
