#!/usr/bin/env python3
"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload fig4 --runs 10 [--trace 0]

For every metric: the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread, (Q3 - Q1) / median,
next to the bound BENCHMARK.json gives it. Seeds are 1..runs unless
--first-seed says otherwise. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in
              spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print("seed %d: exit %d correct %s failed %d/%d  %s" % (
            seed, proc.returncode, result["correct"], result["failed"],
            result["attempted"],
            " ".join("%s=%.4g" % (k, m["value"])
                     for k, m in result["metrics"].items()
                     if k in bounds and bounds[k] is not None)),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print("%-28s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-28s %12.6g %12.6g %12.6g %8.4f %6s" % (
            name, med, q1, q3, spread, bounds.get(name)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
