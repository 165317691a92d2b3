#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds 24]
                                [--out runs.json] [workload ...]

Runs each workload (default: all in BENCHMARK.json) once per seed and
prints, per metric, the median of the runs, the first and third quartile
(Python's statistics.quantiles(values, n=4)) and the interquartile
distance as a share of the median, next to the metric's bound, and the
same for the times as measured, before scaling to nominal host speed
(read from the runs' stderr). Every run must report correct outputs; a
failed run stops the script.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# "wall_s as measured: 8 samples, median 3.7, ..." on the run's stderr.
MEASURED = re.compile(r"^(\w+) as measured: \d+ samples, median ([0-9.e+-]+)", re.M)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("%s seed %d: exit %d" % (workload, seed, out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("%s seed %d: %d failed operations" % (workload, seed, result["failed"]))
    values = {name: m["value"] for name, m in result["metrics"].items()}
    for name, value in MEASURED.findall(out.stderr):
        values[name + " as measured"] = float(value)
    return values



def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="also write every run's metrics here as JSON")
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_runs = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds)
                for seed in range(args.first_seed, args.first_seed + args.runs)]
        all_runs[workload] = runs
        if args.out:
            with open(args.out, "w") as f:
                json.dump(all_runs, f, indent=1)
        names = list(bounds) + sorted(set(runs[0]) - set(bounds))
        for name in names:
            bound = bounds.get(name)
            values = [r[name] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print("%-14s %-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%%"
                  "  (bound %s)" % (workload, name, med, q1, q3,
                                     100 * (q3 - q1) / med,
                                     "none" if bound is None else "%g%%" % (100 * bound)),
                  flush=True)


if __name__ == "__main__":
    main()
