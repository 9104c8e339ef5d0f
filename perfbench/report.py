#!/usr/bin/env python3
"""Run the benchmark on every workload and print each metric by name.

    python3 perfbench/report.py                    # one run per workload
    python3 perfbench/report.py --runs 10          # ten seeds, with spreads
    python3 perfbench/report.py --trace 1 --workloads fig2_surface

Each run is a separate ``run.py`` process.  For every workload and metric
the table gives the median over runs, the spread (interquartile range as a
share of the median, from statistics.quantiles(n=4)) and, for end-to-end
metrics, the bound from BENCHMARK.json.  error_rate is failed operations
over attempted ones, checked against the independent reference.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    ok = True
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            results.append(json.loads(lines[-1]))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        print(f"== {workload}: {args.runs} run(s) of {seconds} s, correct "
              f"{correct}, error_rate {failed / attempted:.6g} "
              f"({failed} of {attempted} operations failed)")
        print(f"   {'metric':52s} {'median':>14s} {'unit':14s} {'spread':>7s} "
              f"{'bound':>6s}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            bound = f"{bounds[name]:.2f}" if name in bounds else ""
            print(f"   {name:52s} {statistics.median(values):14.6g} "
                  f"{first['unit']:14s} {spread(values):7.3f} {bound:>6s}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
