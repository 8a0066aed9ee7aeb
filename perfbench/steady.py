#!/usr/bin/env python3
"""Steadiness report: runs one workload of the benchmark repeatedly, each
time with another seed, and prints each end-to-end metric's median and
quartiles across the runs, with the interquartile spread as a share of the
median next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload query

It runs seeds 1..10 for BENCHMARK.json's run_seconds each. Run it from the
repository root. A spread above a third of its bound is marked '!', above
the bound 'FAIL'.
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    values = {name: [] for name in bounds}
    for seed in SEEDS:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect run: {lines[-1]}", file=sys.stderr)
            sys.exit(1)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={result['metrics'][n]['value']:.6g}" for n in bounds), flush=True)

    print(f"\n{args.workload}: {len(SEEDS)} runs of {seconds}s")
    print(f"{'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    worst = 0.0
    for name, meta in bounds.items():
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        worst = max(worst, spread / meta["bound"])
        flag = ""
        if spread > meta["bound"]:
            flag = "FAIL"
        elif spread > meta["bound"] / 3:
            flag = "!"
        print(f"{name:<22} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{100 * spread:>7.2f}% {100 * meta['bound']:>5.0f}% {flag}")
    print(f"worst spread / bound: {worst:.2f}")
    if worst > 1:
        sys.exit(1)


if __name__ == "__main__":
    main()
