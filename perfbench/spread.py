#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload epidemic --seeds 1-10 \
        [--json out.json]

For every metric it prints the median over the runs, the first and third
quartiles (statistics.quantiles(values, n=4)) and their distance as a share
of the median, next to the metric's bound from BENCHMARK.json. Every run
measures the end-to-end metrics (--trace 0) for BENCHMARK.json's
run_seconds. Runs are sequential, from the checkout root that holds this
file. To compare two
commits, run this in a checkout of each with the same arguments, alternating
which goes first, and compare the medians against each side's spread.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results = []
    for seed in parse_seeds(args.seeds):
        result = run_once(args.workload, seed, seconds)
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect result {result}")
        results.append(result)
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(results, handle, indent=1)

    print(f"\n{args.workload}: {len(results)} runs of {seconds} s")
    print(f"{'metric':40} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        mid = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else (mid, mid, mid))
        spread = (q3 - q1) / mid if mid else float("nan")
        bound = bounds.get(name)
        print(f"{name:40} {mid:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{bound if bound is not None else '':>6}")


if __name__ == "__main__":
    main()
