#!/usr/bin/env python3
"""Run one workload several times, one seed each, and summarise the spread.

Usage, from the root of a checkout:

    python3 bench/steady.py --workload fan --runs 10 [--first-seed 1] [--trace 0]

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4), the spread (q3 - q1) / median and, for end-to-end metrics, the bound
from BENCHMARK.json.  Each run lasts run_seconds of BENCHMARK.json.  It
also prints each run's failed share and the seconds a run took.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    results, walls = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, *config["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        walls.append(time.perf_counter() - started)
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: {walls[-1]:.1f} s, correct={results[-1]['correct']}, "
              f"failed {results[-1]['failed']}/{results[-1]['attempted']}", flush=True)

    print("failed shares: " + ", ".join(sorted({f"{r['failed']}/{r['attempted']}"
                                                for r in results})))
    print(f"{'metric':42s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        q1, median, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in results], n=4)
        bound = bounds.get(name)
        print(f"{name:42s} {median:12.5g} {q1:12.5g} {q3:12.5g} {(q3 - q1) / median:7.3f} "
              f"{'' if bound is None else bound:>6}")
    print(f"correct: {all(r['correct'] for r in results)}; slowest run {max(walls):.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
