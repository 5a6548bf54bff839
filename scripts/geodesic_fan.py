#!/usr/bin/env python3
"""Integrate a fan of origin geodesics for one profile and dump CSV traces.

Each ray is one ``hartogs geodesic`` run, which screens the trace for
self-intersections and energy drift and writes it as CSV; one summary line
is printed per direction.  Useful for plotting the geodesic picture of a
domain with external tools.
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys

from hartogs.cli import EXIT_INPUT, main as hartogs


def run_hartogs(*argv):
    """The report of one CLI run; exits with its message on an input error."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        if hartogs(list(argv)) == EXIT_INPUT:
            sys.exit(stdout.getvalue() or EXIT_INPUT)
    return json.loads(stdout.getvalue())["report"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--F", required=True, help="profile expression in t")
    parser.add_argument("--b", required=True, help="domain bound (or 'inf')")
    parser.add_argument("--rays", type=int, default=16)
    parser.add_argument("--length", type=float, default=6.0)
    parser.add_argument("--out-dir", default="traces")
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    print(f"{'angle':>8s} {'arc':>8s} {'boundary':>9s} {'drift':>10s} {'screen':>7s}")
    for i in range(args.rays):
        angle = 2.0 * math.pi * i / args.rays
        path = os.path.join(args.out_dir, f"ray_{i:03d}.csv")
        # values go with "=": a direction or an expression may start with "-"
        report = run_hartogs(
            "geodesic", f"--F={args.F}", f"--b={args.b}",
            f"--dir={math.cos(angle)!r},{math.sin(angle)!r}",
            f"--length={args.length!r}", f"--out={path}", "--format=csv",
        )
        print(
            f"{math.degrees(angle):8.2f} {report['arc_length']:8.3f} "
            f"{str(report['boundary_hit']):>9s} {report['max_energy_drift']:10.2e} "
            f"{str(report['self_intersection']['passed']):>7s}"
        )
    print(f"\ntraces written to {args.out_dir}/")


if __name__ == "__main__":
    main()
