#!/usr/bin/env python3
"""Run the full analysis battery over the built-in profile families.

For each family (and a generic control), runs ``hartogs classify`` and
``hartogs curvature`` and prints one dossier line with the classification,
completeness verdict, Einstein flag, and a spot-check of the slice
curvature, and optionally writes everything to JSON.
"""

import argparse
import contextlib
import io
import json
import math
import sys

from hartogs.cli import EXIT_INPUT, main as hartogs

DEMO_PROFILES = [
    ("unit ball", "1 - t", 1.0),
    ("scaled linear", "2.5 - 0.8*t", 2.5 / 0.8),
    ("spring", "1.4*exp(-0.9*t)", math.inf),
    ("inverse power", "(1.2 + 0.7*t)^(-3)", math.inf),
    ("bounded power", "(1.8 - 0.6*t)^2", 3.0),
    ("generic control", "1/(1 + t + t^2)", math.inf),
]


def run_hartogs(*argv):
    """The report of one CLI run; exits with its message on an input error."""
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        if hartogs(list(argv)) == EXIT_INPUT:
            sys.exit(stdout.getvalue() or EXIT_INPUT)
    return json.loads(stdout.getvalue())["report"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="write the dossier as JSON")
    args = parser.parse_args()

    rows = []
    header = f"{'name':16s} {'family':26s} {'complete?':11s} {'einstein':9s} {'max|K+1/2|':12s} value"
    print(header)
    print("-" * len(header))
    for name, src, b in DEMO_PROFILES:
        profile = (f"--F={src}", f"--b={b!r}")
        result = run_hartogs("classify", *profile)
        curvature = run_hartogs("curvature", *profile, "--points=50", f"--seed={args.seed}")
        worst_k = curvature["max_deviation_from_minus_half"]
        value = result["completeness"]["integral_value"]
        if not isinstance(value, str):  # the report spells inf and nan as strings
            value = f"{value:.6f}"
        print(
            f"{name:16s} {result['family']:26s} {result['completeness']['verdict']:11s} "
            f"{str(result['einstein']['is_einstein']):9s} {worst_k:<12.2e} {value}"
        )
        rows.append(
            {
                "name": name,
                "expression": src,
                "b": b if math.isfinite(b) else "inf",
                "family": result["family"],
                "params": result["params"],
                "fit_residual": result["fit_residual"],
                "completeness": result["completeness"]["verdict"],
                "integral_value": value,
                "is_einstein": result["einstein"]["is_einstein"],
                "max_curvature_deviation": worst_k,
                "seed": args.seed,
            }
        )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(rows, handle, indent=2, sort_keys=True)
        print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
