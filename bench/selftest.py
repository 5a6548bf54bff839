#!/usr/bin/env python3
"""Show that each oracle accepts the program's output and rejects it perturbed.

Usage, from the root of a checkout:  python3 bench/selftest.py

For every check of bench/oracles.py it takes a real output of the program,
confirms the oracle accepts it, perturbs one field slightly and confirms
the oracle rejects the result with the expected error code.  It also checks
that only the two kept faults are classed as known.  Exits 1 on the first
oracle that fails to tell the two apart.
"""

import copy
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

FAILURES = []


def expect(label: str, errors: list, code: str | None):
    codes = {c for c, _ in errors}
    ok = (not errors) if code is None else code in codes
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {sorted(codes) or 'accepted'}")
    if not ok:
        FAILURES.append(label)


def perturbed(out: dict, **changes) -> dict:
    new = copy.deepcopy(out)
    new.update(changes)
    return new


def dossier_checks(hg):
    work = workloads.Dossier(7, hg)
    cases = {c.family: c for c in work.source.next_pass(0)}
    tracer = NullTracer()
    outs = {family: work.execute(case, tracer) for family, case in cases.items()}
    for family, case in cases.items():
        errors = work.check(case, outs[family])
        if family == "fast_decay":
            expect("dossier fast_decay is the known fault",
                   [] if work.known_fault(case, outs[family], errors) else [("not_known", "")],
                   None)
        else:
            expect(f"dossier {family} accepted", errors, None)
    lin, ip, bp = cases["linear"], cases["inverse_power"], cases["bounded_power"]
    out = outs["linear"]
    expect("dossier valid", work.check(lin, perturbed(out, valid=False)), "valid")
    expect("dossier family", work.check(lin, perturbed(out, family="spring")), "family")
    params = dict(out["params"], c2=out["params"]["c2"] * (1 + 1e-5))
    expect("dossier linear c2", work.check(lin, perturbed(out, params=params)), "params")
    params = dict(outs["bounded_power"]["params"])
    params["K0"] *= 1 + 1e-5
    expect("dossier K0 = -2/p", work.check(bp, perturbed(outs["bounded_power"], params=params)),
           "params")
    expect("dossier verdict", work.check(lin, perturbed(out, verdict="unknown")), "completeness")
    value = outs["inverse_power"]["integral_value"] * (1 + 1e-5)
    expect("dossier (pi/2) sqrt(p)", work.check(ip, perturbed(outs["inverse_power"],
                                                              integral_value=value)),
           "completeness_value")
    expect("dossier einstein", work.check(lin, perturbed(out, is_einstein=False)), "einstein")
    samples = list(out["curvature"])
    u, v, k = samples[3]
    samples[3] = (u, v, k + 2e-6)
    expect("dossier curvature", work.check(lin, perturbed(out, curvature=samples)), "curvature")
    unknown = perturbed(out, verdict="unknown")
    known = work.known_fault(lin, unknown, work.check(lin, unknown))
    expect("dossier linear 'unknown' is not a known fault", [("known", "")] if known else [], None)
    fast, fast_out = cases["fast_decay"], outs["fast_decay"]
    for label, changes in [
            ("'incomplete'", {"verdict": "incomplete"}),
            ("pseudoconvexity violation", {"valid": False, "violations": dict(
                fast_out["violations"], evaluation=1, pseudoconvexity=1)}),
            ("invalid without evaluation failures", {"valid": False, "violations": dict(
                fast_out["violations"], evaluation=0)})]:
        wrong = perturbed(fast_out, **changes)
        known = work.known_fault(fast, wrong, work.check(fast, wrong))
        expect(f"dossier fast_decay {label} is not a known fault",
               [("known", "")] if known else [], None)


def fan_checks(hg):
    work = workloads.Fan(7, hg, NullTracer())
    by_family = {}
    for op in work.ops:
        by_family.setdefault(work.cases[op[0]].family, []).append(op)
    tracer = NullTracer()
    for family, ops in by_family.items():
        for op in ops[:3]:
            out = work.execute(op, tracer)
            errors = work.check(op, out)
            if family == "spring" and inputs.is_u_axis(op[1]):
                expect("fan spring u-axis is the known fault",
                       [] if work.known_fault(op, out, errors) else [("not_known", "")], None)
                early = work.execute(op, tracer)
                cut = int(np.searchsorted(early["trace"].s, 5.0))
                early["trace"] = dataclasses.replace(
                    early["trace"], s=early["trace"].s[:cut], points=early["trace"].points[:cut],
                    energies=early["trace"].energies[:cut])
                known = work.known_fault(op, early, work.check(op, early))
                expect("fan spring u-axis stop at s = 5 is not the known fault",
                       [("known", "")] if known else [], None)
            else:
                expect(f"fan {family} {op[1][0]:+.2f},{op[1][1]:+.2f} accepted", errors, None)
    op = by_family["bounded_power"][1]
    out = work.execute(op, tracer)
    trace = out["trace"]

    def check_with(points=None, s=None, energies=None, passed=True, hit=False):
        pts = trace.points if points is None else points
        return oracles.check_trace(
            work.cases[op[0]], op[1], inputs.FAN_LENGTH, trace.s if s is None else s,
            pts[:, 0], pts[:, 1], trace.energies if energies is None else energies, passed, hit)

    energies = trace.energies.copy()
    energies[40] += 1e-5
    expect("fan energy drift", check_with(energies=energies), "energy")
    expect("fan screen", check_with(passed=False), "screen")
    expect("fan full length", check_with(hit=True), "full_length")
    points = trace.points.copy()
    points[60] = points[60] @ np.array([[math.cos(1e-6), math.sin(1e-6)],
                                        [-math.sin(1e-6), math.cos(1e-6)]])
    expect("fan chord", check_with(points=points), "chord")
    s = trace.s * (1 + 1e-7)
    expect("fan distance", check_with(s=s), "distance")
    expect("fan opposite ray", check_with(points=-trace.points), "chord")
    spring = next(o for o in by_family["spring"] if not inputs.is_u_axis(o[1]))
    out = work.execute(spring, tracer)
    short = oracles.check_trace(work.cases[spring[0]], spring[1], inputs.FAN_LENGTH,
                                out["trace"].s[:100], out["trace"].points[:100, 0],
                                out["trace"].points[:100, 1], out["trace"].energies[:100],
                                True, True)
    expect("fan short off-axis spring ray is not the known fault",
           [("known", "")] if work.known_fault(spring, out, short) else [], None)


def cli_checks():
    work = workloads.Cli(7, run.child_env(), run.OUT_DIR)
    run.OUT_DIR.mkdir(exist_ok=True)
    tracer = NullTracer()
    for cmd in work.mix:
        out = work.execute(cmd, tracer)
        label = f"cli {cmd.command} {cmd.case.family}{' csv' if cmd.csv_out else ''}"
        expect(f"{label} accepted", work.check(cmd, out), None)
        expect(f"{label} exit code", work.check(cmd, perturbed(out, code=1)), "exit")
        report = json.loads(out["stdout"])
        body = report["report"]
        code = {"validate": "valid", "curvature": "curvature", "geodesic": "full_length",
                "completeness": "completeness", "einstein": "einstein",
                "classify": "family"}[cmd.command]
        if cmd.command == "validate":
            body["valid"] = False
        elif cmd.command == "curvature":
            body["samples"][5]["K"] += 2e-6
        elif cmd.command == "geodesic":
            body["arc_length"] -= 1e-3
        elif cmd.command == "completeness":
            body["verdict"] = "unknown"
        elif cmd.command == "einstein":
            body["is_einstein"] = not body["is_einstein"]
        else:
            body["family"] = "generic"
        expect(f"{label} field", work.check(cmd, perturbed(out, stdout=json.dumps(report))), code)
        if cmd.command == "geodesic" and cmd.csv_out:
            rows = list(out["csv"])
            cells = rows[80].split(",")
            cells[2] = repr(float(cells[2]) * (1 + 1e-6))
            rows[80] = ",".join(cells)
            errors = work.check(cmd, perturbed(out, csv=rows))
            expect(f"{label} trace row", [e for e in errors if e[0] in ("chord", "distance")],
                   "chord" if any(e[0] == "chord" for e in errors) else "distance")
            expect(f"{label} missing CSV", work.check(cmd, perturbed(out, csv=None)), "csv")
        if cmd.command == "geodesic" and cmd.args[cmd.args.index("--dir") + 1] == "1j,0.5":
            report = json.loads(out["stdout"])
            report["report"]["reduction"]["theta"] += 1e-3
            expect(f"{label} rotation", work.check(cmd, perturbed(out, stdout=json.dumps(report))),
                   "reduction")


def main() -> int:
    hg = run.load_program()
    dossier_checks(hg)
    fan_checks(hg)
    cli_checks()
    print(f"{len(FAILURES)} oracle checks failed" if FAILURES else "all oracle checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
