"""The three workloads: their operations, how each is executed and checked.

A workload yields passes, each a fixed list of operations.  ``execute``
runs one operation against the program and returns its raw outputs; it is
the only timed part.  ``check`` compares those outputs with the oracles
afterwards and returns a list of (code, message) errors.  ``known_fault``
says whether an operation's outputs and errors are exactly the documented
symptom of a fault the benchmark keeps counting as failed.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import inputs
import oracles
from tracing import count_evaluator_calls, tree_nodes

# Where the spring u-axis rays of the fan stop (s = 6.0697 for the fan's
# fixed spring profile), and how far from it a stop still counts as that fault.
SPRING_STOP_S = 6.07
SPRING_STOP_TOL = 0.01


def cli_argv(command: str, case, *args: str) -> list[str]:
    """Arguments of a hartogs command on one profile."""
    return [command, "--F", case.source, "--b", "inf" if math.isinf(case.b) else repr(case.b),
            *args]


def profile_nodes(profile) -> int:
    """Node count of the f..f3 trees and the kcond tree of a profile."""
    return sum(tree_nodes(a) for a in profile.asts) + tree_nodes(profile.kcond_ast)


class Dossier:
    """One fresh profile through the whole classification battery."""

    def __init__(self, seed: int, hg):
        self.hg = hg
        self.source = inputs.DossierInputs(seed)

    def passes(self):
        index = 0
        while True:
            yield self.source.next_pass(index)
            index += 1

    def execute(self, case, tracer) -> dict:
        hg = self.hg
        with tracer.span("profile.parse_profile"):
            profile = hg.parse_profile(case.source, case.b, 2)
        tally = [0]
        if tracer.enabled:
            count_evaluator_calls(profile, tally)
        with tracer.span("profile.validate"):
            report = hg.validate(profile)
        with tracer.span("curvature.classify_profile"):
            cls = hg.classify_profile(profile)
        with tracer.span("hyperbolic.completeness"):
            comp = hg.completeness(profile)
        with tracer.span("curvature.einstein_check"):
            einstein = hg.einstein_check(profile)
        samples = []
        for u, v in case.points:
            with tracer.span("curvature.gauss_curvature_slice"):
                k = hg.gauss_curvature_slice(profile, hg.SlicePoint(u, v))
            samples.append((u, v, k))
        if tracer.enabled:
            tracer.count("profile.evaluator_calls", tally[0])
            tracer.count("profile.derivative_nodes", profile_nodes(profile))
        return {
            "valid": report.valid,
            "violations": report.violation_summary(),
            "family": cls.family,
            "params": cls.params,
            "verdict": comp.verdict,
            "integral_value": comp.integral_value,
            "is_einstein": einstein.is_einstein,
            "curvature": samples,
        }

    def check(self, case, out) -> list:
        return oracles.check_dossier(case, out)

    def known_fault(self, case, out, errors) -> bool:
        # f^2 underflows in the symbolic kcond quotient: completeness ends its
        # ladder early and says "unknown"; validate may flag the same points
        # as evaluation failures, and as nothing else.
        if case.family != "fast_decay" or out["verdict"] != "unknown":
            return False
        codes = {code for code, _ in errors}
        if "valid" in codes:
            counts = out["violations"]
            if counts["evaluation"] == 0 or any(
                    counts[kind] for kind in ("positivity", "monotonicity", "pseudoconvexity")):
                return False
        return "completeness" in codes and codes <= {"completeness", "valid"}

    def probe_cases(self):
        return inputs.DossierInputs(self.source.seed).next_pass(0)


class Fan:
    """Origin geodesics of fixed length on profiles parsed at set-up."""

    def __init__(self, seed: int, hg, tracer):
        self.hg = hg
        self.cases = inputs.fan_cases(seed)
        self.profiles = []
        for case in self.cases:
            with tracer.span("profile.parse_profile"):
                profile = hg.parse_profile(case.source, case.b, 2)
            self.profiles.append(profile)
        self.tallies = []
        for profile in self.profiles:
            tally = [0]
            if tracer.enabled:
                tracer.count("profile.derivative_nodes", profile_nodes(profile))
                count_evaluator_calls(profile, tally)
            self.tallies.append(tally)
        self.ops = [(i, d) for i in range(len(self.cases)) for d in inputs.fan_directions()]

    def passes(self):
        while True:
            yield self.ops

    def execute(self, op, tracer) -> dict:
        hg = self.hg
        i, direction = op
        profile = self.profiles[i]
        before = self.tallies[i][0]
        with tracer.span("connection.integrate_geodesic"):
            trace = hg.integrate_geodesic(profile, hg.SlicePoint(0.0, 0.0), direction,
                                          inputs.FAN_LENGTH)
        with tracer.span("connection.self_intersection_check"):
            screen = hg.self_intersection_check(trace)
        if tracer.enabled:
            tracer.count("profile.evaluator_calls", self.tallies[i][0] - before)
            tracer.count("connection.trace_samples", len(trace))
            tracer.count("connection.arc_length", float(trace.s[-1]))
        return {"trace": trace, "passed": screen.passed}

    def check(self, op, out) -> list:
        i, direction = op
        trace = out["trace"]
        return oracles.check_trace(
            self.cases[i], direction, inputs.FAN_LENGTH, trace.s, trace.points[:, 0],
            trace.points[:, 1], trace.energies, out["passed"], trace.boundary_hit)

    def known_fault(self, op, out, errors) -> bool:
        # The boundary guard 1e-8*f(0) is absolute: spring u-axis rays stop
        # with boundary_hit at s ~ 6.07 on a complete domain.
        i, direction = op
        trace = out["trace"]
        return (self.cases[i].family == "spring" and inputs.is_u_axis(direction)
                and {code for code, _ in errors} == {"full_length"} and trace.boundary_hit
                and abs(float(trace.s[-1]) - SPRING_STOP_S) <= SPRING_STOP_TOL)

    def probe_cases(self):
        return self.cases


class Cli:
    """One hartogs process per operation, over a fixed mix of commands."""

    def __init__(self, seed: int, env: dict, out_dir: Path):
        self.mix = inputs.cli_mix(seed)
        self.out_dir = out_dir
        self.csv_path = out_dir / "cli-geodesic.csv"
        self.env = env
        self.largest_rss_mb = 0.0

    def passes(self):
        while True:
            yield self.mix

    def argv(self, cmd) -> list[str]:
        argv = cli_argv(cmd.command, cmd.case, *cmd.args)
        if cmd.csv_out:
            argv += ["--out", str(self.csv_path), "--format", "csv"]
        return argv

    def execute(self, cmd, tracer) -> dict:
        stdout_path = self.out_dir / "cli-stdout.json"
        # a CSV left by an earlier operation must not pass for this one's
        self.csv_path.unlink(missing_ok=True)
        with open(stdout_path, "w") as stdout, tracer.span("cli.process"):
            proc = subprocess.Popen(
                [sys.executable, "-m", "hartogs.cli", *self.argv(cmd)],
                stdout=stdout, stderr=subprocess.DEVNULL, env=self.env)
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.largest_rss_mb = max(self.largest_rss_mb, usage.ru_maxrss / 1024.0)
        text = stdout_path.read_text()
        rows = None
        if cmd.csv_out and self.csv_path.is_file():
            rows = self.csv_path.read_text().splitlines()
        return {"code": proc.returncode, "stdout": text, "csv": rows}

    def check(self, cmd, out) -> list:
        return oracles.check_cli(cmd, out["code"], out["stdout"], out["csv"])

    def known_fault(self, cmd, out, errors) -> bool:
        return False

    def probe_cases(self):
        return list({cmd.case.source: cmd.case for cmd in self.mix}.values())


def command_ms(out) -> float | None:
    """The report's wall_time_s of a CLI operation, in ms."""
    try:
        return 1000.0 * float(json.loads(out["stdout"])["wall_time_s"])
    except (ValueError, KeyError, TypeError):
        return None
