"""Command-line interface: deterministic, seeded JSON/CSV reports.

Exit codes: 0 pass, 1 property breach, 2 input error, 3 inconclusive.
Every JSON report embeds the tool version, the merged configuration, the
seed, and the wall time.  A JSON config file may supply any flag; flags
given on the command line win.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .connection import (
    integrate_geodesic,
    reduce_to_slice,
    self_intersection_check,
)
from .curvature import classify_profile, einstein_check, gauss_curvature_slice
from .expressions import ExpressionSyntaxError
from .hyperbolic import VERDICT_UNKNOWN, completeness
from .metric import SlicePoint
from .profile import Profile, parse_profile, validate

EXIT_OK = 0
EXIT_BREACH = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


@dataclass(frozen=True)
class RunConfig:
    """Merged configuration of one command invocation."""

    command: str
    expression: str
    b: float
    n: int = 2
    seed: int = 0
    tol: float = 1e-6
    out: str | None = None
    format: str = "json"
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


def _parse_bound(text: str) -> float:
    if text.strip().lower() in ("inf", "+inf", "infinity"):
        return math.inf
    return float(text)


def _jsonable(obj):
    """Recursively convert to JSON-serializable values; inf/nan to strings."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    return obj


def _emit_report(config: RunConfig, started: float, **body) -> str:
    """The JSON report; ``body`` is ``report=payload`` or ``error=details``."""
    report = {
        "tool": "hartogs",
        "version": __version__,
        "command": config.command,
        "config": _jsonable(asdict(config)),
        "seed": config.seed,
        "wall_time_s": round(time.perf_counter() - started, 6),
        **_jsonable(body),
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write_output(config: RunConfig, json_text: str, csv_rows=None, csv_header=None):
    sys.stdout.write(json_text)
    if config.out is None:
        return
    if config.format == "json":
        with open(config.out, "w") as handle:
            handle.write(json_text)
    else:
        if csv_rows is None:
            raise ValueError(f"command {config.command!r} has no CSV output")
        with open(config.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(csv_header)
            for row in csv_rows:
                writer.writerow([repr(float(x)) for x in row])


def _sample_interior(profile: Profile, count: int, rng, u_max: float):
    points = []
    while len(points) < count:
        u = rng.uniform(-u_max, u_max)
        v_cap = 0.92 * math.sqrt(profile.f(u * u))
        v = rng.uniform(-v_cap, v_cap)
        points.append(SlicePoint(u, v))
    return points


def _default_u_max(profile: Profile, requested: float | None) -> float:
    if requested is not None:
        return requested
    if math.isfinite(profile.b):
        return 0.95 * math.sqrt(profile.b)
    return 2.0


# ---------------------------------------------------------------------------
# Commands

def _cmd_validate(profile: Profile, config: RunConfig):
    report = validate(
        profile,
        grid_size=int(config.options["grid"]),
        t_max=float(config.options["t_max"]),
        enforce_monotone=not config.options["allow_increasing"],
    )
    payload = {
        "valid": report.valid,
        "grid_size": report.grid_size,
        "t_upper": report.t_upper,
        "positivity_violations": list(report.positivity_violations),
        "monotonicity_violations": list(report.monotonicity_violations),
        "pseudoconvexity_violations": list(report.pseudoconvexity_violations),
        "evaluation_failures": [list(item) for item in report.evaluation_failures],
        "monotonicity_enforced": report.monotonicity_enforced,
    }
    return payload, (EXIT_OK if report.valid else EXIT_BREACH), None, None


def _cmd_curvature(profile: Profile, config: RunConfig):
    rng = np.random.default_rng(config.seed)
    u_max = _default_u_max(profile, config.options.get("u_max"))
    points = _sample_interior(profile, int(config.options["points"]), rng, u_max)
    samples = []
    worst = 0.0
    for sp in points:
        k = gauss_curvature_slice(profile, sp)
        samples.append({"u": sp.u, "v": sp.v, "K": k})
        worst = max(worst, abs(k + 0.5))
    payload = {
        "target": -0.5,
        "max_deviation_from_minus_half": worst,
        "tolerance": config.tol,
        "samples": samples,
        "u_max": u_max,
    }
    rows = [(s["u"], s["v"], s["K"]) for s in samples]
    code = EXIT_OK if worst < config.tol else EXIT_BREACH
    return payload, code, rows, ("u", "v", "K")


def _cmd_geodesic(profile: Profile, config: RunConfig):
    components = [
        complex(part.strip()) for part in str(config.options["direction"]).split(",")
    ]
    reduction_info = None
    if len(components) == 2 and all(w.imag == 0.0 for w in components):
        slice_dir = np.array([w.real for w in components])
    else:
        if len(components) != profile.n:
            raise ValueError(
                f"direction has {len(components)} components, expected 2 real "
                f"or {profile.n} complex"
            )
        slice_dir, reduction = reduce_to_slice(components)
        reduction_info = {
            "theta": reduction.theta,
            "unitary": [
                [{"re": w.real, "im": w.imag} for w in row]
                for row in reduction.unitary.tolist()
            ],
        }
    start_u, start_v = (float(x.strip()) for x in str(config.options["start"]).split(","))
    trace = integrate_geodesic(
        profile,
        SlicePoint(start_u, start_v),
        slice_dir,
        float(config.options["length"]),
    )
    screen = self_intersection_check(trace, guard=float(config.options["guard"]))
    drift = float(np.max(np.abs(trace.energies - trace.energy)) / trace.energy)
    payload = {
        "samples": len(trace),
        "arc_length": float(trace.s[-1]),
        "boundary_hit": trace.boundary_hit,
        "energy": trace.energy,
        "max_energy_drift": drift,
        "self_intersection": {
            "passed": screen.passed,
            "min_distance": screen.min_distance,
            "threshold_at_min": screen.threshold_at_min,
        },
        "reduction": reduction_info,
        "start": {"u": start_u, "v": start_v},
    }
    rows = [
        (trace.s[i], trace.points[i, 0], trace.points[i, 1],
         trace.tangents[i, 0], trace.tangents[i, 1], trace.energies[i])
        for i in range(len(trace))
    ]
    code = EXIT_OK if screen.passed else EXIT_BREACH
    return payload, code, rows, ("s", "u", "v", "du", "dv", "energy")


def _cmd_completeness(profile: Profile, config: RunConfig):
    report = completeness(profile)
    payload = {
        "verdict": report.verdict,
        "integral_value": report.integral_value,
        "diagnostics": report.diagnostics,
    }
    code = EXIT_INCONCLUSIVE if report.verdict == VERDICT_UNKNOWN else EXIT_OK
    return payload, code, None, None


def _cmd_einstein(profile: Profile, config: RunConfig):
    report = einstein_check(profile, grid=int(config.options["grid"]))
    payload = {
        "is_einstein": report.is_einstein,
        "max_relative_variation": report.max_relative_variation,
        "mean_value": report.mean_value,
    }
    return payload, EXIT_OK, None, None


def _cmd_classify(profile: Profile, config: RunConfig):
    result = classify_profile(profile, grid=int(config.options["grid"]))
    comp = completeness(profile)
    einstein = einstein_check(profile, grid=int(config.options["grid"]))
    payload = {
        "family": result.family,
        "params": result.params,
        "fit_residual": result.fit_residual,
        "base_curvature": result.base_curvature,
        "completeness": {
            "verdict": comp.verdict,
            "integral_value": comp.integral_value,
        },
        "einstein": {
            "is_einstein": einstein.is_einstein,
            "max_relative_variation": einstein.max_relative_variation,
        },
    }
    code = EXIT_INCONCLUSIVE if comp.verdict == VERDICT_UNKNOWN else EXIT_OK
    return payload, code, None, None


_COMMANDS = {
    "validate": _cmd_validate,
    "curvature": _cmd_curvature,
    "geodesic": _cmd_geodesic,
    "completeness": _cmd_completeness,
    "einstein": _cmd_einstein,
    "classify": _cmd_classify,
}

_COMMAND_DEFAULTS = {
    "validate": {"grid": 1024, "t_max": 50.0, "allow_increasing": False},
    "curvature": {"points": 100, "u_max": None},
    "geodesic": {"direction": "1,0", "length": 10.0, "start": "0,0", "guard": 0.5},
    "completeness": {},
    "einstein": {"grid": 64},
    "classify": {"grid": 64},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hartogs",
        description="Numerical Riemannian geometry of Hartogs domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--F", dest="expression", help="profile expression in t")
        cmd.add_argument("--b", dest="b", help="domain bound (positive real or 'inf')")
        cmd.add_argument("--n", dest="n", type=int, help="complex dimension (default 2)")
        cmd.add_argument("--seed", type=int, help="RNG seed (default 0)")
        cmd.add_argument("--tol", type=float, help="pass/fail tolerance")
        cmd.add_argument("--out", help="output file path")
        cmd.add_argument("--format", choices=("json", "csv"), help="output file format")
        cmd.add_argument("--config", help="JSON config file; flags win on conflict")
        if name == "validate":
            cmd.add_argument("--grid", type=int, help="validation grid size")
            cmd.add_argument("--t-max", dest="t_max", type=float,
                             help="sampling cap when b is infinite")
            cmd.add_argument("--allow-increasing", dest="allow_increasing",
                             action="store_const", const=True,
                             help="do not require f' <= 0")
        elif name == "curvature":
            cmd.add_argument("--points", type=int, help="number of sample points")
            cmd.add_argument("--u-max", dest="u_max", type=float,
                             help="sampling window for u")
        elif name == "geodesic":
            cmd.add_argument("--dir", dest="direction",
                             help="initial direction: 'du,dv' or n complex components")
            cmd.add_argument("--length", type=float, help="arc length to integrate")
            cmd.add_argument("--start", help="starting point 'u,v' (default origin)")
            cmd.add_argument("--guard", type=float,
                             help="self-intersection guard factor")
        elif name in ("einstein", "classify"):
            cmd.add_argument("--grid", type=int, help="evaluation grid size")
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    merged: dict = {"n": 2, "seed": 0, "tol": 1e-6, "format": "json", "out": None}
    merged.update(_COMMAND_DEFAULTS[command])
    aliases = {"F": "expression", "dir": "direction"}
    if getattr(args, "config", None):
        with open(args.config) as handle:
            file_config = json.load(handle)
        if not isinstance(file_config, dict):
            raise ValueError("config file must contain a JSON object")
        for key, value in file_config.items():
            key = key.replace("-", "_")
            merged[aliases.get(key, key)] = value
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    if "expression" not in merged or merged["expression"] is None:
        raise ValueError("profile expression is required (--F or config file)")
    if "b" not in merged or merged["b"] is None:
        raise ValueError("domain bound is required (--b or config file)")
    common = {
        "expression": str(merged.pop("expression")),
        "b": _parse_bound(str(merged.pop("b"))),
        "n": int(merged.pop("n")),
        "seed": int(merged.pop("seed")),
        "tol": float(merged.pop("tol")),
        "out": merged.pop("out"),
        "format": str(merged.pop("format")),
    }
    return RunConfig(command=command, options=merged, **common)


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    try:
        profile = parse_profile(config.expression, config.b, config.n)
    except ExpressionSyntaxError as exc:
        error = {"message": str(exc), "position": exc.position}
        sys.stdout.write(_emit_report(config, started, error=error))
        return EXIT_INPUT
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    try:
        payload, code, csv_rows, csv_header = _COMMANDS[config.command](profile, config)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    try:
        _write_output(config, _emit_report(config, started, report=payload), csv_rows, csv_header)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
