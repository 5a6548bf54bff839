"""Command-line interface: deterministic, seeded JSON/CSV reports.

Exit codes: 0 pass, 1 property breach, 2 input error, 3 inconclusive.
Every flag is declared once, in ``_SHARED`` or with its command in
``_COMMANDS``.  A JSON config file may supply any flag of its command,
under its name or its flag spelling, checked as the flag is; flags given
on the command line win.  Every JSON report embeds the tool version, the
merged configuration, the seed, and the wall time.  An input error, an
--out file that cannot be written included, prints no report, only a
message on stderr (an expression that does not parse gets an error
report).  Every command but ``validate`` first validates the profile with
its defaults; a profile that fails exits 1 with the violation summary as
its report, and writes no --out file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .connection import integrate_geodesic, reduce_to_slice, self_intersection_check
from .curvature import REPORT_GRID, classify_profile, einstein_check, gauss_curvature_slice
from .expressions import ExpressionSyntaxError
from .hyperbolic import VERDICT_UNKNOWN, completeness
from .metric import SlicePoint
from .profile import DEFAULT_GRID_SIZE, DEFAULT_T_MAX, Profile, parse_profile, validate

EXIT_OK = 0
EXIT_BREACH = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3


def _cast(kind, value, name: str):
    """value as kind; null, or a value of the wrong shape, is an input error.

    A str takes only a string, a bool only true or false; an int or a float
    takes a number or a string that parses as one, but not a bool, and an
    int takes no number with a fraction."""
    if kind in (str, bool):
        ok = isinstance(value, kind)
    else:
        ok = value is not None and not isinstance(value, bool)
        if kind is int and isinstance(value, float):
            ok = value.is_integer()
    if ok:
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")


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


def _emit_report(config: dict, started: float, **body) -> str:
    """The JSON report; ``body`` is ``report=payload`` or ``error=details``."""
    report = {
        "tool": "hartogs",
        "version": __version__,
        "command": config["command"],
        "config": _jsonable(config),
        "seed": config["seed"],
        "wall_time_s": round(time.perf_counter() - started, 6),
        **_jsonable(body),
    }
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _write_output(config: dict, json_text: str, rows):
    """Write the report, or its CSV ``rows``, to --out; then print the report."""
    if config["out"] is not None:
        with open(config["out"], "w", newline="") as handle:
            if config["format"] == "json":
                handle.write(json_text)
            else:
                writer = csv.writer(handle)
                writer.writerow(_CSV_HEADERS[config["command"]])
                writer.writerows([repr(float(x)) for x in row] for row in rows)
    sys.stdout.write(json_text)


# ---------------------------------------------------------------------------
# Commands: each takes the profile, the config and the command's options,
# and returns (payload, exit code, CSV rows or None)

def _cmd_validate(profile: Profile, config: dict, grid, t_max, allow_increasing):
    report = validate(profile, grid_size=grid, t_max=t_max,
                      enforce_monotone=not allow_increasing)
    return asdict(report), (EXIT_OK if report.valid else EXIT_BREACH), None


def _cmd_curvature(profile: Profile, config: dict, points, u_max):
    if points < 1:
        raise ValueError("points must be at least 1")
    if u_max is None:
        u_max = 0.95 * math.sqrt(profile.b) if math.isfinite(profile.b) else 2.0
    # the window may reach the rim, sqrt(b), but neither pass it nor be infinite
    if not 0.0 <= u_max < math.inf or u_max * u_max > profile.b:  # nan too
        raise ValueError(f"u_max must satisfy 0 <= u_max < inf and u_max^2 <= b, "
                         f"got u_max={u_max} with b={profile.b}")
    rng = np.random.default_rng(config["seed"])
    samples = []
    for _ in range(points):
        u = rng.uniform(-u_max, u_max)
        v_cap = 0.92 * math.sqrt(profile.f(u * u))
        samples.append(SlicePoint(u, rng.uniform(-v_cap, v_cap)))
    rows = [(sp.u, sp.v, gauss_curvature_slice(profile, sp)) for sp in samples]
    worst = float(np.max([abs(k + 0.5) for _, _, k in rows]))  # nan if any K is
    payload = {
        "target": -0.5,
        "max_deviation_from_minus_half": worst,
        "tolerance": config["tol"],
        "samples": [{"u": u, "v": v, "K": k} for u, v, k in rows],
        "u_max": u_max,
    }
    if math.isnan(worst):
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK if worst < config["tol"] else EXIT_BREACH
    return payload, code, rows


def _cmd_geodesic(profile: Profile, config: dict, direction, length, start, guard):
    components = [complex(part.strip()) for part in direction.split(",")]
    reduction = None
    if len(components) == 2 and all(w.imag == 0.0 for w in components):
        slice_dir = [w.real for w in components]
    else:
        if len(components) != profile.n:
            raise ValueError(
                f"direction has {len(components)} components, expected 2 real "
                f"or {profile.n} complex"
            )
        slice_dir, reduction = reduce_to_slice(components)
    start_u, start_v = (float(x.strip()) for x in start.split(","))
    trace = integrate_geodesic(profile, SlicePoint(start_u, start_v), slice_dir, length)
    # screened in the chord's chart, which float64 does not collapse near the rim
    chart = replace(trace, points=trace.chart)
    screen = self_intersection_check(chart, guard=guard)
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
        "reduction": None if reduction is None else asdict(reduction),
        "start": {"u": start_u, "v": start_v},
    }
    rows = np.column_stack((trace.s, trace.points, trace.tangents, trace.energies))
    code = EXIT_OK if screen.passed else EXIT_BREACH
    return payload, code, rows


def _cmd_completeness(profile: Profile, config: dict):
    report = completeness(profile)
    code = EXIT_INCONCLUSIVE if report.verdict == VERDICT_UNKNOWN else EXIT_OK
    return asdict(report), code, None


def _cmd_einstein(profile: Profile, config: dict, grid):
    return asdict(einstein_check(profile, grid=grid)), EXIT_OK, None


def _cmd_classify(profile: Profile, config: dict, grid):
    result = classify_profile(profile, grid=grid)
    comp = completeness(profile)
    einstein = einstein_check(profile, grid=grid)
    payload = asdict(result) | {
        "completeness": {"verdict": comp.verdict, "integral_value": comp.integral_value},
        "einstein": {
            "is_einstein": einstein.is_einstein,
            "max_relative_variation": einstein.max_relative_variation,
        },
    }
    code = EXIT_INCONCLUSIVE if comp.verdict == VERDICT_UNKNOWN else EXIT_OK
    return payload, code, None


# Every flag, name -> (flag, type, default, help): the shared ones here,
# each command's own with its runner in _COMMANDS.  A bool option is a bare
# flag that sets True.  Every value given reaches the runner cast through
# its type; null is only the value of a flag whose default is null, and
# the expression and the bound, whose default is null, must be given.
_SHARED = {
    "expression": ("--F", str, None, "profile expression in t"),
    "b": ("--b", float, None, "domain bound (positive real or 'inf')"),
    "n": ("--n", int, 2, "complex dimension"),
    "seed": ("--seed", int, 0, "RNG seed"),
    "tol": ("--tol", float, 1e-6, "pass/fail tolerance (positive)"),
    "out": ("--out", str, None, "output file path"),
    "format": ("--format", str, "json", "output file format: json, or csv"),
}
_GRID = ("--grid", int, REPORT_GRID, "evaluation grid size")
_COMMANDS = {
    "validate": (_cmd_validate, {
        "grid": ("--grid", int, DEFAULT_GRID_SIZE, "validation grid size"),
        "t_max": ("--t-max", float, DEFAULT_T_MAX, "sampling cap when b is infinite"),
        "allow_increasing": ("--allow-increasing", bool, False, "do not require f' <= 0"),
    }),
    "curvature": (_cmd_curvature, {
        "points": ("--points", int, 100, "number of sample points"),
        "u_max": ("--u-max", float, None, "sampling window for u"),
    }),
    "geodesic": (_cmd_geodesic, {
        "direction": ("--dir", str, "1,0",
                      "initial direction: 'du,dv' or n complex components"),
        "length": ("--length", float, 10.0, "arc length to follow (positive, finite)"),
        "start": ("--start", str, "0,0", "starting point 'u,v' (default origin)"),
        "guard": ("--guard", float, 0.5, "self-intersection guard factor"),
    }),
    "completeness": (_cmd_completeness, {}),
    "einstein": (_cmd_einstein, {"grid": _GRID}),
    "classify": (_cmd_classify, {"grid": _GRID}),
}
# The commands that write --format csv, and its columns; for any other,
# --format csv with --out is an input error.
_CSV_HEADERS = {
    "curvature": ("u", "v", "K"),
    "geodesic": ("s", "u", "v", "du", "dv", "energy"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hartogs",
        description="Numerical Riemannian geometry of Hartogs domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file; flags win on conflict")
        for dest, (flag, kind, default, text) in (_SHARED | options).items():
            if kind is bool:
                cmd.add_argument(flag, dest=dest, action="store_const", const=True, help=text)
            else:
                text = text if default is None else f"{text} (default {default})"
                cmd.add_argument(flag, dest=dest, type=kind, help=text)
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    """The report's config: the command, the shared flags and the command's
    options, each from the command line, else the config file, else its
    default, cast through its type and checked before any work."""
    command = args.command
    flags = _SHARED | _COMMANDS[command][1]
    merged = {name: default for name, (_, _, default, _) in flags.items()}
    # a config file may use names or flag spellings, as in {"F": ..., "t-max": ..., "dir": ...}
    names = {key: name for name, (flag, *_) in flags.items()
             for key in (name, flag[2:].replace("-", "_"))}
    if args.config:
        with open(args.config) as handle:
            file_config = json.load(handle)
        if not isinstance(file_config, dict):
            raise ValueError("config file must contain a JSON object")
        for key, value in file_config.items():
            if (name := names.get(key.replace("-", "_"))) is None:
                raise ValueError(f"config key {key!r} is not an option of {command}")
            merged[name] = value
    for name, (_, kind, default, _) in flags.items():
        if (value := getattr(args, name)) is not None:
            merged[name] = value
        if default is not None or merged[name] is not None:
            merged[name] = _cast(kind, merged[name], name)
    if merged["expression"] is None:
        raise ValueError("profile expression is required (--F or config file)")
    if merged["b"] is None:
        raise ValueError("domain bound is required (--b or config file)")
    if not merged["tol"] > 0:  # nan too
        raise ValueError("tolerance must be positive")
    if merged["format"] not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {merged['format']!r}")
    if merged["format"] == "csv" and merged["out"] is not None and command not in _CSV_HEADERS:
        raise ValueError(f"command {command!r} has no CSV output")
    shared = {name: merged.pop(name) for name in _SHARED}
    return {"command": command, **shared, "options": merged}


def main(argv=None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        profile = parse_profile(config["expression"], config["b"], config["n"])
        if config["command"] != "validate" and not (gate := validate(profile)).valid:
            breach = {"valid": False, "violations": gate.violation_summary()}
            sys.stdout.write(_emit_report(config, started, report=breach))
            return EXIT_BREACH
        runner = _COMMANDS[config["command"]][0]
        payload, code, rows = runner(profile, config, **config["options"])
        _write_output(config, _emit_report(config, started, report=payload), rows)
    except ExpressionSyntaxError as exc:
        error = {"message": str(exc), "position": exc.position}
        sys.stdout.write(_emit_report(config, started, error=error))
        return EXIT_INPUT
    except (ValueError, ArithmeticError, RuntimeError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
