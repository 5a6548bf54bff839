"""Command-line interface: deterministic, seeded JSON/CSV reports.

Exit codes: 0 pass, 1 property breach, 2 input error, 3 inconclusive.
Every JSON report embeds the tool version, the merged configuration, the
seed, and the wall time.  A JSON config file may supply any flag of its
command, checked as the flag is; flags given on the command line win.
Every command but ``validate`` first validates the profile with its
defaults; a profile that fails exits 1 with the violation summary as its
report, and writes no --out file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__
from .connection import integrate_geodesic, reduce_to_slice, self_intersection_check
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
        if not self.tol > 0:  # nan too
            raise ValueError("tolerance must be positive")
        if self.format not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format!r}")


def _cast(kind, value, name: str):
    """value as kind; a value of the wrong shape is an input error."""
    try:
        return kind(value)
    except TypeError:
        raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}") from None


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


def _write_output(config: RunConfig, json_text: str, table):
    """Print the report; write it, or ``table = (header, rows)`` as CSV, to --out."""
    sys.stdout.write(json_text)
    if config.out is None:
        return
    if config.format == "json":
        with open(config.out, "w") as handle:
            handle.write(json_text)
    else:
        if table is None:
            raise ValueError(f"command {config.command!r} has no CSV output")
        header, rows = table
        with open(config.out, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for row in rows:
                writer.writerow([repr(float(x)) for x in row])


# ---------------------------------------------------------------------------
# Commands: each returns (payload, exit code, CSV table or None)

def _cmd_validate(profile: Profile, config: RunConfig):
    report = validate(
        profile,
        grid_size=config.options["grid"],
        t_max=config.options["t_max"],
        enforce_monotone=not config.options["allow_increasing"],
    )
    return asdict(report), (EXIT_OK if report.valid else EXIT_BREACH), None


def _cmd_curvature(profile: Profile, config: RunConfig):
    if config.options["points"] < 1:
        raise ValueError("points must be at least 1")
    u_max = config.options["u_max"]
    if u_max is None:
        u_max = 0.95 * math.sqrt(profile.b) if math.isfinite(profile.b) else 2.0
    rng = np.random.default_rng(config.seed)
    points = []
    for _ in range(config.options["points"]):
        u = rng.uniform(-u_max, u_max)
        v_cap = 0.92 * math.sqrt(profile.f(u * u))
        points.append(SlicePoint(u, rng.uniform(-v_cap, v_cap)))
    rows = [(sp.u, sp.v, gauss_curvature_slice(profile, sp)) for sp in points]
    worst = float(np.max([abs(k + 0.5) for _, _, k in rows]))  # nan if any K is
    payload = {
        "target": -0.5,
        "max_deviation_from_minus_half": worst,
        "tolerance": config.tol,
        "samples": [{"u": u, "v": v, "K": k} for u, v, k in rows],
        "u_max": u_max,
    }
    if math.isnan(worst):
        code = EXIT_INCONCLUSIVE
    else:
        code = EXIT_OK if worst < config.tol else EXIT_BREACH
    return payload, code, (("u", "v", "K"), rows)


def _cmd_geodesic(profile: Profile, config: RunConfig):
    components = [complex(part.strip()) for part in config.options["direction"].split(",")]
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
    start_u, start_v = (float(x.strip()) for x in config.options["start"].split(","))
    trace = integrate_geodesic(
        profile, SlicePoint(start_u, start_v), slice_dir, config.options["length"]
    )
    # screened in the chord's chart, which float64 does not collapse near the rim
    chart = replace(trace, points=trace.chart)
    screen = self_intersection_check(chart, guard=config.options["guard"])
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
    return payload, code, (("s", "u", "v", "du", "dv", "energy"), rows)


def _cmd_completeness(profile: Profile, config: RunConfig):
    report = completeness(profile)
    code = EXIT_INCONCLUSIVE if report.verdict == VERDICT_UNKNOWN else EXIT_OK
    return asdict(report), code, None


def _cmd_einstein(profile: Profile, config: RunConfig):
    return asdict(einstein_check(profile, grid=config.options["grid"])), EXIT_OK, None


def _cmd_classify(profile: Profile, config: RunConfig):
    grid = config.options["grid"]
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


# Each command: its runner and its options, name -> (flag, type, default,
# help).  A bool option is a bare flag that sets True.  Every option given
# reaches the runner cast through its type.
_GRID = ("--grid", int, 64, "evaluation grid size")
_COMMANDS = {
    "validate": (_cmd_validate, {
        "grid": ("--grid", int, 1024, "validation grid size"),
        "t_max": ("--t-max", float, 50.0, "sampling cap when b is infinite"),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hartogs",
        description="Numerical Riemannian geometry of Hartogs domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--F", dest="expression", help="profile expression in t")
        cmd.add_argument("--b", dest="b", help="domain bound (positive real or 'inf')")
        cmd.add_argument("--n", dest="n", type=int, help="complex dimension (default 2)")
        cmd.add_argument("--seed", type=int, help="RNG seed (default 0)")
        cmd.add_argument("--tol", type=float, help="pass/fail tolerance")
        cmd.add_argument("--out", help="output file path")
        cmd.add_argument("--format", choices=("json", "csv"), help="output file format")
        cmd.add_argument("--config", help="JSON config file; flags win on conflict")
        for dest, (flag, kind, _default, text) in options.items():
            if kind is bool:
                cmd.add_argument(flag, dest=dest, action="store_const", const=True, help=text)
            else:
                cmd.add_argument(flag, dest=dest, type=kind, help=text)
    return parser


def _merge_config(args: argparse.Namespace) -> RunConfig:
    command = args.command
    options = _COMMANDS[command][1]
    merged = {f.name: f.default for f in fields(RunConfig) if f.default is not MISSING}
    merged.update({name: default for name, (_, _, default, _) in options.items()})
    # a config file may use flag spellings, as in {"F": ..., "t-max": ..., "dir": ...}
    aliases = {"F": "expression"} | {
        flag[2:].replace("-", "_"): name for name, (flag, *_) in options.items()}
    if args.config:
        with open(args.config) as handle:
            file_config = json.load(handle)
        if not isinstance(file_config, dict):
            raise ValueError("config file must contain a JSON object")
        for key, value in file_config.items():
            name = key.replace("-", "_")
            name = aliases.get(name, name)
            if name not in merged and name not in ("expression", "b"):
                raise ValueError(f"config key {key!r} is not an option of {command}")
            merged[name] = value
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        merged[key] = value
    for name, (_, kind, _, _) in options.items():
        if merged[name] is not None:
            merged[name] = _cast(kind, merged[name], name)
    if merged.get("expression") is None:
        raise ValueError("profile expression is required (--F or config file)")
    if merged.get("b") is None:
        raise ValueError("domain bound is required (--b or config file)")
    common = {
        "expression": str(merged.pop("expression")),
        "b": float(str(merged.pop("b"))),
        "n": _cast(int, merged.pop("n"), "n"),
        "seed": _cast(int, merged.pop("seed"), "seed"),
        "tol": _cast(float, merged.pop("tol"), "tol"),
        "out": merged.pop("out"),
        "format": str(merged.pop("format")),
    }
    return RunConfig(command=command, options=merged, **common)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        profile = parse_profile(config.expression, config.b, config.n)
        if config.command != "validate" and not (gate := validate(profile)).valid:
            breach = {"valid": False, "violations": gate.violation_summary()}
            sys.stdout.write(_emit_report(config, started, report=breach))
            return EXIT_BREACH
        payload, code, table = _COMMANDS[config.command][0](profile, config)
        _write_output(config, _emit_report(config, started, report=payload), table)
    except ExpressionSyntaxError as exc:
        error = {"message": str(exc), "position": exc.position}
        sys.stdout.write(_emit_report(config, started, error=error))
        return EXIT_INPUT
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
