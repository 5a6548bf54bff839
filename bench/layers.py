"""The layer probe of a traced run and the per-layer metric table.

After the timed loop, a traced run calls every listed public function of
hartogs on the workload's own profiles, at interior points drawn from them.
Each per-layer metric comes from the spans and counts of the timed loop
when the workload itself calls that layer, and from the probe otherwise.
A traced run reports every per-layer metric, so the probe also runs one
`classify` command in-process through hartogs.cli.main per profile, for
cli.command_ms on the workloads that start no hartogs process.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import subprocess
import sys

import inputs
from tracing import count_evaluator_calls
from workloads import cli_argv, profile_nodes

# (metric, unit); a metric named after a span reports its median duration.
LAYER_METRICS = [
    ("cli.import_s", "s"),
    ("cli.command_ms", "ms"),
    ("expressions.parse_expression_us", "us"),
    ("profile.parse_profile_ms", "ms"),
    ("profile.derivative_nodes", "count"),
    ("profile.evaluator_calls", "count"),
    ("profile.validate_ms", "ms"),
    ("profile.kcond_us", "us"),
    ("metric.slice_metric_us", "us"),
    ("metric.slice_metric_jet_us", "us"),
    ("metric.hermitian_metric_us", "us"),
    ("connection.christoffel_closed_us", "us"),
    ("connection.christoffel_generic_us", "us"),
    ("connection.integrate_geodesic_ms", "ms"),
    ("connection.trace_samples", "count"),
    ("connection.arc_per_s", "1/s"),
    ("connection.self_intersection_check_ms", "ms"),
    ("curvature.gauss_curvature_slice_us", "us"),
    ("curvature.gauss_curvature_base_us", "us"),
    ("curvature.classify_profile_ms", "ms"),
    ("curvature.einstein_check_ms", "ms"),
    ("hyperbolic.completeness_ms", "ms"),
    ("hyperbolic.psi_us", "us"),
    ("hyperbolic.psi_map_us", "us"),
]
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}
COLD_IMPORTS = 3
PROBE_DIRECTION = (0.6, 0.8)


def _timed(tracer, name, fn, *args):
    try:
        with tracer.span(name):
            return fn(*args)
    except (ArithmeticError, ValueError, RuntimeError):
        tracer.count("probe.errors", 1)
        return None


def probe(workload, hg, tracer, rng, env):
    """Call every listed layer once per profile and point of the workload."""
    tracer.phase = "probe"
    for case in workload.probe_cases():
        tracer.op += 1
        points = case.points or inputs.interior_points(case, rng, inputs.DOSSIER_POINTS)
        _timed(tracer, "expressions.parse_expression", hg.parse_expression, case.source)
        profile = _timed(tracer, "profile.parse_profile", hg.parse_profile, case.source, case.b, 2)
        tracer.count("profile.derivative_nodes", profile_nodes(profile))
        tally = [0]
        count_evaluator_calls(profile, tally)
        _timed(tracer, "profile.validate", hg.validate, profile)
        _timed(tracer, "curvature.classify_profile", hg.classify_profile, profile)
        _timed(tracer, "curvature.einstein_check", hg.einstein_check, profile)
        _timed(tracer, "hyperbolic.completeness", hg.completeness, profile)
        for u, v in points:
            sp = hg.SlicePoint(u, v)
            dp = hg.DomainPoint(complex(u), (complex(v),))
            _timed(tracer, "profile.kcond", hg.kcond, profile, u * u)
            _timed(tracer, "metric.slice_metric", hg.slice_metric, profile, sp)
            _timed(tracer, "metric.slice_metric_jet", hg.slice_metric_jet, profile, sp)
            _timed(tracer, "metric.hermitian_metric", hg.hermitian_metric, profile, dp)
            _timed(tracer, "connection.christoffel_closed", hg.christoffel_closed, profile, sp)
            _timed(tracer, "connection.christoffel_generic", hg.christoffel_generic, profile, sp)
            _timed(tracer, "curvature.gauss_curvature_slice", hg.gauss_curvature_slice, profile, sp)
            _timed(tracer, "curvature.gauss_curvature_base", hg.gauss_curvature_base, profile, u * u)
            _timed(tracer, "hyperbolic.psi", hg.psi, profile, u)
            _timed(tracer, "hyperbolic.psi_map", hg.psi_map, profile, sp)
        trace = _timed(tracer, "connection.integrate_geodesic", hg.integrate_geodesic, profile,
                       hg.SlicePoint(0.0, 0.0), PROBE_DIRECTION, inputs.FAN_LENGTH)
        if trace is not None:
            tracer.count("connection.trace_samples", len(trace))
            tracer.count("connection.arc_length", float(trace.s[-1]))
            _timed(tracer, "connection.self_intersection_check", hg.self_intersection_check, trace)
        tracer.count("profile.evaluator_calls", tally[0])
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), tracer.span("cli.main"):
            hg.cli_main(cli_argv("classify", case))
        tracer.count("cli.command_ms", 1e3 * json.loads(buffer.getvalue())["wall_time_s"])
    for _ in range(COLD_IMPORTS):
        tracer.count("cli.import_s", cold_import_seconds(env))


def cold_import_seconds(env) -> float:
    """Time of `import hartogs.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import hartogs.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def _pick(get):
    return get("ops") or get("probe")


def layer_metrics(tracer) -> dict:
    """Each listed metric from the timed loop if it has one, else the probe.

    Metrics recorded as counts report their mean (unit "count") or median
    (a time unit); the others are the median duration of the span named by
    the metric without its unit suffix.
    """
    metrics = {}
    for name, unit in LAYER_METRICS:
        recorded = _pick(lambda phase: tracer.counts.get((name, phase), []))
        if name == "connection.arc_per_s":
            phase = "ops" if tracer.durations("connection.integrate_geodesic", "ops") else "probe"
            busy = sum(tracer.durations("connection.integrate_geodesic", phase))
            arc = sum(tracer.counts.get(("connection.arc_length", phase), []))
            value = arc / busy if busy else None
        elif recorded:
            value = statistics.fmean(recorded) if unit == "count" else statistics.median(recorded)
        else:
            durations = _pick(lambda phase: tracer.durations(name.rsplit("_", 1)[0], phase))
            value = statistics.median(durations) * _SCALE[unit] if durations else None
        if value is not None:
            metrics[name] = {"value": value, "unit": unit}
    return metrics
