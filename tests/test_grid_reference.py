"""The grid reports against per-point loops on sympy's values.

``validate``, ``classify_profile`` and ``einstein_check`` take one jet of
their whole grid as numpy arrays.  The functions below decide the same
reports one point at a time, from f up to f''' and kcond = (t f'/f)' with
its first two derivatives as sympy derives them from the source: lambdified
to numpy, and evaluated at 40 digits with mpmath wherever a double
precision value is not finite or a power of f it divides by underflows.
So a violation is decided on the exact sign of f, f' or kcond (f <= 0,
f' > 0, kcond >= 0), and a point fails where its exact values are
undefined or leave float range, for the reason its case names.  Violation and failure lists must be identical, the
family the same (or the same exception class raised), and every float
within 1e-9 relative.  The fit residual and the Einstein variation are
rounding-level relative errors themselves, so they get an absolute floor:
a hundredth of FIT_TOL for the fit, whose rounding grows toward a finite
bound where the fitted base c1 + c2*t nears 0, and 1e-12 for the
variation.
"""

import functools
import math
import sys
from dataclasses import fields

import numpy as np
import pytest

from hartogs import classify_profile, einstein_check, parse_profile, validate
from hartogs.connection import residual_terms
from hartogs.curvature import (
    CONSTANCY_TOL,
    FAMILY_GENERIC,
    FAMILY_HYPERBOLIC,
    FAMILY_POWER_NEG,
    FAMILY_POWER_POS,
    FAMILY_SPRING,
    FIT_TOL,
    RESIDUAL_TOL,
    ClassificationResult,
    EinsteinReport,
)
from hartogs.expressions import ExpressionEvalError
from hartogs.profile import ValidationReport, chebyshev_grid

from conftest import bench_inputs

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")


def _bench_cases() -> list[tuple[str, float]]:
    """One dossier pass of bench/inputs.py: two profiles of each family."""
    return [(case.source, case.b) for case in bench_inputs().DossierInputs(8).next_pass(0)]


CASES = _bench_cases() + [
    ("1 + t", 1.0),  # violations
    ("log(t - 1)", math.inf),  # log failures, and f < 0 with f' > 0 on (1, 2)
    ("(1 - t)^0.5", math.inf),  # pow failures
    ("1e300*1e300 - t", 1.0),  # the infinite fold
    # nan over t - t: the guard of the quotient fails at every point
    ("(1e300*1e300 - 1e300*1e300)/(t - t) + 1", 1.0),
    ("exp(-20*t) + exp(-21*t)", math.inf),  # valid, and f underflows on the grids
]
# The guard that fails where the exact values of a case are undefined;
# elsewhere a point whose values leave float range is a "non-finite value".
REASONS = {
    "log(t - 1)": "log of a non-positive value",
    "(1 - t)^0.5": "power of a negative value",
    "(1e300*1e300 - 1e300*1e300)/(t - t) + 1": "division by zero",
}
NAMES = ("f", "f1", "f2", "f3", "kcond", "kcond1", "kcond2")
# the power of f that each divides by, as sympy writes it
DIVISORS = {"kcond": 2, "kcond1": 3, "kcond2": 4}


@functools.lru_cache(maxsize=None)
def _derived(source: str) -> tuple:
    """(t, {name: sympy expression}) for NAMES."""
    t = sympy.Symbol("t")
    exprs = [sympy.sympify(source.replace("^", "**"), locals={"t": t})]
    for name in NAMES[1:]:  # each the derivative of the one before, but kcond
        before = t * sympy.cancel(exprs[1] / exprs[0]) if name == "kcond" else exprs[-1]
        exprs.append(sympy.diff(before, t))
    return t, dict(zip(NAMES, exprs))


@functools.lru_cache(maxsize=None)
def _lambdified(source: str, names: tuple, module: str):
    t, exprs = _derived(source)
    return sympy.lambdify(t, [exprs[name] for name in names], module)


def reference_values(source: str, ts: np.ndarray, names: tuple) -> list[dict]:
    """Per point of ts, f and the named values by sympy: floats, or mpmath's
    at 40 digits where a float is not finite or a power of f that they
    divide by underflows; nan where undefined."""
    names = ("f", *(name for name in names if name != "f"))
    tiny = sys.float_info.min ** (1.0 / max(DIVISORS.get(name, 1) for name in names))
    with np.errstate(all="ignore"):
        rows = dict(zip(NAMES, _lambdified(source, NAMES, "numpy")(ts)))
        rows = [np.broadcast_to(np.asarray(rows[name], dtype=float), ts.shape).tolist()
                for name in names]
    points = []
    for i, t in enumerate(ts.tolist()):
        values = dict(zip(names, (row[i] for row in rows)))
        if abs(values["f"]) < tiny or not all(map(math.isfinite, values.values())):
            with mpmath.workdps(40):
                try:
                    exact_values = _lambdified(source, names, "mpmath")(mpmath.mpf(t))
                except (ZeroDivisionError, ValueError):
                    exact_values = [math.nan] * len(names)
            values = {name: math.nan if isinstance(value, mpmath.mpc) else mpmath.mpf(value)
                      for name, value in zip(names, exact_values)}
        points.append(values)
    return points


def _failure(source: str, values: dict, names) -> str | None:
    """Why a point fails, unless the named values are all finite floats."""
    if all(math.isfinite(float(values[name])) for name in names):
        return None
    return REASONS.get(source, "non-finite value")


def reference_validate(source, profile, grid_size=1024, t_max=50.0, enforce_monotone=True):
    upper = profile.grid_limit(t_max)
    ts = chebyshev_grid(upper, grid_size)
    positivity, monotonicity, pseudoconvexity, failures = [], [], [], []
    names = ("f", "f1", "kcond")
    for t, values in zip(ts.tolist(), reference_values(source, ts, names)):
        reason = _failure(source, values, names)
        if reason is not None:
            failures.append((t, f"{reason} at t={t}" if source in REASONS else reason))
            continue
        if values["f"] <= 0.0:
            positivity.append(t)
        if enforce_monotone and values["f1"] > 0.0:
            monotonicity.append(t)
        if values["kcond"] >= 0.0:
            pseudoconvexity.append(t)
    valid = not (positivity or monotonicity or pseudoconvexity or failures)
    return ValidationReport(valid, grid_size, upper, tuple(positivity), tuple(monotonicity),
                            tuple(pseudoconvexity), tuple(failures), enforce_monotone)


def _grid_values(source, profile, names, grid=64):
    """(ts, {name: floats}) on the grid of a report, or ExpressionEvalError
    at the first point whose values a guard of the case leaves undefined."""
    ts = chebyshev_grid(profile.grid_limit() * (1.0 - 1e-6), grid)
    points = reference_values(source, ts, names)
    for t, values in zip(ts.tolist(), points):
        if source in REASONS and _failure(source, values, names) is not None:
            raise ExpressionEvalError(f"{REASONS[source]} at t={t}")
    return ts.tolist(), {name: [float(values[name]) for values in points] for name in names}


def reference_einstein(source, profile, grid=64):
    _, rows = _grid_values(source, profile, ("f", "kcond"), grid)
    if not 0.0 < rows["f"][0] < math.inf:
        raise ArithmeticError(f"f(0) = {rows['f'][0]}; the reports need it positive and finite")
    values = [-f * f * k for f, k in zip(rows["f"], rows["kcond"])]
    mean = sum(values) / len(values)
    variation = max(abs(v - mean) for v in values) / abs(mean)
    return EinsteinReport(variation < CONSTANCY_TOL, variation, mean)


def reference_fit(fs, fitted, ts) -> float:
    worst = 0.0
    for t, f in zip(ts, fs):
        worst = max(worst, abs(f - fitted(t)) / (abs(f) + 1e-300))
    return worst


def reference_base_curvature(x, k, k1, k2):
    if k >= 0.0:
        raise ArithmeticError(f"base metric degenerate at x={x} (density {-2.0 * k})")
    mu1 = k1 / k
    mu2 = k2 / k - mu1 * mu1
    return (mu1 + x * mu2) / k


def reference_classify(source, profile, grid=64):
    ts, rows = _grid_values(source, profile, NAMES, grid)
    fs = rows["f"]
    f0, f1_0 = fs[0], rows["f1"][0]
    if not 0.0 < f0 < math.inf:
        raise ArithmeticError(f"f(0) = {f0}; classification needs it positive and finite")
    # raises at the first point with kcond >= 0, before any family is fitted
    curvatures = [reference_base_curvature(t, *k) for t, *k in
                  zip(ts, rows["kcond"], rows["kcond1"], rows["kcond2"])]
    residual_scale = 0.0
    residual_max = 0.0
    for t, f, f1, f2, f3 in zip(ts, fs, rows["f1"], rows["f2"], rows["f3"]):
        residual_max = max(residual_max, abs(residual_terms(t, f, f1, f2, f3)))
        residual_scale = max(
            residual_scale,
            t * t * f2 * f2 + abs(f) * (2.0 * abs(f2) + t * abs(f3))
            + abs(f1) * (2.0 * t * abs(f2) + t * t * abs(f3)),
        )
    if residual_max <= RESIDUAL_TOL * max(residual_scale, 1.0):
        c1, c2 = f0, -f1_0
        fit = reference_fit(fs, lambda t: c1 - c2 * t, ts)
        if fit < FIT_TOL:
            return ClassificationResult(FAMILY_HYPERBOLIC, {"c1": c1, "c2": c2}, fit, None)
    k_mean = sum(curvatures) / len(curvatures)
    spread = max(abs(k - k_mean) for k in curvatures)
    if max(abs(k) for k in curvatures) < CONSTANCY_TOL:
        c = f0
        k = -f1_0 / f0
        fit = reference_fit(fs, lambda t: c * math.exp(-k * t), ts)
        if fit < FIT_TOL:
            return ClassificationResult(FAMILY_SPRING, {"c": c, "k": k}, fit, 0.0)
    if spread < CONSTANCY_TOL * max(abs(k_mean), 1.0) and k_mean != 0.0:
        exponent = -2.0 / k_mean
        c1 = math.pow(f0, 1.0 / exponent)
        c2 = f1_0 / (exponent * math.pow(c1, exponent - 1.0))
        fit = reference_fit(fs, lambda t: math.pow(c1 + c2 * t, exponent), ts)
        if fit < FIT_TOL:
            family = FAMILY_POWER_POS if k_mean > 0 else FAMILY_POWER_NEG
            return ClassificationResult(family, {"c1": c1, "c2": c2, "K0": k_mean}, fit, k_mean)
    return ClassificationResult(FAMILY_GENERIC, {}, math.inf, None)


ABSOLUTE_FLOOR = {"fit_residual": 1e-2 * FIT_TOL, "max_relative_variation": 1e-12}


def _assert_same_report(got, expected):
    assert type(got) is type(expected)
    for field in fields(expected):
        want = getattr(expected, field.name)
        have = getattr(got, field.name)
        if isinstance(want, (float, dict)):
            floor = ABSOLUTE_FLOOR.get(field.name, 0.0)
            assert have == pytest.approx(want, rel=1e-9, abs=floor, nan_ok=True), field.name
        else:
            assert have == want, field.name


@pytest.mark.parametrize("source,b", CASES)
def test_grid_reports_match_the_per_point_loops(source, b):
    profile = parse_profile(source, b, 2)
    assert validate(profile) == reference_validate(source, profile)
    for grid_report, reference in ((classify_profile, reference_classify),
                                   (einstein_check, reference_einstein)):
        try:
            expected = reference(source, profile)
        except (ArithmeticError, ValueError) as exc:
            with pytest.raises((ArithmeticError, ValueError)) as raised:
                grid_report(profile)
            assert type(raised.value) is type(exc)
            continue
        _assert_same_report(grid_report(profile), expected)


def test_cases_cover_every_family_and_outcome():
    families = {reference_classify(s, parse_profile(s, b, 2)).family for s, b in CASES[:12]}
    assert families == {FAMILY_HYPERBOLIC, FAMILY_SPRING, FAMILY_POWER_POS, FAMILY_POWER_NEG,
                        FAMILY_GENERIC}
    summaries = [validate(parse_profile(s, b, 2)).violation_summary() for s, b in CASES[12:]]
    assert summaries[0]["pseudoconvexity"] > 0 and summaries[0]["evaluation"] == 0
    assert all(summary["evaluation"] > 0 for summary in summaries[1:-1])
    assert not any(summaries[-1].values())
