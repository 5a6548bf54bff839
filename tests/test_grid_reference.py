"""The grid reports against per-point loops.

``validate``, ``classify_profile`` and ``einstein_check`` evaluate their
grids as numpy arrays.  The functions below evaluate the same grids one
point at a time with the float evaluators, and take kcond' and kcond'' by
differentiating the kcond tree twice rather than from the derivatives of
L = f'/f.  They are the reference: violation and failure lists must be
identical, the family the same (or the same exception class raised), and
every float within 1e-9 relative.  The fit residual and the Einstein
variation are rounding-level relative errors themselves, so they get an
absolute floor: a hundredth of FIT_TOL for the fit, whose rounding grows
toward a finite bound where the fitted base c1 + c2*t nears 0, and 1e-12
for the variation.
"""

import importlib.util
import math
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from hartogs import (
    classify_profile,
    einstein_check,
    kcond,
    monge_ampere_J,
    parse_profile,
    residual_ode,
    validate,
)
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
from hartogs.expressions import ExpressionEvalError, compile_expression, differentiate, simplify
from hartogs.profile import ValidationReport, chebyshev_grid


def _bench_cases() -> list[tuple[str, float]]:
    """One dossier pass of bench/inputs.py: two profiles of each family."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses look their module up
    spec.loader.exec_module(inputs)
    return [(case.source, case.b) for case in inputs.DossierInputs(8).next_pass(0)]


CASES = _bench_cases() + [
    ("1 + t", 1.0),  # violations
    ("log(t - 1)", math.inf),  # log failures
    ("(1 - t)^0.5", math.inf),  # pow failures
    ("1e300*1e300 - t", 1.0),  # the infinite fold
    ("exp(-20*t) + exp(-21*t)", math.inf),  # f underflows in the base curvature
    # nan over t - t: numpy divides quietly where the float evaluators raise
    ("(1e300*1e300 - 1e300*1e300)/(t - t) + 1", 1.0),
]


def reference_validate(profile, grid_size=1024, t_max=50.0, enforce_monotone=True):
    upper = profile.grid_limit(t_max)
    positivity, monotonicity, pseudoconvexity, failures = [], [], [], []
    for t in chebyshev_grid(upper, grid_size).tolist():
        try:
            ft = profile.f(t)
            f1t = profile.f1(t)
            kt = profile._kcond_fn(t)
        except ExpressionEvalError as exc:
            failures.append((t, str(exc)))
            continue
        if not (math.isfinite(ft) and math.isfinite(f1t) and math.isfinite(kt)):
            failures.append((t, "non-finite value"))
            continue
        if ft <= 0.0:
            positivity.append(t)
        if enforce_monotone and f1t > 0.0:
            monotonicity.append(t)
        if kt >= 0.0:
            pseudoconvexity.append(t)
    valid = not (positivity or monotonicity or pseudoconvexity or failures)
    return ValidationReport(valid, grid_size, upper, tuple(positivity), tuple(monotonicity),
                            tuple(pseudoconvexity), tuple(failures), enforce_monotone)


def reference_einstein(profile, grid=64):
    upper = profile.grid_limit() * (1.0 - 1e-6)
    values = [monge_ampere_J(profile, t) for t in chebyshev_grid(upper, grid).tolist()]
    mean = sum(values) / len(values)
    variation = max(abs(v - mean) for v in values) / abs(mean)
    return EinsteinReport(variation < CONSTANCY_TOL, variation, mean)


def reference_base_curvature(profile, x, derivatives):
    k = kcond(profile, x)
    if k >= 0.0:
        raise ArithmeticError(f"base metric degenerate at x={x} (density {-2.0 * k})")
    k1_fn, k2_fn = derivatives
    mu1 = k1_fn(x) / k
    mu2 = k2_fn(x) / k - mu1 * mu1
    return (mu1 + x * mu2) / k


def reference_fit(profile, fitted, ts) -> float:
    worst = 0.0
    for t in ts:
        f = profile.f(t)
        worst = max(worst, abs(f - fitted(t)) / (abs(f) + 1e-300))
    return worst


def reference_classify(profile, grid=64):
    k1 = simplify(differentiate(profile.kcond_ast))
    derivatives = compile_expression(k1), compile_expression(simplify(differentiate(k1)))
    ts = chebyshev_grid(profile.grid_limit() * (1.0 - 1e-6), grid).tolist()
    f0 = profile.f(0.0)
    f1_0 = profile.f1(0.0)
    residual_scale = 0.0
    residual_max = 0.0
    for t in ts:
        f, f1, f2, f3 = profile.f(t), profile.f1(t), profile.f2(t), profile.f3(t)
        residual_max = max(residual_max, abs(residual_ode(profile, t)))
        residual_scale = max(
            residual_scale,
            t * t * f2 * f2 + abs(f) * (2.0 * abs(f2) + t * abs(f3))
            + abs(f1) * (2.0 * t * abs(f2) + t * t * abs(f3)),
        )
    if residual_max <= RESIDUAL_TOL * max(residual_scale, 1.0):
        c1, c2 = f0, -f1_0
        fit = reference_fit(profile, lambda t: c1 - c2 * t, ts)
        if fit < FIT_TOL:
            return ClassificationResult(FAMILY_HYPERBOLIC, {"c1": c1, "c2": c2}, fit, None)
    curvatures = [reference_base_curvature(profile, t, derivatives) for t in ts]
    k_mean = sum(curvatures) / len(curvatures)
    spread = max(abs(k - k_mean) for k in curvatures)
    if max(abs(k) for k in curvatures) < CONSTANCY_TOL:
        c = f0
        k = -f1_0 / f0
        fit = reference_fit(profile, lambda t: c * math.exp(-k * t), ts)
        if fit < FIT_TOL:
            return ClassificationResult(FAMILY_SPRING, {"c": c, "k": k}, fit, 0.0)
    if spread < CONSTANCY_TOL * max(abs(k_mean), 1.0) and k_mean != 0.0:
        exponent = -2.0 / k_mean
        c1 = math.pow(f0, 1.0 / exponent)
        c2 = f1_0 / (exponent * math.pow(c1, exponent - 1.0))
        fit = reference_fit(profile, lambda t: math.pow(c1 + c2 * t, exponent), ts)
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
    assert validate(profile) == reference_validate(profile)
    for grid_report, reference in ((classify_profile, reference_classify),
                                   (einstein_check, reference_einstein)):
        try:
            expected = reference(profile)
        except (ArithmeticError, ValueError) as exc:
            with pytest.raises((ArithmeticError, ValueError)) as raised:
                grid_report(profile)
            assert type(raised.value) is type(exc)
            continue
        _assert_same_report(grid_report(profile), expected)


def test_cases_cover_every_family_and_outcome():
    families = {reference_classify(parse_profile(s, b, 2)).family for s, b in CASES[:12]}
    assert families == {FAMILY_HYPERBOLIC, FAMILY_SPRING, FAMILY_POWER_POS, FAMILY_POWER_NEG,
                        FAMILY_GENERIC}
    summaries = [validate(parse_profile(s, b, 2)).violation_summary() for s, b in CASES[12:]]
    assert summaries[0]["pseudoconvexity"] > 0 and summaries[0]["evaluation"] == 0
    assert all(summary["evaluation"] > 0 for summary in summaries[1:])
