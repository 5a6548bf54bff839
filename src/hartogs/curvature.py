"""Curvature computations and the profile family classification.

The Gaussian curvature of the slice is evaluated with the Brioschi formula
on the analytic metric jet; for every valid profile it comes out -1/2 to
near machine precision.  The base surface {z = 0} carries the conformal
metric with density -2*kcond.  Its curvature, (mu' + x*mu'')/kcond with
mu = log(-kcond), needs only kcond and its first two derivatives, and it
classifies the profile families: flat base <-> c*exp(-k t), constant
K0 != 0 <-> (c1 + c2 t)^(-2/K0), and the vanishing of the straight-line
residual singles out the linear profiles of the complex-hyperbolic case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .connection import residual_ode
from .metric import SlicePoint, slice_metric_jet
from .profile import Profile, chebyshev_grid, kcond

FAMILY_HYPERBOLIC = "hyperbolic"
FAMILY_SPRING = "spring"
FAMILY_POWER_POS = "power_positive_curvature"
FAMILY_POWER_NEG = "power_negative_curvature"
FAMILY_GENERIC = "generic"

# "Constant" on a grid means relative variation below this.
CONSTANCY_TOL = 1e-8
# A fitted family is accepted when the profile deviates less than this.
FIT_TOL = 1e-6
# Straight-line residual below this (relative to its term sizes) is zero.
RESIDUAL_TOL = 1e-9


def _det3(m) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def brioschi_curvature(jet) -> float:
    """Brioschi formula for the Gaussian curvature of a 2D metric.

    ``jet`` provides g11, g12, g22 and the partials g11_u, g11_v, g11_vv,
    g12_u, g12_v, g12_uv, g22_u, g22_v, g22_uu.
    """
    det = jet.g11 * jet.g22 - jet.g12 * jet.g12
    m1 = (
        (-0.5 * jet.g11_vv + jet.g12_uv - 0.5 * jet.g22_uu, 0.5 * jet.g11_u, jet.g12_u - 0.5 * jet.g11_v),
        (jet.g12_v - 0.5 * jet.g22_u, jet.g11, jet.g12),
        (0.5 * jet.g22_v, jet.g12, jet.g22),
    )
    m2 = (
        (0.0, 0.5 * jet.g11_v, 0.5 * jet.g22_u),
        (0.5 * jet.g11_v, jet.g11, jet.g12),
        (0.5 * jet.g22_u, jet.g12, jet.g22),
    )
    return (_det3(m1) - _det3(m2)) / (det * det)


def gauss_curvature_slice(profile: Profile, sp: SlicePoint) -> float:
    """Gaussian curvature of the slice metric at (u, v)."""
    return brioschi_curvature(slice_metric_jet(profile, sp))


def gauss_curvature_base(profile: Profile, x: float) -> float:
    """Gaussian curvature of the base surface {z = 0} at radius-x points.

    The base metric is conformal with density lam(x) = -2*k(x) in the
    z0-plane, k = kcond.  For a rotation-invariant density the curvature
    is -2*(mu' + x*mu'')/lam with mu = log(lam); in terms of k, with
    mu' = k'/k and mu'' = k''/k - mu'^2, that is (mu' + x*mu'')/k.
    """
    k = kcond(profile, x)
    if k >= 0.0:
        raise ArithmeticError(f"base metric degenerate at x={x} (density {-2.0 * k})")
    k1_fn, k2_fn = profile._kcond_derivative_fns
    mu1 = k1_fn(x) / k
    mu2 = k2_fn(x) / k - mu1 * mu1
    return (mu1 + x * mu2) / k


def monge_ampere_J(profile: Profile, x: float) -> float:
    """The determinant invariant -f(x)^2 * kcond(x); positive on valid profiles.

    Constant in x exactly for the linear profiles, where the metric is
    Einstein.
    """
    f = profile.f(x)
    return -f * f * kcond(profile, x)


@dataclass(frozen=True)
class EinsteinReport:
    is_einstein: bool
    max_relative_variation: float
    mean_value: float


def einstein_check(profile: Profile, grid: int = 64) -> EinsteinReport:
    """Test constancy of the determinant invariant on a grid."""
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    upper = profile.grid_limit() * (1.0 - 1e-6)
    values = [monge_ampere_J(profile, t) for t in chebyshev_grid(upper, grid)]
    mean = sum(values) / len(values)
    variation = max(abs(v - mean) for v in values) / abs(mean)
    return EinsteinReport(variation < CONSTANCY_TOL, variation, mean)


@dataclass(frozen=True)
class ClassificationResult:
    """Profile family with fitted parameters and the fit quality."""

    family: str
    params: dict[str, float]
    fit_residual: float
    base_curvature: float | None


def _relative_fit_residual(profile: Profile, fitted, ts) -> float:
    worst = 0.0
    for t in ts:
        f = profile.f(t)
        worst = max(worst, abs(f - fitted(t)) / (abs(f) + 1e-300))
    return worst


def classify_profile(profile: Profile, grid: int = 64) -> ClassificationResult:
    """Decide which family the profile belongs to.

    Order matters: linear profiles also have constant base curvature, so
    the straight-line residual test runs first; a flat base then identifies
    the exponential family, a nonzero constant base curvature the power
    families, anything else is generic.  A candidate family is only
    accepted when the reconstructed profile matches on the grid.
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    ts = chebyshev_grid(profile.grid_limit() * (1.0 - 1e-6), grid)

    f0 = profile.f(0.0)
    f1_0 = profile.f1(0.0)

    residual_scale = 0.0
    residual_max = 0.0
    for t in ts:
        f = profile.f(t)
        f1 = profile.f1(t)
        f2 = profile.f2(t)
        f3 = profile.f3(t)
        residual_max = max(residual_max, abs(residual_ode(profile, t)))
        residual_scale = max(
            residual_scale,
            t * t * f2 * f2 + abs(f) * (2.0 * abs(f2) + t * abs(f3))
            + abs(f1) * (2.0 * t * abs(f2) + t * t * abs(f3)),
        )
    if residual_max <= RESIDUAL_TOL * max(residual_scale, 1.0):
        c1, c2 = f0, -f1_0
        fit = _relative_fit_residual(profile, lambda t: c1 - c2 * t, ts)
        if fit < FIT_TOL:
            return ClassificationResult(
                FAMILY_HYPERBOLIC, {"c1": c1, "c2": c2}, fit, None
            )

    curvatures = [gauss_curvature_base(profile, t) for t in ts]
    k_mean = sum(curvatures) / len(curvatures)
    spread = max(abs(k - k_mean) for k in curvatures)

    if max(abs(k) for k in curvatures) < CONSTANCY_TOL:
        c = f0
        k = -f1_0 / f0
        fit = _relative_fit_residual(profile, lambda t: c * math.exp(-k * t), ts)
        if fit < FIT_TOL:
            return ClassificationResult(FAMILY_SPRING, {"c": c, "k": k}, fit, 0.0)

    if spread < CONSTANCY_TOL * max(abs(k_mean), 1.0) and k_mean != 0.0:
        exponent = -2.0 / k_mean
        c1 = math.pow(f0, 1.0 / exponent)
        c2 = f1_0 / (exponent * math.pow(c1, exponent - 1.0))
        fit = _relative_fit_residual(
            profile, lambda t: math.pow(c1 + c2 * t, exponent), ts
        )
        if fit < FIT_TOL:
            family = FAMILY_POWER_POS if k_mean > 0 else FAMILY_POWER_NEG
            return ClassificationResult(
                family, {"c1": c1, "c2": c2, "K0": k_mean}, fit, k_mean
            )

    return ClassificationResult(FAMILY_GENERIC, {}, math.inf, None)
