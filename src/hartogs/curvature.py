"""Curvature computations and the profile family classification.

The Gaussian curvature of the slice is evaluated with the Brioschi formula
on the analytic metric jet; for every valid profile it comes out -1/2 to
near machine precision.  The base surface {z = 0} carries the conformal
metric with density -2*kcond.  Its curvature, (mu' + x*mu'')/kcond with
mu = log(-kcond), needs kcond, kcond' and kcond'', which the profile's
order-4 jet gives from the coefficients of log f.  The classifier takes
f..f3 and these from one jet of its grid: flat base <-> c*exp(-k t),
constant K0 != 0 <-> (c1 + c2 t)^(-2/K0), and the vanishing of the
straight-line residual singles out the linear profiles of the
complex-hyperbolic case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection import residual_terms
from .metric import SlicePoint, normalized_slice_metric_jet
from .profile import Profile, _check_range, chebyshev_grid, on_grid

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
    """Gaussian curvature of the slice at (u, v), from its normalized image."""
    return brioschi_curvature(normalized_slice_metric_jet(profile, sp)[0])


def gauss_curvature_base(profile: Profile, x: float) -> float:
    """Gaussian curvature of the base surface {z = 0} at radius-x points.

    The base metric is conformal with density lam(x) = -2*k(x) in the
    z0-plane, k = kcond.  For a rotation-invariant density the curvature
    is -2*(mu' + x*mu'')/lam with mu = log(lam); in terms of k, with
    mu' = k'/k and mu'' = k''/k - mu'^2, that is (mu' + x*mu'')/k.
    """
    _check_range(profile, x)
    k, k1, k2 = profile.values(x, "kcond", "kcond1", "kcond2")
    if k >= 0.0:
        raise ArithmeticError(f"base metric degenerate at x={x} (density {-2.0 * k})")
    return _base_curvature(x, k, k1, k2)


def _base_curvature(x, k, k1, k2):
    # floats or arrays, from kcond and its first two derivatives
    mu1 = k1 / k
    mu2 = k2 / k - mu1 * mu1
    return (mu1 + x * mu2) / k


def monge_ampere_J(profile: Profile, x: float) -> float:
    """The determinant invariant -f(x)^2 * kcond(x); positive on valid profiles.

    Constant in x exactly for the linear profiles, where the metric is
    Einstein.
    """
    _check_range(profile, x)
    f, k = profile.values(x, "f", "kcond")
    return -f * f * k


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
    (f, k), errors = on_grid(profile, chebyshev_grid(upper, grid), "f", "kcond")
    if errors:
        raise errors[min(errors)]
    with np.errstate(all="ignore"):  # inf and nan pass on, as in float arithmetic
        values = -f * f * k  # monge_ampere_J
        mean = float(np.mean(values))
        variation = float(np.max(np.abs(values - mean))) / abs(mean)
    return EinsteinReport(variation < CONSTANCY_TOL, variation, mean)


@dataclass(frozen=True)
class ClassificationResult:
    """Profile family with fitted parameters and the fit quality."""

    family: str
    params: dict[str, float]
    fit_residual: float
    base_curvature: float | None


def _max(values: np.ndarray) -> float:
    # the largest of 0.0 and the values, skipping nan as max(0.0, ...) does
    return float(np.fmax.reduce(values, initial=0.0))


def _relative_fit_residual(f: np.ndarray, fitted: np.ndarray) -> float:
    return _max(np.abs(f - fitted) / (np.abs(f) + 1e-300))


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
    (f, f1, f2, f3, k_grid, *k_derivatives), errors = on_grid(
        profile, ts, "f", "f1", "f2", "f3", "kcond", "kcond1", "kcond2")
    if errors:
        raise errors[min(errors)]
    f0, f1_0 = float(f[0]), float(f1[0])  # ts[0] = 0
    with np.errstate(all="ignore"):  # inf and nan pass on, as in float arithmetic
        residual_max = _max(np.abs(residual_terms(ts, f, f1, f2, f3)))
        residual_scale = _max(
            ts * ts * f2 * f2 + np.abs(f) * (2.0 * np.abs(f2) + ts * np.abs(f3))
            + np.abs(f1) * (2.0 * ts * np.abs(f2) + ts * ts * np.abs(f3))
        )
        if residual_max <= RESIDUAL_TOL * max(residual_scale, 1.0):
            c1, c2 = f0, -f1_0
            fit = _relative_fit_residual(f, c1 - c2 * ts)
            if fit < FIT_TOL:
                return ClassificationResult(
                    FAMILY_HYPERBOLIC, {"c1": c1, "c2": c2}, fit, None
                )

        bad = np.flatnonzero(k_grid >= 0.0)
        if bad.size:  # raise what gauss_curvature_base raises at the first bad point
            gauss_curvature_base(profile, float(ts[bad[0]]))
        curvatures = _base_curvature(ts, k_grid, *k_derivatives)
        k_mean = float(np.mean(curvatures))
        spread = _max(np.abs(curvatures - k_mean))

        if _max(np.abs(curvatures)) < CONSTANCY_TOL:
            c = f0
            k = -f1_0 / f0
            fit = _relative_fit_residual(f, c * np.exp(-k * ts))
            if fit < FIT_TOL:
                return ClassificationResult(FAMILY_SPRING, {"c": c, "k": k}, fit, 0.0)

        if spread < CONSTANCY_TOL * max(abs(k_mean), 1.0) and k_mean != 0.0:
            exponent = -2.0 / k_mean
            c1 = math.pow(f0, 1.0 / exponent)
            c2 = f1_0 / (exponent * math.pow(c1, exponent - 1.0))
            fit = _relative_fit_residual(f, np.power(c1 + c2 * ts, exponent))
            if fit < FIT_TOL:
                family = FAMILY_POWER_POS if k_mean > 0 else FAMILY_POWER_NEG
                return ClassificationResult(
                    family, {"c1": c1, "c2": c2, "K0": k_mean}, fit, k_mean
                )

    return ClassificationResult(FAMILY_GENERIC, {}, math.inf, None)
