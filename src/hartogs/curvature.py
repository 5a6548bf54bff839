"""Curvature computations and the profile family classification.

The Gaussian curvature of the slice is evaluated with the Brioschi formula
on the analytic metric jet of the point's normalized image, whose entries
one jet walk gives as plain floats (``normalized_slice_jet_values``); for
every valid profile it comes out -1/2 to near machine precision.  The base
surface {z = 0} carries the conformal metric with density -2*kcond.  Its
curvature, (mu' + x*mu'')/kcond with mu = log(-kcond), needs kcond, kcond'
and kcond'', which the profile's order-4 jet gives from the coefficients of
log f.  Both grid reports read f..f3 and these off one jet of their grid,
which the profile keeps per grid size (``Profile.report_jet``), so
whichever runs second walks nothing.  The classifier: flat base <->
c*exp(-k t), constant K0 != 0 <-> (c1 + c2 t)^(-2/K0), and the vanishing of
the straight-line residual singles out the linear profiles of the
complex-hyperbolic case.  As (z0, z) -> (z0, mu*z) maps D_F onto
D_(mu^2 F) isometrically, both reports test g = f/f(0), raise
ArithmeticError unless 0 < f(0) < inf and kcond < 0 on the grid, and map
back to f: c and c1 - c2*t scale with f(0), (c1 + c2*t)^p with f(0)^(1/p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection import residual_terms
from .metric import SlicePoint, normalized_slice_jet_values
from .profile import Profile, _check_range

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
# Points of the Chebyshev grid the two reports read by default.
REPORT_GRID = 64


def brioschi_curvature(jet) -> float:
    """Brioschi formula for the Gaussian curvature of a 2D metric.

    ``jet`` provides g11, g12, g22 and the partials g11_u, g11_v, g11_vv,
    g12_u, g12_v, g12_uv, g22_u, g22_v, g22_uu.
    """
    return _brioschi(jet.g11, jet.g12, jet.g22, jet.g11_u, jet.g11_v, jet.g12_u, jet.g12_v,
                     jet.g22_u, jet.g22_v, jet.g11_vv, jet.g12_uv, jet.g22_uu)


def _brioschi(g11, g12, g22, g11_u, g11_v, g12_u, g12_v, g22_u, g22_v, g11_vv, g12_uv, g22_uu):
    # (det m1 - det m2) / det^2, each 3x3 determinant expanded along its
    # first row, with m1 = [[a, b, c], [d, g11, g12], [e, g12, g22]] and
    # m2 = [[0, p, q], [p, g11, g12], [q, g12, g22]]
    det = g11 * g22 - g12 * g12
    a, b, c = -0.5 * g11_vv + g12_uv - 0.5 * g22_uu, 0.5 * g11_u, g12_u - 0.5 * g11_v
    d, e = g12_v - 0.5 * g22_u, 0.5 * g22_v
    p, q = 0.5 * g11_v, 0.5 * g22_u
    det1 = a * det - b * (d * g22 - g12 * e) + c * (d * g12 - g11 * e)
    det2 = 0.0 * det - p * (p * g22 - g12 * q) + q * (p * g12 - g11 * q)
    return (det1 - det2) / (det * det)


def gauss_curvature_slice(profile: Profile, sp: SlicePoint) -> float:
    """Gaussian curvature of the slice at (u, v), from the jet entries of
    its normalized image; ArithmeticError where kcond(u^2) is not negative."""
    return _brioschi(*normalized_slice_jet_values(profile, sp)[0])


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
    Einstein.  Raises ArithmeticError where kcond(x) is not negative.
    """
    _check_range(profile, x)
    f, k = profile.values(x, "f", "kcond")
    if k >= 0.0:
        raise ArithmeticError(f"base metric degenerate at x={x} (density {-2.0 * k})")
    return -f * f * k


@dataclass(frozen=True)
class EinsteinReport:
    is_einstein: bool
    max_relative_variation: float
    mean_value: float


def _report_grid(profile: Profile, grid: int, *names: str):
    """(ts, values at 0, values): the named values on the reports'
    Chebyshev grid, ts[0] = 0, read off the profile's report jet, with
    f..f3 divided by f(0) in the last.  The first name is "f"; raises
    ArithmeticError unless 0 < f(0) < inf, then where kcond >= 0 on the
    grid.  Called under np.errstate(all="ignore")."""
    ts, rows = profile.report_jet(grid)
    values = [rows[name] for name in names]
    at_0 = [x.item(0) for x in values]
    f0 = at_0[0]
    if not 0.0 < f0 < math.inf:  # else g is -f, or nan
        raise ArithmeticError(f"f(0) = {f0}; the reports need it positive and finite")
    bad = np.flatnonzero(rows["kcond"] >= 0.0)
    if bad.size:  # raise what gauss_curvature_base raises at the first bad point
        gauss_curvature_base(profile, float(ts[bad[0]]))
    return ts, at_0, [x / f0 if name[0] == "f" else x for name, x in zip(names, values)]


def einstein_check(profile: Profile, grid: int = REPORT_GRID) -> EinsteinReport:
    """Test constancy of the determinant invariant J / f(0)^2 on a grid."""
    with np.errstate(all="ignore"):  # inf and nan pass on, as in float arithmetic
        _, (f0, _), (g, k) = _report_grid(profile, grid, "f", "kcond")
        values = -g * g * k  # monge_ampere_J / f(0)^2
        mean = float(values.mean())
        variation = float(np.abs(values - mean).max()) / abs(mean)
    return EinsteinReport(variation < CONSTANCY_TOL, variation, mean * f0 * f0)


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


def classify_profile(profile: Profile, grid: int = REPORT_GRID) -> ClassificationResult:
    """Decide which family the profile belongs to.

    Order matters: linear profiles also have constant base curvature, so
    the straight-line residual test runs first; a flat base then
    identifies the exponential family, a nonzero constant base curvature
    the power families, anything else is generic.  A candidate family is
    only accepted when the reconstructed profile matches on the grid.
    """
    with np.errstate(all="ignore"):  # inf and nan pass on, as in float arithmetic
        ts, (f0, f1_0, *_), (g, g1, g2, g3, k_grid, *k_derivatives) = _report_grid(
            profile, grid, "f", "f1", "f2", "f3", "kcond", "kcond1", "kcond2")
        g1_0 = g1.item(0)  # ts[0] = 0, where g = 1
        residual_max = _max(np.abs(residual_terms(ts, g, g1, g2, g3)))
        tt, abs_g2, abs_g3 = ts * ts, np.abs(g2), np.abs(g3)
        residual_scale = _max(
            tt * g2 * g2 + np.abs(g) * (2.0 * abs_g2 + ts * abs_g3)
            + np.abs(g1) * (2.0 * ts * abs_g2 + tt * abs_g3)
        )
        if residual_max <= RESIDUAL_TOL * residual_scale:
            fit = _relative_fit_residual(g, 1.0 + g1_0 * ts)
            if fit < FIT_TOL:
                return ClassificationResult(
                    FAMILY_HYPERBOLIC, {"c1": f0, "c2": -f1_0}, fit, None
                )

        curvatures = _base_curvature(ts, k_grid, *k_derivatives)
        k_mean = float(curvatures.mean())
        spread = _max(np.abs(curvatures - k_mean))

        if _max(np.abs(curvatures)) < CONSTANCY_TOL:
            fit = _relative_fit_residual(g, np.exp(g1_0 * ts))
            if fit < FIT_TOL:
                return ClassificationResult(FAMILY_SPRING, {"c": f0, "k": -g1_0}, fit, 0.0)

        if spread < CONSTANCY_TOL * max(abs(k_mean), 1.0) and k_mean != 0.0:
            exponent = -2.0 / k_mean
            c2 = g1_0 / exponent  # of g = (1 + c2*t)^exponent
            fit = _relative_fit_residual(g, np.power(1.0 + c2 * ts, exponent))
            if fit < FIT_TOL:
                family = FAMILY_POWER_POS if k_mean > 0 else FAMILY_POWER_NEG
                c1 = float(np.power(f0, 1.0 / exponent))
                return ClassificationResult(
                    family, {"c1": c1, "c2": c1 * c2, "K0": k_mean}, fit, k_mean
                )

    return ClassificationResult(FAMILY_GENERIC, {}, math.inf, None)
