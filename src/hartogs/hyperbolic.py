"""The model maps into the Beltrami-Klein disk, the completeness
criterion, and the holomorphic embedding of linear profiles into the
complex hyperbolic ball.

The slice surface is isometric to a subset of the Beltrami-Klein disk of
curvature -1/2 through

    Psi(u, v) = (tanh(psi(u)), v / (cosh(psi(u)) * sqrt(f(u^2)))),
    psi(u)    = integral_0^u sqrt(-kcond(s^2)) ds.

The domain is geodesically complete exactly when psi diverges at sqrt(b),
i.e. when the improper integral of the density is infinite.  A numerical
method cannot decide divergence in general, so the classifier estimates
the tail exponent on a geometric ladder and reports "unknown", with its
evidence, whenever the estimate is too close to the critical exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curvature import FAMILY_HYPERBOLIC, classify_profile
from .metric import (
    DomainPoint,
    OutsideDomainError,
    SlicePoint,
    domain_values,
    slice_values,
)
from .profile import Profile, kcond, not_pseudoconvex, on_grid, psi_value

VERDICT_COMPLETE = "complete"
VERDICT_INCOMPLETE = "incomplete"
VERDICT_UNKNOWN = "unknown"

# Tail exponent bands: the integral diverges at a finite endpoint when the
# integrand grows at least like 1/eps, and at infinity when it decays no
# faster than 1/u.  Estimates inside the ambiguous band give "unknown".
_FINITE_DIVERGENT_SLOPE = -0.98
_FINITE_CONVERGENT_SLOPE = -0.90
_INFINITE_DIVERGENT_SLOPE = -0.95
_INFINITE_CONVERGENT_SLOPE = -1.05
_SLOPE_SPREAD_TOL = 0.25


class ProfileFamilyError(ValueError):
    """Operation requires a profile from a specific family."""


def completeness_integrand(profile: Profile, u: float) -> float:
    """sqrt(-kcond(u^2)): the arc-length density of the u-axis, up to sqrt(2)."""
    return _density(u * u, kcond(profile, u * u))


def _density(t: float, k: float) -> float:
    if -k < 0.0:
        raise not_pseudoconvex(t)
    return math.sqrt(-k)


def psi(profile: Profile, u: float) -> float:
    """Odd, strictly increasing radial coordinate: the integral of the
    density from 0 to u, read off the profile's table of Gauss-Legendre
    panels graded toward sqrt(b), which the first call builds."""
    if not abs(u) < math.sqrt(profile.b):
        raise ValueError(f"|u|={abs(u)} outside (-sqrt(b), sqrt(b))")
    return psi_value(profile, u)[0]


def psi_map(profile: Profile, sp: SlicePoint) -> tuple[float, float]:
    """Isometry of the slice into the Beltrami-Klein disk."""
    _, (f,) = slice_values(profile, sp)
    p = psi(profile, sp.u)
    return math.tanh(p), sp.v / (math.cosh(p) * math.sqrt(f))


def psi_map_jacobian(profile: Profile, sp: SlicePoint):
    """Analytic differential of the disk map at (u, v), rows (dx, dy)."""
    _, (f, f1) = slice_values(profile, sp, "f1")
    p, dp = psi_value(profile, sp.u)
    sech = 1.0 / math.cosh(p)
    sqrt_f = math.sqrt(f)
    dx_du = dp * sech * sech
    dy_du = sp.v * sech * (-math.tanh(p) * dp / sqrt_f - sp.u * f1 / (f * sqrt_f))
    dy_dv = sech / sqrt_f
    return ((dx_du, 0.0), (dy_du, dy_dv))


@dataclass(frozen=True)
class CompletenessReport:
    """Divergence classification of the completeness integral with evidence."""

    verdict: str
    integral_value: float  # inf when divergent, nan when unknown
    diagnostics: dict


def _classify_tail(slopes: list[float], boundary: str) -> str:
    """Map tail slopes of the integrand to a verdict.

    ``boundary`` is "finite" (slopes measured against the distance to the
    endpoint) or "infinite" (slopes measured against u).
    """
    if len(slopes) < 3:
        return VERDICT_UNKNOWN
    tail = slopes[-3:]
    med = sorted(tail)[1]
    spread = max(tail) - min(tail)
    if spread > _SLOPE_SPREAD_TOL:
        return VERDICT_UNKNOWN
    if boundary == "finite":
        if med <= _FINITE_DIVERGENT_SLOPE:
            return VERDICT_COMPLETE
        if med >= _FINITE_CONVERGENT_SLOPE:
            return VERDICT_INCOMPLETE
        return VERDICT_UNKNOWN
    if med >= _INFINITE_DIVERGENT_SLOPE:
        return VERDICT_COMPLETE
    if med <= _INFINITE_CONVERGENT_SLOPE:
        return VERDICT_INCOMPLETE
    return VERDICT_UNKNOWN


def completeness(profile: Profile) -> CompletenessReport:
    """Classify the improper integral of the arc-length density.

    Divergent means geodesically complete.  For finite b the integrand is
    sampled on a geometric ladder approaching sqrt(b); for infinite b the
    ladder is geometric in u.  A convergent integral is psi at the last rung,
    read off the profile's psi table, plus the tail beyond it, C*x^s
    integrated in closed form with the ladder's own exponent s.
    """
    # Ladder of rungs u at x: x is the distance sqrt(b) - u to a finite
    # endpoint, or u itself toward infinity; slopes are taken against log x.
    if math.isfinite(profile.b):
        boundary, upper = "finite", math.sqrt(profile.b)
        x = upper * np.array([10.0 ** -j for j in range(2, 11)])
        u = upper - x
    else:
        boundary = "infinite"
        # kcond = l_1 + 2t*l_2 of the jets cancels from about u ~ 2^18, and
        # the slopes degrade into roundoff noise there; stop at 2^16.
        u = x = 2.0 ** np.arange(17.0)
    diagnostics: dict = {"boundary": boundary}
    (k,), errors = on_grid(profile, u * u, "kcond")  # every rung in one pass
    with np.errstate(invalid="ignore"):
        density = np.sqrt(-k)
    good = np.isfinite(density) & (density > 0.0)  # a point in errors is nan
    n = len(u) if good.all() else int(np.argmin(good))  # the rungs before the first failure
    if n < len(u):
        t = float(u[n] * u[n])
        if n in errors:
            reason = str(errors[n])
        elif k[n] > 0.0:
            reason = str(not_pseudoconvex(t))
        else:
            reason = f"value {density[n]}"
        diagnostics["evaluation_failures"] = [(float(u[n]), reason)]
    # math.log10 rounds as the slopes always have; np.log10 may differ in the last bit
    log_x, log_i = (np.array([math.log10(y) for y in z[:n]]) for z in (x, density))
    slopes = (np.diff(log_i) / np.diff(log_x)).tolist()
    verdict = _classify_tail(slopes, boundary)

    diagnostics["ladder_u"] = u[:n].tolist()
    diagnostics["ladder_integrand"] = density[:n].tolist()
    diagnostics["slopes"] = slopes

    if verdict == VERDICT_COMPLETE:
        return CompletenessReport(verdict, math.inf, diagnostics)
    if verdict == VERDICT_UNKNOWN:
        diagnostics["reason"] = "tail exponent estimate inconclusive"
        return CompletenessReport(verdict, math.nan, diagnostics)

    # psi up to the last rung, plus the integral of C*x^s beyond it, where s
    # is the exponent the verdict rests on and the bands keep |s + 1| >= 0.05
    tail = float(density[n - 1] * x[n - 1]) / abs(sorted(slopes[-3:])[1] + 1.0)
    diagnostics["tail"] = tail
    return CompletenessReport(verdict, psi_value(profile, float(u[n - 1]))[0] + tail, diagnostics)


# ---------------------------------------------------------------------------
# Embedding of the linear family into the unit ball

def hyperbolic_params(profile: Profile) -> tuple[float, float]:
    """(c1, c2) of a linear profile c1 - c2*t, or raise ProfileFamilyError."""
    result = classify_profile(profile)
    if result.family != FAMILY_HYPERBOLIC:
        raise ProfileFamilyError(
            f"profile classified as {result.family!r}; the ball embedding "
            "exists only for linear profiles"
        )
    return result.params["c1"], result.params["c2"]


def phi_embed(profile: Profile, point: DomainPoint) -> DomainPoint:
    """Rescale a point of a linear-profile domain into the unit ball.

    (z0, z_1, ..) -> (z0 / sqrt(c1/c2), z_1 / sqrt(c1), ..); a holomorphic
    isometry onto an open subset of the ball.
    """
    c1, c2 = hyperbolic_params(profile)
    domain_values(profile, point)
    scale0 = 1.0 / math.sqrt(c1 / c2)
    scale = 1.0 / math.sqrt(c1)
    image = DomainPoint(point.z0 * scale0, tuple(w * scale for w in point.z))
    norm_sq = abs(image.z0) ** 2 + sum(abs(w) ** 2 for w in image.z)
    if norm_sq >= 1.0:
        raise OutsideDomainError(f"image norm {math.sqrt(norm_sq)} not inside the unit ball")
    return image
