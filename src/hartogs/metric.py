"""Metric tensors on a Hartogs domain and on its totally geodesic slice.

The Kahler potential is -log(f(|z0|^2) - ||z||^2).  The Hermitian matrix
of second Wirtinger derivatives is assembled analytically; the real
Riemannian metric on real tangent vectors is 2*Re(h), the normalization
under which the slice {Im z0 = Im z1 = 0, z_j = 0} carries

    g = 2/(f - v^2)^2 * [[c, -f1*u*v], [-f1*u*v, f]],
    c = f1^2*u^2 - (f1 + f2*u^2)*(f - v^2),

with f, f1, f2 evaluated at t = u^2.  Its determinant is
det g * (f - v^2)^3 = -4 f^2 kcond, so the slice metric is non-degenerate
exactly where the profile is pseudoconvex.  ``slice_metric`` evaluates that
closed form; ``slice_metric_generic`` restricts the full Hermitian matrix
instead and exists purely as an independent cross-check of the closed form.

One rule decides "inside", for the domain, the slice and the Klein disk:
the gap f - ||z||^2 is at least GAP_REL * max(f, F_FLOOR), above the
rounding of f and with a normal square.  It is relative, as the geometry
is: (z0, z) -> (z0, mu*z) maps D_F onto D_(mu^2 F) and shifts the potential
by a constant.  So the metric jet is evaluated at the image of (u, v) under
z -> z / sqrt(f(u^2)), on the profile F / f(u^2), where f = 1 and the gap
lies in [GAP_REL, 1], and mapped back; no power of the gap can leave the
float range there.  F_FLOOR, the float64 floor of f itself, is the only
limit that depends on the scale of f.  ``normalized_slice_jet_values``
gives the entries of that jet as a tuple of floats, from which the slice
curvature is read directly; ``slice_metric_jet`` maps them back to sp and
wraps them in a ``SliceMetricJet``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profile import F_FLOOR, GAP_REL, Profile, not_pseudoconvex


class OutsideDomainError(ValueError):
    """Point on or outside the boundary of the domain or of the slice."""


@dataclass(frozen=True)
class SlicePoint:
    """Point (u, v) = (Re z0, Re z1) on the real slice surface."""

    u: float
    v: float


@dataclass(frozen=True)
class SliceMetric:
    """Symmetric 2x2 metric at a slice point."""

    g11: float
    g12: float
    g22: float

    @property
    def det(self) -> float:
        return self.g11 * self.g22 - self.g12 * self.g12

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])

    def inner(self, x, y) -> float:
        return (
            self.g11 * x[0] * y[0]
            + self.g12 * (x[0] * y[1] + x[1] * y[0])
            + self.g22 * x[1] * y[1]
        )


@dataclass(frozen=True)
class DomainPoint:
    """Point (z0, z) with z the (n-1)-vector of remaining coordinates."""

    z0: complex
    z: tuple[complex, ...]

    @property
    def n(self) -> int:
        return 1 + len(self.z)

    @staticmethod
    def origin(n: int) -> "DomainPoint":
        return DomainPoint(0j, (0j,) * (n - 1))


def _inside(gap: float, f: float) -> bool:
    """The interior rule: gap >= GAP_REL * max(f, F_FLOOR); nan is outside."""
    return gap >= GAP_REL * max(f, F_FLOOR)


def _gap_values(profile: Profile, x: float, r2: float, names, labels):
    """(f(x) - r2, (f, *named values at x)) from one jet, for a point
    strictly inside (see ``_inside``); labels name x, the point's failure
    and r2 in the errors."""
    x_name, failure, r2_name = labels
    if x >= profile.b:
        raise OutsideDomainError(f"{x_name} = {x} exceeds the bound b = {profile.b}")
    values = profile.values(x, "f", *names)
    gap = values[0] - r2
    if not _inside(gap, values[0]):
        raise OutsideDomainError(f"{failure} (f - {r2_name} = {gap})")
    return gap, values


def domain_values(profile: Profile, point: DomainPoint, *names: str):
    """(f(x) - ||z||^2, (f, *named values at x = |z0|^2)) from one jet, for
    a point strictly inside the domain."""
    return _gap_values(profile, abs(point.z0) ** 2, sum(abs(w) ** 2 for w in point.z), names,
                       ("|z0|^2", "point not strictly inside the domain", "||z||^2"))


def slice_values(profile: Profile, sp: SlicePoint, *names: str):
    """(f(u^2) - v^2, (f, *named values at t = u^2)) from one jet, for a
    point strictly inside the slice surface."""
    return _gap_values(profile, sp.u * sp.u, sp.v * sp.v, names,
                       ("u^2", "slice point not strictly inside the slice", "v^2"))


def potential(profile: Profile, point: DomainPoint) -> float:
    """Kahler potential -log(f(|z0|^2) - ||z||^2) at an interior point."""
    return -math.log(domain_values(profile, point)[0])


def hermitian_metric(profile: Profile, point: DomainPoint) -> np.ndarray:
    """Matrix h[i][j] of second Wirtinger derivatives of the potential.

    With x = |z0|^2 and g = f(x) - ||z||^2:

        h[0][0] = -(f1 + x f2)/g + f1^2 x / g^2
        h[0][j] = -f1 conj(z0) z_j / g^2          (j >= 1)
        h[i][j] = delta_ij / g + conj(z_i) z_j / g^2

    So off [0][0], h[i][j] = delta_ij / g + conj(w_i) w_j / g^2 with
    w = (-f1 z0, z), whose products are formed from real parts, so that h
    is exactly Hermitian.  Positive-definite at interior points of a valid
    profile.
    """
    if point.n != profile.n:
        raise ValueError(f"point has {point.n} coordinates, profile expects {profile.n}")
    gap, (_, f1, f2) = domain_values(profile, point, "f1", "f2")
    x = abs(point.z0) ** 2
    n = profile.n
    w = np.array((-f1 * point.z0, *point.z), dtype=complex)
    gap2 = gap * gap
    h = np.empty((n, n), dtype=complex)
    h.real = (np.outer(w.real, w.real) + np.outer(w.imag, w.imag)) / gap2 + np.eye(n) / gap
    h.imag = (np.outer(w.real, w.imag) - np.outer(w.imag, w.real)) / gap2
    h[0, 0] = -(f1 + x * f2) / gap + f1 * f1 * x / gap2
    return h


def slice_c(t, f1, f2, w):
    """c = f1^2 t - (f1 + f2 t) w, with g11 = 2c/w^2; floats or numpy arrays."""
    return f1 * f1 * t - (f1 + f2 * t) * w


def slice_metric(profile: Profile, sp: SlicePoint) -> SliceMetric:
    """Closed-form induced metric on the slice at (u, v)."""
    return slice_metric_from(sp, *slice_values(profile, sp, "f1", "f2"))


def slice_metric_from(sp: SlicePoint, w: float, values) -> SliceMetric:
    """The closed form at sp from the gap w = f - v^2 and (f, f1, f2) at u^2,
    floats or numpy arrays of them."""
    f, f1, f2 = values
    c = slice_c(sp.u * sp.u, f1, f2, w)
    w2 = w * w
    return SliceMetric(2.0 * c / w2, -2.0 * f1 * sp.u * sp.v / w2, 2.0 * f / w2)


def slice_metric_generic(profile: Profile, sp: SlicePoint) -> SliceMetric:
    """Slice metric obtained by restricting the full Hermitian matrix.

    Independent of the closed form: embeds (u, v) as (z0, z1) = (u, v),
    takes 2*Re of the leading 2x2 block.  Used for cross-validation only.
    """
    z = (complex(sp.v),) + (0j,) * (profile.n - 2)
    h = hermitian_metric(profile, DomainPoint(complex(sp.u), z))
    return SliceMetric(
        float(2.0 * h[0, 0].real),
        float(2.0 * h[0, 1].real),
        float(2.0 * h[1, 1].real),
    )


def beltrami_klein(x: float, y: float) -> SliceMetric:
    """Beltrami-Klein metric of curvature -1/2 on the unit disk."""
    w = 1.0 - x * x - y * y
    if not _inside(w, 1.0):
        raise OutsideDomainError(f"({x}, {y}) not inside the unit disk")
    w2 = w * w
    return SliceMetric(2.0 * (1.0 - y * y) / w2, 2.0 * x * y / w2, 2.0 * (1.0 - x * x) / w2)


@dataclass(frozen=True)
class SliceMetricJet(SliceMetric):
    """Slice metric entries with the analytic partials needed downstream.

    First derivatives feed the Christoffel symbols, the three second
    derivatives complete the data for the Gaussian curvature.  Everything
    is chained exactly through f, f1, f2, f3; no finite differences.
    """

    g11_u: float
    g11_v: float
    g12_u: float
    g12_v: float
    g22_u: float
    g22_v: float
    g11_vv: float
    g12_uv: float
    g22_uu: float


def normalized_slice_jet_values(profile: Profile, sp: SlicePoint) -> tuple[tuple, float]:
    """(entries, a): the 12 entries of the metric jet at (u, a*v), floats in
    the field order of SliceMetricJet, and a = 1/sqrt(f(u^2)); (u, a*v) is
    the image of sp on the profile F / f(u^2), where f = 1 and the gap is
    (f - v^2) / f.  The image is isometric to sp, so K may be read off
    these entries directly.  As det g * (f - v^2)^3 = -4 f^2 kcond, a point
    where kcond is not negative raises ArithmeticError naming its t."""
    w, (f, f1, f2, f3, k) = slice_values(profile, sp, "f1", "f2", "f3", "kcond")
    if not k < 0.0:
        raise not_pseudoconvex(sp.u * sp.u)
    a = 1.0 / math.sqrt(f)
    u, v, t = sp.u, sp.v * a, sp.u * sp.u
    w, f1, f2, f3 = w / f, f1 / f, f2 / f, f3 / f
    w2 = w * w
    w3 = w2 * w
    w4 = w2 * w2

    c = slice_c(t, f1, f2, w)
    c_u = 2.0 * u * (f1 * f2 * t - (2.0 * f2 + t * f3) * w)
    c_v = 2.0 * v * (f1 + f2 * t)
    c_vv = 2.0 * (f1 + f2 * t)
    d1 = f1 + 2.0 * t * f2
    tf1_2 = t * f1 * f1

    g11 = 2.0 * c / w2
    g12 = -2.0 * f1 * u * v / w2
    g22 = 2.0 / w2
    g11_u = 2.0 * c_u / w2 - 8.0 * u * f1 * c / w3
    g11_v = 2.0 * c_v / w2 + 8.0 * v * c / w3
    g12_u = -2.0 * v * d1 / w2 + 8.0 * tf1_2 * v / w3
    g12_v = -2.0 * f1 * u / w2 - 8.0 * f1 * u * v * v / w3
    g22_u = 4.0 * u * f1 / w2 - 8.0 * u * f1 / w3
    g22_v = 8.0 * v / w3
    g11_vv = 2.0 * c_vv / w2 + 16.0 * v * c_v / w3 + 8.0 * c / w3 + 48.0 * v * v * c / w4
    g12_uv = -2.0 * d1 / w2 - 8.0 * v * v * d1 / w3 + 8.0 * tf1_2 / w3 + 48.0 * tf1_2 * v * v / w4
    g22_uu = 4.0 * d1 / w2 - 32.0 * tf1_2 / w3 - 8.0 * d1 / w3 + 48.0 * tf1_2 / w4
    return (g11, g12, g22, g11_u, g11_v, g12_u, g12_v, g22_u, g22_v,
            g11_vv, g12_uv, g22_uu), a


# The number of v's among the indices and derivatives of each jet entry
_V_COUNTS = (0, 1, 2, 0, 1, 1, 2, 2, 3, 2, 2, 2)


def slice_metric_jet(profile: Profile, sp: SlicePoint) -> SliceMetricJet:
    """The metric jet at sp, mapped back from its normalized image: an entry
    with k v's among its indices and derivatives scales by a^k."""
    entries, a = normalized_slice_jet_values(profile, sp)
    return SliceMetricJet(*(x * a ** k for x, k in zip(entries, _V_COUNTS)))
