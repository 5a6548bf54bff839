"""Levi-Civita connection on the slice: Christoffel symbols, geodesics,
reduction of full-domain directions to the slice, and the straight-line
residuals that detect the complex-hyperbolic profiles.

Two independent routes to the Christoffel symbols are kept side by side:
``christoffel_closed`` evaluates explicit rational formulas in f..f3, and
``christoffel_generic`` applies the standard metric-derivative formula to
the analytic slice-metric jet.  The generic route is the ground truth the
closed forms are validated against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .metric import (
    SlicePoint,
    require_inside_slice,
    slice_metric,
    slice_metric_jet,
)
from .profile import Profile

DEGENERATE_DET_TOL = 1e-30
GEODESIC_RTOL = 1e-9
GEODESIC_ATOL = 1e-10
BOUNDARY_STOP = 1e-8
ESCAPE_RADIUS = 50.0
SAMPLES_PER_UNIT = 24.0
SCREEN_WINDOW = 2


class DegenerateMetricError(ArithmeticError):
    """Metric determinant vanished to working precision (near-boundary)."""


class GeodesicIntegrationError(RuntimeError):
    """The ODE solver failed before any stopping event triggered."""


@dataclass(frozen=True)
class ChristoffelSlice:
    """The six independent Christoffel symbols at a slice point."""

    G111: float
    G211: float
    G112: float
    G212: float
    G122: float
    G222: float


def _christoffel_closed_terms(profile: Profile, t: float, u: float, v: float):
    """(det, G111, G211, G112, G212, G222) at (u, v) with t = u^2.

    Total: a degenerate point gives det = 0 and nan symbols instead of an
    exception, so the geodesic right-hand side can probe trial steps just
    past the boundary (rejected by step control).
    """
    f = profile.f(t)
    f1 = profile.f1(t)
    f2 = profile.f2(t)
    f3 = profile.f3(t)
    w = f - v * v
    c = f1 * f1 * t - (f1 + f2 * t) * w
    w4 = w * w * w * w
    dw4 = 4.0 * (c * f - f1 * f1 * t * v * v)  # det * w^4
    if dw4 == 0.0 or w4 == 0.0:
        return (0.0,) + (math.nan,) * 5
    # The first bracket term carries a factor f1; dropping it breaks the
    # cross-validation against christoffel_generic.
    g111 = (-4.0 * u / dw4) * (
        t * f1 * (2.0 * f1 * f1 + v * v * f2)
        - f * (v * v - f) * (2.0 * f2 + t * f3)
        - f * f1 * (2.0 * f1 + 3.0 * t * f2)
    )
    # det * (v^2 - f)^3 = -dw4 / w
    g211 = (-4.0 * t * v * w / dw4) * (-t * f2 * f2 + f1 * (f2 + t * f3))
    core = -t * f1 * f1 + f * (f1 + t * f2)
    g112 = (-4.0 * v / dw4) * core
    g212 = (4.0 * u * f1 / dw4) * core
    g222 = (-8.0 * v / dw4) * core
    return dw4 / w4, g111, g211, g112, g212, g222


def christoffel_closed(profile: Profile, sp: SlicePoint) -> ChristoffelSlice:
    """Closed-form Christoffel symbols of the slice metric at (u, v)."""
    require_inside_slice(profile, sp)
    det, g111, g211, g112, g212, g222 = _christoffel_closed_terms(
        profile, sp.u * sp.u, sp.u, sp.v
    )
    if det <= DEGENERATE_DET_TOL:
        raise DegenerateMetricError(f"metric degenerate at (u, v)=({sp.u}, {sp.v}), det={det}")
    return ChristoffelSlice(g111, g211, g112, g212, 0.0, g222)


def christoffel_generic(profile: Profile, sp: SlicePoint) -> ChristoffelSlice:
    """Christoffel symbols from the metric jet via the standard formula.

    Independent of the closed forms; serves as their oracle.
    """
    jet = slice_metric_jet(profile, sp)
    det = jet.det
    if det <= DEGENERATE_DET_TOL:
        raise DegenerateMetricError(f"metric degenerate at {sp}, det={det}")
    ginv = np.array([[jet.g22, -jet.g12], [-jet.g12, jet.g11]]) / det
    dg = np.empty((2, 2, 2))  # dg[l][i][j] = d g_ij / d x_l
    dg[0] = [[jet.g11_u, jet.g12_u], [jet.g12_u, jet.g22_u]]
    dg[1] = [[jet.g11_v, jet.g12_v], [jet.g12_v, jet.g22_v]]
    gamma = np.zeros((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                total = 0.0
                for l in range(2):
                    total += ginv[k, l] * (dg[i][j, l] + dg[j][i, l] - dg[l][i, j])
                gamma[k, i, j] = 0.5 * total
    return ChristoffelSlice(
        gamma[0, 0, 0],
        gamma[1, 0, 0],
        gamma[0, 0, 1],
        gamma[1, 0, 1],
        gamma[0, 1, 1],
        gamma[1, 1, 1],
    )


# ---------------------------------------------------------------------------
# Geodesic integration

@dataclass(frozen=True, eq=False)
class GeodesicTrace:
    """Arc-length sampled geodesic with per-sample tangent and energy."""

    s: np.ndarray         # (N,) strictly increasing arc length
    points: np.ndarray    # (N, 2) slice coordinates
    tangents: np.ndarray  # (N, 2)
    energies: np.ndarray  # (N,) measured g(gamma', gamma')
    energy: float         # nominal first integral (1.0 for unit speed)
    boundary_hit: bool

    def __len__(self):
        return len(self.s)


def integrate_geodesic(
    profile: Profile,
    start: SlicePoint,
    direction,
    length: float,
) -> GeodesicTrace:
    """Integrate the geodesic equations on the slice, unit-speed normalized.

    Embedded Runge-Kutta 4(5) with dense output; stops early, with the
    boundary flag set, when f(u^2) - v^2 falls below BOUNDARY_STOP * f(0),
    when u^2 approaches a finite bound b, or when the coordinates escape
    beyond ESCAPE_RADIUS (incomplete domains reach infinity in finite
    arc length).  The trace is resampled at SAMPLES_PER_UNIT points per
    unit of arc length.
    """
    require_inside_slice(profile, start)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (2,) or not np.all(np.isfinite(direction)):
        raise ValueError("direction must be a finite 2-vector")
    if not np.any(direction):
        raise ValueError("direction must be nonzero")
    if not length > 0:
        raise ValueError("length must be positive")

    g0 = slice_metric(profile, start)
    speed_sq = g0.inner(direction, direction)
    if speed_sq <= 0:
        raise DegenerateMetricError("metric not positive along the initial direction")
    unit = direction / math.sqrt(speed_sq)

    b = profile.b
    t_cap = None if math.isinf(b) else b * (1.0 - 1e-12)
    guard_abs = BOUNDARY_STOP * profile.f(0.0)

    def clamped_t(u: float) -> float:
        t = u * u
        if t_cap is not None and t > t_cap:
            return t_cap  # trial steps may probe past the bound; keep f evaluable
        return t

    def rhs(_s, y):
        u, v, du, dv = y
        _det, g111, g211, g112, g212, g222 = _christoffel_closed_terms(
            profile, clamped_t(u), u, v
        )
        ddu = -(g111 * du * du + 2.0 * g112 * du * dv)
        ddv = -(g211 * du * du + 2.0 * g212 * du * dv + g222 * dv * dv)
        return (du, dv, ddu, ddv)

    def boundary_event(_s, y):
        u, v = y[0], y[1]
        return profile.f(clamped_t(u)) - v * v - guard_abs

    boundary_event.terminal = True
    boundary_event.direction = -1
    events = [boundary_event]

    if t_cap is not None:
        def bound_event(_s, y):
            return t_cap * (1.0 - 1e-6) - y[0] * y[0]

        bound_event.terminal = True
        bound_event.direction = -1
        events.append(bound_event)

    def escape_event(_s, y):
        return ESCAPE_RADIUS * ESCAPE_RADIUS - (y[0] * y[0] + y[1] * y[1])

    escape_event.terminal = True
    escape_event.direction = -1
    events.append(escape_event)

    y0 = (start.u, start.v, unit[0], unit[1])
    sol = solve_ivp(
        rhs,
        (0.0, length),
        y0,
        method="RK45",
        rtol=GEODESIC_RTOL,
        atol=GEODESIC_ATOL,
        dense_output=True,
        events=events,
    )
    if sol.status == -1:
        raise GeodesicIntegrationError(
            f"integration failed at s={sol.t[-1]}, state={sol.y[:, -1]}: {sol.message}"
        )
    boundary_hit = sol.status == 1
    s_end = sol.t[-1]
    n_samples = max(8, int(round(SAMPLES_PER_UNIT * s_end)) + 1)
    s_grid = np.linspace(0.0, s_end, n_samples)
    states = sol.sol(s_grid)
    points = states[:2].T.copy()
    tangents = states[2:].T.copy()
    energies = np.empty(n_samples)
    for i in range(n_samples):
        g = slice_metric(profile, SlicePoint(points[i, 0], points[i, 1]))
        energies[i] = g.inner(tangents[i], tangents[i])
    return GeodesicTrace(
        s=s_grid,
        points=points,
        tangents=tangents,
        energies=energies,
        energy=1.0,
        boundary_hit=boundary_hit,
    )


# ---------------------------------------------------------------------------
# Reduction of full-domain directions to the slice

@dataclass(frozen=True, eq=False)
class SliceReduction:
    """The rotation (phase on z0, unitary on z) that carries a tangent at
    the origin into the tangent plane of the slice."""

    theta: float
    unitary: np.ndarray  # (n-1, n-1) complex

    def apply_direction(self, direction) -> np.ndarray:
        direction = np.asarray(direction, dtype=complex)
        out = np.empty_like(direction)
        out[0] = cmath.exp(1j * self.theta) * direction[0]
        out[1:] = self.unitary @ direction[1:]
        return out

    def lift_point(self, u: float, v: float) -> np.ndarray:
        """Inverse rotation applied to the slice point (u, v*e1)."""
        n = self.unitary.shape[0] + 1
        out = np.zeros(n, dtype=complex)
        out[0] = cmath.exp(-1j * self.theta) * u
        out[1:] = v * np.conj(self.unitary[0, :])
        return out


def reduce_to_slice(direction) -> tuple[np.ndarray, SliceReduction]:
    """Split an origin tangent (w0, w) into the slice direction (|w0|, ||w||)
    and the rotation mapping it into the slice tangent plane.

    The unitary is the Householder-style map sending w/||w|| to the first
    basis vector, phased so the image is real positive; this fixes the
    output deterministically.
    """
    direction = np.asarray(direction, dtype=complex)
    if direction.ndim != 1 or len(direction) < 2:
        raise ValueError("direction must have at least two complex components")
    w0 = complex(direction[0])
    w = direction[1:]
    norm_w = float(np.linalg.norm(w))
    if w0 == 0 and norm_w == 0.0:
        raise ValueError("direction must be nonzero")
    theta = -cmath.phase(w0) if w0 != 0 else 0.0
    m = len(w)
    if norm_w == 0.0:
        unitary = np.eye(m, dtype=complex)
    else:
        a = w / norm_w
        phase = cmath.phase(a[0]) if a[0] != 0 else 0.0
        a_rot = a * cmath.exp(-1j * phase)
        e1 = np.zeros(m, dtype=complex)
        e1[0] = 1.0
        vvec = a_rot - e1
        vnorm_sq = float(np.real(np.vdot(vvec, vvec)))
        if vnorm_sq < 1e-30:
            unitary = np.eye(m, dtype=complex) * cmath.exp(-1j * phase)
        else:
            householder = np.eye(m, dtype=complex) - 2.0 * np.outer(vvec, np.conj(vvec)) / vnorm_sq
            unitary = householder * cmath.exp(-1j * phase)
    return np.array([abs(w0), norm_w]), SliceReduction(theta, unitary)


# ---------------------------------------------------------------------------
# Self-intersection screening

@dataclass(frozen=True)
class SelfIntersectionReport:
    passed: bool
    min_distance: float
    min_pair: tuple[int, int]
    threshold_at_min: float


def _segment_distances(a1, b1, a2, b2):
    """Pairwise minimum distances between segments [a1,b1] and [a2,b2].

    Vectorized closest-point computation with clamped parameters; inputs
    are (..., 2) arrays of endpoints.
    """
    d1 = b1 - a1
    d2 = b2 - a2
    r = a1 - a2
    aa = np.sum(d1 * d1, axis=-1)
    ee = np.sum(d2 * d2, axis=-1)
    ff = np.sum(d2 * r, axis=-1)
    cc = np.sum(d1 * r, axis=-1)
    bb = np.sum(d1 * d2, axis=-1)
    denom = aa * ee - bb * bb
    aa_safe = np.where(aa > 0, aa, 1.0)
    ee_safe = np.where(ee > 0, ee, 1.0)
    denom_safe = np.where(denom > 1e-300, denom, 1.0)
    s = np.where(denom > 1e-300, np.clip((bb * ff - cc * ee) / denom_safe, 0.0, 1.0), 0.0)
    t = (bb * s + ff) / ee_safe
    t_clamped = np.clip(t, 0.0, 1.0)
    s = np.where(t != t_clamped, np.clip((bb * t_clamped - cc) / aa_safe, 0.0, 1.0), s)
    closest1 = a1 + s[..., None] * d1
    closest2 = a2 + t_clamped[..., None] * d2
    return np.linalg.norm(closest1 - closest2, axis=-1)


def self_intersection_check(
    trace: GeodesicTrace, guard: float = 0.5
) -> SelfIntersectionReport:
    """Screen a polyline trace for self-intersections.

    Computes the minimum distance between every pair of non-adjacent
    segments (index gap larger than SCREEN_WINDOW) and passes when each pair
    stays farther apart than guard times the local sample spacing.
    """
    if len(trace) < 4:
        raise ValueError("trace needs at least 4 samples for the screen")
    pts = trace.points
    seg_a = pts[:-1]
    seg_b = pts[1:]
    seg_len = np.linalg.norm(seg_b - seg_a, axis=1)
    n_seg = len(seg_a)
    idx_i, idx_j = np.triu_indices(n_seg, k=SCREEN_WINDOW + 1)
    if len(idx_i) == 0:
        return SelfIntersectionReport(True, math.inf, (-1, -1), 0.0)
    dists = _segment_distances(seg_a[idx_i], seg_b[idx_i], seg_a[idx_j], seg_b[idx_j])
    # local sample spacing of a pair: the finer of the two segments, so that
    # a long far-away segment cannot dominate the threshold of a short one
    spacing = np.minimum(seg_len[idx_i], seg_len[idx_j])
    margin = dists - guard * spacing
    worst = int(np.argmin(margin))
    return SelfIntersectionReport(
        passed=bool(np.all(margin > 0.0)),
        min_distance=float(dists[worst]),
        min_pair=(int(idx_i[worst]), int(idx_j[worst])),
        threshold_at_min=float(guard * spacing[worst]),
    )


# ---------------------------------------------------------------------------
# Straight-line residuals

def residual_ode(profile: Profile, t: float) -> float:
    """r(t) = t^2 f2^2 + f (2 f2 + t f3) - f1 (2 t f2 + t^2 f3).

    Vanishes identically exactly when the profile is linear, i.e. when
    lines through the origin of the slice are geodesic traces.
    """
    if not 0.0 <= t < profile.b:
        raise ValueError(f"t={t} outside the profile range [0, {profile.b})")
    f = profile.f(t)
    f1 = profile.f1(t)
    f2 = profile.f2(t)
    f3 = profile.f3(t)
    return t * t * f2 * f2 + f * (2.0 * f2 + t * f3) - f1 * (2.0 * t * f2 + t * t * f3)


def straightline_residual(profile: Profile, k: float, u: float) -> float:
    """Geodesic defect of the line v = k*u at the point (u, k*u).

    The combination G211 + k(2 G212 - G111) + k^2 (G222 - 2 G112) - k^3 G122
    of Christoffel symbols; zero for all (k, u) exactly when the line is a
    geodesic trace.
    """
    ch = christoffel_closed(profile, SlicePoint(u, k * u))
    return (
        ch.G211
        + k * (2.0 * ch.G212 - ch.G111)
        + k * k * (ch.G222 - 2.0 * ch.G112)
        - k * k * k * ch.G122
    )


def straightline_residual_algebraic(profile: Profile, k: float, u: float) -> float:
    """Algebraic form of the straight-line defect: -4ku r(u^2) / (D (k^2u^2 - f)^3).

    D is the metric determinant at (u, k*u).  Equal to
    ``straightline_residual``; kept separate as an independent check.
    """
    v = k * u
    require_inside_slice(profile, SlicePoint(u, v))
    t = u * u
    f = profile.f(t)
    f1 = profile.f1(t)
    f2 = profile.f2(t)
    w = f - v * v
    c = f1 * f1 * t - (f1 + f2 * t) * w
    det = 4.0 * (c * f - f1 * f1 * t * v * v) / (w * w * w * w)
    denom = det * (k * k * u * u - f) ** 3
    return -4.0 * k * u * residual_ode(profile, t) / denom
