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

from .metric import (
    OutsideDomainError,
    SlicePoint,
    require_inside_slice,
    slice_c,
    slice_metric,
    slice_metric_jet,
)
from .profile import GAP_REL, Profile, density, on_grid, psi_increment

DEGENERATE_DET_TOL = 1e-30
SAMPLES_PER_UNIT = 24.0
SCREEN_WINDOW = 2


class DegenerateMetricError(ArithmeticError):
    """Metric determinant vanished to working precision (near-boundary)."""


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
    exception.  Only the RK45 oracle of the tests relies on that: its
    right-hand side probes trial steps just past the boundary, which step
    control rejects.
    """
    f = profile.f(t)
    f1 = profile.f1(t)
    f2 = profile.f2(t)
    f3 = profile.f3(t)
    w = f - v * v
    c = slice_c(t, f1, f2, w)
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
# Geodesics as Beltrami-Klein chords
#
# The disk map Psi(u, v) = (tanh psi, eta / cosh psi), eta = v / sqrt(f(u^2)),
# is an isometry onto part of the Klein disk of curvature -1/2, where every
# geodesic is a straight chord.  On the hyperboloid X0^2 - X1^2 - X2^2 = 1
# over the disk, Psi lifts to X = (cosh psi, sinh psi, eta) / sqrt(1 - eta^2),
# and the chord at arc length s is
#
#     X(sigma) = (e^sigma A + e^-sigma B) / 2,    sigma = s / sqrt(2),
#
# with the light-like A = P + T and B = P - T made of the start P and the
# unit tangent T.  So psi = (log(X0 + X1) - log(X0 - X1)) / 2, eta =
# X2 / sqrt(X0^2 - X1^2) and the gap (f - v^2) / f = 1 / (X0^2 - X1^2) come
# from sums of exponentials, without cancellation, and u from psi by marching
# the inverse of psi.  The chord meets the edge |u| = u_edge where psi =
# +-psi(u_edge), and the rim where X0^2 - X1^2 = 1 / GAP_REL.

_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)
# A marched sample is accepted once Newton's remainder on psi is below this.
PSI_TOL = 1e-11
# Newton's step is trusted once the residual on psi is below this.
_NEWTON_RESIDUAL = 1e-4
_MARCH_STEPS = 60


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


def _minkowski(x, y) -> float:
    return x[0] * y[0] - x[1] * y[1] - x[2] * y[2]


def _light_cone_logs(vec) -> tuple[float, float]:
    """log(V0 + V1) and log(V0 - V1) of a light-like V; the smaller of the
    two comes from V0^2 - V1^2 = V2^2, so that it does not cancel."""
    big = vec[0] + abs(vec[1])
    if not big > 0.0:  # P - T cancels at a start within rounding of the rim
        raise OutsideDomainError("start too close to the slice boundary to follow in float64")
    small = vec[2] * vec[2] / big
    logs = (math.log(big), math.log(small) if small > 0.0 else -math.inf)
    return logs if vec[1] >= 0.0 else logs[::-1]


class _Chord:
    """The chord of a geodesic, from psi and eta at the start and their
    derivatives along the unit tangent."""

    def __init__(self, psi0: float, eta0: float, dpsi0: float, deta0: float):
        kappa = 1.0 / math.sqrt(1.0 - eta0 * eta0)
        lift = np.array([math.cosh(psi0), math.sinh(psi0), eta0])
        start = kappa * lift
        motion = kappa * np.array([lift[1] * dpsi0, lift[0] * dpsi0, deta0])
        motion += kappa ** 3 * eta0 * deta0 * lift
        motion -= _minkowski(motion, start) * start
        tangent = motion / math.sqrt(-_minkowski(motion, motion))
        self.a2, self.b2 = start[2] + tangent[2], start[2] - tangent[2]
        # log(A0 + A1), log(A0 - A1) and the same for B
        self.log_a = _light_cone_logs(start + tangent)
        self.log_b = _light_cone_logs(start - tangent)

    def at(self, s: np.ndarray):
        """psi, eta, their derivatives in s and the relative slice gap
        (f - v^2) / f at the arc lengths s."""
        sigma = s / _SQRT2
        logs, rates = [], []
        for log_a, log_b in zip(self.log_a, self.log_b):
            grow, decay = log_a + sigma, log_b - sigma
            logs.append(np.logaddexp(grow, decay) - _LOG2)  # log(X0 +- X1)
            rates.append(np.tanh(0.5 * (grow - decay)))     # its sigma-derivative
        psi = 0.5 * (logs[0] - logs[1])
        log_norm = 0.5 * (logs[0] + logs[1])  # log sqrt(X0^2 - X1^2)
        grow = 0.5 * self.a2 * np.exp(sigma - log_norm)
        decay = 0.5 * self.b2 * np.exp(-sigma - log_norm)
        eta = grow + decay
        dpsi = 0.5 * (rates[0] - rates[1]) / _SQRT2
        deta = (grow - decay - 0.5 * eta * (rates[0] + rates[1])) / _SQRT2
        return psi, eta, dpsi, deta, np.exp(-2.0 * log_norm)

    def cut(self, level: float) -> float:
        """Arc length at which psi reaches level, or inf if it does not.

        Solves (X0 + X1) = e^(2 level) (X0 - X1) for e^(2 sigma), in logs
        so that nothing overflows.
        """
        ahead = 0 if level > 0.0 else 1  # the sign of X1 the chord runs to
        two_l = 2.0 * abs(level)
        num = math.exp(self.log_b[1 - ahead]) - math.exp(self.log_b[ahead] - two_l)
        den = math.exp(self.log_a[ahead]) - math.exp(self.log_a[1 - ahead] + two_l)
        if not (num > 0.0 and den > 0.0):
            return math.inf
        return _SQRT2 * 0.5 * (two_l + math.log(num) - math.log(den))

    def rim(self, norm_sq: float) -> float:
        """Arc length at which X0^2 - X1^2 grows to norm_sq, 0 if it starts
        there.  4 (X0^2 - X1^2) = a z + C + c / z in z = e^(2 sigma), with
        a = A2^2, c = B2^2 and C = (A0 + A1)(B0 - B1) + (A0 - A1)(B0 + B1).
        """
        a, c = self.a2 * self.a2, self.b2 * self.b2
        mid = 4.0 * norm_sq - math.exp(self.log_a[0] + self.log_b[1]) \
            - math.exp(self.log_a[1] + self.log_b[0])
        if not mid > a + c:  # 4 (X0^2 - X1^2) = a + C + c at the start
            return 0.0
        root = mid + math.sqrt(mid * mid - 4.0 * a * c)  # 2 a z at the larger root
        return _SQRT2 * 0.5 * math.log(root / (2.0 * a)) if a > 0.0 else math.inf


class _PsiMarch:
    """The inverse of psi along a chord, marched sample by sample.

    psi is monotone along a chord.  Each sample solves psi(u) = target by a
    safeguarded Newton iteration: psi_increment from the last point where
    psi was integrated, the density as the derivative, a cubic Hermite
    predictor through the last two samples, and a bracket that reaches out
    to +-u_lim, past every target.
    """

    def __init__(self, profile: Profile, u: float, psi0: float, u_lim: float):
        self.profile = profile
        self.u_lim = u_lim
        self.base = (u, psi0, density(profile, u))  # psi integrated here
        self.last = self.base  # (u, psi, density) of the last sample
        self.before = None     # the same of the sample before it

    def step(self, target: float) -> tuple[float, float]:
        """(u, density at u) with psi(u) = target."""
        profile = self.profile
        ub, pb, rb = self.base
        if target == pb:
            return ub, rb
        lo, hi = (ub, self.u_lim) if target > pb else (-self.u_lim, ub)
        u1, p1, r1 = self.last
        dp = target - p1
        u = u1 + dp / r1 if r1 > 0.0 else u1
        if self.before is not None and r1 > 0.0 and self.before[2] > 0.0 \
                and self.before[1] != p1:
            # cubic Hermite through the last two samples, u as a function of psi
            u0, p0, r0 = self.before
            h = p0 - p1
            gap = (u0 - u1 - h / r1) / h
            cubic = (1.0 / r0 - 1.0 / r1 - 2.0 * gap) / (h * h)
            u += dp * dp * (gap / h - cubic * h + cubic * dp)
        if not lo < u < hi and rb > 0.0:  # the base lies past the last sample
            u = ub + (target - pb) / rb
        for steps in range(1, _MARCH_STEPS + 1):
            if not lo < u < hi:
                u = 0.5 * (lo + hi)
            p = pb + psi_increment(profile, ub, u)
            r = density(profile, u)
            if p < target:
                lo = u
            elif p > target:
                hi = u
            residual = target - p
            delta = residual / r if r > 0.0 else math.inf
            new = u + delta
            slope = (r - rb) / (u - ub) if u != ub else math.inf
            if delta == 0.0 or steps == _MARCH_STEPS or (
                    lo <= new <= hi and abs(residual) <= _NEWTON_RESIDUAL
                    and 0.5 * abs(slope) * delta * delta <= PSI_TOL):
                rho = density(profile, new)
                self.base = (u, p, r)
                self.before = self.last
                self.last = (new, target, rho)
                return new, rho
            if abs(residual) > _NEWTON_RESIDUAL and abs(delta) < 1e-6 * (hi - lo):
                new = 0.5 * (lo + hi)  # Newton crawls on the steep side of a bound
            u = new


def _chord_samples(profile: Profile, chord: _Chord, march: _PsiMarch, s, u_end):
    """Points, tangents and energies at the arc lengths s; u_end, unless
    None, is the u of the last sample, where the chord crosses the edge."""
    psi, eta, dpsi, deta, gap = chord.at(s)
    steps = [march.step(target) for target in (psi if u_end is None else psi[:-1])]
    if u_end is not None:
        steps.append((u_end, density(profile, u_end)))
    u, rho = np.array(steps).T
    t = u * u
    (f, f1, f2), errors = on_grid(profile, t, "f", "f1", "f2")
    if errors:
        raise errors[min(errors)]
    sqrt_f = np.sqrt(f)
    w = f * gap
    v = eta * sqrt_f
    # near the rim eta carries more rounding than the gap left to it, while
    # f - w keeps v^2 below f in float64
    near = gap < 0.5
    v[near] = np.copysign(np.sqrt(f[near] - w[near]), eta[near])
    du = dpsi / rho
    dv = sqrt_f * (deta + eta * u * (f1 / f) * du)
    energies = 2.0 / (w * w) * (
        slice_c(t, f1, f2, w) * du * du - 2.0 * f1 * u * v * du * dv + f * dv * dv
    )
    return np.column_stack((u, v)), np.column_stack((du, dv)), energies


def integrate_geodesic(
    profile: Profile,
    start: SlicePoint,
    direction,
    length: float,
) -> GeodesicTrace:
    """The unit-speed geodesic from start along direction, in closed form.

    The geodesic is the chord of the Beltrami-Klein image (see above).  Its
    end s_end is decided before it is sampled, as the least of length and
    two exits, each solved in closed form on the chord:

    - the edge, where |u| reaches u_edge of ``Profile.edge`` (ESCAPE_RADIUS
      when b = inf, as incomplete domains reach infinity in finite arc
      length; the largest float below sqrt(b); and no further than where f
      falls to F_FLOOR), or |u| of the start if that is larger;
    - the rim, where the slice gap f - v^2 falls to GAP_REL * f.

    [0, s_end] is sampled uniformly at SAMPLES_PER_UNIT points per unit of
    arc length, at least 8, every sample inside the slice.  boundary_hit is
    set when s_end < length; a trace that stops at the edge ends at
    u = +-u_edge.
    """
    require_inside_slice(profile, start)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (2,) or not np.all(np.isfinite(direction)):
        raise ValueError("direction must be a finite 2-vector")
    if not np.any(direction):
        raise ValueError("direction must be nonzero")
    if not 0.0 < length < math.inf:
        raise ValueError("length must be positive and finite")

    speed_sq = slice_metric(profile, start).inner(direction, direction)
    if speed_sq <= 0:
        raise DegenerateMetricError("metric not positive along the initial direction")
    du, dv = direction / math.sqrt(speed_sq)

    u0, v0 = start.u, start.v
    f0 = profile.f(u0 * u0)
    eta0 = v0 / math.sqrt(f0)
    psi0 = psi_increment(profile, 0.0, u0)
    # a start past the edge stands for it
    u_edge, psi_edge = max(profile.edge, (abs(u0), abs(psi0)))
    march = _PsiMarch(profile, u0, psi0, u_edge)
    rho0 = march.base[2]
    deta0 = dv / math.sqrt(f0) - eta0 * u0 * profile.f1(u0 * u0) / f0 * du
    chord = _Chord(psi0, eta0, rho0 * du, deta0)

    s_edge = chord.cut(math.copysign(psi_edge, du))
    s_end = min(length, s_edge, chord.rim(1.0 / GAP_REL))
    if not s_end > 0.0:
        raise OutsideDomainError("the geodesic leaves float64 range at its start")
    s = np.linspace(0.0, s_end, max(8, int(round(SAMPLES_PER_UNIT * s_end)) + 1))
    u_end = math.copysign(u_edge, du) if s_end == s_edge else None
    points, tangents, energies = _chord_samples(profile, chord, march, s, u_end)
    return GeodesicTrace(
        s=s,
        points=points,
        tangents=tangents,
        energies=energies,
        energy=1.0,
        boundary_hit=s_end < length,
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

    Exact segment distances are computed only for the pairs that can hold
    the worst margin.  A pair's distance lies between |m_i - m_j| - (l_i +
    l_j)/2 and |m_i - m_j| (m the midpoints, l the lengths), so its margin
    lies between the bounds LB and UB below; the worst pair has LB <= min UB.
    """
    if len(trace) < 4:
        raise ValueError("trace needs at least 4 samples for the screen")
    if not guard >= 0.0:
        raise ValueError("guard must be non-negative")
    pts = trace.points
    seg_a = pts[:-1]
    seg_b = pts[1:]
    seg_len = np.linalg.norm(seg_b - seg_a, axis=1)
    n_seg = len(seg_a)
    idx_i, idx_j = np.triu_indices(n_seg, k=SCREEN_WINDOW + 1)
    if len(idx_i) == 0:
        return SelfIntersectionReport(True, math.inf, (-1, -1), 0.0)
    mid_u, mid_v = 0.5 * (seg_a + seg_b).T
    len_i, len_j = seg_len[idx_i], seg_len[idx_j]
    # local sample spacing of a pair: the finer of the two segments, so that
    # a long far-away segment cannot dominate the threshold of a short one
    spacing = np.minimum(len_i, len_j)
    upper = np.hypot(mid_u[idx_i] - mid_u[idx_j], mid_v[idx_i] - mid_v[idx_j])
    upper -= guard * spacing
    lower = upper - 0.5 * (len_i + len_j)
    # the slack covers the rounding of the bounds; nan keeps every pair
    slack = 1e-9 * (1.0 + float(np.max(np.abs(pts))))
    keep = np.flatnonzero(~(lower > np.min(upper) + slack))
    idx_i, idx_j, spacing = idx_i[keep], idx_j[keep], spacing[keep]
    dists = _segment_distances(seg_a[idx_i], seg_b[idx_i], seg_a[idx_j], seg_b[idx_j])
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
    return residual_terms(t, profile.f(t), profile.f1(t), profile.f2(t), profile.f3(t))


def residual_terms(t, f, f1, f2, f3):
    """r(t) from the values of f..f3 at t, floats or arrays of them."""
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
    c = slice_c(t, f1, f2, w)
    det = 4.0 * (c * f - f1 * f1 * t * v * v) / (w * w * w * w)
    denom = det * (k * k * u * u - f) ** 3
    return -4.0 * k * u * residual_ode(profile, t) / denom
