"""Levi-Civita connection on the slice: Christoffel symbols, geodesics,
reduction of full-domain directions to the slice, and the straight-line
residuals that detect the complex-hyperbolic profiles.

Two independent routes to the Christoffel symbols are kept side by side:
``christoffel_closed`` evaluates explicit rational formulas in f..f3, and
``christoffel_generic`` applies the Levi-Civita formula

    Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij)

to the analytic slice-metric jet, as one contraction of the inverse
metric with the (2, 2, 2) array of first derivatives.  The generic route
is the ground truth the closed forms are validated against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .metric import OutsideDomainError, SlicePoint, slice_metric_from, slice_metric_jet, slice_values
from .profile import GAP_REL, Profile, _check_range, not_pseudoconvex, psi_inverse, psi_value

SAMPLES_PER_UNIT = 24.0
SCREEN_WINDOW = 2


class DegenerateMetricError(ArithmeticError):
    """Metric determinant not positive: the profile is not pseudoconvex there."""


@dataclass(frozen=True)
class ChristoffelSlice:
    """The six independent Christoffel symbols at a slice point."""

    G111: float
    G211: float
    G112: float
    G212: float
    G122: float
    G222: float


def _christoffel_closed_terms(t: float, u: float, v: float, f, f1, f2, f3):
    """(G111, G211, G112, G212, G222) at (u, v) from f..f3 at t = u^2, for
    a point inside the slice (f - v^2 > 0).

    Raises DegenerateMetricError where the determinant is not positive.
    """
    w = f - v * v
    core = -t * f1 * f1 + f * (f1 + t * f2)  # f^2 kcond, and det * w^3 = -4 core
    det = -4.0 * core / w / w / w
    if not det > 0.0:
        raise DegenerateMetricError(f"metric degenerate at (u, v)=({u}, {v}), det={det}")
    # The first bracket term carries a factor f1; dropping it breaks the
    # cross-validation against christoffel_generic.
    g111 = (u / w / core) * (
        t * f1 * (2.0 * f1 * f1 + v * v * f2)
        - f * (v * v - f) * (2.0 * f2 + t * f3)
        - f * f1 * (2.0 * f1 + 3.0 * t * f2)
    )
    g211 = (t * v / core) * (-t * f2 * f2 + f1 * (f2 + t * f3))
    return g111, g211, v / w, -u * f1 / w, 2.0 * v / w


def christoffel_closed(profile: Profile, sp: SlicePoint) -> ChristoffelSlice:
    """Closed-form Christoffel symbols of the slice metric at (u, v)."""
    _, values = slice_values(profile, sp, "f1", "f2", "f3")
    g111, g211, g112, g212, g222 = _christoffel_closed_terms(sp.u * sp.u, sp.u, sp.v, *values)
    return ChristoffelSlice(g111, g211, g112, g212, 0.0, g222)


def christoffel_generic(profile: Profile, sp: SlicePoint) -> ChristoffelSlice:
    """Christoffel symbols from the metric jet via the standard formula.

    Independent of the closed forms; serves as their oracle.
    """
    jet = slice_metric_jet(profile, sp)
    det = jet.det
    if not det > 0.0:
        raise DegenerateMetricError(f"metric degenerate at {sp}, det={det}")
    ginv = np.array([[jet.g22, -jet.g12], [-jet.g12, jet.g11]]) / det
    dg = np.array([[[jet.g11_u, jet.g12_u], [jet.g12_u, jet.g22_u]],  # dg[l, i, j] = d_l g_ij
                   [[jet.g11_v, jet.g12_v], [jet.g12_v, jet.g22_v]]])
    # gamma[k, i, j] = 1/2 g^kl (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
    gamma = 0.5 * np.einsum("kl,ijl->kij", ginv, dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0))
    return ChristoffelSlice(*(gamma[k, i, j] for i, j in ((0, 0), (0, 1), (1, 1)) for k in (0, 1)))


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
# from sums of exponentials, without cancellation, and u from psi by
# ``profile.psi_inverse``.  The chord meets the edge |u| = u_edge where psi =
# +-psi(u_edge), and the rim where X0^2 - X1^2 = 1 / GAP_REL.

_SQRT2 = math.sqrt(2.0)
_LOG2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class GeodesicTrace:
    """Arc-length sampled geodesic with per-sample tangent and energy."""

    s: np.ndarray         # (N,) strictly increasing arc length
    points: np.ndarray    # (N, 2) slice coordinates
    tangents: np.ndarray  # (N, 2)
    energies: np.ndarray  # (N,) measured g(gamma', gamma')
    energy: float         # nominal first integral (1.0 for unit speed)
    boundary_hit: bool
    chart: np.ndarray | None = None  # (N, 2) the chord's (psi, atanh eta)

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
        logs, halves = [], []
        for log_a, log_b in zip(self.log_a, self.log_b):
            grow, decay = log_a + sigma, log_b - sigma
            logs.append(np.logaddexp(grow, decay) - _LOG2)  # log(X0 +- X1)
            halves.append(0.5 * (grow - decay))  # its sigma-derivative is tanh of this
        psi = 0.5 * (logs[0] - logs[1])
        log_norm = 0.5 * (logs[0] + logs[1])  # log sqrt(X0^2 - X1^2)
        gap = np.exp(-2.0 * log_norm)
        grow = 0.5 * self.a2 * np.exp(sigma - log_norm)
        decay = 0.5 * self.b2 * np.exp(-sigma - log_norm)
        # tanh x - tanh y = sinh(x - y) / (cosh x cosh y), which does not
        # cancel as both near 1, except where a cosh overflows; and
        # eta' = X2' / N^3 with N^2 = X0^2 - X1^2, as X0 X0' - X1 X1' = X2 X2'
        x, y = halves
        with np.errstate(over="ignore", invalid="ignore"):
            dpsi = np.sinh(x - y) / (np.cosh(x) * np.cosh(y))
        dpsi = np.where(np.isfinite(dpsi), dpsi, np.tanh(x) - np.tanh(y))
        return psi, grow + decay, 0.5 * dpsi / _SQRT2, (grow - decay) * gap / _SQRT2, gap

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


def _chord_samples(profile: Profile, chord: _Chord, s, u_edge: float, u_end):
    """Points, tangents, energies and the chart (psi, atanh eta) at the arc
    lengths s, |u| <= u_edge; u_end, unless None, is the u of the last
    sample, on the edge."""
    psi, eta, dpsi, deta, gap = chord.at(s)
    u = psi_inverse(profile, psi, u_edge)
    if u_end is not None:
        u[-1] = u_end
    t = u * u
    f, f1, f2, log_d, k = profile.values(t, "f", "f1", "f2", "L", "kcond")
    bad = np.flatnonzero(k >= 0.0)
    if bad.size:
        raise not_pseudoconvex(float(t[bad[0]]))
    sqrt_f = np.sqrt(f)
    w = f * gap
    v = eta * sqrt_f
    # near the rim eta carries more rounding than the gap left to it, while
    # f - w keeps v^2 below f in float64
    near = gap < 0.5
    v[near] = np.copysign(np.sqrt(f[near] - w[near]), eta[near])
    du = dpsi / np.sqrt(-k)  # the density is psi'(u)
    dv = sqrt_f * (deta + eta * u * log_d * du)
    energies = slice_metric_from(SlicePoint(u, v), w, (f, f1, f2)).inner((du, dv), (du, dv))
    # atanh eta from 1 - eta^2 = gap, which the chord gives without cancellation
    zeta = np.copysign(np.log1p(np.abs(eta)) - 0.5 * np.log(gap), eta)
    return (np.column_stack((u, v)), np.column_stack((du, dv)), energies,
            np.column_stack((psi, zeta)))


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
    - the rim, where the slice gap f - v^2 falls to GAP_REL * f, the
      interior rule of ``metric`` (f stays above F_FLOOR before the edge).

    [0, s_end] is sampled uniformly at SAMPLES_PER_UNIT points per unit of
    arc length, at least 8, every sample inside the slice.  boundary_hit is
    set when s_end < length; a trace that stops at the edge ends at
    u = +-u_edge.  The start must be inside the slice by that rule, and
    consecutive samples must differ in the chart, or ValueError names the
    length.  As
    det g * (f - v^2)^3 = -4 f^2 kcond, the metric is non-degenerate exactly
    where the profile is pseudoconvex: a start or a sample where kcond >= 0
    raises ArithmeticError naming its t.
    """
    w0, (f0, f1_0, f2_0, k0) = slice_values(profile, start, "f1", "f2", "kcond")
    if not k0 < 0.0:
        raise not_pseudoconvex(start.u * start.u)
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (2,) or not np.all(np.isfinite(direction)):
        raise ValueError("direction must be a finite 2-vector")
    if not np.any(direction):
        raise ValueError("direction must be nonzero")
    if not 0.0 < length < math.inf:
        raise ValueError("length must be positive and finite")

    direction = direction / np.max(np.abs(direction))  # squares neither underflow nor overflow
    speed_sq = slice_metric_from(start, w0, (f0, f1_0, f2_0)).inner(direction, direction)
    if speed_sq <= 0:
        raise DegenerateMetricError("metric not positive along the initial direction")
    du, dv = direction / math.sqrt(speed_sq)

    u0, v0 = start.u, start.v
    eta0 = v0 / math.sqrt(f0)
    psi0 = psi_value(profile, u0)[0] if u0 else 0.0
    rho0 = math.sqrt(-k0)  # the density, psi'(u0)
    # a start past the edge stands for it
    u_edge, psi_edge = max(profile.edge, (abs(u0), abs(psi0)))
    deta0 = dv / math.sqrt(f0) - eta0 * u0 * f1_0 / f0 * du
    chord = _Chord(psi0, eta0, rho0 * du, deta0)

    s_edge = chord.cut(math.copysign(psi_edge, du))
    s_end = min(length, s_edge, chord.rim(1.0 / GAP_REL))
    if not s_end > 0.0:
        raise OutsideDomainError("the geodesic leaves float64 range at its start")
    s = np.linspace(0.0, s_end, max(8, int(round(SAMPLES_PER_UNIT * s_end)) + 1))
    u_end = math.copysign(u_edge, du) if s_end == s_edge else None
    points, tangents, energies, chart = _chord_samples(profile, chord, s, u_edge, u_end)
    if np.any(np.all(chart[1:] == chart[:-1], axis=1)):
        raise ValueError(f"length {length}: consecutive samples coincide in float64")
    return GeodesicTrace(
        s=s,
        points=points,
        tangents=tangents,
        energies=energies,
        energy=1.0,
        boundary_hit=s_end < length,
        chart=chart,
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

    The margin of a pair of non-adjacent segments (index gap larger than
    SCREEN_WINDOW) is their minimum distance less guard times the local
    sample spacing, the length of the shorter of the two.  The screen
    passes when every margin is positive, and reports the pair of least
    margin, the first in (i, j) order among equals.

    Exact distances are computed only for the pairs whose bounds overlap,
    found by a sort and sweep in O(N log N) plus the pairs found.  With m
    the segment midpoints and l their lengths, a pair's distance lies
    between |m_i - m_j| - (l_i + l_j)/2 and |m_i - m_j|.  So the least of
    |m_i - m_j| - guard*min(l_i, l_j) over the pairs at index gap
    SCREEN_WINDOW + 1, plus a slack for rounding, is a bound B on the worst
    margin, and a pair can hold it only if

        |m_i - m_j| <= B + (1 + guard)/2 * (l_i + l_j),

    that is, only if the intervals m_i +- (B/2 + (1 + guard)/2 * l_i) on
    either midpoint axis overlap.  The sweep takes the axis of larger
    spread and keeps every pair whose intervals overlap there, so the
    worst pair and every pair that ties with it are kept, and the report
    equals that of the screen over all pairs.  A point that is not finite
    makes B and every interval nan, and then every pair is kept.
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
    gap = SCREEN_WINDOW + 1
    if n_seg <= gap:
        return SelfIntersectionReport(True, math.inf, (-1, -1), 0.0)
    mid = 0.5 * (seg_a + seg_b)
    # the slack covers the rounding of the bounds
    slack = 1e-9 * (1.0 + float(np.max(np.abs(pts))))
    bound = slack + float(np.min(np.hypot(*(mid[gap:] - mid[:-gap]).T)
                                 - guard * np.minimum(seg_len[gap:], seg_len[:-gap])))
    if not math.isfinite(bound):
        bound = math.nan
    centre = mid[:, np.argmax(np.ptp(mid, axis=0))]
    radius = 0.5 * bound + 0.5 * (1.0 + guard) * seg_len
    lo, hi = centre - radius, centre + radius
    order = np.argsort(lo)
    # interval p overlaps those at sorted positions p + 1 .. ends[p] - 1
    ends = np.searchsorted(lo[order], hi[order], side="right")
    after = np.arange(1, n_seg + 1)
    counts = np.maximum(ends - after, 0)
    q = np.arange(counts.sum()) + np.repeat(after - np.cumsum(counts) + counts, counts)
    a, b = np.repeat(order, counts), order[q]
    # in (i, j) order, so that argmin breaks ties as over all pairs
    idx_i, idx_j = np.divmod(np.sort(np.minimum(a, b) * n_seg + np.maximum(a, b)), n_seg)
    keep = idx_j - idx_i >= gap
    idx_i, idx_j = idx_i[keep], idx_j[keep]
    # local sample spacing of a pair: the finer of the two segments, so that
    # a long far-away segment cannot dominate the threshold of a short one
    spacing = np.minimum(seg_len[idx_i], seg_len[idx_j])
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
    """r(t) = t^2 f2^2 + f (2 f2 + t f3) - f1 (2 t f2 + t^2 f3), at a float
    or an array of t.

    Vanishes identically exactly when the profile is linear, i.e. when
    lines through the origin of the slice are geodesic traces.
    """
    _check_range(profile, t)
    return residual_terms(t, *profile.values(t, "f", "f1", "f2", "f3"))


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

    D is the metric determinant at (u, k*u), and D (k^2u^2 - f)^3 = -D w^3 =
    4 f^2 kcond, which does not cancel near the rim.  Equal to
    ``straightline_residual``; kept separate as an independent check.
    """
    _, (f, f1, f2, f3) = slice_values(profile, SlicePoint(u, k * u), "f1", "f2", "f3")
    t = u * u
    denom = 4.0 * (f * (f1 + t * f2) - t * f1 * f1)
    return -4.0 * k * u * residual_terms(t, f, f1, f2, f3) / denom
