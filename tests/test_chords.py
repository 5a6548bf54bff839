"""Geodesics as Beltrami-Klein chords, checked against independent routes:
RK45 on the geodesic equations with f..f''' from sympy, scipy's quad for
psi, and the all-pairs self-intersection screen."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad, solve_ivp

import hartogs.connection
import hartogs.hyperbolic
import hartogs.profile
from hartogs import (
    OutsideDomainError,
    SlicePoint,
    classify_profile,
    completeness,
    einstein_check,
    integrate_geodesic,
    parse_profile,
    psi,
    self_intersection_check,
    slice_metric,
)
from hartogs.connection import (
    SCREEN_WINDOW,
    DegenerateMetricError,
    GeodesicTrace,
    SelfIntersectionReport,
    _christoffel_closed_terms,
    _segment_distances,
)
from hartogs.expressions import ExpressionEvalError
from hartogs.hyperbolic import VERDICT_INCOMPLETE
from hartogs.profile import GAP_REL, _lay_psi_table, _panel_integrals, psi_inverse, psi_value

DIRECTIONS = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (-0.8, 0.3)]


def _starts(family):
    """The origin and two interior points of the slice."""
    p = family.profile
    u1, u2 = 0.3 * family.u_window, -0.5 * family.u_window
    return [
        SlicePoint(0.0, 0.0),
        SlicePoint(u1, 0.2 * math.sqrt(p.f(u1 * u1))),
        SlicePoint(u2, -0.4 * math.sqrt(p.f(u2 * u2))),
    ]


def _derivatives(source: str):
    """f..f''' of a profile source as one float function, from sympy's
    derivatives: the oracle's own values, independent of the jets."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    f = sympy.sympify(source.replace("^", "**"), locals={"t": t})
    return sympy.lambdify(t, [f, *(sympy.diff(f, t, k) for k in (1, 2, 3))], "math")


def _rk45_points(profile, start, direction, s):
    """The geodesic equations integrated by RK45, sampled at the arc lengths s."""
    derivatives = _derivatives(profile.source)

    def rhs(_s, y):
        u, v, du, dv = y
        try:
            g111, g211, g112, g212, g222 = _christoffel_closed_terms(
                u * u, u, v, *derivatives(u * u))
        except (DegenerateMetricError, ZeroDivisionError):
            # a trial step on or past the boundary, which step control rejects
            return (math.nan,) * 4
        return (
            du,
            dv,
            -(g111 * du * du + 2.0 * g112 * du * dv),
            -(g211 * du * du + 2.0 * g212 * du * dv + g222 * dv * dv),
        )

    g0 = slice_metric(profile, start)
    d = np.asarray(direction, dtype=float)
    d = d / math.sqrt(g0.inner(d, d))
    sol = solve_ivp(rhs, (0.0, s[-1]), (start.u, start.v, d[0], d[1]), method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    assert sol.status == 0, sol.message
    return sol.sol(s)[:2].T


def _brute_force_screen(trace, guard=0.5):
    """The screen over every pair of non-adjacent segments, unpruned."""
    pts = trace.points
    seg_a, seg_b = pts[:-1], pts[1:]
    seg_len = np.linalg.norm(seg_b - seg_a, axis=1)
    idx_i, idx_j = np.triu_indices(len(seg_a), k=SCREEN_WINDOW + 1)
    dists = _segment_distances(seg_a[idx_i], seg_b[idx_i], seg_a[idx_j], seg_b[idx_j])
    spacing = np.minimum(seg_len[idx_i], seg_len[idx_j])
    margin = dists - guard * spacing
    worst = int(np.argmin(margin))
    return SelfIntersectionReport(
        passed=bool(np.all(margin > 0.0)),
        min_distance=float(dists[worst]),
        min_pair=(int(idx_i[worst]), int(idx_j[worst])),
        threshold_at_min=float(guard * spacing[worst]),
    )


def _polyline(pts):
    """A trace through the points pts; the screen reads only the points."""
    return GeodesicTrace(s=np.arange(len(pts), dtype=float), points=pts, tangents=pts,
                         energies=np.ones(len(pts)), energy=1.0, boundary_hit=False)


def _figure_eight():
    t = np.linspace(0.0, 2.0 * math.pi, 81)
    return _polyline(np.column_stack([0.25 * np.sin(2 * t), 0.5 * np.sin(t)]))


class TestAgainstRK45:
    def test_battery_starts_and_directions(self, battery):
        worst = 0.0
        for family in battery:
            for start in _starts(family):
                for direction in DIRECTIONS:
                    trace = integrate_geodesic(family.profile, start, direction, 4.0)
                    reference = _rk45_points(family.profile, start, direction, trace.s)
                    # relative past |u| = 1: an escaping ray reaches u = 50,
                    # where RK45 at rtol 1e-10 is good to about 1e-9 relative
                    scale = np.maximum(1.0, np.abs(reference))
                    miss = float(np.max(np.abs(trace.points - reference) / scale))
                    assert miss <= 1e-8, (family.name, start, direction, miss)
                    worst = max(worst, miss)
        assert worst > 0.0  # the two routes are independent


class TestStops:
    @pytest.mark.parametrize("source, b, angle, length", [
        ("exp(-t)", math.inf, 0.0, 12.0),
        ("exp(-t)", math.inf, 0.05, 12.0),
        ("1.3*exp(-0.8*t)", math.inf, math.pi, 12.0),
        ("1 - t", 1.0, 0.0, 11.0),
        ("1.5 - 0.7*t", 1.5 / 0.7, 0.0, 11.0),
        ("(1.8 - 0.6*t)^2", 3.0, 0.0, 11.0),
    ])
    def test_complete_domain_reaches_full_length(self, source, b, angle, length):
        p = parse_profile(source, b, 2)
        trace = integrate_geodesic(
            p, SlicePoint(0.0, 0.0), (math.cos(angle), math.sin(angle)), length
        )
        assert not trace.boundary_hit
        assert trace.s[-1] == length
        assert np.max(np.abs(trace.energies - 1.0)) <= 1e-9

    def test_escape_is_cut_on_the_chord(self):
        # along the u-axis the chord ends exactly where u = ESCAPE_RADIUS
        p = parse_profile("(1 + 0.9*t)^(-2)", math.inf, 2)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (1.0, 0.0), 10.0)
        assert trace.boundary_hit
        assert trace.points[-1, 0] == 50.0
        assert trace.s[-1] == pytest.approx(math.sqrt(2.0) * psi(p, 50.0), rel=1e-10)

    def test_finite_bound_arc_is_sqrt2_times_completeness_integral(self):
        # the truncated ball is incomplete: the u-axis reaches u = 1/2 at
        # arc length sqrt(2) * artanh(1/2)
        p = parse_profile("1 - t", 0.25, 2)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (1.0, 0.0), 5.0)
        assert trace.boundary_hit
        assert trace.s[-1] == pytest.approx(math.sqrt(2.0) * math.atanh(0.5), rel=1e-9)
        assert trace.points[-1, 0] ** 2 < 0.25

    def test_float_exhaustion_stops_inside(self):
        # far along any ray the slice gap f - v^2 drops below float
        # resolution: the trace stops there, every sample inside the slice
        p = parse_profile("1 - t", 1.0, 2)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (0.6, 0.8), 100.0)
        assert trace.boundary_hit
        assert 14.0 < trace.s[-1] < 100.0
        u, v = trace.points.T
        assert np.all(v * v < 1.0 - u * u)
        assert np.all(np.isfinite(trace.energies))

    def test_stop_next_to_the_start_keeps_eight_samples(self):
        p = parse_profile("(1 + t)^(-2)", math.inf, 2)
        trace = integrate_geodesic(p, SlicePoint(49.99, 0.0), (1.0, 0.0), 1.0)
        assert trace.boundary_hit
        assert len(trace) == 8
        assert trace.points[-1, 0] == 50.0
        assert self_intersection_check(trace).passed

    @pytest.mark.parametrize("source, b, u0, direction, length", [
        ("1 - t", 1.0, 0.0, (0.6, 0.8), 100.0),                  # the rim
        ("(1 + 0.9*t)^(-2)", math.inf, 0.0, (-1.0, 0.0), 10.0),  # the edge u = -50
        ("(1 + t)^(-2)", math.inf, 49.99, (1.0, 0.0), 1.0),      # the edge, at once
        ("1.3*exp(-0.8*t)", math.inf, 0.0, (1.0, 0.0), 30.0),    # where f underflows
    ])
    def test_stopped_trace_is_uniform_to_its_end(self, source, b, u0, direction, length):
        p = parse_profile(source, b, 2)
        trace = integrate_geodesic(p, SlicePoint(u0, 0.0), direction, length)
        assert trace.boundary_hit
        n = max(8, round(24.0 * trace.s[-1]) + 1)
        assert np.array_equal(trace.s, np.linspace(0.0, trace.s[-1], n))
        if direction[1] == 0.0:
            assert trace.points[-1, 0] == math.copysign(p.edge[0], direction[0])

    def test_underflowing_f_ends_the_axis_at_the_edge(self):
        # psi = sqrt(0.8) * u for the spring, and the edge lies near u = 19.99
        p = parse_profile("1.3*exp(-0.8*t)", math.inf, 2)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (-1.0, 0.0), 30.0)
        assert trace.points[-1, 0] == pytest.approx(-19.9938, abs=1e-4)
        assert trace.s[-1] == pytest.approx(math.sqrt(1.6) * p.edge[0], rel=1e-12)

    def test_rim_exit_on_the_ball(self):
        # the slice of the unit ball is its own Klein disk: the ray is
        # r (0.6, 0.8) with r = tanh(s / sqrt 2), and the relative gap
        # (1 - r^2) / (1 - 0.36 r^2) falls to GAP_REL where 1 - r^2 is as below
        p = parse_profile("1 - t", 1.0, 2)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (0.6, 0.8), 100.0)
        one_minus_r2 = 0.64 * GAP_REL / (1.0 - 0.36 * GAP_REL)
        r = math.sqrt(1.0 - one_minus_r2)
        expected = (2.0 * math.log1p(r) - math.log(one_minus_r2)) / math.sqrt(2.0)
        assert trace.s[-1] == pytest.approx(expected, rel=1e-10)

    def test_start_within_rounding_of_the_rim_rejected(self):
        p = parse_profile("1e6 - t", 1e6, 2)
        with pytest.raises(OutsideDomainError):
            integrate_geodesic(p, SlicePoint(0.0, 999.9999999999), (0.0, 1.0), 1.0)

    def test_direction_scale_is_immaterial(self):
        # the direction is scaled to its largest component before its speed
        # is squared: no underflow at 1e-170, no overflow at 1e200
        p = parse_profile("(1 + 0.9*t)^(-2)", math.inf, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = [integrate_geodesic(p, SlicePoint(0.3, 0.1), (scale, scale), 3.0)
                      for scale in (1e-170, 1.0, 1e200)]
        for trace in traces:
            for field in ("s", "points", "tangents", "energies"):
                assert np.array_equal(getattr(trace, field), getattr(traces[1], field))

    @pytest.mark.parametrize("direction", [(-1.0, 0.0), (0.0, 1.0)])
    def test_start_past_the_escape_radius(self, direction):
        # u = 60 lies past ESCAPE_RADIUS = 50: psi is laid out past the
        # profile's table, and the inward ray crosses all of it
        p = parse_profile("(1 + t)^(-2)", math.inf, 2)
        start = SlicePoint(60.0, 0.0)
        trace = integrate_geodesic(p, start, direction, 3.0)
        reference = _rk45_points(p, start, direction, trace.s)
        scale = np.maximum(1.0, np.abs(reference))
        assert float(np.max(np.abs(trace.points - reference) / scale)) <= 1e-8

    def test_infinite_length_rejected(self):
        p = parse_profile("1 - t", 1.0, 2)
        with pytest.raises(ValueError):
            integrate_geodesic(p, SlicePoint(0.0, 0.0), (1.0, 1.0), math.inf)


class TestSliceGap:
    @pytest.mark.parametrize("source", ["1 - t", "1.3*exp(-0.8*t)", "(1 + 0.9*t)^(-2)"])
    def test_energy_off_the_axis_to_s_14(self, source):
        # the gap f - v^2 comes from the chord as f / (X0^2 - X1^2); the
        # difference itself cancels as v^2 -> f
        p = parse_profile(source, 1.0 if source == "1 - t" else math.inf, 2)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (0.6, 0.8), 14.0)
        assert not trace.boundary_hit
        assert np.max(np.abs(trace.energies - 1.0)) <= 5e-8

    @pytest.mark.parametrize("direction", [(0.6, 0.8), (-0.3, 1.0)])
    @pytest.mark.parametrize("source", ["1 - t", "exp(-t)", "1.3*exp(-0.8*t)", "(1 + 0.9*t)^(-2)"])
    def test_energy_off_the_axis_to_the_rim(self, source, direction):
        # the chord's tangent (dpsi, deta) without cancellation as |eta| -> 1:
        # tanh x - tanh y as sinh(x - y) / (cosh x cosh y), and eta' = X2' / N^3
        p = parse_profile(source, 1.0 if source == "1 - t" else math.inf, 2)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), direction, 30.0)
        assert trace.s[-1] > 25.0  # the rim, where f - v^2 falls to GAP_REL * f
        assert np.max(np.abs(trace.energies - 1.0)) <= 1e-12

    def test_chart_is_the_disk_map(self):
        # the chart (psi, atanh eta) of each sample against psi(u) and
        # eta = v / sqrt(f) of its (u, v)
        p = parse_profile("1.3*exp(-0.8*t)", math.inf, 2)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (-0.3, 1.0), 8.0)
        u, v = trace.points.T
        eta = v / np.sqrt([p.f(x * x) for x in u])
        assert np.max(np.abs(trace.chart[:, 0] - [psi(p, x) for x in u])) <= 1e-10
        assert np.max(np.abs(np.tanh(trace.chart[:, 1]) - eta)) <= 1e-12


def density(profile, u: float) -> float:
    """sqrt(-kcond(u^2)), the derivative of psi, one point at a time for quad.

    Far in the tail the density cancels to noise and may round marginally
    negative (clamped to zero), and u*u may round one ulp past a finite
    bound (pulled back inside).
    """
    t = u * u
    if t >= profile.b:
        t = math.nextafter(profile.b, 0.0)
    return math.sqrt(max(-profile.values(t, "kcond")[0], 0.0))


class TestPsiAgainstQuad:
    def test_battery_points(self, battery):
        rng = np.random.default_rng(20261018)
        checked = 0
        for family in battery:
            p = family.profile
            us = list(rng.uniform(-family.u_window, family.u_window, 21))
            if math.isfinite(p.b):
                # within 1e-6 of sqrt(b), on both sides of the origin
                sqrt_b = math.sqrt(p.b)
                us += [s * (sqrt_b - d) for s, d in zip((1, -1, 1, -1), rng.uniform(1e-7, 1e-6, 4))]
            else:
                us += list(rng.uniform(2.0, 30.0, 4))
            for u in us:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", IntegrationWarning)
                    ref, _err = quad(lambda x: density(p, x), 0.0, abs(u),
                                     epsabs=1e-14, epsrel=1e-13, limit=500)
                ref = math.copysign(ref, u)
                assert abs(psi(p, u) - ref) <= 1e-10 * max(1.0, abs(ref)), (family.name, u)
                checked += 1
        assert checked == 100


class _Counted:
    """Counts the jets of a profile that take kcond: one float at a time
    (calls) and over a grid (passes), through ``on_grid`` in every hartogs
    module that binds it."""

    def __init__(self, profile, monkeypatch):
        self.calls = self.passes = 0
        values = profile.values

        def counted_values(t, *names):
            self.calls += "kcond" in names and not isinstance(t, np.ndarray)
            return values(t, *names)

        on_grid = hartogs.profile.on_grid

        def counted_grid(p, ts, *names):
            self.passes += p is profile and "kcond" in names
            return on_grid(p, ts, *names)

        profile.values = counted_values
        for module in _binding_modules(on_grid):
            monkeypatch.setattr(module, "on_grid", counted_grid)


def _binding_modules(on_grid) -> list:
    """The hartogs modules whose name on_grid is the given function."""
    return [module for name, module in list(sys.modules.items())
            if name.partition(".")[0] == "hartogs" and vars(module).get("on_grid") is on_grid]


def _counted_kcond(source, b, monkeypatch):
    p = parse_profile(source, b, 2)
    return p, _Counted(p, monkeypatch)


class TestCounted:
    def test_counts_the_ladder_pass_of_completeness(self, monkeypatch):
        # hyperbolic binds on_grid by name: its ladder pass, then psi's table
        on_grid = hartogs.profile.on_grid
        assert hartogs.hyperbolic in _binding_modules(on_grid)
        p, kcond = _counted_kcond("(1 + t)^(-2)", math.inf, monkeypatch)
        assert _binding_modules(on_grid) == []
        completeness(p)
        assert kcond.passes == 2


class TestPsiTable:
    def test_origin_geodesic_evaluates_kcond_in_arrays(self, monkeypatch):
        # psi is tabulated once and inverted for every sample at once, not
        # marched sample by sample
        p, kcond = _counted_kcond("1/(1 + t + 2*t^2)", math.inf, monkeypatch)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (0.6, 0.8), 8.0)
        assert len(trace) == 193
        assert kcond.calls <= 2

    def test_inverse_recovers_psi(self, battery):
        rng = np.random.default_rng(20261019)
        for family in battery:
            p = family.profile
            u_edge, psi_edge = p.edge
            us = rng.uniform(-u_edge, u_edge, 64)
            targets = np.array([psi(p, u) for u in us] + [psi_edge, -psi_edge, 0.0])
            back = psi_inverse(p, targets, u_edge)
            for target, u in zip(targets, back):
                assert abs(psi(p, u) - target) <= 1e-10 * max(1.0, abs(target)), family.name

    def test_array_passes_do_not_grow_with_the_samples(self, monkeypatch):
        passes = []
        for length in (4.0, 16.0):
            p, kcond = _counted_kcond("(1.8 - 0.6*t)^2", 3.0, monkeypatch)
            trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (0.6, 0.8), length)
            assert trace.s[-1] == length
            passes.append(kcond.passes)
        assert 0 < passes[1] <= passes[0]

    def test_completeness_reads_psi_at_its_last_rung_off_the_table(self, monkeypatch):
        # the ladder, then the table laid to the last rung u = 2^16, which is
        # its last break: psi there is the table's value, walked no further
        p, kcond = _counted_kcond("(1 + t)^(-2)", math.inf, monkeypatch)
        report = completeness(p)
        assert report.verdict == VERDICT_INCOMPLETE
        assert kcond.passes == 2
        u_last = report.diagnostics["ladder_u"][-1]
        breaks, values, _ = _lay_psi_table(p, u_last)
        assert breaks[-1] == u_last
        # the value is bit for bit that of one more panel, of width zero
        at = np.array([u_last])
        integral, rho = _panel_integrals(p, breaks[-1:], at, at)
        assert psi_value(p, -u_last) == (-(values[-1] + integral[0]), rho[0])
        assert report.integral_value == values[-1] + integral[0] + report.diagnostics["tail"]


class TestReportJet:
    SOURCE = "1/(1 + 0.7409*t + 1.6214*t^2)"

    @pytest.mark.parametrize("first, second", [(classify_profile, einstein_check),
                                               (einstein_check, classify_profile)])
    def test_reports_walk_each_grid_once(self, monkeypatch, first, second):
        p, kcond = _counted_kcond(self.SOURCE, math.inf, monkeypatch)
        for grid in (64, 32):
            reports = [first(p, grid), second(p, grid)]
            fresh = parse_profile(self.SOURCE, math.inf, 2)
            assert reports == [first(fresh, grid), second(fresh, grid)]
        assert kcond.passes == 2

    def test_kept_arrays_are_read_only(self):
        ts, rows = parse_profile(self.SOURCE, math.inf, 2).report_jet(64)
        for array in (ts, *rows.values()):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_failing_walk_keeps_nothing(self):
        p = parse_profile("log(t - 1)", math.inf, 2)
        messages = []
        for report in (classify_profile, einstein_check, classify_profile):
            with pytest.raises(ExpressionEvalError) as raised:
                report(p)
            messages.append(str(raised.value))
        assert messages == [messages[0]] * 3


class TestPrunedScreen:
    def test_equals_brute_force_on_fans(self, battery):
        for family in battery:
            for k in range(8):
                angle = 2.0 * math.pi * k / 8
                trace = integrate_geodesic(family.profile, SlicePoint(0.0, 0.0),
                                           (math.cos(angle), math.sin(angle)), 8.0)
                for guard in (0.0, 0.5, 3.0):
                    assert self_intersection_check(trace, guard) == _brute_force_screen(trace, guard)

    def test_equals_brute_force_on_figure_eight(self):
        trace = _figure_eight()
        report = self_intersection_check(trace)
        assert not report.passed
        assert report == _brute_force_screen(trace)

    def test_equals_brute_force_on_random_polylines(self):
        # rounded to integers, points repeat: zero-length segments and ties
        rng = np.random.default_rng(20261020)
        for k in range(90):
            pts = rng.normal(scale=3.0, size=(int(rng.integers(5, 60)), 2))
            pts = (pts, np.round(pts), np.cumsum(pts, axis=0))[k % 3]
            trace = _polyline(pts)
            for guard in (0.0, 0.5, 3.0):
                assert self_intersection_check(trace, guard) == _brute_force_screen(trace, guard)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_point_that_is_not_finite_reaches_every_pair(self, value):
        trace = _figure_eight()
        trace.points[40] = (value, 0.0)
        with np.errstate(invalid="ignore"):  # inf - inf, in either screen
            report, expected = self_intersection_check(trace), _brute_force_screen(trace)
        assert not report.passed and math.isnan(report.min_distance)
        assert repr(report) == repr(expected)  # nan != nan

    @pytest.mark.parametrize("direction", [(0.0, 1.0), (0.0, -1.0)])
    def test_equals_brute_force_on_the_v_axis(self, battery, direction):
        for family in battery:
            trace = integrate_geodesic(family.profile, SlicePoint(0.0, 0.0), direction, 8.0)
            assert not np.any(trace.points[:, 0])
            assert self_intersection_check(trace) == _brute_force_screen(trace)

    def test_equals_brute_force_on_the_cli_chart_screen(self):
        # the chart screen of `geodesic --F "exp(-t)" --b inf --dir 0.6,0.8 --length 25`
        trace = integrate_geodesic(parse_profile("exp(-t)", math.inf, 2), SlicePoint(0.0, 0.0),
                                   (0.6, 0.8), 25.0)
        chart = replace(trace, points=trace.chart)
        assert len(chart) == 601
        assert self_intersection_check(chart) == _brute_force_screen(chart)

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError):
            self_intersection_check(_figure_eight(), guard=-1.0)
