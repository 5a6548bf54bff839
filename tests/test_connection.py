"""Christoffel symbols, geodesic integration, reductions, residuals."""

import math

import numpy as np
import pytest

from hartogs import (
    SlicePoint,
    christoffel_closed,
    christoffel_generic,
    integrate_geodesic,
    parse_profile,
    reduce_to_slice,
    residual_ode,
    self_intersection_check,
    straightline_residual,
    straightline_residual_algebraic,
)
from hartogs.connection import DegenerateMetricError, GeodesicTrace
from hartogs.metric import DomainPoint, hermitian_metric, slice_metric_jet

from conftest import random_slice_points

SYMBOL_NAMES = ("G111", "G211", "G112", "G212", "G122", "G222")


def _symbols(ch):
    return [getattr(ch, name) for name in SYMBOL_NAMES]


class TestChristoffel:
    def test_all_vanish_at_origin(self, battery):
        for family in battery:
            for ch in (
                christoffel_closed(family.profile, SlicePoint(0.0, 0.0)),
                christoffel_generic(family.profile, SlicePoint(0.0, 0.0)),
            ):
                assert all(value == pytest.approx(0.0, abs=1e-14) for value in _symbols(ch))

    def test_axis_patterns(self, battery):
        for family in battery:
            p = family.profile
            u = 0.5 * family.u_window
            on_u_axis = christoffel_closed(p, SlicePoint(u, 0.0))
            assert on_u_axis.G211 == 0.0
            assert on_u_axis.G222 == 0.0
            v = 0.5 * math.sqrt(p.f(0.0))
            on_v_axis = christoffel_closed(p, SlicePoint(0.0, v))
            assert on_v_axis.G111 == 0.0
            assert on_v_axis.G212 == 0.0

    def test_g122_identically_zero(self, battery, rng):
        for family in battery:
            for sp in random_slice_points(family, 100, rng):
                assert christoffel_closed(family.profile, sp).G122 == 0.0
                generic = christoffel_generic(family.profile, sp)
                scale = max(abs(x) for x in _symbols(generic)) + 1.0
                assert abs(generic.G122) <= 1e-12 * scale

    def test_closed_matches_generic(self, battery, rng):
        for family in battery:
            for sp in random_slice_points(family, 100, rng):
                closed = christoffel_closed(family.profile, sp)
                generic = christoffel_generic(family.profile, sp)
                scale = max(abs(x) for x in _symbols(generic))
                for a, b in zip(_symbols(closed), _symbols(generic)):
                    assert abs(a - b) <= 1e-6 * max(1.0, scale), (family.name, sp)

    def test_generic_equals_the_index_loop_exactly(self, battery, rng):
        # the formula as a Python loop over l: the contraction rounds the
        # same operations in the same order, so it must match exactly
        for family in battery:
            for sp in random_slice_points(family, 20, rng):
                jet = slice_metric_jet(family.profile, sp)
                ginv = np.array([[jet.g22, -jet.g12], [-jet.g12, jet.g11]]) / jet.det
                dg = [[[jet.g11_u, jet.g12_u], [jet.g12_u, jet.g22_u]],
                      [[jet.g11_v, jet.g12_v], [jet.g12_v, jet.g22_v]]]
                gamma = {}
                for k, i, j in ((0, 0, 0), (1, 0, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
                    total = 0.0
                    for l in range(2):
                        total += ginv[k, l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                    gamma[k, i, j] = 0.5 * total
                assert _symbols(christoffel_generic(family.profile, sp)) == list(gamma.values())

    def test_klein_radial_symbol(self):
        # on the axis of the ball slice the only surviving symbol is
        # G111 = 2u/(1-u^2), read off the radial geodesic u = tanh(s/sqrt(2))
        p = parse_profile("1 - t", 1, 2)
        for u in (0.2, 0.5, 0.8):
            ch = christoffel_closed(p, SlicePoint(u, 0.0))
            assert ch.G111 == pytest.approx(2 * u / (1 - u * u), rel=1e-12)
            assert ch.G211 == 0.0

    def test_degenerate_point_raises(self):
        # f1(0) = 0 makes the metric degenerate at the origin
        p = parse_profile("1 - t^2", 1, 2)
        with pytest.raises(DegenerateMetricError):
            christoffel_closed(p, SlicePoint(0.0, 0.0))


class TestGeodesics:
    @pytest.mark.parametrize("expression, b, direction, length", [
        ("exp(-t) + exp(-100)", math.inf, (1.0, 0.0), 200.0),  # kcond > 0 from t ~ 96
        ("1 - t^2", 1.0, (0.0, 1.0), 1.0),  # kcond(0) = 0 at the start
    ])
    def test_not_pseudoconvex_raises(self, expression, b, direction, length):
        p = parse_profile(expression, b, 2)
        with pytest.raises(ArithmeticError, match="pseudoconvexity density positive at t="):
            integrate_geodesic(p, SlicePoint(0.0, 0.0), direction, length)

    def test_klein_radial_oracle(self):
        p = parse_profile("1 - t", 1, 2)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (1.0, 0.0), 3.0)
        expected = np.tanh(trace.s / math.sqrt(2.0))
        assert np.max(np.abs(trace.points[:, 0] - expected)) < 1e-8
        assert np.max(np.abs(trace.points[:, 1])) == 0.0

    def test_v_axis_stays_straight(self, battery):
        for family in battery:
            trace = integrate_geodesic(family.profile, SlicePoint(0.0, 0.0), (0.0, 1.0), 2.0)
            assert np.max(np.abs(trace.points[:, 0])) == 0.0

    def test_u_axis_stays_straight(self, battery):
        for family in battery:
            trace = integrate_geodesic(family.profile, SlicePoint(0.0, 0.0), (1.0, 0.0), 2.0)
            assert np.max(np.abs(trace.points[:, 1])) == 0.0

    def test_energy_first_integral(self, battery):
        for family in battery:
            trace = integrate_geodesic(family.profile, SlicePoint(0.0, 0.0), (0.6, 0.8), 10.0)
            assert np.max(np.abs(trace.energies - trace.energy)) <= 1e-6

    def test_arc_length_increasing_and_inside(self, battery):
        for family in battery:
            p = family.profile
            trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (1.0, 0.5), 5.0)
            assert np.all(np.diff(trace.s) > 0)
            for u, v in trace.points:
                assert v * v < p.f(u * u)

    def test_mirror_symmetry(self):
        p = parse_profile("exp(-0.8*t)", math.inf, 2)
        up = integrate_geodesic(p, SlicePoint(0.0, 0.0), (0.7, 0.4), 4.0)
        down = integrate_geodesic(p, SlicePoint(0.0, 0.0), (0.7, -0.4), 4.0)
        assert np.allclose(up.points[:, 0], down.points[:, 0], atol=1e-12)
        assert np.allclose(up.points[:, 1], -down.points[:, 1], atol=1e-12)

    def test_incomplete_axis_hits_boundary(self):
        pw = 2.0
        p = parse_profile(f"(1 + 0.9*t)^(-{pw})", math.inf, 2)
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), (1.0, 0.0), 10.0)
        assert trace.boundary_hit
        # axis length to the boundary is sqrt(2) * (pi/2) * sqrt(p)
        expected = math.sqrt(2.0) * (math.pi / 2.0) * math.sqrt(pw)
        assert trace.s[-1] < expected
        assert trace.s[-1] > 0.9 * expected

    def test_bad_inputs(self):
        p = parse_profile("1 - t", 1, 2)
        origin = SlicePoint(0.0, 0.0)
        with pytest.raises(ValueError):
            integrate_geodesic(p, origin, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            integrate_geodesic(p, origin, (1.0, 0.0), -1.0)
        with pytest.raises(ValueError):
            integrate_geodesic(p, origin, (1.0, 0.0, 0.0), 1.0)


class TestReduceToSlice:
    def test_real_direction_identity(self):
        slice_dir, red = reduce_to_slice([1.0, 0.0])
        assert np.allclose(slice_dir, [1.0, 0.0])
        assert red.theta == 0.0
        assert np.allclose(red.unitary, np.eye(1))

    def test_imaginary_z0_phase(self):
        slice_dir, red = reduce_to_slice([1j, 0.0])
        assert np.allclose(slice_dir, [1.0, 0.0])
        assert red.theta == pytest.approx(-math.pi / 2)

    def test_complex_z_vector(self):
        c = 0.7
        direction = [0.0, (3 / 5) * c, (4j / 5) * c]
        slice_dir, red = reduce_to_slice(direction)
        assert np.allclose(slice_dir, [0.0, c])
        u = red.unitary
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)
        image = red.apply_direction(direction)
        assert np.allclose(image, [0.0, c, 0.0], atol=1e-14)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            reduce_to_slice([0.0, 0.0, 0.0])

    def test_single_component_rejected(self):
        with pytest.raises(ValueError, match="at least two complex components"):
            reduce_to_slice([1j])

    def test_lift_point_round_trip(self, rng):
        for _ in range(20):
            w = rng.uniform(-1, 1, 6)
            direction = [complex(w[0], w[1]), complex(w[2], w[3]), complex(w[4], w[5])]
            if np.linalg.norm(direction) < 1e-6:
                continue
            _, red = reduce_to_slice(direction)
            lifted = red.lift_point(0.3, 0.4)
            assert np.allclose(red.apply_direction(lifted), [0.3, 0.4, 0.0], atol=1e-13)

    def test_rotation_is_isometry(self, rng):
        # the metric is invariant under (z0, z) -> (e^{i theta} z0, U z)
        p = parse_profile("exp(-t)", math.inf, 3)
        _, red = reduce_to_slice([0.3 + 0.4j, 0.5 - 0.1j, 0.2j])
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = np.exp(1j * red.theta)
        a[1:, 1:] = red.unitary
        for _ in range(20):
            w = rng.uniform(-0.4, 0.4, 6)
            pt = DomainPoint(complex(w[0], w[1]), (complex(w[2], w[3]), complex(w[4], w[5])))
            rotated_coords = a @ np.array([pt.z0, *pt.z])
            rotated = DomainPoint(rotated_coords[0], tuple(rotated_coords[1:]))
            h_before = hermitian_metric(p, pt)
            h_after = hermitian_metric(p, rotated)
            # pullback for h[i][j] = d_i d_jbar: transpose on the left,
            # conjugate on the right
            assert np.allclose(a.T @ h_after @ a.conj(), h_before, atol=1e-12)


class TestSelfIntersection:
    def _trace_from_points(self, points):
        points = np.asarray(points, dtype=float)
        seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        tangents = np.gradient(points, s, axis=0)
        return GeodesicTrace(
            s=s,
            points=points,
            tangents=tangents,
            energies=np.ones(len(points)),
            energy=1.0,
            boundary_hit=False,
        )

    def test_straight_line_passes(self):
        line = np.column_stack([np.linspace(0, 1, 50), np.zeros(50)])
        report = self_intersection_check(self._trace_from_points(line))
        assert report.passed

    def test_figure_eight_fails(self):
        t = np.linspace(0.0, 2.0 * math.pi, 81)
        points = np.column_stack([0.25 * np.sin(2 * t), 0.5 * np.sin(t)])
        report = self_intersection_check(self._trace_from_points(points))
        assert not report.passed
        assert report.min_distance < 1e-2

    def test_origin_geodesics_pass(self, battery, rng):
        for family in battery:
            for _ in range(5):
                angle = rng.uniform(0, 2 * math.pi)
                trace = integrate_geodesic(
                    family.profile,
                    SlicePoint(0.0, 0.0),
                    (math.cos(angle), math.sin(angle)),
                    8.0,
                )
                assert self_intersection_check(trace).passed, family.name

    def test_four_samples_have_no_pair_to_screen(self):
        # three segments, each within SCREEN_WINDOW of the others
        corner = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
        report = self_intersection_check(self._trace_from_points(corner))
        assert report.passed
        assert report.min_distance == math.inf
        assert report.min_pair == (-1, -1)

    def test_short_trace_rejected(self):
        line = np.column_stack([np.linspace(0, 1, 3), np.zeros(3)])
        with pytest.raises(ValueError):
            self_intersection_check(self._trace_from_points(line))


class TestResiduals:
    def test_linear_residual_exactly_zero(self):
        p = parse_profile("2 - 3*t", 2 / 3, 2)
        for t in (0.0, 0.1, 0.5):
            assert residual_ode(p, t) == 0.0

    def test_spring_residual_closed_form(self):
        # for exp(-t): r(t) = e^{-2t} (t + 2)
        p = parse_profile("exp(-t)", math.inf, 2)
        for t in (0.0, 0.5, 2.0):
            expected = math.exp(-2 * t) * (t + 2.0)
            assert residual_ode(p, t) == pytest.approx(expected, rel=1e-13)

    def test_spring_residual_at_zero(self):
        p = parse_profile("exp(-t)", math.inf, 2)
        assert abs(residual_ode(p, 0.0) - 2.0) <= 1e-12

    def test_out_of_range(self):
        p = parse_profile("1 - t", 1, 2)
        with pytest.raises(ValueError):
            residual_ode(p, 1.5)

    def test_linear_straightline_residual_vanishes(self, rng):
        p = parse_profile("1.7 - 0.4*t", 1.7 / 0.4, 2)
        for _ in range(30):
            u = rng.uniform(0.05, 1.2)
            k = rng.uniform(-2.0, 2.0)
            if abs(k) < 0.05 or k * k * u * u >= p.f(u * u):
                continue
            assert abs(straightline_residual(p, k, u)) < 1e-9

    def test_matches_algebraic_form(self, battery, rng):
        for family in battery:
            p = family.profile
            for _ in range(40):
                u = rng.uniform(0.05, family.u_window)
                k = rng.uniform(-1.5, 1.5)
                if abs(k) < 0.05 or k * k * u * u >= 0.8 * p.f(u * u):
                    continue
                a = straightline_residual(p, k, u)
                b = straightline_residual_algebraic(p, k, u)
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b)), family.name

    def test_spring_sign_consistent_with_residual(self):
        # straight-line defect = -4 k u r(u^2) / (D (k^2 u^2 - f)^3) with
        # D > 0, (k^2 u^2 - f) < 0 inside: sign is sign(k u r)
        p = parse_profile("exp(-t)", math.inf, 2)
        value = straightline_residual(p, 1.0, 0.5)
        assert value > 0
        assert residual_ode(p, 0.25) > 0

    def test_vanishes_toward_origin(self):
        p = parse_profile("exp(-t)", math.inf, 2)
        values = [abs(straightline_residual(p, 1.0, u)) for u in (0.4, 0.2, 0.1, 0.01)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.05
