"""Profile construction, validation, and the pseudoconvexity density."""

import math

import numpy as np
import pytest

from hartogs import kcond, parse_profile, validate
from hartogs.expressions import ExpressionSyntaxError
from hartogs.profile import ESCAPE_RADIUS, F_FLOOR, chebyshev_grid, on_grid

from conftest import FAMILY_MAKERS, FAST_DECAY, fd1, random_slice_points


class TestParseProfile:
    def test_linear_example(self):
        p = parse_profile("1 - t", 1, 2)
        assert p.f(0.5) == 0.5
        assert p.f1(0.5) == -1.0
        assert p.f2(0.3) == 0.0
        assert p.f3(0.3) == 0.0

    def test_exponential_example(self):
        p = parse_profile("exp(-2*t)", math.inf, 2)
        assert p.f(1.0) == pytest.approx(math.exp(-2), rel=1e-15)
        assert p.f1(1.0) == pytest.approx(-2 * math.exp(-2), rel=1e-15)
        assert p.f2(1.0) == pytest.approx(4 * math.exp(-2), rel=1e-15)

    def test_power_example(self):
        p = parse_profile("(1 + t)^(-3)", math.inf, 3)
        assert p.f(0.0) == 1.0
        assert p.f1(0.0) == -3.0
        assert p.f2(0.0) == 12.0
        assert p.n == 3

    def test_bad_bound(self):
        with pytest.raises(ValueError, match="positive"):
            parse_profile("1 - t", 0, 2)
        with pytest.raises(ValueError, match="positive"):
            parse_profile("1 - t", -1, 2)

    def test_bad_dimension(self):
        with pytest.raises(ValueError, match="at least 2"):
            parse_profile("1 - t", 1, 1)

    def test_syntax_error_propagates(self):
        with pytest.raises(ExpressionSyntaxError):
            parse_profile("1 -", 1, 2)

    def test_forty_factor_product_evaluates(self):
        # (1 - t/40)^40 as a product of 40 factors, whose symbolic derivative
        # trees grow as the cube of the factor count
        p = parse_profile("*".join(["(1-t/40)"] * 40), 40, 2)
        g = 0.5  # 1 - t/40 at t = 20
        f, f1, f2, f3, k = p.values(20.0, "f", "f1", "f2", "f3", "kcond")
        assert f == pytest.approx(g ** 40, rel=1e-13)
        assert f1 == pytest.approx(-(g ** 39), rel=1e-13)
        assert f2 == pytest.approx(39 / 40 * g ** 38, rel=1e-13)
        assert f3 == pytest.approx(-39 * 38 / 1600 * g ** 37, rel=1e-13)
        assert k == pytest.approx(-1.0 / g ** 2, rel=1e-13)
        assert validate(p).valid
        # as a power, whose product would underflow at the grid's last point
        assert validate(parse_profile("(1-t/40)^40", 40, 2)).valid


class TestEdge:
    def test_unbounded_domain_escapes_at_the_radius(self):
        p = parse_profile("(1 + t)^(-2)", math.inf, 2)
        u_edge, psi_edge = p.edge
        assert u_edge == ESCAPE_RADIUS
        # psi = sqrt(2) * atan(u) for (1 + t)^(-2)
        assert psi_edge == pytest.approx(math.sqrt(2.0) * math.atan(ESCAPE_RADIUS), rel=1e-12)

    def test_finite_bound_is_the_last_float_below_sqrt_b(self):
        for b in (0.25, 1.0, 2.0, 1.5 / 0.7):
            u_edge, _ = parse_profile(f"1 - t/{b!r}", b, 2).edge
            assert u_edge * u_edge < b <= math.nextafter(u_edge, math.inf) ** 2

    def test_underflowing_f_ends_at_the_floor(self):
        p = parse_profile("1.3*exp(-0.8*t)", math.inf, 2)
        u_edge, psi_edge = p.edge
        assert p.f(u_edge ** 2) >= F_FLOOR > p.f(math.nextafter(u_edge, math.inf) ** 2)
        assert u_edge == pytest.approx(math.sqrt(math.log(1.3 / F_FLOOR) / 0.8), rel=1e-12)
        assert psi_edge == pytest.approx(math.sqrt(0.8) * u_edge, rel=1e-12)


class TestKcond:
    def test_linear_at_origin(self):
        p = parse_profile("1 - t", 1, 2)
        assert kcond(p, 0.0) == -1.0

    def test_linear_closed_form(self):
        # (t * (-1) / (1 - t))' = -1/(1-t)^2
        p = parse_profile("1 - t", 1, 2)
        for t in (0.0, 0.3, 0.8):
            assert kcond(p, t) == pytest.approx(-1.0 / (1 - t) ** 2, rel=1e-13)

    def test_spring_is_constant(self):
        p = parse_profile("exp(-1.7*t)", math.inf, 2)
        for t in (0.0, 1.0, 10.0):
            assert kcond(p, t) == pytest.approx(-1.7, rel=1e-13)

    def test_power_closed_form(self):
        c1, c2, pw = 1.3, 0.8, 2.5
        p = parse_profile(f"({c1} + {c2}*t)^(-{pw})", math.inf, 2)
        for t in (0.0, 0.7, 3.0):
            expected = -pw * c1 * c2 / (c1 + c2 * t) ** 2
            assert kcond(p, t) == pytest.approx(expected, rel=1e-12)

    def test_out_of_range(self):
        p = parse_profile("1 - t", 1, 2)
        with pytest.raises(ValueError, match="outside"):
            kcond(p, 1.0)
        with pytest.raises(ValueError, match="outside"):
            kcond(p, -0.1)

    def test_matches_finite_difference_of_quotient(self, battery):
        for family in battery:
            p = family.profile
            quotient = lambda t: t * p.f1(t) / p.f(t)
            for t in (0.05, 0.3, 0.6 * family.u_window**2 + 0.05):
                h = 1e-5 * (1.0 + t)
                expected = fd1(quotient, t, h)
                assert kcond(p, t) == pytest.approx(expected, rel=1e-6, abs=1e-9)


class TestDerivativeConsistency:
    def test_battery_against_finite_differences(self, battery, rng):
        for family in battery:
            p = family.profile
            t_hi = family.u_window**2
            for _ in range(100):
                t = rng.uniform(0.05 * t_hi, 0.9 * t_hi)
                h = 1e-4 * (1.0 + t)
                for fn, dfn in ((p.f, p.f1), (p.f1, p.f2), (p.f2, p.f3)):
                    expected = fd1(fn, t, h)
                    actual = dfn(t)
                    assert abs(actual - expected) <= 1e-6 * (1.0 + abs(actual)), (
                        family.name,
                        t,
                    )


class TestValidate:
    def test_linear_valid(self):
        report = validate(parse_profile("1 - t", 1, 2))
        assert report.valid
        assert report.violation_summary() == {
            "positivity": 0,
            "monotonicity": 0,
            "pseudoconvexity": 0,
            "evaluation": 0,
        }

    def test_increasing_profile_invalid(self):
        report = validate(parse_profile("1 + t", 1, 2))
        assert not report.valid
        assert len(report.monotonicity_violations) > 0
        assert len(report.pseudoconvexity_violations) > 0

    def test_spring_valid(self):
        report = validate(parse_profile("2*exp(-0.5*t)", math.inf, 2))
        assert report.valid

    def test_flat_density_at_origin_invalid(self):
        # kcond(0) = 0 for 1 - t^2: fails the strict inequality at the origin
        report = validate(parse_profile("1 - t^2", 1, 2))
        assert not report.valid
        assert 0.0 in report.pseudoconvexity_violations

    def test_evaluation_failures_reported(self):
        report = validate(parse_profile("log(2 - t)", 4, 2), grid_size=64)
        assert not report.valid
        assert len(report.evaluation_failures) > 0
        assert len(report.positivity_violations) > 0

    def test_grid_size_guard(self):
        with pytest.raises(ValueError):
            validate(parse_profile("1 - t", 1, 2), grid_size=1)

    def test_battery_all_valid(self, battery):
        for family in battery:
            assert validate(family.profile).valid, family.name


class TestChebyshevGrid:
    def test_endpoints_and_monotone(self):
        grid = chebyshev_grid(2.0, 9)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(2.0)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_denser_toward_ends(self):
        grid = chebyshev_grid(1.0, 33)
        first_gap = grid[1] - grid[0]
        mid_gap = grid[17] - grid[16]
        assert first_gap < mid_gap


def test_random_slice_points_inside(rng):
    for maker in FAMILY_MAKERS:
        family = maker(rng)
        for sp in random_slice_points(family, 50, rng):
            assert sp.u * sp.u < family.profile.b
            assert sp.v * sp.v < family.profile.f(sp.u * sp.u)


class TestLogDerivativeKcond:
    # kcond comes from the jet of log f and does not see f underflow:
    # exp(-0.8*t) is 0.0 in float64 past t = 931, exp(-1.2*t - 0.08*t^2)
    # past t = 89
    TS = np.array([0.0, 1.0, 40.0, 100.0, 1000.0, 1e4])

    def test_spring_kcond_is_constant_tree(self):
        p = parse_profile("1.3*exp(-0.8*t)", math.inf, 2)
        rows, errors = on_grid(p, self.TS, "kcond", "kcond1", "kcond2")
        assert not errors
        assert rows.tolist() == [[-0.8] * 6, [0.0] * 6, [0.0] * 6]
        for t in self.TS.tolist():
            assert p.values(t, "kcond", "kcond1", "kcond2") == (-0.8, 0.0, 0.0)

    def test_fast_decay_kcond_has_no_exp(self):
        p = parse_profile("exp(-1.2*t - 0.08*t^2)", math.inf, 2)
        (k, k1, k2), errors = on_grid(p, self.TS, "kcond", "kcond1", "kcond2")
        assert not errors
        assert k == pytest.approx(-1.2 - 4 * 0.08 * self.TS, rel=1e-15)
        assert k1.tolist() == [-4 * 0.08] * 6 and k2.tolist() == [0.0] * 6
        assert kcond(p, 40.0) == pytest.approx(-1.2 - 4 * 0.08 * 40.0, rel=1e-15)
        assert kcond(p, 1e4) == pytest.approx(-1.2 - 4 * 0.08 * 1e4, rel=1e-15)

    @pytest.mark.parametrize("a,c", FAST_DECAY)
    def test_fast_decay_valid(self, a, c):
        report = validate(parse_profile(f"exp(-{a}*t - {c}*t^2)", math.inf, 2))
        assert report.valid, report.violation_summary()
