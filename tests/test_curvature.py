"""Gaussian curvatures, the determinant invariant, and family classification."""

import math

import numpy as np
import pytest

import hartogs.metric
from hartogs import (
    SlicePoint,
    beltrami_klein,
    classify_profile,
    einstein_check,
    gauss_curvature_base,
    gauss_curvature_slice,
    monge_ampere_J,
    parse_profile,
)
from hartogs.curvature import (
    FAMILY_GENERIC,
    FAMILY_HYPERBOLIC,
    FAMILY_POWER_NEG,
    FAMILY_POWER_POS,
    FAMILY_SPRING,
    brioschi_curvature,
)
from hartogs.connection import christoffel_generic
from hartogs.metric import SliceMetricJet, normalized_slice_jet_values, slice_metric_jet

from conftest import FAMILY_MAKERS, FAST_DECAY, bench_inputs, fd1, fd2, random_slice_points


class TestSliceCurvature:
    def test_battery_minus_half(self, battery, rng):
        for family in battery:
            for sp in random_slice_points(family, 100, rng):
                k = gauss_curvature_slice(family.profile, sp)
                assert abs(k + 0.5) < 1e-6, (family.name, sp)

    def test_beltrami_klein_directly(self, rng):
        # finite-difference jet of the Klein metric fed into the same formula
        class NumericJet:
            pass

        for _ in range(20):
            x, y = rng.uniform(-0.6, 0.6, 2)
            if x * x + y * y > 0.7:
                continue
            h = 1e-4
            jet = NumericJet()
            for name in ("g11", "g12", "g22"):
                entry = lambda a, b, nm=name: getattr(beltrami_klein(a, b), nm)
                setattr(jet, name, entry(x, y))
                setattr(jet, name + "_u", fd1(lambda s: entry(x + s, y), 0, h))
                setattr(jet, name + "_v", fd1(lambda s: entry(x, y + s), 0, h))
            jet.g11_vv = fd2(lambda s: beltrami_klein(x, y + s).g11, 0, h)
            jet.g22_uu = fd2(lambda s: beltrami_klein(x + s, y).g22, 0, h)
            jet.g12_uv = fd1(
                lambda s1: fd1(lambda s2: beltrami_klein(x + s1, y + s2).g12, 0, h), 0, h
            )
            assert brioschi_curvature(jet) == pytest.approx(-0.5, abs=1e-6)


class TestSliceCurvaturePath:
    """K is read off the jet entries as floats, without the record, and
    equals Brioschi's formula on the record to the bit."""

    def test_equals_brioschi_of_the_record(self, battery):
        rng = np.random.default_rng(20261020)
        points = [(f.profile, sp) for f in battery for sp in random_slice_points(f, 20, rng)]
        for case in bench_inputs().DossierInputs(7).next_pass(0):
            p = parse_profile(case.source, case.b, 2)
            points += [(p, SlicePoint(u, v)) for u, v in case.points]
        for p, sp in points:
            k = gauss_curvature_slice(p, sp)
            record = SliceMetricJet(*normalized_slice_jet_values(p, sp)[0])
            assert k.hex() == brioschi_curvature(record).hex(), sp

    def test_builds_no_record(self, battery, monkeypatch):
        rng = np.random.default_rng(20261021)

        def no_record(*entries):
            raise AssertionError("a SliceMetricJet was built")

        monkeypatch.setattr(hartogs.metric, "SliceMetricJet", no_record)
        for family in battery:
            for sp in random_slice_points(family, 4, rng):
                assert abs(gauss_curvature_slice(family.profile, sp) + 0.5) < 1e-6


class TestNotPseudoconvexSlice:
    # det g * (f - v^2)^3 = -4 f^2 kcond, and kcond = 1/(1 + t)^2 > 0 on 1 + t
    @pytest.mark.parametrize("read", [gauss_curvature_slice, slice_metric_jet,
                                      christoffel_generic])
    def test_point_where_kcond_is_positive_raises(self, read):
        p = parse_profile("1 + t", 1.0, 2)
        with pytest.raises(ArithmeticError,
                           match=r"^pseudoconvexity density positive at t=0\.25; "):
            read(p, SlicePoint(0.5, 0.1))

    def test_point_where_kcond_is_zero_raises(self):
        # 1 - t^2 has kcond(0) = 0: the metric is degenerate at u = 0
        p = parse_profile("1 - t^2", 1.0, 2)
        with pytest.raises(ArithmeticError, match=r"^pseudoconvexity density positive at t=0"):
            gauss_curvature_slice(p, SlicePoint(0.0, 0.3))


class TestBaseCurvature:
    def test_spring_flat(self, rng):
        for _ in range(3):
            c = rng.uniform(0.5, 3.0)
            k = rng.uniform(0.3, 2.5)
            p = parse_profile(f"{c!r}*exp(-{k!r}*t)", math.inf, 2)
            for x in (0.0, 0.7, 3.0):
                assert abs(gauss_curvature_base(p, x)) < 1e-6

    def test_power_curvature_one(self):
        # exponent -2 corresponds to base curvature 1
        p = parse_profile("(1 + 0.7*t)^(-2)", math.inf, 2)
        for x in (0.0, 1.0, 4.0):
            assert gauss_curvature_base(p, x) == pytest.approx(1.0, abs=1e-5)

    def test_linear_curvature_minus_two(self):
        p = parse_profile("1 - t", 1, 2)
        for x in (0.0, 0.3, 0.8):
            assert gauss_curvature_base(p, x) == pytest.approx(-2.0, abs=1e-5)

    def test_exponent_relation(self, rng):
        # (c1 + c2 t)^q has constant base curvature -2/q
        for _ in range(5):
            q = rng.uniform(-4.0, 3.0)
            if abs(q) < 0.3:
                continue
            c1 = rng.uniform(0.6, 1.8)
            c2 = rng.uniform(0.2, 1.0) * (1 if q < 0 else -1)
            b = math.inf if c2 > 0 and q < 0 else (c1 / abs(c2) if c2 < 0 else math.inf)
            p = parse_profile(f"({c1!r} + {c2!r}*t)^{q!r}", b, 2)
            x = 0.3 * (b if math.isfinite(b) else 1.0)
            assert gauss_curvature_base(p, x) == pytest.approx(-2.0 / q, rel=1e-6)

    def test_out_of_range(self):
        p = parse_profile("1 - t", 1, 2)
        with pytest.raises(ValueError):
            gauss_curvature_base(p, 1.0)

    def test_non_pseudoconvex_point_raises(self):
        # kcond > 0 from t ~ 10 on, where f levels off at exp(-10)
        p = parse_profile("exp(-t) + exp(-10)", math.inf, 2)
        with pytest.raises(ArithmeticError, match=r"^base metric degenerate at x=20\.0 "):
            gauss_curvature_base(p, 20.0)


class TestMongeAmpere:
    def test_linear_constant(self, rng):
        c1, c2 = 2.0, 3.0
        p = parse_profile(f"{c1} - {c2}*t", c1 / c2, 2)
        for x in (0.0, 0.2, 0.5):
            assert monge_ampere_J(p, x) == pytest.approx(c1 * c2, rel=1e-12)

    def test_spring_decays(self):
        p = parse_profile("exp(-t)", math.inf, 2)
        for x in (0.0, 0.5, 2.0):
            assert monge_ampere_J(p, x) == pytest.approx(math.exp(-2 * x), rel=1e-12)

    def test_positive_on_battery(self, battery, rng):
        for family in battery:
            t_hi = family.u_window**2
            for _ in range(50):
                x = rng.uniform(0.0, t_hi)
                assert monge_ampere_J(family.profile, x) > 0.0

    def test_matches_complex_hessian_of_log_f(self, battery, rng):
        # J = -f^2 * (quarter Laplacian of log f(a^2 + b^2)) via finite
        # differences in the z0-plane
        for family in battery:
            p = family.profile
            for _ in range(10):
                radius = rng.uniform(0.1, family.u_window)
                angle = rng.uniform(0, 2 * math.pi)
                a0, b0 = radius * math.cos(angle), radius * math.sin(angle)
                step = 1e-4

                def log_f(da, db):
                    return math.log(p.f((a0 + da) ** 2 + (b0 + db) ** 2))

                laplacian = fd2(lambda s: log_f(s, 0.0), 0, step) + fd2(
                    lambda s: log_f(0.0, s), 0, step
                )
                x = radius * radius
                expected = -p.f(x) ** 2 * laplacian / 4.0
                assert monge_ampere_J(p, x) == pytest.approx(expected, rel=1e-5, abs=1e-8)

    @pytest.mark.parametrize("source, b, x", [("1 + t", 1.0, 0.5),
                                              ("exp(-t) + exp(-10)", math.inf, 20.0)])
    def test_kcond_not_negative_raises(self, source, b, x):
        # -f^2 * kcond would come out negative, where there is no metric
        with pytest.raises(ArithmeticError, match=rf"^base metric degenerate at x={x} "):
            monge_ampere_J(parse_profile(source, b, 2), x)


class TestEinstein:
    def test_linear_einstein(self):
        report = einstein_check(parse_profile("2 - 3*t", 2 / 3, 2))
        assert report.is_einstein
        assert report.mean_value == pytest.approx(6.0, rel=1e-12)
        assert report.max_relative_variation < 1e-8

    def test_spring_not_einstein(self):
        assert not einstein_check(parse_profile("exp(-t)", math.inf, 2)).is_einstein

    def test_power_not_einstein(self):
        assert not einstein_check(parse_profile("(1 + t)^(-3)", math.inf, 2)).is_einstein

    @pytest.mark.parametrize("report", [einstein_check, classify_profile])
    @pytest.mark.parametrize("source, f0", [("1e300*1e300 - t", "inf"), ("t - 1", "-1.0")])
    def test_reports_need_f0_positive_and_finite(self, report, source, f0):
        with pytest.raises(ArithmeticError, match=rf"^f\(0\) = {f0}; "):
            report(parse_profile(source, 1.0, 2))

    @pytest.mark.parametrize("source, b", [("1 + t", 1.0), ("exp(-t) + exp(-10)", math.inf)])
    def test_kcond_not_negative_raises(self, source, b):
        # J = -1 on the whole grid of 1 + t, constant, but there is no metric;
        # both reports raise what gauss_curvature_base raises at the first point
        messages = set()
        for report in (einstein_check, classify_profile):
            with pytest.raises(ArithmeticError, match=r"^base metric degenerate at x=") as raised:
                report(parse_profile(source, b, 2))
            messages.add(str(raised.value))
        assert len(messages) == 1

    def test_equivalent_to_hyperbolic_classification(self, battery):
        profiles = [f.profile for f in battery]
        profiles.append(parse_profile("1/(1 + t + t^2)", math.inf, 2))
        for p in profiles:
            is_einstein = einstein_check(p).is_einstein
            is_hyperbolic = classify_profile(p).family == FAMILY_HYPERBOLIC
            assert is_einstein == is_hyperbolic


class TestClassification:
    def test_spec_examples(self):
        r = classify_profile(parse_profile("1 - t", 1, 2))
        assert r.family == FAMILY_HYPERBOLIC
        assert r.params["c1"] == pytest.approx(1.0, abs=1e-10)
        assert r.params["c2"] == pytest.approx(1.0, abs=1e-10)
        assert r.fit_residual < 1e-10

        r = classify_profile(parse_profile("exp(-2*t)", math.inf, 2))
        assert r.family == FAMILY_SPRING
        assert r.params["c"] == pytest.approx(1.0, abs=1e-10)
        assert r.params["k"] == pytest.approx(2.0, abs=1e-10)

        r = classify_profile(parse_profile("(1 + t)^(-4)", math.inf, 2))
        assert r.family == FAMILY_POWER_POS
        assert r.params["K0"] == pytest.approx(0.5, rel=1e-6)

    def test_round_trip_battery(self, rng):
        expected_families = {
            "linear": FAMILY_HYPERBOLIC,
            "spring": FAMILY_SPRING,
            "power_pos": FAMILY_POWER_POS,
            "power_neg": FAMILY_POWER_NEG,
        }
        for maker in FAMILY_MAKERS:
            for _ in range(3):
                family = maker(rng)
                result = classify_profile(family.profile)
                assert result.family == expected_families[family.name], family.params
                assert result.fit_residual < 1e-6
                if family.name == "linear":
                    assert result.params["c1"] == pytest.approx(family.params["c1"], rel=1e-6)
                    assert result.params["c2"] == pytest.approx(family.params["c2"], rel=1e-6)
                elif family.name == "spring":
                    assert result.params["c"] == pytest.approx(family.params["c"], rel=1e-6)
                    assert result.params["k"] == pytest.approx(family.params["k"], rel=1e-6)
                else:
                    assert result.params["c1"] == pytest.approx(family.params["c1"], rel=1e-5)
                    assert result.params["c2"] == pytest.approx(family.params["c2"], rel=1e-5)

    def test_generic_profile(self):
        r = classify_profile(parse_profile("1/(1 + t + t^2)", math.inf, 2))
        assert r.family == FAMILY_GENERIC
        assert math.isinf(r.fit_residual)

    @pytest.mark.parametrize("a,c", FAST_DECAY)
    def test_fast_decay_generic(self, a, c):
        r = classify_profile(parse_profile(f"exp(-{a}*t - {c}*t^2)", math.inf, 2))
        assert r.family == FAMILY_GENERIC

    def test_power_neg_exponent_one_is_hyperbolic(self):
        # (c1 - c2 t)^1 is linear; classification order resolves the overlap
        r = classify_profile(parse_profile("(1.5 - 0.5*t)^1", 3.0, 2))
        assert r.family == FAMILY_HYPERBOLIC

    def test_kcond_not_negative_raises_before_the_linear_fit(self):
        # 1 + t is linear, but kcond = 1/(1 + t)^2 > 0: no family, not c2 = -1
        with pytest.raises(ArithmeticError, match=r"^base metric degenerate at x=0\.0 "):
            classify_profile(parse_profile("1 + t", 1.0, 2))

    @pytest.mark.parametrize("source", ["t - 1", "-1 - t", "-exp(-t)"])
    def test_f0_not_positive_raises(self, source):
        # the reports test g = f/f(0); at f(0) < 0 that is -f, whose family f has not
        with pytest.raises(ArithmeticError, match=r"f\(0\) = "):
            classify_profile(parse_profile(source, 1.0, 2))
