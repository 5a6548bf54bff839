"""Disk maps, the completeness criterion, and the ball embedding."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.spatial import cKDTree

from hartogs import (
    DomainPoint,
    SlicePoint,
    beltrami_klein,
    completeness,
    hermitian_metric,
    integrate_geodesic,
    parse_profile,
    phi_embed,
    psi,
    psi_map,
    psi_map_jacobian,
    slice_metric,
)
from hartogs.hyperbolic import (
    VERDICT_COMPLETE,
    VERDICT_INCOMPLETE,
    VERDICT_UNKNOWN,
    ProfileFamilyError,
    _classify_tail,
)
from hartogs.expressions import ExpressionEvalError
from hartogs.profile import kcond, not_pseudoconvex

from conftest import FAST_DECAY, fd1, random_slice_points


def completeness_integrand(profile, u: float) -> float:
    """sqrt(-kcond(u^2)): the arc-length density of the u-axis, up to sqrt(2),
    one point at a time."""
    k = kcond(profile, u * u)
    if -k < 0.0:
        raise not_pseudoconvex(u * u)
    return math.sqrt(-k)


def _sqrt_log_density_integral() -> float:
    # exp(-(1-t)*log(1-t) - 2*t) on b = 1 has -kcond = 1 - log(1-t) + t/(1-t),
    # so the density is g(u) * (1 - u)^(-1/2) with g bounded; quad's
    # algebraic weight takes the endpoint singularity exactly
    def g(u):
        w = 1.0 - u
        return math.sqrt((w * (1.0 - math.log(w * (1.0 + u))) if w > 0.0 else 0.0)
                         + u * u / (1.0 + u))

    return quad(g, 0.0, 1.0, weight="alg", wvar=(0.0, -0.5),
                epsabs=1e-14, epsrel=1e-13, limit=200)[0]


class TestPsi:
    def test_zero(self, battery):
        for family in battery:
            assert psi(family.profile, 0.0) == 0.0

    def test_overflowing_square_raises_without_warning(self):
        # u^2 overflows to inf and is pulled back inside b; the density then
        # fails to evaluate there, with no numpy warning on the way
        with pytest.raises(ExpressionEvalError):
            psi(parse_profile("(1 + t)^(-2)", math.inf, 2), 1e200)

    def test_spring_far_out(self):
        # the density of exp(-t) is 1, also where powers of f(u^2) underflow
        assert psi(parse_profile("exp(-t)", math.inf, 2), 25.0) == pytest.approx(25.0, abs=1e-9)

    def test_ball_is_arctanh(self):
        p = parse_profile("1 - t", 1, 2)
        for u in (0.2, 0.5, 0.9, -0.6):
            assert psi(p, u) == pytest.approx(math.atanh(u), abs=1e-12)

    def test_spring_is_linear(self):
        k = 1.7
        p = parse_profile(f"exp(-{k}*t)", math.inf, 2)
        for u in (0.5, 2.0, -1.2):
            assert psi(p, u) == pytest.approx(math.sqrt(k) * u, rel=1e-12)

    def test_odd(self, battery, rng):
        for family in battery:
            for _ in range(10):
                u = rng.uniform(0.01, family.u_window)
                assert psi(family.profile, -u) == pytest.approx(
                    -psi(family.profile, u), abs=1e-12
                )

    def test_strictly_increasing(self, battery, rng):
        for family in battery:
            us = sorted(rng.uniform(-family.u_window, family.u_window, 8))
            values = [psi(family.profile, u) for u in us]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_out_of_range(self):
        p = parse_profile("1 - t", 1, 2)
        with pytest.raises(ValueError):
            psi(p, 1.0)


class TestPsiMap:
    def test_identity_for_ball(self, rng):
        p = parse_profile("1 - t", 1, 2)
        for _ in range(50):
            u, v = rng.uniform(-0.65, 0.65, 2)
            if u * u + v * v > 0.8:
                continue
            x, y = psi_map(p, SlicePoint(u, v))
            assert abs(x - u) <= 1e-12
            assert abs(y - v) <= 1e-12

    def test_u_axis_zero(self, battery):
        for family in battery:
            p = family.profile
            v = 0.5 * math.sqrt(p.f(0.0))
            x, y = psi_map(p, SlicePoint(0.0, v))
            assert x == 0.0
            assert y == pytest.approx(v / math.sqrt(p.f(0.0)), rel=1e-14)

    def test_image_inside_disk(self, battery, rng):
        for family in battery:
            for sp in random_slice_points(family, 50, rng, v_frac=0.98):
                x, y = psi_map(family.profile, sp)
                assert x * x + y * y < 1.0

    def test_jacobian_matches_finite_differences(self, battery, rng):
        for family in battery:
            p = family.profile
            for sp in random_slice_points(family, 8, rng, v_frac=0.7):
                jac = psi_map_jacobian(p, sp)
                h = 1e-5
                fd = (
                    (
                        fd1(lambda s: psi_map(p, SlicePoint(sp.u + s, sp.v))[0], 0, h),
                        fd1(lambda s: psi_map(p, SlicePoint(sp.u, sp.v + s))[0], 0, h),
                    ),
                    (
                        fd1(lambda s: psi_map(p, SlicePoint(sp.u + s, sp.v))[1], 0, h),
                        fd1(lambda s: psi_map(p, SlicePoint(sp.u, sp.v + s))[1], 0, h),
                    ),
                )
                for i in range(2):
                    for j in range(2):
                        assert jac[i][j] == pytest.approx(fd[i][j], rel=1e-6, abs=1e-8)

    def test_pullback_of_klein_metric(self, battery, rng):
        # (DPsi)^T g_BK(Psi(p)) (DPsi) must reproduce the slice metric
        for family in battery:
            p = family.profile
            for sp in random_slice_points(family, 100, rng):
                x, y = psi_map(p, sp)
                jac = np.array(psi_map_jacobian(p, sp))
                bk = beltrami_klein(x, y).as_matrix()
                pulled = jac.T @ bk @ jac
                g = slice_metric(p, sp).as_matrix()
                scale = max(1.0, np.max(np.abs(g)))
                assert np.max(np.abs(pulled - g)) <= 1e-6 * scale, (family.name, sp)

    def test_injective_on_grid(self):
        p = parse_profile("exp(-0.9*t)", math.inf, 2)
        images = []
        for u in np.linspace(-2.0, 2.0, 100):
            vcap = 0.97 * math.sqrt(p.f(u * u))
            for v in np.linspace(-vcap, vcap, 100):
                images.append(psi_map(p, SlicePoint(u, v)))
        images = np.asarray(images)
        tree = cKDTree(images)
        dists, _ = tree.query(images, k=2)
        assert np.min(dists[:, 1]) > 1e-12


class TestCompleteness:
    def test_spring_complete(self):
        report = completeness(parse_profile("exp(-0.7*t)", math.inf, 2))
        assert report.verdict == VERDICT_COMPLETE
        assert math.isinf(report.integral_value)

    @pytest.mark.parametrize("a,c", FAST_DECAY)
    def test_fast_decay_complete(self, a, c):
        report = completeness(parse_profile(f"exp(-{a}*t - {c}*t^2)", math.inf, 2))
        assert report.verdict == VERDICT_COMPLETE

    def test_spring_ladder_stays_exact(self):
        profile = parse_profile("1.3063*exp(-1.4562*t)", math.inf, 2)
        assert completeness(profile).verdict == VERDICT_COMPLETE
        assert completeness_integrand(profile, 16.0) == pytest.approx(
            math.sqrt(1.4562), abs=1e-12
        )

    def test_ball_complete(self):
        report = completeness(parse_profile("1 - t", 1, 2))
        assert report.verdict == VERDICT_COMPLETE

    def test_power_neg_complete(self):
        report = completeness(parse_profile("(2 - 0.8*t)^3", 2.5, 2))
        assert report.verdict == VERDICT_COMPLETE

    @pytest.mark.parametrize("p_exp", [1, 2, 3, 4])
    def test_power_value_closed_form(self, p_exp):
        profile = parse_profile(f"(1.3 + 0.6*t)^(-{p_exp})", math.inf, 2)
        report = completeness(profile)
        assert report.verdict == VERDICT_INCOMPLETE
        assert report.integral_value == pytest.approx(
            (math.pi / 2.0) * math.sqrt(p_exp), abs=1e-6
        )

    @pytest.mark.parametrize("source,b,expected", [
        ("1/(1 + t^3)", math.inf, lambda: math.pi / 2.0),
        ("exp(-t)", 2.0, lambda: math.sqrt(2.0)),
        ("(1 + t)^(-2)", 4.0, lambda: math.sqrt(2.0) * math.atan(2.0)),
        ("exp(-(1-t)*log(1-t) - 2*t)", 1.0, _sqrt_log_density_integral),
    ], ids=["cubic", "spring", "power", "sqrt_singular"])
    def test_convergent_value_closed_form(self, source, b, expected):
        # psi at the last rung plus the extrapolated tail, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = completeness(parse_profile(source, b, 2))
        assert report.verdict == VERDICT_INCOMPLETE
        assert report.integral_value == pytest.approx(expected(), rel=1e-9)
        assert math.isfinite(report.diagnostics["tail"])

    def test_generic_tail_value(self):
        # -kcond = (a + 4ct + act^2) / (1 + at + ct^2)^2 at t = u^2, integrated
        # to 30 digits; the ladder's tail slope is exact only where kcond does
        # not cancel
        mpmath = pytest.importorskip("mpmath")
        a, c = mpmath.mpf("0.6071"), mpmath.mpf("1.6922")
        with mpmath.workdps(30):
            expected = mpmath.quad(
                lambda u: mpmath.sqrt(a + 4 * c * u**2 + a * c * u**4) / (1 + a * u**2 + c * u**4),
                [0, 1, mpmath.inf])
        report = completeness(parse_profile("1/(1 + 0.6071*t + 1.6922*t^2)", math.inf, 2))
        assert report.verdict == VERDICT_INCOMPLETE
        assert report.integral_value == pytest.approx(float(expected), rel=1e-10)

    @pytest.mark.parametrize("source,b", [
        ("exp(-t)", math.inf), ("(1 + t)^(-2)", 4.0),
        ("exp(-t) + 0/(t - 4)", math.inf),  # division by zero at the rung u = 2
        ("1 + t", math.inf),  # kcond > 0 from the first rung
        ("2", math.inf),  # kcond = 0: no positive density
        ("exp(-exp(t))", math.inf),  # an infinite density at u = 32
    ])
    def test_ladder_against_a_rung_by_rung_walk(self, source, b):
        # the rungs, densities and first failure of the one array pass
        # against the density at each rung in turn, up to its first failure
        profile = parse_profile(source, b, 2)
        if math.isinf(b):
            rungs = [2.0 ** j for j in range(17)]
        else:
            rungs = [math.sqrt(b) - math.sqrt(b) * 10.0 ** -j for j in range(2, 11)]
        densities, failure = [], None
        for u in rungs:
            try:
                value = completeness_integrand(profile, u)
            except ArithmeticError as exc:
                failure = [(u, str(exc))]
                break
            if not (math.isfinite(value) and value > 0.0):
                failure = [(u, f"value {value}")]
                break
            densities.append(value)
        diagnostics = completeness(profile).diagnostics
        assert diagnostics["ladder_u"] == rungs[:len(densities)]
        assert diagnostics["ladder_integrand"] == pytest.approx(densities, rel=1e-13)
        assert diagnostics.get("evaluation_failures") == failure

    def test_truncated_ball_incomplete(self):
        profile = parse_profile("1 - t", 0.25, 2)
        report = completeness(profile)
        assert report.verdict == VERDICT_INCOMPLETE
        # integral of 1/(1-u^2) from 0 to 1/2
        assert report.integral_value == pytest.approx(math.atanh(0.5), abs=1e-9)
        # the disk image misses a boundary neighborhood
        sup_psi = psi(profile, 0.5 * (1 - 1e-9))
        assert math.tanh(sup_psi) < 1.0 - 1e-6

    def test_incomplete_image_misses_disk_boundary(self, rng):
        # sup of tanh(psi) stays away from 1 for incomplete profiles
        for p_exp in (1.0, 2.5, 4.0):
            profile = parse_profile(f"(1.1 + 0.8*t)^(-{p_exp})", math.inf, 2)
            sup_psi = psi(profile, 60.0)
            assert math.tanh(sup_psi) < 1.0 - 1e-6

    def test_diagnostics_present(self):
        report = completeness(parse_profile("exp(-t)", math.inf, 2))
        assert report.diagnostics["boundary"] == "infinite"
        assert len(report.diagnostics["ladder_u"]) >= 4
        assert len(report.diagnostics["slopes"]) >= 3

    def test_tail_classifier_bands(self):
        assert _classify_tail([-2.0, -2.0, -2.0], "infinite") == VERDICT_INCOMPLETE
        assert _classify_tail([0.0, 0.0, 0.0], "infinite") == VERDICT_COMPLETE
        assert _classify_tail([-1.0, -1.0, -1.0], "finite") == VERDICT_COMPLETE
        assert _classify_tail([0.0, 0.0, 0.0], "finite") == VERDICT_INCOMPLETE
        # oscillating slopes are honestly inconclusive
        assert _classify_tail([-2.0, 0.0, -2.0], "infinite") == VERDICT_UNKNOWN
        assert _classify_tail([-1.0], "infinite") == VERDICT_UNKNOWN
        # near-critical estimates refuse to guess
        assert _classify_tail([-1.0, -1.0, -1.0], "infinite") == VERDICT_UNKNOWN

    def test_battery_verdicts(self, battery):
        expected = {
            "linear": VERDICT_COMPLETE,
            "spring": VERDICT_COMPLETE,
            "power_pos": VERDICT_INCOMPLETE,
            "power_neg": VERDICT_COMPLETE,
        }
        for family in battery:
            report = completeness(family.profile)
            assert report.verdict == expected[family.name], family.name


class TestPhiEmbed:
    def test_identity_for_unit_ball(self):
        p = parse_profile("1 - t", 1, 2)
        pt = DomainPoint(0.3 + 0.1j, (0.2 - 0.4j,))
        image = phi_embed(p, pt)
        assert image.z0 == pytest.approx(pt.z0)
        assert image.z[0] == pytest.approx(pt.z[0])

    def test_norm_approaches_one_at_boundary(self):
        p = parse_profile("4 - t", 4, 2)
        norms = []
        for eps in (0.3, 0.1, 0.01, 0.001):
            v = math.sqrt(4 - 1.0 - eps)  # |z0|^2 = 1, ||z||^2 = 3 - eps
            image = phi_embed(p, DomainPoint(1 + 0j, (v + 0j,)))
            norms.append(math.sqrt(abs(image.z0) ** 2 + abs(image.z[0]) ** 2))
        assert all(a < b for a, b in zip(norms, norms[1:]))
        assert norms[-1] > 0.999
        assert all(n < 1.0 for n in norms)

    def test_rejects_non_linear_profiles(self):
        p = parse_profile("exp(-t)", math.inf, 2)
        with pytest.raises(ProfileFamilyError):
            phi_embed(p, DomainPoint(0.1 + 0j, (0.1 + 0j,)))

    def test_pullback_is_isometric(self, rng):
        # diag scaling pulls the ball metric back to the domain metric
        c1, c2 = 2.5, 0.8
        p = parse_profile(f"{c1} - {c2}*t", c1 / c2, 3)
        ball = parse_profile("1 - t", 1, 3)
        scales = np.array([math.sqrt(c2 / c1), 1 / math.sqrt(c1), 1 / math.sqrt(c1)])
        for _ in range(50):
            w = rng.uniform(-0.5, 0.5, 6)
            pt = DomainPoint(complex(w[0], w[1]), (complex(w[2], w[3]), complex(w[4], w[5])))
            if abs(pt.z0) ** 2 > 0.8 * p.b:
                continue
            if sum(abs(z) ** 2 for z in pt.z) > 0.8 * p.f(abs(pt.z0) ** 2):
                continue
            image = phi_embed(p, pt)
            h_ball = hermitian_metric(ball, image)
            pulled = np.outer(scales, scales) * h_ball
            h_here = hermitian_metric(p, pt)
            assert np.max(np.abs(pulled - h_here)) <= 1e-8 * np.max(np.abs(h_here))

    def test_geodesics_map_to_ball_geodesics(self):
        # unit-speed geodesics correspond under the embedding; compare the
        # point sets with a Hausdorff distance over length 5
        c1, c2 = 2.0, 0.5
        p = parse_profile(f"{c1} - {c2}*t", c1 / c2, 2)
        ball = parse_profile("1 - t", 1, 2)
        direction = np.array([0.6, 0.8])
        trace = integrate_geodesic(p, SlicePoint(0.0, 0.0), direction, 5.0)
        mapped = trace.points @ np.diag([math.sqrt(c2 / c1), 1 / math.sqrt(c1)])
        image_dir = direction * np.array([math.sqrt(c2 / c1), 1 / math.sqrt(c1)])
        ball_trace = integrate_geodesic(ball, SlicePoint(0.0, 0.0), image_dir, 5.0)
        tree_a = cKDTree(mapped)
        tree_b = cKDTree(ball_trace.points)
        d_ab = np.max(tree_b.query(mapped)[0])
        d_ba = np.max(tree_a.query(ball_trace.points)[0])
        assert max(d_ab, d_ba) <= 1e-6


def test_completeness_integrand_is_psi_derivative(battery, rng):
    for family in battery:
        for _ in range(10):
            u = rng.uniform(0, family.u_window)
            h = 1e-5
            if u < 2 * h:
                continue
            numeric = fd1(lambda s: psi(family.profile, s), u, h)
            assert completeness_integrand(family.profile, u) == pytest.approx(numeric, rel=1e-7)
