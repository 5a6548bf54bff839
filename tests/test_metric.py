"""Potential, Hermitian metric, slice metric, and the Klein reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import (
    DomainPoint,
    OutsideDomainError,
    SlicePoint,
    beltrami_klein,
    hermitian_metric,
    integrate_geodesic,
    parse_profile,
    potential,
    psi_map,
    slice_metric,
    slice_metric_generic,
)
from hartogs.metric import slice_metric_jet

from conftest import fd1, fd2, random_slice_points


def riemannian_inner(h: np.ndarray, x, y) -> float:
    """Real inner product 2*Re(x^T h conj(y)) of real tangents in complex form."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return float(2.0 * np.real(x @ h @ np.conj(y)))


HESSIAN_STEP = 1e-4


def hessian_points(family, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Real coordinates (Re z0, Im z0, Re z1, Im z1) of points inside D_F by
    construction: |z0| within the family's u window, |z1| at most 0.7 *
    sqrt(f(|z0|^2)), at random phases."""
    points = []
    for _ in range(count):
        r0 = rng.uniform(0.0, family.u_window)
        r1 = rng.uniform(0.0, 0.7) * math.sqrt(family.profile.f(r0 * r0))
        a0, a1 = rng.uniform(0.0, 2.0 * math.pi, 2)
        points.append(np.array([r0 * math.cos(a0), r0 * math.sin(a0),
                                r1 * math.cos(a1), r1 * math.sin(a1)]))
    return points


class TestPotential:
    def test_origin(self):
        p = parse_profile("1 - t", 1, 2)
        assert potential(p, DomainPoint.origin(2)) == 0.0

    def test_half_point(self):
        p = parse_profile("1 - t", 1, 3)
        pt = DomainPoint(0j, (0.5 + 0j, 0j))
        assert potential(p, pt) == pytest.approx(-math.log(0.75), rel=1e-15)

    def test_exponential(self):
        p = parse_profile("exp(-t)", math.inf, 2)
        pt = DomainPoint(1 + 0j, (0j,))
        assert potential(p, pt) == pytest.approx(1.0, rel=1e-15)

    def test_boundary_rejected(self):
        p = parse_profile("1 - t", 1, 2)
        with pytest.raises(OutsideDomainError):
            potential(p, DomainPoint(0j, (1 + 0j,)))
        with pytest.raises(OutsideDomainError):
            potential(p, DomainPoint(1.2 + 0j, (0j,)))


NAN = math.nan


class TestNonFinitePoints:
    # a nan gap fails every comparison, so the guards test for being inside
    @pytest.mark.parametrize("entry", [
        lambda p: slice_metric(p, SlicePoint(NAN, 0.0)),
        lambda p: slice_metric(p, SlicePoint(0.0, NAN)),
        lambda p: slice_metric_jet(p, SlicePoint(NAN, 0.0)),
        lambda p: psi_map(p, SlicePoint(NAN, 0.0)),
        lambda p: psi_map(p, SlicePoint(0.0, NAN)),
        lambda p: integrate_geodesic(p, SlicePoint(NAN, 0.0), (1.0, 0.0), 1.0),
        lambda p: integrate_geodesic(p, SlicePoint(0.0, NAN), (1.0, 0.0), 1.0),
        lambda p: potential(p, DomainPoint(complex(NAN, 0.0), (0j,))),
        lambda p: potential(p, DomainPoint(0j, (complex(0.0, NAN),))),
        lambda p: hermitian_metric(p, DomainPoint(complex(NAN, 0.0), (0j,))),
        lambda p: beltrami_klein(NAN, 0.0),
    ], ids=["slice_metric-u", "slice_metric-v", "slice_metric_jet-u", "psi_map-u", "psi_map-v",
            "geodesic-u", "geodesic-v", "potential-z0", "potential-z", "hermitian-z0",
            "beltrami_klein-x"])
    def test_nan_is_outside(self, entry):
        with pytest.raises(OutsideDomainError, match="nan"):
            entry(parse_profile("1 - t", 1, 2))


class TestHermitianMetric:
    def test_identity_at_origin_for_ball(self):
        p = parse_profile("1 - t", 1, 2)
        h = hermitian_metric(p, DomainPoint.origin(2))
        assert np.allclose(h, np.eye(2), atol=1e-15)

    def test_diagonal_at_origin(self):
        p = parse_profile("3*exp(-2*t)", math.inf, 3)
        h = hermitian_metric(p, DomainPoint.origin(3))
        f0, f1_0 = p.f(0.0), p.f1(0.0)
        expected = np.diag([-f1_0 / f0, 1 / f0, 1 / f0])
        assert np.allclose(h, expected, atol=1e-15)

    def test_matches_complex_hyperbolic_closed_form(self, rng):
        p = parse_profile("1 - t", 1, 3)
        for _ in range(50):
            w = rng.uniform(-0.35, 0.35, 6)
            pt = DomainPoint(complex(w[0], w[1]), (complex(w[2], w[3]), complex(w[4], w[5])))
            gap = 1 - sum(abs(z) ** 2 for z in (pt.z0, *pt.z))
            if gap < 0.05:
                continue
            z = np.array([pt.z0, *pt.z])
            expected = np.eye(3) / gap + np.outer(np.conj(z), z) / gap**2
            assert np.allclose(hermitian_metric(p, pt), expected, rtol=1e-12, atol=1e-14)

    def test_hermitian_and_positive_definite(self, battery, rng):
        for family in battery:
            p = family.profile
            for sp in random_slice_points(family, 100, rng):
                phase = math.pi * rng.uniform(-1, 1)
                pt = DomainPoint(sp.u * complex(math.cos(phase), math.sin(phase)), (complex(sp.v),))
                h = hermitian_metric(p, pt)
                assert np.allclose(h, h.conj().T, atol=1e-13)
                # leading principal minors
                assert h[0, 0].real > 0
                assert np.linalg.det(h).real > 0

    def test_positive_definite_three_dimensional(self, rng):
        p = parse_profile("1.5*exp(-0.8*t)", math.inf, 3)
        for _ in range(100):
            u = rng.uniform(-1.5, 1.5)
            phase = rng.uniform(0, 2 * math.pi)
            z0 = u * complex(math.cos(phase), math.sin(phase))
            cap = math.sqrt(p.f(abs(z0) ** 2))
            z1 = rng.uniform(-0.6, 0.6) * cap
            z2 = rng.uniform(-0.6, 0.6) * cap * 1j
            if abs(z1) ** 2 + abs(z2) ** 2 >= 0.85 * cap * cap:
                continue
            h = hermitian_metric(p, DomainPoint(z0, (z1, z2)))
            for k in (1, 2, 3):
                minor = np.linalg.det(h[:k, :k]).real
                assert minor > 0

    def test_against_finite_difference_hessian(self, battery):
        # h_ij = (d_ai d_aj + d_bi d_bj + i(d_ai d_bj - d_bi d_aj)) Phi / 4
        rng = np.random.default_rng(20240518)
        for family in battery:
            p = family.profile
            for coords in hessian_points(family, 10, rng):

                def phi(c):
                    return potential(p, DomainPoint(complex(c[0], c[1]), (complex(c[2], c[3]),)))

                h = hermitian_metric(
                    p, DomainPoint(complex(coords[0], coords[1]), (complex(coords[2], coords[3]),))
                )
                step = HESSIAN_STEP
                for i in range(2):
                    for j in range(2):
                        ai, bi = 2 * i, 2 * i + 1
                        aj, bj = 2 * j, 2 * j + 1

                        def second(idx1, idx2):
                            if idx1 == idx2:
                                def along(s):
                                    c = coords.copy()
                                    c[idx1] += s
                                    return phi(c)
                                return fd2(along, 0.0, step)
                            def along(s1):
                                def inner(s2):
                                    c = coords.copy()
                                    c[idx1] += s1
                                    c[idx2] += s2
                                    return phi(c)
                                return fd1(inner, 0.0, step)
                            return fd1(along, 0.0, step)

                        expected = (
                            second(ai, aj)
                            + second(bi, bj)
                            + 1j * (second(ai, bj) - second(bi, aj))
                        ) / 4.0
                        assert h[i, j] == pytest.approx(expected, rel=1e-5, abs=1e-7), (
                            family.name,
                            i,
                            j,
                        )

    def test_hessian_points_keep_their_stencil_inside(self, battery):
        # the stencil moves each coordinate by at most 2 * HESSIAN_STEP; with
        # f decreasing, its worst corner moves every coordinate outward
        for seed in range(200):
            rng = np.random.default_rng(seed)
            for family in battery:
                for coords in hessian_points(family, 10, rng):
                    c = coords + np.copysign(2 * HESSIAN_STEP, coords)
                    potential(family.profile,
                              DomainPoint(complex(c[0], c[1]), (complex(c[2], c[3]),)))

    def test_dimension_mismatch(self):
        p = parse_profile("1 - t", 1, 3)
        with pytest.raises(ValueError, match="coordinates"):
            hermitian_metric(p, DomainPoint.origin(2))


class TestSliceMetric:
    def test_origin_closed_form(self, battery):
        for family in battery:
            p = family.profile
            g = slice_metric(p, SlicePoint(0.0, 0.0))
            f0, f1_0 = p.f(0.0), p.f1(0.0)
            assert g.g11 == pytest.approx(-2 * f1_0 / f0, rel=1e-14)
            assert g.g12 == 0.0
            assert g.g22 == pytest.approx(2 / f0, rel=1e-14)

    def test_ball_origin_values(self):
        g = slice_metric(parse_profile("1 - t", 1, 2), SlicePoint(0.0, 0.0))
        assert (g.g11, g.g12, g.g22) == (2.0, 0.0, 2.0)

    def test_linear_profile_is_beltrami_klein(self, rng):
        p = parse_profile("1 - t", 1, 2)
        for _ in range(100):
            u, v = rng.uniform(-0.7, 0.7, 2)
            if u * u + v * v > 0.8:
                continue
            g = slice_metric(p, SlicePoint(u, v))
            bk = beltrami_klein(u, v)
            assert g.g11 == pytest.approx(bk.g11, rel=1e-12)
            assert g.g12 == pytest.approx(bk.g12, rel=1e-12, abs=1e-12)
            assert g.g22 == pytest.approx(bk.g22, rel=1e-12)

    def test_closed_form_matches_generic(self, battery, rng):
        for family in battery:
            p = family.profile
            for sp in random_slice_points(family, 100, rng):
                g = slice_metric(p, sp)
                h = slice_metric_generic(p, sp)
                for a, b in ((g.g11, h.g11), (g.g12, h.g12), (g.g22, h.g22)):
                    assert abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b)), family.name

    def test_spring_on_axis(self):
        p = parse_profile("exp(-t)", math.inf, 2)
        g = slice_metric(p, SlicePoint(1.0, 0.0))
        f, f1, f2 = (fn(1.0) for fn in (p.f, p.f1, p.f2))
        c = f1 * f1 - (f1 + f2) * f
        assert g.g11 == pytest.approx(2 * c / f**2, rel=1e-14)
        assert g.g22 == pytest.approx(2 / f, rel=1e-14)

    def test_off_axis_coupling_never_vanishes(self, battery, rng):
        # the metric cannot split: g12 = -2 f1 u v / w^2 != 0 when u, v != 0
        for family in battery:
            p = family.profile
            for sp in random_slice_points(family, 50, rng):
                if abs(sp.u) < 1e-3 or abs(sp.v) < 1e-3:
                    continue
                if abs(p.f1(sp.u * sp.u)) < 1e-12:
                    continue
                assert slice_metric(p, sp).g12 != 0.0

    def test_positive_definite(self, battery, rng):
        for family in battery:
            for sp in random_slice_points(family, 100, rng):
                g = slice_metric(family.profile, sp)
                assert g.g11 > 0 and g.g22 > 0 and g.det > 0

    def test_outside_rejected(self):
        p = parse_profile("1 - t", 1, 2)
        with pytest.raises(OutsideDomainError):
            slice_metric(p, SlicePoint(0.0, 1.0))
        with pytest.raises(OutsideDomainError):
            slice_metric(p, SlicePoint(1.5, 0.0))


class TestBeltramiKlein:
    def test_origin(self):
        g = beltrami_klein(0.0, 0.0)
        assert (g.g11, g.g12, g.g22) == (2.0, 0.0, 2.0)

    def test_on_axis(self):
        x = 0.6
        g = beltrami_klein(x, 0.0)
        assert g.g11 == pytest.approx(2 / (1 - x * x) ** 2, rel=1e-15)
        assert g.g22 == pytest.approx(2 / (1 - x * x), rel=1e-15)

    @given(
        st.floats(-0.7, 0.7, allow_nan=False),
        st.floats(-0.7, 0.7, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_swap_symmetry(self, x, y):
        if x * x + y * y >= 0.98:
            return
        # equal up to float non-associativity of 1 - x^2 - y^2
        assert beltrami_klein(x, y).g11 == pytest.approx(
            beltrami_klein(y, x).g22, rel=1e-14
        )

    def test_outside_disk(self):
        with pytest.raises(OutsideDomainError):
            beltrami_klein(0.8, 0.7)


class TestSliceMetricJet:
    def test_derivatives_against_finite_differences(self, battery, rng):
        for family in battery:
            p = family.profile
            for sp in random_slice_points(family, 15, rng, v_frac=0.7):
                jet = slice_metric_jet(p, sp)
                h = 1e-5 * (1.0 + abs(sp.u) + abs(sp.v))

                def entry(name):
                    def at(u, v):
                        return getattr(slice_metric(p, SlicePoint(u, v)), name)
                    return at

                g11, g12, g22 = entry("g11"), entry("g12"), entry("g22")
                u, v = sp.u, sp.v
                checks = [
                    (jet.g11_u, fd1(lambda s: g11(u + s, v), 0, h)),
                    (jet.g11_v, fd1(lambda s: g11(u, v + s), 0, h)),
                    (jet.g12_u, fd1(lambda s: g12(u + s, v), 0, h)),
                    (jet.g12_v, fd1(lambda s: g12(u, v + s), 0, h)),
                    (jet.g22_u, fd1(lambda s: g22(u + s, v), 0, h)),
                    (jet.g22_v, fd1(lambda s: g22(u, v + s), 0, h)),
                    (jet.g11_vv, fd2(lambda s: g11(u, v + s), 0, h)),
                    (jet.g22_uu, fd2(lambda s: g22(u + s, v), 0, h)),
                    (jet.g12_uv, fd1(lambda s1: fd1(lambda s2: g12(u + s1, v + s2), 0, h), 0, h)),
                ]
                scale = max(abs(jet.g11), abs(jet.g22), 1.0)
                for analytic, numeric in checks:
                    assert abs(analytic - numeric) <= 1e-5 * max(scale, abs(analytic)), (
                        family.name,
                        sp,
                    )


def test_riemannian_inner_matches_slice(battery, rng):
    for family in battery:
        p = family.profile
        for sp in random_slice_points(family, 20, rng):
            z = (complex(sp.v),) + (0j,) * (p.n - 2)
            h = hermitian_metric(p, DomainPoint(complex(sp.u), z))
            g = slice_metric(p, sp)
            e_u = np.zeros(p.n, dtype=complex)
            e_u[0] = 1.0
            e_v = np.zeros(p.n, dtype=complex)
            e_v[1] = 1.0
            assert riemannian_inner(h, e_u, e_u) == pytest.approx(g.g11, rel=1e-10)
            assert riemannian_inner(h, e_u, e_v) == pytest.approx(g.g12, rel=1e-10, abs=1e-12)
            assert riemannian_inner(h, e_v, e_v) == pytest.approx(g.g22, rel=1e-10)
