"""The mu half of the automorphisms of a Hartogs domain.

(z0, z) -> (z0, mu*z) maps D_F onto D_(mu^2 F), and (u, v) -> (u, mu*v) on
the slice, so the two carry the same geometry.  A metric entry with k v's
among its indices and derivatives scales by mu^-k, a Christoffel symbol by
mu to the v's among its upper index less those among its lower ones, and
every invariant stays as it is, at any scale float64 holds.
"""

import math

import numpy as np
import pytest

from hartogs import (
    SlicePoint,
    christoffel_closed,
    christoffel_generic,
    classify_profile,
    completeness,
    einstein_check,
    gauss_curvature_slice,
    integrate_geodesic,
    slice_metric,
)
from hartogs.metric import slice_metric_jet

from conftest import random_slice_points, scaled

MU2 = (1e-100, 1e-13, 1e40, 1e100)
TOL = 1e-12
# the v's among the indices and derivatives of each entry
METRIC_V = {"g11": 0, "g12": 1, "g22": 2}
JET_V = METRIC_V | {"g11_u": 0, "g11_v": 1, "g12_u": 1, "g12_v": 2, "g22_u": 2, "g22_v": 3,
                    "g11_vv": 2, "g12_uv": 2, "g22_uu": 2}
# the v's among the upper index less those among the lower ones
CHRISTOFFEL_V = {"G111": 0, "G211": 1, "G112": -1, "G212": 0, "G122": -2, "G222": -1}


def _pairs(battery, mu2, count=12):
    """(family, scaled profile, [(sp, image of sp)]) for each family."""
    rng = np.random.default_rng(20260517)
    mu = math.sqrt(mu2)
    for family in battery:
        points = random_slice_points(family, count, rng)
        yield family, scaled(family.profile, mu2), [(sp, SlicePoint(sp.u, mu * sp.v)) for sp in points]


def _assert_maps(original, image, powers, mu, floor=0.0):
    """Each entry of image is mu^power times the entry of original, to TOL
    relative, or to TOL * floor where it vanishes to rounding."""
    for name, power in powers.items():
        want, got = getattr(original, name), getattr(image, name) / mu ** power
        assert abs(got - want) <= TOL * max(abs(want), floor), (name, got, want)


@pytest.mark.parametrize("mu2", MU2)
class TestMuRelation:
    def test_curvature_is_invariant(self, battery, mu2):
        for family, profile, pairs in _pairs(battery, mu2):
            for sp, image in pairs:
                got, want = gauss_curvature_slice(profile, image), gauss_curvature_slice(family.profile, sp)
                assert abs(got - want) <= TOL, (family.name, sp)

    def test_metric_and_jet_map_by_powers_of_mu(self, battery, mu2):
        mu = math.sqrt(mu2)
        for family, profile, pairs in _pairs(battery, mu2):
            for sp, image in pairs:
                _assert_maps(slice_metric(family.profile, sp), slice_metric(profile, image),
                             {name: -k for name, k in METRIC_V.items()}, mu)
                _assert_maps(slice_metric_jet(family.profile, sp), slice_metric_jet(profile, image),
                             {name: -k for name, k in JET_V.items()}, mu)

    @pytest.mark.parametrize("route", [christoffel_closed, christoffel_generic])
    def test_christoffel_symbols_map_by_powers_of_mu(self, battery, mu2, route):
        mu = math.sqrt(mu2)
        for family, profile, pairs in _pairs(battery, mu2):
            for sp, image in pairs:
                original = route(family.profile, sp)
                # G122 vanishes; the generic route leaves rounding of its terms
                scale = max(abs(getattr(original, name)) for name in CHRISTOFFEL_V)
                _assert_maps(original, route(profile, image), CHRISTOFFEL_V, mu, floor=scale)

    def test_origin_geodesic_maps_to_its_image(self, battery, mu2):
        mu = math.sqrt(mu2)
        origin = SlicePoint(0.0, 0.0)
        for family in battery:
            profile = scaled(family.profile, mu2)
            for du, dv in ((1.0, 0.0), (0.6, 0.8), (-0.3, 1.0), (0.0, 1.0)):
                trace = integrate_geodesic(family.profile, origin, (du, dv), 5.0)
                image = integrate_geodesic(profile, origin, (du, mu * dv), 5.0)
                assert image.s[-1] == pytest.approx(trace.s[-1], rel=TOL)
                assert image.boundary_hit == trace.boundary_hit
                assert len(image) == len(trace)
                scale = np.max(np.abs(trace.points), axis=0)
                assert np.all(np.abs(image.points[:, 0] - trace.points[:, 0]) <= TOL * scale[0])
                assert np.all(np.abs(image.points[:, 1] / mu - trace.points[:, 1]) <= TOL * scale[1])

    def test_verdicts_are_invariant(self, battery, mu2):
        for family in battery:
            profile = scaled(family.profile, mu2)
            assert classify_profile(profile).family == classify_profile(family.profile).family
            got, want = completeness(profile), completeness(family.profile)
            assert got.verdict == want.verdict
            assert got.integral_value == pytest.approx(want.integral_value, rel=TOL)
            assert einstein_check(profile).is_einstein == einstein_check(family.profile).is_einstein
