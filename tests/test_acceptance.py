"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are fixed here, not calibrated at runtime.
"""

import math
import time

import numpy as np

from hartogs import (
    DomainPoint,
    SlicePoint,
    beltrami_klein,
    christoffel_closed,
    christoffel_generic,
    classify_profile,
    completeness,
    einstein_check,
    gauss_curvature_slice,
    hermitian_metric,
    integrate_geodesic,
    parse_profile,
    phi_embed,
    psi_map,
    psi_map_jacobian,
    residual_ode,
    self_intersection_check,
    slice_metric,
    straightline_residual,
)
from hartogs.connection import GeodesicTrace
from hartogs.curvature import FAMILY_HYPERBOLIC
from hartogs.profile import chebyshev_grid

from conftest import FAMILY_MAKERS, make_linear, random_slice_points, scaled

SEED = 741852963


def _families(count_per_maker=3):
    rng = np.random.default_rng(SEED)
    return [maker(rng) for maker in FAMILY_MAKERS for _ in range(count_per_maker)]


def _worst(*values) -> float:
    """The largest of the values, nan if any of them is: max() keeps its
    first argument against a nan, so a nan criterion would pass."""
    return float(np.max(values))


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} {detail}".rstrip())
    assert passed, f"criterion {number} failed: {detail}"


def test_criterion_01_slice_curvature_minus_half():
    rng = np.random.default_rng(SEED + 1)
    started = time.perf_counter()
    worst = 0.0
    for family in _families(3):
        points = random_slice_points(family, 100, rng)
        # and the isometric mu^2 F at (u, mu v), far from the scale of F
        for mu2 in (1.0, 1e-100, 1e100):
            profile = family.profile if mu2 == 1.0 else scaled(family.profile, mu2)
            mu = math.sqrt(mu2)
            for sp in points:
                k = gauss_curvature_slice(profile, SlicePoint(sp.u, mu * sp.v))
                worst = _worst(worst, abs(k + 0.5))
    elapsed = time.perf_counter() - started
    _report(
        1,
        "slice curvature -1/2 across families",
        worst < 1e-6 and elapsed < 5.0,
        f"max |K + 1/2| = {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_02_power_completeness_value():
    started = time.perf_counter()
    worst = 0.0
    for p_exp in (1, 2, 3, 4):
        profile = parse_profile(f"(1.3 + 0.6*t)^(-{p_exp})", math.inf, 2)
        report = completeness(profile)
        target = (math.pi / 2.0) * math.sqrt(p_exp)
        worst = _worst(worst, abs(report.integral_value - target))
    elapsed = time.perf_counter() - started
    _report(
        2,
        "power-family integral equals (pi/2) sqrt(p)",
        worst < 1e-6 and elapsed < 1.0,
        f"max deviation = {worst:.3e}, {elapsed:.3f}s",
    )


def test_criterion_03_completeness_verdicts():
    expected = {
        "linear": "complete",
        "spring": "complete",
        "power_pos": "incomplete",
        "power_neg": "complete",
    }
    failures = []
    for family in _families(3):
        verdict = completeness(family.profile).verdict
        if verdict != expected[family.name]:
            failures.append((family.name, family.params, verdict))
    ball = completeness(parse_profile("1 - t", 1, 2)).verdict
    if ball != "complete":
        failures.append(("unit ball", {}, ball))
    _report(3, "completeness verdicts per family", not failures, str(failures))


def test_criterion_04_christoffel_oracle_equivalence():
    rng = np.random.default_rng(SEED + 4)
    names = ("G111", "G211", "G112", "G212", "G122", "G222")
    worst = 0.0
    worst_g122 = 0.0
    uncorrected_disagrees = False
    for family in _families(1):
        p = family.profile
        for sp in random_slice_points(family, 100, rng):
            closed = christoffel_closed(p, sp)
            generic = christoffel_generic(p, sp)
            scale = max(abs(getattr(generic, n)) for n in names)
            for n in names:
                delta = abs(getattr(closed, n) - getattr(generic, n))
                worst = _worst(worst, delta / max(1.0, scale))
            worst_g122 = _worst(worst_g122, abs(closed.G122), abs(generic.G122) / max(1.0, scale))
            # negative control: a G111 variant missing the f1 factor in the
            # first bracket term must fail this oracle, proving it has teeth
            t = sp.u * sp.u
            f, f1, f2, f3 = p.f(t), p.f1(t), p.f2(t), p.f3(t)
            w = f - sp.v**2
            c = f1 * f1 * t - (f1 + f2 * t) * w
            det = 4.0 * (c * f - f1 * f1 * t * sp.v**2) / w**4
            bad_g111 = (-4.0 * sp.u / (det * w**4)) * (
                t * (2.0 * f1**2 + sp.v**2 * f2)
                - f * (sp.v**2 - f) * (2.0 * f2 + t * f3)
                - f * f1 * (2.0 * f1 + 3.0 * t * f2)
            )
            if abs(bad_g111 - generic.G111) > 1e-3 * max(1.0, scale):
                uncorrected_disagrees = True
    _report(
        4,
        "Christoffel closed forms match the metric-derived oracle",
        worst < 1e-6 and worst_g122 < 1e-12 and uncorrected_disagrees,
        f"max rel dev = {worst:.3e}, |G122| = {worst_g122:.3e}, "
        f"negative control disagrees = {uncorrected_disagrees}",
    )


def test_criterion_05_disk_map_pullback():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for family in _families(1):
        p = family.profile
        for sp in random_slice_points(family, 100, rng):
            x, y = psi_map(p, sp)
            jac = np.array(psi_map_jacobian(p, sp))
            pulled = jac.T @ beltrami_klein(x, y).as_matrix() @ jac
            g = slice_metric(p, sp).as_matrix()
            worst = _worst(worst, np.max(np.abs(pulled - g)) / max(1.0, np.max(np.abs(g))))
    ball = parse_profile("1 - t", 1, 2)
    worst_identity = 0.0
    for u in np.linspace(-0.85, 0.85, 18):
        for v in np.linspace(-0.4, 0.4, 9):
            if u * u + v * v > 0.9:
                continue
            x, y = psi_map(ball, SlicePoint(u, v))
            worst_identity = _worst(worst_identity, abs(x - u), abs(y - v))
    _report(
        5,
        "disk map pullback reproduces the slice metric",
        worst < 1e-6 and worst_identity < 1e-12,
        f"max pullback dev = {worst:.3e}, ball identity dev = {worst_identity:.3e}",
    )


def test_criterion_06_straightline_residual():
    rng = np.random.default_rng(SEED + 6)
    failures = []
    for family in _families(2):
        p = family.profile
        grid = chebyshev_grid(0.9 * family.u_window**2, 64)
        max_res = _worst(*(abs(residual_ode(p, t)) for t in grid))
        is_linear = family.name in ("linear",) or (
            family.name == "power_neg" and abs(family.params["q"] - 1.0) < 1e-12
        )
        if is_linear and not max_res < 1e-9:
            failures.append((family.name, "nonzero residual", max_res))
        if not is_linear and not max_res >= 1e-9:
            failures.append((family.name, "vanishing residual", max_res))
    spring = parse_profile("exp(-t)", math.inf, 2)
    at_zero = residual_ode(spring, 0.0)
    if not abs(at_zero - 2.0) <= 1e-12:
        failures.append(("spring residual at 0", at_zero))
    # the Christoffel combination against the algebraic closed form
    # -4ku r(u^2)/(D (k^2u^2 - f)^3); both vanish on exactly the same set
    worst_alg = 0.0
    for family in _families(1):
        p = family.profile
        for _ in range(50):
            u = rng.uniform(0.05, family.u_window)
            k = rng.uniform(-1.5, 1.5)
            if abs(k) < 0.05 or k * k * u * u >= 0.8 * p.f(u * u):
                continue
            combo = straightline_residual(p, k, u)
            t = u * u
            f, f1, f2 = p.f(t), p.f1(t), p.f2(t)
            w = f - k * k * u * u
            c = f1 * f1 * t - (f1 + f2 * t) * w
            det = 4.0 * (c * f - f1 * f1 * t * (k * u) ** 2) / w**4
            algebraic = -4.0 * k * u * residual_ode(p, t) / (det * (k * k * u * u - f) ** 3)
            worst_alg = _worst(worst_alg, abs(combo - algebraic) / max(1.0, abs(algebraic)))
    if not worst_alg < 1e-6:
        failures.append(("algebraic form deviation", worst_alg))
    _report(6, "straight-line residual dichotomy and algebraic form", not failures, str(failures))


def _origin_traces(family, count, length, rng):
    traces = []
    for _ in range(count):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        traces.append(
            integrate_geodesic(
                family.profile,
                SlicePoint(0.0, 0.0),
                (math.cos(angle), math.sin(angle)),
                length,
            )
        )
    return traces


def test_criterion_07_and_08_geodesic_screen_and_energy():
    rng = np.random.default_rng(SEED + 7)
    screen_failures = []
    worst_drift = 0.0
    for family in _families(1):
        for trace in _origin_traces(family, 50, 10.0, rng):
            report = self_intersection_check(trace)
            if not report.passed:
                screen_failures.append((family.name, report.min_distance))
            drift = float(np.max(np.abs(trace.energies - trace.energy)) / trace.energy)
            worst_drift = _worst(worst_drift, drift)
    # negative control: a figure eight must fail the screen
    t = np.linspace(0.0, 2.0 * math.pi, 81)
    pts = np.column_stack([0.25 * np.sin(2 * t), 0.5 * np.sin(t)])
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    fake = GeodesicTrace(
        s=s, points=pts, tangents=np.gradient(pts, s, axis=0),
        energies=np.ones(len(pts)), energy=1.0, boundary_hit=False,
    )
    control_fails = not self_intersection_check(fake).passed
    _report(
        7,
        "origin geodesics pass the self-intersection screen",
        not screen_failures and control_fails,
        f"failures = {screen_failures}, figure-eight control fails = {control_fails}",
    )
    _report(
        8,
        "energy first integral along every trace",
        worst_drift <= 1e-6,
        f"max relative drift = {worst_drift:.3e}",
    )


def test_criterion_09_einstein_dichotomy():
    failures = []
    for family in _families(3):
        p = family.profile
        report = einstein_check(p)
        is_hyperbolic = classify_profile(p).family == FAMILY_HYPERBOLIC
        if report.is_einstein != is_hyperbolic:
            failures.append((family.name, family.params))
        if family.name == "linear":
            c1c2 = family.params["c1"] * family.params["c2"]
            if not report.max_relative_variation < 1e-8:
                failures.append((family.name, "variation", report.max_relative_variation))
            if not abs(report.mean_value - c1c2) <= 1e-8 * c1c2:
                failures.append((family.name, "value", report.mean_value, c1c2))
        else:
            if report.is_einstein:
                failures.append((family.name, "unexpectedly einstein"))
    _report(9, "determinant invariant constant iff linear profile", not failures, str(failures))


def test_criterion_10_ball_embedding_isometry():
    rng = np.random.default_rng(SEED + 10)
    worst = 0.0
    norm_ok = True
    for _ in range(3):
        family = make_linear(rng, n=2)
        p = family.profile
        c1, c2 = family.params["c1"], family.params["c2"]
        ball = parse_profile("1 - t", 1, 2)
        scales = np.array([math.sqrt(c2 / c1), 1.0 / math.sqrt(c1)])
        count = 0
        while count < 50:
            u = rng.uniform(-family.u_window, family.u_window)
            angle = rng.uniform(0, 2 * math.pi)
            z0 = u * complex(math.cos(angle), math.sin(angle))
            v_cap = 0.9 * math.sqrt(p.f(abs(z0) ** 2))
            phase = rng.uniform(0, 2 * math.pi)
            z1 = rng.uniform(-v_cap, v_cap) * complex(math.cos(phase), math.sin(phase))
            pt = DomainPoint(z0, (z1,))
            image = phi_embed(p, pt)
            if math.sqrt(abs(image.z0) ** 2 + abs(image.z[0]) ** 2) >= 1.0:
                norm_ok = False
            pulled = np.outer(scales, scales) * hermitian_metric(ball, image)
            h_here = hermitian_metric(p, pt)
            worst = _worst(worst, np.max(np.abs(pulled - h_here)) / np.max(np.abs(h_here)))
            count += 1
    _report(
        10,
        "ball embedding pulls the metric back isometrically",
        worst < 1e-8 and norm_ok,
        f"max rel dev = {worst:.3e}, images inside ball = {norm_ok}",
    )
