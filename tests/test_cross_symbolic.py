"""First-principles cross-validation against an independent symbolic engine.

Everything here is derived from the Kahler potential alone: Wirtinger
derivatives give the Hermitian matrix, its real restriction gives the
slice metric, and plain symbolic differentiation gives the first and
second partials of that metric.  No formula from the package is reused, so
a compensating pair of errors in the analytic closed forms and their
finite-difference tests would still be caught.

Only the metric and its partials are taken symbolically.  The inverse
metric, the connection and the curvature are formed from their float values
point by point.  Building them symbolically instead (through `g.inv()`)
gives expressions of well over a thousand operations whose float
evaluation cancels catastrophically: for `exp(-t)`, G122, which is 0,
evaluates to -231.6 at (u, v) = (-0.393, 0.780).

``test_jets_against_sympy`` checks the profile's own Taylor jets, f..f'''
and the pseudoconvexity density with its two derivatives, against sympy's
derivatives evaluated at 80 digits.
"""

import math
import sys

import numpy as np
import pytest

sympy = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

from hartogs import (
    SlicePoint,
    christoffel_generic,
    gauss_curvature_slice,
    parse_profile,
    slice_metric,
)

PROFILE_CASES = [
    ("exp(-t)", sympy.exp(-sympy.Symbol("x")), math.inf, 1.4),
    ("(1 + t)^(-2)", (1 + sympy.Symbol("x")) ** -2, math.inf, 1.4),
    ("2 - 0.5*t", 2 - sympy.Rational(1, 2) * sympy.Symbol("x"), 4.0, 1.6),
]


def _symbolic_metric_jets(f_of_x):
    """The slice metric and its first and second partials in (u, v),
    derived from the potential via Wirtinger calculus and lambdified.

    The returned function maps (u, v) to arrays `g[a, b]`,
    `dg[c, a, b] = d_c g_ab` and `ddg[c, d, a, b] = d_c d_d g_ab`,
    with coordinate index 0 for u and 1 for v."""
    x = sympy.Symbol("x")
    a0, b0, a1, b1 = sympy.symbols("a0 b0 a1 b1", real=True)
    z0 = a0 + sympy.I * b0
    z1 = a1 + sympy.I * b1
    gap = f_of_x.subs(x, z0 * sympy.conjugate(z0)) - z1 * sympy.conjugate(z1)
    potential = -sympy.log(gap)

    def dz(expr, re, im):
        return (sympy.diff(expr, re) - sympy.I * sympy.diff(expr, im)) / 2

    def dzbar(expr, re, im):
        return (sympy.diff(expr, re) + sympy.I * sympy.diff(expr, im)) / 2

    u, v = sympy.symbols("u v", real=True)
    on_slice = {b0: 0, b1: 0, a0: u, a1: v}
    h00 = dz(dzbar(potential, a0, b0), a0, b0).subs(on_slice)
    h01 = dz(dzbar(potential, a1, b1), a0, b0).subs(on_slice)
    h11 = dz(dzbar(potential, a1, b1), a1, b1).subs(on_slice)
    g = sympy.Matrix(
        [
            [2 * sympy.re(h00), 2 * sympy.re(h01)],
            [2 * sympy.re(h01), 2 * sympy.re(h11)],
        ]
    )

    coords = (u, v)
    dg = [g.diff(c) for c in coords]
    ddg = [[g.diff(c, d) for d in coords] for c in coords]
    return sympy.lambdify((u, v), [g, dg, ddg], "numpy")


def _slice_reference(g, dg, ddg):
    """Metric entries, Christoffel symbols, and curvature at one point,
    formed numerically from the metric jets."""
    g, dg, ddg = (np.asarray(a, dtype=float) for a in (g, dg, ddg))
    ginv = np.linalg.inv(g)
    # d_c g^-1 = -g^-1 (d_c g) g^-1
    dginv = -np.einsum("ka,cab,bl->ckl", ginv, dg, ginv)
    # first kind: G_lij = (d_i g_jl + d_j g_il - d_l g_ij) / 2
    first = 0.5 * (np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg)
    dfirst = 0.5 * (
        np.einsum("cijl->clij", ddg) + np.einsum("cjil->clij", ddg) - ddg
    )
    gamma = np.einsum("kl,lij->kij", ginv, first)
    dgamma = np.einsum("ckl,lij->ckij", dginv, first) + np.einsum(
        "kl,clij->ckij", ginv, dfirst
    )

    # Gauss equation (do Carmo, Differential Geometry of Curves and
    # Surfaces, sec. 4-3): riem = -E K with E = g11, so K = -riem / g11.
    riem = (
        dgamma[0, 1, 0, 1]
        - dgamma[1, 1, 0, 0]
        + gamma[0, 0, 1] * gamma[1, 0, 0]
        + gamma[1, 0, 1] * gamma[1, 1, 0]
        - gamma[0, 0, 0] * gamma[1, 0, 1]
        - gamma[1, 0, 0] * gamma[1, 1, 1]
    )
    curvature = -riem / g[0, 0]

    metric = (g[0, 0], g[0, 1], g[1, 1])
    christoffel = (
        gamma[0, 0, 0],
        gamma[1, 0, 0],
        gamma[0, 0, 1],
        gamma[1, 0, 1],
        gamma[0, 1, 1],
        gamma[1, 1, 1],
    )
    return metric, christoffel, curvature


@pytest.mark.parametrize("src,f_sym,bound,u_window", PROFILE_CASES)
def test_against_potential_derivation(src, f_sym, bound, u_window):
    profile = parse_profile(src, bound, 2)
    jets = _symbolic_metric_jets(f_sym)
    rng = np.random.default_rng(5150)
    for _ in range(25):
        u = rng.uniform(-u_window, u_window)
        v = rng.uniform(-1, 1) * 0.85 * math.sqrt(profile.f(u * u))
        sp = SlicePoint(u, v)
        g_ref, ch_ref, k_ref = _slice_reference(*jets(u, v))

        g = slice_metric(profile, sp)
        for mine, ref in zip((g.g11, g.g12, g.g22), g_ref):
            assert mine == pytest.approx(float(ref), rel=1e-10, abs=1e-12)

        ch = christoffel_generic(profile, sp)
        for mine, ref in zip(
            (ch.G111, ch.G211, ch.G112, ch.G212, ch.G122, ch.G222), ch_ref
        ):
            assert mine == pytest.approx(float(ref), rel=1e-9, abs=1e-10)

        assert k_ref == pytest.approx(-0.5, abs=1e-9)
        assert gauss_curvature_slice(profile, sp) == pytest.approx(k_ref, abs=1e-9)


# The six dossier families, and two profiles whose f underflows float64 on
# the validation grid, past t = 26.8 and t = 37.3; the fast decay's past
# t = 64 and the spring's past t = 1775; and two integral powers past the
# square: the t^5 of exp(-t^5), an exact product by squaring at t = 0 and
# a log elsewhere, and a 7th power, a log everywhere.  Each with its points
# past JET_POINTS: the spring's underflow, and 0.999 b on a finite b.
JET_CASES = [
    ("1.3174 - 1.9784*t", 1.3174 / 1.9784, (0.999 * 1.3174 / 1.9784,)),
    ("1.5888*exp(-0.4197*t)", math.inf, (2000.0,)),
    ("(1.1903 + 1.1628*t)^(-3.6011)", math.inf, ()),
    ("(1.7298 - 0.6718*t)^3.3125", 1.7298 / 0.6718, (0.999 * 1.7298 / 0.6718,)),
    ("1/(1 + 0.6509*t + 1.1841*t^2)", math.inf, ()),
    ("exp(-0.8541*t - 0.1691*t^2)", math.inf, ()),
    ("exp(-t - t^2)", math.inf, ()),
    ("exp(-20*t) + exp(-21*t)", math.inf, ()),
    ("exp(-t^5)", math.inf, ()),
    ("(1.7298 - 0.6718*t)^7", 1.7298 / 0.6718, (0.999 * 1.7298 / 0.6718,)),
]
JET_POINTS = [0.0, 0.3, 1.7, 6.0, 20.0, 45.0, 80.0]
JET_NAMES = ("f", "f1", "f2", "f3", "kcond", "kcond1", "kcond2")


@pytest.mark.parametrize("src,bound,far", JET_CASES)
def test_jets_against_sympy(src, bound, far):
    """f..f''' and kcond, kcond', kcond'' of the jets against sympy's
    derivatives at 80 digits, to 1e-12 relative, also where f underflows;
    f..f''' where they are normal floats."""
    t = sympy.Symbol("t")
    f = sympy.sympify(src.replace("^", "**"), locals={"t": t}, rational=True)
    density = sympy.diff(t * sympy.cancel(sympy.diff(f, t) / f), t)
    exact = sympy.lambdify(
        t, [f, *(sympy.diff(f, t, k) for k in (1, 2, 3)),
            density, sympy.diff(density, t), sympy.diff(density, t, 2)], "mpmath")
    profile = parse_profile(src, bound, 2)
    points = [x for x in JET_POINTS if x < bound] + list(far)
    with mpmath.workdps(80):
        for x in points:
            for name, got, want in zip(JET_NAMES, profile.values(x, *JET_NAMES), exact(mpmath.mpf(x))):
                want = float(want)
                if name[0] == "f" and 0.0 < abs(want) < sys.float_info.min:
                    continue
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (name, x)
