"""Profiles: the defining function of a Hartogs domain and its validation.

A profile is a smooth positive function f on [0, b) ingested as an
expression string.  Derivatives up to third order are produced by exact
symbolic differentiation of the parsed tree, never by finite differences:
the downstream residuals need f'''.  The pseudoconvexity density
(t*f'/f)' is built from the log-derivative of f, assembled from the
structure of the tree, so no power of f lands in a denominator and the
density stays evaluable where f itself underflows.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

from .expressions import (
    Add,
    Div,
    Exp,
    Expr,
    ExpressionEvalError,
    ExpressionSyntaxError,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    compile_expression,
    differentiate,
    parse_expression,
    simplify,
    to_source,
)

DEFAULT_GRID_SIZE = 1024
DEFAULT_T_MAX = 50.0
_GRID_MARGIN = 1e-9
# Gauss-Legendre rule of order 6 on [-1, 1]: the positive nodes with their
# weights (the rule is symmetric).
_GL6 = (
    (0.2386191860831969, 0.46791393457269104),
    (0.6612093864662645, 0.3607615730481387),
    (0.9324695142031519, 0.17132449237917027),
)
# A psi panel is at most PSI_PANEL_WIDTH * max(1, |u|) wide and spans at most
# PSI_PANEL_RATIO of its distance to sqrt(b), so that panels grade
# geometrically toward a finite bound, where the density blows up.
PSI_PANEL_WIDTH = 0.125
PSI_PANEL_RATIO = 0.2
# A tree of f, f' or f'' past this many nodes is refused before its derivative
# is built: the product rule makes f''' of a k-factor product grow as k^3.
MAX_TREE_NODES = 10_000
# A geodesic that reaches |u| = ESCAPE_RADIUS on an unbounded domain is taken
# to leave for infinity.  The slice gap f - v^2 that float64 resolves is above
# the rounding of f, GAP_REL * f, and has a normal square, as the metric
# divides by it squared; where f >= F_FLOOR the first implies the second.
ESCAPE_RADIUS = 50.0
GAP_REL = 4.0 * sys.float_info.epsilon
F_FLOOR = math.sqrt(sys.float_info.min) / GAP_REL


class Profile:
    """Immutable profile with compiled evaluators f, f1, f2, f3 and bound b.

    ``b`` may be ``math.inf``.  ``n`` is the complex dimension of the
    associated domain (at least 2).  Instances are safe to share across
    threads; all evaluators are pure.
    """

    def __init__(self, ast: Expr, b: float, n: int, source: str | None = None):
        b = float(b)
        if not b > 0:
            raise ValueError("domain bound b must be positive")
        n = int(n)
        if n < 2:
            raise ValueError("complex dimension n must be at least 2")
        try:
            d0 = _bounded(simplify(ast))
            d1 = _bounded(simplify(differentiate(d0)))
            d2 = _bounded(simplify(differentiate(d1)))
            d3 = simplify(differentiate(d2))
        except RecursionError:
            raise ExpressionSyntaxError("expression nested too deeply", 0) from None
        self.asts: tuple[Expr, Expr, Expr, Expr] = (d0, d1, d2, d3)
        self.b = b
        self.n = n
        self.source = source if source is not None else to_source(d0)
        self.f = compile_expression(d0)
        self.f1 = compile_expression(d1)
        self.f2 = compile_expression(d2)
        self.f3 = compile_expression(d3)

    def __repr__(self):
        return f"Profile({self.source!r}, b={self.b}, n={self.n})"

    @cached_property
    def kcond_ast(self) -> Expr:
        # d/dt (t*L) = L + t*L' with L = f1/f, the log-derivative of f.
        log_d = simplify(_log_derivative(self.asts[0]))
        return simplify(Add(log_d, Mul(Var(), simplify(differentiate(log_d)))))

    @cached_property
    def _kcond_fn(self):
        return compile_expression(self.kcond_ast)

    @cached_property
    def _kcond_derivative_fns(self):
        # kcond' and kcond'', for the curvature of the base metric.
        k1 = simplify(differentiate(self.kcond_ast))
        return compile_expression(k1), compile_expression(simplify(differentiate(k1)))

    @cached_property
    def edge(self) -> tuple[float, float]:
        """(u_edge, psi(u_edge)): how far |u| a geodesic may go.

        u_edge is ESCAPE_RADIUS when b = inf, else the largest float whose
        square stays below b, and in either case no further than where f
        falls to F_FLOOR.  Pseudoconvexity makes t*f1/f strictly decreasing
        from 0, so f strictly decreases and that point is found by bisection.
        """
        hi = ESCAPE_RADIUS if math.isinf(self.b) else math.sqrt(self.b)
        while hi * hi >= self.b:
            hi = math.nextafter(hi, 0.0)
        lo = hi if self.f(hi * hi) >= F_FLOOR else 0.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if self.f(mid * mid) >= F_FLOOR else (lo, mid)
        return lo, psi_increment(self, 0.0, lo)

    def grid_limit(self, t_max: float = DEFAULT_T_MAX) -> float:
        """Upper end of the sampling range: just inside b, or t_max if b=inf."""
        if math.isinf(self.b):
            return t_max
        return self.b * (1.0 - _GRID_MARGIN)


def _bounded(expr: Expr) -> Expr:
    """expr, unless its tree has more than MAX_TREE_NODES nodes."""
    stack = [expr]
    for _ in range(MAX_TREE_NODES + 1):
        if not stack:
            return expr
        stack += [child for child in vars(stack.pop()).values() if isinstance(child, Expr)]
    raise ExpressionSyntaxError("expression too large", 0)


def _log_derivative(expr: Expr) -> Expr:
    """Tree of g'/g, split along products, quotients, powers and exp so
    that only sums, t and log are divided by themselves."""
    match expr:
        case Num(_):
            return Num(0.0)
        case Neg(g):
            return _log_derivative(g)
        case Mul(a, b):
            return Add(_log_derivative(a), _log_derivative(b))
        case Div(a, b):
            return Sub(_log_derivative(a), _log_derivative(b))
        case Pow(g, p):
            return Mul(Num(p), _log_derivative(g))
        case Exp(g):
            return differentiate(g)
    return Div(differentiate(expr), expr)


def parse_profile(src: str, b: float, n: int) -> Profile:
    """Parse an expression string into a Profile with symbolic derivatives.

    Raises ExpressionSyntaxError (with position) on malformed input and
    ValueError on a non-positive bound or n < 2.
    """
    return Profile(parse_expression(src), b, n, source=src)


def kcond(profile: Profile, t: float) -> float:
    """The pseudoconvexity density d/dt (t*f1(t)/f(t)) at t.

    Negative everywhere on [0, b) exactly when the domain carries a
    positive-definite metric.  Computed from the symbolic derivative tree,
    no finite differences.
    """
    _check_range(profile, t)
    return profile._kcond_fn(t)


def density(profile: Profile, u: float) -> float:
    """sqrt(-kcond(u^2)): the derivative of psi, the arc-length density of
    the u-axis up to sqrt(2).

    Validity of the profile is the caller's precondition.  Two roundoff
    guards: far in the tail the density cancels to noise and may round
    marginally negative (clamped to zero), and u*u may round one ulp past a
    finite bound (pulled back inside).
    """
    t = u * u
    if t >= profile.b:
        t = math.nextafter(profile.b, 0.0)
    return math.sqrt(max(-profile._kcond_fn(t), 0.0))


def psi_increment(profile: Profile, a: float, c: float) -> float:
    """psi(c) - psi(a): the integral of the density over [a, c].

    Gauss-Legendre panels laid outward from the end nearer the origin (the
    density is even), each within PSI_PANEL_WIDTH and PSI_PANEL_RATIO.  A
    short interval is one panel; toward a finite bound the panels shrink
    geometrically.  Both ends lie in (-sqrt(b), sqrt(b)).
    """
    if a * c < 0.0:
        return psi_increment(profile, a, 0.0) + psi_increment(profile, 0.0, c)
    if abs(c) < abs(a):
        return -psi_increment(profile, c, a)
    x, end = abs(a), abs(c)
    sqrt_b = math.sqrt(profile.b)
    total = 0.0
    while x < end:
        width = min(PSI_PANEL_WIDTH * max(1.0, x), PSI_PANEL_RATIO * (sqrt_b - x))
        right = min(end, x + width)
        if not right > x:  # within an ulp or two of sqrt(b)
            right = end
        half = 0.5 * (right - x)
        mid = 0.5 * (right + x)
        panel = 0.0
        for node, weight in _GL6:
            panel += weight * (density(profile, mid - half * node)
                               + density(profile, mid + half * node))
        total += half * panel
        x = right
    return math.copysign(total, c)


def _check_range(profile: Profile, t: float):
    if not 0.0 <= t < profile.b:
        raise ValueError(f"t={t} outside the profile range [0, {profile.b})")


def chebyshev_grid(upper: float, size: int) -> list[float]:
    """Chebyshev-extrema points on [0, upper], denser toward both ends."""
    if size < 2:
        raise ValueError("grid size must be at least 2")
    return [0.5 * upper * (1.0 - math.cos(math.pi * j / (size - 1))) for j in range(size)]


@dataclass(frozen=True)
class ValidationReport:
    """Grid certification of positivity, monotonicity, and pseudoconvexity."""

    valid: bool
    grid_size: int
    t_upper: float
    positivity_violations: tuple[float, ...]
    monotonicity_violations: tuple[float, ...]
    pseudoconvexity_violations: tuple[float, ...]
    evaluation_failures: tuple[tuple[float, str], ...]
    monotonicity_enforced: bool

    def violation_summary(self) -> dict[str, int]:
        return {
            "positivity": len(self.positivity_violations),
            "monotonicity": len(self.monotonicity_violations),
            "pseudoconvexity": len(self.pseudoconvexity_violations),
            "evaluation": len(self.evaluation_failures),
        }


def validate(
    profile: Profile,
    grid_size: int = DEFAULT_GRID_SIZE,
    *,
    t_max: float = DEFAULT_T_MAX,
    enforce_monotone: bool = True,
) -> ValidationReport:
    """Sample-based certification of a profile on a Chebyshev grid.

    Checks f > 0, f1 <= 0 (optional, see ``enforce_monotone``), and the
    pseudoconvexity condition kcond < 0 at every grid point.  A grid can
    only certify at its samples; the report says exactly which points fail.
    t_max must be positive and finite.
    """
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    upper = profile.grid_limit(t_max)
    positivity: list[float] = []
    monotonicity: list[float] = []
    pseudoconvexity: list[float] = []
    failures: list[tuple[float, str]] = []
    for t in chebyshev_grid(upper, grid_size):
        try:
            ft = profile.f(t)
            f1t = profile.f1(t)
            kt = profile._kcond_fn(t)
        except ExpressionEvalError as exc:
            failures.append((t, str(exc)))
            continue
        if not (math.isfinite(ft) and math.isfinite(f1t) and math.isfinite(kt)):
            failures.append((t, "non-finite value"))
            continue
        if ft <= 0.0:
            positivity.append(t)
        if enforce_monotone and f1t > 0.0:
            monotonicity.append(t)
        if kt >= 0.0:
            pseudoconvexity.append(t)
    valid = not (positivity or monotonicity or pseudoconvexity or failures)
    return ValidationReport(
        valid=valid,
        grid_size=grid_size,
        t_upper=upper,
        positivity_violations=tuple(positivity),
        monotonicity_violations=tuple(monotonicity),
        pseudoconvexity_violations=tuple(pseudoconvexity),
        evaluation_failures=tuple(failures),
        monotonicity_enforced=enforce_monotone,
    )
