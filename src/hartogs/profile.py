"""Profiles: the defining function of a Hartogs domain and its validation.

A profile is a smooth positive function f on [0, b) ingested as an
expression string.  Its values come from one Taylor jet of the parsed tree
per evaluation (``expressions.jet``), never from finite differences: f up
to f''' for the metric and its residuals, and, from the coefficients of
log f, the log-derivative L = f'/f and the pseudoconvexity density
kcond = (t*L)' = L + t*L' with kcond' and kcond''.  None of these divides
by f, so they stay exact where f underflows, and "f > 0" is "log f is
finite".  A caller names the values it needs, and the jet goes only to the
order they take.  ``Profile.values`` is the one entry: at a float it gives
floats, over a numpy array one array per name from one walk, and either
way it raises the first failing guard of the tree.  ``on_grid`` gives the
same arrays with every failing point and its reason, for the callers that
list them (``validate`` and ``completeness``).  psi, the integral of the
density sqrt(-kcond(u^2)), and its inverse read one table of
Gauss-Legendre panels per profile, built on first use, and so does the
value of a convergent completeness integral; at a break of the table psi
is the table's value.  The curvature reports read one kept jet of their
grid (``Profile.report_jet``), walked on first use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expressions import (
    DIRECT,
    Expr,
    ExpressionEvalError,
    ExpressionSyntaxError,
    Walk,
    direct_form,
    jet,
    log_form,
    parse_expression,
)

DEFAULT_GRID_SIZE = 1024
DEFAULT_T_MAX = 50.0
_GRID_MARGIN = 1e-9
# Gauss-Legendre rule of order 6 on [-1, 1]
_GL6_NODES = np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                       0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
_GL6_WEIGHTS = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                         0.46791393457269104, 0.3607615730481387, 0.17132449237917027])
# A psi panel is at most PSI_PANEL_WIDTH * max(1, |u|) wide and spans at most
# PSI_PANEL_RATIO of its distance to sqrt(b), so that panels grade
# geometrically toward a finite bound, where the density blows up.
PSI_PANEL_WIDTH = 0.125
PSI_PANEL_RATIO = 0.2
# psi^-1 accepts a Newton step whose estimated remainder on psi is below
# PSI_TOL, and bisects its panel at most PSI_STEPS times.
PSI_TOL = 1e-11
PSI_STEPS = 60
# A geodesic that reaches |u| = ESCAPE_RADIUS on an unbounded domain is taken
# to leave for infinity.  The slice gap f - v^2 that float64 resolves is above
# the rounding of f, GAP_REL * f, and has a normal square, as the metric
# divides by it squared; where f >= F_FLOOR the first implies the second.
ESCAPE_RADIUS = 50.0
GAP_REL = 4.0 * sys.float_info.epsilon
F_FLOOR = math.sqrt(sys.float_info.min) / GAP_REL


# The order of the jet each named value needs: f..f3, log f, L = f'/f, and
# kcond = L + t*L' with kcond1 and kcond2, its first two derivatives.
ORDERS = {"f": 0, "logf": 0, "f1": 1, "L": 1, "f2": 2, "kcond": 2, "f3": 3, "kcond1": 3,
          "kcond2": 4}
_FACTORIALS = (1.0, 1.0, 2.0, 6.0)
# (k, a, b) of the values a l_k + t b l_(k+1) of the coefficients l of log f:
# kcond^(j) = (j+1) L^(j) + t L^(j+1), with L^(j) = (j+1)! l_(j+1)
_FROM_LOGS = {"L": (1, 1.0, 0.0), "kcond": (1, 1.0, 2.0), "kcond1": (2, 4.0, 6.0),
              "kcond2": (3, 18.0, 24.0)}
# The values the curvature reports read on their grid, from one order-4 jet.
REPORT_NAMES = ("f", "f1", "f2", "f3", "kcond", "kcond1", "kcond2")


class Profile:
    """Immutable profile with evaluators f, f1, f2, f3 and bound b.

    ``b`` may be ``math.inf``.  ``n`` is the complex dimension of the
    associated domain (at least 2).  Every value comes from a jet of the
    one parsed tree, ``asts[0]``, and the package reads nothing else of
    ``asts`` or of ``kcond_ast``, the same tree: both are kept for the node
    count of the benchmark (bench/workloads.py).  Two results are kept,
    each built on first use: the psi table, and the reports' grid jet, one
    entry per grid size (``report_jet``).  Both are pure functions of the
    profile, so instances are safe to share across threads: two threads
    may both build one, and either result is the same.
    """

    def __init__(self, ast: Expr, b: float, n: int, source: str | None = None):
        b = float(b)
        if not b > 0:
            raise ValueError("domain bound b must be positive")
        n = int(n)
        if n < 2:
            raise ValueError("complex dimension n must be at least 2")
        self.asts: tuple[Expr] = (ast,)
        self.kcond_ast = ast
        self.b = b
        self.n = n
        self.source = source
        self.f, self.f1, self.f2, self.f3 = map(self._evaluator, ("f", "f1", "f2", "f3"))
        self._report_jets: dict[int, tuple[np.ndarray, dict[str, np.ndarray]]] = {}

    def __repr__(self):
        return f"Profile({self.source!r}, b={self.b}, n={self.n})"

    def _evaluator(self, name: str):
        return lambda t: self.values(t, name)[0]

    def values(self, t, *names: str) -> tuple:
        """The named values (keys of ORDERS) at t, from one jet: floats at a
        float, or over a 1-d numpy array one array per name, of the shape
        of t.  Raises the ExpressionEvalError of the first point where a
        guard of the tree fails."""
        if isinstance(t, np.ndarray):
            rows, errors = on_grid(self, t, *names)
            if errors:
                raise errors[min(errors)]
            return tuple(rows)
        t = float(t)
        values, failures = _named_values(self.asts[0], t, names)
        if failures:
            raise ExpressionEvalError(f"{failures[0]} at t={t}")
        return tuple(map(float, values))

    def report_jet(self, grid: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """(ts, {name: values}) of REPORT_NAMES on the reports' Chebyshev
        grid of ``grid`` points, from ts[0] = 0 to just inside grid_limit(),
        from one jet of the grid.  Kept per grid size as read-only arrays
        once the walk succeeds; a walk that raises keeps nothing, so every
        call raises the same error."""
        if grid not in self._report_jets:
            ts = chebyshev_grid(self.grid_limit() * (1.0 - 1e-6), grid)
            rows = self.values(ts, *REPORT_NAMES)
            for array in (ts, *rows):
                array.flags.writeable = False
            self._report_jets[grid] = ts, dict(zip(REPORT_NAMES, rows))
        return self._report_jets[grid]

    @cached_property
    def _psi_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the psi panels from 0 to u_edge (see edge): the last float u up to
        # hi with u^2 < b and f(u^2) >= F_FLOOR, bracketed by 64 points a
        # pass; the first tries hi and the two floats below it, among which
        # that u lies when b is normal and f stays above F_FLOOR
        hi = ESCAPE_RADIUS if math.isinf(self.b) else math.sqrt(self.b)
        below = math.nextafter(hi, 0.0)
        lo, us = 0.0, np.array([math.nextafter(below, 0.0), below, hi])
        while us.size:
            ts = us * us
            (f,) = self.values(np.minimum(ts, math.nextafter(self.b, 0.0)), "f")
            above = (ts < self.b) & (f >= F_FLOOR)
            j = len(us) if above.all() else int(np.argmin(above))
            lo, hi = us[j - 1] if j else lo, us[j] if j < len(us) else hi
            us = np.linspace(lo, hi, 66)[1:-1]
            us = us[(lo < us) & (us < hi)]
        return _lay_psi_table(self, float(lo))

    @property
    def edge(self) -> tuple[float, float]:
        """(u_edge, psi(u_edge)): how far |u| a geodesic may go.

        u_edge is ESCAPE_RADIUS when b = inf, else the largest float whose
        square stays below b, and in either case no further than where f
        falls to F_FLOOR.  Pseudoconvexity makes t*f1/f strictly decreasing
        from 0, so f strictly decreases, and that point is bracketed to one
        ulp by a few grid passes.
        psi(u_edge) is the last entry of the profile's psi table, whose
        panels end at u_edge; the table is built on first use and kept.
        """
        breaks, values, _ = self._psi_table
        return float(breaks[-1]), float(values[-1])

    def grid_limit(self, t_max: float = DEFAULT_T_MAX) -> float:
        """Upper end of the sampling range: just inside b, or t_max if b=inf."""
        if math.isinf(self.b):
            return t_max
        return self.b * (1.0 - _GRID_MARGIN)


def _named_values(ast: Expr, t, names) -> tuple[list, dict]:
    """The named values at t, a float or an array, from one jet of the tree
    to the order they need, and the reasons its guards failed, by index:
    f^(k) = k! c_k from the direct form sum c_k h^k, and the others from
    the coefficients l_k of log f, as L^(k) = (k+1)! l_(k+1)."""
    walk = Walk(t, max(map(ORDERS.__getitem__, names)))
    values, direct, logs = [], None, None
    try:
        with np.errstate(all="ignore"):
            x = jet(ast, walk)
            for name in names:
                if name == "logf":  # nan where f < 0, -inf where f = 0
                    values.append(np.log(x[1][0]) if x[0] == DIRECT else x[2][0] + np.log(x[1]))
                elif name[0] == "f":
                    direct = direct or direct_form(x, walk)
                    k = ORDERS[name]
                    c = direct[k] if k < len(direct) else 0.0
                    values.append(c if k < 2 else _FACTORIALS[k] * c)
                else:
                    if logs is None:
                        logs = log_form(x, walk, "division by zero")[1]
                        logs = logs + [0.0] * (walk.n + 1 - len(logs))
                    k, a, b = _FROM_LOGS[name]
                    a_l, b_l = logs[k] if a == 1.0 else a * logs[k], b * logs[k + 1] if b else 0.0
                    # a float b_l of 0 costs no array operation
                    values.append(a_l if type(b_l) is float and b_l == 0.0 else a_l + t * b_l)
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", 0) from None
    return values, walk.failures


def parse_profile(src: str, b: float, n: int) -> Profile:
    """Parse an expression string into a Profile.

    Raises ExpressionSyntaxError (with position) on malformed input and
    ValueError on a non-positive bound or n < 2.
    """
    return Profile(parse_expression(src), b, n, source=src)


def kcond(profile: Profile, t: float) -> float:
    """The pseudoconvexity density d/dt (t*f1(t)/f(t)) at t.

    Negative everywhere on [0, b) exactly when the domain carries a
    positive-definite metric.  Computed from the jet of log f, no finite
    differences.
    """
    _check_range(profile, t)
    return profile.values(t, "kcond")[0]


def not_pseudoconvex(t: float) -> ArithmeticError:
    """The error for a point t where kcond is not negative."""
    return ArithmeticError(f"pseudoconvexity density positive at t={t}; profile invalid there")


# ---------------------------------------------------------------------------
# psi and its inverse, read off one table per profile: the panel breaks
# 0 = x_0 < x_1 < ... < x_K, with psi and the density at each

def _panel_integrals(profile: Profile, left, right, at) -> tuple[np.ndarray, np.ndarray]:
    """(GL6 integrals of the density sqrt(-kcond(u^2)) over [left, right],
    the density at the points at), in one array pass.  Validity of the
    profile is the caller's precondition.  Two roundoff guards: far in the
    tail the density cancels to noise and may round marginally negative
    (clamped to zero), and u*u that rounds past a finite bound is pulled
    back inside.  A u*u that overflows has no density: ExpressionEvalError."""
    half = 0.5 * (right - left)
    nodes = (0.5 * (right + left))[:, None] + half[:, None] * _GL6_NODES
    us = np.concatenate((nodes.ravel(), at))
    with np.errstate(over="ignore"):
        ts = us * us
    if not np.isfinite(ts).all():
        u = float(us[np.argmin(np.isfinite(ts))])
        raise ExpressionEvalError(f"u^2 overflows float64 at u={u}")
    (k,) = profile.values(np.minimum(ts, math.nextafter(profile.b, 0.0)), "kcond")
    rho = np.sqrt(np.maximum(-k, 0.0))
    return half * (rho[:nodes.size].reshape(nodes.shape) @ _GL6_WEIGHTS), rho[nodes.size:]


def _lay_psi_table(profile: Profile, reach: float):
    """(breaks, psi, density) on panels laid from 0 to reach, each within
    PSI_PANEL_WIDTH and PSI_PANEL_RATIO."""
    sqrt_b = math.sqrt(profile.b)
    breaks = [0.0]
    while (x := breaks[-1]) < reach:
        right = min(reach, x + min(PSI_PANEL_WIDTH * max(1.0, x), PSI_PANEL_RATIO * (sqrt_b - x)))
        breaks.append(right if right > x else reach)  # within an ulp or two of sqrt(b)
    breaks = np.array(breaks)
    integrals, rho = _panel_integrals(profile, breaks[:-1], breaks[1:], breaks)
    return breaks, np.concatenate(([0.0], np.cumsum(integrals))), rho


def _psi_table_to(profile: Profile, reach: float):
    """The profile's psi table, or past u_edge one laid out to reach, not
    kept.  A reach past every u_edge the bound allows builds no table to
    u_edge first."""
    if reach <= (ESCAPE_RADIUS if math.isinf(profile.b) else math.sqrt(profile.b)):
        table = profile._psi_table
        if reach <= table[0][-1]:
            return table
    return _lay_psi_table(profile, reach)


def psi_value(profile: Profile, u: float) -> tuple[float, float]:
    """(psi(u), density at u), signed as u: the table's values where |u| is
    a break, else its psi at the last break below |u| plus one GL6 panel."""
    x = abs(u)
    breaks, values, rhos = _psi_table_to(profile, x)
    k = int(np.searchsorted(breaks, x, side="right")) - 1
    if breaks[k] == x:
        return math.copysign(float(values[k]), u), float(rhos[k])
    integral, rho = _panel_integrals(profile, breaks[k:k + 1], np.array([x]), np.array([x]))
    return math.copysign(float(values[k] + integral[0]), u), float(rho[0])


def psi_inverse(profile: Profile, targets: np.ndarray, reach: float) -> np.ndarray:
    """u with psi(u) = targets and |u| <= reach, for all targets at once.

    Newton from the cubic Hermite interpolant of u(psi) on each target's
    panel, whose slopes at the breaks are 1/density, one array pass per
    step over the targets still open, bracketed by the panel; a step's
    remainder is estimated with the density's slope from the panel's left
    break.
    """
    breaks, values, rhos = _psi_table_to(profile, reach)
    goal = np.minimum(np.abs(targets), values[-1])
    k = np.clip(np.searchsorted(values, goal, side="right") - 1, 0, len(values) - 2)
    lo, hi = breaks[k], breaks[k + 1]
    rise = values[k + 1] - values[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.divide(goal - values[k], rise, out=np.zeros_like(goal), where=rise > 0.0)
        m0, m1 = rise / (rhos[k] * (hi - lo)), rise / (rhos[k + 1] * (hi - lo))
        shape = x * x * (3.0 - 2.0 * x) + x * (1.0 - x) * ((1.0 - x) * m0 - x * m1)
    u = lo + (hi - lo) * np.clip(np.where(np.isfinite(shape), shape, x), 0.0, 1.0)
    out = np.empty_like(goal)
    todo = np.arange(len(goal))
    for steps in range(1, PSI_STEPS + 1):
        integral, rho = _panel_integrals(profile, breaks[k], u, u)
        residual = goal - (values[k] + integral)
        lo = np.where(residual > 0.0, u, lo)
        hi = np.where(residual < 0.0, u, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = np.where(residual == 0.0, 0.0, residual / rho)
            slope = (rho - rhos[k]) / (u - breaks[k])
        new = u + delta
        done = (delta == 0.0) | ((lo <= new) & (new <= hi)
                                 & (0.5 * np.abs(slope) * delta * delta <= PSI_TOL))
        if steps == PSI_STEPS:
            done[:], new = True, np.clip(new, lo, hi)
        out[todo[done]] = new[done]
        todo, k, goal, lo, hi, new = (a[~done] for a in (todo, k, goal, lo, hi, new))
        if not todo.size:
            break
        u = np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi))
    return np.copysign(out, targets)


def _check_range(profile: Profile, t):
    """ValueError unless 0 <= t < b, at a float or every point of an array."""
    inside = (0.0 <= t) & (t < profile.b)  # a bool at a float
    if inside is not True and not np.all(inside):
        t = np.ravel(t)[np.argmin(np.ravel(inside))]
        raise ValueError(f"t={t} outside the profile range [0, {profile.b})")


def chebyshev_grid(upper: float, size: int) -> np.ndarray:
    """Chebyshev-extrema points on [0, upper], denser toward both ends."""
    if size < 2:
        raise ValueError("grid size must be at least 2")
    return 0.5 * upper * (1.0 - np.cos(math.pi * np.arange(size) / (size - 1)))


def on_grid(profile: Profile, ts: np.ndarray, *names: str):
    """(rows, errors): the named values (keys of ORDERS) of profile on the
    grid ts, a row each, from one jet of the tree over the whole grid, and
    an ExpressionEvalError for each point where a guard of the tree fails,
    by index.  A point with an error is nan in every row.
    """
    values, failures = _named_values(profile.asts[0], ts, names)
    rows = np.empty((len(names), len(ts)))
    for row, value in zip(rows, values):
        row[...] = value  # a constant value is one float
    if failures:
        rows[:, list(failures)] = math.nan
    return rows, {i: ExpressionEvalError(f"{reason} at t={float(ts[i])}")
                  for i, reason in failures.items()}


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
    pseudoconvexity condition kcond < 0 at every grid point, from one jet
    of the grid: f > 0 is log f > -inf, which holds where f underflows, and
    f1 <= 0 is L = f1/f <= 0 where f > 0 and L >= 0 where f < 0.  A grid
    can only certify at its samples; the report says exactly which points
    fail.  t_max must be positive and finite.
    """
    if not 0.0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    upper = profile.grid_limit(t_max)
    ts = chebyshev_grid(upper, grid_size)
    (log_f, log_d, k), errors = on_grid(profile, ts, "logf", "L", "kcond")
    ok = (log_f != math.inf) & np.isfinite(log_d) & np.isfinite(k)
    positive = ok & (log_f > -math.inf)  # a negative f has a nan log
    failed = np.flatnonzero(~ok).tolist()
    failures = tuple((t, str(errors.get(i, "non-finite value")))
                     for i, t in zip(failed, ts[failed].tolist()))
    positivity = tuple(ts[ok & ~positive].tolist())
    # f1 = f * L > 0, at every point where L is finite, whatever the sign of f
    rising = ok & (np.where(np.isnan(log_f), -log_d, log_d) > 0.0)
    monotonicity = tuple(ts[rising].tolist()) if enforce_monotone else ()
    pseudoconvexity = tuple(ts[ok & (k >= 0.0)].tolist())
    valid = not (positivity or monotonicity or pseudoconvexity or failures)
    return ValidationReport(
        valid=valid,
        grid_size=grid_size,
        t_upper=upper,
        positivity_violations=positivity,
        monotonicity_violations=monotonicity,
        pseudoconvexity_violations=pseudoconvexity,
        evaluation_failures=failures,
        monotonicity_enforced=enforce_monotone,
    )
