"""Expression trees for profile functions of a single variable t, and
their Taylor jets.

The grammar is deliberately small -- arithmetic, constant powers, exp and
log -- because everything downstream only needs smooth univariate profiles
and their derivatives:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' exponent)?
    atom   := NUMBER | 't' | ('exp'|'log') '(' expr ')' | '(' expr ')'

The exponent of '^' is parsed as a factor; it must not contain t and
must fold to a finite constant.  Whitespace is insignificant.  Trees are immutable.

``jet`` walks a tree once and propagates its truncated Taylor coefficients
at t, to a given order, over a float or a numpy array of points
(Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 13).  A jet is
(DIRECT, c), the value sum c_k h^k at t + h, or (LOG, sign, l, v), the
value sign * exp(sum l_k h^k), so l_0 = log|g| and the l_k are the
coefficients of log|g|, with v the value of g itself.  A node keeps LOG
wherever its operands allow: products, quotients and constant powers add,
subtract and scale the l, exp is unwrapped (the log of exp(g) is g), and a
sum of LOG jets is taken by log-sum-exp.  So the log-derivatives of a
profile stay exact where its value underflows float64.  Where a factor may
vanish -- t, t^2 at 0, a sum that cancels -- the node keeps the direct
jet; a constant integral power is an exact product, by squaring, only up
to the square or where its base vanishes somewhere.  Every walk carries
the values themselves (c_0 and v), each taken by the plain float operation
of its node on the values of its operands, so they equal a plain
evaluation of the tree wherever that evaluates; only log|g| and the
derivatives come from the log coefficients.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np


class ExpressionSyntaxError(ValueError):
    """Raised on malformed input, with the character offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExpressionEvalError(ArithmeticError):
    """Raised when a guarded node (division, log, power) hits a bad value."""


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Log(Expr):
    arg: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()])"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExpressionSyntaxError(f"unexpected character {src[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.index = 0

    def _peek(self):
        return self.tokens[self.index]

    def _advance(self):
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> Expr:
        node = self._expr()
        kind, text, pos = self._peek()
        if kind != "end":
            raise ExpressionSyntaxError(f"unexpected {text!r}", pos)
        return node

    def _expr(self) -> Expr:
        node = self._term()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "+-":
                self._advance()
                rhs = self._term()
                node = Add(node, rhs) if text == "+" else Sub(node, rhs)
            else:
                return node

    def _term(self) -> Expr:
        node = self._factor()
        while True:
            kind, text, _ = self._peek()
            if kind == "op" and text in "*/":
                self._advance()
                rhs = self._factor()
                node = Mul(node, rhs) if text == "*" else Div(node, rhs)
            else:
                return node

    def _factor(self) -> Expr:
        kind, text, _ = self._peek()
        if kind == "op" and text == "-":
            self._advance()
            return Neg(self._factor())
        node = self._atom()
        kind, text, pos = self._peek()
        if kind == "op" and text == "^":
            self._advance()
            _, _, exp_pos = self._peek()
            exponent = _constant(self._factor())
            if exponent is None:
                raise ExpressionSyntaxError("exponent must be a finite constant", exp_pos)
            return Pow(node, exponent)
        return node

    def _atom(self) -> Expr:
        kind, text, pos = self._advance()
        if kind == "num":
            value = float(text)
            if math.isinf(value):
                raise ExpressionSyntaxError(f"number {text} overflows to infinity", pos)
            return Num(value)
        if kind == "name":
            if text == "t":
                return Var()
            if text in ("exp", "log"):
                self._expect("(", pos)
                inner = self._expr()
                self._expect(")", self._peek()[2])
                return Exp(inner) if text == "exp" else Log(inner)
            raise ExpressionSyntaxError(f"unknown identifier {text!r}", pos)
        if kind == "op" and text == "(":
            inner = self._expr()
            self._expect(")", self._peek()[2])
            return inner
        raise ExpressionSyntaxError("expected a number, 't', or '('", pos)

    def _expect(self, op: str, pos: int):
        kind, text, tok_pos = self._advance()
        if kind != "op" or text != op:
            raise ExpressionSyntaxError(f"expected {op!r}", tok_pos if kind != "end" else pos)


def parse_expression(src: str) -> Expr:
    """Parse an expression string into a tree, or raise a positioned error."""
    parser = _Parser(src)
    try:
        return parser.parse()
    except RecursionError:
        raise ExpressionSyntaxError("expression nested too deeply", parser._peek()[2]) from None


# ---------------------------------------------------------------------------
# Taylor jets, to n terms (a shorter list ends in zeros)
#
# A coefficient that does not depend on t stays a float: a tree without t is
# a DIRECT jet of floats.  Every jet carries its value, and nothing is kept
# from one walk to the next.  Nothing raises on a float where numpy would
# give inf, nan or 0, so that a walk runs the same on a float t and on an
# array of points.

DIRECT, LOG = 0, 1
_MIN_NORMAL = sys.float_info.min


class Walk:
    """The points t of one walk, float or array, its number of Taylor terms
    n, and, by point index, the first reason a guard failed there.  A walk
    runs under np.errstate(all="ignore") and goes on past a failed guard."""

    def __init__(self, t, order: int):
        self.t, self.n, self.failures = t, order + 1, {}

    def fail(self, bad, reason: str):
        if _any(bad):
            for i in np.flatnonzero(np.broadcast_to(bad, np.shape(self.t))).tolist():
                self.failures.setdefault(i, reason)


def _any(mask) -> bool:
    # the method, as np.any costs several times more on a short array
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


# math on a float where its value is finite, as it is faster there, and
# numpy elsewhere
def _exp(x):
    return math.exp(x) if type(x) is float and -745.0 < x < 709.0 else np.exp(x)


def _sign_log(x) -> tuple:
    if type(x) is float and 0.0 < abs(x) < math.inf:
        return math.copysign(1.0, x), math.log(abs(x))
    return np.sign(x), np.log(np.abs(x))


def _divide(x, v):
    return x / v if type(v) is float and v != 0.0 else np.true_divide(x, v)


def _pow(x, p: float):
    if type(x) is float:
        try:
            return math.pow(x, p)
        except (OverflowError, ValueError):
            pass
    return np.power(x, p)


def jet(expr: Expr, walk: Walk) -> tuple:
    """The jet of expr at walk.t, in one walk of the tree."""
    return _RULES[type(expr)](expr, walk)


_RULES = {
    Num: lambda e, w: (DIRECT, [e.value]),
    Var: lambda e, w: (DIRECT, [w.t, 1.0][:w.n]),
    Neg: lambda e, w: _negated(jet(e.arg, w)),
    Add: lambda e, w: _sum(jet(e.left, w), jet(e.right, w), w),
    Sub: lambda e, w: _sum(jet(e.left, w), _negated(jet(e.right, w)), w),
    Mul: lambda e, w: _product(jet(e.left, w), jet(e.right, w), w),
    Div: lambda e, w: _quotient(jet(e.left, w), jet(e.right, w), w),
    Pow: lambda e, w: _power(jet(e.base, w), e.exponent, w),
    Exp: lambda e, w: _exponential(direct_form(jet(e.arg, w), w)),
    Log: lambda e, w: _log(jet(e.arg, w), w),
}


def _has_t(expr: Expr) -> bool:
    return isinstance(expr, Var) or any(
        isinstance(x, Expr) and _has_t(x) for x in vars(expr).values())


def _constant(expr: Expr) -> float | None:
    """The value of a tree without t, if it is finite."""
    if _has_t(expr):  # even where a zero power would never read t
        return None
    walk = Walk(None, 0)
    with np.errstate(all="ignore"):
        value = float(direct_form(jet(expr, walk), walk)[0])
    return value if math.isfinite(value) and not walk.failures else None


def _plus(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def _times(x, y):
    # the float 1.0 of t's jet, and of e_0, costs no array operation
    if type(y) is float and y == 1.0:
        return x
    return y if type(x) is float and x == 1.0 else x * y


def _cauchy(a: list, b: list, n: int) -> list:
    """The product of two coefficient lists, to n terms."""
    len_a, len_b = len(a), len(b)
    if len_a == 1 or len_b == 1:  # a constant factor, or order 0
        v, other = (a[0], b) if len_a == 1 else (b[0], a)
        return [_times(v, x) for x in other]
    out = []
    for k in range(min(n, len_a + len_b - 1)):
        i = max(0, k - len_b + 1)
        total = _times(a[i], b[k - i])
        for i in range(i + 1, min(k, len_a - 1) + 1):
            total = total + _times(a[i], b[k - i])
        out.append(total)
    return out


def _exp_series(l: list, n: int) -> list:
    """The coefficients of exp(l_1 h + l_2 h^2 + ...), to n terms, from
    k e_k = sum_j j l_j e_(k-j) with e_0 = 1."""
    m = len(l) - 1
    jl = [j * l[j] if j > 1 else l[j] for j in range(m + 1)]
    e = [1.0]
    for k in range(1, n if m else 1):
        total = jl[k] if k <= m else 0.0
        for j in range(1, min(k - 1, m) + 1):
            total = total + jl[j] * e[k - j]
        e.append(total / k if k > 1 else total)
    return e


def _log_series(c: list, n: int) -> list:
    """l_1.. of log(c(h) / c_0), to n terms in all, from
    k l_k = k r_k - sum_(j<k) j l_j r_(k-j) with r = c / c_0."""
    m = len(c) - 1
    inv = _divide(1.0, c[0]) if m else None
    r = [None, *[x * inv for x in c[1:]]]
    l = [None]
    for k in range(1, n if m else 1):
        tail = None
        for j in range(max(1, k - m), k):
            term = (l[j] if j == 1 else j * l[j]) * r[k - j]
            tail = term if tail is None else tail + term
        l.append(r[k] if tail is None else (r[k] - tail / k if k <= m else tail / -k))
    return l[1:]


def direct_form(x, walk: Walk) -> list:
    """The Taylor coefficients of a jet's value."""
    if x[0] == DIRECT:
        return x[1]
    return [x[3], *[_times(x[3], e) for e in _exp_series(x[2], walk.n)[1:]]]


def log_form(x, walk: Walk, reason: str | None) -> tuple:
    """(sign, l, v) of a jet.  Where its value vanishes l_0 is -inf and the
    l_k are not finite, and the guard fails with reason, unless None."""
    if x[0] == LOG:
        return x[1:]
    c = x[1]
    if reason is not None:
        walk.fail(c[0] == 0.0, reason)
    sign, log_c0 = _sign_log(c[0])
    return sign, [log_c0, *_log_series(c, walk.n)], c[0]


def _negated(x):
    if x[0] == DIRECT:
        return DIRECT, [-v for v in x[1]]
    return LOG, -x[1], x[2], -x[3]


def _exponential(c: list):
    return LOG, 1.0, c, _exp(c[0])


def _product(a, b, walk: Walk):
    """A sum of logs, unless a factor is a constant, which scales the
    other exactly, or vanishes somewhere, where its log has no jet."""
    if a[0] == LOG or b[0] == DIRECT and len(b[1]) == 1:
        a, b = b, a
    if a[0] == DIRECT and (b[0] == DIRECT and len(a[1]) == 1 or _any(a[1][0] == 0.0)
                           or b[0] == DIRECT and _any(b[1][0] == 0.0)):
        return DIRECT, _cauchy(a[1], direct_form(b, walk), walk.n)
    (sa, la, va), (sb, lb, vb) = log_form(a, walk, None), log_form(b, walk, None)
    return LOG, sa * sb, _plus(la, lb), va * vb


def _quotient(a, b, walk: Walk):
    if a[0] == b[0] == DIRECT and len(b[1]) == 1:  # exactly, by a constant (or at order 0)
        walk.fail(b[1][0] == 0.0, "division by zero")
        return DIRECT, [_divide(x, b[1][0]) for x in a[1]]
    sb, lb, vb = log_form(b, walk, "division by zero")
    lb = [-x for x in lb]
    if a[0] == DIRECT and _any(a[1][0] == 0.0):  # a numerator that vanishes somewhere
        c = _cauchy(a[1], direct_form((LOG, sb, lb, _divide(1.0, vb)), walk), walk.n)
        return DIRECT, [_divide(a[1][0], vb), *c[1:]]
    sa, la, va = log_form(a, walk, None)
    return LOG, sa * sb, _plus(la, lb), _divide(va, vb)


def _sum(a, b, walk: Walk):
    """A sum: of two LOG jets, the larger term times 1 + the ratio of the
    other to it, whose log is taken on the ratio's own log jet, so that
    nothing cancels; of others, or where that sum vanishes, direct."""
    if a[0] == b[0] == LOG:
        (_, sa, la, va), (_, sb, lb, vb) = a, b
        la, lb = (la + [0.0] * (len(lb) - len(la))), (lb + [0.0] * (len(la) - len(lb)))
        swap = lb[0] > la[0]
        if _any(swap):
            sa, sb = np.where(swap, sb, sa), np.where(swap, sa, sb)
            la, lb = ([np.where(swap, y, x) for x, y in zip(la, lb)],
                      [np.where(swap, x, y) for x, y in zip(la, lb)])
        ratio = [y - x for x, y in zip(la, lb)]
        scale = sa * sb * _exp(ratio[0])
        w = [scale * v for v in _exp_series(ratio, walk.n)]
        w[0] = w[0] + 1.0
        if not _any(w[0] == 0.0):
            sign, log_w0 = _sign_log(w[0])
            return LOG, sa * sign, _plus(la, [log_w0, *_log_series(w, walk.n)]), va + vb
    return DIRECT, _plus(direct_form(a, walk), direct_form(b, walk))


def _power(x, p: float, walk: Walk):
    integral = p.is_integer()
    # an exact product, by squaring, up to the square and where the base
    # vanishes somewhere, as a zero has no log; else log space
    if x[0] == DIRECT and integral and p >= 0.0 and (p <= 2.0 or _any(x[1][0] == 0.0)):
        c, square, k = [1.0], x[1], int(p)
        while k:  # x^p = c * square^k
            c = _cauchy(c, square, walk.n) if k & 1 else c
            k >>= 1
            square = _cauchy(square, square, walk.n) if k else square
        # up to the square the product rounds as the power does
        return DIRECT, c if p <= 2.0 else [_pow(x[1][0], p), *c[1:]]
    # the sign of the base; a zero base to a power p > 0 is 0, with infinite
    # derivatives past p, and has no log
    base, vanishes = x[1][0] if x[0] == DIRECT else x[1], False
    if (not integral or p < 0.0) and _any(base <= 0.0):
        if not integral:
            walk.fail(base < 0.0, "power of a negative value")
            vanishes = p > 0.0 and x[0] == DIRECT and _any(base == 0.0)
        if p < 0.0:
            walk.fail(base == 0.0, "division by zero")
    sign, l, v = log_form(x, walk, None)
    out = LOG, sign if p % 2.0 == 1.0 else 1.0, [p * y for y in l], _pow(v, p)
    # the value 0 of a zero base is no underflow, and keeps the direct jet
    return (DIRECT, direct_form(out, walk)) if vanishes else out


def _log(x, walk: Walk):
    walk.fail((x[1] if x[0] == LOG else x[1][0]) <= 0.0, "log of a non-positive value")
    _, l, v = log_form(x, walk, None)
    if x[0] == DIRECT:
        return DIRECT, l
    # the log of the value itself, but where that underflowed, log|g|
    if type(v) is float and _MIN_NORMAL <= v < math.inf:
        return DIRECT, [math.log(v), *l[1:]]
    under = np.abs(v) < _MIN_NORMAL
    return DIRECT, [np.where(under, l[0], np.log(np.where(under, 1.0, v))), *l[1:]]
