"""Parser, and the values, derivatives and guards of Taylor jets."""

import ast
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hartogs import Profile
from hartogs.expressions import (
    Add,
    Div,
    Exp,
    ExpressionEvalError,
    ExpressionSyntaxError,
    Log,
    Mul,
    Neg,
    Num,
    Pow,
    Sub,
    Var,
    _constant,
    parse_expression,
)
from hartogs.profile import on_grid


def _profile(expr) -> Profile:
    return Profile(parse_expression(expr) if isinstance(expr, str) else expr, math.inf, 2)


def evaluate(expr, t: float, name: str = "f") -> float:
    """A value of expr at the float t from its jet."""
    return _profile(expr).values(t, name)[0]


class TestParsing:
    def test_linear(self):
        e = parse_expression("1 - t")
        assert evaluate(e, 0.5) == 0.5

    def test_precedence(self):
        e = parse_expression("1 + 2*t^2")
        assert evaluate(e, 3.0) == 19.0

    def test_unary_minus(self):
        assert evaluate(parse_expression("-t^2"), 2.0) == -4.0
        assert evaluate(parse_expression("2 * -t"), 3.0) == -6.0
        assert evaluate(parse_expression("1 - -t"), 2.0) == 3.0

    def test_parenthesized_negative_exponent(self):
        e = parse_expression("(1 + t)^(-3)")
        assert e == Pow(Add(Num(1.0), Var()), -3.0)
        assert evaluate(e, 0.0) == 1.0
        assert evaluate(e, 1.0) == 0.125

    def test_functions(self):
        assert evaluate(parse_expression("exp(-2*t)"), 0.0) == 1.0
        assert evaluate(parse_expression("log(t)"), math.e) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "src,position",
        [
            ("1 -", 3),
            ("1 + x", 4),
            ("(1 + t", 6),
            ("1 $ 2", 2),
            ("exp t", 4),
            ("", 0),
        ],
    )
    def test_syntax_errors_are_positioned(self, src, position):
        with pytest.raises(ExpressionSyntaxError) as err:
            parse_expression(src)
        assert err.value.position == position

    def test_non_constant_exponent(self):
        with pytest.raises(ExpressionSyntaxError, match="constant"):
            parse_expression("t^t")
        with pytest.raises(ExpressionSyntaxError, match="constant"):
            parse_expression("2^(1 + t)")
        # t to the power 0 is 1 wherever it evaluates, but still not constant
        with pytest.raises(ExpressionSyntaxError, match="constant"):
            parse_expression("2^t^0")

    def test_constant_expression_exponent_folds(self):
        e = parse_expression("t^(1 + 2)")
        assert isinstance(e, Pow)
        assert e.exponent == 3.0

    def test_overflowing_literal_is_positioned(self):
        with pytest.raises(ExpressionSyntaxError, match="infinity") as err:
            parse_expression("2*t + 1e400")
        assert err.value.position == 6

    def test_deep_nesting_is_positioned(self):
        with pytest.raises(ExpressionSyntaxError, match="nested") as err:
            parse_expression("(" * 400 + "t" + ")" * 400)
        assert 0 <= err.value.position <= 801


class TestDifferentiation:
    def test_linear(self):
        assert evaluate("1 - t", 0.7, "f1") == -1.0
        assert evaluate("1 - t", 0.7, "f2") == 0.0
        assert evaluate("1 - t", 0.7, "f3") == 0.0

    def test_exponential_by_hand(self):
        p = _profile("exp(-2*t)")
        assert p.f(1.0) == pytest.approx(math.exp(-2), rel=1e-15)
        assert p.f1(1.0) == pytest.approx(-2 * math.exp(-2), rel=1e-15)
        assert p.f2(1.0) == pytest.approx(4 * math.exp(-2), rel=1e-15)
        assert p.f3(1.0) == pytest.approx(-8 * math.exp(-2), rel=1e-15)

    def test_power_by_hand(self):
        p = _profile("(1 + t)^(-3)")
        assert (p.f(0.0), p.f1(0.0), p.f2(0.0), p.f3(0.0)) == (1.0, -3.0, 12.0, -60.0)

    def test_quotient_rule(self):
        # t/(1+t) has derivatives 1/(1+t)^2, -2/(1+t)^3 and 6/(1+t)^4
        p = _profile("t / (1 + t)")
        for t in (0.0, 0.5, 2.0):
            assert p.f1(t) == pytest.approx(1.0 / (1 + t) ** 2, rel=1e-14)
            assert p.f2(t) == pytest.approx(-2.0 / (1 + t) ** 3, rel=1e-14)
            assert p.f3(t) == pytest.approx(6.0 / (1 + t) ** 4, rel=1e-14)

    def test_log_rule(self):
        p = _profile("log(1 + t^2)")
        assert p.f1(2.0) == pytest.approx(4.0 / 5.0, rel=1e-14)
        assert p.f2(2.0) == pytest.approx(-6.0 / 25.0, rel=1e-14)  # 2(1 - t^2)/(1 + t^2)^2

    def test_vanishing_factor_keeps_its_derivatives(self):
        # t^2 and t*exp(-t) vanish at 0, where their logs have no jet
        assert _profile("t^2").values(0.0, "f", "f1", "f2", "f3") == (0.0, 0.0, 2.0, 0.0)
        assert _profile("t*exp(-t)").values(0.0, "f", "f1", "f2", "f3") == (0.0, 1.0, -2.0, 3.0)

    def test_underflowing_value_keeps_its_log_derivatives(self):
        # f = exp(-t - t^2) is 0.0 in float64 past t = 26.8
        p = _profile("exp(-t - t^2)")
        assert p.values(40.0, "f", "logf", "L", "kcond", "kcond1", "kcond2") == (
            0.0, -1640.0, -81.0, -161.0, -4.0, 0.0)


class TestGuards:
    def test_division_by_zero(self):
        with pytest.raises(ExpressionEvalError, match="division"):
            evaluate("1 / t", 0.0)

    def test_log_of_nonpositive(self):
        with pytest.raises(ExpressionEvalError, match="log"):
            evaluate("log(t - 2)", 1.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(ExpressionEvalError):
            evaluate("(t - 2)^0.5", 1.0)

    def test_compiled_guards_match(self):
        # the jet at one float and on a grid fail at the same point
        p = _profile("1 / (1 - t)")
        assert p.f(0.5) == 2.0
        with pytest.raises(ExpressionEvalError, match="division by zero at t=1.0"):
            p.f(1.0)
        (f,), errors = on_grid(p, np.array([0.5, 1.0]), "f")
        assert f[0] == 2.0 and math.isnan(f[1])
        assert list(errors) == [1] and str(errors[1]) == "division by zero at t=1.0"

    def test_values_over_an_array_raise_the_first_failure(self):
        # one entry for floats and arrays: an array gives one row per name,
        # equal to the floats, and raises the first failing point's error
        p = _profile("1 / (1 - t) + 1 / (2 - t)")
        ts = np.array([0.5, 0.25])
        f, f1 = p.values(ts, "f", "f1")
        assert f.tolist() == [p.f(t) for t in ts] and f1.tolist() == [p.f1(t) for t in ts]
        with pytest.raises(ExpressionEvalError, match="division by zero at t=2.0"):
            p.values(np.array([0.5, 2.0, 1.0]), "f")

    def test_compiled_infinite_fold_evaluates(self):
        assert evaluate("1e300*1e300 - t", 1.0) == math.inf
        assert math.isnan(evaluate("1e300*1e300 - 1e300*1e300 + t", 1.0))
        (f,), errors = on_grid(_profile("1e300*1e300 - t"), np.array([0.0, 1.0]), "f")
        assert f.tolist() == [math.inf, math.inf] and not errors


# ---------------------------------------------------------------------------
# Property tests

_number = st.builds(Num, st.floats(-5, 5, allow_nan=False).map(lambda x: round(x, 3)))
_leaf = st.one_of(_number, st.just(Var()))


def _branch(children):
    unary = st.one_of(
        children.map(Neg),
        children.map(Exp),
        children.map(Log),
        st.builds(Pow, children, st.sampled_from([-3.0, -1.0, 0.5, 2.0, 3.0])),
    )
    binary = st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
    )
    return st.one_of(unary, binary)


expressions = st.recursive(_leaf, _branch, max_leaves=12)


# Source strings of the grammar, with parentheses only where drawn, so that
# precedence and associativity decide the tree.  Exponents are drawn from a
# grammar of their own: small numbers, one level of '^', and 't', so that
# Python's evaluation of them can neither overflow nor raise on anything
# but a division by zero, which the parser rejects too.
_numerals = st.one_of(st.integers(0, 10 ** 6).map(str), st.sampled_from(["2.", ".5", "1e-3"]),
                      st.floats(0.0, 1e300).map(repr))
_op = st.sampled_from(["+", " - ", "*", " / ", "-"])
_exp_leaf = st.sampled_from(["0", "1", "2", "3", "0.5", ".25", "2.", "1.5", "t"])
_exp_atom = st.one_of(_exp_leaf, st.tuples(_exp_leaf, _exp_leaf).map("^".join))
_exponents = st.recursive(_exp_atom, lambda parts: st.one_of(
    parts.map(lambda x: f"-{x}"),
    parts.map(lambda x: f"({x})"),
    st.tuples(parts, _op, parts).map("".join),
), max_leaves=4)


def _compound(parts):
    call = st.tuples(st.sampled_from(["exp", "log"]), parts).map(lambda c: f"{c[0]}({c[1]})")
    base = st.one_of(_numerals, st.just("t"), parts.map(lambda x: f"({x})"), call)
    return st.one_of(
        st.tuples(parts, _op, parts).map("".join),
        st.tuples(base, _exponents).map("^".join),
        parts.map(lambda x: f"-{x}"),
        parts.map(lambda x: f"({x})"),
        call,
    )


_sources = st.recursive(st.one_of(_numerals, st.just("t")), _compound, max_leaves=10)


class _NotConstant(Exception):
    """An exponent that contains t, or that Python cannot evaluate."""


def _from_python(node):
    """The tree of a Python expression of the grammar, with each exponent
    evaluated by Python."""
    match node:
        case ast.Constant(value):
            return Num(float(value))
        case ast.Name("t"):
            return Var()
        case ast.UnaryOp(ast.USub(), arg):
            return Neg(_from_python(arg))
        case ast.Call(ast.Name("exp"), [arg]):
            return Exp(_from_python(arg))
        case ast.Call(ast.Name("log"), [arg]):
            return Log(_from_python(arg))
        case ast.BinOp(base, ast.Pow(), exponent):
            if any(isinstance(n, ast.Name) for n in ast.walk(exponent)):
                raise _NotConstant
            try:
                value = float(eval(compile(ast.Expression(exponent), "<exponent>", "eval")))
            except ZeroDivisionError:
                raise _NotConstant from None
            return Pow(_from_python(base), value)
        case ast.BinOp(left, op, right):
            kind = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div}[type(op)]
            return kind(_from_python(left), _from_python(right))
    raise TypeError(f"not of the grammar: {ast.dump(node)}")


@given(_sources)
@settings(max_examples=300)
def test_parser_matches_python(text):
    # the parser's tree is CPython's, node for node, and it rejects exactly
    # the exponents that contain t or do not evaluate
    try:
        expected = _from_python(ast.parse(text.replace("^", "**"), mode="eval").body)
    except _NotConstant:
        with pytest.raises(ExpressionSyntaxError, match="exponent must be a finite constant"):
            parse_expression(text)
    else:
        assert parse_expression(text) == expected


class _Underflow(ArithmeticError):
    """A value of the plain walk underflowed, past which the jet takes the
    log of the value from log space and may differ."""


def _plain(expr, t: float) -> float:
    """expr at the float t by one plain IEEE operation per node, inf where
    that overflows: ExpressionEvalError where a guard fails, and _Underflow
    where a value underflows -- a zero from nonzero operands, or a nonzero
    value below the least normal float."""

    def checked(value, *operands):
        if value == 0.0 and all(x != 0.0 for x in operands) or 0.0 < abs(value) < sys.float_info.min:
            raise _Underflow
        return value

    match expr:
        case Num(v):
            return v
        case Var():
            return t
        case Neg(g):
            return -_plain(g, t)
        case Add(a, b):
            return checked(_plain(a, t) + _plain(b, t))
        case Sub(a, b):
            return checked(_plain(a, t) - _plain(b, t))
        case Mul(a, b):
            x, y = _plain(a, t), _plain(b, t)
            return checked(x * y, x, y)
        case Div(a, b):
            x, y = _plain(a, t), _plain(b, t)
            if y == 0.0:
                raise ExpressionEvalError("division by zero")
            return checked(x / y, x)
        case Pow(g, p):
            x = _plain(g, t)
            if x < 0.0 and not p.is_integer():
                raise ExpressionEvalError("power of a negative value")
            if x == 0.0 and p < 0.0:
                raise ExpressionEvalError("division by zero")
            try:
                value = math.pow(x, p)
            except OverflowError:
                value = float(np.power(np.float64(x), p))
            return checked(value, x)
        case Exp(g):
            try:
                return checked(math.exp(_plain(g, t)), 1.0)
            except OverflowError:
                return math.inf
        case Log(g):
            x = _plain(g, t)
            if x <= 0.0:
                raise ExpressionEvalError("log of a non-positive value")
            return math.log(x)
    raise TypeError(expr)


def _ulp_spread(expr, t: float) -> tuple[float, float]:
    """(value, spread): expr at t, and a first-order bound on how far an
    evaluation whose exp, log and power may each round one ulp differently
    (numpy's SIMD routines against libm's) can land from it."""
    eps = sys.float_info.epsilon
    match expr:
        case Num(v):
            return v, 0.0
        case Var():
            return t, 0.0
        case Neg(g):
            x, ex = _ulp_spread(g, t)
            return -x, ex
    if isinstance(expr, (Add, Sub, Mul, Div)):
        (x, ex), (y, ey) = _ulp_spread(expr.left, t), _ulp_spread(expr.right, t)
        if isinstance(expr, (Add, Sub)):
            value = x + y if isinstance(expr, Add) else x - y
            spread = ex + ey
        elif isinstance(expr, Mul):
            value, spread = x * y, abs(x) * ey + abs(y) * ex + ex * ey
        else:
            value = x / y
            spread = (ex + abs(value) * ey) / (abs(y) - ey) if abs(y) > ey else math.inf
        return value, spread + eps * abs(value)
    x, ex = _ulp_spread(expr.arg if isinstance(expr, (Exp, Log)) else expr.base, t)
    with np.errstate(all="ignore"):  # a spread past float range is infinite
        if isinstance(expr, Exp):
            value = float(np.exp(x))
            spread = value * float(np.expm1(ex))
        elif isinstance(expr, Log):
            value = float(np.log(x))
            spread = -float(np.log1p(-ex / x)) if ex < x else math.inf
        else:
            value = float(np.power(x, expr.exponent))
            spread = abs(value) * float(np.expm1(abs(expr.exponent) * np.log1p(np.float64(ex) / abs(x))))
    return value, spread + 2.0 * eps * abs(value)


def _same(got: float, expected: float) -> bool:
    return got == expected or got == pytest.approx(expected, rel=1e-15) or (
        math.isnan(got) and math.isnan(expected))


@given(expressions, st.floats(0.01, 3.0, allow_nan=False))
@settings(max_examples=200)
def test_compiled_matches_tree_walk(expr, t):
    # the jet at one float against a plain walk: the same guards fail, and
    # the values agree, inf and nan included, unless a value underflows
    profile = _profile(expr)
    try:
        expected = _plain(expr, t)
    except ExpressionEvalError:
        with pytest.raises(ExpressionEvalError):
            profile.f(t)
    except _Underflow:
        pass
    else:
        got = profile.f(t)
        assert _same(got, expected), (got, expected)
    # the jet of a grid of three: flagged where the float jet raises, and
    # equal to it elsewhere up to the rounding of numpy's exp, log and power
    points = np.array([t, 0.5 * t, 1.5 * t])
    (grid,), errors = on_grid(profile, points, "f")
    for i, x in enumerate(points.tolist()):
        try:
            expected = profile.f(x)
        except ExpressionEvalError:
            assert i in errors
            continue
        if i in errors or math.isnan(expected):
            assert math.isnan(grid[i])
            continue
        spread = _ulp_spread(expr, x)[1]
        assert grid[i] == pytest.approx(expected, rel=1e-15, abs=2.0 * spread if spread >= 0 else math.inf)


@given(st.text(alphabet="0123456789.+-*/^()et xplog", max_size=40))
@settings(max_examples=300)
def test_parser_totality(src):
    try:
        parse_expression(src)
    except ExpressionSyntaxError as err:
        assert 0 <= err.position <= len(src)


_constants = st.recursive(_number, _branch, max_leaves=8)


@given(_constants)
@settings(max_examples=150)
def test_simplify_preserves_value(expr):
    # the fold that makes a '^' exponent a constant: the plain float value
    # of a tree without t, where that is finite, and None elsewhere
    try:
        expected = _plain(expr, math.nan)
    except (ExpressionEvalError, _Underflow):
        expected = None
    folded = _constant(expr)
    if expected is None or not math.isfinite(expected):
        return
    assert folded == pytest.approx(expected, rel=1e-12, abs=1e-12)
