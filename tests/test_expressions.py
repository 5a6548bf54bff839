"""Parser, differentiation, printing, and evaluation guards."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    compile_expression,
    differentiate,
    evaluate,
    parse_expression,
    simplify,
    to_source,
)


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
        d1 = simplify(differentiate(parse_expression("1 - t")))
        assert evaluate(d1, 0.7) == -1.0
        d2 = simplify(differentiate(d1))
        assert d2 == Num(0.0)

    def test_exponential_by_hand(self):
        e = parse_expression("exp(-2*t)")
        d1 = simplify(differentiate(e))
        d2 = simplify(differentiate(d1))
        assert evaluate(e, 1.0) == pytest.approx(math.exp(-2), rel=1e-15)
        assert evaluate(d1, 1.0) == pytest.approx(-2 * math.exp(-2), rel=1e-15)
        assert evaluate(d2, 1.0) == pytest.approx(4 * math.exp(-2), rel=1e-15)

    def test_power_by_hand(self):
        e = parse_expression("(1 + t)^(-3)")
        d1 = simplify(differentiate(e))
        d2 = simplify(differentiate(d1))
        assert evaluate(e, 0.0) == 1.0
        assert evaluate(d1, 0.0) == -3.0
        assert evaluate(d2, 0.0) == 12.0

    def test_quotient_rule(self):
        e = parse_expression("t / (1 + t)")
        d1 = simplify(differentiate(e))
        # derivative is 1/(1+t)^2
        for t in (0.0, 0.5, 2.0):
            assert evaluate(d1, t) == pytest.approx(1.0 / (1 + t) ** 2, rel=1e-14)

    def test_log_rule(self):
        d1 = simplify(differentiate(parse_expression("log(1 + t^2)")))
        assert evaluate(d1, 2.0) == pytest.approx(4.0 / 5.0, rel=1e-14)


class TestGuards:
    def test_division_by_zero(self):
        with pytest.raises(ExpressionEvalError, match="division"):
            evaluate(parse_expression("1 / t"), 0.0)

    def test_log_of_nonpositive(self):
        with pytest.raises(ExpressionEvalError, match="log"):
            evaluate(parse_expression("log(t - 2)"), 1.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(ExpressionEvalError):
            evaluate(parse_expression("(t - 2)^0.5"), 1.0)

    def test_compiled_guards_match(self):
        fn = compile_expression(parse_expression("1 / (1 - t)"))
        assert fn(0.5) == 2.0
        with pytest.raises(ExpressionEvalError):
            fn(1.0)

    def test_compiled_infinite_fold_evaluates(self):
        tree = simplify(parse_expression("1e300*1e300 - t"))
        assert compile_expression(tree)(1.0) == math.inf
        tree = simplify(parse_expression("1e300*1e300 - 1e300*1e300 + t"))
        assert math.isnan(compile_expression(tree)(1.0))


# ---------------------------------------------------------------------------
# Property tests

_leaf = st.one_of(
    st.builds(Num, st.floats(-5, 5, allow_nan=False).map(lambda x: round(x, 3))),
    st.just(Var()),
)


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


@given(expressions)
@settings(max_examples=200)
def test_printing_round_trip(expr):
    text = to_source(expr)
    reparsed = parse_expression(text)
    assert to_source(reparsed) == text
    assert simplify(reparsed) == simplify(expr)


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
            value = math.exp(x)
            spread = value * float(np.expm1(ex))
        elif isinstance(expr, Log):
            value = math.log(x)
            spread = -float(np.log1p(-ex / x)) if ex < x else math.inf
        else:
            value = math.pow(x, expr.exponent)
            spread = abs(value) * float(np.expm1(abs(expr.exponent) * np.log1p(np.float64(ex) / abs(x))))
    return value, spread + 2.0 * eps * abs(value)


@given(expressions, st.floats(0.01, 3.0, allow_nan=False))
@settings(max_examples=200)
def test_compiled_matches_tree_walk(expr, t):
    compiled = compile_expression(expr)
    try:
        expected = evaluate(expr, t)
    except ExpressionEvalError:
        with pytest.raises(ExpressionEvalError):
            compiled(t)
    else:
        got = compiled(t)
        assert got == expected or got == pytest.approx(expected, rel=1e-15)
    # the array twin on a few points: flagged under the grid passes' rule
    # where the float callable raises, equal to it elsewhere
    points = np.array([t, 0.5 * t, 1.5 * t])
    try:
        with np.errstate(all="raise", under="ignore"):
            flagged = not np.isfinite(compiled.array(points)).all()
        with np.errstate(all="ignore"):
            values = np.broadcast_to(compiled.array(points), points.shape).tolist()
    except (FloatingPointError, ZeroDivisionError):
        flagged, values = True, [None] * len(points)
    for x, got in zip(points.tolist(), values):
        try:
            expected = compiled(x)
        except ExpressionEvalError:
            assert flagged
            continue
        if got is None or math.isnan(expected):
            assert got is None or math.isnan(got)
            continue
        spread = _ulp_spread(expr, x)[1]
        assert got == pytest.approx(expected, rel=1e-15, abs=2.0 * spread if spread >= 0 else math.inf)


@given(st.text(alphabet="0123456789.+-*/^()et xplog", max_size=40))
@settings(max_examples=300)
def test_parser_totality(src):
    try:
        parse_expression(src)
    except ExpressionSyntaxError as err:
        assert 0 <= err.position <= len(src)


@given(expressions, st.floats(0.05, 2.0, allow_nan=False))
@settings(max_examples=150)
def test_simplify_preserves_value(expr, t):
    try:
        expected = evaluate(expr, t)
    except ExpressionEvalError:
        return
    try:
        simplified = evaluate(simplify(expr), t)
    except ExpressionEvalError:
        # simplification may only widen the domain (0 * log(bad) -> 0)
        raise AssertionError("simplify must not narrow the evaluable domain")
    if math.isfinite(expected):
        assert simplified == pytest.approx(expected, rel=1e-12, abs=1e-12)
