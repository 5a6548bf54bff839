"""Expression trees for profile functions of a single variable t.

The grammar is deliberately small -- arithmetic, constant powers, exp and
log -- because everything downstream only needs smooth univariate profiles
together with exact derivative trees:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' exponent)?
    atom   := NUMBER | 't' | ('exp'|'log') '(' expr ')' | '(' expr ')'

The exponent of '^' is parsed as a factor and must fold to a constant.
Whitespace is insignificant.  Trees are immutable; differentiation and
simplification return new trees.  Simplification is conservative: constant
folding plus 0/1 identities, no symbolic equality decisions.
"""

from __future__ import annotations

import math
import re
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
            exponent = simplify(self._factor())
            if not isinstance(exponent, Num):
                raise ExpressionSyntaxError("exponent must be a constant", exp_pos)
            return Pow(node, exponent.value)
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
# Differentiation and simplification

def differentiate(expr: Expr) -> Expr:
    """Exact derivative tree with respect to t (unsimplified)."""
    match expr:
        case Num(_):
            return Num(0.0)
        case Var():
            return Num(1.0)
        case Add(a, b):
            return Add(differentiate(a), differentiate(b))
        case Sub(a, b):
            return Sub(differentiate(a), differentiate(b))
        case Mul(a, b):
            return Add(Mul(differentiate(a), b), Mul(a, differentiate(b)))
        case Div(a, b):
            num = Sub(Mul(differentiate(a), b), Mul(a, differentiate(b)))
            return Div(num, Pow(b, 2.0))
        case Pow(g, c):
            return Mul(Mul(Num(c), Pow(g, c - 1.0)), differentiate(g))
        case Exp(g):
            return Mul(Exp(g), differentiate(g))
        case Log(g):
            return Div(differentiate(g), g)
        case Neg(g):
            return Neg(differentiate(g))
    raise TypeError(f"not an expression node: {expr!r}")


def _fold_unary(op, arg: float) -> Expr | None:
    try:
        value = op(arg)
    except (ValueError, OverflowError, ZeroDivisionError):
        return None
    return Num(value) if math.isfinite(value) else None


def simplify(expr: Expr) -> Expr:
    """Constant folding and 0/1 identities, applied bottom-up."""
    match expr:
        case Num(_) | Var():
            return expr
        case Add(a, b):
            a, b = simplify(a), simplify(b)
            if isinstance(a, Num) and isinstance(b, Num):
                return Num(a.value + b.value)
            if isinstance(a, Num) and a.value == 0.0:
                return b
            if isinstance(b, Num) and b.value == 0.0:
                return a
            return Add(a, b)
        case Sub(a, b):
            a, b = simplify(a), simplify(b)
            if isinstance(a, Num) and isinstance(b, Num):
                return Num(a.value - b.value)
            if isinstance(b, Num) and b.value == 0.0:
                return a
            if isinstance(a, Num) and a.value == 0.0:
                return simplify(Neg(b))
            return Sub(a, b)
        case Mul(a, b):
            a, b = simplify(a), simplify(b)
            if isinstance(a, Num) and isinstance(b, Num):
                return Num(a.value * b.value)
            if (isinstance(a, Num) and a.value == 0.0) or (isinstance(b, Num) and b.value == 0.0):
                return Num(0.0)
            if isinstance(a, Num) and a.value == 1.0:
                return b
            if isinstance(b, Num) and b.value == 1.0:
                return a
            return Mul(a, b)
        case Div(a, b):
            a, b = simplify(a), simplify(b)
            if isinstance(a, Num) and isinstance(b, Num) and b.value != 0.0:
                return Num(a.value / b.value)
            if isinstance(b, Num) and b.value == 1.0:
                return a
            return Div(a, b)
        case Pow(g, c):
            g = simplify(g)
            if c == 0.0:
                return Num(1.0)
            if c == 1.0:
                return g
            if isinstance(g, Num):
                folded = _fold_unary(lambda base: math.pow(base, c), g.value)
                if folded is not None:
                    return folded
            return Pow(g, c)
        case Exp(g):
            g = simplify(g)
            if isinstance(g, Num):
                folded = _fold_unary(math.exp, g.value)
                if folded is not None:
                    return folded
            return Exp(g)
        case Log(g):
            g = simplify(g)
            if isinstance(g, Num):
                folded = _fold_unary(math.log, g.value)
                if folded is not None:
                    return folded
            return Log(g)
        case Neg(g):
            g = simplify(g)
            if isinstance(g, Num):
                return Num(-g.value)
            if isinstance(g, Neg):
                return g.arg
            return Neg(g)
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Printing

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 9


def _precedence(expr: Expr) -> int:
    match expr:
        case Num(v):
            # negative zero also prints with a leading minus
            return _PREC_ATOM if math.copysign(1.0, v) > 0 else _PREC_MUL
        case Var() | Exp(_) | Log(_):
            return _PREC_ATOM
        case Add(_, _) | Sub(_, _):
            return _PREC_ADD
        case Mul(_, _) | Div(_, _) | Neg(_):
            return _PREC_MUL
        case Pow(_, _):
            return _PREC_POW
    raise TypeError(f"not an expression node: {expr!r}")


def _wrap(expr: Expr, min_prec: int, strict: bool = False) -> str:
    text = to_source(expr)
    prec = _precedence(expr)
    if prec < min_prec or (strict and prec == min_prec):
        return f"({text})"
    return text


def _format_number(value: float) -> str:
    return repr(float(value))


def to_source(expr: Expr) -> str:
    """Canonical printing; parsing the result reproduces an equivalent tree."""
    match expr:
        case Num(v):
            return _format_number(v)
        case Var():
            return "t"
        case Add(a, b):
            return f"{_wrap(a, _PREC_ADD)} + {_wrap(b, _PREC_ADD, strict=True)}"
        case Sub(a, b):
            return f"{_wrap(a, _PREC_ADD)} - {_wrap(b, _PREC_ADD, strict=True)}"
        case Mul(a, b):
            return f"{_wrap(a, _PREC_MUL)} * {_wrap(b, _PREC_MUL, strict=True)}"
        case Div(a, b):
            return f"{_wrap(a, _PREC_MUL)} / {_wrap(b, _PREC_MUL, strict=True)}"
        case Pow(g, c):
            exp_text = _format_number(c) if c >= 0 else f"({_format_number(c)})"
            return f"{_wrap(g, _PREC_ATOM)}^{exp_text}"
        case Exp(g):
            return f"exp({to_source(g)})"
        case Log(g):
            return f"log({to_source(g)})"
        case Neg(g):
            return f"-{_wrap(g, _PREC_POW)}"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(expr: Expr, t: float) -> float:
    """Tree-walking evaluation with guards on division, log, and powers."""
    match expr:
        case Num(v):
            return v
        case Var():
            return float(t)
        case Add(a, b):
            return evaluate(a, t) + evaluate(b, t)
        case Sub(a, b):
            return evaluate(a, t) - evaluate(b, t)
        case Mul(a, b):
            return evaluate(a, t) * evaluate(b, t)
        case Div(a, b):
            den = evaluate(b, t)
            if den == 0.0:
                raise ExpressionEvalError(f"division by zero at t={t}")
            return evaluate(a, t) / den
        case Pow(g, c):
            base = evaluate(g, t)
            try:
                return math.pow(base, c)
            except (ValueError, OverflowError) as exc:
                raise ExpressionEvalError(f"pow({base}, {c}) undefined at t={t}") from exc
        case Exp(g):
            try:
                return math.exp(evaluate(g, t))
            except OverflowError as exc:
                raise ExpressionEvalError(f"exp overflow at t={t}") from exc
        case Log(g):
            arg = evaluate(g, t)
            if arg <= 0.0:
                raise ExpressionEvalError(f"log of non-positive value {arg} at t={t}")
            return math.log(arg)
        case Neg(g):
            return -evaluate(g, t)
    raise TypeError(f"not an expression node: {expr!r}")


def _emit(expr: Expr) -> str:
    match expr:
        case Num(v):
            return repr(float(v))
        case Var():
            return "t"
        case Add(a, b):
            return f"({_emit(a)} + {_emit(b)})"
        case Sub(a, b):
            return f"({_emit(a)} - {_emit(b)})"
        case Mul(a, b):
            return f"({_emit(a)} * {_emit(b)})"
        case Div(a, b):
            return f"({_emit(a)} / {_emit(b)})"
        case Pow(g, c):
            return f"_pow({_emit(g)}, {c!r})"
        case Exp(g):
            return f"_exp({_emit(g)})"
        case Log(g):
            return f"_log({_emit(g)})"
        case Neg(g):
            return f"(-{_emit(g)})"
    raise TypeError(f"not an expression node: {expr!r}")


def _guarded_log(x: float) -> float:
    if x <= 0.0:
        raise ValueError(f"log of non-positive value {x}")
    return math.log(x)


def compile_expression(expr: Expr | tuple[Expr, ...]):
    """Compile a tree, or a tuple of trees, to a fast float callable with the
    same guards as :func:`evaluate`.  Its ``array`` twin runs the same code
    on numpy arrays (a tree without t gives a float).  Under
    np.errstate(all="raise") the twin raises FloatingPointError (or
    ZeroDivisionError, for a constant divided by zero) wherever the callable
    raises and at any overflow or invalid step that the callable passes on
    as inf or nan; elsewhere the two differ only in the last-ulp rounding of
    numpy's exp, log and power.
    """
    body = f"({', '.join(map(_emit, expr))},)" if isinstance(expr, tuple) else _emit(expr)
    source = f"lambda t: {body}"
    # folded constants may be infinite or nan, and print as bare inf/nan
    namespace = {"_pow": math.pow, "_exp": math.exp, "_log": _guarded_log,
                 "inf": math.inf, "nan": math.nan}
    try:
        raw = eval(code := compile(source, "<profile-expression>", "eval"), namespace)
    except (RecursionError, SyntaxError):
        # CPython nests at most 200 parentheses, fewer than the parser allows;
        # the tree keeps no source offsets, so the error points at the start
        raise ExpressionSyntaxError("expression nested too deeply", 0) from None

    def evaluator(t: float) -> float:
        try:
            return raw(t)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ExpressionEvalError(f"{exc} at t={t}") from exc

    evaluator.source = source  # type: ignore[attr-defined]
    evaluator.array = eval(code, dict(namespace, _pow=np.power, _exp=np.exp, _log=np.log))  # type: ignore
    return evaluator
