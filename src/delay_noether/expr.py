"""Arithmetic expressions: parsing, printing, evaluation, differentiation.

Expressions are immutable trees over float constants, named variables,
unary functions and binary operators, built by a small recursive-descent
parser::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

NUMBER covers decimal and scientific literals.  ``pi`` and ``e`` are folded
to float constants at parse time; every other bare NAME is a variable.
Evaluation is pure: unbound variables and domain violations raise, they are
never silently defaulted.  ``evaluate`` walks the tree at one point;
``compile`` turns a tree once into a numpy closure that evaluates it over
whole arrays of bindings and raises the same errors.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np


class ExpressionError(ValueError):
    """Base class for all expression failures."""


class ParseError(ExpressionError):
    """Syntax error; ``offset`` is the position in the source string."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownFunctionError(ParseError):
    """A call ``name(...)`` where ``name`` is not a known function."""


class EvalError(ExpressionError):
    """Base class for evaluation failures."""


class UnboundVariableError(EvalError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable '{name}'")
        self.name = name


class DomainError(EvalError):
    """Evaluation left the real domain; names the offending subexpression."""

    def __init__(self, message: str, source: str):
        super().__init__(f"{message} in '{source}'")
        self.source = source


class VocabularyError(ExpressionError):
    """Expression uses variables outside its allowed vocabulary."""


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str
    arg: "Expression"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expression"
    right: "Expression"


Expression = Union[Constant, Variable, Unary, Binary]

_ZERO = Constant(0.0)
_ONE = Constant(1.0)

_FUNCTIONS: dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
}

# Arguments outside a function's real domain, checked before it is called.
_DOMAIN_CHECKS: dict[str, tuple[Callable, str]] = {
    "log": (lambda x: x <= 0.0, "log of non-positive value"),
    "sqrt": (lambda x: x < 0.0, "sqrt of negative value"),
}

_CONSTANTS = {"pi": math.pi, "e": math.e}

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, match.group(), pos))
        pos = match.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect_op(self, text: str) -> None:
        token = self.peek()
        if token.kind != "op" or token.text != text:
            raise ParseError(f"expected '{text}'", token.offset)
        self.advance()

    def parse(self) -> Expression:
        node = self.expr()
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected token {token.text!r}", token.offset)
        return node

    def expr(self) -> Expression:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            right = self.term()
            node = Binary("add" if op == "+" else "sub", node, right)
        return node

    def term(self) -> Expression:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            right = self.factor()
            node = Binary("mul" if op == "*" else "div", node, right)
        return node

    def factor(self) -> Expression:
        token = self.peek()
        if token.kind == "op" and token.text == "-":
            self.advance()
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> Expression:
        base = self.atom()
        token = self.peek()
        if token.kind == "op" and token.text == "^":
            self.advance()
            return Binary("pow", base, self.factor())
        return base

    def atom(self) -> Expression:
        token = self.advance()
        if token.kind == "number":
            return Constant(float(token.text))
        if token.kind == "name":
            if self.peek().kind == "op" and self.peek().text == "(":
                if token.text not in _FUNCTIONS:
                    raise UnknownFunctionError(
                        f"unknown function '{token.text}'", token.offset
                    )
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Unary(token.text, arg)
            if token.text in _CONSTANTS:
                return Constant(_CONSTANTS[token.text])
            return Variable(token.text)
        if token.kind == "op" and token.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if token.kind == "end":
            raise ParseError("unexpected end of input", token.offset)
        raise ParseError(f"unexpected token {token.text!r}", token.offset)


def parse(source: str) -> Expression:
    """Parse ``source`` into an expression tree."""
    return _Parser(source).parse()


# Printing precedence; atoms sit above every operator.
_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_ATOM_PREC = 5
_OP_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def _format_value(value: float) -> str:
    if value.is_integer() and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _render(expr: Expression) -> tuple[str, int]:
    if isinstance(expr, Constant):
        if expr.value < 0 or (expr.value == 0 and math.copysign(1, expr.value) < 0):
            return f"-{_format_value(-expr.value)}", _PREC["neg"]
        return _format_value(expr.value), _ATOM_PREC
    if isinstance(expr, Variable):
        return expr.name, _ATOM_PREC
    if isinstance(expr, Unary):
        if expr.op == "neg":
            text, prec = _render(expr.arg)
            if prec < _PREC["neg"]:
                text = f"({text})"
            return f"-{text}", _PREC["neg"]
        text, _ = _render(expr.arg)
        return f"{expr.op}({text})", _ATOM_PREC
    # Parenthesize children so the printed form reparses to the same tree.
    left, lp = _render(expr.left)
    right, rp = _render(expr.right)
    if expr.op in ("add", "sub"):
        if rp <= _PREC["add"]:
            right = f"({right})"
    elif expr.op in ("mul", "div"):
        if lp < _PREC["mul"]:
            left = f"({left})"
        if rp <= _PREC["mul"]:
            right = f"({right})"
    else:  # pow: left must be an atom, exponent binds like a factor
        if lp < _ATOM_PREC:
            left = f"({left})"
        if rp < _PREC["neg"]:
            right = f"({right})"
    return f"{left} {_OP_SYMBOL[expr.op]} {right}", _PREC[expr.op]


def to_source(expr: Expression) -> str:
    """Render ``expr`` as a string that parses back to an equivalent tree."""
    return _render(expr)[0]


def evaluate(expr: Expression, bindings: Mapping[str, float]) -> float:
    """Evaluate ``expr`` under ``bindings``.

    Raises ``UnboundVariableError`` for variables missing from ``bindings``
    and ``DomainError`` (naming the offending subexpression) for log/sqrt
    domain violations, division by zero and invalid powers.
    """
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, Variable):
        try:
            return float(bindings[expr.name])
        except KeyError:
            raise UnboundVariableError(expr.name) from None
    if isinstance(expr, Unary):
        value = evaluate(expr.arg, bindings)
        if expr.op == "neg":
            return -value
        domain = _DOMAIN_CHECKS.get(expr.op)
        if domain is not None and domain[0](value):
            raise DomainError(domain[1], to_source(expr))
        try:
            return _FUNCTIONS[expr.op](value)
        except (ValueError, OverflowError):
            raise DomainError(f"{expr.op} out of range", to_source(expr)) from None
    left = evaluate(expr.left, bindings)
    right = evaluate(expr.right, bindings)
    if expr.op == "add":
        return left + right
    if expr.op == "sub":
        return left - right
    if expr.op == "mul":
        return left * right
    if expr.op == "div":
        if right == 0.0:
            raise DomainError("division by zero", to_source(expr))
        return left / right
    try:
        return math.pow(left, right)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise DomainError("invalid power", to_source(expr)) from None


# One-argument functions and powers call ``math`` per element, as
# ``evaluate`` does, so compiled values equal its values bit for bit: numpy's
# own kernels (even its x * x for x^2) may round differently from libm.
_ELEMENTWISE = {name: np.frompyfunc(f, 1, 1) for name, f in _FUNCTIONS.items()}
_POW = np.frompyfunc(math.pow, 2, 1)


def _as_float(value):
    return value.astype(float) if isinstance(value, np.ndarray) else value


def _compile(expr: Expression) -> Callable:
    if isinstance(expr, Constant):
        value = expr.value
        return lambda bindings: value
    if isinstance(expr, Variable):
        name = expr.name

        def variable(bindings):
            try:
                value = bindings[name]
            except KeyError:
                raise UnboundVariableError(name) from None
            if isinstance(value, np.ndarray):
                return value.astype(float, copy=False)
            return float(value)

        return variable
    if isinstance(expr, Unary):
        arg = _compile(expr.arg)
        if expr.op == "neg":
            return lambda bindings: -arg(bindings)
        function = _ELEMENTWISE[expr.op]
        domain = _DOMAIN_CHECKS.get(expr.op)

        def unary(bindings):
            x = arg(bindings)
            if domain is not None and np.asarray(domain[0](x)).any():
                raise DomainError(domain[1], to_source(expr))
            try:
                return _as_float(function(x))
            except (ValueError, OverflowError):
                raise DomainError(f"{expr.op} out of range", to_source(expr)) from None

        return unary
    left, right = _compile(expr.left), _compile(expr.right)
    if expr.op == "add":
        return lambda bindings: left(bindings) + right(bindings)
    if expr.op == "sub":
        return lambda bindings: left(bindings) - right(bindings)
    if expr.op == "mul":
        return lambda bindings: left(bindings) * right(bindings)
    if expr.op == "div":

        def divide(bindings):
            numerator, denominator = left(bindings), right(bindings)
            if np.asarray(denominator == 0.0).any():
                raise DomainError("division by zero", to_source(expr))
            return numerator / denominator

        return divide

    def power(bindings):
        base, exponent = left(bindings), right(bindings)
        try:
            return _as_float(_POW(base, exponent))
        except (ValueError, OverflowError, ZeroDivisionError):
            raise DomainError("invalid power", to_source(expr)) from None

    return power


ArrayBindings = Mapping[str, Union[np.ndarray, float]]


def compile(expr: Expression) -> Callable[[ArrayBindings], np.ndarray | float]:
    """Compile ``expr`` once into a closure that evaluates it elementwise
    over a bindings mapping of numpy arrays (or floats), broadcasting them.

    Values equal those of ``evaluate`` bit for bit.  Nodes are checked in
    ``evaluate``'s left-to-right order, each over all elements at once: a
    missing name raises ``UnboundVariableError``, and the first node that
    leaves its domain at any element raises ``DomainError`` naming that
    subexpression, so where ``evaluate`` would raise the closure never
    returns NaN or inf.  On one point it raises exactly what ``evaluate``
    raises; when several elements fail at different nodes it names the
    first of those nodes, which need not be the one ``evaluate`` meets at
    the first failing element.  A tree without variables yields a float.
    """
    run = _compile(expr)

    def compiled(bindings: ArrayBindings) -> np.ndarray | float:
        with np.errstate(all="ignore"):
            return run(bindings)

    return compiled


def variables(expr: Expression) -> frozenset[str]:
    """All variable names appearing in ``expr``."""
    if isinstance(expr, Constant):
        return frozenset()
    if isinstance(expr, Variable):
        return frozenset((expr.name,))
    if isinstance(expr, Unary):
        return variables(expr.arg)
    return variables(expr.left) | variables(expr.right)


def rename_variables(expr: Expression, mapping: Mapping[str, str]) -> Expression:
    if isinstance(expr, Constant):
        return expr
    if isinstance(expr, Variable):
        new = mapping.get(expr.name)
        return Variable(new) if new is not None else expr
    if isinstance(expr, Unary):
        return Unary(expr.op, rename_variables(expr.arg, mapping))
    return Binary(
        expr.op,
        rename_variables(expr.left, mapping),
        rename_variables(expr.right, mapping),
    )


def _is_const(expr: Expression, value: float | None = None) -> bool:
    if not isinstance(expr, Constant):
        return False
    return value is None or expr.value == value


def _const(value: float) -> Constant:
    return Constant(float(value))


def _add(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Constant) and isinstance(b, Constant):
        folded = a.value + b.value
        if math.isfinite(folded):
            return _const(folded)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return Binary("add", a, b)


def _sub(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Constant) and isinstance(b, Constant):
        folded = a.value - b.value
        if math.isfinite(folded):
            return _const(folded)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _neg(b)
    return Binary("sub", a, b)


def _neg(a: Expression) -> Expression:
    if isinstance(a, Constant):
        return _const(-a.value)
    if isinstance(a, Unary) and a.op == "neg":
        return a.arg
    return Unary("neg", a)


def _mul(a: Expression, b: Expression) -> Expression:
    if isinstance(a, Constant) and isinstance(b, Constant):
        folded = a.value * b.value
        if math.isfinite(folded):
            return _const(folded)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return _ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return Binary("mul", a, b)


def _div(a: Expression, b: Expression) -> Expression:
    if _is_const(a, 0.0):
        return _ZERO
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Constant) and isinstance(b, Constant) and b.value != 0.0:
        folded = a.value / b.value
        if math.isfinite(folded):
            return _const(folded)
    return Binary("div", a, b)


def _pow(a: Expression, b: Expression) -> Expression:
    if _is_const(b, 0.0):
        return _ONE
    if _is_const(b, 1.0):
        return a
    if isinstance(a, Constant) and isinstance(b, Constant):
        try:
            folded = math.pow(a.value, b.value)
        except (ValueError, OverflowError, ZeroDivisionError):
            folded = math.nan
        if math.isfinite(folded):
            return _const(folded)
    return Binary("pow", a, b)


def diff(expr: Expression, var: str) -> Expression:
    """Exact derivative of ``expr`` with respect to the variable ``var``.

    The result is lightly folded: constant subtrees are collapsed and
    0/1-identities removed, nothing more.
    """
    if isinstance(expr, Constant):
        return _ZERO
    if isinstance(expr, Variable):
        return _ONE if expr.name == var else _ZERO
    if isinstance(expr, Unary):
        du = diff(expr.arg, var)
        u = expr.arg
        if expr.op == "neg":
            return _neg(du)
        if expr.op == "sin":
            return _mul(Unary("cos", u), du)
        if expr.op == "cos":
            return _neg(_mul(Unary("sin", u), du))
        if expr.op == "tan":
            return _div(du, _pow(Unary("cos", u), _const(2.0)))
        if expr.op == "exp":
            return _mul(expr, du)
        if expr.op == "log":
            return _div(du, u)
        if expr.op == "sqrt":
            return _div(du, _mul(_const(2.0), expr))
        if expr.op == "sinh":
            return _mul(Unary("cosh", u), du)
        if expr.op == "cosh":
            return _mul(Unary("sinh", u), du)
        if expr.op == "tanh":
            return _div(du, _pow(Unary("cosh", u), _const(2.0)))
        raise ExpressionError(f"cannot differentiate '{expr.op}'")
    dl = diff(expr.left, var)
    dr = diff(expr.right, var)
    if expr.op == "add":
        return _add(dl, dr)
    if expr.op == "sub":
        return _sub(dl, dr)
    if expr.op == "mul":
        return _add(_mul(dl, expr.right), _mul(expr.left, dr))
    if expr.op == "div":
        return _sub(
            _div(dl, expr.right),
            _div(_mul(expr.left, dr), _pow(expr.right, _const(2.0))),
        )
    # pow
    base, exponent = expr.left, expr.right
    if isinstance(exponent, Constant):
        return _mul(
            _mul(exponent, _pow(base, _const(exponent.value - 1.0))), dl
        )
    if isinstance(base, Constant):
        if base.value > 0:
            return _mul(expr, _mul(_const(math.log(base.value)), dr))
    return _mul(
        expr,
        _add(_mul(dr, Unary("log", base)), _div(_mul(exponent, dl), base)),
    )


# Canonical variable vocabulary for delayed variational problems: ``t``,
# ``q{i}_d{k}`` for the k-th derivative of coordinate i at time t, and
# ``q{i}_d{k}_tau`` for the same at time t - tau.  ``q{i}`` is accepted as
# shorthand for ``q{i}_d0`` and rewritten at load time.

_ALIAS_RE = re.compile(r"\Aq(\d+)\Z")
_COORDINATE_RE = re.compile(r"\Aq(\d+)_d(\d+)(_tau)?\Z")


def coordinate_name(index: int, deriv: int = 0, delayed: bool = False) -> str:
    name = f"q{index}_d{deriv}"
    return name + "_tau" if delayed else name


def total_derivative(expr: Expression) -> Expression:
    """Exact derivative of ``expr`` along a trajectory.

    Every ``q{i}_d{k}`` moves at the rate ``q{i}_d{k+1}`` and every
    ``q{i}_d{k}_tau`` at the rate ``q{i}_d{k+1}_tau``, so
    D_t f = df/dt + sum of df/dq{i}_d{k}[_tau] * q{i}_d{k+1}[_tau].
    Names are visited in sorted order, so the tree (and the rounding of its
    value) does not depend on set iteration order.
    """
    result = diff(expr, "t")
    for name in sorted(variables(expr) - {"t"}):
        match = _COORDINATE_RE.match(name)
        if match is None:
            raise ExpressionError(f"'{name}' does not move along a trajectory")
        index, deriv, delayed = match.groups()
        rate = coordinate_name(int(index), int(deriv) + 1, delayed is not None)
        result = _add(result, _mul(diff(expr, name), Variable(rate)))
    return result


def lagrangian_vocabulary(dim: int, order: int) -> frozenset[str]:
    """Variables a Lagrangian (or gauge term) of given dim/order may use."""
    names = {"t"}
    for i in range(dim):
        for k in range(order + 1):
            names.add(coordinate_name(i, k))
            names.add(coordinate_name(i, k, delayed=True))
    return frozenset(names)


def point_vocabulary(dim: int) -> frozenset[str]:
    """Variables a symmetry generator may use: t and current positions."""
    return frozenset({"t"} | {coordinate_name(i) for i in range(dim)})


def canonicalize(expr: Expression) -> Expression:
    """Rewrite ``q{i}`` shorthand to the canonical ``q{i}_d0``."""
    mapping = {}
    for name in variables(expr):
        match = _ALIAS_RE.match(name)
        if match:
            mapping[name] = coordinate_name(int(match.group(1)))
    return rename_variables(expr, mapping) if mapping else expr


def check_vocabulary(expr: Expression, allowed: frozenset[str], what: str) -> None:
    unknown = sorted(variables(expr) - allowed)
    if unknown:
        raise VocabularyError(
            f"{what} uses variables outside its vocabulary: {', '.join(unknown)}"
        )
