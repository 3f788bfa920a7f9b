"""Symbolic expression trees over the normalized predictors x1..x10.

The node set is deliberately small: constants, variables, n-ary sums and
products, division, integer powers, negation, and the unary functions
cos, tan, tanh, exp, log.  That is enough to express every equation in the
bank and everything the spline-network distiller emits.

Text form and tree form are interconvertible: ``parse_expression`` and
``to_text`` are inverse up to flattening, and printing is a fixed point
(``to_text(parse_expression(s)) == s`` for any printer-produced ``s``).
Constants remember the exact digits they were written with, so parsing and
reprinting never changes published precision.

Evaluation is vectorized over numpy arrays.  Each unary function's value,
chain-rule slope and domain rule are written once, in one table and one
check that values and partials share.  Denominators within 1e-12 of zero
raise :class:`~rwtkit.errors.PoleError` (tangent guards the cosine of its
argument the same way); ``log`` of a non-positive value raises
:class:`~rwtkit.errors.DomainError`.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadVariableIndex,
    DomainError,
    ParseError,
    PoleError,
    UnboundVariable,
    UnknownFunction,
)

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Mul",
    "Div",
    "Pow",
    "Neg",
    "Call",
    "FUNCTIONS",
    "POLE_EPS",
    "MAX_VARIABLES",
    "const",
    "add",
    "mul",
    "parse_expression",
    "to_text",
    "eval_expression",
    "expr_partial",
    "variables",
    "simplify",
]

#: Absolute threshold below which a denominator (or the cosine inside tan)
#: counts as a pole.
POLE_EPS = 1e-12

#: The supported unary functions: each one's value v at a, and its slope
#: given a, v and the slope d of a.
_UNARY = {
    "cos": (np.cos, lambda a, v, d: -np.sin(a) * d),
    "tan": (np.tan, lambda a, v, d: d / (np.cos(a) * np.cos(a))),
    "tanh": (np.tanh, lambda a, v, d: (1.0 - v * v) * d),
    "exp": (np.exp, lambda a, v, d: v * d),
    "log": (np.log, lambda a, v, d: d / a),
}
FUNCTIONS = frozenset(_UNARY)

#: Variables run x1..x10, matching the canonical feature order.
MAX_VARIABLES = 10


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """A non-negative numeric literal.

    Negative quantities are represented as ``Neg(Const(...))`` so every tree
    has exactly one spelling.  ``text`` preserves the digits the constant was
    parsed from; it is display metadata and does not take part in equality.
    """

    value: float
    text: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        v = float(self.value)
        if not np.isfinite(v):
            raise ValueError(f"constant must be finite, got {v}")
        if v < 0.0 or (v == 0.0 and np.signbit(v)):
            raise ValueError(
                f"constant must be non-negative (wrap in Neg for signs), got {v}"
            )


@dataclass(frozen=True)
class Var(Expr):
    """The normalized predictor ``x<index>``, index 1..10."""

    index: int

    def __post_init__(self) -> None:
        if not (1 <= self.index <= MAX_VARIABLES):
            raise ValueError(f"variable index must be 1..{MAX_VARIABLES}, got {self.index}")


@dataclass(frozen=True)
class Add(Expr):
    """An n-ary sum; nested sums are flattened at construction."""

    terms: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.terms) < 2:
            raise ValueError("Add needs at least two terms")


@dataclass(frozen=True)
class Mul(Expr):
    """An n-ary product; nested products are flattened at construction."""

    factors: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.factors) < 2:
            raise ValueError("Mul needs at least two factors")


@dataclass(frozen=True)
class Div(Expr):
    numerator: Expr
    denominator: Expr


@dataclass(frozen=True)
class Pow(Expr):
    """Integer power of a base expression."""

    base: Expr
    exponent: int

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, int) or isinstance(self.exponent, bool):
            raise ValueError(f"exponent must be an integer, got {self.exponent!r}")


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    """Application of one of the supported unary functions."""

    func: str
    arg: Expr

    def __post_init__(self) -> None:
        if self.func not in FUNCTIONS:
            raise ValueError(f"unsupported function {self.func!r}")


# --- builders ---------------------------------------------------------------

def const(value: float, text: str | None = None) -> Expr:
    """Build a constant, routing negative values through :class:`Neg`."""
    v = float(value)
    if v < 0.0:
        return Neg(Const(-v, text=text.lstrip("-") if text else None))
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return Const(v, text=text)


def add(*terms: Expr) -> Expr:
    """Sum of terms with nested sums flattened; a single term passes through."""
    flat: list[Expr] = []
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if not flat:
        return Const(0.0)
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors: Expr) -> Expr:
    """Product of factors with nested products flattened."""
    flat: list[Expr] = []
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        return Const(1.0)
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


# --- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r")"
)

_VAR_RE = re.compile(r"^x(\d+)$")


@dataclass
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        for kind in ("number", "ident", "op"):
            value = m.group(kind)
            if value is not None:
                tokens.append(_Token(kind, value, m.start(kind)))
                break
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for the expression grammar.

    Precedence, loosest to tightest: ``+ -`` then ``* /`` then unary minus
    then ``^``.  ``a - b`` parses as ``Add(a, Neg(b))`` and products and
    quotients associate left.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}, found {tok.text or 'end of input'!r}", tok.pos)

    def parse(self) -> Expr:
        expr = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.pos)
        return expr

    def parse_sum(self) -> Expr:
        terms = [self.parse_term()]
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.next().text
            rhs = self.parse_term()
            terms.append(Neg(rhs) if op == "-" else rhs)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def parse_term(self) -> Expr:
        value = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.next().text
            rhs = self.parse_factor()
            if op == "*":
                value = mul(value, rhs)
            else:
                value = Div(value, rhs)
        return value

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.next()
            sign = 1
            if self.peek().kind == "op" and self.peek().text == "-":
                self.next()
                sign = -1
            etok = self.next()
            if etok.kind != "number" or not re.fullmatch(r"\d+", etok.text):
                raise ParseError(
                    f"exponent must be an integer, found {etok.text or 'end of input'!r}",
                    etok.pos,
                )
            return Pow(base, sign * int(etok.text))
        return base

    def parse_atom(self) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            return Const(float(tok.text), text=tok.text)
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownFunction(f"unknown function {tok.text!r}", tok.pos)
                self.next()
                arg = self.parse_sum()
                self.expect_op(")")
                return Call(tok.text, arg)
            m = _VAR_RE.match(tok.text)
            if m:
                index = int(m.group(1))
                if not (1 <= index <= MAX_VARIABLES):
                    raise BadVariableIndex(
                        f"variable index must be 1..{MAX_VARIABLES}, got x{index}", tok.pos
                    )
                return Var(index)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            expr = self.parse_sum()
            self.expect_op(")")
            return expr
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.pos)


def parse_expression(text: str) -> Expr:
    """Parse infix text into an expression tree.

    Raises :class:`ParseError` (with position), :class:`UnknownFunction`, or
    :class:`BadVariableIndex`.
    """
    return _Parser(text).parse()


# --- printing ---------------------------------------------------------------

def _const_text(node: Const) -> str:
    return node.text if node.text is not None else repr(node.value)


def _needs_parens_in_mul(factor: Expr, first: bool) -> bool:
    if isinstance(factor, Add):
        return True
    if first:
        # a leading unary minus or quotient reparses to the same tree
        return False
    return isinstance(factor, (Neg, Div))


def to_text(expr: Expr) -> str:
    """Render a tree as canonical infix text.

    The output reparses to an equal tree, and printing a reparsed output
    reproduces it byte for byte.
    """
    if isinstance(expr, Const):
        return _const_text(expr)
    if isinstance(expr, Var):
        return f"x{expr.index}"
    if isinstance(expr, Add):
        parts = [to_text(expr.terms[0])]
        for term in expr.terms[1:]:
            if isinstance(term, Neg):
                inner = term.operand
                text = to_text(inner)
                if isinstance(inner, Add):
                    text = f"({text})"
                parts.append(f" - {text}")
            else:
                parts.append(f" + {to_text(term)}")
        return "".join(parts)
    if isinstance(expr, Mul):
        rendered = []
        for pos, factor in enumerate(expr.factors):
            text = to_text(factor)
            if _needs_parens_in_mul(factor, first=pos == 0):
                text = f"({text})"
            rendered.append(text)
        return "*".join(rendered)
    if isinstance(expr, Div):
        num = to_text(expr.numerator)
        if isinstance(expr.numerator, Add):
            num = f"({num})"
        den = to_text(expr.denominator)
        if isinstance(expr.denominator, (Add, Mul, Div, Neg)):
            den = f"({den})"
        return f"{num}/{den}"
    if isinstance(expr, Pow):
        base = to_text(expr.base)
        if not isinstance(expr.base, (Const, Var, Call)):
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    if isinstance(expr, Neg):
        inner = to_text(expr.operand)
        if isinstance(expr.operand, (Add, Mul, Div)):
            # bare "-a*b" would re-attach the sign to the first factor only
            return f"-({inner})"
        return f"-{inner}"
    if isinstance(expr, Call):
        return f"{expr.func}({to_text(expr.arg)})"
    raise TypeError(f"not an expression node: {expr!r}")


# --- evaluation -------------------------------------------------------------

def _resolve_inputs(x) -> dict[int, np.ndarray | float]:
    """Normalize the accepted input shapes to an index -> value mapping.

    Accepts a mapping from 1-based index to scalar/array, a 1-D row
    (position i is x(i+1)), or a 2-D matrix whose columns are x1..xd.
    """
    if isinstance(x, Mapping):
        return {int(k): v for k, v in x.items()}
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        return {i + 1: float(arr[i]) for i in range(arr.shape[0])}
    if arr.ndim == 2:
        return {i + 1: arr[:, i] for i in range(arr.shape[1])}
    raise TypeError(f"inputs must be a mapping, row, or matrix, got ndim={arr.ndim}")


def _lookup(values: dict, index: int):
    try:
        return values[index]
    except KeyError:
        raise UnboundVariable(f"no value supplied for x{index}") from None


def _check_pole(denominator, context: str) -> None:
    if np.any(np.abs(denominator) < POLE_EPS):
        raise PoleError(f"{context} within {POLE_EPS} of zero")


def _check_domain(func: str, arg) -> None:
    """Raise at a pole of tan or at a log argument that is not positive."""
    if func == "tan":
        _check_pole(np.cos(arg), "cos of tan argument")
    elif func == "log" and np.any(np.asarray(arg) <= 0.0):
        raise DomainError("log of non-positive value")


def _eval(expr: Expr, values: dict):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return _lookup(values, expr.index)
    if isinstance(expr, Add):
        total = _eval(expr.terms[0], values)
        for term in expr.terms[1:]:
            total = total + _eval(term, values)
        return total
    if isinstance(expr, Mul):
        product = _eval(expr.factors[0], values)
        for factor in expr.factors[1:]:
            product = product * _eval(factor, values)
        return product
    if isinstance(expr, Div):
        num = _eval(expr.numerator, values)
        den = _eval(expr.denominator, values)
        _check_pole(den, "denominator")
        return num / den
    if isinstance(expr, Pow):
        base = _eval(expr.base, values)
        if expr.exponent < 0:
            _check_pole(base, "base of negative power")
        return np.power(base, expr.exponent)
    if isinstance(expr, Neg):
        return -_eval(expr.operand, values)
    if isinstance(expr, Call):
        arg = _eval(expr.arg, values)
        _check_domain(expr.func, arg)
        return _UNARY[expr.func][0](arg)
    raise TypeError(f"not an expression node: {expr!r}")


def eval_expression(expr: Expr, x):
    """Evaluate ``expr`` at ``x``.

    ``x`` may be a mapping from 1-based variable index to scalars or arrays,
    a single row, or an (n, d) matrix; the result is a float for scalar
    inputs and an ndarray otherwise.  See the module docstring for the pole
    and domain rules.
    """
    result = _eval(expr, _resolve_inputs(x))
    if np.ndim(result) == 0:
        return float(result)
    return np.asarray(result, dtype=float)


def _eval_dual(expr: Expr, values: dict, wrt: int):
    """Forward-mode evaluation returning (value, d value / d x_wrt)."""
    if isinstance(expr, Const):
        return expr.value, 0.0
    if isinstance(expr, Var):
        v = _lookup(values, expr.index)
        return v, (1.0 if expr.index == wrt else 0.0)
    if isinstance(expr, Add):
        v, d = _eval_dual(expr.terms[0], values, wrt)
        for term in expr.terms[1:]:
            tv, td = _eval_dual(term, values, wrt)
            v = v + tv
            d = d + td
        return v, d
    if isinstance(expr, Mul):
        v, d = _eval_dual(expr.factors[0], values, wrt)
        for factor in expr.factors[1:]:
            fv, fd = _eval_dual(factor, values, wrt)
            v, d = v * fv, d * fv + v * fd
        return v, d
    if isinstance(expr, Div):
        nv, nd = _eval_dual(expr.numerator, values, wrt)
        dv, dd = _eval_dual(expr.denominator, values, wrt)
        _check_pole(dv, "denominator")
        return nv / dv, (nd * dv - nv * dd) / (dv * dv)
    if isinstance(expr, Pow):
        bv, bd = _eval_dual(expr.base, values, wrt)
        k = expr.exponent
        if k == 0:
            return np.power(bv, 0), 0.0 * bd
        if k < 0:
            _check_pole(bv, "base of negative power")
        return np.power(bv, k), k * np.power(bv, k - 1) * bd
    if isinstance(expr, Neg):
        v, d = _eval_dual(expr.operand, values, wrt)
        return -v, -d
    if isinstance(expr, Call):
        av, ad = _eval_dual(expr.arg, values, wrt)
        _check_domain(expr.func, av)
        v = _UNARY[expr.func][0](av)
        return v, _UNARY[expr.func][1](av, v, ad)
    raise TypeError(f"not an expression node: {expr!r}")


def expr_partial(expr: Expr, var_index: int, x):
    """Exact partial derivative of ``expr`` with respect to ``x<var_index>``.

    Computed structurally (forward mode), not by finite differences.  Input
    conventions and errors match :func:`eval_expression`.
    """
    if not (1 <= var_index <= MAX_VARIABLES):
        raise ValueError(f"variable index must be 1..{MAX_VARIABLES}, got {var_index}")
    _, d = _eval_dual(expr, _resolve_inputs(x), wrt=var_index)
    if np.ndim(d) == 0:
        return float(d)
    return np.asarray(d, dtype=float)


def variables(expr: Expr) -> tuple[int, ...]:
    """Sorted 1-based indices of the variables appearing in ``expr``."""
    found: set[int] = set()

    def walk(node: Expr) -> None:
        if isinstance(node, Var):
            found.add(node.index)
        elif isinstance(node, Add):
            for t in node.terms:
                walk(t)
        elif isinstance(node, Mul):
            for f in node.factors:
                walk(f)
        elif isinstance(node, Div):
            walk(node.numerator)
            walk(node.denominator)
        elif isinstance(node, Pow):
            walk(node.base)
        elif isinstance(node, Neg):
            walk(node.operand)
        elif isinstance(node, Call):
            walk(node.arg)

    walk(expr)
    return tuple(sorted(found))


# --- light algebraic cleanup ------------------------------------------------

def _signed_value(expr: Expr) -> float | None:
    """The float value of a Const or Neg(Const), else None."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Neg) and isinstance(expr.operand, Const):
        return -expr.operand.value
    return None


def simplify(expr: Expr) -> Expr:
    """Fold constants and normalize signs and coefficients.

    Used to tidy machine-built trees (the distiller's output): folds
    all-constant subtrees, pulls numeric coefficients to the front of
    products, drops zero terms and unit factors, and distributes a numeric
    coefficient over a sum.  Parsed bank equations are never simplified, so
    their published form is preserved.
    """
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Neg):
        inner = simplify(expr.operand)
        v = _signed_value(inner)
        if v is not None:
            return const(-v)
        if isinstance(inner, Neg):
            return inner.operand
        return Neg(inner)
    if isinstance(expr, Add):
        terms: list[Expr] = []
        constant = 0.0
        for raw in expr.terms:
            t = simplify(raw)
            for piece in (t.terms if isinstance(t, Add) else (t,)):
                v = _signed_value(piece)
                if v is not None:
                    constant += v
                else:
                    terms.append(piece)
        if constant != 0.0 or not terms:
            terms.append(const(constant))
        return add(*terms)
    if isinstance(expr, Mul):
        coef = 1.0
        rest: list[Expr] = []
        for raw in expr.factors:
            f = simplify(raw)
            pieces = f.factors if isinstance(f, Mul) else (f,)
            for piece in pieces:
                v = _signed_value(piece)
                if v is not None:
                    coef *= v
                else:
                    rest.append(piece)
        if coef == 0.0:
            return Const(0.0)
        if not rest:
            return const(coef)
        # distribute a plain coefficient over a single sum for flat output
        if len(rest) == 1 and isinstance(rest[0], Add) and coef != 1.0:
            return simplify(add(*(mul(const(coef), t) for t in rest[0].terms)))
        if coef == 1.0:
            return mul(*rest)
        if coef == -1.0:
            return simplify(Neg(mul(*rest)))
        if coef < 0.0:
            return Neg(mul(Const(-coef), *rest))
        return mul(Const(coef), *rest)
    if isinstance(expr, Div):
        num = simplify(expr.numerator)
        den = simplify(expr.denominator)
        nv, dv = _signed_value(num), _signed_value(den)
        if nv is not None and nv == 0.0:
            return Const(0.0)
        if nv is not None and dv is not None and abs(dv) >= POLE_EPS:
            return const(nv / dv)
        return Div(num, den)
    if isinstance(expr, Pow):
        base = simplify(expr.base)
        bv = _signed_value(base)
        if bv is not None and (expr.exponent >= 0 or abs(bv) >= POLE_EPS):
            return const(float(np.power(bv, expr.exponent)))
        if expr.exponent == 1:
            return base
        if expr.exponent == 0:
            return Const(1.0)
        return Pow(base, expr.exponent)
    if isinstance(expr, Call):
        arg = simplify(expr.arg)
        av = _signed_value(arg)
        if av is not None:
            return const(float(_eval(Call(expr.func, const(av)), {})))
        return Call(expr.func, arg)
    raise TypeError(f"not an expression node: {expr!r}")
