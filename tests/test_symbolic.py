"""Expression trees: parse/print round trips, evaluation oracles, poles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rwtkit.errors import (
    BadVariableIndex,
    DomainError,
    ParseError,
    PoleError,
    UnboundVariable,
    UnknownFunction,
)
from rwtkit.symbolic import (
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Var,
    add,
    const,
    eval_expression,
    expr_partial,
    mul,
    parse_expression,
    simplify,
    to_text,
    variables,
)

# --- construction ------------------------------------------------------------


def test_const_rejects_negative_and_nonfinite():
    with pytest.raises(ValueError):
        Const(-1.0)
    with pytest.raises(ValueError):
        Const(float("nan"))
    with pytest.raises(ValueError):
        Const(float("inf"))


def test_const_builder_wraps_negatives():
    node = const(-2.5)
    assert isinstance(node, Neg)
    assert node.operand == Const(2.5)
    assert const(2.5) == Const(2.5)


def test_var_bounds():
    with pytest.raises(ValueError):
        Var(0)
    with pytest.raises(ValueError):
        Var(11)


def test_add_mul_builders_flatten():
    expr = add(Var(1), add(Var(2), Var(3)))
    assert isinstance(expr, Add) and len(expr.terms) == 3
    expr = mul(Var(1), mul(Var(2), Var(3)))
    assert isinstance(expr, Mul) and len(expr.factors) == 3


def test_const_text_does_not_affect_equality():
    assert Const(0.5, "0.5") == Const(0.5, "0.50")


# --- evaluation oracles ------------------------------------------------------

HAND_CASES = [
    ("0.85*x1 + 0.04", lambda x: 0.85 * x[0] + 0.04),
    ("x1*x2 - x3", lambda x: x[0] * x[1] - x[2]),
    ("2/(x1 + 1)", lambda x: 2.0 / (x[0] + 1.0)),
    ("x1^3 - x2^2", lambda x: x[0] ** 3 - x[1] ** 2),
    ("cos(3*x1) + tanh(x2)", lambda x: math.cos(3 * x[0]) + math.tanh(x[1])),
    ("exp(-2*x1)", lambda x: math.exp(-2 * x[0])),
    ("log(x1 + 0.5)", lambda x: math.log(x[0] + 0.5)),
    ("tan(0.9*x1)", lambda x: math.tan(0.9 * x[0])),
    ("-(x1 + x2)*x3", lambda x: -(x[0] + x[1]) * x[2]),
]


@pytest.mark.parametrize("text,fn", HAND_CASES, ids=[c[0] for c in HAND_CASES])
def test_eval_matches_hand_oracle(text, fn):
    expr = parse_expression(text)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(0.05, 0.95, size=10)
        assert eval_expression(expr, x) == pytest.approx(fn(x), abs=1e-12)


def test_eval_input_forms_agree():
    expr = parse_expression("0.5*x1 + x3^2")
    row = np.array([0.2, 0.9, 0.4, 0.1, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    matrix = np.tile(row, (5, 1))
    by_row = eval_expression(expr, row)
    by_matrix = eval_expression(expr, matrix)
    by_mapping = eval_expression(expr, {1: row[0], 3: row[2]})
    assert by_matrix.shape == (5,)
    assert np.all(by_matrix == by_row)
    assert by_mapping == by_row


def test_eval_mapping_arrays_broadcast():
    expr = parse_expression("x1 + 2*x2")
    u = np.linspace(0.0, 1.0, 7)
    out = eval_expression(expr, {1: u, 2: np.zeros(7)})
    assert np.allclose(out, u)


def test_unbound_variable():
    expr = parse_expression("x1 + x5")
    with pytest.raises(UnboundVariable):
        eval_expression(expr, {1: 0.5})


# --- poles and domains -------------------------------------------------------


def test_division_pole():
    expr = parse_expression("1/x1")
    with pytest.raises(PoleError):
        eval_expression(expr, {1: 0.0})
    with pytest.raises(PoleError):
        eval_expression(expr, {1: 5e-13})
    assert eval_expression(expr, {1: 1e-6}) == pytest.approx(1e6)


def test_pole_detected_anywhere_in_batch():
    expr = parse_expression("1/(x1 - 0.5)")
    u = np.array([0.1, 0.5, 0.9])
    with pytest.raises(PoleError):
        eval_expression(expr, {1: u})


def test_tan_pole_via_cosine():
    expr = parse_expression("tan(x1)")
    with pytest.raises(PoleError):
        eval_expression(expr, {1: math.pi / 2.0})


def test_log_domain():
    expr = parse_expression("log(x1)")
    with pytest.raises(DomainError):
        eval_expression(expr, {1: 0.0})
    with pytest.raises(DomainError):
        eval_expression(expr, {1: -1.0})


# --- parsing errors ----------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    ["", "x1 +", "(x1", "x1 ** 2", "sin(x1)", "x0", "x11", "1..2", "x1 x2", ")x1("],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_expression(bad)


def test_parse_error_subtypes():
    with pytest.raises(UnknownFunction):
        parse_expression("sinh(x1)")
    with pytest.raises(BadVariableIndex):
        parse_expression("x99 + 1")


# --- round trips -------------------------------------------------------------

BANKISH = [
    "0.85*x1 + 0.04",
    "0.85*x1 + 0.013/(-4.8*x2 - 0.19) + 0.05",
    "0.82*x1 - 0.15*x3 + 0.12",
    "1/(x1 + 2)^2",
    "exp(-3.1*(x1 - 0.2)^2)",
    "-0.5*cos(2.4*x2 + 1) + 0.3",
    "tanh(1.7*x4 - 0.3)",
    "log(2.2*x5 + 1.4)",
    "tan(0.43*x6 - 0.1)",
]


@pytest.mark.parametrize("text", BANKISH)
def test_print_parse_fixed_point(text):
    expr = parse_expression(text)
    printed = to_text(expr)
    # Printing is a fixed point: once printed, reparse + reprint is identity.
    assert to_text(parse_expression(printed)) == printed
    # And the reparse gives the same tree.
    assert parse_expression(printed) == expr


def test_constants_keep_published_digits():
    printed = to_text(parse_expression("0.850*x1 + 0.0400"))
    assert "0.850" in printed and "0.0400" in printed


# --- hypothesis: generated trees survive the round trip ----------------------


def safe_exprs(depth: int = 3) -> st.SearchStrategy:
    """Pole-free expressions over x1..x4 (no division, log, or tan)."""
    leaves = st.one_of(
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(const),
        st.integers(min_value=1, max_value=4).map(Var),
    )

    def extend(children: st.SearchStrategy) -> st.SearchStrategy:
        pair = st.tuples(children, children)
        return st.one_of(
            pair.map(lambda t: add(*t)),
            pair.map(lambda t: mul(*t)),
            children.map(lambda e: Neg(e)),
            children.map(lambda e: Pow(e, 2)),
            children.map(lambda e: Call("tanh", e)),
            children.map(lambda e: Call("cos", e)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@given(expr=safe_exprs())
def test_roundtrip_preserves_value(expr):
    printed = to_text(expr)
    reparsed = parse_expression(printed)
    assert to_text(reparsed) == printed
    x = np.array([0.3, 0.7, 0.1, 0.9])
    a = eval_expression(expr, {i: x[i - 1] for i in range(1, 5)})
    b = eval_expression(reparsed, {i: x[i - 1] for i in range(1, 5)})
    assert a == pytest.approx(b, rel=1e-15, abs=1e-15)


# --- variables, partials, simplify -------------------------------------------


def test_variables_sorted_distinct():
    expr = parse_expression("x7 + x2*x7 - cos(x4)")
    assert variables(expr) == (2, 4, 7)


def test_expr_partial_matches_finite_differences():
    expr = parse_expression("0.8*x1 - 0.2*x3^2 + 0.1*cos(4*x1)")
    rng = np.random.default_rng(5)
    x = rng.uniform(0.1, 0.9, size=(50, 10))
    h = 1e-6
    for var in (1, 3):
        xp = x.copy()
        xm = x.copy()
        xp[:, var - 1] += h
        xm[:, var - 1] -= h
        fd = (eval_expression(expr, xp) - eval_expression(expr, xm)) / (2 * h)
        assert np.abs(expr_partial(expr, var, x) - fd).max() < 1e-6


def test_expr_partial_of_absent_variable_is_zero():
    expr = parse_expression("0.5*x1 + 1")
    x = np.full((4, 10), 0.5)
    assert np.all(expr_partial(expr, 9, x) == 0.0)


@given(expr=safe_exprs())
def test_simplify_preserves_value_and_is_idempotent(expr):
    simple = simplify(expr)
    assert simplify(simple) == simple
    x = {i: v for i, v in enumerate([0.2, 0.8, 0.4, 0.6], start=1)}
    a = eval_expression(expr, x)
    b = eval_expression(simple, x)
    assert b == pytest.approx(a, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("expr, text", [
    (mul(const(-1.0), Var(2)), "-x2"),
    (Pow(Neg(mul(const(-1.0), Var(1))), 2), "x1^2"),
    (mul(const(-1.0), Neg(Var(3))), "x3"),
    (Neg(mul(const(-1.0), Var(1))), "x1"),
])
def test_simplify_drops_a_unit_factor_left_by_negation_in_one_pass(expr, text):
    # A coefficient of -1 once left Neg(Mul(1.0, x)), which only a second
    # pass folded.
    simple = simplify(expr)
    assert to_text(simple) == text
    assert simplify(simple) == simple


def test_simplify_folds_trivial_structure():
    assert to_text(simplify(parse_expression("x1 + 0"))) == "x1"
    assert to_text(simplify(parse_expression("1*x1"))) == "x1"
    # A fold synthesizes a fresh constant, so it prints as its repr.
    assert to_text(simplify(parse_expression("0*x1 + 2"))) == "2.0"


def test_div_and_pow_nodes_evaluate():
    expr = Div(const(1.0), Add((Var(1), const(2.0))))
    assert eval_expression(expr, {1: 2.0}) == pytest.approx(0.25)
    expr = Pow(Add((Var(1), const(1.0))), 3)
    assert eval_expression(expr, {1: 1.0}) == pytest.approx(8.0)
