"""Expression grammar: precedence, associativity, spans, and error reporting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bspde import EvalError, ParseError
from bspde.expr import (_OPERATORS, BINARY_FUNCTIONS, UNARY_FUNCTIONS, Node, evaluate,
                        parse_expression, variables_in)


def ev(text, **env):
    node = parse_expression(text, variables=set(env) or None)
    return evaluate(node, env)


class TestPrecedence:
    def test_mul_over_add(self):
        assert ev("2 + 3 * 4") == 14.0

    def test_pow_over_mul(self):
        assert ev("2 * 3 ^ 2") == 18.0

    def test_unary_minus_binds_looser_than_pow(self):
        assert ev("-2^2") == -4.0

    def test_pow_left_associative(self):
        # every level is left-associative here, including ^
        assert ev("2 ^ 3 ^ 2") == 64.0

    def test_negative_exponent_literal(self):
        assert ev("2 ^ -3") == 0.125

    def test_div_left_associative(self):
        assert ev("6 / 3 / 2") == 1.0

    def test_sub_left_associative(self):
        assert ev("8 - 3 - 2") == 3.0

    def test_parens_override(self):
        assert ev("2 * (3 + 4)") == 14.0
        assert ev("(2 ^ 3) ^ 2") == 64.0

    def test_unicode_minus(self):
        assert ev("5 − 2") == 3.0
        assert ev("−4") == -4.0


class TestFunctions:
    def test_unary_functions(self):
        assert ev("sin(0)") == 0.0
        assert math.isclose(ev("cos(0)"), 1.0)
        assert math.isclose(ev("exp(1)"), math.e)
        assert ev("abs(-3)") == 3.0
        assert ev("relu(-2)") == 0.0
        assert ev("relu(2)") == 2.0

    def test_binary_min_max(self):
        assert ev("min(2, 5)") == 2.0
        assert ev("max(2, 5)") == 5.0

    def test_nested_calls(self):
        assert math.isclose(ev("max(sin(1), cos(1))"), math.sin(1.0))
        assert math.isclose(ev("min(1 + 2, 2 * 3)"), 3.0)

    def test_function_names_reserved(self):
        # function tokens never act as variables, even if declared
        with pytest.raises(ParseError):
            parse_expression("sin + 1", variables={"sin"})


class TestVariables:
    def test_variable_evaluation(self):
        assert ev("x1 * 2 + t", x1=3.0, t=0.5) == 6.5

    def test_variables_in(self):
        node = parse_expression("x1 + sin(w1 * t)", variables={"x1", "w1", "t"})
        assert variables_in(node) == {"x1", "w1", "t"}

    def test_variables_in_constant(self):
        assert variables_in(parse_expression("1 + 2")) == set()


class TestParseErrors:
    def test_empty(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("")
        assert exc.value.line == 1 and exc.value.column == 1
        assert "empty expression" in str(exc.value)

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_expression("2 +")

    def test_function_requires_parens(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("sin 3")
        assert "expected '('" in str(exc.value)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("y9 + 1", variables={"x1"})
        assert "unknown identifier 'y9'" in str(exc.value)

    def test_trailing_tokens(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("1 2")
        assert "after expression" in str(exc.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expression("(1 + 2")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("1 + @")
        assert exc.value.line == 1
        assert exc.value.column == 5


class TestEvalErrors:
    def test_unbound_variable(self):
        node = parse_expression("x1 + 1", variables={"x1"})
        with pytest.raises(EvalError):
            evaluate(node, {})

    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            ev("1 / 0")

    def test_nonfinite_power(self):
        with pytest.raises(EvalError):
            ev("0 ^ -1")
        with pytest.raises(EvalError):
            ev("(-2) ^ 0.5")

    def test_eval_error_has_span(self):
        node = parse_expression("1 + 1 / 0")
        with pytest.raises(EvalError) as exc:
            evaluate(node, {})
        # span points at the offending subexpression, not the whole input
        assert exc.value.span == (4, 9)
        assert "columns" in str(exc.value)


@given(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-9, max_value=9),
)
def test_add_mul_precedence_property(a, b, c):
    assert ev(f"{a} + {b} * {c}") == a + b * c
    assert ev(f"({a} + {b}) * {c}") == (a + b) * c


@given(
    st.integers(min_value=-20, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
)
def test_left_assoc_property(a, b, c):
    assert ev(f"{a} - {b} - {c}") == a - b - c
    assert math.isclose(ev(f"{a} / {b} / {c}"), a / b / c)


# -- round trip: random trees over every op, rendered, parsed and evaluated ---

# the numpy call of every op, written out here apart from the package's table
NUMPY = {
    "neg": np.negative, "sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs,
    "relu": lambda v: np.maximum(v, 0.0),
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide,
    "^": lambda a, b: np.power(np.asarray(a, dtype=float), b),
    "min": np.minimum, "max": np.maximum,
}
INFIX = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}  # binding levels: neg 3, atoms 5
EXPONENT = "exponent"  # the place right of ^, which takes minus signs before an atom
ENV = {"x1": np.array([-1.5, 0.0, 0.5, 2.0]), "w1": 0.75}

LEAVES = st.one_of(st.floats(0.0, 9.0).map(lambda v: Node("num", (v,), None)),
                   st.sampled_from(sorted(ENV)).map(lambda n: Node("var", (n,), None)))
TREES = st.recursive(LEAVES, lambda args: st.sampled_from(sorted(_OPERATORS)).flatmap(
    lambda op: st.tuples(*[args] * _OPERATORS[op][0]).map(lambda a: Node(op, a, None))),
    max_leaves=20)


def render(node, minus, place=1):
    """``node`` as text with the fewest parentheses: it is wrapped only when
    ``place``, the least binding level its position takes, is above its own."""
    op, args = node.op, node.args
    own = INFIX.get(op, 3 if op == "neg" else 5)
    if op == "num":
        text = repr(args[0])
    elif op == "var":
        text = args[0]
    elif op == "neg":
        text = minus + render(args[0], minus, EXPONENT if place == EXPONENT else 3)
    elif op in INFIX:
        right = EXPONENT if op == "^" else own + 1
        text = (f"{render(args[0], minus, own)} {minus if op == '-' else op} "
                f"{render(args[1], minus, right)}")
    else:
        text = f"{op}({', '.join(render(a, minus) for a in args)})"
    fits = own == 5 or op == "neg" if place == EXPONENT else own >= place
    return text if fits else f"({text})"


def structure(node):
    """``node`` without its spans."""
    return (node.op, tuple(structure(a) if isinstance(a, Node) else a for a in node.args))


def subtrees(node):
    yield node
    for arg in node.args:
        if isinstance(arg, Node):
            yield from subtrees(arg)


class Undefined(Exception):
    """Division by zero or a non-finite power, at the node ``args[0]``."""


def reference(node):
    """The value of ``node`` by direct numpy calls."""
    if node.op == "num":
        return node.args[0]
    if node.op == "var":
        return ENV[node.args[0]]
    values = [reference(a) for a in node.args]
    if node.op == "/" and np.any(np.asarray(values[1]) == 0):
        raise Undefined(node)
    out = NUMPY[node.op](*values)
    if node.op == "^" and not np.all(np.isfinite(out)):
        raise Undefined(node)
    return out


def test_every_op_has_a_reference_and_the_function_names_come_from_the_table():
    assert set(NUMPY) == set(_OPERATORS)
    assert UNARY_FUNCTIONS == ("sin", "cos", "exp", "abs", "relu")
    assert BINARY_FUNCTIONS == ("min", "max")


@settings(max_examples=400)
@given(TREES, st.sampled_from(["-", "−"]))
def test_round_trip(tree, minus):
    text = render(tree, minus)
    node = parse_expression(text, set(ENV))
    assert structure(node) == structure(tree)
    for sub in subtrees(node):
        # a node's span is its own text, parentheses around operands included
        piece = text[sub.span[0]:sub.span[1]]
        assert structure(parse_expression(piece, set(ENV))) == structure(sub)
    with np.errstate(all="ignore"):
        try:
            want = reference(node)
        except Undefined as exc:
            with pytest.raises(EvalError) as caught:
                evaluate(node, ENV)
            assert caught.value.span == exc.args[0].span
            return
        got = evaluate(node, ENV)
    got, want = np.asarray(got), np.asarray(want)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()
