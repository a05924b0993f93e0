"""Tiny arithmetic expression language for scenario files.

Grammar: numbers, variables, unary ``-``/``sin``/``cos``/``exp``/``abs``/
``relu``, binary ``+ - * / ^`` plus two-argument ``min``/``max``.  Precedence
is ``^`` tightest, then unary minus, then ``* /``, then ``+ -``; every binary
level associates to the left (so ``2^3^2`` is ``(2^3)^2``).  Evaluation is
vectorised over numpy arrays and total on finite inputs except division by
zero and invalid powers, which raise :class:`EvalError` with the source span.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalError, ParseError

UNARY_FUNCTIONS = ("sin", "cos", "exp", "abs", "relu")
BINARY_FUNCTIONS = ("min", "max")

_TOKEN_RE = re.compile(
    r"""(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*/^(),])
      | (?P<ws>\s+)
      | (?P<bad>.)""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # number | ident | op | end
    text: str
    pos: int
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        pos = m.start()
        col = pos - line_start + 1
        if m.lastgroup == "ws":
            for i, ch in enumerate(m.group()):
                if ch == "\n":
                    line += 1
                    line_start = pos + i + 1
            continue
        if m.lastgroup == "bad":
            ch = m.group()
            if ch == "−":  # typographic minus
                tokens.append(Token("op", "-", pos, line, col))
                continue
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append(Token(m.lastgroup, m.group(), pos, line, col))
    end_col = len(text) - line_start + 1
    tokens.append(Token("end", "", len(text), line, end_col))
    return tokens


# ---------------------------------------------------------------------------
# AST nodes; span = (start, end) character offsets into the source

@dataclass(frozen=True)
class Num:
    value: float
    span: tuple

    def children(self):
        return ()


@dataclass(frozen=True)
class Var:
    name: str
    span: tuple

    def children(self):
        return ()


@dataclass(frozen=True)
class Unary:
    op: str  # neg | sin | cos | exp | abs | relu
    operand: object
    span: tuple

    def children(self):
        return (self.operand,)


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^ min max
    left: object
    right: object
    span: tuple

    def children(self):
        return (self.left, self.right)


class _Parser:
    def __init__(self, text: str, variables):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = None if variables is None else frozenset(variables)

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        shown = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected {text!r}, found {shown}", tok.line, tok.col)

    def fail(self, msg: str, tok: Token):
        raise ParseError(msg, tok.line, tok.col)

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Binary(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            node = Binary(op, node, rhs, (node.span[0], rhs.span[1]))
        return node

    def unary(self):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand = self.unary()
            return Unary("neg", operand, (tok.pos, operand.span[1]))
        return self.power()

    def power(self):
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            rhs = self.exponent()
            node = Binary("^", node, rhs, (node.span[0], rhs.span[1]))
        return node

    def exponent(self):
        # a leading minus in the exponent is the one place unary minus
        # appears inside the ^ level: 2^-3 reads as 2^(-3)
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand = self.exponent()
            return Unary("neg", operand, (tok.pos, operand.span[1]))
        return self.atom()

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text), (tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "ident":
            self.advance()
            name = tok.text
            if name in UNARY_FUNCTIONS or name in BINARY_FUNCTIONS:
                self.expect("(")
                first = self.expr()
                if name in BINARY_FUNCTIONS:
                    self.expect(",")
                    second = self.expr()
                    close = self.expect(")")
                    return Binary(name, first, second, (tok.pos, close.pos + 1))
                close = self.expect(")")
                return Unary(name, first, (tok.pos, close.pos + 1))
            if self.variables is not None and name not in self.variables:
                self.fail(f"unknown identifier {name!r}", tok)
            return Var(name, (tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "end":
            self.fail("unexpected end of input", tok)
        self.fail(f"unexpected token {tok.text!r}", tok)


def parse_expression(text: str, variables=None):
    """Parse ``text`` into an AST.

    ``variables`` (optional) is the set of legal identifiers; identifiers
    outside it raise :class:`ParseError` at their position.  Function names
    are always reserved.
    """
    if not text or not text.strip():
        raise ParseError("empty expression", 1, 1)
    parser = _Parser(text, variables)
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        parser.fail(f"unexpected token {tail.text!r} after expression", tail)
    return node


def variables_in(node) -> set:
    """Set of variable names referenced anywhere in the AST."""
    if isinstance(node, Var):
        return {node.name}
    out = set()
    for child in node.children():
        out |= variables_in(child)
    return out


def _check_finite(values, node, what: str):
    if not np.all(np.isfinite(values)):
        raise EvalError(f"{what} produced a non-finite value", node.span)
    return values


def evaluate(node, env: dict):
    """Evaluate the AST under ``env`` (name -> scalar or ndarray).

    Inputs broadcast as numpy arrays.  Division by zero and invalid powers
    (0 to a negative power, negative base to a fractional power) raise
    :class:`EvalError` carrying the span of the offending subexpression.
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}", node.span) from None
    if isinstance(node, Unary):
        val = evaluate(node.operand, env)
        if node.op == "neg":
            return np.negative(val)
        if node.op == "sin":
            return np.sin(val)
        if node.op == "cos":
            return np.cos(val)
        if node.op == "exp":
            return np.exp(val)
        if node.op == "abs":
            return np.abs(val)
        if node.op == "relu":
            return np.maximum(val, 0.0)
        raise EvalError(f"unknown unary operator {node.op!r}", node.span)
    if isinstance(node, Binary):
        left = evaluate(node.left, env)
        right = evaluate(node.right, env)
        if node.op == "+":
            return np.add(left, right)
        if node.op == "-":
            return np.subtract(left, right)
        if node.op == "*":
            return np.multiply(left, right)
        if node.op == "/":
            if np.any(np.asarray(right) == 0):
                raise EvalError("division by zero", node.span)
            return np.divide(left, right)
        if node.op == "^":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = np.power(np.asarray(left, dtype=float), right)
            return _check_finite(out, node, "power")
        if node.op == "min":
            return np.minimum(left, right)
        if node.op == "max":
            return np.maximum(left, right)
        raise EvalError(f"unknown binary operator {node.op!r}", node.span)
    raise TypeError(f"not an expression node: {node!r}")


def compile_expression(text: str, variables=None):
    """Parse once and return ``(ast, fn)`` where ``fn(env)`` evaluates it."""
    ast = parse_expression(text, variables)
    return ast, lambda env: evaluate(ast, env)
