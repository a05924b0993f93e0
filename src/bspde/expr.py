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


class _Undefined(Exception):
    """An operation with no finite value; ``evaluate`` adds the node's span."""


def _divide(left, right):
    if np.any(np.asarray(right) == 0):
        raise _Undefined("division by zero")
    return np.divide(left, right)


def _power(left, right):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.power(np.asarray(left, dtype=float), right)
    if not np.all(np.isfinite(out)):
        raise _Undefined("power produced a non-finite value")
    return out


# every operator and function: op -> (number of arguments, numpy call);
# ``neg`` is unary minus, and every other alphabetic op is a function name
_OPERATORS = {
    "neg": (1, np.negative), "sin": (1, np.sin), "cos": (1, np.cos),
    "exp": (1, np.exp), "abs": (1, np.abs), "relu": (1, lambda v: np.maximum(v, 0.0)),
    "+": (2, np.add), "-": (2, np.subtract), "*": (2, np.multiply),
    "/": (2, _divide), "^": (2, _power), "min": (2, np.minimum), "max": (2, np.maximum),
}
_FUNCTIONS = {op: arity for op, (arity, _) in _OPERATORS.items()
              if op.isalpha() and op != "neg"}
UNARY_FUNCTIONS = tuple(op for op, arity in _FUNCTIONS.items() if arity == 1)
BINARY_FUNCTIONS = tuple(op for op, arity in _FUNCTIONS.items() if arity == 2)

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
    tokens.append(Token("end", "", len(text), line, len(text) - line_start + 1))
    return tokens


@dataclass(frozen=True, slots=True)
class Node:
    """One AST node; ``span`` = (start, end) character offsets into the source.

    ``op`` is ``num`` (``args`` = (value,)), ``var`` (``args`` = (name,)), or
    a key of ``_OPERATORS`` with its argument nodes as ``args``.
    """

    op: str
    args: tuple
    span: tuple


class _Parser:
    def __init__(self, text: str, variables):
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = None if variables is None else frozenset(variables)

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        self.i += 1
        return self.tokens[self.i - 1]

    def at(self, ops: str) -> bool:
        """Whether the next token is one of the one-character ``ops``."""
        tok = self.peek()
        return tok.kind == "op" and tok.text in ops

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.advance()
        tok = self.peek()
        shown = "end of input" if tok.kind == "end" else repr(tok.text)
        raise ParseError(f"expected {text!r}, found {shown}", tok.line, tok.col)

    def node(self, op: str, args: tuple, start: int) -> Node:
        """A node whose span runs from ``start`` to the end of the last token
        read, so that it takes in the parentheses around an operand."""
        last = self.tokens[self.i - 1]
        return Node(op, args, (start, last.pos + len(last.text)))

    def chain(self, ops: str, first, rest):
        """``first (op rest)*`` with ``op`` in ``ops``, folded to the left."""
        start, node = self.peek().pos, first()
        while self.at(ops):
            op = self.advance().text
            node = self.node(op, (node, rest()), start)
        return node

    def negated(self, inner):
        """``'-'* inner``: each leading minus negates what follows it."""
        if not self.at("-"):
            return inner()
        start = self.advance().pos
        return self.node("neg", (self.negated(inner),), start)

    # expr := term (('+'|'-') term)*
    def expr(self):
        return self.chain("+-", self.term, self.term)

    # term := unary (('*'|'/') unary)*;  unary := '-'* power
    def term(self):
        return self.chain("*/", self.unary, self.unary)

    def unary(self):
        return self.negated(self.power)

    # power := atom ('^' '-'* atom)*: a leading minus in the exponent is the one
    # place unary minus appears inside the ^ level, so 2^-3 reads as 2^(-3)
    def power(self):
        return self.chain("^", self.atom, lambda: self.negated(self.atom))

    def atom(self):
        tok = self.peek()
        if tok.kind == "number":
            return self.node("num", (float(self.advance().text),), tok.pos)
        if tok.kind == "ident":
            name = self.advance().text
            if name in _FUNCTIONS:
                self.expect("(")
                args = [self.expr()]
                while len(args) < _FUNCTIONS[name]:
                    self.expect(",")
                    args.append(self.expr())
                self.expect(")")
                return self.node(name, tuple(args), tok.pos)
            if self.variables is not None and name not in self.variables:
                raise ParseError(f"unknown identifier {name!r}", tok.line, tok.col)
            return self.node("var", (name,), tok.pos)
        if self.at("("):
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError("unexpected end of input" if tok.kind == "end"
                         else f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_expression(text: str, variables=None) -> Node:
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
        raise ParseError(f"unexpected token {tail.text!r} after expression",
                         tail.line, tail.col)
    return node


def variables_in(node: Node) -> set:
    """Set of variable names referenced anywhere in the AST."""
    if node.op == "var":
        return {node.args[0]}
    return set().union(*(variables_in(arg) for arg in node.args if isinstance(arg, Node)))


def evaluate(node: Node, env: dict):
    """Evaluate the AST under ``env`` (name -> scalar or ndarray).

    Inputs broadcast as numpy arrays.  Division by zero and invalid powers
    (0 to a negative power, negative base to a fractional power) raise
    :class:`EvalError` carrying the span of the offending subexpression.
    """
    op, args = node.op, node.args
    if op == "num":
        return args[0]
    if op == "var":
        try:
            return env[args[0]]
        except KeyError:
            raise EvalError(f"unbound variable {args[0]!r}", node.span) from None
    arity, call = _OPERATORS[op]
    try:
        if arity == 1:
            return call(evaluate(args[0], env))
        return call(evaluate(args[0], env), evaluate(args[1], env))
    except _Undefined as exc:
        raise EvalError(str(exc), node.span) from None
