"""Recursive-descent parser for the text expression syntax.

Grammar (usual precedence, ^ binds tightest and associates right):

    expr    := term (("+" | "-") term)*
    term    := unary (("*" | "/") unary)*
    unary   := "-" unary | power
    power   := atom ("^" exponent)?
    atom    := NUMBER | NAME | NAME "(" expr ("," expr)* ")" | "(" expr ")"

Decimal literals are read exactly (0.25 becomes 1/4).  NAMEs must be
registered: the variables x, y, u, the jet symbols u_x ... u_yyy, the
equation constants alpha/beta/gamma, any extra constants passed in, or one
of exp/log/tan/arctan in call position.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .expr import (
    ALPHA,
    APP_FUNCTIONS,
    BETA,
    Expr,
    GAMMA,
    JET_BY_NAME,
    Rat,
    Sym,
    U,
    X,
    Y,
    add,
    app,
    mul,
    param,
    pow_,
)

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),]))"
)


class ParseError(DomainError, ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0], pos)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _exact_number(text: str) -> Fraction:
    if "." in text:
        whole, frac = text.split(".")
        den = 10 ** len(frac)
        return Fraction(int(whole) * den + int(frac), den)
    return Fraction(int(text))


class _Parser:
    def __init__(self, tokens, symbols):
        self.tokens = tokens
        self.i = 0
        self.symbols = symbols

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect_op(self, op):
        kind, val, pos = self.take()
        if kind != "op" or val != op:
            raise ParseError("expected %r" % op, pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r" % val, pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.unary()
                e = e * rhs if val == "*" else e / rhs
            else:
                return e

    def unary(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.take()
            return pow_(base, self.exponent())
        return base

    def exponent(self) -> int:
        kind, val, pos = self.peek()
        sign = 1
        if kind == "op" and val == "(":
            self.take()
            n = self.exponent()
            self.expect_op(")")
            return n
        if kind == "op" and val == "-":
            self.take()
            sign = -1
            kind, val, pos = self.peek()
        if kind != "num" or "." in val:
            raise ParseError("integer exponent required", pos)
        self.take()
        return sign * int(val)

    def atom(self) -> Expr:
        kind, val, pos = self.take()
        if kind == "num":
            return Rat(_exact_number(val))
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "name":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in APP_FUNCTIONS:
                    raise ParseError("unknown function %r" % val, pos)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return app(val, arg)
            if val in self.symbols:
                return self.symbols[val]
            raise ParseError("unknown symbol %r" % val, pos)
        raise ParseError("unexpected %r" % (val or "end of input"), pos)


_BASE_SYMBOLS = {"x": X, "y": Y, "u": U, "alpha": ALPHA, "beta": BETA, "gamma": GAMMA}
_BASE_SYMBOLS.update(JET_BY_NAME)


def parse(text: str, constants: Iterable[str] = ()) -> Expr:
    """Parse ``text`` into an expression tree.

    ``constants`` declares extra parameter names usable in the input.
    Raises ParseError with a position on malformed input.
    """
    symbols = dict(_BASE_SYMBOLS)
    for name in constants:
        if name not in symbols:
            symbols[name] = param(name)
    return _Parser(_tokenize(text), symbols).parse()
