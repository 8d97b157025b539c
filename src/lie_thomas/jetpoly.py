"""Polynomial-in-jet-coordinates view of an expression.

Splitting an expression into monomials in the derivative symbols
u_x, ..., u_yyy, with coefficients free of those symbols, is what turns a
prolonged-field application into a system of determining equations: each
jet monomial must vanish separately because the coefficient functions
depend only on (x, y, u).
"""

from __future__ import annotations

from typing import Iterator

from .expr import (
    Add,
    App,
    Expr,
    ExprError,
    Func,
    JETS,
    JET_ORDERS,
    Mul,
    ONE,
    Pow,
    Rat,
    Sym,
    ZERO,
    add,
    contains_jet,
    mul,
    pow_,
)
from .normal import is_zero

# exponents ordered like JETS: (u_x, u_y, u_xx, u_xy, u_yy, u_xxx, u_xxy, u_xyy, u_yyy)
_JET_LIST = list(JETS.values())
_JET_POS = {s: i for i, s in enumerate(_JET_LIST)}

JetMono = tuple


class JetPolynomialError(ExprError):
    pass


def _mono_mul(m1: JetMono, m2: JetMono) -> JetMono:
    return tuple(a + b for a, b in zip(m1, m2))


_MONO_ONE: JetMono = (0,) * len(_JET_LIST)


def mono_expr(mono: JetMono) -> Expr:
    return mul(*[pow_(s, n) for s, n in zip(_JET_LIST, mono) if n])


def mono_order_key(mono: JetMono):
    """Sort key giving the display order of determining-equation rows.

    Lower jet order first, then lower total degree; within a group, evenly
    spread exponent shapes precede concentrated ones, monomials whose
    highest-order jet comes earlier in the canonical jet list precede
    later ones, and remaining ties fall to descending-lex on exponents.
    """
    nz = [(i, n) for i, n in enumerate(mono) if n]
    order = max((JET_ORDERS[_JET_LIST[i]] for i, _ in nz), default=0)
    degree = sum(n for _, n in nz)
    shape = tuple(sorted((n for _, n in nz), reverse=True))
    top = tuple(i for i, _ in nz if JET_ORDERS[_JET_LIST[i]] == order)
    return (order, degree, shape, top, tuple(-n for n in mono))


class JetPolynomial:
    """Mapping jet monomial -> coefficient expression (jet-free)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict):
        self.coeffs = {m: c for m, c in coeffs.items() if c != ZERO}

    @classmethod
    def from_expr(cls, e: Expr) -> "JetPolynomial":
        return cls(_collect(e))

    def monomials(self) -> Iterator[JetMono]:
        return iter(sorted(self.coeffs, key=mono_order_key))

    def coefficient(self, mono: JetMono) -> Expr:
        return self.coeffs.get(tuple(mono), ZERO)

    def items(self):
        for m in self.monomials():
            yield m, self.coeffs[m]

    def to_expr(self) -> Expr:
        return add(*[mul(c, mono_expr(m)) for m, c in self.items()])

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.coeffs.values())

    def __len__(self):
        return len(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, JetPolynomial):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(is_zero(self.coefficient(k) - other.coefficient(k)) for k in keys)

    def __hash__(self):
        raise TypeError("JetPolynomial is unhashable")


def _sum_terms(pairs) -> dict:
    """{jet-mono: coeff} from (mono, coeff) pairs, each monomial's
    coefficients summed by one n-ary ``add``; zero sums are dropped."""
    parts: dict = {}
    for m, c in pairs:
        parts.setdefault(m, []).append(c)
    out = {}
    for m, cs in parts.items():
        s = add(*cs)
        if s != ZERO:
            out[m] = s
    return out


def _product(p: dict, q: dict) -> dict:
    return _sum_terms(
        (_mono_mul(m1, m2), mul(c1, c2)) for m1, c1 in p.items() for m2, c2 in q.items()
    )


def _collect(e: Expr) -> dict:
    """Expand ``e`` into {jet-mono: coeff}; rejects jets in denominators,
    inside function applications, or under unknown functions."""
    if isinstance(e, Rat) or (isinstance(e, Sym) and e.kind != "jet"):
        return {_MONO_ONE: e} if e != ZERO else {}
    if isinstance(e, Sym):
        mono = list(_MONO_ONE)
        mono[_JET_POS[e]] = 1
        return {tuple(mono): ONE}
    if isinstance(e, (Func, App)):
        if contains_jet(e):
            raise JetPolynomialError(
                "derivative symbols inside a function argument: %r" % e
            )
        return {_MONO_ONE: e}
    if isinstance(e, Add):
        return _sum_terms((m, c) for t in e.terms for m, c in _collect(t).items())
    if isinstance(e, Mul):
        out = {_MONO_ONE: ONE}
        for f in e.factors:
            out = _product(out, _collect(f))
        return out
    if isinstance(e, Pow):
        if not contains_jet(e.base):
            return {_MONO_ONE: e}
        if e.exp < 0:
            raise JetPolynomialError("derivative symbols in a denominator: %r" % e)
        out = {_MONO_ONE: ONE}
        base = _collect(e.base)
        for _ in range(e.exp):
            out = _product(out, base)
        return out
    raise JetPolynomialError("cannot collect %r" % e)
