"""Jet monomials, and polynomials in the jet coordinates u_x, ..., u_yyy.

A jet monomial is a tuple of exponents, one per jet in the canonical order
of ``JETS``.  The determining rows are keyed by jet monomials, in the order
``mono_order_key`` gives, and printed by ``mono_expr``; ``split_monomial``
reads the jet monomial off a normal-form monomial.  A JetPolynomial maps
jet monomials to coefficient expressions in (x, y, u), free of jets: it is
the collected, display form of a polynomial-in-jets expression, built by
``from_expr``, which sums each monomial's contributions with one n-ary
``add``.  The prolongation itself is computed on expression trees (see
``vectorfield``).
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

# exponents ordered like JETS: (u_x, u_y, u_xx, u_xy, u_yy, u_xxx, u_xxy, u_xyy, u_yyy)
_JET_LIST = list(JETS.values())
_JET_POS = {s: i for i, s in enumerate(_JET_LIST)}

JetMono = tuple


class JetPolynomialError(ExprError):
    pass


class ProlongationError(ExprError):
    pass


def _mono_mul(m1: JetMono, m2: JetMono) -> JetMono:
    return tuple(a + b for a, b in zip(m1, m2))


def _bump(m: JetMono, i: int, n: int = 1) -> JetMono:
    return m[:i] + (m[i] + n,) + m[i + 1 :]


_MONO_ONE: JetMono = (0,) * len(_JET_LIST)


def mono_expr(mono: JetMono) -> Expr:
    return mul(*[pow_(s, n) for s, n in zip(_JET_LIST, mono) if n])


def split_monomial(m) -> tuple:
    """(jet monomial, rest): the jet part of the normal-form monomial ``m``
    as a monomial key, and its other (atom, exponent) pairs."""
    jets, rest = list(_MONO_ONE), []
    for a, n in m:
        i = _JET_POS.get(a)
        if i is None:
            rest.append((a, n))
        else:
            jets[i] = n
    return tuple(jets), tuple(rest)


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

    def items(self):
        for m in self.monomials():
            yield m, self.coeffs[m]

    def to_expr(self) -> Expr:
        return add(*[mul(c, mono_expr(m)) for m, c in self.items()])


def _sum_terms(pairs) -> dict:
    """{jet-mono: coeff} from (mono, coeff) pairs, each monomial's
    coefficients summed by one n-ary ``add``; zero sums are dropped.  A
    single coefficient is kept as it is: it is already canonical."""
    parts: dict = {}
    for m, c in pairs:
        parts.setdefault(m, []).append(c)
    out = {}
    for m, cs in parts.items():
        s = cs[0] if len(cs) == 1 else add(*cs)
        if s != ZERO:
            out[m] = s
    return out


def _product(p: dict, q: dict) -> dict:
    return _sum_terms((_mono_mul(m1, m2), mul(c1, c2))
                      for m1, c1 in p.items() for m2, c2 in q.items())


def _power(p: dict, n: int) -> dict:
    out = {_MONO_ONE: ONE}
    for _ in range(n):
        out = _product(out, p)
    return out


def _collect(e: Expr) -> dict:
    """Expand ``e`` into {jet-mono: coeff}; rejects jets in denominators
    or inside an exp or log argument."""
    if isinstance(e, (Rat, Func)) or (isinstance(e, Sym) and e.kind != "jet"):
        return {_MONO_ONE: e} if e != ZERO else {}
    if isinstance(e, Sym):
        return {_bump(_MONO_ONE, _JET_POS[e]): ONE}
    if isinstance(e, App):
        if contains_jet(e):
            raise JetPolynomialError(
                "derivative symbols inside an exp or log argument: %r" % e
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
        return _power(_collect(e.base), e.exp)
    raise JetPolynomialError("cannot collect %r" % e)
