"""Jet monomials, and polynomials in the jet coordinates u_x, ..., u_yyy.

A jet monomial is a tuple of exponents, one per jet in the canonical order
of ``JETS``.  ``jet_groups`` groups the monomials of a normal form by their
jet part (``split_monomial``): the determining rows are read off that
grouping, keyed by jet monomials in the order ``mono_order_key`` gives and
printed by ``mono_expr``.  A JetPolynomial maps jet monomials to coefficient
expressions in (x, y, u), free of jets: it is the collected, display form
of a polynomial-in-jets expression, and ``from_expr`` reads it off the same
grouping, each coefficient rebuilt from its polynomial by ``poly_expr``.
The prolongation itself is computed on expression trees (see
``vectorfield``).
"""

from __future__ import annotations

from typing import Iterator

from .expr import (
    App,
    Expr,
    ExprError,
    JETS,
    JET_ORDERS,
    ONE,
    ZERO,
    add,
    contains_jet,
    mul,
    pow_,
)
from .normal import normal_form, poly_expr

# exponents ordered like JETS: (u_x, u_y, u_xx, u_xy, u_yy, u_xxx, u_xxy, u_xyy, u_yyy)
_JET_LIST = list(JETS.values())
_JET_POS = {s: i for i, s in enumerate(_JET_LIST)}

JetMono = tuple


class JetPolynomialError(ExprError):
    pass


class ProlongationError(ExprError):
    pass


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


def jet_groups(e: Expr) -> tuple:
    """(groups, den): the normal form of ``e``, its numerator's monomials
    grouped by jet part as {jet monomial: polynomial of the rest}, and its
    denominator polynomial.  Rejects jets in the denominator or inside an
    exp or log argument."""
    nf = normal_form(e)
    for poly in (nf.num, nf.den):
        for m in poly:
            for a, _ in m:
                if isinstance(a, App) and contains_jet(a):
                    raise JetPolynomialError(
                        "derivative symbols inside an exp or log argument: %r" % a
                    )
    if any(a in _JET_POS for m in nf.den for a, _ in m):
        raise JetPolynomialError("derivative symbols in a denominator: %r" % e)
    groups: dict = {}
    for m, c in nf.num.items():
        jets, rest = split_monomial(m)
        groups.setdefault(jets, {})[rest] = c
    return groups, nf.den


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
        """``e`` collected by jet monomial: each coefficient is its group's
        polynomial over the normal form's denominator, when that is not 1."""
        groups, den = jet_groups(e)
        den = poly_expr(den)
        if den == ONE:
            return cls({m: poly_expr(g) for m, g in groups.items()})
        inverse = pow_(den, -1)
        return cls({m: mul(poly_expr(g), inverse) for m, g in groups.items()})

    def monomials(self) -> Iterator[JetMono]:
        return iter(sorted(self.coeffs, key=mono_order_key))

    def items(self):
        for m in self.monomials():
            yield m, self.coeffs[m]

    def to_expr(self) -> Expr:
        return add(*[mul(c, mono_expr(m)) for m, c in self.items()])
