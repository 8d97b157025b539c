"""Polynomials in the jet coordinates u_x, ..., u_yyy.

A JetPolynomial maps jet monomials to coefficient expressions in (x, y, u),
free of jets.  The second prolongation is computed on this form directly:
the total derivatives act monomial by monomial through the chain rule, and
sums and products collect each monomial's contributions with one n-ary
``add``.  The split by monomial is also what turns a prolonged-field
application into a system of determining equations: each jet monomial must
vanish separately because the coefficient functions depend only on
(x, y, u).  ``from_expr`` collects a polynomial-in-jets expression.
"""

from __future__ import annotations

from fractions import Fraction
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
    U,
    X,
    Y,
    ZERO,
    add,
    contains_jet,
    differentiate,
    mul,
    pow_,
    scale,
)
from .normal import is_zero

# exponents ordered like JETS: (u_x, u_y, u_xx, u_xy, u_yy, u_xxx, u_xxy, u_xyy, u_yyy)
_JET_LIST = list(JETS.values())
_JET_POS = {s: i for i, s in enumerate(_JET_LIST)}
# per axis: the variable, the position of u_x or u_y, and for each position
# the position of the jet one derivative higher (None past third order)
_AXES = tuple(
    (var, _JET_POS[JETS[step]],
     tuple(_JET_POS.get(JETS.get((i + step[0], j + step[1]))) for i, j in JETS))
    for var, step in ((X, (1, 0)), (Y, (0, 1)))
)

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


def monomial(*jets: Sym) -> JetMono:
    """The monomial key of the product of ``jets``."""
    m = _MONO_ONE
    for s in jets:
        m = _bump(m, _JET_POS[s])
    return m


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

    @classmethod
    def constant(cls, c: Expr) -> "JetPolynomial":
        return cls({_MONO_ONE: c})

    @classmethod
    def from_terms(cls, pairs) -> "JetPolynomial":
        """The sum of (monomial, coefficient) pairs, each monomial's
        coefficients added by one n-ary ``add``."""
        return cls(_sum_terms(pairs))

    def monomials(self) -> Iterator[JetMono]:
        return iter(sorted(self.coeffs, key=mono_order_key))

    def items(self):
        for m in self.monomials():
            yield m, self.coeffs[m]

    def to_expr(self) -> Expr:
        return add(*[mul(c, mono_expr(m)) for m, c in self.items()])

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.coeffs.values())

    def __add__(self, other: "JetPolynomial") -> "JetPolynomial":
        return JetPolynomial.from_terms((*self.coeffs.items(), *other.coeffs.items()))

    def __sub__(self, other: "JetPolynomial") -> "JetPolynomial":
        return self + other * -1

    def __mul__(self, other) -> "JetPolynomial":
        """Product with a jet symbol or a rational."""
        if other in _JET_POS:
            i = _JET_POS[other]
            return JetPolynomial({_bump(m, i): c for m, c in self.coeffs.items()})
        if isinstance(other, (int, Fraction)):
            return JetPolynomial({m: scale(other, c) for m, c in self.coeffs.items()})
        return NotImplemented

    def diff(self, jet: Sym) -> "JetPolynomial":
        """Partial derivative by the jet coordinate ``jet``."""
        i = _JET_POS[jet]
        return JetPolynomial(
            {_bump(m, i, -1): scale(m[i], c) for m, c in self.coeffs.items() if m[i]}
        )

    def D_x(self) -> "JetPolynomial":
        return self._total_derivative(*_AXES[0])

    def D_y(self) -> "JetPolynomial":
        return self._total_derivative(*_AXES[1])

    def _total_derivative(self, var, first, up) -> "JetPolynomial":
        """D(c m) = (c_var + u_var c_u) m + c D(m), on jets up to third order
        (Olver, GTM 107, Thm 2.36)."""
        pairs = []
        for m, c in self.coeffs.items():
            pairs.append((m, differentiate(c, var)))
            pairs.append((_bump(m, first), differentiate(c, U)))
            for i, n in enumerate(m):
                if not n:
                    continue
                if up[i] is None:
                    raise ProlongationError("total derivative of a third-order jet "
                                            "expression needs fourth-order jets")
                pairs.append((_bump(_bump(m, i, -1), up[i]), scale(n, c)))
        return JetPolynomial.from_terms(pairs)

    def substitute(self, jet: Sym, poly: "JetPolynomial") -> "JetPolynomial":
        """The jet coordinate ``jet`` replaced by the polynomial ``poly``:
        each power jet^n becomes poly^n."""
        i = _JET_POS[jet]
        pairs = []
        for m, c in self.coeffs.items():
            rest = _bump(m, i, -m[i])
            for pm, pc in _power(poly.coeffs, m[i]).items():
                pairs.append((_mono_mul(rest, pm), mul(c, pc)))
        return JetPolynomial.from_terms(pairs)


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


def product_terms(p: dict, q: dict) -> Iterator[tuple]:
    """The (monomial, coefficient) pairs of the product of two coefficient
    dicts, before they are collected."""
    return ((_mono_mul(m1, m2), mul(c1, c2))
            for m1, c1 in p.items() for m2, c2 in q.items())


def _product(p: dict, q: dict) -> dict:
    return _sum_terms(product_terms(p, q))


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
