"""Rational normal form and structural zero-testing.

Expressions are flattened into a fraction of multivariate polynomials whose
"atoms" are symbols, unknown-function applications, and elementary-function
applications with canonically rebuilt arguments.  Equality of two
expressions is decided by cross-multiplying and zero-testing; this is sound
and complete for rational expressions in algebraically independent atoms,
which covers the polynomial-in-jets determining machinery.  exp factors
meeting inside one monomial are merged into a single atom (exp(a)*exp(b)
-> exp(a+b)), so products like exp(t) * exp(-t) cancel structurally even
when the factors come from different levels of the tree.
"""

from __future__ import annotations

from fractions import Fraction

from .expr import (
    Add,
    App,
    Expr,
    ExprError,
    Func,
    Mul,
    ONE,
    Pow,
    Rat,
    Sym,
    ZERO,
    add,
    app,
    mul,
    pow_,
)

# monomial: tuple of (atom-expr, positive int exponent) sorted by atom key
Mono = tuple
# polynomial: monomial -> nonzero Fraction
Poly = dict


def _poly_const(c: Fraction) -> Poly:
    return {(): c} if c else {}


_POLY_ONE = {(): Fraction(1)}


def _poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _merge_exps(acc: dict) -> Fraction:
    """Collapse exp atoms in a monomial accumulator: exp(a)^m * exp(b)^n
    becomes the single atom exp(m*a + n*b).  Returns a rational factor
    (1 normally; the collapsed value when the merged argument vanishes)."""
    exps = [(a, n) for a, n in acc.items()
            if n and isinstance(a, App) and a.fn == "exp"]
    if not exps or (len(exps) == 1 and exps[0][1] == 1):
        return Fraction(1)
    arg = add(*[mul(Rat(Fraction(n)), a.arg) for a, n in exps])
    merged = app("exp", canonical_expr(arg))
    if isinstance(merged, Rat):
        for a, _ in exps:
            acc[a] = 0
        return merged.value
    if isinstance(merged, App) and merged.fn == "exp":
        for a, _ in exps:
            acc[a] = 0
        acc[merged] = acc.get(merged, 0) + 1
        return Fraction(1)
    # argument collapse produced a non-atom; leave the factors unmerged
    return Fraction(1)


def _mono_mul(m1: Mono, m2: Mono):
    acc = {}
    for a, n in m1:
        acc[a] = acc.get(a, 0) + n
    for a, n in m2:
        acc[a] = acc.get(a, 0) + n
    coeff = _merge_exps(acc)
    mono = tuple(
        sorted(((a, n) for a, n in acc.items() if n), key=lambda t: t[0].key())
    )
    return coeff, mono


def _poly_mul(p: Poly, q: Poly) -> Poly:
    # every monomial of a Poly is already sorted with its exp atoms merged,
    # so a product with the unit polynomial equals the other side; Polys are
    # never mutated once built, so that side is returned as it is
    if p == _POLY_ONE:
        return q
    if q == _POLY_ONE:
        return p
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            k, m = _mono_mul(m1, m2)
            s = out.get(m, Fraction(0)) + c1 * c2 * k
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _poly_pow(p: Poly, n: int) -> Poly:
    out = dict(_POLY_ONE)
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def _atom_poly(a: Expr) -> Poly:
    return {((a, 1),): Fraction(1)}


class NormalForm:
    """A pair (num, den) of atom-polynomials; den is never the zero poly."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if not den:
            raise ZeroDivisionError("zero denominator in normal form")
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return not self.num

    def equals(self, other: "NormalForm") -> bool:
        l = _poly_mul(self.num, other.den)
        r = _poly_mul(other.num, self.den)
        return not _poly_add(l, {m: -c for m, c in r.items()})


def _rebuild_atom(e: Expr) -> Expr:
    """Atom with canonically renormalized insides (Func/App args)."""
    if isinstance(e, Sym):
        return e
    if isinstance(e, Func):
        return Func(e.name, e.params, e.derivs, tuple(canonical_expr(a) for a in e.args))
    if isinstance(e, App):
        return app(e.fn, canonical_expr(e.arg))
    raise ExprError("not an atom: %r" % e)


def normal_form(e: Expr) -> NormalForm:
    if isinstance(e, Rat):
        return NormalForm(_poly_const(e.value), dict(_POLY_ONE))
    if isinstance(e, (Sym, Func)):
        return NormalForm(_atom_poly(_rebuild_atom(e)), dict(_POLY_ONE))
    if isinstance(e, App):
        atom = _rebuild_atom(e)
        if isinstance(atom, App):
            return NormalForm(_atom_poly(atom), dict(_POLY_ONE))
        # argument canonicalization collapsed the application
        return normal_form(atom)
    if isinstance(e, Add):
        num: Poly = {}
        den: Poly = dict(_POLY_ONE)
        for t in e.terms:
            nf = normal_form(t)
            num = _poly_add(_poly_mul(num, nf.den), _poly_mul(nf.num, den))
            den = _poly_mul(den, nf.den)
        return NormalForm(num, den)
    if isinstance(e, Mul):
        num: Poly = dict(_POLY_ONE)
        den: Poly = dict(_POLY_ONE)
        for f in e.factors:
            nf = normal_form(f)
            num = _poly_mul(num, nf.num)
            den = _poly_mul(den, nf.den)
        return NormalForm(num, den)
    if isinstance(e, Pow):
        nf = normal_form(e.base)
        if e.exp >= 0:
            return NormalForm(_poly_pow(nf.num, e.exp), _poly_pow(nf.den, e.exp))
        if nf.is_zero():
            raise ZeroDivisionError("negative power of exact zero")
        n = -e.exp
        return NormalForm(_poly_pow(nf.den, n), _poly_pow(nf.num, n))
    raise ExprError("cannot normalize %r" % e)


def is_zero(e: Expr) -> bool:
    """Structural zero test after rational normalization."""
    return normal_form(e).is_zero()


def equal(a: Expr, b: Expr) -> bool:
    return normal_form(a).equals(normal_form(b))


def _mono_expr(m: Mono) -> Expr:
    return mul(*[pow_(a, n) for a, n in m])


def _poly_expr(p: Poly) -> Expr:
    if not p:
        return ZERO
    terms = []
    for m in sorted(p, key=lambda m: tuple((t[0].key(), t[1]) for t in m)):
        terms.append(mul(Rat(p[m]), _mono_expr(m)))
    return add(*terms)


def canonical_expr(e: Expr) -> Expr:
    """Rebuild through the normal form; canonical for rational content."""
    nf = normal_form(e)
    num = _poly_expr(nf.num)
    den = _poly_expr(nf.den)
    if den == ONE:
        return num
    return mul(num, pow_(den, -1))
