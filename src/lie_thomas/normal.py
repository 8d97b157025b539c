"""Rational normal form and structural zero-testing.

Expressions are flattened into a fraction of multivariate polynomials whose
"atoms" are symbols, unknown functions (each an atom of its own variables,
taken as it is), and exp/log applications with canonically rebuilt
arguments.  Equality of two
expressions is decided by cross-multiplying and zero-testing; this is sound
and complete for rational expressions in algebraically independent atoms,
which covers the polynomial-in-jets determining machinery.  exp factors
meeting inside one monomial are merged into a single atom (exp(a)*exp(b)
-> exp(a+b)), so products like exp(t) * exp(-t) cancel structurally even
when the factors come from different levels of the tree.

The merge stops short in one place: where the merged argument collapses
to a non-atom (exp(y) * exp(log(x + 2) - y) is 2 + x), the exp factors
stay unmerged, as independent atoms.  So ``equal`` can say "not equal" for
atoms that are algebraically dependent: h = (exp(y) + 1)*(exp(log(x + 2)
- y) + 1) against ``canonical_expr(h)``, whose rebuild through ``mul``
does collapse that product.  It never gives a false zero: a polynomial
that vanishes in independent atoms vanishes at any values of them.
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


_F1 = Fraction(1)
_POLY_ONE = {(): _F1}


def _poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        prev = out.get(m)
        if prev is None:
            out[m] = c
            continue
        s = prev + c
        if s:
            out[m] = s
        else:
            del out[m]
    return out


def _merge_exps(acc: dict) -> int | Fraction:
    """Collapse exp atoms in a monomial accumulator: exp(a)^m * exp(b)^n
    becomes the single atom exp(m*a + n*b).  Returns the rational factor
    the merge leaves: the collapsed value when the merged application
    is a rational, such as exp(log q) = q, and the int 1 otherwise, so that
    a caller can skip multiplying by it."""
    exps = [(a, n) for a, n in acc.items()
            if n and isinstance(a, App) and a.fn == "exp"]
    if not exps or (len(exps) == 1 and exps[0][1] == 1):
        return 1
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
        return 1
    # argument collapse produced a non-atom; leave the factors unmerged
    return 1


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
        unit = c1 == 1
        for m2, c2 in q.items():
            k, m = _mono_mul(m1, m2)
            c = c2 if unit else c1 if c2 == 1 else c1 * c2
            if k != 1:
                c = c * k
            prev = out.get(m)
            if prev is None:
                out[m] = c
                continue
            s = prev + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _poly_pow(p: Poly, n: int) -> Poly:
    out = dict(_POLY_ONE)
    for _ in range(n):
        out = _poly_mul(out, p)
    return out


def _atom_poly(a: Expr) -> Poly:
    return {((a, 1),): _F1}


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
    """Atom in canonical form: a Sym or Func leaf is already, and an App
    gets its argument renormalized."""
    if isinstance(e, (Sym, Func)):
        return e
    if isinstance(e, App):
        return app(e.fn, canonical_expr(e.arg))
    raise ExprError("not an atom: %r" % e)


def normal_form(e: Expr) -> NormalForm:
    if isinstance(e, Rat):
        return NormalForm(_poly_const(e.value), dict(_POLY_ONE))
    if isinstance(e, (Sym, Func)):
        return NormalForm(_atom_poly(e), dict(_POLY_ONE))
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


def poly_expr(p: Poly) -> Expr:
    if not p:
        return ZERO
    terms = []
    for m in sorted(p, key=lambda m: tuple((t[0].key(), t[1]) for t in m)):
        terms.append(mul(Rat(p[m]), _mono_expr(m)))
    return add(*terms)


def canonical_expr(e: Expr) -> Expr:
    """Rebuild through the normal form; canonical for rational content.

    Built once per node and kept in its ``_canon`` slot, so a second call
    returns the same node; a rebuild that is e itself (a leaf) is not
    kept, since a node holding itself would be a reference cycle."""
    out = getattr(e, "_canon", None)
    if out is not None:
        return out
    nf = normal_form(e)
    out = poly_expr(nf.num)
    den = poly_expr(nf.den)
    if den != ONE:
        out = mul(out, pow_(den, -1))
    if out is not e:
        e._canon = out
    return out
