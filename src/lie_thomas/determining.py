"""Invariance criterion for u_xy + alpha*u_x + beta*u_y + gamma*u_x*u_y = 0.

Applying the prolonged action of a fully symbolic point field to the
equation and eliminating u_xy on the solution manifold yields twelve
monomial coefficients that must vanish; their integration collapses the
symmetry algebra to four explicit fields plus an infinite family indexed by
solutions g of the linearized equation alpha*g_x + beta*g_y + g_xy = 0.
"""

from __future__ import annotations

from .errors import Record
from .expr import (
    Expr,
    Rat,
    U,
    U_X,
    U_XY,
    U_Y,
    X,
    Y,
    ZERO,
    add,
    app,
    contains_jet,
    differentiate,
    exp,
    mul,
    pow_,
    _wrap,
)
from .jetpoly import JetPolynomial, monomial
from .normal import canonical_expr, is_zero
from .params import ParameterError, ThomasParams
from .vectorfield import VectorField, apply_prolonged, prolong, symbolic_field


def thomas_delta(p: ThomasParams) -> Expr:
    return add(U_XY, mul(p.alpha, U_X), mul(p.beta, U_Y), mul(p.gamma, U_X, U_Y))


# the monomials of thomas_delta other than u_xy, in the order alpha, beta, gamma
_LOWER_TERMS = (monomial(U_X), monomial(U_Y), monomial(U_X, U_Y))


def on_manifold(jp: JetPolynomial, p: ThomasParams) -> JetPolynomial:
    """u_xy eliminated through the equation itself: each u_xy^n becomes the
    n-th power of -(alpha u_x + beta u_y + gamma u_x u_y)."""
    rest = JetPolynomial({m: mul(Rat(-1), c)
                          for m, c in zip(_LOWER_TERMS, (p.alpha, p.beta, p.gamma))})
    return jp.substitute(U_XY, rest)


class DeterminingSystem(Record):
    rows: tuple  # ordered (jet monomial, Expr) pairs

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def determining_equations(p: ThomasParams = ThomasParams()) -> DeterminingSystem:
    """Monomial coefficients of the prolonged symbolic action on the
    equation, after eliminating u_xy on the solution manifold."""
    jp = on_manifold(apply_prolonged(prolong(symbolic_field()), thomas_delta(p)), p)
    return DeterminingSystem(tuple((m, canonical_expr(c)) for m, c in jp.items()))


def check_symmetry(vf: VectorField, p: ThomasParams = ThomasParams()):
    """(flag, residual): flag is True iff the prolonged action of vf on the
    equation vanishes on the solution manifold."""
    jp = on_manifold(apply_prolonged(prolong(vf), thomas_delta(p)), p)
    if jp.is_zero():
        return True, ZERO
    return False, jp.to_expr()


# the four explicit generators


def v1() -> VectorField:
    return general_symmetry(c=1)


def v2() -> VectorField:
    return general_symmetry(b=1)


def v3() -> VectorField:
    return general_symmetry(a=1)


def v4(p: ThomasParams = ThomasParams()) -> VectorField:
    return general_symmetry(k=1, p=p)


def linearized_constraint(g: Expr, p: ThomasParams = ThomasParams()) -> Expr:
    """alpha*g_x + beta*g_y + g_xy for a function g of (x, y)."""
    if contains_jet(g) or differentiate(g, U) != ZERO:
        raise ParameterError("g must depend on (x, y) only")
    return add(
        mul(p.alpha, differentiate(g, X)),
        mul(p.beta, differentiate(g, Y)),
        differentiate(differentiate(g, X), Y),
    )


def v_g(g: Expr, p: ThomasParams = ThomasParams(), check: bool = True) -> VectorField:
    """The infinite-family generator -(g/gamma) e^{-gamma u} d/du."""
    if check:
        constraint = linearized_constraint(g, p)
        if not is_zero(constraint):
            raise ParameterError(
                "g does not satisfy the linearized equation; residual %r" % constraint
            )
    phi = mul(Rat(-1), g, app("exp", mul(Rat(-1), p.gamma, U)), pow_(p.gamma, -1))
    return VectorField(Rat(0), Rat(0), phi)


def general_symmetry(
    a=0,
    b=0,
    c=0,
    k=0,
    g: Expr = ZERO,
    p: ThomasParams = ThomasParams(),
    check: bool = True,
) -> VectorField:
    """Most general point symmetry: xi = -k*gamma*x + c, eta = k*gamma*y + b,
    phi = -(g/gamma) e^{-gamma u} + k*(beta*x - alpha*y) + a."""
    a, b, c, k = (_wrap(t) for t in (a, b, c, k))
    xi = add(mul(Rat(-1), k, p.gamma, X), c)
    eta = add(mul(k, p.gamma, Y), b)
    phi = add(mul(k, add(mul(p.beta, X), mul(Rat(-1), p.alpha, Y))), a)
    g = _wrap(g)
    if not is_zero(g):
        phi = add(v_g(g, p, check).phi, phi)
    return VectorField(xi, eta, phi)


def exponential_g(lam, p: ThomasParams = ThomasParams()):
    """g = exp(lam*x + mu*y) with mu chosen so the linearized equation
    holds; needs lam + beta nonzero."""
    lam = _wrap(lam)
    denom = add(lam, p.beta)
    if is_zero(denom):
        raise ParameterError("lam + beta must be nonzero")
    mu = mul(Rat(-1), p.alpha, lam, pow_(denom, -1))
    return exp(add(mul(lam, X), mul(mu, Y))), mu
