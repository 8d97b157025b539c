"""Invariance criterion for u_xy + alpha*u_x + beta*u_y + gamma*u_x*u_y = 0.

Applying the prolonged action of a fully symbolic point field to the
equation and eliminating u_xy on the solution manifold yields twelve
monomial coefficients that must vanish.  Where alpha*beta != 0 their
integration collapses the symmetry algebra to four explicit fields plus an
infinite family indexed by solutions g of the linearized equation
alpha*g_x + beta*g_y + g_xy = 0.  Where alpha*beta = 0 the rows admit more:
xi(x) d/dx - (beta/gamma) xi(x) d/du and eta(y) d/dy - (alpha/gamma) eta(y)
d/du for every xi and eta (ledger slug most-general-symmetry-alpha-beta-zero).

The system is derived once per process, at the symbolic constants: its
rows are polynomials in (alpha, beta, gamma) and linear in the partials of
xi, eta and phi, so every other reading is a substitution into them.  The
rows at rational constants bind the constants in each row's normal-form
polynomial.  ``check_symmetry`` binds the constants and each partial to
the matching partial of the given field's coefficient; only a field whose
rows do not all vanish is prolonged itself, to give its residual.
"""

from __future__ import annotations

from functools import cache

from .errors import Record
from .expr import (
    ALPHA,
    BETA,
    GAMMA,
    Expr,
    Func,
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
from .normal import canonical_expr, is_zero, normal_form, poly_at, poly_expr
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


def _manifold_action(vf: VectorField, p: ThomasParams) -> JetPolynomial:
    """The prolonged action of vf on the equation, on the solution manifold."""
    return on_manifold(apply_prolonged(prolong(vf), thomas_delta(p)), p)


class DeterminingSystem(Record):
    rows: tuple  # ordered (jet monomial, Expr) pairs

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


_CONSTANTS = (ALPHA, BETA, GAMMA)
_VARS = {"x": X, "y": Y, "u": U}
_FIELD = symbolic_field()


def _derivation_steps(partials) -> tuple:
    """(partial, lower partial, variable) triples for ``partials`` and the
    partials they are taken from: each is one derivative of a partial of
    one order less, listed before it."""
    steps = {}
    todo = list(partials)
    while todo:
        a = todo.pop()
        if a in steps or not any(a.derivs):
            continue
        i = next(i for i, n in enumerate(a.derivs) if n)
        lower = Func(a.name, a.params, a.derivs[:i] + (a.derivs[i] - 1,) + a.derivs[i + 1:])
        steps[a] = (a, lower, _VARS[a.params[i]])
        todo.append(lower)
    return tuple(sorted(steps.values(), key=lambda step: sum(step[0].derivs)))


@cache
def _symbolic_system():
    """(system, polys, steps): the determining system at the symbolic
    constants, derived once; each row's normal-form polynomial, in row
    order; and the derivation steps of the partials of xi, eta and phi
    that the rows hold.  Every row is a polynomial, so its normal form has
    denominator one and the row rebuilt from the numerator is its
    ``canonical_expr``."""
    rows, polys = [], []
    for m, c in _manifold_action(_FIELD, ThomasParams()).items():
        poly = normal_form(c).num
        rows.append((m, poly_expr(poly)))
        polys.append(poly)
    partials = {a for poly in polys for mono in poly for a, _ in mono if type(a) is Func}
    return DeterminingSystem(tuple(rows)), tuple(polys), _derivation_steps(partials)


def determining_equations(p: ThomasParams = ThomasParams()) -> DeterminingSystem:
    """Monomial coefficients of the prolonged symbolic action on the
    equation, after eliminating u_xy on the solution manifold.

    Read off the symbolic system: rational constants are bound in each
    row's polynomial, whose normal form is unique, so the rows equal those
    derived at p key for key (every row holds a term free of the
    constants, so none vanishes).  Constants other than rationals and
    their own symbols are derived at p."""
    system, polys, _ = _symbolic_system()
    values = {}
    for s, c in zip(_CONSTANTS, (p.alpha, p.beta, p.gamma)):
        if type(c) is Rat:
            values[s] = c.value
        elif c != s:
            jp = _manifold_action(_FIELD, p)
            return DeterminingSystem(tuple((m, canonical_expr(e)) for m, e in jp.items()))
    if not values:
        return system
    return DeterminingSystem(tuple((m, poly_expr(poly_at(poly, values)))
                                   for (m, _), poly in zip(system, polys)))


def _row_at(poly, values: dict) -> Expr:
    """The row of normal-form polynomial ``poly`` with every atom a replaced
    by the expression values[a]."""
    return add(*[mul(Rat(c), *[pow_(values[a], n) for a, n in m]) for m, c in poly.items()])


def check_symmetry(vf: VectorField, p: ThomasParams = ThomasParams()):
    """(flag, residual): flag is True iff the prolonged action of vf on the
    equation vanishes on the solution manifold.

    Decided on the symbolic system: the constants are bound to p and each
    partial of xi, eta and phi to that partial of vf's coefficient, which
    commutes with the prolongation and with taking each jet monomial's
    coefficient.  When every row is then zero, vf is a symmetry; otherwise
    vf is prolonged itself, so that a failing field's flag and residual
    are those of its own prolonged action."""
    _, polys, steps = _symbolic_system()
    values = {ALPHA: p.alpha, BETA: p.beta, GAMMA: p.gamma,
              _FIELD.xi: vf.xi, _FIELD.eta: vf.eta, _FIELD.phi: vf.phi}
    for a, lower, var in steps:
        values[a] = differentiate(values[lower], var)
    if all(is_zero(_row_at(poly, values)) for poly in polys):
        return True, ZERO
    jp = _manifold_action(vf, p)
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
    """Most general point symmetry where alpha*beta != 0: xi = -k*gamma*x + c,
    eta = k*gamma*y + b, phi = -(g/gamma) e^{-gamma u} + k*(beta*x - alpha*y)
    + a.  Where alpha*beta = 0 the algebra is larger (see the module notes)."""
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
