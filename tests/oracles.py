"""Independent oracles, used only by the tests: the adjoint action summed
from iterated brackets, the Lie bracket of two point fields from their
action on functions, the annihilation of a case's invariants by its field,
and the Frobenius series of chi y'' + e y' + m y = 0 by its closed
coefficients and its residual."""

import math
from fractions import Fraction

from lie_thomas.algebra import AlgebraElement, basis_element, commutator
from lie_thomas.determining import ThomasParams
from lie_thomas.expr import Expr, Rat, mul, pow_
from lie_thomas.fuchs import FuchsSeries, fuchs_series
from lie_thomas.reduction import invariants
from lie_thomas.vectorfield import VectorField


def lie_series_adjoint(
    i: int,
    eps: Expr,
    w: AlgebraElement,
    p: ThomasParams = ThomasParams(),
    order: int = 12,
) -> AlgebraElement:
    """Ad(exp(eps*v_i)) w summed term by term from iterated brackets,
    truncated at the given order.  Independent of the closed forms."""
    v = basis_element(i)
    total = w
    term = w
    sign_eps = mul(Rat(-1), eps)
    for n in range(1, order + 1):
        term = commutator(v, term, p)
        if term.is_zero():
            break
        coeff = mul(pow_(sign_eps, n), Rat(Fraction(1, math.factorial(n))))
        total = total + term.scale(coeff)
    return total


def vf_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket [v, w] of point fields."""
    return VectorField(
        v.apply(w.xi) - w.apply(v.xi),
        v.apply(w.eta) - w.apply(v.eta),
        v.apply(w.phi) - w.apply(v.phi),
    )


def annihilation_residuals(c, p: ThomasParams = ThomasParams()):
    """(v(chi), v(varsigma)) for the canonical field; both must vanish."""
    v = c.element().to_field(p)
    pair = invariants(c, p)
    return v.apply(pair.chi), v.apply(pair.varsigma)


def coefficient_closed(e, m, n: int):
    """a_n = (-m)^n / (n! * e (e+1) ... (e+n-1)), exact on Fractions."""
    poch = 1
    for k in range(n):
        poch *= e + k
    return (-m) ** n / (math.factorial(n) * poch)


def fuchs_solution(e: float, m: float, chi: float) -> float:
    return fuchs_series(e, m, abs(chi))(chi)


def ode_residual(series: FuchsSeries, chi: float) -> float:
    y, ypr, ypp = series.eval(chi)
    return chi * ypp + series.e * ypr + series.m * y
