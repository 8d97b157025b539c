"""Independent oracles for the exact layer, used only by the tests: the
adjoint action summed from iterated brackets, and the Lie bracket of two
point fields from their action on functions."""

import math
from fractions import Fraction

from lie_thomas.algebra import AlgebraElement, basis_element, commutator
from lie_thomas.determining import ThomasParams
from lie_thomas.expr import Expr, Rat, mul, pow_
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
