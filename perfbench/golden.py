"""Golden results the benchmark checks each op against.

The determining rows and the two tables are the published ones (they are
the acceptance criteria 1-3 of the package).  Rows are compared as text
for symbolic constants and, for drawn rational constants, term by term
after substituting the constants into the golden text, so the check does
not reuse the code path that produced the rows.
"""

from __future__ import annotations

import re
from fractions import Fraction

from lie_thomas.algebra import AlgebraElement, basis_element, g_element
from lie_thomas.expr import R, X, Y, differentiate, exp, pow_
from lie_thomas.normal import equal, is_zero

GOLDEN_ROWS = (
    ("1", "phi_xy + alpha*phi_x + beta*phi_y"),
    ("u_x", "phi_yu - xi_xy + alpha*eta_y - beta*xi_y + gamma*phi_y"),
    ("u_y", "-eta_xy + phi_xu - alpha*eta_x + beta*xi_x + gamma*phi_x"),
    ("u_x*u_y", "-eta_yu + phi_uu - xi_xu + alpha*eta_u + beta*xi_u + gamma*phi_u"),
    ("u_x^2", "-xi_yu + alpha*xi_u - gamma*xi_y"),
    ("u_y^2", "-eta_xu + beta*eta_u - gamma*eta_x"),
    ("u_y*u_x^2", "-xi_uu"),
    ("u_x*u_y^2", "-eta_uu"),
    ("u_xx", "-xi_y"),
    ("u_yy", "-eta_x"),
    ("u_xx*u_y", "-xi_u"),
    ("u_x*u_yy", "-eta_u"),
)

# one term of a row: sign, then a coefficient written as a constant name
# ("beta*") or as an integer numerator ("3*"), the derivative symbol, and an
# optional denominator ("/5")
_TERM = re.compile(
    r"^(-)?(?:(alpha|beta|gamma|\d+)\*)?((?:phi|xi|eta)_[xyu]+)(?:/(\d+))?$"
)


def row_terms(text: str, constants=None) -> dict:
    """{derivative symbol: coefficient} of a printed row; constant names are
    replaced by ``constants[name]``."""
    out = {}
    for chunk in re.split(r" (?=[+-] )", text.strip()):
        chunk = chunk.replace("+ ", "").replace("- ", "-")
        m = _TERM.match(chunk)
        if m is None:
            raise ValueError("unexpected row term %r in %r" % (chunk, text))
        sign, coef, symbol, den = m.groups()
        if coef is None:
            value = Fraction(1)
        elif coef.isdigit():
            value = Fraction(int(coef))
        else:
            value = Fraction(constants[coef])
        if den:
            value /= int(den)
        if sign:
            value = -value
        if symbol in out:
            raise ValueError("repeated term %r in %r" % (symbol, text))
        out[symbol] = value
    return out


def rows_match(rows, constants) -> bool:
    """``rows`` is the printed [(monomial, coefficient)] list of the
    determining system; ``constants`` is None for symbolic (alpha, beta,
    gamma) or a dict of their Fraction values."""
    if [m for m, _ in rows] != [m for m, _ in GOLDEN_ROWS]:
        return False
    if constants is None:
        return list(rows) == list(GOLDEN_ROWS)
    for (_, got), (_, want) in zip(rows, GOLDEN_ROWS):
        expected = {k: v for k, v in row_terms(want, constants).items() if v}
        if row_terms(got) != expected:
            return False
    return True


def expected_commutator(p, g):
    """The 5x5 golden commutator table over (v1, v2, v3, v4, v_g)."""
    A, gel = AlgebraElement, g_element
    alpha, beta, gamma = p.alpha, p.beta, p.gamma
    gx, gy = differentiate(g, X), differentiate(g, Y)
    psi = -gamma * X * gx + gamma * Y * gy - gamma * (beta * X - alpha * Y) * g
    z = A(0, 0, 0, 0)
    return [
        [z, z, z, A(-gamma, 0, beta, 0), gel(gx)],
        [z, z, z, A(0, gamma, -alpha, 0), gel(gy)],
        [z, z, z, z, gel(-gamma * g)],
        [A(gamma, 0, -beta, 0), A(0, -gamma, alpha, 0), z, z, gel(psi)],
        [gel(-gx), gel(-gy), gel(gamma * g), gel(-psi), z],
    ]


def expected_adjoint(p, eps):
    """The 4x4 golden table of Ad(exp(eps*v_i)) v_j."""
    A = AlgebraElement
    v = [None] + [basis_element(i) for i in (1, 2, 3, 4)]
    alpha, beta, gamma = p.alpha, p.beta, p.gamma
    decay, grow = exp(-gamma * eps), exp(gamma * eps)
    inv_gamma = pow_(gamma, -1)
    one = R(1)
    return [
        [v[1], v[2], v[3], A(eps * gamma, 0, -beta * eps, 1)],
        [v[1], v[2], v[3], A(0, -eps * gamma, alpha * eps, 1)],
        [v[1], v[2], v[3], v[4]],
        [
            A(decay, 0, beta * inv_gamma * (one - decay), 0),
            A(0, grow, -alpha * inv_gamma * (grow - one), 0),
            v[3],
            v[4],
        ],
    ]


def elements_equal(a, b) -> bool:
    if not all(equal(x, y) for x, y in zip(a.coords(), b.coords())):
        return False
    return is_zero(a.g - b.g)


def tables_match(got, want) -> bool:
    if len(got) != len(want):
        return False
    for got_row, want_row in zip(got, want):
        if len(got_row) != len(want_row):
            return False
        if not all(elements_equal(a, b) for a, b in zip(got_row, want_row)):
            return False
    return True
