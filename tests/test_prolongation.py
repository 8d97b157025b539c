"""Second prolongation against hand-expanded coefficient polynomials."""

from fractions import Fraction

import pytest

from lie_thomas import cli
from lie_thomas.expr import (
    GAMMA,
    JETS,
    U,
    U_X,
    U_XX,
    U_XY,
    U_Y,
    U_YY,
    R,
    X,
    Y,
    differentiate,
    mul,
)
from lie_thomas.normal import equal, is_zero
from lie_thomas.vectorfield import (
    COEFF_KEYS,
    PROLONG_MEMO_SIZE,
    ProlongationError,
    VectorField,
    prolong,
    symbolic_field,
    total_derivative,
)
from lie_thomas.determining import (
    ThomasParams,
    check_symmetry,
    determining_equations,
    v1,
    v2,
    v3,
    v4,
)
from oracles import vf_bracket


def _d(f, *vs):
    for v in vs:
        f = differentiate(f, v)
    return f


def test_total_derivative_plain():
    e = X * U + Y * U_X**2
    assert equal(total_derivative(e, X), U + X * U_X + R(2) * Y * U_X * U_XX)
    assert equal(total_derivative(e, Y), U_X**2 + X * U_Y + R(2) * Y * U_X * U_XY)
    assert total_derivative(U_X, Y) == U_XY


def test_total_derivative_third_order_guard():
    with pytest.raises(ProlongationError, match="needs fourth-order jets"):
        total_derivative(JETS[(2, 1)], X)


def test_first_order_coefficients_expanded():
    vf = symbolic_field()
    pf = prolong(vf)
    xi, eta, phi = vf.xi, vf.eta, vf.phi
    # phi^x = D_x(phi) - u_x D_x(xi) - u_y D_x(eta), expanded over jets
    expected_x = (
        _d(phi, X)
        + (_d(phi, U) - _d(xi, X)) * U_X
        - _d(eta, X) * U_Y
        - _d(xi, U) * U_X**2
        - _d(eta, U) * U_X * U_Y
    )
    assert equal(pf.coefficient((1, 0)).to_expr(), expected_x)
    expected_y = (
        _d(phi, Y)
        + (_d(phi, U) - _d(eta, Y)) * U_Y
        - _d(xi, Y) * U_X
        - _d(eta, U) * U_Y**2
        - _d(xi, U) * U_X * U_Y
    )
    assert equal(pf.coefficient((0, 1)).to_expr(), expected_y)


def test_mixed_coefficient_thirteen_terms():
    vf = symbolic_field()
    pf = prolong(vf)
    xi, eta, phi = vf.xi, vf.eta, vf.phi
    expected = (
        _d(phi, X, Y)
        + (_d(phi, Y, U) - _d(xi, X, Y)) * U_X
        + (_d(phi, X, U) - _d(eta, X, Y)) * U_Y
        + (_d(phi, U, U) - _d(xi, X, U) - _d(eta, Y, U)) * U_X * U_Y
        + (_d(phi, U) - _d(xi, X) - _d(eta, Y)) * U_XY
        - _d(xi, Y, U) * U_X**2
        - _d(eta, X, U) * U_Y**2
        - _d(xi, U, U) * U_X**2 * U_Y
        - _d(eta, U, U) * U_X * U_Y**2
        - _d(xi, Y) * U_XX
        - _d(eta, X) * U_YY
        - R(2) * _d(xi, U) * U_X * U_XY
        - R(2) * _d(eta, U) * U_Y * U_XY
        - _d(xi, U) * U_Y * U_XX
        - _d(eta, U) * U_X * U_YY
    )
    assert equal(pf.coefficient((1, 1)).to_expr(), expected)


def test_third_order_jets_cancel():
    # prolong() raises if any third-order jet survives the characteristic
    # form; on top of that, no surviving monomial may touch one
    pf = prolong(symbolic_field())
    third = {5, 6, 7, 8}  # positions of u_xxx, u_xxy, u_xyy, u_yyy
    for key in COEFF_KEYS:
        poly = pf.coefficient(key)
        assert poly.monomials()
        for mono in poly.monomials():
            assert not any(mono[idx] for idx in third)


def test_v4_prolongation_concrete():
    p = ThomasParams()
    field = v4(p)
    pf = prolong(field)
    # phi^x for the scaling field: beta + gamma u_x
    got = pf.coefficient((1, 0)).to_expr()
    from lie_thomas.expr import BETA

    assert is_zero(got - (BETA + GAMMA * U_X))


def test_bracket_antisymmetry_and_known_value():
    p = ThomasParams()
    a, b = v1(), v4(p)
    br = vf_bracket(a, b)
    # [v1, v4] = -gamma v1 + beta v3
    from lie_thomas.expr import BETA

    assert is_zero(br.xi - mul(R(-1), GAMMA))
    assert is_zero(br.eta)
    assert is_zero(br.phi - BETA)
    rev = vf_bracket(b, a)
    assert is_zero(br.xi + rev.xi)
    assert is_zero(br.phi + rev.phi)


def test_vectorfield_rejects_jets():
    with pytest.raises(Exception):
        VectorField(U_X, R(0), R(0))


# --- the memo ---------------------------------------------------------------


def _coefficient_keys(pf):
    return {k: {m: c.key() for m, c in pf.coefficient(k).coeffs.items()}
            for k in COEFF_KEYS}


def test_equal_fields_share_one_prolongation():
    p = ThomasParams(2, Fraction(-1, 3), 5)
    assert prolong(symbolic_field()) is prolong(symbolic_field())
    assert prolong(v4(p)) is prolong(v4(ThomasParams(2, Fraction(-1, 3), 5)))


def test_callers_leave_the_shared_prolongation_intact(capsys):
    cached = prolong(symbolic_field())
    p = ThomasParams()
    determining_equations(p)
    determining_equations(ThomasParams(1, 2, 3))
    for vf in (v1(), v2(), v3(), v4(p)):
        assert check_symmetry(vf, p)[0]
    for fmt in ("text", "json", "latex"):
        assert cli.main(["derive", "--show-prolongation", "--format", fmt]) == 0
    capsys.readouterr()
    assert prolong(symbolic_field()) is cached
    fresh = prolong.__wrapped__(symbolic_field())
    assert _coefficient_keys(cached) == _coefficient_keys(fresh)


def test_memo_is_bounded():
    assert prolong.cache_info().maxsize == PROLONG_MEMO_SIZE
