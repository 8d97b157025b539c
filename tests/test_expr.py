"""Kernel behavior: construction, calculus, substitution, printing."""

import math

import pytest

from lie_thomas.expr import (
    ALPHA,
    BETA,
    GAMMA,
    JETS,
    PARAM,
    ZERO,
    U,
    U_X,
    U_XY,
    U_Y,
    UFunc,
    X,
    Y,
    EvalError,
    ExprError,
    Func,
    Pow,
    R,
    Rat,
    Sym,
    contains_jet,
    differentiate,
    evaluate,
    exp,
    log,
    max_jet_order,
    pow_,
    substitute,
)
from lie_thomas.normal import canonical_expr, equal, is_zero
from lie_thomas.printer import to_latex, to_text


def test_rational_collection():
    assert (X + Y) - (Y + X) == Rat(0)
    assert X + X + X == R(3) * X
    e = R(1, 2) * X * Y - R(3, 2) * Y * X
    assert e == -(X * Y)


def test_power_rules():
    assert pow_(X, 0) == Rat(1)
    assert pow_(pow_(X, 2), 3) == pow_(X, 6)
    assert X**2 * X**3 == X**5
    assert is_zero(X**3 * X**-3 - R(1))
    with pytest.raises(TypeError):
        X ** 0.5


def test_exp_log_simplification():
    assert exp(R(0)) == Rat(1)
    assert log(R(1)) == Rat(0)
    assert exp(log(X)) == X
    assert log(exp(X + Y)) == X + Y
    # exponential factors merge
    assert is_zero(exp(X) * exp(Y) - exp(X + Y))


def test_differentiate_polynomial():
    e = X**2 * Y + R(3) * X
    assert differentiate(e, X) == R(2) * X * Y + R(3)
    assert differentiate(e, Y) == X**2
    assert differentiate(e, U) == Rat(0)


def test_differentiate_chain_rules():
    assert is_zero(differentiate(exp(X**2), X) - R(2) * X * exp(X**2))
    assert is_zero(differentiate(log(X * Y), Y) - pow_(Y, -1))


def test_function_atoms():
    f = UFunc("f", ("x", "y"))
    fe = f()
    fx = differentiate(fe, X)
    assert to_text(fx) == "f_x"
    fxy = differentiate(fx, Y)
    assert to_text(fxy) == "f_xy"
    # mixed partials commute
    assert differentiate(differentiate(fe, Y), X) == fxy


def test_func_keys_pinned():
    # the keys every sort order, determining row and printed term order rest on
    assert UFunc("xi")().key() == (
        2, "xi", (0, 0, 0), ((1, 0, "x"), (1, 0, "y"), (1, 0, "u")))
    assert UFunc("g", ("x", "y"))().key() == (2, "g", (0, 0), ((1, 0, "x"), (1, 0, "y")))
    assert UFunc("xi").d("x", "u", "u").key() == (
        2, "xi", (1, 0, 2), ((1, 0, "x"), (1, 0, "y"), (1, 0, "u")))


def test_differentiate_func_by_its_variables():
    xi = UFunc("xi")
    for var, name in ((X, "x"), (Y, "y"), (U, "u")):
        d = differentiate(xi(), var)
        assert type(d) is Func and d == xi.d(name)
        assert differentiate(d, X) == xi.d(name, "x")
    g = UFunc("g", ("x", "y"))
    assert differentiate(g.d("x"), Y) == g.d("x", "y") == g.d("y", "x")
    for other in (U, U_X, JETS[(1, 1)], Sym("x", PARAM), ALPHA):
        assert differentiate(g(), other) == ZERO
        assert differentiate(g.d("y"), other) == ZERO


def test_substitute_cannot_move_a_func_variable():
    xi = UFunc("xi")
    with pytest.raises(ExprError, match="xi"):
        substitute(X + xi(), {X: Y})
    with pytest.raises(ExprError, match="xi_u"):
        substitute(exp(xi.d("u")), {U: R(0)})
    # a whole Func node is still a binding key, and a Func is left as it is
    # when no binding names one of its variables
    assert substitute(X * xi.d("x"), {xi.d("x"): R(2)}) == R(2) * X
    g = UFunc("g", ("x", "y"))
    assert substitute(U * g(), {U: R(3), Sym("x", PARAM): R(1)}) == R(3) * g()


def test_substitute_simultaneous():
    e = X * Y
    out = substitute(e, {X: Y, Y: X})
    assert out == X * Y  # swap, not chain


def test_evaluate():
    e = exp(X) * Y + R(1, 2)
    v = evaluate(e, {"x": 0.5, "y": 2.0})
    assert abs(v - (2 * math.exp(0.5) + 0.5)) < 1e-14
    with pytest.raises(EvalError):
        evaluate(X + Y, {"x": 1.0})


def test_jet_queries():
    e = U_X * U_Y + X
    assert contains_jet(e)
    assert not contains_jet(X * Y)
    assert max_jet_order(e) == 1
    assert max_jet_order(JETS[(2, 1)]) == 3


def test_printer_latex():
    assert to_latex(U_XY) == "u_{xy}"
    assert to_latex(GAMMA * U_X) == "\\gamma u_{x}"
    assert "\\frac" in to_latex(R(1, 2) * X)


def test_printer_latex_bare_rationals():
    """A non-integer rational alone, as a sum term and as the base of a
    power: a negative one is parenthesized only where it binds tighter than
    a sum."""
    assert to_latex(R(3, 4)) == r"\frac{3}{4}"
    assert to_latex(R(-3, 4)) == r"-\frac{3}{4}"
    assert to_latex(X + R(-1, 2)) == r"-\frac{1}{2} + x"
    assert to_latex(Y + R(1, 2)) == r"\frac{1}{2} + y"
    assert to_latex(Pow(R(-3, 4), 2)) == r"(-\frac{3}{4})^{2}"


def test_normal_form_equality():
    lhs = (X + Y) ** 2
    rhs = X**2 + R(2) * X * Y + Y**2
    assert equal(lhs, rhs)
    assert not equal(lhs, rhs + R(1))
    # rational functions compare by cross-multiplication
    assert equal(X / (X * Y), pow_(Y, -1))


def test_canonical_expr_deterministic():
    e = BETA * X + ALPHA * Y + BETA * X
    c1 = canonical_expr(e)
    c2 = canonical_expr(R(2) * BETA * X + ALPHA * Y)
    assert to_text(c1) == to_text(c2)


def test_app_equality_through_normal_form():
    assert is_zero(exp(X + Y) - exp(Y + X))
    assert not is_zero(exp(X) - exp(Y))
    # an argument that canonicalizes to 0 collapses the application to 1
    assert is_zero(exp((X + 1) * (X - 1) - X**2 + 1) - 1)
