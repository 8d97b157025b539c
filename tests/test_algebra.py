"""Structure constants, adjoint action, group transport."""

import math
import random
from fractions import Fraction

import pytest

from lie_thomas.algebra import (
    AlgebraElement,
    AlgebraError,
    GroupDomainError,
    GroupElement,
    GroupWord,
    adjoint,
    adjoint_scaling,
    adjoint_table,
    basis_element,
    commutator,
    commutator_table,
    g_element,
    group_action,
    transform_solution,
)
from lie_thomas.determining import ParameterError, ThomasParams, exponential_g, v_g
from lie_thomas.expr import (
    ALPHA,
    BETA,
    GAMMA,
    R,
    UFunc,
    X,
    Y,
    differentiate,
    evaluate,
    exp,
    mul,
    param,
    pow_,
)
from lie_thomas.hyperdual import HyperDualRow, exp_, log_
from lie_thomas.normal import equal, is_zero
from lie_thomas.families import case21a_solution
from lie_thomas.verification import oracle_solutions, residual
from oracles import lie_series_adjoint, vf_bracket


def _el_equal(a: AlgebraElement, b: AlgebraElement) -> bool:
    if not all(equal(x, y) for x, y in zip(a.coords(), b.coords())):
        return False
    ga, gb = a.g, b.g
    return is_zero(ga - gb)


def test_commutator_table_golden():
    p = ThomasParams()
    g = UFunc("g", ("x", "y"))()
    gx = differentiate(g, X)
    gy = differentiate(g, Y)
    psi = -GAMMA * X * gx + GAMMA * Y * gy - GAMMA * (BETA * X - ALPHA * Y) * g
    z = AlgebraElement(0, 0, 0, 0)
    vg = g_element(g)
    expected = [
        [z, z, z, AlgebraElement(-GAMMA, 0, BETA, 0), g_element(gx)],
        [z, z, z, AlgebraElement(0, GAMMA, -ALPHA, 0), g_element(gy)],
        [z, z, z, z, g_element(-GAMMA * g)],
        [
            AlgebraElement(GAMMA, 0, -BETA, 0),
            AlgebraElement(0, -GAMMA, ALPHA, 0),
            z,
            z,
            g_element(psi),
        ],
        [
            g_element(-gx),
            g_element(-gy),
            g_element(GAMMA * g),
            g_element(-psi),  # antisymmetric partner of the v4 column
            z,
        ],
    ]
    table = commutator_table(p, g)
    assert len(table) == 5 and all(len(row) == 5 for row in table)
    for i in range(5):
        for j in range(5):
            assert _el_equal(table[i][j], expected[i][j]), (i, j)


def test_commutator_matches_field_bracket(rng):
    # dual route: structure constants vs literal vector-field bracket
    p = ThomasParams()
    from lie_thomas.determining import v1, v2, v3, v4

    fields = {1: v1(), 2: v2(), 3: v3(), 4: v4(p)}
    for _ in range(5):
        a = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
        ea, eb = AlgebraElement(*a), AlgebraElement(*b)
        br = commutator(ea, eb, p).to_field(p)
        direct_a = _combine(fields, a)
        direct_b = _combine(fields, b)
        direct = vf_bracket(direct_a, direct_b)
        assert is_zero(br.xi - direct.xi)
        assert is_zero(br.eta - direct.eta)
        assert is_zero(br.phi - direct.phi)


def _combine(fields, coeffs):
    out = fields[1].scale(R(coeffs[0].numerator, coeffs[0].denominator))
    for i in (2, 3, 4):
        c = coeffs[i - 1]
        out = out + fields[i].scale(R(c.numerator, c.denominator))
    return out


def test_g_part_bracket_matches_field_bracket():
    p = ThomasParams(1, 1, 1)
    g, _ = exponential_g(R(2), p)
    vg = g_element(g)
    for i in (1, 2, 3, 4):
        br = commutator(basis_element(i), vg, p)
        field = br.to_field(p)
        direct = vf_bracket(basis_element(i).to_field(p), vg.to_field(p))
        assert is_zero(field.xi - direct.xi)
        assert is_zero(field.eta - direct.eta)
        assert is_zero(field.phi - direct.phi), i


def test_adjoint_table_golden():
    p = ThomasParams()
    eps = param("epsilon")
    table = adjoint_table(p, eps)
    v = [None] + [basis_element(i) for i in (1, 2, 3, 4)]
    # nilpotent rows
    assert _el_equal(table[0][3], AlgebraElement(eps * GAMMA, 0, -BETA * eps, 1))
    assert _el_equal(table[1][3], AlgebraElement(0, -eps * GAMMA, ALPHA * eps, 1))
    for j in range(3):
        assert _el_equal(table[0][j], v[j + 1])
        assert _el_equal(table[1][j], v[j + 1])
        assert _el_equal(table[2][j], v[j + 1])
    assert _el_equal(table[2][3], v[4])
    # scaling row: exponentials with the grow-direction coefficient
    decay = exp(-GAMMA * eps)
    grow = exp(GAMMA * eps)
    assert _el_equal(
        table[3][0],
        AlgebraElement(decay, 0, BETA * pow_(GAMMA, -1) * (R(1) - decay), 0),
    )
    assert _el_equal(
        table[3][1],
        AlgebraElement(0, grow, -ALPHA * pow_(GAMMA, -1) * (grow - R(1)), 0),
    )
    assert _el_equal(table[3][2], v[3])
    assert _el_equal(table[3][3], v[4])


def test_adjoint_nilpotent_matches_lie_series_symbolically():
    p = ThomasParams()
    eps = param("epsilon")
    for i in (1, 2, 3):
        for j in (1, 2, 3, 4):
            closed = adjoint(i, eps, basis_element(j), p)
            series = lie_series_adjoint(i, eps, basis_element(j), p, order=6)
            assert _el_equal(closed, series), (i, j)


def test_adjoint_scaling_rational_exact():
    p = ThomasParams(1, 2, 1)
    w = AlgebraElement(Fraction(3), Fraction(-1), Fraction(1, 2), Fraction(0))
    t = Fraction(1, 4)  # t = e^{-gamma eps}
    out = adjoint_scaling(t, w, p)
    a1, a2, a3, a4 = out.coords_exact()
    assert a1 == Fraction(3, 4)
    assert a2 == Fraction(-4)
    # a3 + a1 (beta/gamma)(1 - t) - a2 (alpha/gamma)(1/t - 1)
    assert a3 == Fraction(1, 2) + 3 * 2 * (1 - Fraction(1, 4)) - (-1) * (4 - 1)
    assert a4 == 0


def test_adjoint_v4_numeric_against_series():
    p = ThomasParams(1, 1, 1)
    for eps in (0.1, 1.0):
        closed = adjoint(4, R(1, 10) if eps == 0.1 else R(1), basis_element(1), p)
        series = lie_series_adjoint(4, R(1, 10) if eps == 0.1 else R(1),
                                    basis_element(1), p, order=25)
        from lie_thomas.expr import evaluate

        for c_expr, s_expr in zip(closed.coords(), series.coords()):
            c = evaluate(c_expr, {})
            s = evaluate(s_expr, {})
            assert abs(float(c) - float(s)) < 1e-12


def test_adjoint_rejects_g_part():
    p = ThomasParams(1, 1, 1)
    g, _ = exponential_g(R(1), p)
    with pytest.raises(AlgebraError):
        adjoint(1, R(1), g_element(g), p)
    # both entry points refuse a g part next to finite coordinates
    w = AlgebraElement(1, 2, 3, 0) + g_element(g)
    with pytest.raises(AlgebraError, match="finite part only"):
        adjoint(4, R(1), w, p)
    with pytest.raises(AlgebraError, match="finite part only"):
        adjoint_scaling(R(2), w, p)


def test_group_one_parameter_property():
    p = ThomasParams(1, 1, 1)
    pt = (0.4, -0.7, 1.3)
    for i in (1, 2, 3, 4):
        ab = group_action(i, 0.25, group_action(i, 0.35, pt, p), p)
        once = group_action(i, 0.6, pt, p)
        assert max(abs(a - b) for a, b in zip(ab, once)) < 1e-12


def test_group_action_g_domain():
    p = ThomasParams(1, 1, 1)
    g, _ = exponential_g(R(1), p)
    pt = (0.0, 0.0, 0.0)
    moved = group_action("g", 0.5, pt, p, g)
    assert moved[0] == pt[0] and moved[1] == pt[1]
    with pytest.raises(GroupDomainError):
        group_action("g", -5.0, pt, p, g)  # gamma*g*eps + e^{gamma*u} < 0


def test_transform_solution_residuals():
    from lie_thomas.verification import residual

    p = ThomasParams(1, 1, 1)

    def base(x, y):  # single exponential mode: lambda = 1, mu = -1/2
        from lie_thomas.hyperdual import exp_, log_

        return log_(exp_(x - 0.5 * y))

    pts = [(0.3, -0.2), (-1.1, 0.7), (0.0, 0.0)]
    for i in (1, 2, 3, 4):
        for eps in (0.3, -0.3):
            u = transform_solution(i, eps, base, p)
            for x, y in pts:
                assert abs(residual(u, x, y, p)) < 1e-10, (i, eps)
    u = transform_solution("g", 0.05, base, p, g=lambda x, y: 1.0)
    for x, y in pts:
        assert abs(residual(u, x, y, p)) < 1e-10


def test_family_action_with_an_expression_g_evaluates_on_rows():
    """An expression g with positive and negative integer powers evaluates
    on rows: residual() at a point, a row of one, gives the bits of that
    point's row evaluation and of its element in a longer row (this g is no
    solution, so r != 0)."""
    from lie_thomas.verification import _residuals, residual

    p = ThomasParams(1, 1, 1)
    g = pow_(X + 3, 2) * pow_(Y + 3, -1) + X * Y
    u = transform_solution("g", 0.05, lambda x, y: log_(exp_(x - 0.5 * y)), p, g=g)
    for x, y in [(0.3, -0.2), (-1.1, 0.7), (0.0, 0.0)]:
        v = u(*HyperDualRow.seed([x], [y]))
        (d_x,), (d_y,), (d_xy,) = v.dx, v.dy, v.dxy
        want = d_xy + d_x + d_y + d_x * d_y
        assert float.hex(residual(u, x, y, p)) == float.hex(want) != float.hex(0.0)
        row = _residuals(u, [x] * 3, [0.5, y, -1.5], *p.floats())
        assert float.hex(row[1]) == float.hex(want)


def test_group_word_inverse_round_trip():
    p = ThomasParams(1, 1, 1)
    w = GroupWord((GroupElement(1, 0.3), GroupElement(4, -0.2), GroupElement(3, 1.0)))
    pt = (0.5, 0.25, -0.75)
    back = w.inverse().apply(w.apply(pt, p), p)
    assert max(abs(a - b) for a, b in zip(pt, back)) < 1e-12
    both = (w * w.inverse()).apply(pt, p)
    assert max(abs(a - b) for a, b in zip(pt, both)) < 1e-12


def test_group_transport_round_trip_keeps_a_family_a_solution():
    """A word transported and then its inverse gives back f; the moved
    family still solves the equation."""
    p = ThomasParams(1, 1, 1)
    f = case21a_solution(p)
    el = GroupElement(4, 0.4)
    w = GroupWord((GroupElement(1, 0.3), el, GroupElement(3, 1.0),
                   GroupElement("g", 0.05, lambda x, y: 1.0)))
    moved = w.transport(f, p)
    backs = (el.inverse().transport(el.transport(f, p), p), w.inverse().transport(moved, p),
             (w * w.inverse()).transport(f, p))
    for x, y in _points(random.Random(9006)):
        assert all(abs(back(x, y) - f(x, y)) < 1e-12 for back in backs), (x, y)
        assert abs(residual(moved, x, y, p)) < 1e-8, (x, y)


# --- one flow per generator ---------------------------------------------------
# The formulas each generator had before its group was written once as a flow:
# the point action, and the solution transport inverted from it by hand.


def _old_group_action(i, eps, pt, p, g=None):
    x, y, u = pt
    if i == 1:
        return (x + eps, y, u)
    if i == 2:
        return (x, y + eps, u)
    if i == 3:
        return (x, y, u + eps)
    alpha, beta, gamma = p.floats()
    if i == 4:
        decay = math.exp(-gamma * eps)
        grow = math.exp(gamma * eps)
        return (
            x * decay,
            y * grow,
            beta / gamma * x * (1 - decay) + alpha / gamma * y * (1 - grow) + u,
        )
    return (x, y, math.log(gamma * g(x, y) * eps + math.exp(gamma * u)) / gamma)


def _old_transform_solution(i, eps, f, p, g=None):
    alpha, beta, gamma = p.floats()
    if i == 1:
        return lambda x, y: f(x - eps, y)
    if i == 2:
        return lambda x, y: f(x, y - eps)
    if i == 3:
        return lambda x, y: f(x, y) + eps
    if i == 4:
        grow = math.exp(gamma * eps)
        decay = math.exp(-gamma * eps)
        return lambda x, y: (beta / gamma * x * (grow - 1) + alpha / gamma * y * (decay - 1)
                             + f(x * grow, y * decay))
    return lambda x, y: log_(gamma * g(x, y) * eps + exp_(gamma * f(x, y))) / gamma


_FLOW_PARAMS = [ThomasParams(1, 1, 1), ThomasParams(Fraction(3, 2), -1, Fraction(1, 2)),
                ThomasParams(-2, Fraction(1, 3), -1)]


def _flow_cases(p):
    """(generator, eps, g) for the four finite generators at eps = +-0.3 and
    the family generator at eps = 0.05, with g = 1 and with an exponential
    g in the family."""
    g_exp = exponential_g(R(1, 2), p)[0]
    return ([(i, eps, None) for i in (1, 2, 3, 4) for eps in (0.3, -0.3)]
            + [("g", 0.05, lambda x, y: 1.0),
               ("g", 0.05, lambda x, y: evaluate(g_exp, {"x": x, "y": y}))])


def _points(rng, n=20):
    return [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]


def _parts(z):
    """A float, or the four parts of each element of a row, in one tuple."""
    return (*z.value, *z.dx, *z.dy, *z.dxy) if isinstance(z, HyperDualRow) else (z,)


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(b))


def test_transport_moves_the_graph_of_the_point_action():
    """The moved solution's graph is the image of the old graph: at the image
    (x1, y1) of a graph point it takes the image value u1."""
    p = ThomasParams(1, 1, 1)
    rng = random.Random(9001)
    cases = [(i, eps, None) for i in (1, 2, 3, 4) for eps in (0.3, -0.3)]
    cases.append(("g", 0.05, lambda x, y: 1.0))
    for f in oracle_solutions(p, count=3, rng=random.Random(9002)):
        for i, eps, g in cases:
            moved = transform_solution(i, eps, f, p, g)
            for x0, y0 in _points(rng):
                x1, y1, u1 = group_action(i, eps, (x0, y0, f(x0, y0)), p, g)
                assert _close(moved(x1, y1), u1), (i, eps, x0, y0)


def test_group_action_equals_the_old_formulas():
    rng = random.Random(9003)
    for p in _FLOW_PARAMS:
        for i, eps, g in _flow_cases(p):
            for x, y in _points(rng):
                pt = (x, y, rng.uniform(-1, 1))
                assert group_action(i, eps, pt, p, g) == _old_group_action(i, eps, pt, p, g)


def test_transport_equals_the_old_formulas():
    """Bit for bit, on floats and on every hyper-dual part, except v4: the
    flow forms x*grow*(1 - decay) where the reference forms x*(grow - 1)."""
    rng = random.Random(9004)
    for p in _FLOW_PARAMS:
        for f in oracle_solutions(p, count=3, rng=random.Random(9005)):
            for i, eps, g in _flow_cases(p):
                new = transform_solution(i, eps, f, p, g)
                old = _old_transform_solution(i, eps, f, p, g)
                for x, y in _points(rng):
                    for args in ((x, y), HyperDualRow.seed([x], [y])):
                        got, want = _parts(new(*args)), _parts(old(*args))
                        if i == 4:
                            assert all(_close(a, b) for a, b in zip(got, want)), (i, eps, x, y)
                        else:
                            assert got == want, (i, eps, x, y)


def test_translation_transport_accepts_symbolic_constants():
    p = ThomasParams()

    def f(x, y):
        return x * y

    for i in (1, 2, 3):
        moved = transform_solution(i, 0.5, f, p)
        x1, y1, u1 = group_action(i, 0.5, (0.25, -0.5, f(0.25, -0.5)), p)
        assert moved(x1, y1) == u1
    for i in (4, "g"):
        with pytest.raises(ParameterError):
            transform_solution(i, 0.5, f, p, g=1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_floats_are_refused_as_inexact(bad):
    p = ThomasParams(1, 1, 1)
    with pytest.raises(AlgebraError, match="must be exact"):
        AlgebraElement(bad)
    with pytest.raises(AlgebraError, match="must be exact"):
        adjoint(1, bad, basis_element(4), p)
    with pytest.raises(ParameterError, match="must be exact"):
        ThomasParams(bad, 1, 1)


def test_element_difference_adds_the_negated_element():
    v = AlgebraElement(1, 2, 3, 4, g=X * Y)
    w = AlgebraElement(Fraction(1, 2), -1, 0, 2, g=X)
    assert v - w == v + w.scale(-1)
    assert (v - w).coords_exact() == (Fraction(1, 2), 3, 3, 2)
    assert is_zero((v - w).g - (X * Y - X))
    assert (v - v).is_zero()
    with pytest.raises(TypeError):
        v - 1
