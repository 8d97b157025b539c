"""Determining system: golden rows, symmetry certificates, redundancy split."""

from fractions import Fraction

import pytest

from lie_thomas import determining
from lie_thomas.algebra import AlgebraElement, adjoint, basis_element, commutator
from lie_thomas.determining import (
    ParameterError,
    ThomasParams,
    check_symmetry,
    determining_equations,
    exponential_g,
    general_symmetry,
    linearized_constraint,
    thomas_delta,
    v1,
    v2,
    v3,
    v4,
    v_g,
)
from lie_thomas.expr import (
    ALPHA,
    BETA,
    GAMMA,
    R,
    U,
    U_X,
    U_XY,
    U_Y,
    UFunc,
    X,
    Y,
    add,
    differentiate,
    exp,
    jet_symbols,
    mul,
    param,
    pow_,
    substitute,
)
from lie_thomas.jetpoly import mono_expr
from lie_thomas.normal import canonical_expr, equal, is_zero, normal_form
from lie_thomas.printer import to_text
from lie_thomas.vectorfield import VectorField, apply_prolonged, prolong, symbolic_field


def _d(f, *vs):
    for v in vs:
        f = differentiate(f, v)
    return f


def _golden_rows():
    """The twelve published monomial/coefficient rows, transcribed."""
    vf = symbolic_field()
    xi, eta, phi = vf.xi, vf.eta, vf.phi
    return [
        ("1", ALPHA * _d(phi, X) + BETA * _d(phi, Y) + _d(phi, X, Y)),
        ("u_x", _d(phi, Y, U) - _d(xi, X, Y) + GAMMA * _d(phi, Y)
         - BETA * _d(xi, Y) + ALPHA * _d(eta, Y)),
        ("u_y", _d(phi, X, U) - _d(eta, X, Y) + GAMMA * _d(phi, X)
         - ALPHA * _d(eta, X) + BETA * _d(xi, X)),
        ("u_x*u_y", _d(phi, U, U) - _d(xi, U, X) - _d(eta, Y, U)
         + BETA * _d(xi, U) + ALPHA * _d(eta, U) + GAMMA * _d(phi, U)),
        ("u_x^2", -_d(xi, Y, U) - GAMMA * _d(xi, Y) + ALPHA * _d(xi, U)),
        ("u_y^2", -_d(eta, X, U) - GAMMA * _d(eta, X) + BETA * _d(eta, U)),
        ("u_y*u_x^2", -_d(xi, U, U)),
        ("u_x*u_y^2", -_d(eta, U, U)),
        ("u_xx", -_d(xi, Y)),
        ("u_yy", -_d(eta, X)),
        ("u_xx*u_y", -_d(xi, U)),
        ("u_x*u_yy", -_d(eta, U)),
    ]


def test_table_of_determining_rows_golden():
    system = determining_equations(ThomasParams())
    golden = _golden_rows()
    assert len(system.rows) == 12
    for (mono, coeff), (want_mono, want_coeff) in zip(system.rows, golden):
        assert to_text(mono_expr(mono)) == want_mono
        # string-normalized symbolic comparison
        assert to_text(coeff) == to_text(canonical_expr(want_coeff)), want_mono


def test_row_redundancy_split():
    """Rows 5-8 follow from rows 9-12; rows 2-3 do not."""
    system = determining_equations(ThomasParams())
    rows = dict(
        (to_text(mono_expr(m)), c) for m, c in system.rows
    )
    # a field satisfying rows 9-12 by construction: xi = xi(x), eta = eta(y)
    from lie_thomas.expr import UFunc

    xi = UFunc("a", ("x",))()
    eta = UFunc("b", ("y",))()
    phi = UFunc("c", ("x", "y", "u"))()
    binding = {"xi": xi, "eta": eta, "phi": phi}

    def specialize(e):
        # substitute the generic field slots by structural replacement
        return _subst_field(e, binding)

    for name in ("u_x^2", "u_y^2", "u_y*u_x^2", "u_x*u_y^2",
                 "u_xx", "u_yy", "u_xx*u_y", "u_x*u_yy"):
        assert is_zero(specialize(rows[name])), name
    # counterexamples: xi = eta = 0 with phi = y (resp. x) satisfy rows
    # 9-12 identically yet leave the u_x (resp. u_y) row nonzero
    cex_y = {"xi": R(0), "eta": R(0), "phi": Y}
    cex_x = {"xi": R(0), "eta": R(0), "phi": X}
    for cex in (cex_y, cex_x):
        for name in ("u_xx", "u_yy", "u_xx*u_y", "u_x*u_yy"):
            assert is_zero(_subst_field(rows[name], cex))
    assert not is_zero(_subst_field(rows["u_x"], cex_y))
    assert not is_zero(_subst_field(rows["u_y"], cex_x))


def _subst_field(e, binding):
    """Replace the symbolic field functions xi/eta/phi (any derivative
    order) by derivatives of concrete expressions."""
    from lie_thomas.expr import Add, App, Func, Mul, Pow, Rat, Sym, add, app, mul, pow_
    from lie_thomas.expr import U, X, Y

    slot = {"x": X, "y": Y, "u": U}

    def walk(n):
        if isinstance(n, (Rat, Sym)):
            return n
        if isinstance(n, Func):
            if n.name in binding:
                out = binding[n.name]
                # derivs holds per-parameter multiplicities
                for idx, count in enumerate(n.derivs):
                    for _ in range(count):
                        out = differentiate(out, slot[n.params[idx]])
                return out
            return n
        if isinstance(n, Add):
            return add(*[walk(t) for t in n.terms])
        if isinstance(n, Mul):
            return mul(*[walk(f) for f in n.factors])
        if isinstance(n, Pow):
            return pow_(walk(n.base), n.exp)
        if isinstance(n, App):
            return app(n.fn, walk(n.arg))
        raise TypeError(n)

    return walk(e)


def test_check_symmetry_basis_symbolic():
    p = ThomasParams()
    for field in (v1(), v2(), v3(), v4(p)):
        ok, residual = check_symmetry(field, p)
        assert ok, to_text(residual)


def test_check_symmetry_span_closure(rng):
    p = ThomasParams()
    for _ in range(5):
        c1, c2, c3, c4 = (Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
        ok, residual = check_symmetry(general_symmetry(c3, c2, c1, c4, p=p), p)
        assert ok, to_text(residual)


def test_check_symmetry_rejects_non_symmetry():
    ok, residual = check_symmetry(VectorField(Y, R(0), R(0)), ThomasParams())
    assert not ok
    assert not is_zero(residual)


def test_v_g_exponential_family_symbolic():
    p = ThomasParams()
    lam = R(2)
    g, mu = exponential_g(lam, p)
    assert is_zero(linearized_constraint(g, p))
    ok, residual = check_symmetry(v_g(g, p), p)
    assert ok, to_text(residual)


def test_v_g_rejects_non_solution():
    with pytest.raises(ParameterError):
        v_g(X * Y, ThomasParams(1, 1, 1))


def test_general_symmetry_certificate():
    p = ThomasParams()
    g, _ = exponential_g(R(1), p)
    field = general_symmetry(R(2), R(-1), R(1, 3), R(1), g, p)
    ok, residual = check_symmetry(field, p)
    assert ok, to_text(residual)


@pytest.mark.parametrize("constants, admitted", [
    ((3, 0, 1), True), ((0, 2, 5), True), ((0, 0, 1), True), ((1, 2, 3), False),
])
def test_alpha_beta_zero_admits_more_than_the_four_fields(constants, admitted):
    """Ledger slug most-general-symmetry-alpha-beta-zero: where alpha*beta
    = 0, xi(x) d/dx - (beta/gamma) xi(x) d/du and eta(y) d/dy - (alpha/gamma)
    eta(y) d/du are symmetries for any xi and eta, which general_symmetry
    does not span; where alpha*beta != 0 they are not."""
    p = ThomasParams(*constants)
    xi, eta = X**3 + exp(X), Y**2 + exp(2 * Y)
    along_x = VectorField(xi, R(0), -p.beta / p.gamma * xi)
    along_y = VectorField(R(0), eta, -p.alpha / p.gamma * eta)
    assert [check_symmetry(f, p)[0] for f in (along_x, along_y)] == [admitted] * 2


def test_v_g_for_every_g_and_the_adjoint_for_every_eps():
    """Two closed forms proved rather than sampled.  (a) With g an unknown
    function of (x, y), the residual of v_g plus (1/gamma) e^{-gamma u}
    (alpha g_x + beta g_y + g_xy) is zero, so v_g is a symmetry exactly
    where g solves the linearized equation, for every g; stated as a
    difference that is zero, since ``normal`` has no polynomial gcd to
    divide by.  Checked at symbolic constants and at four rational sets,
    two with alpha*beta = 0.  (b) For each generator and a symbolic w,
    Ad(eps) = adjoint(i, eps, w) solves d/deps Ad = -[v_i, Ad] with
    Ad(0) = w at symbolic constants; a linear ODE with an initial value
    has one solution, so the closed forms are the adjoint action for
    every eps.  The sampled checks stay beside this one.  (a) runs on
    the rows: v_g's hand-built copy keeps nothing of how it was built, so
    check_symmetry does not read it off the identity it would check."""
    g = UFunc("g", ("x", "y"))()
    for p in (ThomasParams(), ThomasParams(Fraction(2, 3), Fraction(-5, 2), Fraction(7, 4)),
              ThomasParams(Fraction(-1, 2), 0, Fraction(5, 3)), ThomasParams(0, 3, -1),
              ThomasParams(0, 0, 1)):
        vf = v_g(g, p, check=False)
        ok, residual = check_symmetry(VectorField(vf.xi, vf.eta, vf.phi), p)
        on_g = mul(pow_(p.gamma, -1), exp(-p.gamma * U), linearized_constraint(g, p))
        assert not ok and is_zero(add(residual, on_g)), p
    eps = param("epsilon")
    w = AlgebraElement(*[param("w%d" % i) for i in (1, 2, 3, 4)])
    p = ThomasParams()
    for i in (1, 2, 3, 4):
        ad = adjoint(i, eps, w, p)
        bracket = commutator(basis_element(i), ad, p)
        assert ad.g == bracket.g == 0, i
        for a, b, a0 in zip(ad.coords(), bracket.coords(), w.coords()):
            assert is_zero(add(differentiate(a, eps), b)), (i, a)
            assert equal(substitute(a, {eps: 0}), a0), (i, a)


def test_linearized_constraint_takes_each_derivative_of_g_once(monkeypatch):
    """g_xy is taken from the g_x of the alpha term: g is differentiated
    by u (the check that g is free of u), x and y once each, and g_x by
    y."""
    taken = []

    def recorded(e, s):
        taken.append((e, s))
        return differentiate(e, s)

    monkeypatch.setattr(determining, "differentiate", recorded)
    g = UFunc("g", ("x", "y"))()
    linearized_constraint(g, ThomasParams())
    assert sorted(taken, key=repr) == sorted([(g, U), (g, X), (g, Y), (differentiate(g, X), Y)],
                                             key=repr)


def test_linearized_constraint_closure():
    # if g solves the constraint, so do g_x, g_y and
    # psi = -gamma x g_x + gamma y g_y - gamma (beta x - alpha y) g
    p = ThomasParams()
    g, _ = exponential_g(R(3, 2), p)
    assert is_zero(linearized_constraint(g, p))
    gx = differentiate(g, X)
    gy = differentiate(g, Y)
    assert is_zero(linearized_constraint(gx, p))
    assert is_zero(linearized_constraint(gy, p))
    psi = -GAMMA * X * gx + GAMMA * Y * gy - GAMMA * (BETA * X - ALPHA * Y) * g
    assert is_zero(linearized_constraint(psi, p))


def test_the_rows_are_the_action_on_the_manifold():
    """The rows times their jet monomials are the prolonged symbolic action
    on the equation with u_xy replaced by -(alpha u_x + beta u_y + gamma
    u_x u_y); no row is keyed by u_xy, and the action's normal form has
    denominator one."""
    p = ThomasParams()
    rest = ALPHA * U_X + BETA * U_Y + GAMMA * U_X * U_Y
    action = apply_prolonged(prolong(symbolic_field()), thomas_delta(p))
    on_manifold = substitute(action, {U_XY: -rest})
    rows = determining_equations(p).rows
    assert not any(U_XY in jet_symbols(mono_expr(m)) for m, _ in rows)
    assert equal(add(*[c * mono_expr(m) for m, c in rows]), on_manifold)
    assert normal_form(on_manifold).den == {(): 1}


def test_parameter_coercion():
    with pytest.raises(ParameterError):
        ThomasParams(1, 1, 0)  # gamma must not vanish
    with pytest.raises(ParameterError):
        ThomasParams(0.5, 1, 1)  # non-integral floats are ambiguous
    with pytest.raises(ParameterError, match="cannot use 'a'"):
        ThomasParams("a", 1, 1)
    assert ThomasParams(2.0, 1, 1).alpha == R(2)
    p = ThomasParams(Fraction(1, 2), 1, 2)
    assert p.is_numeric()
    assert p.floats() == (0.5, 1.0, 2.0)


def test_floats_are_converted_once():
    p = ThomasParams(Fraction(1, 3), -2, 7)
    assert p.floats() is p.floats()
    assert p.floats() == (1 / 3, -2.0, 7.0)
    with pytest.raises(ParameterError, match="^parameters are symbolic$"):
        ThomasParams(alpha=1, beta=2).floats()
    with pytest.raises(ParameterError, match="^constant beta is too large for a float$"):
        ThomasParams(1, 10**400, 10**400).floats()


def test_delta_shape():
    d = thomas_delta(ThomasParams())
    assert is_zero(d - (U_XY + ALPHA * U_X + BETA * U_Y + GAMMA * U_X * U_Y))


@pytest.mark.parametrize("p", [ThomasParams(), ThomasParams(1, 1, 1),
                               ThomasParams(2, Fraction(-1, 2), 3)],
                         ids=["symbolic", "1,1,1", "2,-1/2,3"])
def test_every_field_builder_is_the_general_symmetry(p):
    """v1..v4 build the same trees as general_symmetry."""

    def key(vf):
        return vf.xi.key(), vf.eta.key(), vf.phi.key()

    assert key(v1()) == key(general_symmetry(c=1, p=p))
    assert key(v2()) == key(general_symmetry(b=1, p=p))
    assert key(v3()) == key(general_symmetry(a=1, p=p))
    assert key(v4(p)) == key(general_symmetry(k=1, p=p))


def test_determining_system_iterates_its_rows():
    system = determining_equations(ThomasParams())
    assert len(system) == 12
    assert list(system) == list(system.rows)
