"""Differential tests of the exact kernel's accumulation.

``_ref_collect`` and ``_ref_normal_form`` are the straightforward forms of
``jetpoly._collect`` and ``normal.normal_form``: the first folds every
contribution into the running coefficient with a binary ``add``, the second
cross-multiplies every sum and product term by the other side's
denominator, unit or not.  ``_ref_prolong_raw`` spells every total
derivative of the second prolongation out in place.  The kernel must give
structurally identical results (equal node keys), not merely equal values.
"""

import random
from fractions import Fraction

import pytest

from lie_thomas import expr, jetpoly, normal
from lie_thomas.determining import ThomasParams, determining_equations
from lie_thomas.expr import (
    ALPHA,
    BETA,
    GAMMA,
    JETS,
    ONE,
    U,
    UFunc,
    X,
    Y,
    ZERO,
    Add,
    App,
    Func,
    Mul,
    Pow,
    Rat,
    Sym,
    add,
    app,
    contains_jet,
    mul,
    pow_,
)
from lie_thomas.jetpoly import JetPolynomial
from lie_thomas.vectorfield import (
    COEFF_KEYS,
    ProlongationError,
    prolong,
    symbolic_field,
    total_derivative,
)

# --- reference implementations ---------------------------------------------


def _ref_fold_product(out, part):
    nxt = {}
    for m1, c1 in out.items():
        for m2, c2 in part.items():
            m = jetpoly._mono_mul(m1, m2)
            s = add(nxt.get(m, ZERO), mul(c1, c2))
            if s == ZERO:
                nxt.pop(m, None)
            else:
                nxt[m] = s
    return nxt


def _ref_collect(e):
    one = jetpoly._MONO_ONE
    if isinstance(e, Rat) or (isinstance(e, Sym) and e.kind != "jet"):
        return {one: e} if e != ZERO else {}
    if isinstance(e, Sym):
        mono = list(one)
        mono[jetpoly._JET_POS[e]] = 1
        return {tuple(mono): ONE}
    if isinstance(e, (Func, App)):
        assert not contains_jet(e)
        return {one: e}
    if isinstance(e, Add):
        out = {}
        for t in e.terms:
            for m, c in _ref_collect(t).items():
                s = add(out.get(m, ZERO), c)
                if s == ZERO:
                    out.pop(m, None)
                else:
                    out[m] = s
        return out
    if isinstance(e, Mul):
        out = {one: ONE}
        for f in e.factors:
            out = _ref_fold_product(out, _ref_collect(f))
        return out
    assert isinstance(e, Pow)
    if not contains_jet(e.base):
        return {one: e}
    assert e.exp >= 0
    out = {one: ONE}
    base = _ref_collect(e.base)
    for _ in range(e.exp):
        out = _ref_fold_product(out, base)
    return out


def _ref_poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            k, m = normal._mono_mul(m1, m2)
            s = out.get(m, Fraction(0)) + c1 * c2 * k
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _ref_poly_pow(p, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _ref_poly_mul(out, p)
    return out


def _ref_normal_form(e):
    unit = {(): Fraction(1)}
    if isinstance(e, Rat):
        return normal.NormalForm(normal._poly_const(e.value), dict(unit))
    if isinstance(e, (Sym, Func)):
        return normal.NormalForm(normal._atom_poly(normal._rebuild_atom(e)), dict(unit))
    if isinstance(e, App):
        atom = normal._rebuild_atom(e)
        if isinstance(atom, App):
            return normal.NormalForm(normal._atom_poly(atom), dict(unit))
        return _ref_normal_form(atom)
    if isinstance(e, Add):
        num, den = {}, dict(unit)
        for t in e.terms:
            nf = _ref_normal_form(t)
            num = normal._poly_add(_ref_poly_mul(num, nf.den), _ref_poly_mul(nf.num, den))
            den = _ref_poly_mul(den, nf.den)
        return normal.NormalForm(num, den)
    if isinstance(e, Mul):
        num, den = dict(unit), dict(unit)
        for f in e.factors:
            nf = _ref_normal_form(f)
            num = _ref_poly_mul(num, nf.num)
            den = _ref_poly_mul(den, nf.den)
        return normal.NormalForm(num, den)
    assert isinstance(e, Pow)
    nf = _ref_normal_form(e.base)
    if e.exp >= 0:
        return normal.NormalForm(_ref_poly_pow(nf.num, e.exp), _ref_poly_pow(nf.den, e.exp))
    n = -e.exp
    return normal.NormalForm(_ref_poly_pow(nf.den, n), _ref_poly_pow(nf.num, n))


def _ref_prolong_raw(vf):
    """The five raw coefficients, every total derivative written out."""
    D = total_derivative
    xi, eta, phi = vf.xi, vf.eta, vf.phi
    u_x, u_y = JETS[(1, 0)], JETS[(0, 1)]
    u_xx, u_xy, u_yy = JETS[(2, 0)], JETS[(1, 1)], JETS[(0, 2)]
    characteristic = phi - xi * u_x - eta * u_y
    return {
        (1, 0): D(phi, "x") - u_x * D(xi, "x") - u_y * D(eta, "x"),
        (0, 1): D(phi, "y") - u_x * D(xi, "y") - u_y * D(eta, "y"),
        (1, 1): D(D(characteristic, "y"), "x") + xi * JETS[(2, 1)] + eta * JETS[(1, 2)],
        (2, 0): D(D(phi, "x"), "x") - 2 * u_xx * D(xi, "x") - 2 * u_xy * D(eta, "x")
        - u_x * D(D(xi, "x"), "x") - u_y * D(D(eta, "x"), "x"),
        (0, 2): D(D(phi, "y"), "y") - 2 * u_xy * D(xi, "y") - 2 * u_yy * D(eta, "y")
        - u_x * D(D(xi, "y"), "y") - u_y * D(D(eta, "y"), "y"),
    }


# --- helpers ----------------------------------------------------------------


def _keys(coeffs: dict) -> dict:
    return {m: c.key() for m, c in coeffs.items()}


def _nf_keys(nf):
    return (nf.num, nf.den)


_XI = UFunc("xi", ("x", "y", "u"))
_ATOMS = (X, Y, U, ALPHA, BETA, GAMMA, _XI(), _XI.d("x"), _XI.d("u", "u"),
          app("log", X), app("tan", add(X, Y)))
_JET_ATOMS = tuple(JETS[k] for k in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)))


def _rational(rng):
    return Rat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def _coefficient(rng, inverse=True):
    """A jet-free product, possibly with negative powers and exp factors."""
    factors = [_rational(rng)]
    for _ in range(rng.randint(0, 3)):
        a = rng.choice(_ATOMS)
        n = rng.choice((1, 1, 2, -1)) if inverse else rng.choice((1, 2))
        factors.append(pow_(a, n))
    if rng.random() < 0.3:
        factors.append(app("exp", mul(_rational(rng), rng.choice((X, U)))))
    if inverse and rng.random() < 0.2:
        factors.append(pow_(add(ONE, mul(_rational(rng), rng.choice(_ATOMS))), -1))
    return mul(*factors)


def _jet_monomial(rng):
    return mul(*[pow_(j, rng.randint(1, 2)) for j in rng.sample(_JET_ATOMS, rng.randint(0, 2))])


def random_jet_polynomial(rng):
    """A sum with repeated and cancelling jet monomials, products of sums
    and a jet-carrying power, so every branch of the collection runs."""
    monos = [_jet_monomial(rng) for _ in range(3)]
    terms = [mul(_coefficient(rng), rng.choice(monos)) for _ in range(rng.randint(2, 8))]
    if rng.random() < 0.5:
        # (j + c)(j - c): the j coefficients cancel inside the product
        j, c = rng.choice(_JET_ATOMS), _coefficient(rng, False)
        terms.append(mul(_coefficient(rng), add(j, c), add(j, mul(Rat(-1), c))))
    if rng.random() < 0.5:
        inner = add(*[mul(_coefficient(rng, False), rng.choice(monos)) for _ in range(2)])
        terms.append(mul(_coefficient(rng), inner, add(rng.choice(_JET_ATOMS), _rational(rng))))
    if rng.random() < 0.5:
        base = add(rng.choice(_JET_ATOMS), mul(_coefficient(rng, False), rng.choice(_JET_ATOMS)))
        terms.append(pow_(base, rng.randint(2, 3)))
    return add(*terms)


def random_rational_expr(rng):
    """A jet-free rational expression with sums in denominators."""
    num = add(*[_coefficient(rng) for _ in range(rng.randint(1, 4))])
    den = ZERO
    while den == ZERO:
        den = add(*[_coefficient(rng, False) for _ in range(rng.randint(1, 3))])
    e = add(num, mul(_coefficient(rng), pow_(den, -1)))
    if rng.random() < 0.5:
        e = mul(e, pow_(add(_coefficient(rng, False), ONE), 2))
    return e


# --- differential tests -----------------------------------------------------


@pytest.mark.parametrize("case", range(60))
def test_collect_matches_fold_reference(case, seed):
    rng = random.Random(seed * 1000 + case)
    e = random_jet_polynomial(rng)
    assert _keys(jetpoly._collect(e)) == _keys(_ref_collect(e))


@pytest.mark.parametrize("case", range(60))
def test_normal_form_matches_generic_reference(case, seed, monkeypatch):
    rng = random.Random(seed * 1000 + case)
    for e in (random_rational_expr(rng), random_jet_polynomial(rng)):
        assert _nf_keys(normal.normal_form(e)) == _nf_keys(_ref_normal_form(e))
        got = normal.canonical_expr(e)
        with monkeypatch.context() as mp:
            mp.setattr(normal, "normal_form", _ref_normal_form)
            want = normal.canonical_expr(e)
        assert got.key() == want.key()


def test_prolongation_coefficients_match_reference():
    vf = symbolic_field()
    want = {k: _keys(_ref_collect(raw)) for k, raw in _ref_prolong_raw(vf).items()}
    pf = prolong(vf)
    for key in COEFF_KEYS:
        assert _keys(pf.coefficient(key).coeffs) == want[key], key


def _row_keys(p):
    return [(m, c.key()) for m, c in determining_equations(p).rows]


def _rational_params(rng):
    alpha, beta = (Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(2))
    gamma = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    return ThomasParams(alpha, beta, gamma)


def test_determining_rows_match_reference(monkeypatch, seed):
    rng = random.Random(seed)
    params = [ThomasParams()] + [_rational_params(rng) for _ in range(20)]
    with monkeypatch.context() as mp:
        # the whole derivation on the reference accumulation
        mp.setattr(jetpoly, "_collect", _ref_collect)
        mp.setattr(normal, "normal_form", _ref_normal_form)
        want = [_row_keys(p) for p in params]
    for p, rows in zip(params, want):
        assert _row_keys(p) == rows, p


# --- complexity and guard ---------------------------------------------------


def _add_nodes_built(monkeypatch, e) -> int:
    count = [0]
    init = expr.Add.__init__

    def counting_init(self, terms):
        count[0] += 1
        init(self, terms)

    with monkeypatch.context() as mp:
        mp.setattr(expr.Add, "__init__", counting_init)
        JetPolynomial.from_expr(e)
    return count[0]


@pytest.mark.parametrize("n", (50, 100))
def test_shared_monomial_collects_in_constant_add_nodes(monkeypatch, n):
    """n terms on one jet monomial are summed by one n-ary add, not folded
    one by one (which builds a fresh Add node for every partial sum)."""
    coeffs = [expr.param("k%d" % i) for i in range(n)]
    e = add(*[mul(c, JETS[(1, 0)], JETS[(0, 1)]) for c in coeffs])
    assert _add_nodes_built(monkeypatch, e) <= 2


def test_third_order_guard_still_raises(monkeypatch):
    # without the xi*u_xxy correction the characteristic form leaves u_xxy
    from lie_thomas import vectorfield

    monkeypatch.setattr(vectorfield, "U_XXY", ZERO)
    with pytest.raises(ProlongationError, match="third-order jets"):
        prolong(symbolic_field())
