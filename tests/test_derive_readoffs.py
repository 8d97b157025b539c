"""Tests of three read-offs the derive certificate and the tables make from
what the algebra fixes, each against the route it replaces.

Antisymmetry: the commutator table is derived, and bound, above its
diagonal only; each entry below it is the entry above negated, and must be
``commutator(v_j, v_i)`` key for key.  The dispersion relation: a g =
e^{lambda x + mu y + nu} with constant lambda and mu solves the linearized
equation iff alpha*lambda + beta*mu + lambda*mu = 0, so ``v_g`` decides it
without differentiating g; its flag must be ``is_zero`` of the linearized
constraint, and a g off the relation must raise the message the
differentiation route raises.  Every other g keeps that route.  Constant
generators: v1, v2 and v3 are built once.
"""

import random
from fractions import Fraction

import pytest

from lie_thomas import determining
from lie_thomas.algebra import (
    _symbolic_tables,
    basis_element,
    commutator,
    commutator_table,
    g_element,
)
from lie_thomas.determining import (
    ThomasParams,
    check_symmetry,
    exponential_g,
    linearized_constraint,
    v1,
    v2,
    v3,
    v_g,
)
from lie_thomas.expr import ALPHA, BETA, GAMMA, U, App, UFunc, X, Y, ZERO, exp, param
from lie_thomas.normal import is_zero
from lie_thomas.params import ParameterError

from test_table_readoff import _GS

_G = UFunc("g", ("x", "y"))()
_A, _C = param("a"), param("c")

# symbolic; mixed, one with alpha*beta = 0; rational, three with
# alpha*beta = 0
_PARAMS = [
    ThomasParams(),
    ThomasParams(alpha=2), ThomasParams(beta=Fraction(-1, 3), gamma=5),
    ThomasParams(_A, 0, 1), ThomasParams(BETA, Fraction(3, 2), Fraction(-2, 7)),
    ThomasParams(Fraction(2, 3), Fraction(-1, 2), 3), ThomasParams(1, -1, 1),
    ThomasParams(0, 3, -1), ThomasParams(Fraction(-1, 2), 0, Fraction(5, 3)),
    ThomasParams(0, 0, 1),
]


def _parts(e):
    return (*e.coords(), e.g)


def test_the_symbolic_lower_triangle_is_the_reversed_bracket():
    p = ThomasParams()
    cached = _symbolic_tables()[0]
    for g in _GS:
        basis = [basis_element(i) for i in (1, 2, 3, 4)] + [g_element(_G if g is None else g)]
        table = commutator_table(p, g)
        for j in range(5):
            assert all(a is ZERO for a in _parts(table[j][j])), (g, j)
            for i in range(j):
                want = commutator(basis[j], basis[i], p)
                assert _parts(table[j][i]) == _parts(want), (g, j, i)
                if g is None:
                    assert _parts(cached[j][i]) == _parts(want), (j, i)


def _rate(rng):
    """lambda or nu: zero, a rational, a symbol, or an expression in the
    constants."""
    return rng.choice((0, Fraction(rng.randint(-7, 7), rng.randint(1, 3)), _A, _C,
                       ALPHA + 1, -GAMMA / 2))


def _exponentials(p, rng, n=12):
    """n seeded (lambda, mu, nu); mu is on the relation (mu = -alpha*lambda
    / (lambda + beta)) by a coin, and otherwise that plus one, which is off
    it.  Where lambda + beta is zero, lambda = -beta and mu is any rate."""
    out = []
    for _ in range(n):
        lam, nu = _rate(rng), _rate(rng)
        denom = lam + p.beta
        if is_zero(denom):
            mu = _rate(rng)
        else:
            mu = -p.alpha * lam / denom
            if rng.random() < 0.5:
                mu = mu + 1
        out.append((lam, mu, nu))
    return out


@pytest.fixture
def constraints(monkeypatch):
    """The g's linearized_constraint is built for, recorded; the identities
    are proved first, so the proof's own calls are not among them."""
    determining._proved_identity()
    seen = []
    real = determining.linearized_constraint

    def recorded(g, p=ThomasParams()):
        seen.append(g)
        return real(g, p)

    monkeypatch.setattr(determining, "linearized_constraint", recorded)
    return seen


def _outcome(g, p):
    """(True, field) or (False, error message) of v_g(g, p)."""
    try:
        return True, v_g(g, p)
    except ParameterError as exc:
        return False, str(exc)


def test_the_dispersion_flag_is_the_linearized_constraints_zero_test(seed, constraints):
    """linearized_constraint (the test module's own, unrecorded) is the
    oracle; v_g builds it only for a g off the relation, for the message."""
    rng = random.Random(seed)
    on = off = 0
    for p in _PARAMS:
        for lam, mu, nu in _exponentials(p, rng):
            g = exp(lam * X + mu * Y + nu)  # at lam = mu = nu = 0 the Rat 1
            want = linearized_constraint(g, p)
            del constraints[:]
            ok, out = _outcome(g, p)
            assert ok is is_zero(want), (p, g)
            if ok:
                on += 1
                assert constraints == ([] if type(g) is App else [g]), (p, g)
                assert check_symmetry(out, p) == (True, ZERO), (p, g)
            else:
                off += 1
                assert constraints == [g], (p, g)
                assert out == ("g does not satisfy the linearized equation; residual %r"
                               % want), (p, g)
    assert on >= 20 and off >= 20, (on, off)


def test_exponential_g_is_on_the_relation(seed, constraints):
    rng = random.Random(seed)
    for p in _PARAMS:
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        g, _ = exponential_g(lam + 1 if p.beta == -lam else lam, p)
        assert _outcome(g, p)[0] and constraints == [], (p, g)


_H = UFunc("h", ("x", "y"))()
_OFF_ROUTE = [exp(X * Y), exp(X**2), exp(U + X), exp(_H), 2 * exp(X),
              exp(X - Y / 2) + exp(2 * X - 2 * Y / 3), exp(X) + exp(-Y)]


@pytest.mark.parametrize("g", _OFF_ROUTE, ids=[
    "exp(x*y)", "exp(x**2)", "exp(u+x)", "exp(h(x,y))", "2*exp(x)", "two exps on", "two exps"])
def test_other_g_keep_the_differentiation_route(g, constraints, monkeypatch):
    """Each g is decided by zero-testing its linearized constraint, with
    the differentiation route's flag or error, at every constant set; the
    dispersion relation is never formed."""
    monkeypatch.setattr(determining, "_dispersion", None)
    for p in _PARAMS:
        del constraints[:]
        if g.key() == exp(U + X).key():
            with pytest.raises(ParameterError, match=r"^g must depend on \(x, y\) only$"):
                v_g(g, p)
            assert constraints == [g], p
            continue
        ok, out = _outcome(g, p)
        assert constraints == [g], (p, g)
        want = linearized_constraint(g, p)
        assert ok is is_zero(want), (p, g)
        if not ok:
            assert out == "g does not satisfy the linearized equation; residual %r" % want


def test_a_failed_dispersion_proof_raises(monkeypatch):
    """With beta*lambda in place of beta*mu in the relation the proof
    fails, and v_g raises on an exponential g rather than read its flag
    off the relation or fall back to differentiating it."""
    monkeypatch.setattr(determining, "_dispersion",
                        lambda lam, mu, p: p.alpha * lam + p.beta * lam + lam * mu)
    determining._proved_identity.cache_clear()
    try:
        g, _ = exponential_g(1, ThomasParams(1, 1, 1))
        with pytest.raises(AssertionError, match="the linearized equation at"):
            v_g(g, ThomasParams(1, 1, 1))
    finally:
        determining._proved_identity.cache_clear()


def test_the_constant_generators_are_built_once(seed):
    rng = random.Random(seed)
    params = _PARAMS + [ThomasParams(*(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                       for _ in range(2)), rng.randint(1, 9))
                        for _ in range(20)]
    for v, want in ((v1, (1, 0, 0)), (v2, (0, 1, 0)), (v3, (0, 0, 1))):
        assert v() is v()
        assert (v().xi, v().eta, v().phi) == want
        for p in params:
            assert check_symmetry(v(), p) == (True, ZERO), (v, p)
