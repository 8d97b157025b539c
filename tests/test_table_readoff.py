"""Differential tests of the table read-off: the commutator and adjoint
tables are derived once, at the symbolic constants, g and epsilon, and
read at any others by binding.

The oracle builds every entry afresh on every call (``oracles``
``commutator_table_per_call`` and ``adjoint_table_per_call``).  At
rational and at symbolic constants each coordinate and g part must be the
same tree as the oracle's (``==`` compares keys); at constants that mix
rationals and symbols ``expr.mul`` groups a product by the order it is
built in, so there the parts must be equal in value.  Bad input raises the
oracle's error, class and message, and a warm table runs no bracket and no
adjoint map.
"""

import random
from fractions import Fraction

import pytest

from lie_thomas import algebra
from lie_thomas.algebra import _symbolic_tables, adjoint_table, commutator_table
from lie_thomas.determining import ThomasParams
from lie_thomas.expr import ALPHA, BETA, GAMMA, U, U_X, UFunc, X, Y, exp, param
from lie_thomas.normal import equal

from oracles import adjoint_table_per_call, commutator_table_per_call

# g and eps also as zero and as expressions holding a constant that is bound
_GS = [None, UFunc("g", ("x", "y"))(), UFunc("h", ("x", "y"))(), exp(2 * X - Y), X * X + Y,
       0, GAMMA * Y]
_EPSILONS = [None, param("epsilon"), param("t"), 2, Fraction(-1, 3), 0, ALPHA]
_A, _B = param("a"), param("b")
# one or two constants rational, the others symbols or expressions in them;
# at (gamma, a + b, 1/3) the v4 row of the adjoint table is grouped
# 3*(1 - t)*(a + b) by the binding and (1 - t)*(3*a + 3*b) by the oracle
_MIXED = [ThomasParams(alpha=2), ThomasParams(beta=Fraction(-1, 3), gamma=5),
          ThomasParams(_A, 0, 1), ThomasParams(ALPHA + BETA, 2, _A),
          ThomasParams(0, BETA, Fraction(3, 2)), ThomasParams(-GAMMA / _A, 0, GAMMA),
          ThomasParams(BETA, ALPHA, GAMMA), ThomasParams(1, 1, GAMMA),
          ThomasParams(GAMMA, _A + _B, Fraction(1, 3))]
_EXPRESSIONS = [ALPHA, BETA, GAMMA, _A, _A + _B, 2 * _A, _A * _B, _A + 1, -GAMMA / _A,
                Fraction(1, 2) * _A + 3]


def _rational(rng, zero_ok=True):
    q = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return q if q or zero_ok else Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), 7)


def _rational_constants(seed, n=200):
    """n seeded rational constant sets, the first three with alpha = 0,
    beta = 0 and both zero."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        alpha, beta = (_rational(rng) for _ in range(2))
        if i in (0, 2):
            alpha = 0
        if i in (1, 2):
            beta = 0
        out.append(ThomasParams(alpha, beta, _rational(rng, zero_ok=False)))
    return out


def _parts(table):
    return [[(*e.coords(), e.g) for e in row] for row in table]


def _assert_key_equal(got, want, where):
    for i, (got_row, want_row) in enumerate(zip(_parts(got), _parts(want))):
        for j, (a, b) in enumerate(zip(got_row, want_row)):
            assert a == b, (where, i, j, a, b)
    assert len(got) == len(want) and all(len(r) == len(w) for r, w in zip(got, want))


def test_tables_are_the_oracles_at_rational_and_symbolic_constants(seed):
    params = [ThomasParams(), *_rational_constants(seed)]
    assert sum(p.alpha == 0 and p.beta == 0 for p in params) >= 1
    for p in params:
        for g in _GS:
            _assert_key_equal(commutator_table(p, g), commutator_table_per_call(p, g), (p, g))
        for eps in _EPSILONS:
            _assert_key_equal(adjoint_table(p, eps), adjoint_table_per_call(p, eps), (p, eps))


def _assert_equal_in_value(got, want, where):
    for i, (got_row, want_row) in enumerate(zip(_parts(got), _parts(want))):
        for j, (a, b) in enumerate(zip(got_row, want_row)):
            assert all(equal(x, y) for x, y in zip(a, b)), (where, i, j, a, b)


def _mixed_constants(seed, n=40):
    """n seeded constant sets, each constant a rational or, by a coin, one
    of the symbols and expressions in ``_EXPRESSIONS``."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        c = [rng.choice(_EXPRESSIONS) if rng.random() < 0.5 else _rational(rng) for _ in range(3)]
        out.append(ThomasParams(*c[:2], c[2] or _A))
    return out


def test_tables_equal_the_oracles_in_value_at_mixed_constants(seed):
    for p in _MIXED + _mixed_constants(seed):
        for g in _GS:
            _assert_equal_in_value(commutator_table(p, g), commutator_table_per_call(p, g), (p, g))
        for eps in _EPSILONS:
            _assert_equal_in_value(adjoint_table(p, eps), adjoint_table_per_call(p, eps), (p, eps))


def _raised(build, *args):
    with pytest.raises(Exception) as info:
        build(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("g", [UFunc("h")(), U_X, X * U, exp(U) + Y, 0.75, "g"],
                         ids=["h(x,y,u)", "u_x", "x*u", "exp(u)+y", "float", "str"])
def test_a_g_off_the_base_raises_the_oracles_error(g):
    for p in (ThomasParams(), ThomasParams(1, 2, 3)):
        assert _raised(commutator_table, p, g) == _raised(commutator_table_per_call, p, g)


@pytest.mark.parametrize("eps", [0.5, -1e-3, "eps"])
def test_an_inexact_eps_raises_the_oracles_error(eps):
    for p in (ThomasParams(), ThomasParams(1, 2, 3)):
        assert _raised(adjoint_table, p, eps) == _raised(adjoint_table_per_call, p, eps)


def test_an_integral_float_eps_is_its_integer():
    p = ThomasParams(1, 2, 3)
    assert adjoint_table(p, 2.0) == adjoint_table_per_call(p, 2)


@pytest.mark.parametrize("p", [ThomasParams(alpha=U), ThomasParams(1, U_X, 1),
                               ThomasParams(gamma=X * U)],
                         ids=["alpha=u", "beta=u_x", "gamma=x*u"])
def test_constants_off_the_base_raise_the_oracles_error(p):
    """A g part that depends on u through the constants is refused by the
    element's own check, at the same entry as the oracle's."""
    assert _raised(commutator_table, p, None) == _raised(commutator_table_per_call, p, None)
    _assert_key_equal(adjoint_table(p), adjoint_table_per_call(p), p)


def test_the_symbolic_tables_are_read_as_they_are_and_handed_out_fresh():
    comm, adj = _symbolic_tables()
    for table, cached in ((commutator_table(), comm), (adjoint_table(), adj)):
        assert all(e is c for row, crow in zip(table, cached) for e, c in zip(row, crow))
        table[0][0] = None
    assert commutator_table()[0][0] is comm[0][0] and adjoint_table()[0][0] is adj[0][0]
    _assert_key_equal(comm, commutator_table_per_call(), "cold")
    _assert_key_equal(_symbolic_tables.__wrapped__()[1], adjoint_table_per_call(), "cold")


def test_warm_tables_run_no_bracket_and_no_adjoint_map(seed, monkeypatch):
    params = [ThomasParams(), *_rational_constants(seed, 10), *_MIXED[:3]]
    want = {p: ([commutator_table(p, g) for g in _GS], [adjoint_table(p, e) for e in _EPSILONS])
            for p in params}

    def refuse(*args):
        raise AssertionError("rebuilt an entry from %r" % (args,))

    for name in ("commutator", "adjoint", "_adjoint", "adjoint_coords", "_psi"):
        monkeypatch.setattr(algebra, name, refuse)
    for p, (comm, adj) in want.items():
        assert [commutator_table(p, g) for g in _GS] == comm, p
        assert [adjoint_table(p, e) for e in _EPSILONS] == adj, p
