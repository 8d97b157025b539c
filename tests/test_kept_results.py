"""A derive op re-derives nothing it has and builds nothing it knows.

- ``normal.canonical_expr`` keeps its rebuild on the node: a second call
  returns the same node, which is key-equal to the rebuild of a fresh copy
  of the tree (every node new, so nothing kept is read), and a node and its
  rebuild are freed by reference counting alone.
- ``general_symmetry`` at a rational zero ``k`` builds no k term and takes
  its coefficients as given, key-equal to the full build.
- ``check_symmetry`` takes a partial of a rational partial as zero without
  differentiating it.
- ``algebra._bind`` skips the g-part check only where every bound value is
  rational; a constant that holds u is still refused.
"""

import gc
import random
from fractions import Fraction

import pytest

from lie_thomas import determining
from lie_thomas.algebra import AlgebraError, AlgebraElement, commutator_table
from lie_thomas.determining import (
    ThomasParams,
    check_symmetry,
    exponential_g,
    general_symmetry,
    v1,
    v2,
    v3,
    v4,
    v_g,
)
from lie_thomas.expr import (
    ALPHA,
    GAMMA,
    U,
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
    mul,
    param,
    _wrap,
)
from lie_thomas.normal import canonical_expr, is_zero
from lie_thomas.vectorfield import VectorField

from test_kernel import (
    _nodes,
    _valued_corpus,
    random_factors,
    random_jet_polynomial,
    random_rational_expr,
)


def _corpus(seed):
    rng = random.Random(seed)
    out = []
    for _ in range(40):
        out += [random_jet_polynomial(rng), random_rational_expr(rng), mul(*random_factors(rng))]
    return out + _valued_corpus(seed)[2][:80]


def _fresh(e):
    """A copy of e in which every node is new, so no node has a rebuild."""
    kind = type(e)
    if kind is Rat:
        return Rat(e.value)
    if kind is Sym:
        return Sym(e.name, e.kind)
    if kind is Func:
        return Func(e.name, e.params, e.derivs)
    if kind is Add:
        return Add([_fresh(t) for t in e.terms])
    if kind is Mul:
        return Mul([_fresh(f) for f in e.factors])
    if kind is Pow:
        return Pow(_fresh(e.base), e.exp)
    return App(e.fn, _fresh(e.arg))


def test_canonical_expr_keeps_its_rebuild_on_the_node(seed):
    rng = random.Random(seed)
    for e in _corpus(seed):
        want = canonical_expr(_fresh(e))
        inner = list(_nodes(e))[1:]
        rng.shuffle(inner)
        for n in inner:  # e's rebuild then reads the kept rebuilds of its nodes
            canonical_expr(n)
        got = canonical_expr(e)
        assert canonical_expr(e) is got, e
        assert got.key() == want.key(), e


def test_a_leaf_is_its_own_rebuild_and_keeps_none():
    for leaf in (X, param("kappa"), Func("h", ("x", "y"), (1, 0))):
        assert canonical_expr(leaf) is leaf
        assert getattr(leaf, "_canon", None) is None


def test_a_node_and_its_rebuild_are_freed_without_the_collector(seed):
    corpus = [_fresh(e) for e in _corpus(seed)[:60]]
    gc.collect()
    gc.disable()
    try:
        for e in corpus:
            canonical_expr(e)
        del corpus, e
        assert gc.collect() == 0
    finally:
        gc.enable()


def _full_general_symmetry(a, b, c, k, g, p):
    """general_symmetry as it builds every term, k's included."""
    a, b, c, k = (_wrap(t) for t in (a, b, c, k))
    xi = add(mul(Rat(-1), k, p.gamma, X), c)
    eta = add(mul(k, p.gamma, Y), b)
    phi = add(mul(k, add(mul(p.beta, X), mul(Rat(-1), p.alpha, Y))), a)
    g = _wrap(g)
    if not is_zero(g):
        phi = add(v_g(g, p, check=False).phi, phi)
    return VectorField(xi, eta, phi)


def _draw_coefficient(rng):
    return rng.choice((
        lambda: 0,
        lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        lambda: param("c%d" % rng.randint(1, 3)),
        lambda: add(X, mul(Rat(rng.randint(1, 3)), ALPHA)),
        lambda: mul(GAMMA, Y),
    ))()


def test_general_symmetry_at_zero_k_is_the_full_build(seed):
    rng = random.Random(seed)
    for _ in range(60):
        p = rng.choice((ThomasParams(), ThomasParams(*(Fraction(rng.randint(1, 5), rng.randint(1, 3))
                                                       for _ in range(3)))))
        a, b, c = (_draw_coefficient(rng) for _ in range(3))
        k = rng.choice((0, 0, Fraction(0), 1, Fraction(-2, 3), param("k")))
        lam = Fraction(rng.randint(1, 4))
        g = rng.choice((0, Fraction(0), 2, exponential_g(lam, p)[0], add(X, Y)))
        got = general_symmetry(a, b, c, k, g, p, check=False)
        want = _full_general_symmetry(a, b, c, k, g, p)
        assert [f.key() for f in (got.xi, got.eta, got.phi)] == \
            [f.key() for f in (want.xi, want.eta, want.phi)], (a, b, c, k, g, p)


def test_the_translations_build_nothing_they_throw_away(monkeypatch):
    def refuse(*args):
        raise AssertionError("built %r" % (args,))

    for name in ("add", "mul", "is_zero", "v_g"):
        monkeypatch.setattr(determining, name, refuse)
    assert [(f.xi, f.eta, f.phi) for f in (v1(), v2(), v3())] == [
        (Rat(1), ZERO, ZERO), (ZERO, Rat(1), ZERO), (ZERO, ZERO, Rat(1))]


def test_check_symmetry_differentiates_no_rational_partial(monkeypatch):
    """On the row route, which the generators' hand-built copies take (the
    generators themselves are read off with no partial taken)."""
    p = ThomasParams(2, -3, Fraction(5, 7))
    fields = [VectorField(vf.xi, vf.eta, vf.phi)
              for vf in (v1(), v2(), v3(), v4(p), v_g(exponential_g(1, p)[0], p))]
    differentiate = determining.differentiate

    def watched(e, s):
        assert type(e) is not Rat, (e, s)
        return differentiate(e, s)

    monkeypatch.setattr(determining, "differentiate", watched)
    assert [check_symmetry(vf, p)[0] for vf in fields] == [True] * 5


def test_rational_bindings_skip_the_g_part_check_and_others_keep_it(monkeypatch):
    unchecked = []
    build = AlgebraElement._unchecked.__func__

    def counted(cls, *parts):
        unchecked.append(parts)
        return build(cls, *parts)

    monkeypatch.setattr(AlgebraElement, "_unchecked", classmethod(counted))
    p = ThomasParams(2, -3, Fraction(5, 7))
    table = commutator_table(p)
    assert unchecked
    for row in table:
        for e in row:
            assert AlgebraElement(*e._values()) == e
    del unchecked[:]
    commutator_table(ThomasParams(2, ALPHA, 1))
    assert unchecked == []
    for mixed in (ThomasParams(2, U, 1), ThomasParams(Fraction(1, 2), 1, mul(X, U))):
        with pytest.raises(AlgebraError, match="the g part must depend on"):
            commutator_table(mixed)
        assert unchecked == []
    with pytest.raises(AlgebraError, match="the g part must depend on"):
        commutator_table(p, mul(U, X))
