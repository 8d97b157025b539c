"""Differential tests of the symmetry read-off: a field that
``general_symmetry`` or ``v_g`` built is read off the identity
``determining._proved_identity`` proves once per process, and every other
field takes the row route.

The reference is the row route itself, run on a hand-built copy of the
field (``VectorField(xi, eta, phi)``): equal to the built field, hashed
alike, but keeping nothing of how it was built.  The read-off must give
the row route's flag, and a residual equal to its residual under
``normal.equal``, at symbolic, mixed and rational constants, alpha*beta = 0
included; a built field checked at other constants must take the row
route, and so must every hand-built copy.
"""

import random
from fractions import Fraction

import pytest

from lie_thomas import determining
from lie_thomas.determining import (
    ThomasParams,
    check_symmetry,
    exponential_g,
    general_symmetry,
    linearized_constraint,
    v1,
    v2,
    v3,
    v4,
    v_g,
)
from lie_thomas.expr import BETA, Rat, U, UFunc, X, Y, ZERO, app, exp, mul, param, pow_
from lie_thomas.normal import equal
from lie_thomas.vectorfield import VectorField

_G = UFunc("g", ("x", "y"))()
_W = param("w")

# symbolic; one or two constants rational, the others symbols, one of them
# named as the proof's own coordinate a; rational; and alpha*beta = 0
_PARAMS = [
    ThomasParams(),
    ThomasParams(alpha=2), ThomasParams(beta=Fraction(-1, 3), gamma=5),
    ThomasParams(param("a"), 0, 1), ThomasParams(BETA, Fraction(3, 2), Fraction(-2, 7)),
    ThomasParams(Fraction(2, 3), Fraction(-1, 2), 3), ThomasParams(1, -1, 1),
    ThomasParams(0, 3, -1), ThomasParams(Fraction(-1, 2), 0, Fraction(5, 3)),
    ThomasParams(0, 0, 1),
]


def _hand_built(vf):
    return VectorField(vf.xi, vf.eta, vf.phi)


def _lam(p, rng):
    """A rational lam with lam + beta nonzero, as exponential_g needs."""
    lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    return lam + 1 if p.beta == -lam else lam


def _coordinate(rng):
    """A coordinate of general_symmetry: zero, a rational, or a symbol."""
    return rng.choice((0, Fraction(rng.randint(-5, 5), rng.randint(1, 4)), _W))


def _built_fields(p, rng):
    """Fields built at p: the basis, seeded spans with g on the linearized
    equation, with g the unknown function, and with g off it, checked or
    not; (field, whether it is a symmetry)."""
    g, mu = exponential_g(_lam(p, rng), p)
    off = app("exp", X + (mu + 1) * Y)  # misses the linearized equation
    span = [_coordinate(rng) for _ in range(4)]
    return [
        (v1(), True), (v2(), True), (v3(), True), (v4(p), True),
        (v_g(g, p), True), (v_g(g, p, check=False), True),
        (general_symmetry(*span, g=g, p=p), True),
        (general_symmetry(*span, p=p), True),
        (v_g(_G, p, check=False), False),
        (v_g(off, p, check=False), False),
        (general_symmetry(*span, g=off, p=p, check=False), False),
    ]


@pytest.fixture
def row_route(monkeypatch):
    """The fields the row route is run on, recorded; the identity is proved
    first, so the proof's own run is not among them."""
    determining._proved_identity()
    seen = []
    real = determining._row_route

    def recorded(vf, p):
        seen.append(vf)
        return real(vf, p)

    monkeypatch.setattr(determining, "_row_route", recorded)
    return seen


def test_the_read_off_is_the_row_route(seed, row_route):
    rng = random.Random(seed)
    for p in _PARAMS:
        for vf, symmetric in _built_fields(p, rng):
            assert vf._built is not None, (vf, p)
            ok, residual = check_symmetry(vf, p)
            assert row_route == [], (vf, p)
            want_ok, want = check_symmetry(_hand_built(vf), p)
            assert row_route == [vf], (vf, p)
            del row_route[:]
            assert ok is want_ok is symmetric, (vf, p)
            assert equal(residual, want), (vf, p, residual, want)


def test_a_field_off_the_linearized_equation_fails_by_the_identity(seed):
    """Built with check=False, v_g and the general symmetry with g off the
    linearized equation fail at their own constants, each with residual
    -(1/gamma) e^{-gamma u} (alpha g_x + beta g_y + g_xy), written out here;
    with g on it, check=False or not, they pass with a zero residual."""
    rng = random.Random(seed)
    for p in _PARAMS:
        g, mu = exponential_g(_lam(p, rng), p)
        off = app("exp", 2 * X + (mu - 1) * Y)
        want = mul(Rat(-1), pow_(p.gamma, -1), exp(-p.gamma * U), linearized_constraint(off, p))
        for vf in (v_g(off, p, check=False), general_symmetry(1, 0, 2, 1, off, p, check=False)):
            ok, residual = check_symmetry(vf, p)
            assert not ok and equal(residual, want), (vf, p)
        for vf in (v_g(g, p, check=False), general_symmetry(0, 1, 0, 2, g, p, check=False)):
            assert check_symmetry(vf, p) == (True, ZERO), (vf, p)


def test_a_built_field_at_other_constants_takes_the_row_route(seed, row_route):
    """A field built at p and checked at q != p is decided on the rows, and
    the translations, with k = g = 0, are symmetries at every constant set.
    An exponential g of x alone solves the linearized equation wherever
    alpha = 0, so v_g built at (0, 3, 1) is a symmetry at (0, 0, 1) too."""
    rng = random.Random(seed)
    flags = []
    pairs = [(p, q) for p in _PARAMS for q in _PARAMS if q != p]
    for p, q in pairs + [(ThomasParams(0, 3, 1), ThomasParams(0, 0, 1))]:
        g, _ = exponential_g(_lam(p, rng), p)
        for vf in (v4(p), v_g(g, p)):
            ok, residual = check_symmetry(vf, q)
            assert row_route == [vf], (vf, p, q)
            del row_route[:]
            want_ok, want = check_symmetry(_hand_built(vf), q)
            assert ok is want_ok and equal(residual, want), (vf, p, q)
            flags.append(ok)
            del row_route[:]
        for vf in (v1(), v2(), v3(), general_symmetry(1, _W, Fraction(1, 2), p=p)):
            assert check_symmetry(vf, q) == (True, ZERO), (vf, p, q)
        assert row_route == [], (p, q)
    assert True in flags and False in flags


def test_a_hand_built_copy_takes_the_row_route(row_route):
    """A copy equals the built field and hashes alike, yet keeps nothing,
    so it cannot claim the read-off: it takes the row route, there too
    when the field it copies fails."""
    p = ThomasParams(Fraction(2, 3), Fraction(-1, 2), 3)
    g, mu = exponential_g(Fraction(3, 2), p)
    for vf in (v1(), v4(p), v_g(g, p), v_g(app("exp", X + (mu + 1) * Y), p, check=False)):
        copy = _hand_built(vf)
        assert copy == vf and hash(copy) == hash(vf) and copy._built is None
        assert check_symmetry(copy, p)[0] is check_symmetry(vf, p)[0]
        assert row_route == [copy], vf
        del row_route[:]


def test_the_read_off_binds_and_differentiates_nothing(monkeypatch):
    """The fields a derive op checks are read off with no row bound and
    no partial taken."""
    determining._proved_identity()

    def refuse(*args):
        raise AssertionError("called with %r" % (args,))

    p = ThomasParams(2, -3, Fraction(5, 7))
    fields = [v1(), v2(), v3(), v4(p), v_g(exponential_g(1, p)[0], p)]
    for name in ("_bound_row", "differentiate", "_row_route", "prolong"):
        monkeypatch.setattr(determining, name, refuse)
    assert [check_symmetry(vf, p) for vf in fields] == [(True, ZERO)] * 5


def test_only_what_the_identity_covers_is_kept():
    """A coordinate or constant that holds x, y or u, or an unchecked g
    that holds u, is outside the identity: the field keeps nothing and is
    decided on the rows."""
    p = ThomasParams(1, 2, 3)
    outside = [general_symmetry(a=X, p=p), general_symmetry(c=U, k=1, p=p),
               v_g(X * U, p, check=False), v_g(UFunc("h")(), p, check=False)]
    for vf in outside:
        assert vf._built is None, vf
        assert check_symmetry(vf, p) == check_symmetry(_hand_built(vf), p), vf
        assert not check_symmetry(vf, p)[0], vf


def test_a_failed_proof_raises(monkeypatch):
    """With the identity's residual negated (through the linearized
    equation it is written in) the proof fails, and check_symmetry raises
    on a built field rather than read it or fall back to the rows."""
    constraint = determining.linearized_constraint
    monkeypatch.setattr(determining, "linearized_constraint",
                        lambda g, p: mul(Rat(-1), constraint(g, p)))
    determining._proved_identity.cache_clear()
    try:
        with pytest.raises(AssertionError, match="residual of general_symmetry"):
            check_symmetry(v1(), ThomasParams())
    finally:
        determining._proved_identity.cache_clear()
