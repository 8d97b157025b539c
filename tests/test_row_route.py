"""Differential tests of the row route: the determining system is derived
once, at the symbolic constants, and read off at any others.

``_derived_rows`` derives the system at the constants themselves, and
``_prolonged_flag`` decides invariance by prolonging the field itself,
both on the reference road of ``test_kernel._ref_manifold_action`` (every
total derivative written out in the tree, u_xy eliminated by
substitution).  The row route must give the same row keys and the same
flag, and a failing field's residual must equal its own prolonged action.
The generators are checked at their own constants and at every
permutation of them, so a route that binds the rows at permuted constants
calls some field a symmetry that is not one; a v_g whose g misses the
linearized equation breaks only the first row.
"""

import itertools
import random
from fractions import Fraction

from lie_thomas import determining, normal, vectorfield
from lie_thomas.determining import (
    ThomasParams,
    _bound_row,
    _symbolic_system,
    check_symmetry,
    determining_equations,
    exponential_g,
    general_symmetry,
    v1,
    v2,
    v3,
    v4,
    v_g,
)
from lie_thomas.expr import ALPHA, BETA, GAMMA, Func, Rat, U, UFunc, X, Y, ZERO, app, atoms, param
from lie_thomas.normal import canonical_expr, equal, is_zero
from lie_thomas.vectorfield import VectorField, symbolic_field

from test_kernel import (
    _NON_SYMMETRIES,
    _polynomial,
    _rational_params,
    _ref_manifold_action,
    _reference_fields,
)


def _derived_rows(p):
    return [(m, canonical_expr(c).key())
            for m, c in _ref_manifold_action(symbolic_field(), p).items()]


def _prolonged_flag(vf, p):
    return all(is_zero(c) for c in _ref_manifold_action(vf, p).coeffs.values())


_UNIT_CONSTANTS = [ThomasParams(*c) for c in ((0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1))]
# one constant a rational, the others symbols: their own, or another one
_MIXED_CONSTANTS = [ThomasParams(alpha=2), ThomasParams(beta=Fraction(-1, 3), gamma=5),
                    ThomasParams(param("a"), 0, 1)]


def test_rows_match_the_derivation_at_the_constants(seed):
    rng = random.Random(seed)
    params = [ThomasParams(), *_UNIT_CONSTANTS, *_MIXED_CONSTANTS,
              *[_rational_params(rng) for _ in range(40)]]
    for p in params:
        assert [(m, c.key()) for m, c in determining_equations(p).rows] == _derived_rows(p), p


def _bent(vf):
    """vf with one coefficient bent at a time; eta + y breaks only the
    second row where alpha is not zero."""
    return [VectorField(vf.xi + X * X, vf.eta, vf.phi),
            VectorField(vf.xi, vf.eta + Y, vf.phi),
            VectorField(vf.xi, vf.eta, vf.phi + U * U)]


def test_check_symmetry_flag_matches_the_prolonged_field(seed):
    rng = random.Random(seed)
    # three distinct nonzero rationals, in every order
    triple = (Fraction(rng.randint(1, 9), 2), Fraction(-rng.randint(1, 9), 3), Fraction(5, 4))
    params = [ThomasParams(), *[ThomasParams(*t) for t in itertools.permutations(triple)]]
    flags = []
    for own in params:
        lam = Fraction(rng.randint(1, 5), 7)  # lam + beta is never zero
        g, mu = exponential_g(lam, own)
        off = app("exp", lam * X + (mu + 1) * Y)  # misses the linearized equation
        generators = [v1(), v2(), v3(), v4(own), v_g(g, own)]
        pairs = [(vf, p) for vf in generators + [v_g(off, own, check=False)] for p in params]
        pairs += [(bent, own) for vf in generators for bent in _bent(vf)]
        for vf, p in pairs:
            flag = check_symmetry(vf, p)[0]
            assert flag == _prolonged_flag(vf, p), (vf, p)
            flags.append(flag)
    assert True in flags and False in flags
    for p in params[:2]:
        for vf in [*_reference_fields(seed), *_NON_SYMMETRIES]:
            assert check_symmetry(vf, p)[0] == _prolonged_flag(vf, p), (vf, p)


def test_a_field_that_fails_keeps_its_own_residual():
    p = ThomasParams(Fraction(2, 3), Fraction(-1, 2), 3)
    for vf in _bent(v4(p)):
        ok, residual = check_symmetry(vf, p)
        assert not ok
        assert equal(residual, _ref_manifold_action(vf, p).to_expr())
    assert check_symmetry(general_symmetry(k=2, p=p), p) == (True, 0)


def test_rational_and_expression_partials_bind_as_the_prolonged_field(seed):
    """Fields whose partials are in part rational (zero, or a rational
    constant of v4 at rational constants) and in part expressions: v4 plus
    a polynomial in one coefficient, v_g with its g on and off the
    linearized equation, and the bent generators.  The rational partials
    are bound in each row's polynomial before the rest is built; the flag
    must be the prolonged field's, and a failing field's residual its
    prolonged action."""
    rng = random.Random(seed)
    params = [ThomasParams(), ThomasParams(alpha=2), *[_rational_params(rng) for _ in range(8)]]
    failed = 0
    for p in params:
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        if p.beta == -lam:
            lam += 1  # exponential_g needs lam + beta nonzero
        g, mu = exponential_g(lam, p)
        poly = _polynomial(rng)
        w = v4(p)
        fields = [VectorField(w.xi + poly, w.eta, w.phi), VectorField(w.xi, w.eta + poly, w.phi),
                  VectorField(w.xi, w.eta, w.phi + poly), v_g(g, p),
                  v_g(app("exp", lam * X + (mu + 1) * Y), p, check=False), *_bent(w)]
        for vf in fields:
            ok, residual = check_symmetry(vf, p)
            action = _ref_manifold_action(vf, p)
            assert ok == all(is_zero(c) for c in action.coeffs.values()), (vf, p)
            if not ok:
                failed += 1
                assert equal(residual, action.to_expr()), (vf, p)
    assert failed > len(params) * 4


_A2 = param("a2")
# constants that are expressions: swapped symbols, a sum beside a rational
# and another symbol, a repeated symbol, and a quotient
_EXPRESSION_CONSTANTS = [ThomasParams(BETA, ALPHA, GAMMA), ThomasParams(ALPHA + BETA, 2, _A2),
                         ThomasParams(ALPHA, ALPHA, 3), ThomasParams(-GAMMA / _A2, 0, GAMMA)]


def test_nothing_is_prolonged_once_the_system_is_derived(monkeypatch):
    """With the symbolic system derived, a failing field's flag and the rows
    at expression constants come from it alone: ``prolong`` is never
    called, and the rows equal in value those derived at the constants."""
    _symbolic_system()
    want = {p: _ref_manifold_action(symbolic_field(), p).coeffs for p in _EXPRESSION_CONSTANTS}
    flagged = []
    for p in (ThomasParams(), ThomasParams(Fraction(2, 3), Fraction(-1, 2), 3)):
        generators = [v1(), v2(), v3(), v4(p)]
        flagged += [(vf, p, False) for vf in _NON_SYMMETRIES]
        flagged += [(bent, p, False) for vf in generators for bent in _bent(vf)]
        flagged += [(vf, p, True) for vf in generators]

    def refuse(vf):
        raise AssertionError("prolonged %r" % (vf,))

    monkeypatch.setattr(vectorfield, "prolong", refuse)
    monkeypatch.setattr(determining, "prolong", refuse)
    for vf, p, flag in flagged:
        assert check_symmetry(vf, p)[0] is flag, (vf, p)
    for p, coeffs in want.items():
        rows = dict(determining_equations(p).rows)
        assert rows.keys() == coeffs.keys(), p
        assert all(equal(rows[m], c) for m, c in coeffs.items()), p


def test_the_linear_forms_are_the_rows():
    """Each row's linear form holds one term per monomial of the row, each
    a partial of xi, eta or phi beside a monomial in the constants alone,
    and the form bound at nothing is the row, key for key."""
    system, forms, _ = _symbolic_system()
    assert len(forms) == len(system) == 12
    for (m, row), form in zip(system, forms):
        assert len(form) == (len(row.terms) if row.key()[0] == 6 else 1), m
        for a, mono, c in form:
            assert type(a) is Func and a.name in ("xi", "eta", "phi"), m
            assert all(s in (ALPHA, BETA, GAMMA) for s, _ in mono) and c, m
        assert _bound_row(form, {}).key() == row.key(), m


def _hand_built(vf):
    """A VectorField with vf's coefficients, built by its constructor: it
    keeps nothing of how vf was built, so it takes the row route."""
    return VectorField(vf.xi, vf.eta, vf.phi)


def test_rational_rows_are_decided_without_a_normal_form(monkeypatch):
    """On the row route, at rational constants, v1..v4 bind every row to a
    Rat, decided by its value, so ``normal_form`` is never called; nor for
    a field that fails by a rational row.  For a field whose xi and eta are
    rational and whose phi is an expression (v_g, alone or beside v4), the
    rows that hold no phi partial bind to Rats too: ``normal_form`` is
    reached at most once per phi row, never with a Rat, and only with a
    row that holds u, which only phi's factor exp(-gamma*u) brings.  Off
    the linearized equation the row of jet monomial 1 is the one reached.
    The fields are hand-built copies of the generators, which are read off
    the proved identity without a row."""
    p = ThomasParams(Fraction(2, 3), Fraction(-1, 2), 3)
    system, forms, _ = _symbolic_system()
    phi_rows = sum(any(a.name == "phi" for a, _, _ in form) for form in forms)
    assert phi_rows == 4
    g, mu = exponential_g(Fraction(3, 2), p)
    phi_fields = [_hand_built(vf) for vf in (
        v_g(g, p), general_symmetry(k=1, g=g, p=p),
        v_g(UFunc("g", ("x", "y"))(), p, check=False),
        v_g(app("exp", 2 * X + (mu + 1) * Y), p, check=False))]

    def refuse(e):
        raise AssertionError("normal_form(%r)" % (e,))

    with monkeypatch.context() as mp:
        mp.setattr(normal, "normal_form", refuse)
        for vf in (v1(), v2(), v3(), v4(p), general_symmetry(c=1, k=2, p=p)):
            assert check_symmetry(_hand_built(vf), p) == (True, ZERO), vf
        w = v4(p)
        assert check_symmetry(VectorField(w.xi + Y, w.eta, w.phi), p)[0] is False

    called, depth = [], [0]
    real = normal.normal_form

    def recorded(e):
        if not depth[0]:
            called.append(e)
        depth[0] += 1
        try:
            return real(e)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(normal, "normal_form", recorded)
    flags, counts = [], []
    for vf in phi_fields:
        called.clear()
        flags.append(check_symmetry(vf, p)[0])
        assert len(called) <= phi_rows, vf
        for row in called:
            assert type(row) is not Rat, vf
            assert U in set(atoms(row)), (vf, row)
        counts.append(len(called))
    assert flags == [True, True, False, False]
    assert counts[2:] == [1, 1]
