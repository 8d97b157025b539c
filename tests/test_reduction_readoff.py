"""invariants and reduced_ode read every reduction off its proved stratum:
the representative's pair and ODE with the call's a1, a2, alpha, beta and
gamma substituted.  The case's own formulas run at the call's values
(``reduction._reduction``) are the reference: the read-off objects are
key-equal to them at rational constants and at symbolic constants with the
CLI's default coordinates, and equal in value (``normal.equal``) where
rational and symbolic constants mix, since ``expr.mul`` groups a product
by the order it is built in."""

import random

import pytest

from lie_thomas import reduction
from lie_thomas.algebra import AlgebraElement
from lie_thomas.cases import CASES
from lie_thomas.classifier import CanonicalCase, ClassificationError, classify
from lie_thomas.normal import equal
from lie_thomas.params import ThomasParams
from lie_thomas.reduction import (
    STRATA,
    ReductionError,
    invariants,
    proved_stratum,
    reduced_ode,
    verify_reduction,
)
from test_reduction_strata import _key, _on_stratum, _rational

SYMBOLIC_DEFAULTS = [tag for tag, case in CASES.items()
                     if case.coords and not isinstance(case.coords[0], str)]


def _read_off(case, p):
    try:
        return invariants(case, p), reduced_ode(case, p)
    except ReductionError as exc:
        return str(exc)


def _per_tag(case, p):
    try:
        pair, ode, _ = reduction._reduction(case, p)
    except ReductionError as exc:
        return str(exc)
    return pair, ode


def _stratum_calls(rng, symbols, draws):
    """For each stratum, a call that lands on it and ``draws`` more drawn
    from its representative, a2 or a constant now and then zero."""
    calls = []
    for key in STRATA:
        for _ in range(20):
            call = _on_stratum(key, rng, zero_ok=False, symbols=symbols)
            if call is not None and _key(*call) == key:
                calls.append(call)
                break
        else:
            pytest.fail("no call drawn on %s" % (key,))
        drawn = (_on_stratum(key, rng, zero_ok=True, symbols=symbols) for _ in range(draws))
        calls += [c for c in drawn if c]
    return calls


def _classified_calls(rng, count):
    """Canonical cases of seeded raw vectors at seeded rational constants."""
    calls = []
    for _ in range(count):
        p = ThomasParams(*(_rational(rng, True) for _ in range(2)), _rational(rng, False))
        try:
            case = classify(AlgebraElement(*(_rational(rng, True) for _ in range(4))), p)
        except ClassificationError:
            continue
        calls.append((case, p))
    return calls


def test_read_off_is_the_per_tag_build_at_rational_constants(seed):
    rng = random.Random(seed)
    calls = _stratum_calls(rng, 0, 6) + _classified_calls(rng, 200)
    landed = set()
    for case, p in calls:
        ours = _read_off(case, p)
        assert ours == _per_tag(case, p), (case, p)
        if type(ours) is tuple:
            landed.add(_key(case, p))
    assert landed == set(STRATA)


@pytest.mark.parametrize("tag", SYMBOLIC_DEFAULTS)
def test_read_off_is_the_per_tag_build_at_symbolic_constants(tag):
    case = CanonicalCase(tag, CASES[tag].coords, ())
    assert _read_off(case, ThomasParams()) == _per_tag(case, ThomasParams())


def _same_value(ours, theirs):
    """Record fields equal, each expression in value."""
    if type(ours) is str or type(theirs) is str:
        return ours == theirs
    for a, b in zip(ours, theirs):
        for name in a._fields:
            x, y = getattr(a, name), getattr(b, name)
            if name == "aux":
                if [k for k, _ in x] != [k for k, _ in y] or not all(
                        equal(u, v) for (_, u), (_, v) in zip(x, y)):
                    return False
            elif name in ("chi", "varsigma", "lhs"):
                if not equal(x, y):
                    return False
            elif x != y:
                return False
    return True


def test_read_off_equals_the_per_tag_build_at_mixed_constants(seed):
    rng = random.Random(seed)
    calls = _stratum_calls(rng, 0.3, 8)
    calls += [(case, ThomasParams()) for case, _ in _classified_calls(rng, 60)]
    mixed = 0
    for case, p in calls:
        assert _same_value(_read_off(case, p), _per_tag(case, p)), (case, p)
        mixed += not p.is_numeric()
    assert mixed >= len(STRATA)


def _raise(*args, **kwargs):
    raise AssertionError("a warm call ran a per-case formula or the chain rule")


def test_nothing_is_rebuilt_once_every_stratum_is_proved(monkeypatch, cold, seed):
    """With every stratum proved, a call reads its pair and ODE off the
    proof and certifies by its divisors and relations alone: with the
    per-case formulas and the chain rule patched to raise, every stratum
    still answers, as it did before the patch, and nothing is proved again."""
    rng = random.Random(seed)
    calls = [(CanonicalCase(rep.tag, rep.coords, ()), rep.params) for rep in STRATA.values()]
    calls += _stratum_calls(rng, 0, 2) + _stratum_calls(rng, 0.3, 2)
    calls = [(case, p) for case, p in calls if type(_per_tag(case, p)) is tuple]
    expected = [(_read_off(case, p), verify_reduction(case, p)) for case, p in calls]
    assert proved_stratum.cache_info().currsize == len(STRATA)
    monkeypatch.setattr(reduction, "_reduction", _raise)
    monkeypatch.setattr(reduction, "_jets", _raise)
    assert [(_read_off(case, p), verify_reduction(case, p)) for case, p in calls] == expected
    assert proved_stratum.cache_info().misses == len(STRATA)
