"""The reduction strata: each branch of ``reduction._reduction`` is proved
once per process, at a symbolic representative, and ``verify_reduction``
checks a call against that proof by its divisors and the relations its
stratum fixes.  ``oracles.verify_reduction_per_call``, which
derives the certificate afresh on every call, is the reference."""

import random
from fractions import Fraction

import pytest

from lie_thomas import reduction
from lie_thomas.algebra import AlgebraElement
from lie_thomas.classifier import CanonicalCase, ClassificationError, classify
from lie_thomas.expr import ALPHA, BETA, GAMMA, ONE, Rat, add, mul, param, pow_, substitute
from lie_thomas.params import ThomasParams
from lie_thomas.reduction import (
    A1,
    A2,
    S1,
    STRATA,
    ReducedODE,
    ReductionError,
    proved_stratum,
    reduced_ode,
    verify_reduction,
)
from oracles import verify_reduction_per_call

F = Fraction
NUM = ThomasParams(1, 1, 1)

# Every (tag, kind, where) that _reduction returns, read off its branches:
# where names the relation a branch adds to the tag's generic stratum.
BRANCHES = {
    ("Case1", "fuchs", ""),
    ("Case2_2", "linear-first-order", ""),
    ("Case2_3", "inconsistent", ""),
    ("Case2_3", "identity", "alpha = 0"),
    ("Case2_3", "identity", "beta = 0"),
    ("Case3_2", "linear-first-order", ""),  # a1 != 0: the invariants of d/dx
    ("Case3_2", "identity", ""),
    ("Case3_2", "linear-first-order", "a1 = 0"),  # the invariants of d/dy
    ("Case3_2", "identity", "a1 = 0"),
    *[(tag, kind, where) for tag in ("Case2_1a", "Case2_1b") for kind, where in (
        ("riccati", ""), ("algebraic", "a1 = 0"), ("identity", "a1 = 0"),
        ("inconsistent", "a1 = 0"))],
    ("Case3_1a", "bernoulli", ""),
    ("Case3_1b", "bernoulli", ""),
}

# What each tag's proofs divide by: gamma in Case1's invariants and ODE and
# in Case2_3's d(varsigma)/du and m; a2 in the invariants of Case2_1 and
# Case3_1; a1 in Case2_2's d(varsigma)/du and m = -a1^2; nothing in Case3_2.
DIVISORS = {"Case1": (GAMMA,), "Case2_1a": (A2,), "Case2_1b": (A2,), "Case2_2": (A1,),
            "Case2_3": (GAMMA,), "Case3_1a": (A2,), "Case3_1b": (A2,), "Case3_2": ()}


def _key(case, p):
    return reduction._branch(case, p)


def test_the_table_covers_every_branch():
    assert set(STRATA) == BRANCHES


def test_every_stratum_is_proved_from_a_cold_cache(cold):
    for key in STRATA:
        divisors = proved_stratum(key)[0]
        assert divisors == DIVISORS[key[0]], key
    info = proved_stratum.cache_info()
    assert (info.misses, info.hits) == (len(STRATA), 0)


def test_a_stratum_outside_the_table_is_refused():
    with pytest.raises(ReductionError, match="no proved stratum for Case1 riccati"):
        proved_stratum(("Case1", "riccati", ""))


def _mutant(original):
    """_reduction with one more varsigma_chi in every ODE: a wrong coefficient."""
    def mutated(c, p):
        pair, ode, m = original(c, p)
        return pair, ReducedODE(ode.order, ode.dependent, add(ode.lhs, S1), ode.kind, ode.note,
                                ode.aux), m
    return mutated


@pytest.mark.parametrize("tag, coords, p", [
    ("Case1", (4, 1, 0, 1), NUM),
    ("Case2_1a", (0, 5, 1, 0), NUM),
    ("Case2_2", (1, 0, 1, 0), ThomasParams()),
    ("Case2_3", (-1, 0, 1, 0), ThomasParams(0, 1, 1)),
    ("Case3_2", (0, 1, 0, 0), NUM),
])
def test_a_mutant_ode_coefficient_is_rejected_cold_and_warm(monkeypatch, cold, tag, coords, p):
    """Cold, the mutant formula fails the stratum's proof, and nothing is
    kept.  Warm, a call reads the proved ODE, so the mutant never runs for
    it: the certificate holds and reduced_ode is the unmutated one."""
    case = CanonicalCase(tag, tuple(F(c) for c in coords), ())
    monkeypatch.setattr(reduction, "_reduction", _mutant(reduction._reduction))
    for read in (verify_reduction, reduced_ode):
        with pytest.raises(ReductionError, match="^reduction mismatch for %s " % tag):
            read(case, p)  # cold: the stratum's proof fails
    assert proved_stratum.cache_info().currsize == 0
    monkeypatch.undo()
    proved = reduced_ode(case, p)
    assert verify_reduction(case, p)
    monkeypatch.setattr(reduction, "_reduction", _mutant(reduction._reduction))
    assert verify_reduction(case, p)  # warm: the proved ODE is read off
    assert reduced_ode(case, p) == proved


def test_a_vanishing_divisor_is_refused():
    """gamma = (a + 1)^2 - a^2 - 2a - 1 is no Rat, so ThomasParams takes it,
    but it is zero, and Case2_3's proof divides by gamma."""
    a = param("a")
    gamma = add(pow_(add(a, ONE), 2), mul(Rat(-1), pow_(a, 2)), mul(Rat(-2), a), Rat(-1))
    case = CanonicalCase("Case2_3", (F(-1), F(0), F(1), F(0)), ())
    with pytest.raises(ReductionError, match="divides by gamma, which vanishes here"):
        verify_reduction(case, ThomasParams(1, 1, gamma))


def test_a_call_off_its_stratum_is_refused(monkeypatch):
    """The relations a stratum fixes guard the branch function: a call sent
    to a stratum it does not lie on is refused, naming the relation."""
    case = CanonicalCase("Case2_3", (F(-1), F(0), F(1), F(0)), ())
    assert verify_reduction(case, NUM)  # inconsistent: alpha*beta != 0
    monkeypatch.setattr(reduction, "_branch", lambda c, p: ("Case2_3", "identity", "alpha = 0"))
    with pytest.raises(ReductionError, match="^Case2_3 is off the stratum Case2_3 identity "
                       "where alpha = 0: alpha is 1, the stratum fixes 0$"):
        verify_reduction(case, NUM)


def _rational(rng, zero_ok):
    while True:
        q = F(rng.randint(-9, 9), rng.randint(1, 5))
        if q or (zero_ok and rng.random() < 0.5):
            return q


_SYMBOLS = (ALPHA, BETA, GAMMA, param("a"))


def _on_stratum(key, rng, zero_ok, symbols=0.15):
    """A call on the stratum ``key``: its representative with a1, a2 and the
    constants bound to seeded rationals, each constant bound to a symbol
    instead at the rate ``symbols``; None where the draw divides by zero."""
    rep = STRATA[key]
    at = {s: _rational(rng, zero_ok) for s in (A1, A2, ALPHA, BETA)}
    at[GAMMA] = _rational(rng, False)
    for s in (ALPHA, BETA, GAMMA):
        if rng.random() < symbols:
            at[s] = rng.choice(_SYMBOLS)
    try:
        a1, a2 = (substitute(c, at) for c in rep.coords)
        p = ThomasParams(*(substitute(getattr(rep.params, n), at)
                           for n in ("alpha", "beta", "gamma")))
    except ZeroDivisionError:
        return None
    coords = tuple(c.value if type(c) is Rat else c for c in (a1, a2))
    return CanonicalCase(rep.tag, coords + (F(0), F(0)), ()), p  # reduction reads a1, a2


def _outcome(verify, case, p):
    try:
        return verify(case, p)
    except ReductionError:
        return ReductionError


def test_verify_reduction_matches_the_per_call_route(seed):
    """Seeded calls on every stratum, and canonical cases of seeded raw
    vectors at rational and symbolic constants: the proved route and the
    per-call route certify the same calls and refuse the same calls."""
    rng = random.Random(seed)
    calls = []
    for key in STRATA:
        for _ in range(20):  # one call that lands on the stratum itself
            call = _on_stratum(key, rng, zero_ok=False)
            if call is not None and _key(*call) == key:
                calls.append(call)
                break
        else:
            pytest.fail("no call drawn on %s" % (key,))
        calls += [c for c in (_on_stratum(key, rng, zero_ok=True) for _ in range(4)) if c]
    for _ in range(120):
        p = ThomasParams(*(_rational(rng, True) for _ in range(2)), _rational(rng, False))
        coords = [_rational(rng, True) for _ in range(4)]
        try:
            case = classify(AlgebraElement(*coords), p)
        except ClassificationError:
            continue
        calls.append((case, p))
        if rng.random() < 0.25:
            calls.append((case, ThomasParams()))
    certified = 0
    for case, p in calls:
        ours = _outcome(verify_reduction, case, p)
        assert ours == _outcome(verify_reduction_per_call, case, p), (case, p)
        certified += ours is True
    assert certified >= len(STRATA)
