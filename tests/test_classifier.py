"""Canonical-case assignment: coverage, exact word replay, orbit stability."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from lie_thomas import classifier
from lie_thomas.algebra import AlgebraElement, AlgebraError, adjoint, adjoint_scaling
from lie_thomas.cases import TAGS
from lie_thomas.classifier import (
    ClassificationError,
    apply_word,
    classify,
    orbit_invariance_check,
)
from lie_thomas.determining import ThomasParams
from lie_thomas.expr import Rat, param
from oracles import lie_series_adjoint


P = ThomasParams(1, 1, 1)


def _cls(*coords, p=P):
    return classify(AlgebraElement(*[Fraction(c) for c in coords]), p)


def test_scaling_case_with_elimination():
    case = _cls(1, 1, 3, 1)
    assert case.tag == "Case1"
    assert case.word == (("v1", Fraction(3)),)
    assert case.coords == (Fraction(4), Fraction(1), Fraction(0), Fraction(1))


def test_scaling_case_rescales_a4():
    case = _cls(2, 0, 0, 2)
    assert case.tag == "Case1"
    assert case.coords[3] == 1
    assert ("scale", Fraction(1, 2)) in case.word


def test_translation_cases():
    assert _cls(1, 2, 1, 0).tag in ("Case2_1a", "Case2_1b")
    # alpha=beta=gamma=1, a1=1, a2=2: D = (2-1+1)^2 + 4*1*1*1 = 8 > 0
    assert _cls(1, 2, 1, 0).tag == "Case2_1a"
    # (-1,-1): D = (-1+1+1)^2 + 4*1*1*(-1) = -3 < 0
    assert _cls(-1, -1, 1, 0).tag == "Case2_1b"
    assert _cls(1, 0, 1, 0).tag == "Case2_2"
    assert _cls(-1, 0, 1, 0).tag == "Case2_3"  # a1 = -gamma/beta = -1
    assert _cls(0, 0, 1, 0).tag == "Case2_4"


def test_degenerate_a1_zero_stratum():
    # a4 = 0, a3 != 0, a1 = 0, a2 != 0: discriminant (alpha a2 + gamma)^2 >= 0
    case = _cls(0, 5, 1, 0)
    assert case.tag == "Case2_1a"


def test_point_translation_cases():
    assert _cls(1, 1, 0, 0).tag == "Case3_1a"  # a2 = beta/alpha = 1
    assert _cls(1, 2, 0, 0).tag == "Case3_1b"
    assert _cls(0, 1, 0, 0).tag == "Case3_2"
    assert _cls(1, 0, 0, 0).tag == "Case3_2"


def test_zero_vector_tag():
    case = _cls(0, 0, 0, 0)
    assert case.tag == "Zero"
    assert case.word == ()


def test_word_replay_exact():
    case = _cls(3, -2, 7, 5)
    replay = apply_word(
        tuple(Fraction(c) for c in (3, -2, 7, 5)), case.word, P
    )
    assert replay == case.coords


def test_beta_zero_obstruction():
    p0 = ThomasParams(0, 0, 1)
    with pytest.raises(ClassificationError, match="alpha = beta = 0"):
        _cls(0, 0, 1, 1, p=p0)  # a4 != 0, a3 != 0 needs alpha or beta != 0
    # but a3 = 0 still classifies
    assert _cls(0, 0, 0, 1, p=p0).tag == "Case1"


@pytest.mark.parametrize("constants", [(1, 0, 1), (2, 0, 3)])
def test_beta_zero_cancels_a3_with_the_v2_adjoint(constants, rng):
    p = ThomasParams(*constants)
    alpha, _, gamma = (Fraction(c) for c in constants)
    for _ in range(25):
        a1, a2 = (Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
        a3, a4 = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 4))
                  for _ in range(2))
        coords = (a1, a2, a3, a4)
        el = AlgebraElement(*coords)
        case = classify(el, p)
        assert case.tag == "Case1"
        eps = -(a3 / a4) / alpha
        assert case.word[-1] == ("v2", eps)
        assert case.coords == (a1 / a4, a2 / a4 + gamma * (a3 / a4) / alpha, 0, 1)
        assert apply_word(coords, case.word, p) == case.coords
        moved = adjoint(2, Rat(eps), AlgebraElement(*(c / a4 for c in coords)), p)
        assert moved.coords_exact() == case.coords
        assert orbit_invariance_check(el, p, trials=8, rng=rng)


def test_symbolic_params_rejected():
    with pytest.raises(ClassificationError):
        classify(AlgebraElement(1, 0, 0, 0), ThomasParams())


def test_g_part_rejected():
    from lie_thomas.determining import exponential_g
    from lie_thomas.expr import R

    g, _ = exponential_g(R(2), P)
    with pytest.raises(ClassificationError):
        classify(AlgebraElement(1, 0, 0, 0, g), P)


def test_coverage_sample(rng):
    seen = set()
    for _ in range(800):
        coords = tuple(
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if rng.random() > 0.3
            else Fraction(0)
            for _ in range(4)
        )
        case = classify(AlgebraElement(*coords), P)
        assert case.tag in TAGS
        assert apply_word(coords, case.word, P) == case.coords
        seen.add(case.tag)
    # the sampler hits the major strata
    assert {"Case1", "Case2_1a", "Case2_1b", "Case2_2", "Case3_1b", "Case3_2"} <= seen


def test_orbit_invariance(rng):
    for coords in [(1, 1, 3, 1), (1, 2, 1, 0), (-1, -1, 1, 0), (1, 2, 0, 0),
                   (0, 1, 0, 0), (2, -3, 1, 0)]:
        el = AlgebraElement(*[Fraction(c) for c in coords])
        assert orbit_invariance_check(el, P, trials=12, rng=rng)


def test_nonzero_scale_preserves_tag(rng):
    for _ in range(40):
        coords = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        if not any(coords):
            continue
        c = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        scaled = AlgebraElement(*(c * a for a in coords))
        assert classify(AlgebraElement(*coords), P).tag == classify(scaled, P).tag


def _q(rng, zero_share=0.25):
    if rng.random() < zero_share:
        return Fraction(0)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def _series_coords(i, eps, coords, p, order):
    """Ad(exp(eps*v_i)) summed from iterated brackets: a reference for
    apply_word that shares no code with it."""
    return lie_series_adjoint(i, Rat(eps), AlgebraElement(*coords), p, order).coords_exact()


@pytest.mark.parametrize("op", ["scale", "v1", "v2", "v3", "v4"])
def test_each_word_entry_is_the_closed_form(op, rng):
    strata = set()
    for _ in range(250):
        alpha, beta = _q(rng, 0.3), _q(rng, 0.3)
        p = ThomasParams(alpha, beta, _q(rng, 0))
        coords = tuple(_q(rng) for _ in range(4))
        val = _q(rng, 0.1 if op == "scale" else 0)
        el = AlgebraElement(*coords)
        if op == "scale":
            closed = AlgebraElement(*(val * a for a in coords))
        elif op == "v4":
            val = abs(val)
            closed = adjoint_scaling(Rat(val), el, p)
        else:
            closed = adjoint(int(op[1]), Rat(val), el, p)
        moved = apply_word(coords, ((op, val),), p)
        assert moved == closed.coords_exact(), (op, val, coords, p)
        assert all(type(c) is Fraction for c in moved)
        if op in ("v1", "v2", "v3"):  # the series terminates by order 4
            assert moved == _series_coords(int(op[1]), val, coords, p, 4), (op, val, coords, p)
        strata.add((alpha == 0, beta == 0))
    assert strata == {(False, False), (True, False), (False, True), (True, True)}
    if op != "v4":
        return
    # the v4 series does not terminate: hold the entry at t = e^{-gamma*eps}
    # to it in floats, |gamma*eps| <= 9/5 putting order 30 far below 1e-12
    for alpha, beta in ((_q(rng, 0), _q(rng, 0)), (0, _q(rng, 0)), (_q(rng, 0), 0), (0, 0)):
        for eps in (Fraction(1, 5), Fraction(-1, 7), Fraction(1, 10)):
            gamma = _q(rng, 0)
            p = ThomasParams(alpha, beta, gamma)
            coords = tuple(_q(rng) for _ in range(4))
            moved = apply_word(coords, (("v4", Fraction(math.exp(-gamma * eps))),), p)
            series = _series_coords(4, eps, coords, p, 30)
            for a, b in zip(moved, series):
                assert abs(a - b) <= 1e-12 * max(1, abs(b)), (eps, coords, p)


def test_word_entries_outside_the_maps_are_rejected():
    with pytest.raises(ClassificationError, match="t > 0"):
        apply_word((1, 1, 1, 1), (("v4", 0),), P)
    with pytest.raises(ClassificationError, match="t > 0"):
        apply_word((1, 1, 1, 1), (("v4", -2),), P)
    with pytest.raises(ClassificationError, match="unknown word entry 'v5'"):
        apply_word((1, 1, 1, 1), (("v5", 1),), P)


def test_error_order_g_part_then_constants_then_coordinates():
    from lie_thomas.determining import exponential_g
    from lie_thomas.expr import R

    g, _ = exponential_g(R(2), P)
    eps = param("epsilon")
    with pytest.raises(ClassificationError, match="g part"):
        classify(AlgebraElement(eps, 0, 0, 0, g), ThomasParams())
    with pytest.raises(ClassificationError, match="numeric"):
        classify(AlgebraElement(eps, 0, 0, 0), ThomasParams())
    with pytest.raises(AlgebraError, match="not rational"):
        classify(AlgebraElement(eps, 0, 0, 0), P)


def test_orbit_check_certifies_the_exact_map_against_the_closed_form(monkeypatch):
    el = AlgebraElement(1, 2, 3, 4)  # Case1 on its whole orbit, so no tag can change
    assert orbit_invariance_check(el, P, trials=4, rng=random.Random(5))
    exact = classifier._move

    def off_by_one(op, val, coords, params):
        a1, a2, a3, a4 = exact(op, val, coords, params)
        return (a1 + 1, a2, a3, a4)

    monkeypatch.setattr(classifier, "_move", off_by_one)
    assert not orbit_invariance_check(el, P, trials=4, rng=random.Random(5))


# Pins of the classifier's output and of the draws of the orbit check, with
# literals taken from the closed-form implementation.  The constants include
# alpha = 0, beta = 0 and alpha = beta = 0.
PIN_PARAMS = ((1, 1, 1), (2, -3, 5), (0, 2, -1), (3, 0, 2), (0, 0, 1), (-1, -1, 3))
CLASSIFY_PIN = "2c23edd004cf2d8a6c359c8a3ddcbdf11d294d9f8613508502831cd0cf8db34c"
ORBIT_PIN = "22921ba00ca295786531ab15e359395119063b747bacc5bb317c9bdad72666cb"


def _pin_cases(n, seed=21):
    """Seeded vectors with zero coordinates mixed in; a fifth of them built to
    land on Case2_3 (a1 = -gamma*a3/beta) or Case3_1a (a2 = beta*a1/alpha)
    where the constants allow it."""
    rng = random.Random(seed)
    for _ in range(n):
        constants = rng.choice(PIN_PARAMS)
        alpha, beta, gamma = (Fraction(c) for c in constants)
        a = [_q(rng, 0.35) for _ in range(4)]
        kind = rng.random()
        if kind < 0.1 and beta:
            a[0], a[1], a[3] = -gamma * a[2] / beta, Fraction(0), Fraction(0)
        elif kind < 0.2 and alpha:
            a[1], a[2], a[3] = beta * a[0] / alpha, Fraction(0), Fraction(0)
        yield ThomasParams(*constants), AlgebraElement(*a)


def _outcome(fn):
    try:
        return repr(fn())
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _classified(el, p):
    case = classify(el, p)
    return case.tag, case.coords, case.word


def _orbit_and_next_draw(el, p, seed, trials):
    rng = random.Random(seed)
    return orbit_invariance_check(el, p, trials=trials, rng=rng), rng.random()


def test_classify_pin():
    outcomes = [_outcome(lambda: _classified(el, p)) for p, el in _pin_cases(6000)]
    tags = {line.split("'")[1] for line in outcomes if line.startswith("(")}
    assert tags == set(TAGS)
    assert any(line.startswith("ClassificationError") for line in outcomes)
    assert _digest(outcomes) == CLASSIFY_PIN


def test_orbit_check_pin():
    outcomes = [_outcome(lambda: _orbit_and_next_draw(el, p, k, 6))
                for k, (p, el) in enumerate(_pin_cases(600, seed=22))]
    assert _digest(outcomes) == ORBIT_PIN


@pytest.mark.parametrize("coords, seed, draw", [
    ((1, -2, 3, 2), 7, 0.28960928633167626),
    ((2, -1, 1, 0), 8, 0.25835670603191274),
])
def test_orbit_check_leaves_the_rng_where_it_did(coords, seed, draw):
    el = AlgebraElement(*[Fraction(c) for c in coords])
    assert _orbit_and_next_draw(el, P, seed, 12) == (True, draw)


def test_orbit_check_makes_its_own_rng_when_given_none():
    for el in (AlgebraElement(1, 2, 3, 4), AlgebraElement(0, 1, 0, 0), AlgebraElement()):
        assert orbit_invariance_check(el, P, trials=3)
