"""Canonical-case assignment: coverage, exact word replay, orbit stability."""

import random
from fractions import Fraction

import pytest

from lie_thomas.algebra import AlgebraElement, adjoint
from lie_thomas.classifier import (
    TAGS,
    CanonicalCase,
    ClassificationError,
    apply_word,
    classify,
    orbit_invariance_check,
)
from lie_thomas.determining import ThomasParams
from lie_thomas.expr import Rat


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
        moved = adjoint(2, Rat(eps), el.scale(1 / a4), p)
        assert moved.coords_exact() == case.coords
        assert orbit_invariance_check(el, p, trials=8, rng=rng)


def test_symbolic_params_rejected():
    with pytest.raises(ClassificationError):
        classify(AlgebraElement(1, 0, 0, 0), ThomasParams())


def test_g_part_rejected():
    from lie_thomas.algebra import g_element
    from lie_thomas.determining import exponential_g
    from lie_thomas.expr import R

    g, _ = exponential_g(R(2), P)
    with pytest.raises(ClassificationError):
        classify(AlgebraElement(1, 0, 0, 0) + g_element(g), P)


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
        el = AlgebraElement(*coords)
        c = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        scaled = el.scale(c)
        assert classify(el, P).tag == classify(scaled, P).tag
