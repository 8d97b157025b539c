"""Canonical representatives of one-dimensional subalgebras.

Any nonzero v = a1 v1 + a2 v2 + a3 v3 + a4 v4 is driven to a canonical
form by generator rescaling and the adjoint maps that stay inside exact
rational arithmetic.  The case tree:

    a4 != 0                -> Case1       (scale a4 to 1, then kill a3:)
        beta != 0:            with Ad(exp((a3/beta) v1)), a1 -> a1 + gamma*a3/beta
        beta = 0, alpha != 0: with Ad(exp((-a3/alpha) v2)), a2 -> a2 + gamma*a3/alpha
        alpha = beta = 0:     a3 != 0 is obstructed (a3 is adjoint-invariant there)
    a4 = 0, a3 != 0        -> Case2_*     (scale a3 to 1)
        a1*a2 != 0:           2_1a / 2_1b by the sign of
                              D = (alpha*a2 - beta*a1 + gamma)^2 + 4*gamma*beta*a1
        a1 = 0, a2 != 0:      2_1a (the quadratic degenerates, D = (alpha*a2+gamma)^2 >= 0)
        a2 = 0, a1 != 0:      2_2, or 2_3 when a1 = -gamma/beta
        a1 = a2 = 0:          2_4
    a4 = a3 = 0            -> Case3_*
        a1 != 0:              scale a1 to 1; 3_1a when a2 = beta/alpha, 3_1b when a2 != 0
                              otherwise (a2 = 0) the x-translation mirror of 3_2
        a1 = 0, a2 != 0:      3_2 (scale to (0,1,0,0))
    zero vector            -> Zero

The recorded word replays bit-for-bit in Fractions: "scale" entries multiply
all coordinates, "v1"/"v2"/"v3" entries are the (polynomial, hence exact)
adjoint maps.  The v4 adjoint is never needed for canonicalization.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgebraElement, adjoint, adjoint_scaling
from .errors import DomainError, Record
from .expr import Rat
from .params import ThomasParams

TAGS = (
    "Case1",
    "Case2_1a",
    "Case2_1b",
    "Case2_2",
    "Case2_3",
    "Case2_4",
    "Case3_1a",
    "Case3_1b",
    "Case3_2",
    "Zero",
)


class ClassificationError(DomainError, ValueError):
    pass


def _exact_params(p: ThomasParams):
    try:
        return tuple(getattr(p, n).value for n in ("alpha", "beta", "gamma"))
    except AttributeError:
        raise ClassificationError(
            "classification needs numeric (rational) equation constants"
        ) from None


class CanonicalCase(Record):
    tag: str
    coords: tuple  # canonical (a1, a2, a3, a4) as Fractions
    word: tuple  # ordered ("scale" | "v1" | "v2" | "v3", Fraction) pairs

    def element(self) -> AlgebraElement:
        return AlgebraElement(*[Rat(c) for c in self.coords])


def apply_word(coords, word, p: ThomasParams):
    """Replay a classification word on raw coordinates, exactly."""
    alpha, beta, gamma = _exact_params(p)
    a1, a2, a3, a4 = (Fraction(c) for c in coords)
    for op, val in word:
        val = Fraction(val)
        if op == "scale":
            a1, a2, a3, a4 = a1 * val, a2 * val, a3 * val, a4 * val
        elif op == "v1":
            a1, a3 = a1 + val * gamma * a4, a3 - val * beta * a4
        elif op == "v2":
            a2, a3 = a2 - val * gamma * a4, a3 + val * alpha * a4
        elif op == "v3":
            pass
        else:
            raise ClassificationError("unknown word entry %r" % (op,))
    return (a1, a2, a3, a4)


def classify(v: AlgebraElement, p: ThomasParams) -> CanonicalCase:
    if v.has_g():
        raise ClassificationError(
            "classification covers the span of v1..v4; drop the g part first"
        )
    alpha, beta, gamma = _exact_params(p)
    a1, a2, a3, a4 = v.coords_exact()
    word = []

    if a1 == a2 == a3 == a4 == 0:
        return CanonicalCase("Zero", (Fraction(0),) * 4, ())

    if a4 != 0:
        if a4 != 1:
            s = 1 / a4
            word.append(("scale", s))
            a1, a2, a3, a4 = a1 * s, a2 * s, a3 * s, Fraction(1)
        if a3 != 0:
            if beta != 0:
                eps = a3 / beta
                word.append(("v1", eps))
                a1 = a1 + eps * gamma
            elif alpha != 0:
                eps = -a3 / alpha
                word.append(("v2", eps))
                a2 = a2 - eps * gamma
            else:
                raise ClassificationError(
                    "cannot cancel the v3 coordinate when alpha = beta = 0"
                )
            a3 = Fraction(0)
        return CanonicalCase("Case1", (a1, a2, a3, a4), tuple(word))

    if a3 != 0:
        if a3 != 1:
            s = 1 / a3
            word.append(("scale", s))
            a1, a2, a3 = a1 * s, a2 * s, Fraction(1)
        coords = (a1, a2, a3, Fraction(0))
        if a2 != 0:
            disc = (alpha * a2 - beta * a1 + gamma) ** 2 + 4 * gamma * beta * a1
            tag = "Case2_1a" if disc >= 0 else "Case2_1b"
            return CanonicalCase(tag, coords, tuple(word))
        if a1 == 0:
            return CanonicalCase("Case2_4", coords, tuple(word))
        if beta != 0 and a1 == -gamma / beta:
            return CanonicalCase("Case2_3", coords, tuple(word))
        return CanonicalCase("Case2_2", coords, tuple(word))

    # a3 = a4 = 0
    if a1 != 0:
        if a1 != 1:
            s = 1 / a1
            word.append(("scale", s))
            a1, a2 = Fraction(1), a2 * s
        coords = (a1, a2, Fraction(0), Fraction(0))
        if a2 == 0:
            return CanonicalCase("Case3_2", coords, tuple(word))
        if alpha != 0 and a2 == beta / alpha:
            return CanonicalCase("Case3_1a", coords, tuple(word))
        return CanonicalCase("Case3_1b", coords, tuple(word))
    if a2 != 1:
        word.append(("scale", 1 / a2))
    return CanonicalCase(
        "Case3_2", (Fraction(0), Fraction(1), Fraction(0), Fraction(0)), tuple(word)
    )


def orbit_invariance_check(
    v: AlgebraElement,
    p: ThomasParams,
    trials: int = 20,
    rng: random.Random | None = None,
) -> bool:
    """Whether the tag survives random adjoint moves.

    The v4 adjoint on a4 = 0 elements can create or destroy the v3
    coordinate (crossing the Case2/Case3 boundary), so it is exercised
    only when a4 != 0, where the tag is pinned by a4 being adjoint-
    invariant.  The v4 moves use the rational parametrization
    t = e^{-gamma*eps} to stay exact.
    """
    if rng is None:
        rng = random.Random(0)
    base = classify(v, p)
    if base.tag == "Zero":
        return True
    a4 = v.coords_exact()[3]
    choices = [1, 2, 3, 4] if a4 != 0 else [1, 2, 3]
    for _ in range(trials):
        i = rng.choice(choices)
        if i == 4:
            t = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            moved = adjoint_scaling(Rat(t), v, p)
        else:
            eps = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
            moved = adjoint(i, Rat(eps), v, p)
        if classify(moved, p).tag != base.tag:
            return False
    return True
