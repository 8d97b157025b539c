"""Seeded input generation.

Every input the benchmark feeds the program is drawn here from one
``random.Random(seed)``, so a seed fixes the whole run.  Classification
vectors are stratified: the canonical tag is drawn first and the raw
coordinates second, because plain random rationals almost always land in
Case1 (a4 != 0) and would leave the other eight strata unmeasured.
"""

from __future__ import annotations

import random
from fractions import Fraction

# The nine tags that carry a one-dimensional subalgebra; Zero is not drawn.
STRATA = (
    "Case1",
    "Case2_1a",
    "Case2_1b",
    "Case2_2",
    "Case2_3",
    "Case2_4",
    "Case3_1a",
    "Case3_1b",
    "Case3_2",
)


def rational(rng: random.Random, top: int = 9, den: int = 5, zero_ok: bool = False) -> Fraction:
    """A small rational p/q with |p| <= top and 1 <= q <= den."""
    while True:
        q = Fraction(rng.randint(-top, top), rng.randint(1, den))
        if q or zero_ok:
            return q


def params(rng: random.Random):
    """(alpha, beta, gamma) with alpha*beta*gamma != 0."""
    return tuple(rational(rng) for _ in range(3))


def _disc(alpha, beta, gamma, a1, a2):
    return (alpha * a2 - beta * a1 + gamma) ** 2 + 4 * gamma * beta * a1


def _case2_plane(tag, alpha, beta, gamma, rng):
    """Canonical (a1, a2) with a3 = 1, a4 = 0 inside the stratum ``tag``."""
    if tag == "Case2_1a":
        while True:
            a1 = Fraction(0) if rng.random() < 0.2 else rational(rng)
            a2 = rational(rng)
            if _disc(alpha, beta, gamma, a1, a2) >= 0:
                return a1, a2
    if tag == "Case2_1b":
        # pick a1 with gamma*beta*a1 < 0, then a2 near the root of the
        # squared term, so the discriminant is negative by construction
        while True:
            a1 = abs(rational(rng))
            if gamma * beta > 0:
                a1 = -a1
            a2 = (beta * a1 - gamma) / alpha + rational(rng, top=1, den=9, zero_ok=True)
            if a2 != 0 and _disc(alpha, beta, gamma, a1, a2) < 0:
                return a1, a2
    if tag == "Case2_2":
        while True:
            a1 = rational(rng)
            if a1 != -gamma / beta:
                return a1, Fraction(0)
    if tag == "Case2_3":
        return -gamma / beta, Fraction(0)
    if tag == "Case2_4":
        return Fraction(0), Fraction(0)
    raise ValueError(tag)


def vector_for(tag: str, p, rng: random.Random):
    """Raw coordinates (a1, a2, a3, a4) whose canonical tag is ``tag``
    under exact parameters ``p``; a random nonzero scale keeps them off the
    canonical representative."""
    alpha, beta, gamma = p
    s = rational(rng)
    if tag == "Case1":
        return (
            rational(rng, zero_ok=True),
            rational(rng, zero_ok=True),
            rational(rng, zero_ok=True),
            s,
        )
    if tag.startswith("Case2_"):
        a1, a2 = _case2_plane(tag, alpha, beta, gamma, rng)
        return (a1 * s, a2 * s, s, Fraction(0))
    zero = Fraction(0)
    if tag == "Case3_1a":
        return (s, s * beta / alpha, zero, zero)
    if tag == "Case3_1b":
        while True:
            t = rational(rng)
            if t != beta / alpha:
                return (s, s * t, zero, zero)
    if tag == "Case3_2":
        return (s, zero, zero, zero) if rng.random() < 0.5 else (zero, s, zero, zero)
    raise ValueError("unknown stratum %r" % tag)


def shift_parameter(beta, rng: random.Random):
    """lambda for exponential_g: nonzero, and lambda + beta != 0 when beta is
    a number."""
    while True:
        lam = rational(rng, top=8, den=4)
        if not isinstance(beta, Fraction) or lam + beta != 0:
            return lam
