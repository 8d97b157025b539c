"""Canonical representatives of one-dimensional subalgebras.

Any nonzero v = a1 v1 + a2 v2 + a3 v3 + a4 v4 is driven to a canonical
form by generator rescaling and the adjoint maps that stay inside exact
rational arithmetic.  The case tree (`tag`) and the word that reaches the
canonical form (`word`) live in `cases`, read off unscaled coordinates.

Everything runs on exact (a1, a2, a3, a4) Fraction tuples.  Each word
entry is one exact map: "scale" multiplies all coordinates, and "v1".."v4"
run `algebra.adjoint_coords` on the tuple ("v4" in t = e^{-gamma*eps} >
0).  Words from `classify` hold only scale, v1 and v2 entries; v4 entries
come only from the orbit moves of `orbit_invariance_check`.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import cases
from .algebra import AlgebraElement, adjoint, adjoint_coords, adjoint_scaling
from .errors import DomainError, Record
from .expr import Rat
from .params import ThomasParams


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
    word: tuple  # ordered ("scale" | "v1" | "v2", Fraction) pairs

    def element(self) -> AlgebraElement:
        return AlgebraElement(*[Rat(c) for c in self.coords])


def _fraction(q):
    return q if type(q) is Fraction else Fraction(q)


_GENERATORS = {"v1": 1, "v2": 2, "v3": 3, "v4": 4}


def _move(op, val, coords, params):
    """One word entry on exact coordinates; v1..v4 by algebra.adjoint_coords."""
    if op == "scale":
        a1, a2, a3, a4 = coords
        return (a1 * val, a2 * val, a3 * val, a4 * val)
    i = _GENERATORS.get(op)
    if i is None:
        raise ClassificationError("unknown word entry %r" % (op,))
    if i == 4 and val <= 0:  # val is t = e^{-gamma*eps}
        raise ClassificationError("a v4 entry needs t > 0, got %s" % val)
    return adjoint_coords(i, val, coords, params)


def apply_word(coords, word, p: ThomasParams):
    """Replay a word of (entry, value) pairs on raw coordinates, exactly."""
    params = _exact_params(p)
    a1, a2, a3, a4 = (_fraction(c) for c in coords)
    coords = (a1, a2, a3, a4)
    for op, val in word:
        coords = _move(op, _fraction(val), coords, params)
    return coords


def classify(v: AlgebraElement, p: ThomasParams) -> CanonicalCase:
    if v.has_g():
        raise ClassificationError(
            "classification covers the span of v1..v4; drop the g part first"
        )
    params = _exact_params(p)
    coords = v.coords_exact()
    word = cases.word(coords, params)
    if word is None:
        raise ClassificationError("cannot cancel the v3 coordinate when alpha = beta = 0")
    return CanonicalCase(cases.tag(coords, params), apply_word(coords, word, p), word)


def orbit_invariance_check(
    v: AlgebraElement,
    p: ThomasParams,
    trials: int = 20,
    rng: random.Random | None = None,
) -> bool:
    """Whether the tag survives random adjoint moves of v.

    The v4 adjoint on a4 = 0 elements can create or destroy the v3
    coordinate (crossing the Case2/Case3 boundary), so it is drawn only
    when a4 != 0, as t = e^{-gamma*eps} to stay exact.  The first move is
    also made on the Expr path of the same closed forms (`algebra.adjoint`),
    and any difference from `_move` fails the check.

    As drawn, the check cannot fail: the v1/v2 adjoints move a1, a2, a3
    only by multiples of a4 and the v3 adjoint is the identity, so on
    a4 = 0 no move changes v, and a4 != 0 is Case1 on its whole orbit.
    v4 moves on every stratum (ROADMAP item 8) are where it would bite.
    """
    if rng is None:
        rng = random.Random(0)
    start = classify(v, p).tag
    if start == "Zero":
        return True
    params = _exact_params(p)
    coords = v.coords_exact()
    ops = ("v1", "v2", "v3", "v4") if coords[3] != 0 else ("v1", "v2", "v3")
    for trial in range(trials):
        op = rng.choice(ops)
        low = 1 if op == "v4" else -12
        val = Fraction(rng.randint(low, 12), rng.randint(1, 12))
        moved = _move(op, val, coords, params)
        if not trial:
            i = _GENERATORS[op]
            closed = adjoint_scaling(Rat(val), v, p) if i == 4 else adjoint(i, Rat(val), v, p)
            if closed.coords_exact() != moved:
                return False
        if cases.tag(moved, params) != start:
            return False
    return True
