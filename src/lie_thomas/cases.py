"""The canonical cases of one-dimensional subalgebras: the case tree that
`classifier.classify` ends in, and one record per tag.

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

`tag` reads the tree on unscaled coordinates, and `word` gives the adjoint
word that `classify` replays to reach the canonical form; a vector is
canonical for its tag where that word is empty.  A tag's family builder is
`families.TAG_BUILDERS`, and its invariants and reduced ODE are the
switches of `reduction`.  This module imports only `errors`, so any
command reads the table without loading the symbolic or numeric stack.
"""

from .errors import Record


def tag(coords, params):
    """The case of the tree above, read on unscaled coordinates with its
    divisions multiplied out."""
    alpha, beta, gamma = params
    a1, a2, a3, a4 = coords
    if a4:
        return "Case1"
    if a3:
        if a2:
            disc = (alpha * a2 - beta * a1 + gamma * a3) ** 2 + 4 * gamma * beta * a1 * a3
            return "Case2_1a" if disc >= 0 else "Case2_1b"
        if not a1:
            return "Case2_4"
        return "Case2_3" if beta * a1 + gamma * a3 == 0 else "Case2_2"
    if a1 and a2:
        return "Case3_1a" if alpha and alpha * a2 == beta * a1 else "Case3_1b"
    return "Case3_2" if a1 or a2 else "Zero"


def word(coords, params):
    """classify's adjoint word on Fraction coordinates: scale the first
    nonzero of a4, a3, a1, a2 to 1, then cancel a3 against a4 by v1 (beta
    != 0) or v2 (alpha != 0); None where alpha = beta = 0 leaves a3*a4 != 0."""
    alpha, beta, _ = params
    a1, a2, a3, a4 = coords
    pivot = a4 or a3 or a1 or a2
    scale = (("scale", 1 / pivot),) if pivot not in (0, 1) else ()
    if not (a4 and a3):
        return scale
    if beta:
        return scale + (("v1", a3 / a4 / beta),)
    return scale + (("v2", -a3 / a4 / alpha),) if alpha else None


class Case(Record):
    # default canonical (a1, a2, a3, a4) of reduce/solve --case, None for Zero,
    # or (name, f): f(alpha, beta, gamma) on exact constants, name nonzero
    coords: object
    divisor: int = 0  # the invariants divide by a<divisor>; 0 when by no coordinate
    obstruction: str = ""  # why the case has no invariant solution
    constant: bool = False  # a constant u is invariant (the translations, a3 = a4 = 0)


CASES = {
    "Case1": Case((0, 0, 0, 1)),
    "Case2_1a": Case((1, 2, 1, 0), divisor=2),
    "Case2_1b": Case((-1, -1, 1, 0), divisor=2),
    "Case2_2": Case((1, 0, 1, 0), divisor=1),
    "Case2_3": Case(("beta", lambda alpha, beta, gamma: (-gamma / beta, 0, 1, 0)),
                    obstruction="the reduction is inconsistent unless alpha*beta = 0, "
                    "and an identity there; no family is built for it"),
    "Case2_4": Case((0, 0, 1, 0), obstruction="its vector v3 = d/du has characteristic 1 "
                    "on every graph; no u(x, y) is invariant"),
    "Case3_1a": Case(("alpha", lambda alpha, beta, gamma: (1, beta / alpha, 0, 0)),
                     divisor=2, constant=True),
    "Case3_1b": Case((1, 2, 0, 0), divisor=2, constant=True),
    "Case3_2": Case((0, 1, 0, 0), constant=True),
    "Zero": Case(None),
}

TAGS = tuple(CASES)
