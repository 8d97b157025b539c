"""The symmetry algebra of the equation: span{v1, v2, v3, v4} plus the
abelian family v_g, with commutators, the adjoint representation in closed
form, one-parameter group actions, and solution transport.

Each group exp(eps*v) is written once, as a flow: a base map (x, y) ->
(x', y') and a lift (x, y, u) -> u'.  Transport moves a solution's graph:
the new u at (x, y) lifts the old graph point over base_{-eps}(x, y).
The adjoint closed forms are written once too, by `adjoint_coords` in plain
arithmetic, for Expr and Fraction coordinate tuples alike.  An
AlgebraElement is a record of its coordinates and g part with no arithmetic
of its own: the commutator and the adjoint maps build each result from
parts, and a word of flows moves a solution as transform_solution composed
over its entries.

The commutator and adjoint tables are derived once, read at any
constants, g and eps by binding: both are built once per process at the
symbolic constants, g and epsilon, and every other table binds alpha,
beta, gamma, g and the partials g_x, g_y (or epsilon) in that one, through
one substitution.  The entries are ring operations, exp and powers of
gamma on those atoms, so binding them commutes with building the entry.
The commutator table is antisymmetric: only its ten entries above the
diagonal are bracketed and bound, and each one below is read off as the
one above negated.

Basis fields:

    v1 = d/dx                       v2 = d/dy
    v3 = d/du                       v4 = -gamma*x d/dx + gamma*y d/dy + (beta*x - alpha*y) d/du
    v_g = -(g/gamma) e^{-gamma u} d/du,   alpha*g_x + beta*g_y + g_xy = 0

Nonzero brackets on the finite part: [v1,v4] = -gamma v1 + beta v3 and
[v2,v4] = gamma v2 - alpha v3.  The family part transforms by
[v1,v_g] = v_{g_x}, [v2,v_g] = v_{g_y}, [v3,v_g] = v_{-gamma g}, and
[v4,v_g] = v_psi with psi = -gamma*x g_x + gamma*y g_y - gamma(beta*x - alpha*y) g.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .errors import DomainError, Record
from .expr import (
    ALPHA,
    BETA,
    GAMMA,
    Expr,
    ExprError,
    Rat,
    U,
    UFunc,
    X,
    Y,
    ZERO,
    add,
    app,
    contains_jet,
    differentiate,
    evaluate,
    mul,
    param,
    scale,
    _is_zero,
    _substitution,
    _wrap,
)
from .normal import is_zero
from .params import ThomasParams


class AlgebraError(ExprError):
    pass


def _coord(value) -> Expr:
    if isinstance(value, float):
        if not value.is_integer():
            raise AlgebraError(
                "coordinates must be exact; pass Fraction instead of %r" % value
            )
        value = int(value)
    return _wrap(value)


class AlgebraElement(Record):
    """a1 v1 + a2 v2 + a3 v3 + a4 v4 + v_g.  Construction wraps each part
    as an exact coordinate and checks that the g part is free of u and the
    jets.  The check is skipped in one place: ``_unchecked`` builds the
    entries of a table read off the symbolic one by binding rationals only
    (see ``_bind``).  That is safe because every symbolic entry passed the
    check when it was built, and binding rationals into a g part free of u
    and the jets leaves it free of them."""

    a1: Expr = ZERO
    a2: Expr = ZERO
    a3: Expr = ZERO
    a4: Expr = ZERO
    g: Expr = ZERO  # coefficient function of the v_g part, an Expr in (x, y)

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "g"):
            object.__setattr__(self, name, _coord(getattr(self, name)))
        if type(self.g) is not Rat and (
            contains_jet(self.g) or differentiate(self.g, U) != ZERO
        ):
            raise AlgebraError("the g part must depend on (x, y) only")

    @classmethod
    def _unchecked(cls, a1, a2, a3, a4, g):
        """The element of the Expr parts as given, without ``__post_init__``:
        only for a g part known free of u and the jets, such as a checked
        one with rationals bound into it."""
        e = object.__new__(cls)
        for name, part in zip(cls._fields, (a1, a2, a3, a4, g)):
            object.__setattr__(e, name, part)
        return e

    def coords(self):
        return (self.a1, self.a2, self.a3, self.a4)

    def coords_exact(self):
        """Coordinates as Fractions; raises when any is symbolic."""
        out = []
        for a in self.coords():
            if not isinstance(a, Rat):
                raise AlgebraError("coordinate %r is not rational" % a)
            out.append(a.value)
        return tuple(out)

    def has_g(self) -> bool:
        return not is_zero(self.g)


def basis_element(i: int) -> AlgebraElement:
    if i not in (1, 2, 3, 4):
        raise AlgebraError("basis index must be 1..4, got %r" % i)
    coords = [ZERO] * 4
    coords[i - 1] = Rat(1)
    return AlgebraElement(*coords)


def g_element(g: Expr) -> AlgebraElement:
    return AlgebraElement(g=g)


def _psi(g: Expr, p: ThomasParams) -> Expr:
    """Coefficient function of [v4, v_g]."""
    gx = differentiate(g, X)
    gy = differentiate(g, Y)
    return add(
        mul(Rat(-1), p.gamma, X, gx),
        mul(p.gamma, Y, gy),
        mul(Rat(-1), p.gamma, add(mul(p.beta, X), mul(Rat(-1), p.alpha, Y)), g),
    )


def commutator(v: AlgebraElement, w: AlgebraElement, p: ThomasParams = ThomasParams()) -> AlgebraElement:
    s14 = add(mul(v.a1, w.a4), mul(Rat(-1), v.a4, w.a1))
    s24 = add(mul(v.a2, w.a4), mul(Rat(-1), v.a4, w.a2))
    c1 = mul(Rat(-1), p.gamma, s14)
    c2 = mul(p.gamma, s24)
    c3 = add(mul(p.beta, s14), mul(Rat(-1), p.alpha, s24))

    def action(coeffs: AlgebraElement, g: Expr) -> Expr:
        # ad of the finite part on a family element; a term whose
        # coefficient is a rational zero is not built
        a1, a2, a3, a4 = coeffs.coords()
        terms = []
        if not _is_zero(a1):
            terms.append(mul(a1, differentiate(g, X)))
        if not _is_zero(a2):
            terms.append(mul(a2, differentiate(g, Y)))
        if not _is_zero(a3):
            terms.append(mul(Rat(-1), a3, p.gamma, g))
        if not _is_zero(a4):
            terms.append(mul(a4, _psi(g, p)))
        return add(*terms)

    g_new = ZERO
    if w.has_g():
        g_new = add(g_new, action(v, w.g))
    if v.has_g():
        g_new = add(g_new, mul(Rat(-1), action(w, v.g)))
    return AlgebraElement(c1, c2, c3, ZERO, g_new)


def commutator_table(p: ThomasParams = ThomasParams(), g: Expr | None = None):
    """5x5 table over the basis (v1, v2, v3, v4, v_g); entry (i, j) is
    [row_i, col_j].

    Derived once, read at any constants, g and eps by binding: the
    symbolic table's alpha, beta, gamma, g, g_x and g_y are bound to p's
    constants, g and its partials in the ten entries above the diagonal,
    and each entry below it is read off by antisymmetry, [w, v] = -[v, w],
    as the bound entry above it negated part by part.  Each entry is built
    from those atoms by ring operations, so binding commutes with taking
    the bracket; at rational and at symbolic constants the entries are the
    very trees ``commutator`` builds at p."""
    g = _G if g is None else g_element(g).g
    return _bind(_symbolic_tables()[0], p, {
        _G: g, _G_X: differentiate(g, X), _G_Y: differentiate(g, Y)}, antisymmetric=True)


def adjoint_coords(i: int, val, coords, params):
    """Ad(exp(eps*v_i)) on coordinates (a1, a2, a3, a4) over the constants
    (alpha, beta, gamma); val is eps for v1..v3 and t = e^{-gamma*eps} for
    v4.  Plain arithmetic, so one body serves Expr and Fraction coordinates.

    Convention: Ad(exp(eps*v)) w = w - eps [v, w] + eps^2/2 [v,[v,w]] - ...
    The nilpotent rows terminate; the scaling row sums to exponentials.
    """
    alpha, beta, gamma = params
    a1, a2, a3, a4 = coords
    if i == 1:
        return (a1 + val * gamma * a4, a2, a3 - val * beta * a4, a4)
    if i == 2:
        return (a1, a2 - val * gamma * a4, a3 + val * alpha * a4, a4)
    if i == 3:
        return coords
    grow = 1 / val
    a3 += a1 * beta / gamma * (1 - val) - a2 * alpha / gamma * (grow - 1)
    return (a1 * val, a2 * grow, a3, a4)


def _adjoint(i: int, val, w: AlgebraElement, p: ThomasParams) -> AlgebraElement:
    """adjoint_coords on an element: the one check that i names a basis
    generator and that w has no g part."""
    if i not in (1, 2, 3, 4):
        raise AlgebraError("adjoint index must be 1..4, got %r" % i)
    if w.has_g():
        raise AlgebraError("adjoint closed forms cover the finite part only")
    return AlgebraElement(*adjoint_coords(i, val, w.coords(), (p.alpha, p.beta, p.gamma)))


def adjoint(i: int, eps, w: AlgebraElement, p: ThomasParams = ThomasParams()) -> AlgebraElement:
    """Closed-form Ad(exp(eps*v_i)) on span{v1..v4}."""
    eps = _coord(eps)
    if i == 4:  # the v4 map takes t = e^{-gamma*eps}
        eps = app("exp", mul(Rat(-1), p.gamma, eps))
    return _adjoint(i, eps, w, p)


def adjoint_scaling(t, w: AlgebraElement, p: ThomasParams = ThomasParams()) -> AlgebraElement:
    """The v4 adjoint parametrized by t = e^{-gamma*eps}; rational t > 0
    keeps every coordinate rational."""
    t = _coord(t)
    if isinstance(t, Rat) and t.value <= 0:
        raise AlgebraError("scaling parameter must be positive")
    return _adjoint(4, t, w, p)


def adjoint_table(p: ThomasParams = ThomasParams(), eps: Expr | None = None):
    """4x4 table; entry (i, j) is Ad(exp(eps*v_i)) v_j.

    Derived once, read at any constants, g and eps by binding, as the
    commutator table is: the symbolic table's constants and epsilon are
    bound to p's and to eps."""
    eps = _EPS if eps is None else _coord(eps)
    return _bind(_symbolic_tables()[1], p, {_EPS: eps})


_G = UFunc("g", ("x", "y"))()
_G_X = differentiate(_G, X)
_G_Y = differentiate(_G, Y)
_EPS = param("epsilon")
_UPPER = tuple((i, j) for i in range(5) for j in range(i + 1, 5))  # above the diagonal


@cache
def _symbolic_tables():
    """(commutator table, adjoint table) at the symbolic constants, g and
    epsilon, derived once: ``commutator`` runs on the ten pairs i < j of
    the basis, the diagonal is the zero element, and entry (j, i) is
    entry (i, j) negated (``_negated``); ``adjoint`` runs on every pair."""
    p = ThomasParams()
    basis = [basis_element(i) for i in (1, 2, 3, 4)] + [g_element(_G)]
    comm = [[AlgebraElement() if i == j else None for j in range(5)] for i in range(5)]
    for i, j in _UPPER:
        comm[i][j] = commutator(basis[i], basis[j], p)
        comm[j][i] = _negated(comm[i][j], AlgebraElement)
    adj = tuple(tuple(adjoint(i, _EPS, basis[j], p) for j in range(4))
                for i in (1, 2, 3, 4))
    return tuple(map(tuple, comm)), adj


def _negated(e: AlgebraElement, build) -> AlgebraElement:
    """-e, built by ``build`` part by part with ``scale(-1, .)``; a zero
    part is kept as it is."""
    return build(*[a if _is_zero(a) else scale(-1, a) for a in (e.a1, e.a2, e.a3, e.a4, e.g)])


def _bind(table, p: ThomasParams, values: dict, antisymmetric: bool = False):
    """``table`` with the constants bound to p's and every other atom in
    ``values`` to its value, through one substitution; an entry whose parts
    are all rational is kept as it is, and with every binding the identity
    the table is read as it is.  Where every bound value is rational the
    entries are built by ``AlgebraElement._unchecked``: the table's g parts
    passed the element's check, and rationals bound into them keep them
    free of u.  Any other value may bring u in, and is checked.

    An ``antisymmetric`` table is bound above its diagonal only: the
    diagonal is kept, and entry (j, i) is the symbolic one where entry
    (i, j) was kept, and otherwise bound entry (i, j) negated, built the
    same way."""
    values = {ALPHA: p.alpha, BETA: p.beta, GAMMA: p.gamma, **values}
    values = {a: v for a, v in values.items() if v != a}
    if not values:
        return [list(row) for row in table]
    sub = _substitution(values)
    build = (AlgebraElement._unchecked if all(type(v) is Rat for v in values.values())
             else AlgebraElement)

    def bound(e):
        parts = (e.a1, e.a2, e.a3, e.a4, e.g)
        if all(type(a) is Rat for a in parts):
            return e
        return build(*[a if type(a) is Rat else sub(a) for a in parts])

    if not antisymmetric:
        return [[bound(e) for e in row] for row in table]
    out = [list(row) for row in table]
    for i, j in _UPPER:
        e = out[i][j] = bound(table[i][j])
        if e is not table[i][j]:
            out[j][i] = _negated(e, build)
    return out


# --- one-parameter groups ---------------------------------------------------


class GroupDomainError(DomainError, ValueError):
    pass


def _g_callable(g):
    """Accept the family function as a callable, an expression in (x, y),
    or a plain constant."""
    if g is None or callable(g):
        return g
    if isinstance(g, Expr):
        return lambda x, y: evaluate(g, {"x": x, "y": y})
    if isinstance(g, (int, float, Fraction)):
        c = float(g)
        return lambda x, y: c
    raise AlgebraError("cannot use %r as the family function" % (g,))


def _flow(i, eps, p: ThomasParams, g):
    """The base map and lift of exp(eps*v_i); both take floats or
    hyper-dual rows, and the lift reads (x, y) at the source point."""
    g = _g_callable(g)
    if i == 1:
        return (lambda x, y: (x + eps, y)), (lambda x, y, u: u)
    if i == 2:
        return (lambda x, y: (x, y + eps)), (lambda x, y, u: u)
    if i == 3:
        return (lambda x, y: (x, y)), (lambda x, y, u: u + eps)
    alpha, beta, gamma = p.floats()
    if i == 4:
        decay = math.exp(-gamma * eps)
        grow = math.exp(gamma * eps)
        return (lambda x, y: (x * decay, y * grow)), (lambda x, y, u: (
            beta / gamma * x * (1 - decay) + alpha / gamma * y * (1 - grow) + u))
    if i == "g":
        if g is None:
            raise AlgebraError("the family action needs the function g")
        from .hyperdual import HyperDualError, exp_, log_

        def lift(x, y, u):
            arg = gamma * g(x, y) * eps + exp_(gamma * u)
            try:  # log_ checks the argument on floats and rows alike
                out = log_(arg)
            except HyperDualError as exc:
                raise GroupDomainError("family action leaves the log domain: %s" % exc) from None
            return out / gamma

        return (lambda x, y: (x, y)), lift
    raise AlgebraError("unknown generator %r" % (i,))


def group_action(i, eps: float, pt, p: ThomasParams, g=None):
    """Transformed point exp(eps*v_i)(x, y, u).  ``i`` is 1..4 or "g"; the
    family action accepts ``g`` as a callable, expression, or constant."""
    base, lift = _flow(i, eps, p, g)
    x, y, u = pt
    return (*base(x, y), lift(x, y, u))


def transform_solution(i, eps: float, f, p: ThomasParams, g=None):
    """Push a solution u = f(x, y) through exp(eps*v_i): the new graph is the
    image of the old one, so (x, y) is read off at its source point
    base_{-eps}(x, y).  The returned callable accepts the same argument
    types f does (floats or hyper-dual rows)."""
    base = _flow(i, -eps, p, g)[0]
    lift = _flow(i, eps, p, g)[1]

    def moved(x, y):
        x0, y0 = base(x, y)
        return lift(x0, y0, f(x0, y0))

    return moved
