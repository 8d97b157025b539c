"""The symmetry algebra of the equation: span{v1, v2, v3, v4} plus the
abelian family v_g, with commutators, the adjoint representation in closed
form, one-parameter group actions, and solution transport.

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
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .expr import (
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
    mul,
    pow_,
    _wrap,
)
from .determining import ThomasParams, general_symmetry
from .normal import is_zero
from .vectorfield import VectorField


class AlgebraError(ExprError):
    pass


def _coord(value) -> Expr:
    if isinstance(value, float):
        if value != int(value):
            raise AlgebraError(
                "coordinates must be exact; pass Fraction instead of %r" % value
            )
        value = int(value)
    return _wrap(value)


@dataclass(frozen=True)
class AlgebraElement:
    a1: Expr = ZERO
    a2: Expr = ZERO
    a3: Expr = ZERO
    a4: Expr = ZERO
    g: Expr = ZERO  # coefficient function of the v_g part, an Expr in (x, y)

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "g"):
            object.__setattr__(self, name, _coord(getattr(self, name)))
        if contains_jet(self.g) or differentiate(self.g, U) != ZERO:
            raise AlgebraError("the g part must depend on (x, y) only")

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

    def is_zero(self) -> bool:
        return all(is_zero(a) for a in self.coords()) and not self.has_g()

    def to_field(self, p: ThomasParams) -> VectorField:
        return general_symmetry(self.a3, self.a2, self.a1, self.a4, self.g, p, check=False)

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return AlgebraElement(
            self.a1 + other.a1,
            self.a2 + other.a2,
            self.a3 + other.a3,
            self.a4 + other.a4,
            self.g + other.g,
        )

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + other.scale(-1)

    def scale(self, c) -> "AlgebraElement":
        c = _coord(c)
        return AlgebraElement(*[mul(c, a) for a in self.coords()], g=mul(c, self.g))


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
    a, b = v, w
    s14 = add(mul(a.a1, b.a4), mul(Rat(-1), a.a4, b.a1))
    s24 = add(mul(a.a2, b.a4), mul(Rat(-1), a.a4, b.a2))
    c1 = mul(Rat(-1), p.gamma, s14)
    c2 = mul(p.gamma, s24)
    c3 = add(mul(p.beta, s14), mul(Rat(-1), p.alpha, s24))

    def action(coeffs: AlgebraElement, g: Expr) -> Expr:
        # ad of the finite part on a family element
        return add(
            mul(coeffs.a1, differentiate(g, X)),
            mul(coeffs.a2, differentiate(g, Y)),
            mul(Rat(-1), coeffs.a3, p.gamma, g),
            mul(coeffs.a4, _psi(g, p)),
        )

    g_new = ZERO
    if w.has_g():
        g_new = add(g_new, action(v, w.g))
    if v.has_g():
        g_new = add(g_new, mul(Rat(-1), action(w, v.g)))
    return AlgebraElement(c1, c2, c3, ZERO, g_new)


def commutator_table(p: ThomasParams = ThomasParams(), g: Expr | None = None):
    """5x5 table over the basis (v1, v2, v3, v4, v_g); entry (i, j) is
    [row_i, col_j]."""
    if g is None:
        g = UFunc("g", ("x", "y"))()
    basis = [basis_element(i) for i in (1, 2, 3, 4)] + [g_element(g)]
    return [[commutator(r, c, p) for c in basis] for r in basis]


def adjoint(i: int, eps, w: AlgebraElement, p: ThomasParams = ThomasParams()) -> AlgebraElement:
    """Closed-form Ad(exp(eps*v_i)) on span{v1..v4}.

    Convention: Ad(exp(eps*v)) w = w - eps [v, w] + eps^2/2 [v,[v,w]] - ...
    The nilpotent rows terminate; the scaling row sums to exponentials.
    """
    if i not in (1, 2, 3, 4):
        raise AlgebraError("adjoint index must be 1..4, got %r" % i)
    if w.has_g():
        raise AlgebraError("adjoint closed forms cover the finite part only")
    eps = _coord(eps)
    a1, a2, a3, a4 = w.coords()
    if i == 1:
        return AlgebraElement(
            add(a1, mul(eps, p.gamma, a4)),
            a2,
            add(a3, mul(Rat(-1), eps, p.beta, a4)),
            a4,
        )
    if i == 2:
        return AlgebraElement(
            a1,
            add(a2, mul(Rat(-1), eps, p.gamma, a4)),
            add(a3, mul(eps, p.alpha, a4)),
            a4,
        )
    if i == 3:
        return w
    decay = app("exp", mul(Rat(-1), p.gamma, eps))
    grow = app("exp", mul(p.gamma, eps))
    return _v4_adjoint(decay, grow, w, p)


def _v4_adjoint(decay: Expr, grow: Expr, w: AlgebraElement, p: ThomasParams) -> AlgebraElement:
    a1, a2, a3, a4 = w.coords()
    a3_new = add(
        a3,
        mul(a1, p.beta, pow_(p.gamma, -1), add(Rat(1), mul(Rat(-1), decay))),
        mul(Rat(-1), a2, p.alpha, pow_(p.gamma, -1), add(grow, Rat(-1))),
    )
    return AlgebraElement(mul(a1, decay), mul(a2, grow), a3_new, a4)


def adjoint_scaling(t, w: AlgebraElement, p: ThomasParams = ThomasParams()) -> AlgebraElement:
    """The v4 adjoint parametrized by t = e^{-gamma*eps}; rational t > 0
    keeps every coordinate rational."""
    t = _coord(t)
    if isinstance(t, Rat) and t.value <= 0:
        raise AlgebraError("scaling parameter must be positive")
    return _v4_adjoint(t, pow_(t, -1), w, p)


def adjoint_table(p: ThomasParams = ThomasParams(), eps: Expr | None = None):
    """4x4 table; entry (i, j) is Ad(exp(eps*v_i)) v_j."""
    if eps is None:
        from .expr import param

        eps = param("epsilon")
    return [
        [adjoint(i, eps, basis_element(j), p) for j in (1, 2, 3, 4)]
        for i in (1, 2, 3, 4)
    ]


def lie_series_adjoint(
    i: int,
    eps,
    w: AlgebraElement,
    p: ThomasParams = ThomasParams(),
    order: int = 12,
) -> AlgebraElement:
    """Ad(exp(eps*v_i)) w summed term by term from iterated brackets,
    truncated at the given order.  Independent of the closed forms."""
    v = basis_element(i)
    eps = _coord(eps)
    total = w
    term = w
    sign_eps = mul(Rat(-1), eps)
    for n in range(1, order + 1):
        term = commutator(v, term, p)
        if term.is_zero():
            break
        coeff = mul(pow_(sign_eps, n), Rat(Fraction(1, math.factorial(n))))
        total = total + term.scale(coeff)
    return total


# --- one-parameter groups ---------------------------------------------------


def _exp(t):
    return t.exp() if hasattr(t, "exp") else math.exp(t)


class GroupDomainError(DomainError, ValueError):
    pass


def _log(t):
    if hasattr(t, "log"):
        return t.log()
    if t <= 0:
        raise GroupDomainError("log domain violation")
    return math.log(t)


def _g_callable(g):
    """Accept the family function as a callable, an expression in (x, y),
    or a plain constant."""
    if g is None or callable(g):
        return g
    if isinstance(g, Expr):
        from .expr import evaluate

        return lambda x, y: evaluate(g, {"x": x, "y": y})
    if isinstance(g, (int, float, Fraction)):
        c = float(g)
        return lambda x, y: c
    raise AlgebraError("cannot use %r as the family function" % (g,))


def group_action(i, eps: float, pt, p: ThomasParams, g=None):
    """Transformed point exp(eps*v_i)(x, y, u).  ``i`` is 1..4 or "g"; the
    family action accepts ``g`` as a callable, expression, or constant."""
    g = _g_callable(g)
    x, y, u = pt
    if i == 1:
        return (x + eps, y, u)
    if i == 2:
        return (x, y + eps, u)
    if i == 3:
        return (x, y, u + eps)
    alpha, beta, gamma = p.floats()
    if i == 4:
        decay = math.exp(-gamma * eps)
        grow = math.exp(gamma * eps)
        return (
            x * decay,
            y * grow,
            beta / gamma * x * (1 - decay) + alpha / gamma * y * (1 - grow) + u,
        )
    if i == "g":
        if g is None:
            raise AlgebraError("the family action needs the function g")
        arg = gamma * g(x, y) * eps + math.exp(gamma * u)
        if arg <= 0:
            raise GroupDomainError(
                "family action leaves the log domain at (%g, %g)" % (x, y)
            )
        return (x, y, math.log(arg) / gamma)
    raise AlgebraError("unknown generator %r" % (i,))


def transform_solution(i, eps: float, f, p: ThomasParams, g=None):
    """Push a solution u = f(x, y) through exp(eps*v_i); returns a new
    callable that accepts the same argument types f does (floats or dual
    numbers)."""
    g = _g_callable(g)
    alpha, beta, gamma = p.floats()
    if i == 1:
        return lambda x, y: f(x - eps, y)
    if i == 2:
        return lambda x, y: f(x, y - eps)
    if i == 3:
        return lambda x, y: f(x, y) + eps
    if i == 4:
        grow = math.exp(gamma * eps)
        decay = math.exp(-gamma * eps)

        def u4(x, y):
            return (
                beta / gamma * x * (grow - 1)
                + alpha / gamma * y * (decay - 1)
                + f(x * grow, y * decay)
            )

        return u4
    if i == "g":
        if g is None:
            raise AlgebraError("the family transport needs the function g")

        def ug(x, y):
            arg = gamma * g(x, y) * eps + _exp(gamma * f(x, y))
            probe = arg if isinstance(arg, float) else getattr(arg, "value", None)
            if probe is not None and probe <= 0:
                raise GroupDomainError("family transport leaves the log domain")
            return _log(arg) / gamma

        return ug
    raise AlgebraError("unknown generator %r" % (i,))


@dataclass(frozen=True)
class GroupElement:
    generator: object  # 1..4 or "g"
    eps: float
    g: object = None  # callable for the family generator

    def apply(self, pt, p: ThomasParams):
        return group_action(self.generator, self.eps, pt, p, self.g)

    def transport(self, f, p: ThomasParams):
        return transform_solution(self.generator, self.eps, f, p, self.g)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.generator, -self.eps, self.g)


@dataclass(frozen=True)
class GroupWord:
    elements: tuple = ()

    def apply(self, pt, p: ThomasParams):
        for el in self.elements:
            pt = el.apply(pt, p)
        return pt

    def transport(self, f, p: ThomasParams):
        for el in self.elements:
            f = el.transport(f, p)
        return f

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple(el.inverse() for el in reversed(self.elements)))

    def __mul__(self, other):
        if not isinstance(other, GroupWord):
            return NotImplemented
        return GroupWord(self.elements + other.elements)
