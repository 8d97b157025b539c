"""Independent oracles, used only by the tests: the commutator and adjoint
tables built entry by entry on every call, the adjoint action summed
from iterated brackets, the Lie bracket of two point fields from their
action on functions, the annihilation of a case's invariants by its field,
the reduction certificate derived afresh on every call, the Frobenius
series of chi y'' + e y' + m y = 0 by its closed coefficients and its
residual, a hyper-dual number of one point, the reference every
hyper-dual row operation is rounded as, and the text and LaTeX printers
that read each coefficient through Fraction arithmetic, the reference the
printer's output must equal byte for byte."""

import math
from fractions import Fraction

from lie_thomas.algebra import AlgebraElement, adjoint, basis_element, commutator, g_element
from lie_thomas.determining import ThomasParams
from lie_thomas.expr import (Add, App, Expr, Func, Mul, Pow, Rat, Sym, UFunc, add, mul, param,
                             pow_, substitute)
from lie_thomas.fuchs import FuchsSeries, fuchs_series
from lie_thomas.hyperdual import HyperDualError
from lie_thomas.normal import canonical_expr, is_zero
from lie_thomas.printer import _PREC_ADD, _PREC_ATOM, _PREC_MUL, _PREC_POW, _latex_name, join_signed
from lie_thomas.reduction import CHI, ReductionError, _jets, _reduction, invariants
from lie_thomas.vectorfield import VectorField


def commutator_table_per_call(p: ThomasParams = ThomasParams(), g: Expr | None = None):
    """The 5x5 commutator table with nothing kept between calls: the 25
    brackets of fresh basis elements (v1, v2, v3, v4, v_g) at p."""
    if g is None:
        g = UFunc("g", ("x", "y"))()
    basis = [basis_element(i) for i in (1, 2, 3, 4)] + [g_element(g)]
    return [[commutator(r, c, p) for c in basis] for r in basis]


def adjoint_table_per_call(p: ThomasParams = ThomasParams(), eps: Expr | None = None):
    """The 4x4 adjoint table with nothing kept between calls: the 16
    closed-form maps Ad(exp(eps*v_i)) v_j of fresh basis elements at p."""
    if eps is None:
        eps = param("epsilon")
    return [
        [adjoint(i, eps, basis_element(j), p) for j in (1, 2, 3, 4)]
        for i in (1, 2, 3, 4)
    ]


def lie_series_adjoint(
    i: int,
    eps: Expr,
    w: AlgebraElement,
    p: ThomasParams = ThomasParams(),
    order: int = 12,
) -> AlgebraElement:
    """Ad(exp(eps*v_i)) w summed term by term from iterated brackets,
    truncated at the given order.  Independent of the closed forms."""
    v = basis_element(i)
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


def vf_bracket(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket [v, w] of point fields."""
    return VectorField(
        v.apply(w.xi) - w.apply(v.xi),
        v.apply(w.eta) - w.apply(v.eta),
        v.apply(w.phi) - w.apply(v.phi),
    )


def annihilation_residuals(c, p: ThomasParams = ThomasParams()):
    """(v(chi), v(varsigma)) for the canonical field; both must vanish."""
    v = c.element().to_field(p)
    pair = invariants(c, p)
    return v.apply(pair.chi), v.apply(pair.varsigma)


def verify_reduction_per_call(c, p: ThomasParams = ThomasParams()) -> bool:
    """The reduction certificate with nothing kept between calls: run the
    case's own formulas at c and p (reduction._reduction), substitute the
    chain-rule jets of their pair into the equation and confirm the result
    is 1/m times their ODE, with that pair's chi expanded in (x, y)."""
    pair, ode, m = _reduction(c, p)
    u_x, u_y, u_xy = _jets(pair, c.tag)
    delta_sub = add(u_xy, mul(p.alpha, u_x), mul(p.beta, u_y), mul(p.gamma, u_x, u_y))
    lhs_expanded = substitute(ode.lhs, {CHI: pair.chi})
    if is_zero(m):
        raise ReductionError("stored multiplier is zero for %s" % c.tag)
    k = pow_(m, -1)
    diff = add(delta_sub, mul(Rat(-1), k, lhs_expanded))
    if not is_zero(diff):
        raise ReductionError(
            "reduction mismatch for %s: substituted equation %r, %r times stored ODE %r"
            % (c.tag, canonical_expr(delta_sub), k, canonical_expr(lhs_expanded))
        )
    return True


def coefficient_closed(e, m, n: int):
    """a_n = (-m)^n / (n! * e (e+1) ... (e+n-1)), exact on Fractions."""
    poch = 1
    for k in range(n):
        poch *= e + k
    return (-m) ** n / (math.factorial(n) * poch)


def fuchs_solution(e: float, m: float, chi: float) -> float:
    return fuchs_series(e, m, abs(chi))(chi)


def ode_residual(series: FuchsSeries, chi: float) -> float:
    y, ypr, ypp = series.eval(chi)
    return chi * ypp + series.e * ypr + series.m * y


def _no_order(self, *_):
    raise TypeError("a hyper-dual has no order or truth value; an evaluator "
                    "must not branch on one")


class HyperDual:
    """One point (value, dx, dy, dxy) with eps1^2 = eps2^2 = 0 and eps1*eps2
    kept: the reference each HyperDualRow operation is rounded as, element
    by element.  It takes the row's operation set, with exp, log, cos and
    _lift as methods only."""

    __slots__ = ("value", "dx", "dy", "dxy")

    def __init__(self, value: float, dx: float = 0.0, dy: float = 0.0, dxy: float = 0.0):
        self.value = float(value)
        self.dx = float(dx)
        self.dy = float(dy)
        self.dxy = float(dxy)

    def __repr__(self):
        return "HyperDual(%r, %r, %r, %r)" % (self.value, self.dx, self.dy, self.dxy)

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.value + other.value, self.dx + other.dx,
                             self.dy + other.dy, self.dxy + other.dxy)
        return HyperDual(self.value + other, self.dx, self.dy, self.dxy)

    __radd__ = __add__

    def __neg__(self):
        return HyperDual(-self.value, -self.dx, -self.dy, -self.dxy)

    def __sub__(self, other):  # a - b rounds as a + (-b) does
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(
                self.value * other.value,
                self.dx * other.value + self.value * other.dx,
                self.dy * other.value + self.value * other.dy,
                self.dxy * other.value
                + self.value * other.dxy
                + self.dx * other.dy
                + self.dy * other.dx,
            )
        return HyperDual(self.value * other, self.dx * other, self.dy * other, self.dxy * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1.0 / other)

    def _reciprocal(self) -> "HyperDual":
        v = self.value
        return self._lift(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def __pow__(self, n: int):  # repeated products
        if n < 0:
            return self._reciprocal() ** (-n)
        out = HyperDual(1.0) if n == 0 else self
        for _ in range(n - 1):
            out = out * self
        return out

    def __abs__(self):
        return -self if self.value < 0 else self

    def _lift(self, f: float, fp: float, fpp: float) -> "HyperDual":
        """Compose an analytic f given f, f', f'' at the real part."""
        return HyperDual(f, fp * self.dx, fp * self.dy, fp * self.dxy + fpp * self.dx * self.dy)

    def exp(self) -> "HyperDual":
        e = math.exp(self.value)
        return self._lift(e, e, e)

    def log(self) -> "HyperDual":
        v = self.value
        if v <= 0:
            raise HyperDualError("log of non-positive hyper-dual real part %r" % v)
        return self._lift(math.log(v), 1.0 / v, -1.0 / (v * v))

    def cos(self) -> "HyperDual":
        c = math.cos(self.value)
        return self._lift(c, -math.sin(self.value), -c)

    __bool__ = __lt__ = __le__ = __gt__ = __ge__ = _no_order


def _reference_split_mul(e: Mul):
    """(rational coefficient, numerator factors, denominator factors); the
    first rational factor is the coefficient as it is."""
    coeff = None
    num, den = [], []
    for f in e.factors:
        if isinstance(f, Rat):
            coeff = f.value if coeff is None else coeff * f.value
        elif isinstance(f, Pow) and f.exp < 0:
            den.append(f.base if f.exp == -1 else Pow(f.base, -f.exp))
        else:
            num.append(f)
    return (Fraction(1) if coeff is None else coeff), num, den


def _reference_text_frac(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


def _reference_txt(e: Expr, prec: int) -> str:
    if isinstance(e, Rat):
        s = _reference_text_frac(e.value)
        need = _PREC_ADD if e.value < 0 else (_PREC_MUL if e.value.denominator != 1 else _PREC_ATOM)
        return "(" + s + ")" if prec > need else s
    if isinstance(e, Sym):
        return e.name
    if isinstance(e, Func):
        return e.name + e.suffix
    if isinstance(e, App):
        return e.fn + "(" + _reference_txt(e.arg, _PREC_ADD) + ")"
    if isinstance(e, Pow):
        return _reference_txt(e.base, _PREC_ATOM) + "^" + (
            str(e.exp) if e.exp >= 0 else "(" + str(e.exp) + ")"
        )
    if isinstance(e, Add):
        s = join_signed([_reference_txt(t, _PREC_ADD) for t in e.terms])
        return "(" + s + ")" if prec > _PREC_ADD else s
    if isinstance(e, Mul):
        coeff, num, den = _reference_split_mul(e)
        sign = ""
        if coeff < 0:
            sign = "-"
            coeff = -coeff
        pieces = []
        if coeff.numerator != 1 or not num:
            pieces.append(str(coeff.numerator))
        pieces.extend(_reference_txt(f, _PREC_MUL + 1) for f in num)
        s = "*".join(pieces)
        if coeff.denominator != 1:
            den = [Rat(coeff.denominator)] + den
        if den:
            ds = "*".join(_reference_txt(f, _PREC_POW) for f in den)
            s = s + "/" + (ds if len(den) == 1 else "(" + ds + ")")
        s = sign + s
        need = _PREC_ADD if sign else _PREC_MUL
        return "(" + s + ")" if prec > need else s
    raise TypeError("cannot print %r" % type(e).__name__)


def reference_text(e: Expr) -> str:
    """``printer.to_text`` as it read each coefficient through Fraction
    compares, negation and a Rat node per denominator."""
    return _reference_txt(e, _PREC_ADD)


def _reference_ltx(e: Expr, prec: int) -> str:
    if isinstance(e, Rat):
        q = e.value
        if q.denominator == 1:
            s = str(q.numerator)
            return "(" + s + ")" if prec > _PREC_ADD and q < 0 else s
        s = ""
        if q < 0:
            s = "-"
            q = -q
        s += r"\frac{%d}{%d}" % (q.numerator, q.denominator)
        return "(" + s + ")" if prec > _PREC_ADD and s.startswith("-") else s
    if isinstance(e, Sym):
        return _latex_name(e.name)
    if isinstance(e, Func):
        return _latex_name(e.name + e.suffix)
    if isinstance(e, App):
        return "\\" + e.fn + r"\left(" + _reference_ltx(e.arg, _PREC_ADD) + r"\right)"
    if isinstance(e, Pow):
        return _reference_ltx(e.base, _PREC_ATOM) + "^{" + str(e.exp) + "}"
    if isinstance(e, Add):
        s = join_signed([_reference_ltx(t, _PREC_ADD) for t in e.terms])
        return r"\left(" + s + r"\right)" if prec > _PREC_ADD else s
    if isinstance(e, Mul):
        coeff, num, den = _reference_split_mul(e)
        sign = ""
        if coeff < 0:
            sign = "-"
            coeff = -coeff
        num_parts = []
        if coeff.numerator != 1 or (not num and coeff.denominator == 1):
            num_parts.append(str(coeff.numerator))
        num_parts.extend(_reference_ltx(f, _PREC_MUL + 1) for f in num)
        ns = " ".join(num_parts) if num_parts else "1"
        if coeff.denominator != 1 or den:
            den_parts = []
            if coeff.denominator != 1:
                den_parts.append(str(coeff.denominator))
            den_parts.extend(_reference_ltx(f, _PREC_MUL) for f in den)
            s = sign + r"\frac{%s}{%s}" % (ns, " ".join(den_parts))
        else:
            s = sign + ns
        need = _PREC_ADD if sign else _PREC_MUL
        return r"\left(" + s + r"\right)" if prec > need else s
    raise TypeError("cannot print %r" % type(e).__name__)


def reference_latex(e: Expr) -> str:
    """``printer.to_latex`` as it read each coefficient through Fraction
    compares and negation."""
    return _reference_ltx(e, _PREC_ADD)
