"""Second-order forward-mode numbers with two infinitesimals.

A HyperDual carries (value, dx, dy, dxy) with eps1^2 = eps2^2 = 0 and
eps1*eps2 kept.  Evaluating a smooth composition at (x + eps1, y + eps2)
returns the value together with u_x, u_y and the mixed second derivative
u_xy, exactly to floating round-off; no truncation step is involved.  The
mixed derivative is the only second derivative the equation needs, which
is why one pass suffices.

``HyperDual(...)`` coerces its parts to float.  Arithmetic and lift results
hold floats already and are built by the internal ``_hd``, which does not.
``affine(a, x, b, y, c)`` is a x + b y + c as one hyper-dual, rounded as
the composed operations are.
"""

from __future__ import annotations

import math

from .errors import DomainError


class HyperDualError(DomainError, ValueError):
    """An elementary function evaluated outside its real domain."""


class HyperDual:
    __slots__ = ("value", "dx", "dy", "dxy")

    def __init__(self, value: float, dx: float = 0.0, dy: float = 0.0, dxy: float = 0.0):
        self.value = float(value)
        self.dx = float(dx)
        self.dy = float(dy)
        self.dxy = float(dxy)

    @staticmethod
    def x_at(x: float) -> "HyperDual":
        return _hd(float(x), 1.0, 0.0, 0.0)

    @staticmethod
    def y_at(y: float) -> "HyperDual":
        return _hd(float(y), 0.0, 1.0, 0.0)

    def __repr__(self):
        return "HyperDual(%r, %r, %r, %r)" % (self.value, self.dx, self.dy, self.dxy)

    def __float__(self):
        return self.value

    # --- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return _hd(self.value + other.value, self.dx + other.dx, self.dy + other.dy,
                       self.dxy + other.dxy)
        return _hd(self.value + other, self.dx, self.dy, self.dxy)

    __radd__ = __add__

    def __neg__(self):
        return _hd(-self.value, -self.dx, -self.dy, -self.dxy)

    def __sub__(self, other):  # a - b rounds as a + (-b) does
        if isinstance(other, HyperDual):
            return _hd(self.value - other.value, self.dx - other.dx, self.dy - other.dy,
                       self.dxy - other.dxy)
        return _hd(self.value - other, self.dx, self.dy, self.dxy)

    def __rsub__(self, other):
        return _hd(other - self.value, -self.dx, -self.dy, -self.dxy)

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            return _hd(
                self.value * other.value,
                self.dx * other.value + self.value * other.dx,
                self.dy * other.value + self.value * other.dy,
                self.dxy * other.value
                + self.value * other.dxy
                + self.dx * other.dy
                + self.dy * other.dx,
            )
        return _hd(self.value * other, self.dx * other, self.dy * other, self.dxy * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other._reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def _reciprocal(self) -> "HyperDual":
        v = self.value
        return self._lift(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def __pow__(self, n):
        if isinstance(n, int):
            if n == 0:
                return _hd(1.0, 0.0, 0.0, 0.0)
            if n < 0:
                return self._reciprocal() ** (-n)
            out = self
            for _ in range(n - 1):
                out = out * self
            return out
        v = self.value
        return self._lift(
            math.pow(v, n),
            n * math.pow(v, n - 1),
            n * (n - 1) * math.pow(v, n - 2),
        )

    def __abs__(self):
        return -self if self.value < 0 else self

    # comparisons look at the real part only (domain predicates)
    def __lt__(self, other):
        return self.value < float(other)

    def __le__(self, other):
        return self.value <= float(other)

    def __gt__(self, other):
        return self.value > float(other)

    def __ge__(self, other):
        return self.value >= float(other)

    # --- analytic lifts ---------------------------------------------------

    def _lift(self, f: float, fp: float, fpp: float) -> "HyperDual":
        """Compose an analytic f given f, f', f'' at the real part."""
        return _hd(f, fp * self.dx, fp * self.dy, fp * self.dxy + fpp * self.dx * self.dy)

    def exp(self) -> "HyperDual":
        e = math.exp(self.value)
        return self._lift(e, e, e)

    def log(self) -> "HyperDual":
        v = self.value
        if v <= 0:
            raise HyperDualError("log of non-positive hyper-dual real part %r" % v)
        return self._lift(math.log(v), 1.0 / v, -1.0 / (v * v))

    def sqrt(self) -> "HyperDual":
        r = math.sqrt(self.value)
        return self._lift(r, 0.5 / r, -0.25 / (r * self.value))

    def cos(self) -> "HyperDual":
        c = math.cos(self.value)
        return self._lift(c, -math.sin(self.value), -c)

    def tan(self) -> "HyperDual":
        t = math.tan(self.value)
        sec2 = 1.0 + t * t
        return self._lift(t, sec2, 2.0 * t * sec2)

    def arctan(self) -> "HyperDual":
        v = self.value
        w = 1.0 + v * v
        return self._lift(math.atan(v), 1.0 / w, -2.0 * v / (w * w))


def _hd(value: float, dx: float, dy: float, dxy: float) -> HyperDual:
    """HyperDual of four floats, without the public constructor's coercion."""
    h = object.__new__(HyperDual)
    h.value, h.dx, h.dy, h.dxy = value, dx, dy, dxy
    return h


def affine(a, x, b, y, c):
    """a x + b y + c for float a, b, c; on two hyper-duals each part is summed
    as the composed operations sum it, and c enters the value only."""
    if isinstance(x, HyperDual) and isinstance(y, HyperDual):
        return _hd(x.value * a + y.value * b + c, x.dx * a + y.dx * b,
                   x.dy * a + y.dy * b, x.dxy * a + y.dxy * b)
    return a * x + b * y + c


def lift_with_derivatives(t, f: float, fp: float, fpp: float):
    """Apply a univariate function known only through its value and first
    two derivatives at t (floats or HyperDual); used for series-defined
    functions whose derivatives have a closed form."""
    if isinstance(t, HyperDual):
        return t._lift(float(f), fp, fpp)
    return f


def seed(x: float, y: float):
    return HyperDual.x_at(x), HyperDual.y_at(y)


def exp_(t):
    return t.exp() if isinstance(t, HyperDual) else math.exp(t)


def log_(t):
    if isinstance(t, HyperDual):
        return t.log()
    if t <= 0:
        raise HyperDualError("log of non-positive value %r" % t)
    return math.log(t)


def cos_(t):
    return t.cos() if isinstance(t, HyperDual) else math.cos(t)


def value_of(t) -> float:
    return t.value if isinstance(t, HyperDual) else float(t)
