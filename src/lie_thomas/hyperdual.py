"""Second-order forward-mode numbers with two infinitesimals, a row of
points at a time.

A hyper-dual carries (value, dx, dy, dxy) with eps1^2 = eps2^2 = 0 and
eps1*eps2 kept.  Evaluating a smooth composition at (x + eps1, y + eps2)
returns the value together with u_x, u_y and the mixed second derivative
u_xy, exactly to floating round-off; no truncation step is involved.  The
mixed derivative is the only second derivative the equation needs, which
is why one pass suffices.

A HyperDualRow holds the hyper-duals of a row of points as four lists, each
point seeded with its own x and y, so an evaluator runs once for a block of
whole grid rows, and a single point is a row of one.  Element i of each
result is rounded as the one-point operation rounds it, so a point reads
the same bits alone as in any row.  A row takes + - * with rows and
floats, / by a float, integer powers, abs, exp, log, cos and ``_lift``.  It
has no order or truth value: an evaluator that branches on one raises
instead of taking one branch for a whole row.  ``affine(a, x, b, y, c)`` is
a x + b y + c, rounded as the composed operations are, and ``lift``
composes a function given by its value and two derivatives.  ``exp_``,
``log_``, ``cos_``, ``affine`` and ``lift`` take plain floats too, and give
floats there.
"""

from __future__ import annotations

import math
from operator import add, mul, neg

from .errors import DomainError


class HyperDualError(DomainError, ValueError):
    """An elementary function evaluated outside its real domain."""


def _no_order(self, *_):
    raise TypeError("a hyper-dual has no order or truth value; an evaluator "
                    "must not branch on one")


class HyperDualRow:
    """Hyper-duals of a row of points: value, dx, dy and dxy are equal-length
    lists of floats.  An evaluator given rows may use + - * with rows and
    floats, / by a float, integer powers, abs, exp_, log_, cos_, affine and
    lift."""

    __slots__ = ("value", "dx", "dy", "dxy")

    def __init__(self, value, dx, dy, dxy):
        self.value, self.dx, self.dy, self.dxy = value, dx, dy, dxy

    @staticmethod
    def seed(xs, ys):
        """The rows x + eps1 and y + eps2 at the points (x, y) of zip(xs, ys)."""
        zeros, ones = [0.0] * len(ys), [1.0] * len(ys)
        return (HyperDualRow(list(map(float, xs)), ones, zeros, zeros),
                HyperDualRow(list(map(float, ys)), zeros, ones, zeros))

    def _parts(self):
        return self.value, self.dx, self.dy, self.dxy

    def __add__(self, other):
        if isinstance(other, HyperDualRow):
            return HyperDualRow(*(list(map(add, p, q))
                                  for p, q in zip(self._parts(), other._parts())))
        return HyperDualRow([v + other for v in self.value], self.dx, self.dy, self.dxy)

    __radd__ = __add__

    def __neg__(self):
        return HyperDualRow(*(list(map(neg, part)) for part in self._parts()))

    def __sub__(self, other):  # a - b rounds as a + (-b) does
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, HyperDualRow):
            a, b = self, other
            return HyperDualRow(
                list(map(mul, a.value, b.value)),
                [p * w + v * q for p, w, v, q in zip(a.dx, b.value, a.value, b.dx)],
                [p * w + v * q for p, w, v, q in zip(a.dy, b.value, a.value, b.dy)],
                [r * w + v * s + p * t + q * u for r, w, v, s, p, t, q, u
                 in zip(a.dxy, b.value, a.value, b.dxy, a.dx, b.dy, a.dy, b.dx)])
        return HyperDualRow(*([d * other for d in part] for part in self._parts()))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * (1.0 / other)

    def _reciprocal(self) -> "HyperDualRow":
        return lift(self, lambda v: (1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v)))

    def __pow__(self, n: int):  # repeated products
        if n < 0:
            return self._reciprocal() ** (-n)
        zeros = [0.0] * len(self.value)
        out = HyperDualRow([1.0] * len(zeros), zeros, zeros, zeros) if n == 0 else self
        for _ in range(n - 1):
            out = out * self
        return out

    def __abs__(self):
        return HyperDualRow(*([-d if v < 0 else d for v, d in zip(self.value, part)]
                              for part in self._parts()))

    def _lift(self, f, fp, fpp) -> "HyperDualRow":
        return HyperDualRow(f, list(map(mul, fp, self.dx)), list(map(mul, fp, self.dy)),
                            [a * dxy + b * dx * dy for a, b, dx, dy, dxy
                             in zip(fp, fpp, self.dx, self.dy, self.dxy)])

    def exp(self) -> "HyperDualRow":
        e = list(map(math.exp, self.value))
        return self._lift(e, e, e)

    def log(self) -> "HyperDualRow":
        bad = next((v for v in self.value if v <= 0), None)
        if bad is not None:
            raise HyperDualError("log of non-positive hyper-dual real part %r" % bad)
        return self._lift(list(map(math.log, self.value)), [1.0 / v for v in self.value],
                          [-1.0 / (v * v) for v in self.value])

    def cos(self) -> "HyperDualRow":
        c = list(map(math.cos, self.value))
        return self._lift(c, [-math.sin(v) for v in self.value], list(map(neg, c)))

    __bool__ = __lt__ = __le__ = __gt__ = __ge__ = _no_order


def affine(a, x, b, y, c):
    """a x + b y + c for float a, b, c; on two rows each part is summed as the
    composed operations sum it, and c enters the value only."""
    if isinstance(x, HyperDualRow) and type(y) is HyperDualRow:
        return HyperDualRow([u * a + v * b + c for u, v in zip(x.value, y.value)],
                            *([u * a + v * b for u, v in zip(p, q)]
                              for p, q in zip(x._parts()[1:], y._parts()[1:])))
    return a * x + b * y + c


def lift(t, fn):
    """f(t) for f known by fn(v) -> (f(v), f'(v), f''(v)), such as a series
    sum; fn sees a float or the real part of each row element."""
    if isinstance(t, HyperDualRow):
        return t._lift(*map(list, zip(*map(fn, t.value))))
    return fn(t)[0]


def exp_(t):
    return t.exp() if isinstance(t, HyperDualRow) else math.exp(t)


def log_(t):
    if isinstance(t, HyperDualRow):
        return t.log()
    if t <= 0:
        raise HyperDualError("log of non-positive value %r" % t)
    return math.log(t)


def cos_(t):
    return t.cos() if isinstance(t, HyperDualRow) else math.cos(t)
