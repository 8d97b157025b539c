"""The constants (alpha, beta, gamma) of u_xy + alpha*u_x + beta*u_y +
gamma*u_x*u_y = 0.

Kept apart from the determining system so that the numeric layers
(families, verification) need only the expression kernel.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Record
from .expr import ALPHA, BETA, GAMMA, Expr, ExprError, Rat


class ParameterError(ExprError):
    pass


def _coerce_param(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Rat(value)
    if isinstance(value, float):
        if not value.is_integer():
            raise ParameterError(
                "equation constants must be exact; pass a Fraction instead of %r" % value
            )
        return Rat(int(value))
    raise ParameterError("cannot use %r as an equation constant" % (value,))


class ThomasParams(Record):
    """The equation constants, each an exact rational or a symbol."""

    alpha: Expr = ALPHA
    beta: Expr = BETA
    gamma: Expr = GAMMA

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, _coerce_param(getattr(self, name)))
        if isinstance(self.gamma, Rat) and self.gamma.value == 0:
            raise ParameterError("gamma must be nonzero")
        try:
            floats = self._convert()
        except ParameterError:
            floats = None
        object.__setattr__(self, "_floats", floats)

    def is_numeric(self) -> bool:
        return all(isinstance(getattr(self, n), Rat) for n in ("alpha", "beta", "gamma"))

    def floats(self):
        """(alpha, beta, gamma) as floats, converted once when the record
        is built; a ParameterError when a constant is symbolic or too large
        for a float."""
        return self._convert() if self._floats is None else self._floats

    def _convert(self):
        if not self.is_numeric():
            raise ParameterError("parameters are symbolic")
        out = []
        for name in ("alpha", "beta", "gamma"):
            try:
                out.append(float(getattr(self, name).value))
            except OverflowError:
                raise ParameterError("constant %s is too large for a float" % name) from None
        return tuple(out)
