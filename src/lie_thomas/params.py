"""The constants (alpha, beta, gamma) of u_xy + alpha*u_x + beta*u_y +
gamma*u_x*u_y = 0.

Kept apart from the determining system so that the numeric layers
(families, verification) need only the expression kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expr import ALPHA, BETA, GAMMA, Expr, ExprError, Rat


class ParameterError(ExprError):
    pass


def _coerce_param(value):
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Rat(value)
    if isinstance(value, float):
        if value != int(value):
            raise ParameterError(
                "equation constants must be exact; pass a Fraction instead of %r" % value
            )
        return Rat(int(value))
    raise ParameterError("cannot use %r as an equation constant" % (value,))


@dataclass(frozen=True)
class ThomasParams:
    """The equation constants, each an exact rational or a symbol."""

    alpha: Expr = ALPHA
    beta: Expr = BETA
    gamma: Expr = GAMMA

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            object.__setattr__(self, name, _coerce_param(getattr(self, name)))
        if isinstance(self.gamma, Rat) and self.gamma.value == 0:
            raise ParameterError("gamma must be nonzero")

    def is_numeric(self) -> bool:
        return all(isinstance(getattr(self, n), Rat) for n in ("alpha", "beta", "gamma"))

    def floats(self):
        if not self.is_numeric():
            raise ParameterError("parameters are symbolic")
        return (
            float(self.alpha.value),
            float(self.beta.value),
            float(self.gamma.value),
        )
