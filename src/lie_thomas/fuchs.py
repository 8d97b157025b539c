"""Power-series solutions of  chi y'' + e y' + m y = 0.

The equation has a regular singular point at chi = 0; the exponent-zero
Frobenius branch y = sum a_n chi^n with a_0 = 1 has an infinite radius of
convergence, so the partial sums evaluate the solution on the whole line.
Coefficients come from the one-step recurrence; the tests pin them to the
closed product formula.  ``fuchs_series`` truncates the one generator of
the recurrence that ``coefficients_recurrence`` also reads.
``second_solution`` is the other branch.

Both records carry, off their fields, the coefficients of their term-wise
derivatives (n a_n, and n (n - 1) a_n for the series), computed once when
the record is made.  Calling a record sums its value only; ``eval`` sums
the value with its derivatives.  Each term is rounded as (n a_n) chi^(n-1)
and (n (n - 1) a_n) chi^(n-2), with the powers of chi taken by repeated
products, so precomputing changes no bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice

from .errors import DomainError, Record


class FuchsError(DomainError, ValueError):
    pass


_MAX_TERMS = 400
_TAIL_REL = 1e-16


def _check_e(e: float) -> None:
    # the recurrence divides by e, e+1, e+2, ...
    if e <= 0 and abs(e - round(e)) < 1e-12:
        raise FuchsError(
            "exponent parameter e = %r hits the recurrence poles {0, -1, -2, ...}" % e
        )


def _recurrence(e, m, a):
    """a_1, a_2, ... after a_0 = a, from a_n = -m a_{n-1} / (n (e + n - 1))."""
    for n in count(1):
        a = -m * a / (n * (e + n - 1))
        yield a


def coefficients_recurrence(e, m, n_max: int):
    """a_0..a_n_max of the recurrence, exact when e and m are Fractions."""
    _check_e(float(e))
    a = Fraction(1) if isinstance(e, Fraction) and isinstance(m, Fraction) else 1.0
    return [a, *islice(_recurrence(e, m, a), n_max)]


class FuchsSeries(Record):
    e: float
    m: float
    coefficients: tuple
    truncation: int
    tail_bound: float

    def __post_init__(self):
        # term-wise derivative coefficients, bound off the fields so that
        # equality, hashing and repr see the series alone
        c = self.coefficients
        object.__setattr__(self, "_slopes", _slopes(c))
        object.__setattr__(self, "_curvatures",
                           tuple([n * (n - 1) * a for n, a in enumerate(c)]))

    def __call__(self, chi: float) -> float:
        """y at chi."""
        return _value(self.coefficients, chi)

    def eval(self, chi: float):
        """(y, y', y'') at chi by term-wise differentiation."""
        y = ypr = ypp = 0.0
        power, prev, prev2 = 1.0, 0.0, 0.0  # chi^n, chi^(n-1), chi^(n-2)
        for a, slope, curvature in zip(self.coefficients, self._slopes, self._curvatures):
            y += a * power
            ypr += slope * prev  # the n = 0 term, +-0.0 * 0.0, leaves 0.0
            ypp += curvature * prev2  # as do the n = 0 and n = 1 terms
            prev2, prev, power = prev, power, power * chi
        return y, ypr, ypp


def _slopes(coefficients):
    """n a_n for every n: the coefficients of the term-wise derivative,
    each at the power chi^(n-1) of the term it came from."""
    return tuple([n * a for n, a in enumerate(coefficients)])


def _value(coefficients, chi: float) -> float:
    """sum a_n chi^n, powers of chi taken by repeated products."""
    y, power = 0.0, 1.0
    for a in coefficients:
        y += a * power
        power *= chi
    return y


def _value_slope(coefficients, slopes, chi: float):
    """(sum a_n chi^n, sum (n a_n) chi^(n-1)) in one pass."""
    y = ypr = 0.0
    power, prev = 1.0, 0.0
    for a, slope in zip(coefficients, slopes):
        y += a * power
        ypr += slope * prev
        prev, power = power, power * chi
    return y, ypr


def fuchs_series(e: float, m: float, chi_max: float) -> FuchsSeries:
    """Series truncated so the dropped tail is negligible for |chi| <=
    chi_max (both the value and the second-derivative sums)."""
    e = float(e)
    m = float(m)
    _check_e(e)
    coeffs = [1.0]
    scaled = 1.0  # |a_n| r^n, tracked incrementally to dodge overflow
    r = max(abs(chi_max), 1.0)
    for n, a in enumerate(_recurrence(e, m, 1.0), 1):
        scaled *= abs(m) * r / (n * abs(e + n - 1))
        coeffs.append(a)
        # n^2 |a_n| r^n bounds the differentiated term sums too
        if n > 4 and n * n * scaled < _TAIL_REL:
            break
        if n >= _MAX_TERMS:
            raise FuchsError(
                "series did not meet the tail bound within %d terms (|chi| <= %r)"
                % (_MAX_TERMS, chi_max)
            )
    tail = (n + 1) ** 2 * scaled
    return FuchsSeries(e, m, tuple(coeffs), len(coeffs) - 1, tail)


class SecondSolution(Record):
    """y_2 = |chi|^rho (log|chi| S_v + S_d); S_v is empty unless e is an integer."""

    rho: float
    log_coefficients: tuple  # S_v
    coefficients: tuple  # S_d
    truncation: int
    tail_bound: float

    def __post_init__(self):
        object.__setattr__(self, "_slopes", _slopes(self.coefficients))
        object.__setattr__(self, "_log_slopes", _slopes(self.log_coefficients))

    def __call__(self, chi: float) -> float:
        """y_2 at chi != 0."""
        s, v = _value(self.coefficients, chi), _value(self.log_coefficients, chi)
        return abs(chi) ** self.rho * (s + math.log(abs(chi)) * v)

    def eval(self, chi: float):
        """(y_2, y_2') at chi != 0."""
        s, ds = _value_slope(self.coefficients, self._slopes, chi)
        v, dv = _value_slope(self.log_coefficients, self._log_slopes, chi)
        log, scale = math.log(abs(chi)), abs(chi) ** self.rho
        s, ds = s + log * v, ds + log * dv + v / chi
        return scale * s, scale * (ds + self.rho * s / chi)


def second_solution(e: float, m: float, chi_max: float) -> SecondSolution:
    """The exponent-(1 - e) Frobenius branch, truncated like ``fuchs_series``
    (Ince, Ordinary Differential Equations, ch. XVI).

    With y(chi, r) = |chi|^r sum a_n(r) chi^n, a_0 = 1 and
    a_n = -m a_(n-1) / ((n + r)(n + r + e - 1)): for non-integer e,
    y_2 = y(chi, 1 - e), the exponent-zero series of 2 - e times |chi|^(1-e).
    For e = N + 1 (N >= 0), y_2 = d/dr[(r + N)^[N >= 1] y(chi, r)] at r = -N;
    a_n is carried as (value, d log a_n / dr), and the (n + r) pole at n = N
    cancels the (r + N) prefactor."""
    e, m = float(e), float(m)
    _check_e(e)
    if abs(e - round(e)) >= 1e-12:
        s = fuchs_series(2.0 - e, m, chi_max)
        return SecondSolution(1.0 - e, (), s.coefficients, s.truncation, s.tail_bound)
    big_n = round(e) - 1
    log_coeffs, coeffs = [float(big_n == 0)], [float(big_n != 0)]
    a, dlog, scaled = 1.0, 0.0, 1.0  # a_n, d(log a_n)/dr, |a_n| r^n
    r = max(abs(chi_max), 1.0)
    for n in range(1, _MAX_TERMS + 1):
        pole = n == big_n  # at r = -N: n + r = n - N and n + r + e - 1 = n
        denom = n if pole else (n - big_n) * n
        dlog -= 1.0 / n + (0.0 if pole else 1.0 / (n - big_n))
        a = -m * a / denom
        scaled *= abs(m) * r / abs(denom)
        log_coeffs.append(a if n >= big_n else 0.0)
        coeffs.append(a * dlog if n >= big_n else a)
        if n > 4 and n * n * scaled * (1.0 + abs(dlog)) < _TAIL_REL:
            break
    else:
        raise FuchsError("series did not meet the tail bound within %d terms "
                         "(|chi| <= %r)" % (_MAX_TERMS, chi_max))
    tail = (n + 1) ** 2 * scaled * (1.0 + abs(dlog))
    return SecondSolution(-big_n, tuple(log_coeffs), tuple(coeffs), n, tail)


def zero_bracket(series: FuchsSeries, lo: float, hi: float, samples: int = 256):
    """Sign-change bracket of the series on [lo, hi], or None if none is
    seen at the sampling resolution."""
    step = (hi - lo) / samples
    prev_x = lo
    prev_y = series(lo)
    for k in range(1, samples + 1):
        x = lo + k * step
        yv = series(x)
        if prev_y == 0.0 or (prev_y < 0) != (yv < 0):
            return (prev_x, x)
        prev_x, prev_y = x, yv
    return None
