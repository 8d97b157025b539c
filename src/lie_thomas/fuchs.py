"""Power-series solutions of  chi y'' + e y' + m y = 0.

The equation has a regular singular point at chi = 0; the exponent-zero
Frobenius branch y = sum a_n chi^n with a_0 = 1 has an infinite radius of
convergence, so the partial sums evaluate the solution on the whole line.
Coefficients come from the one-step recurrence; the tests pin them to the
closed product formula.  ``fuchs_series`` truncates the one generator of
the recurrence that ``coefficients_recurrence`` also reads.
``second_solution`` is the other branch.

Both records build, off their fields, one table of coefficient rows when
made: the value rows and term-wise derivative rows (n a_n, and n (n - 1)
a_n for the series), each moved down to the power of chi it multiplies.
``series_sums``, the one loop that sums a table, feeds up to five sums from
one chain of powers of chi taken by repeated products, each sum adding its
terms in order of n.  Calling a FuchsSeries and either record's ``eval``
are views of that pass; ``joint_table`` gives a Case 1 point y, y', y'' and
y_2 in one pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice, zip_longest

from .errors import DomainError, Record


class FuchsError(DomainError, ValueError):
    pass


_MAX_TERMS = 400
_TAIL_REL = 1e-16
_BRACKET_SAMPLES = 256


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
        c = self.coefficients
        object.__setattr__(self, "_table", _table((c, 0), (c, 1), (c, 2)))

    def __call__(self, chi: float) -> float:
        """y at chi."""
        return series_sums(self._table, chi)[0]

    def eval(self, chi: float):
        """(y, y', y'') at chi by term-wise differentiation."""
        return series_sums(self._table, chi)[:3]


def _table(*rows):
    """The columns ``series_sums`` walks for up to five rows (c, k): the k-th
    term-wise derivative of sum c_n chi^n, (n! / (n - k)!) c_n moved down to
    the power chi^(n-k) it multiplies.  Column n holds each row's term at
    chi^n; shorter and missing rows are padded with 0.0."""
    rows = [[math.perm(n, k) * a for n, a in enumerate(c)][k:] for c, k in rows]
    return tuple(zip_longest(*rows, *[()] * (5 - len(rows)), fillvalue=0.0))


def series_sums(table, chi: float):
    """sum_n row[n] chi^n for each of a table's five rows, in one pass: one
    chain of powers of chi, taken by repeated products, feeds every sum,
    and each sum adds its terms in order of n."""
    s0 = s1 = s2 = s3 = s4 = 0.0
    power = 1.0
    for c0, c1, c2, c3, c4 in table:
        s0 += c0 * power
        s1 += c1 * power
        s2 += c2 * power
        s3 += c3 * power
        s4 += c4 * power
        power *= chi
    return s0, s1, s2, s3, s4


class SecondSolution(Record):
    """y_2 = |chi|^rho (log|chi| S_v + S_d); S_v is empty unless e is an integer."""

    rho: float
    log_coefficients: tuple  # S_v
    coefficients: tuple  # S_d
    truncation: int
    tail_bound: float

    def __post_init__(self):
        d, v = self.coefficients, self.log_coefficients
        object.__setattr__(self, "_table", _table((d, 0), (d, 1), (v, 0), (v, 1)))

    def value(self, chi: float, s: float, v: float) -> float:
        """y_2 at chi != 0 from its sums S_d = s and S_v = v there."""
        return abs(chi) ** self.rho * (s + math.log(abs(chi)) * v)

    def eval(self, chi: float):
        """(y_2, y_2') at chi != 0."""
        s, ds, v, dv, _ = series_sums(self._table, chi)
        log, scale = math.log(abs(chi)), abs(chi) ** self.rho
        s, ds = s + log * v, ds + log * dv + v / chi
        return scale * s, scale * (ds + self.rho * s / chi)


def joint_table(series: FuchsSeries, second: SecondSolution):
    """The table whose sums at chi are (y, y', y'', S_d, S_v): both
    Frobenius branches in one pass, y_2 = ``second.value(chi, S_d, S_v)``."""
    c = series.coefficients
    return _table((c, 0), (c, 1), (c, 2), (second.coefficients, 0), (second.log_coefficients, 0))


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


def zero_bracket(series: FuchsSeries, lo: float, hi: float):
    """Sign-change bracket of the series on [lo, hi], or None if none is
    seen at ``_BRACKET_SAMPLES`` equal steps."""
    step = (hi - lo) / _BRACKET_SAMPLES
    prev_x = lo
    prev_y = series(lo)
    for k in range(1, _BRACKET_SAMPLES + 1):
        x = lo + k * step
        yv = series(x)
        if prev_y == 0.0 or (prev_y < 0) != (yv < 0):
            return (prev_x, x)
        prev_x, prev_y = x, yv
    return None
