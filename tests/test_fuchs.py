"""Series solutions of chi y'' + e y' + m y = 0 near the regular point."""

import math
import random
from fractions import Fraction

import pytest
from scipy.special import i0, j0, jv, k0, y0

from lie_thomas.fuchs import (
    FuchsError,
    FuchsSeries,
    SecondSolution,
    coefficients_recurrence,
    fuchs_series,
    joint_table,
    second_solution,
    series_sums,
    zero_bracket,
)
from oracles import coefficient_closed, fuchs_solution, ode_residual

F = Fraction


def test_closed_matches_recurrence_exactly():
    for e, m in [(F(1), F(1)), (F(2), F(1)), (F(-7, 2), F(1)), (F(1, 2), F(3, 7)),
                 (F(5, 3), F(-2))]:
        rec = coefficients_recurrence(e, m, 60)
        clo = [coefficient_closed(e, m, n) for n in range(61)]
        assert rec == clo


def test_truncated_series_is_the_recurrence(seed):
    # fuchs_series and coefficients_recurrence read one recurrence, so the
    # truncated float coefficients agree bit for bit
    rng = random.Random(seed)
    for _ in range(200):
        e, m, chi = rng.uniform(0.1, 6.0), rng.uniform(-20.0, 20.0), rng.uniform(0.0, 8.0)
        s = fuchs_series(e, m, chi)
        assert s.coefficients == tuple(coefficients_recurrence(e, m, s.truncation)), (e, m, chi)


def test_closed_form_values():
    # c_n = (-m)^n / (n! (e)_n) with Pochhammer (e)_n
    assert coefficient_closed(F(1), F(1), 3) == F(-1, 36)
    assert coefficient_closed(F(2), F(3), 2) == F(9, 12)
    assert coefficient_closed(F(1), F(1), 0) == 1


def test_bessel_identity():
    # e = m = 1 gives y(chi) = J0(2 sqrt(chi))
    assert abs(fuchs_solution(1, 1, 1.0) - j0(2.0)) < 1e-15
    for chi in (0.25, 0.5, 2.0, 3.5):
        assert abs(fuchs_solution(1, 1, chi) - j0(2.0 * math.sqrt(chi))) < 1e-13


def test_general_bessel_identity():
    # e generic: y = Gamma(e) chi^((1-e)/2) m^((e-1)/2) J_{e-1}(2 sqrt(m chi))
    e, m, chi = 2.0, 1.0, 1.5
    expected = math.gamma(e) * (m * chi) ** ((1 - e) / 2) * jv(e - 1, 2 * math.sqrt(m * chi))
    assert abs(fuchs_solution(e, m, chi) - expected) < 1e-12


def test_ode_residual_small():
    s = fuchs_series(1.0, 1.0, 4.0)
    for chi in (0.5, 1.0, 2.0):
        assert abs(ode_residual(s, chi)) < 1e-12


def test_negative_chi_allowed():
    # the series converges everywhere; negative arguments grow like I0
    s = fuchs_series(1.0, 1.0, 4.0)
    val = fuchs_solution(1.0, 1.0, -1.0)
    assert val > 1.0  # modified-Bessel growth
    assert abs(ode_residual(s, -1.0)) < 1e-10


def test_pole_exponents_rejected():
    for e in (0, -1, -2, Fraction(-3)):
        with pytest.raises(FuchsError):
            fuchs_series(float(e), 1.0, 1.0)


def test_truncation_meets_tail_bound():
    s = fuchs_series(1.0, 1.0, 9.0)
    assert s.tail_bound < 1e-14
    # enough terms for the largest argument, not wildly more
    assert 10 < s.truncation < 200


def test_zero_bracket():
    s = fuchs_series(1.0, 1.0, 4.0)
    lo, hi = zero_bracket(s, 0.1, 4.0)
    # first zero of J0(2 sqrt(chi)): chi = (j_{0,1}/2)^2 = 1.44579649...
    assert lo < 1.4458 < hi
    assert hi - lo < 0.05


def test_zero_bracket_none_when_positive():
    s = fuchs_series(1.0, 1.0, 1.0)
    assert zero_bracket(s, -1.0, -0.1) is None


def test_large_argument_overflow_guard():
    # far beyond chi_max the truncation promise is void but no OverflowError
    s = fuchs_series(1.0, 1.0, 1.0)
    val = fuchs_solution(1.0, 1.0, 30.0)
    assert math.isfinite(val)
    assert s.truncation >= 10


EULER_GAMMA = 0.5772156649015329


def test_second_solution_bessel_identity():
    # e = m = 1, a_0(r) = 1: y_2 = pi Y0(2 sqrt(chi)) - 2 gamma_E J0(2 sqrt(chi))
    # for chi > 0 and -2 K0(2 sqrt|chi|) - 2 gamma_E I0(2 sqrt|chi|) for chi < 0
    s = second_solution(1, 1, 4.0)
    assert s.log_coefficients  # the double-root log branch
    for chi in (0.01, 0.25, 1.0, 2.5, 4.0):
        z = 2.0 * math.sqrt(chi)
        assert abs(s.eval(chi)[0] - (math.pi * y0(z) - 2 * EULER_GAMMA * j0(z))) < 1e-13
        assert abs(s.eval(-chi)[0] - (-2 * k0(z) - 2 * EULER_GAMMA * i0(z))) < 1e-13


@pytest.mark.parametrize("e", [0.5, 1.0, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("m", [1.0, -0.6])
def test_second_solution_abel_identity(e, m):
    # W(y_p, y_2) |chi|^e = sgn(chi)(1 - e), and sgn(chi) when e = 1
    yp = fuchs_series(e, m, 3.0)
    y2 = second_solution(e, m, 3.0)
    assert bool(y2.log_coefficients) == (e == round(e))
    want = 1.0 if e == 1 else 1.0 - e
    for chi in (-3.0, -1.0, -0.05, 0.05, 1.0, 3.0):
        y, ypr, _ = yp.eval(chi)
        v, vpr = y2.eval(chi)
        wronskian = (y * vpr - ypr * v) * abs(chi) ** e
        assert abs(wronskian - want * math.copysign(1.0, chi)) < 1e-11


def test_second_solution_truncation_meets_tail_bound():
    for e in (1.0, 3.0, 0.5):
        s = second_solution(e, 1.0, 9.0)
        assert s.tail_bound < 1e-14
        assert 10 < s.truncation < 200
        assert len(s.coefficients) == s.truncation + 1


def test_second_solution_pole_exponents_rejected():
    for e in (0, -1, -2):
        with pytest.raises(FuchsError):
            second_solution(float(e), 1.0, 1.0)


def _sum_series(coefficients, chi):
    """FuchsSeries.eval as it was before its derivative coefficients were
    precomputed: n a and n (n - 1) a formed per term, behind per-term tests."""
    y = ypr = ypp = 0.0
    power = 1.0  # chi^n
    prev_power = 0.0  # chi^(n-1)
    prev2 = 0.0
    for n, a in enumerate(coefficients):
        y += a * power
        if n >= 1:
            ypr += n * a * prev_power
        if n >= 2:
            ypp += n * (n - 1) * a * prev2
        prev2 = prev_power
        prev_power = power
        power *= chi
    return y, ypr, ypp


def _one_pass_eval(solution, chi):
    """SecondSolution.eval as it was before its derivative coefficients were
    precomputed: S_d and S_v summed in one pass, with a per-term log test."""
    logs = solution.log_coefficients
    s = ds = v = dv = 0.0
    power, prev_power = 1.0, 0.0
    for n, a in enumerate(solution.coefficients):
        s += a * power
        ds += n * a * prev_power
        if logs:
            b = logs[n]
            v += b * power
            dv += n * b * prev_power
        prev_power = power
        power *= chi
    log, scale = math.log(abs(chi)), abs(chi) ** solution.rho
    s, ds = s + log * v, ds + log * dv + v / chi
    return scale * s, scale * (ds + solution.rho * s / chi)


def _two_loop_eval(solution, chi):
    """SecondSolution.eval summing S_d and S_v in separate passes, each with
    its dropped second-derivative sum."""
    s, ds, _ = _sum_series(solution.coefficients, chi)
    v, dv, _ = _sum_series(solution.log_coefficients, chi)
    log, scale = math.log(abs(chi)), abs(chi) ** solution.rho
    s, ds = s + log * v, ds + log * dv + v / chi
    return scale * s, scale * (ds + solution.rho * s / chi)


@pytest.mark.parametrize("e", [1.0, 2.0, 4.0, 0.5, 2.7, -0.3])
def test_second_solution_one_pass_equals_two_loops(e, seed):
    rng = random.Random(seed)
    for m in (1.0, -0.6, 2.3):
        y2 = second_solution(e, m, 5.0)
        assert bool(y2.log_coefficients) == (e == round(e))
        for _ in range(40):
            chi = rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 5.0)
            assert y2.eval(chi) == _two_loop_eval(y2, chi), (e, m, chi)


def _hex(values):
    return tuple(map(float.hex, values))


def _seeded_arguments(seed, e):
    """(m, chis) with 30 chis of both signs, up to and past chi_max = 5."""
    rng = random.Random("%s/%r" % (seed, e))
    for m in (1.0, -0.6, 2.3, rng.uniform(-8.0, 8.0)):
        yield m, [rng.choice((-1.0, 1.0)) * rng.uniform(1e-3, 6.0) for _ in range(30)]


# non-integer e, and integer e, where the second solution takes its log branch
EXPONENTS = [0.5, 2.7, -0.3, 1.0 + 1e-3, 1.0, 2.0, 4.0]


@pytest.mark.parametrize("e", EXPONENTS)
def test_series_eval_and_call_keep_the_per_term_bits(e, seed):
    """eval on the precomputed derivative coefficients rounds every term and
    every partial sum as the per-term loop did; the value-only call gives
    the bits of eval's value."""
    for m, chis in _seeded_arguments(seed, e):
        s = fuchs_series(e, m, 5.0)
        for chi in chis:
            got = s.eval(chi)
            assert _hex(got) == _hex(_sum_series(s.coefficients, chi)), (e, m, chi)
            assert float.hex(s(chi)) == float.hex(got[0]), (e, m, chi)


@pytest.mark.parametrize("e", EXPONENTS)
def test_second_solution_eval_keeps_the_one_pass_bits(e, seed):
    for m, chis in _seeded_arguments(seed, e):
        y2 = second_solution(e, m, 5.0)
        assert bool(y2.log_coefficients) == (e == round(e))
        for chi in chis:
            assert _hex(y2.eval(chi)) == _hex(_one_pass_eval(y2, chi)), (e, m, chi)


def test_joint_sums_take_every_term_of_rows_of_unequal_length():
    """A table pads its shorter rows, it does not cut the longer ones: each
    sum takes every term of its own row, and here each row's last terms
    move its sum by far more than one ulp."""
    series = FuchsSeries(1.0, 1.0, (1.0, -2.0, 3.0), 2, 0.0)
    second = SecondSolution(0.0, (5.0,), (1.0, 1.0, 1.0, 1.0, 1.0, 1.0), 5, 0.0)
    # y = 1 - 2 chi + 3 chi^2, S_d = 1 + chi + ... + chi^5, S_v = 5
    assert series_sums(joint_table(series, second), 2.0) == (9.0, 10.0, 6.0, 63.0, 5.0)
    assert series.eval(2.0) == (9.0, 10.0, 6.0)
    # S_d' = 1 + 2 chi + ... + 5 chi^4 = 129, and S_v' = 0
    assert second.eval(2.0) == (63.0 + math.log(2.0) * 5.0, 129.0 + 5.0 / 2.0)


@pytest.mark.parametrize("e", EXPONENTS)
def test_joint_sums_keep_the_bits_of_both_records(e, seed):
    """One pass over the joint table gives eval's (y, y', y'') and the bits
    of y_2, though the two series are truncated at different lengths."""
    for m, chis in _seeded_arguments(seed, e):
        s, y2 = fuchs_series(e, m, 5.0), second_solution(e, m, 5.0)
        table = joint_table(s, y2)
        for chi in chis:
            y, ypr, ypp, sd, sv = series_sums(table, chi)
            assert _hex((y, ypr, ypp)) == _hex(s.eval(chi)), (e, m, chi)
            assert float.hex(y2.value(chi, sd, sv)) == float.hex(y2.eval(chi)[0]), (e, m, chi)
