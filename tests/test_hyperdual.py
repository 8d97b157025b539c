"""Second-order forward-mode numbers carrying (value, d/dx, d/dy, d2/dxdy)."""

import math

import pytest

from lie_thomas.hyperdual import (
    HyperDual,
    cos_,
    exp_,
    lift_with_derivatives,
    log_,
    seed,
    sqrt_,
    tan_,
    value_of,
)


def _check(z, f, fx, fy, fxy, tol=1e-12):
    assert abs(z.value - f) < tol
    assert abs(z.dx - fx) < tol
    assert abs(z.dy - fy) < tol
    assert abs(z.dxy - fxy) < tol


def test_seed_and_arithmetic():
    x, y = seed(0.7, -0.4)
    # f = x^2 y + 3x - y: fx = 2xy + 3, fy = x^2 - 1, fxy = 2x
    z = x * x * y + 3 * x - y
    _check(z, 0.7**2 * -0.4 + 2.1 + 0.4, 2 * 0.7 * -0.4 + 3, 0.7**2 - 1, 1.4)


def test_division():
    x, y = seed(1.3, 0.9)
    # f = x/y: fx = 1/y, fy = -x/y^2, fxy = -1/y^2
    z = x / y
    _check(z, 1.3 / 0.9, 1 / 0.9, -1.3 / 0.81, -1 / 0.81)
    z2 = 2.0 / y
    _check(z2, 2 / 0.9, 0.0, -2 / 0.81, 0.0)


def test_exp_log_chain():
    x, y = seed(0.5, 0.25)
    # f = log(exp(x*y)) must return x*y exactly up to rounding
    z = log_(exp_(x * y))
    _check(z, 0.125, 0.25, 0.5, 1.0, tol=1e-14)


def test_exp_mixed_partial():
    x, y = seed(0.5, 0.3)
    # f = exp(x + 2y): fxy = 2 exp(x + 2y)
    z = exp_(x + 2 * y)
    e = math.exp(1.1)
    _check(z, e, e, 2 * e, 2 * e)


def test_log_derivatives():
    x, y = seed(2.0, 3.0)
    # f = log(x y): fx = 1/x, fy = 1/y, fxy = 0
    z = log_(x * y)
    _check(z, math.log(6.0), 0.5, 1 / 3, 0.0)


def test_tan_derivatives():
    x, y = seed(0.4, 0.2)
    # f = tan(x y): f' = (1 + tan^2), fxy via product rule
    z = tan_(x * y)
    t = math.tan(0.08)
    sec2 = 1 + t * t
    fxy = sec2 + 2 * t * sec2 * 0.08
    _check(z, t, 0.2 * sec2, 0.4 * sec2, fxy)


def test_cos_derivatives():
    x, y = seed(0.4, 0.2)
    # f = cos(x y): fx = -y sin(xy), fy = -x sin(xy), fxy = -sin(xy) - xy cos(xy)
    z = cos_(x * y)
    s, c = math.sin(0.08), math.cos(0.08)
    _check(z, c, -0.2 * s, -0.4 * s, -s - 0.08 * c)
    assert cos_(0.08) == c


def test_sqrt_and_pow():
    x, y = seed(4.0, 1.0)
    z = sqrt_(x)
    _check(z, 2.0, 0.25, 0.0, 0.0)
    w = x**3
    _check(w, 64.0, 48.0, 0.0, 0.0)


def test_abs_and_neg():
    x, _ = seed(-2.0, 0.0)
    z = abs(x)
    assert z.value == 2.0 and z.dx == -1.0
    assert (-x).value == 2.0


def test_arctan():
    x, y = seed(1.0, 2.0)
    z = (x * y).arctan()
    # d/dx arctan(xy) = y/(1+x^2 y^2); dxy = (1 - x^2 y^2)/(1 + x^2 y^2)^2
    _check(z, math.atan(2.0), 2 / 5, 1 / 5, (1 - 4) / 25)


def test_log_domain_error():
    x, _ = seed(-1.0, 0.0)
    with pytest.raises(ValueError):
        log_(x)


def test_comparisons_and_value_of():
    x, y = seed(1.5, 2.5)
    assert x < y and y > 1.5 and x >= 1.5
    assert value_of(x) == 1.5
    assert value_of(3.25) == 3.25


def test_lift_with_derivatives():
    # lift f(t) = sin(t) onto t = x*y and compare against the direct chain
    x, y = seed(0.6, 0.7)
    t = x * y
    z = lift_with_derivatives(t, math.sin(t.value), math.cos(t.value),
                              -math.sin(t.value))
    s, c = math.sin(0.42), math.cos(0.42)
    fxy = c - s * 0.42  # d2/dxdy sin(xy) = cos(xy) - xy sin(xy)
    _check(z, s, 0.7 * c, 0.6 * c, fxy)


def test_lift_on_plain_float():
    z = lift_with_derivatives(2.0, 4.0, 4.0, 2.0)
    assert z == 4.0


def test_log_domain_error_is_a_package_error():
    from lie_thomas import algebra
    from lie_thomas.hyperdual import HyperDualError

    x, _ = seed(-1.0, 0.0)
    for bad in (x, -1.0, 0.0):
        with pytest.raises(HyperDualError):
            log_(bad)
    with pytest.raises(algebra.GroupDomainError):
        algebra._log(-1.0)
