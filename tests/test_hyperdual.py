"""Second-order forward-mode numbers carrying (value, d/dx, d/dy, d2/dxdy), a
grid row at a time.  A point is a row of one; every row operation is
compared bit for bit with the one-point reference in oracles.py."""

import math
from fractions import Fraction as F

import pytest

from lie_thomas.hyperdual import HyperDualError, HyperDualRow, affine, cos_, exp_, lift, log_
from oracles import HyperDual


def _point(x, y):
    """The rows of one x + eps1 and y + eps2 at the point (x, y)."""
    return HyperDualRow.seed([x], [y])


def _check(z, f, fx, fy, fxy, tol=1e-12):
    (value,), (dx,), (dy,), (dxy,) = z.value, z.dx, z.dy, z.dxy
    assert abs(value - f) < tol
    assert abs(dx - fx) < tol
    assert abs(dy - fy) < tol
    assert abs(dxy - fxy) < tol


def test_seed_and_arithmetic():
    x, y = _point(0.7, -0.4)
    # f = x^2 y + 3x - y: fx = 2xy + 3, fy = x^2 - 1, fxy = 2x
    z = x * x * y + 3 * x - y
    _check(z, 0.7**2 * -0.4 + 2.1 + 0.4, 2 * 0.7 * -0.4 + 3, 0.7**2 - 1, 1.4)


def test_exp_log_chain():
    x, y = _point(0.5, 0.25)
    # f = log(exp(x*y)) must return x*y exactly up to rounding
    z = log_(exp_(x * y))
    _check(z, 0.125, 0.25, 0.5, 1.0, tol=1e-14)


def test_exp_mixed_partial():
    x, y = _point(0.5, 0.3)
    # f = exp(x + 2y): fxy = 2 exp(x + 2y)
    z = exp_(x + 2 * y)
    e = math.exp(1.1)
    _check(z, e, e, 2 * e, 2 * e)


def test_log_derivatives():
    x, y = _point(2.0, 3.0)
    # f = log(x y): fx = 1/x, fy = 1/y, fxy = 0
    z = log_(x * y)
    _check(z, math.log(6.0), 0.5, 1 / 3, 0.0)


def test_cos_derivatives():
    x, y = _point(0.4, 0.2)
    # f = cos(x y): fx = -y sin(xy), fy = -x sin(xy), fxy = -sin(xy) - xy cos(xy)
    z = cos_(x * y)
    s, c = math.sin(0.08), math.cos(0.08)
    _check(z, c, -0.2 * s, -0.4 * s, -s - 0.08 * c)
    assert cos_(0.08) == c


def test_sqrt_and_pow():
    x, y = _point(4.0, 1.0)
    w = x**3
    _check(w, 64.0, 48.0, 0.0, 0.0)


def test_abs_and_neg():
    x, _ = _point(-2.0, 0.0)
    z = abs(x)
    assert z.value == [2.0] and z.dx == [-1.0]
    assert (-x).value == [2.0]


def test_log_domain_error():
    x, _ = _point(-1.0, 0.0)
    with pytest.raises(ValueError):
        log_(x)


def test_lift_with_derivatives():
    # lift f(t) = sin(t) onto t = x*y and compare against the direct chain
    x, y = _point(0.6, 0.7)
    z = lift(x * y, lambda v: (math.sin(v), math.cos(v), -math.sin(v)))
    s, c = math.sin(0.42), math.cos(0.42)
    fxy = c - s * 0.42  # d2/dxdy sin(xy) = cos(xy) - xy sin(xy)
    _check(z, s, 0.7 * c, 0.6 * c, fxy)


def test_lift_on_plain_float():
    z = lift(2.0, lambda v: (v * v, 2 * v, 2.0))
    assert z == 4.0


def test_log_domain_error_is_a_package_error():
    from lie_thomas import algebra
    from lie_thomas.params import ThomasParams

    x, _ = _point(-1.0, 0.0)
    for bad in (x, -1.0, 0.0):
        with pytest.raises(HyperDualError):
            log_(bad)
    # gamma*g*eps + e^(gamma*u) = -5 + 1 <= 0 at u = 0
    p = ThomasParams(1, 1, 1)
    with pytest.raises(algebra.GroupDomainError):
        algebra.group_action("g", -5.0, (0.3, 0.2, 0.0), p, g=1.0)
    moved = algebra.transform_solution("g", -5.0, lambda x, y: 0.0 * x, p, g=1.0)
    for pt in ((0.3, 0.2), _point(0.3, 0.2)):
        with pytest.raises(algebra.GroupDomainError):
            moved(*pt)


# --- the float path -----------------------------------------------------------


def _draw_part(rng):
    # signed zeros and small integers besides uniform draws, so that both
    # the order of the roundings and the sign of a zero result show
    return rng.choice([0.0, -0.0, 1.0, float(rng.randint(-4, 4)),
                       rng.uniform(-3.0, 3.0), rng.uniform(-1e4, 1e4)])


def _assert_same_float(got, want):
    assert type(got) is float and type(want) is float
    assert float.hex(got) == float.hex(want)


def test_float_path_gives_the_math_module_bits(rng):
    """On plain floats, as ``solve --format csv`` and the grid workload's
    sampling evaluate a family, each function returns the float its math
    module or composed form returns."""
    def fn(v):
        return math.sin(v), math.cos(v), -math.sin(v)

    for _ in range(200):
        v = rng.choice([0.0, -0.0, rng.uniform(-30.0, 30.0)])
        _assert_same_float(exp_(v), math.exp(v))
        _assert_same_float(cos_(v), math.cos(v))
        _assert_same_float(lift(v, fn), fn(v)[0])
        w = rng.choice([5e-324, 1.0, rng.uniform(1e-3, 1e3), 1.7e308])
        _assert_same_float(log_(w), math.log(w))
        a, x, b, y, c = (_draw_part(rng) for _ in range(5))
        _assert_same_float(affine(a, x, b, y, c), a * x + b * y + c)
    for bad in (0.0, -0.0, -5e-324, -rng.uniform(1e-3, 1e3), -math.inf):
        with pytest.raises(HyperDualError, match="non-positive"):
            log_(bad)


# --- rows against the one-point reference -----------------------------------


def _bits(z):
    """The four parts of a reference hyper-dual as exact hex strings (==
    alone does not tell -0.0 from 0.0)."""
    return tuple(float.hex(v) for v in (z.value, z.dx, z.dy, z.dxy))


def _row(hds):
    return HyperDualRow(*([getattr(h, part) for h in hds] for part in ("value", "dx", "dy", "dxy")))


def _row_bits(row):
    """Each element of a row as the hex strings of its four parts."""
    return [tuple(float.hex(v) for v in parts)
            for parts in zip(row.value, row.dx, row.dy, row.dxy)]


def _assert_same_row(got, want):
    assert type(got) is HyperDualRow and type(want) is HyperDualRow
    assert _row_bits(got) == _row_bits(want)


def _draw_hyperdual(rng):
    return HyperDual(*(_draw_part(rng) for _ in range(4)))


def _draw_row(rng, n, draw=_draw_hyperdual):
    return _row([draw(rng) for _ in range(n)])


def test_affine_equals_the_composed_operations(rng):
    for _ in range(200):
        n = rng.randint(1, 8)
        a, b, c = (_draw_part(rng) for _ in range(3))
        x, y = _draw_row(rng, n), _draw_row(rng, n)
        _assert_same_row(affine(a, x, b, y, c), a * x + b * y + c)
        # mixed arguments fall back to the composed operations
        fy = _draw_part(rng)
        _assert_same_row(affine(a, x, b, fy, c), a * x + b * fy + c)
    x, y = _point(0.3, -1.7)
    _check(affine(2.0, x, -3.0, y, 0.5), 0.6 + 5.1 + 0.5, 2.0, -3.0, 0.0)


def test_subtraction_rounds_as_adding_the_negation(rng):
    for _ in range(200):
        n = rng.randint(1, 8)
        x, y, c = _draw_row(rng, n), _draw_row(rng, n), _draw_part(rng)
        _assert_same_row(x - y, x + (-y))
        _assert_same_row(x - c, x + (-c))
        _assert_same_row(c - x, (-x) + c)


def test_arithmetic_results_hold_floats():
    x, y = _point(1.5, 0.5)
    z = x * y + 1
    results = [
        x + y, x + 1, 1 + x, x - y, x - 1, 1 - x, -x, x * y, x * 2, 2 * x, x / 2,
        x / F(1, 2), x**0, x**3, x**-2, abs(-x), z.exp(), z.log(), z.cos(),
        affine(2, x, 3, y, 1), *_point(2, F(1, 2)), lift(x, lambda v: (4.0, 4.0, 2.0)),
    ]
    for r in results:
        assert type(r) is HyperDualRow
        for part in (r.value, r.dx, r.dy, r.dxy):
            assert type(part) is list and [type(v) for v in part] == [float], (r, part)


def _draw_moderate(rng):
    # values exp() and cos() take without overflow, signed zeros included
    return HyperDual(rng.choice([0.0, -0.0, rng.uniform(-30.0, 30.0)]),
                     *(_draw_part(rng) for _ in range(3)))


def _draw_positive(rng):
    return HyperDual(rng.choice([1.0, rng.uniform(1e-3, 1e3)]), *(_draw_part(rng) for _ in range(3)))


def _draw_nonzero(rng):
    return HyperDual(rng.choice([-1.0, 1.0]) * rng.choice([1.0, rng.uniform(1e-3, 1e3)]),
                     *(_draw_part(rng) for _ in range(3)))


def _sin_lift(c):
    return lambda v: (math.sin(v), c * v, v * v)


def _same(op):
    return op, op


# name -> (draw of one element, operation on rows, operation on reference
# hyper-duals); a and b are rows or reference hyper-duals, c one float
# shared by the row.  The arithmetic is one operation on both; the package
# functions meet the reference's methods and its composed affine form.
ROW_OPS = {
    "add": (_draw_hyperdual, *_same(lambda a, b, c: a + b)),
    "add_float": (_draw_hyperdual, *_same(lambda a, b, c: a + c)),
    "radd_float": (_draw_hyperdual, *_same(lambda a, b, c: c + a)),
    "sub": (_draw_hyperdual, *_same(lambda a, b, c: a - b)),
    "sub_float": (_draw_hyperdual, *_same(lambda a, b, c: a - c)),
    "rsub_float": (_draw_hyperdual, *_same(lambda a, b, c: c - a)),
    "neg": (_draw_hyperdual, *_same(lambda a, b, c: -a)),
    "mul": (_draw_hyperdual, *_same(lambda a, b, c: a * b)),
    "mul_float": (_draw_hyperdual, *_same(lambda a, b, c: a * c)),
    "rmul_float": (_draw_hyperdual, *_same(lambda a, b, c: c * a)),
    "div_float": (_draw_hyperdual, *_same(lambda a, b, c: a / (c or 3.0))),
    "pow_int": (_draw_nonzero, *_same(lambda a, b, c: a ** (int(c) % 7 - 3))),
    "abs": (_draw_hyperdual, *_same(lambda a, b, c: abs(a))),
    "exp": (_draw_moderate, lambda a, b, c: exp_(a), lambda a, b, c: a.exp()),
    "log": (_draw_positive, lambda a, b, c: log_(a), lambda a, b, c: a.log()),
    "cos": (_draw_moderate, lambda a, b, c: cos_(a), lambda a, b, c: a.cos()),
    "affine": (_draw_hyperdual, lambda a, b, c: affine(c, a, -2.5, b, 0.75),
               lambda a, b, c: c * a + -2.5 * b + 0.75),
    "lift": (_draw_moderate, lambda a, b, c: lift(a, _sin_lift(c)),
             lambda a, b, c: a._lift(*_sin_lift(c)(a.value))),
}


@pytest.mark.parametrize("name", sorted(ROW_OPS))
def test_row_operations_round_as_the_scalar_ones(name, rng):
    draw, row_op, reference_op = ROW_OPS[name]
    negatives = zeros = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        a = [draw(rng) for _ in range(n)]
        b = [draw(rng) for _ in range(n)]
        c = _draw_part(rng)
        want = [_bits(reference_op(x, y, c)) for x, y in zip(a, b)]
        got = row_op(_row(a), _row(b), c)
        assert type(got) is HyperDualRow
        assert _row_bits(got) == want, (name, a, b, c)
        negatives += sum(h.value < 0 for h in a)
        zeros += sum(h.value == 0 for h in a)
    if name == "abs":
        assert negatives > 100 and zeros > 20, (negatives, zeros)


def test_rows_have_no_order_or_truth_value():
    x, y = HyperDualRow.seed([0.5, 0.5], [0.25, -1.0])
    for branch in (lambda: x < 0.0, lambda: x > y, lambda: 0.0 < x, lambda: x >= 1.5,
                   lambda: x <= y, lambda: bool(x), lambda: 1.0 if x else 0.0):
        with pytest.raises(TypeError, match="must not branch"):
            branch()


# names in a hyper-dual class that are not operations: construction,
# representation and the stored parts
_NOT_OPERATIONS = {"__module__", "__doc__", "__slots__", "__init__", "__repr__", "seed",
                   "_parts", "value", "dx", "dy", "dxy"}


def _operations(cls):
    return set(vars(cls)) - _NOT_OPERATIONS


def test_reference_and_row_take_one_operation_set():
    """The reference cannot drift from the class it checks: an operation
    added to one and not the other fails here."""
    ops = _operations(HyperDual)
    assert ops == _operations(HyperDualRow)
    assert {"__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
            "__truediv__", "__pow__", "__abs__", "exp", "log", "cos", "_lift"} <= ops
    assert not {"sqrt", "tan", "arctan", "__rtruediv__"} & ops
    messages = set()
    for x, y in ((HyperDual(0.5, 1.0), HyperDual(0.25, 0.0, 1.0)), _point(0.5, 0.25)):
        for branch in (lambda: x < y, lambda: x < 0.0, lambda: bool(x)):
            with pytest.raises(TypeError) as err:
                branch()
            messages.add(str(err.value))
    assert len(messages) == 1, messages


def test_row_log_raises_the_scalar_error_at_the_first_bad_element():
    values = [2.0, 0.5, -0.0, -3.0, 0.0]
    with pytest.raises(HyperDualError) as scalar:
        HyperDual(-0.0).log()
    with pytest.raises(HyperDualError) as row:
        log_(_row([HyperDual(v, 1.0) for v in values]))
    assert str(row.value) == str(scalar.value)
